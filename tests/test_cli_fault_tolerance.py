"""CLI coverage for the fault-tolerance surface.

Exit code 3 ("executor failure") with a one-line diagnosis, the
quarantine summary on successful runs, and the checkpoint/resume flow
of ``repro adapt``.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main
from repro.errors import WatchdogTimeout
from repro.ptest import adaptive as adaptive_module
from repro.ptest.executor import CellExecutor
from repro.ptest.pool import shutdown_pools


@pytest.fixture(autouse=True)
def _deterministic_pool_teardown():
    shutdown_pools()
    yield
    shutdown_pools()


class TestExecutorFailureExitCode:
    def test_campaign_broken_pool_exits_3(self, capsys, monkeypatch):
        def _boom(self, variants, cells, *, sink=None):
            raise BrokenProcessPool("worker died mid-campaign")

        monkeypatch.setattr(CellExecutor, "run_cells", _boom)
        assert main(["campaign", "philosophers", "--workers", "2"]) == 3
        out = capsys.readouterr().out
        assert "executor failure: BrokenProcessPool" in out
        assert "--quarantine" in out  # actionable hint when it was off

    def test_campaign_watchdog_timeout_exits_3_not_2(self, capsys, monkeypatch):
        # WatchdogTimeout subclasses ReproError; it must hit the
        # executor-failure arm (exit 3), not the config-error arm.
        def _hang(self, variants, cells, *, sink=None):
            raise WatchdogTimeout("batch exceeded 0.5s/cell")

        monkeypatch.setattr(CellExecutor, "run_cells", _hang)
        assert main(["campaign", "philosophers", "--cell-timeout", "0.5"]) == 3
        assert "executor failure: WatchdogTimeout" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cell_timeout_exits_2(self, capsys, value):
        argv = ["campaign", "philosophers", "--seeds", "4", "--workers", "2"]
        assert main(argv + ["--cell-timeout", value]) == 2
        assert "cell_timeout must be a finite number" in capsys.readouterr().out

    def test_hint_suppressed_when_quarantine_already_on(self, capsys, monkeypatch):
        def _boom(self, variants, cells, *, sink=None):
            raise BrokenProcessPool("boom")

        monkeypatch.setattr(CellExecutor, "run_cells", _boom)
        assert main(["campaign", "philosophers", "--quarantine"]) == 3
        assert "--quarantine to bisect" not in capsys.readouterr().out

    def test_adapt_broken_pool_exits_3(self, capsys, monkeypatch):
        def _boom(self, sink=None):
            raise BrokenProcessPool("worker died in round 2")

        monkeypatch.setattr(adaptive_module.AdaptiveCampaign, "run", _boom)
        assert main(["adapt", "philosophers", "--workers", "2"]) == 3
        out = capsys.readouterr().out
        assert "executor failure: BrokenProcessPool: worker died" in out


class TestQuarantineSummaryOutput:
    def test_campaign_prints_explicit_zero_quarantine(self, capsys):
        code = main(
            [
                "campaign",
                "philosophers",
                "--seeds",
                "3",
                "--quarantine",
                "--cell-timeout",
                "60",
            ]
        )
        assert code in (0, 1)  # bug-found exit is fine; crash exits are not
        out = capsys.readouterr().out
        assert "quarantine: 0 of" in out

    def test_flags_parse_without_workers(self, capsys):
        # Serial path: the knobs are accepted (quarantine isolates
        # raising cells; the watchdog is documented inert).
        assert (
            main(
                [
                    "campaign",
                    "clean_spin",
                    "--seeds",
                    "2",
                    "--quarantine",
                ]
            )
            == 0
        )
        assert "quarantine: 0 of 2 cells" in capsys.readouterr().out


class TestAdaptCheckpointFlow:
    def test_resume_without_checkpoint_is_config_error(self, capsys):
        assert main(["adapt", "philosophers", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().out

    def test_checkpoint_then_resume_reports_replayed_rounds(self, capsys, tmp_path):
        path = str(tmp_path / "adapt.ckpt")
        base = [
            "adapt",
            "philosophers",
            "--seeds",
            "3",
            "--rounds",
            "2",
            "--policy",
            "repeat",
            "--checkpoint",
            path,
        ]
        first_code = main(base)
        first_out = capsys.readouterr().out
        resumed_code = main(base + ["--resume"])
        resumed_out = capsys.readouterr().out
        assert resumed_code == first_code
        assert "[resumed 2 round(s) from checkpoint]" in resumed_out
        # Replay is bit-identical: every round table line of the first
        # run reappears verbatim in the resumed run's output.
        for line in first_out.splitlines():
            if line.strip().startswith("round"):
                assert line in resumed_out
