"""E4 — Fig. 1: the concurrency-fault example.

Regenerates the example's two execution orders on the simulated SoC:
the good order terminates reaching every line label, the bad order
wedges the system with states d, e, i, j unreachable and pTest's
detector flagging S1's starvation.  The benchmark times one full bad
order run (resume, wedge, detect).
"""

from __future__ import annotations

from repro.workloads.fig1 import run_fig1

from conftest import format_table


def test_fig1_orders(benchmark, emit):
    good = run_fig1("good")
    bad = run_fig1("bad")

    rows = [
        (
            "L f g K i j a b d e (good)",
            "terminated" if good.terminated else "wedged",
            "".join(sorted(good.reached)),
            "".join(sorted(good.unreachable)) or "(none)",
            "; ".join(a.kind.value for a in good.anomalies) or "(none)",
        ),
        (
            "K a L f g h ... (bad)",
            "terminated" if bad.terminated else "wedged",
            "".join(sorted(bad.reached)),
            "".join(sorted(bad.unreachable)) or "(none)",
            "; ".join(a.kind.value for a in bad.anomalies) or "(none)",
        ),
    ]
    text = (
        format_table(
            ["execution order", "outcome", "reached", "unreachable", "detector"],
            rows,
        )
        + "\n\npaper's claim: the bad order enters the deadlock state and"
        + "\n'the state d, e, i, j are unreachable' — reproduced: "
        + f"{'yes' if {'d', 'e', 'i', 'j'} <= bad.unreachable else 'NO'}"
        + "\n(modelling note: under strict priority scheduling the wedge"
        + "\nmanifests as S2 spinning and S1 starving — a livelock, which"
        + "\nthe detector reports as starvation)"
    )
    emit("E4_fig1_deadlock", text)

    assert good.terminated and good.unreachable == frozenset()
    assert bad.wedged and {"d", "e", "i", "j"} <= bad.unreachable
    assert bad.anomalies

    benchmark(lambda: run_fig1("bad"))
