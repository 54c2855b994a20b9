"""Crash-safe checkpointing for adaptive campaigns.

An adaptive campaign is a sequence of expensive rounds whose inputs are
pure functions of the completed rounds' observations (see the
determinism contract in :mod:`repro.ptest.adaptive`).  That makes the
round boundary a natural checkpoint: persist each
:class:`~repro.ptest.adaptive.RoundObservation` as it completes and a
killed campaign can *resume* — completed rounds replay from disk
through the refine schedule (rebuilding the stage position without
re-executing a single cell) and execution picks up at the first round
the checkpoint does not cover, producing results bit-identical to an
uninterrupted run.

Two properties do the heavy lifting:

* **Atomic saves.**  Every save writes a temporary file in the
  checkpoint's directory, flushes and fsyncs it, then renames it (via
  ``os.replace``) over the destination — so a crash mid-save leaves either the
  previous complete checkpoint or the new complete checkpoint, never a
  torn file.  (A stray ``*.tmp`` neighbour after a crash is dead weight,
  not state.)
* **Fingerprinting.**  The payload embeds a digest of the campaign's
  identity — seeds, initial variants, policy, capture limit — and
  :meth:`CampaignCheckpoint.load` refuses (with
  :class:`~repro.errors.CheckpointError`) to hand observations from one
  campaign to a differently-configured resume.  The round budget is
  deliberately *not* fingerprinted: extending ``rounds`` and resuming
  is the supported way to continue a finished study.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import CheckpointError

if TYPE_CHECKING:
    from repro.ptest.adaptive import PolicyPipeline, RefinePolicy, RoundObservation
    from repro.ptest.pool import Variant

#: Bumped whenever the payload layout changes; a mismatch on load is a
#: :class:`~repro.errors.CheckpointError`, never a silent misread.
CHECKPOINT_VERSION = 1


def _policy_signature(policy: "RefinePolicy | PolicyPipeline") -> str:
    """A stable textual identity for ``policy``.

    Built-in policies are dataclasses whose reprs are deterministic.  A
    :class:`~repro.ptest.adaptive.PolicyPipeline` signs with its
    ``describe()`` ("grid_zoom:3 -> replay:2"), the identity its
    checkpoints have always carried.  Custom policies should provide
    one or the other — an identity that drifts between runs merely
    makes resume refuse with a fingerprint mismatch, it can never
    corrupt results.
    """
    describe = getattr(policy, "describe", None)
    if callable(describe):
        return f"{type(policy).__name__}({describe()})"
    return repr(policy)


def campaign_fingerprint(
    seeds: Iterable[int],
    variants: Mapping[str, "Variant"],
    policy: "RefinePolicy | PolicyPipeline",
    capture_per_variant: int,
) -> str:
    """Digest of the campaign identity a checkpoint belongs to.

    Everything that determines round-by-round *results* is included;
    execution knobs (workers, batch size, warm/cold, chaos) are not —
    the determinism contract guarantees they cannot change results, so
    a campaign may legitimately resume under a different execution
    configuration than it started with.
    """
    description = repr(
        (
            tuple(seeds),
            tuple((name, repr(b)) for name, b in variants.items()),
            _policy_signature(policy),
            capture_per_variant,
        )
    )
    return hashlib.sha256(description.encode("utf-8")).hexdigest()[:24]


class CampaignCheckpoint:
    """Atomic load/save of one adaptive campaign's round progress.

    The payload is a plain dict —
    ``{"version", "fingerprint", "observations", "stopped_early",
    "finished"}`` — whose observations are the campaign's
    :class:`~repro.ptest.adaptive.RoundObservation` records, pickled
    because they carry :class:`~repro.workloads.registry.ScenarioRef` /
    :class:`~repro.ptest.replay.ReplayRef` variants (the same values
    the worker-pool wire format ships).  A ref whose parameter values
    cannot pickle cannot checkpoint, exactly as it cannot ride a pool
    batch; the save raises :class:`~repro.errors.CheckpointError`
    naming the problem up front.  Older payloads resume unchanged:
    other keys are ignored on load (checkpoints written while adaptive
    campaigns still pre-warmed their pools carry that counter too),
    refs pickled while they still carried a ``registry`` field (always
    ``None`` for a campaign variant, and never part of equality or the
    fingerprint) load as today's refs, and observations stored with
    per-variant ``detections`` and no ``stage`` load as flat, row-order
    samples with ``stage`` ``None``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self, expected_fingerprint: str) -> dict[str, Any]:
        """Read and validate the payload; raises on any mismatch."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint at {self.path}"
            ) from None
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from error
        try:
            payload = pickle.loads(raw)
        except Exception as error:
            raise CheckpointError(
                f"checkpoint {self.path} is corrupt "
                f"({type(error).__name__}: {error}); delete it to start "
                "fresh"
            ) from error
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CHECKPOINT_VERSION
        ):
            raise CheckpointError(
                f"checkpoint {self.path} has version "
                f"{payload.get('version') if isinstance(payload, dict) else '?'}, "
                f"this build reads version {CHECKPOINT_VERSION}"
            )
        if payload.get("fingerprint") != expected_fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different campaign "
                "(seeds, initial variants, policy or capture limit "
                "changed); delete it to start fresh"
            )
        return payload

    def save(
        self,
        *,
        fingerprint: str,
        observations: "list[RoundObservation]",
        stopped_early: bool,
        finished: bool,
    ) -> None:
        """Atomically persist the campaign's progress so far."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "observations": list(observations),
            "stopped_early": stopped_early,
            "finished": finished,
        }
        try:
            blob = pickle.dumps(payload)
        except Exception as error:
            raise CheckpointError(
                f"campaign state cannot be pickled for checkpointing "
                f"({type(error).__name__}: {error}); scenario "
                "parameters must be picklable"
            ) from error
        directory = self.path.parent
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=directory, prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, self.path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except CheckpointError:
            raise
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {error}"
            ) from error

    def clear(self) -> None:
        """Remove the checkpoint file (missing is fine)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
