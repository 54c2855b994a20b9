"""pTest: the adaptive testing tool (the paper's contribution).

The three key components of Fig. 2, plus the harness that ties them to
the simulated OMAP platform:

* :mod:`repro.ptest.generator` — the **pattern generator** (Algorithm 2):
  regular expression + probability distribution -> PFA -> test patterns.
* :mod:`repro.ptest.merger` — the **pattern merger** (the ``op``
  parameter of Algorithm 1): systematically interleaves *n* patterns
  into one merged pattern, "similar to a process scheduler".
* :mod:`repro.ptest.detector` — the **bug detector**: watches task
  states, the wait-for graph and bridge reply latencies; classifies
  crashes, deadlocks, starvation and hangs; dumps reproduction info.
* :mod:`repro.ptest.committer` — the committer issuing the merged
  pattern's remote commands through the bridge.
* :mod:`repro.ptest.recording` — Definition 2 state records.
* :mod:`repro.ptest.harness` — ``AdaptiveTest`` (Algorithm 1), end to
  end on the simulated SoC.
* :mod:`repro.ptest.pcore_model` — the pCore PFA of Fig. 5 with the
  paper's probabilities, and RE (2).
* :mod:`repro.ptest.pool` — persistent, health-checked worker pools,
  the deduped ref-table batch wire format, and the one cell path: the
  cached scenario/PFA/merged-pattern resolution every campaign cell
  runs through, in a worker or in-process.
* :mod:`repro.ptest.adaptive` — the campaign engine: rounds of cells
  on one ``CellExecutor`` and one warm pool (one round is a plain
  sweep), with pluggable ``RefinePolicy`` (grid zoom, successive
  halving, merged-pattern replay focus) feeding detection results back
  into the next round's scenario refs.
* :mod:`repro.ptest.pipeline` — composable refinement schedules:
  ``PolicyPipeline`` stages existing policies (zoom for N rounds, then
  replay once detections plateau) and is itself a ``RefinePolicy``,
  so composed schedules run on the same warm pool.
* :mod:`repro.ptest.spec` — the frozen, JSON-serializable
  ``CampaignSpec`` request schema and ``execute_spec``, the single
  execution entry point shared by the CLI subcommands, ``repro serve``
  and :mod:`repro.client`.
"""

from repro.ptest.config import PTestConfig
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern
from repro.ptest.generator import PatternGenerator
from repro.ptest.merger import MERGE_OPS, PatternMerger, register_merge_op
from repro.ptest.recording import ProcessStateRecorder, StateRecord
from repro.ptest.detector import (
    Anomaly,
    AnomalyKind,
    BugDetector,
    DetectorConfig,
)
from repro.ptest.committer import Committer, PairBinding
from repro.ptest.report import BugReport
from repro.ptest.harness import AdaptiveTest, TestRunResult, run_adaptive_test
from repro.ptest.shrink import PatternShrinker, ShrinkResult, truncate_merged
from repro.ptest.campaign import (
    CampaignRow,
    DetectionCapture,
    DetectionSample,
    grid_variants,
)
from repro.ptest.adaptive import (
    AdaptiveCampaign,
    AdaptiveResult,
    GridZoom,
    POLICIES,
    RefinePolicy,
    Repeat,
    ReplayFocus,
    RoundObservation,
    SuccessiveHalving,
)
from repro.ptest.pipeline import (
    PipelineStage,
    Plateau,
    PolicyPipeline,
    StageCondition,
    Until,
    parse_pipeline,
)
from repro.ptest.executor import (
    CellExecutor,
    CollectSink,
    ResultSink,
    WorkCell,
)
from repro.ptest.pool import (
    WorkerPool,
    close_pool,
    get_pool,
    make_batch_table,
    run_table_batch,
    shutdown_pools,
)
from repro.ptest.waitgraph import IncrementalWaitForGraph, find_cycle_edges
from repro.ptest.replay import ReplayRef, parse_merged_description, replay_ref
from repro.ptest.spec import CampaignSpec, SpecOutcome, execute_spec
from repro.ptest.pcore_model import (
    PCORE_REGULAR_EXPRESSION,
    PCORE_SERVICES,
    pcore_distribution,
    pcore_pfa,
)

__all__ = [
    "PTestConfig",
    "MergedPattern",
    "PatternCommand",
    "TestPattern",
    "PatternGenerator",
    "MERGE_OPS",
    "PatternMerger",
    "register_merge_op",
    "ProcessStateRecorder",
    "StateRecord",
    "Anomaly",
    "AnomalyKind",
    "BugDetector",
    "DetectorConfig",
    "Committer",
    "PairBinding",
    "BugReport",
    "AdaptiveTest",
    "TestRunResult",
    "run_adaptive_test",
    "PatternShrinker",
    "ShrinkResult",
    "truncate_merged",
    "CampaignRow",
    "DetectionCapture",
    "DetectionSample",
    "grid_variants",
    "AdaptiveCampaign",
    "AdaptiveResult",
    "GridZoom",
    "POLICIES",
    "RefinePolicy",
    "Repeat",
    "ReplayFocus",
    "RoundObservation",
    "SuccessiveHalving",
    "PipelineStage",
    "Plateau",
    "PolicyPipeline",
    "StageCondition",
    "Until",
    "parse_pipeline",
    "CellExecutor",
    "CollectSink",
    "ResultSink",
    "WorkCell",
    "WorkerPool",
    "close_pool",
    "get_pool",
    "make_batch_table",
    "run_table_batch",
    "shutdown_pools",
    "IncrementalWaitForGraph",
    "find_cycle_edges",
    "CampaignSpec",
    "SpecOutcome",
    "execute_spec",
    "ReplayRef",
    "parse_merged_description",
    "replay_ref",
    "PCORE_REGULAR_EXPRESSION",
    "PCORE_SERVICES",
    "pcore_distribution",
    "pcore_pfa",
]
