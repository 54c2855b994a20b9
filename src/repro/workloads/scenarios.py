"""Ready-made test scenarios binding workloads to the pTest harness.

Each scenario function returns a fully-wired
:class:`~repro.ptest.harness.AdaptiveTest` so examples, tests and
benches share one definition of "the paper's test case N".

Every scenario here is also registered, by name, in the default
:class:`~repro.workloads.registry.ScenarioRegistry` — the
``@scenario("...")`` decorators below are what make
``scenario_ref("philosophers", op="cyclic")`` resolvable in campaign
worker processes, the CLI and downstream scripts.  Each registration
also states its ground truth (``expect=``): the anomaly kind a correct
detector reports at the given parameters, or ``None`` for a clean run.
"""

from __future__ import annotations

from typing import Generator

from repro.automata.pfa import PFA, Transition
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.pcore.programs import Compute, Exit, Syscall, TaskContext, YieldCpu
from repro.ptest.config import PTestConfig
from repro.ptest.detector import AnomalyKind
from repro.ptest.harness import AdaptiveTest
from repro.workloads.barrier import make_barrier_program, setup_barrier
from repro.workloads.philosophers import make_philosopher_program
from repro.workloads.pipeline import (
    make_sink_program,
    make_source_program,
    make_stage_program,
    queue_name,
)
from repro.workloads.producer_consumer import (
    ITEMS_SEM,
    SPACE_SEM,
    make_consumer_program,
    make_producer_program,
)
from repro.workloads.quicksort import make_quicksort_program
from repro.workloads.readers_writers import (
    make_reader_program,
    make_writer_program,
)
from repro.workloads.registry import scenario
from repro.workloads.spin import make_spin_program


def lifecycle_pfa(symbols: tuple[str, ...]) -> PFA:
    """A degenerate PFA whose every walk is exactly ``symbols`` — used
    when a scenario needs a *crafted* pattern (the paper "set the
    pattern merger ... to produce the test pattern that forced ..."),
    while still flowing through the ordinary generator machinery."""
    transitions: dict[int, dict[str, Transition]] = {}
    for index, symbol in enumerate(symbols):
        transitions[index] = {
            symbol: Transition(
                source=index, symbol=symbol, target=index + 1, probability=1.0
            )
        }
    return PFA(
        num_states=len(symbols) + 1,
        alphabet=frozenset(symbols),
        transitions=transitions,
        start=0,
        accepts=frozenset({len(symbols)}),
        state_labels={len(symbols): "end"},
    )


@scenario(
    "quicksort_stress",
    expect=lambda buggy_gc, **_: AnomalyKind.CRASH if buggy_gc else None,
)
def stress_case1(
    seed: int = 0,
    buggy_gc: bool = True,
    memory_bytes: int = 24 * 1024,
    max_ticks: int = 200_000,
    pattern_size: int = 6,
) -> AdaptiveTest:
    """Test case 1: 16 quick-sort tasks under create/delete churn.

    "pTest kept the number of active tasks at 16 in pCore ... All of 16
    active tasks performed the same quick-sort algorithm to individually
    sort 128 integer elements ... pTest continued to create tasks and
    removed them when their work was done."

    With ``buggy_gc=True`` the kernel leaks the memory of tasks deleted
    mid-flight and eventually panics in ``task_create`` — the crash the
    paper's first test period found.  ``memory_bytes`` is shrunk from
    160 KB so the leak reaches exhaustion in simulation-scale time; the
    fault and its detection path are unchanged.
    """
    config = PTestConfig(
        pattern_count=16,
        pattern_size=pattern_size,
        op="random",
        seed=seed,
        program="qsort",
        lockstep=True,
        restart_patterns=True,
        max_ticks=max_ticks,
        # Under strict priority scheduling the lowest-priority quicksort
        # task legitimately waits for its betters; the no-progress window
        # must exceed that latency or starvation masks the crash.
        progress_window=50_000,
        reply_timeout=10_000,
        kernel=KernelConfig(
            max_tasks=16,
            buggy_gc=buggy_gc,
            memory_bytes=memory_bytes,
            gc_interval=32,
        ),
    )
    return AdaptiveTest(
        config=config,
        programs={"qsort": make_quicksort_program()},
    )


@scenario(
    "philosophers",
    expect=lambda ordered, **_: None if ordered else AnomalyKind.DEADLOCK,
)
def philosophers_case2(
    seed: int = 0,
    op: str = "cyclic",
    chunk: int = 2,
    count: int = 3,
    ordered: bool = False,
    max_ticks: int = 30_000,
    hold_steps: int = 60,
) -> AdaptiveTest:
    """Test case 2: the buggy dining philosophers.

    Three tasks, three mutually exclusive resources; each pattern is the
    crafted lifecycle ``TC TS TR`` and the cyclic merge op interleaves
    them so every philosopher grabs its first fork, is suspended, and is
    resumed straight into the deadlock cycle.  ``ordered=True`` swaps in
    the correct acquisition order (control: no deadlock under any op).
    """
    programs = {
        f"phil{seat}": make_philosopher_program(
            seat, count=count, ordered=ordered, hold_steps=hold_steps
        )
        for seat in range(count)
    }

    # Each pair's pattern: create, suspend (mid-acquisition), resume.
    pfa = lifecycle_pfa(("TC", "TS", "TR"))
    config = PTestConfig(
        pattern_count=count,
        pattern_size=3,
        op=op,
        chunk=chunk,
        seed=seed,
        program="phil0",
        pair_programs=tuple(f"phil{seat}" for seat in range(count)),
        lockstep=True,
        max_ticks=max_ticks,
        progress_window=2_000,  # let deadlock win over starvation
        reply_timeout=5_000,
    )
    return AdaptiveTest(config=config, programs=programs, pfa=pfa)


@scenario("philosophers_random", expect=lambda **_: AnomalyKind.DEADLOCK)
def build_philosophers_random(seed: int):
    """ConTest-style random noise on the philosophers scenario (same
    fault, unstructured interleaving)."""
    from repro.baselines.random_tester import RandomTester

    scenario = philosophers_case2(seed=seed)
    return RandomTester(
        config=scenario.config, programs=dict(scenario.programs)
    )


@scenario("priority_inversion", expect=lambda **_: None)
def priority_inversion_scenario(
    seed: int = 0,
    inheritance: bool = False,
    hog_steps: int = 3_000,
    max_ticks: int = 15_000,
) -> AdaptiveTest:
    """The classic priority-inversion triple (low locker / medium hog /
    high waiter) as a *latency* study.

    Without ``inheritance`` the high-priority waiter's lock acquisition
    waits behind the medium hog's whole burst (inverted priorities);
    with the kernel's priority-inheritance switch the low owner is
    boosted, releases promptly, and the high task completes ~20x
    earlier.  Use :func:`high_task_completion_tick` on the returned
    test's tracer after running to extract the metric.  The detector is
    configured quiet here (waits are finite); the
    ``priority_starvation`` scenario covers the detection path.
    """
    from repro.workloads.priority_inversion import (
        make_high_waiter_program,
        make_hog_program,
        make_low_locker_program,
    )

    config = PTestConfig(
        pattern_count=3,
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="pi_low",
        # Pair bands make pair0 < pair1 < pair2 in priority.
        pair_programs=("pi_low", "pi_hog", "pi_high"),
        lockstep=True,
        max_ticks=max_ticks,
        progress_window=4 * max_ticks,
        reply_timeout=4 * max_ticks,
        kernel=KernelConfig(priority_inheritance=inheritance),
    )
    return AdaptiveTest(
        config=config,
        programs={
            "pi_low": make_low_locker_program(),
            "pi_hog": make_hog_program(burn_steps=hog_steps),
            "pi_high": make_high_waiter_program(),
        },
        pfa=lifecycle_pfa(("TC",)),
    )


def high_task_completion_tick(test: AdaptiveTest) -> int | None:
    """Tick at which the high-priority waiter of
    :func:`priority_inversion_scenario` terminated (``None`` if it never
    did).  Pair 2's task is created third, so it holds tid 3."""
    for event in test.tracer.events:
        if (
            event.category == "task"
            and event.payload.get("event") == "terminate"
            and event.payload.get("tid") == 3
        ):
            return event.time
    return None


@scenario(
    "producer_consumer",
    expect=lambda faulty, **_: AnomalyKind.STARVATION if faulty else None,
)
def producer_consumer_scenario(
    seed: int = 0,
    items: int = 12,
    ring_slots: int = 4,
    faulty: bool = False,
    max_ticks: int = 40_000,
) -> AdaptiveTest:
    """A two-pair producer/consumer run (detector sanity + lost-wakeup
    starvation when ``faulty``)."""

    def setup(kernel: PCoreKernel) -> None:
        kernel.add_semaphore(ITEMS_SEM, 0)
        kernel.add_semaphore(SPACE_SEM, ring_slots)

    pfa = lifecycle_pfa(("TC",))
    config = PTestConfig(
        pattern_count=2,
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="producer",
        pair_programs=("producer", "consumer"),
        lockstep=True,
        max_ticks=max_ticks,
        progress_window=800,
        reply_timeout=5_000,
    )
    return AdaptiveTest(
        config=config,
        programs={
            "producer": make_producer_program(
                items, ring_slots=ring_slots, faulty=faulty
            ),
            "consumer": make_consumer_program(items, ring_slots=ring_slots),
        },
        pfa=pfa,
        setup=setup,
    )


@scenario(
    "barrier",
    expect=lambda faulty, **_: AnomalyKind.STARVATION if faulty else None,
)
def barrier_scenario(
    seed: int = 0,
    parties: int = 3,
    phases: int = 4,
    work: int = 5,
    faulty: bool = False,
    max_ticks: int = 25_000,
    progress_window: int = 2_000,
) -> AdaptiveTest:
    """Cyclic-barrier group: ``parties`` tasks meeting every phase.

    Healthy runs drain cleanly; with ``faulty=True`` the last arriver
    drops one turnstile release on every third phase, so from the next
    phase on the whole group blocks on the turnstile forever and the
    detector reports STARVATION of the blocked tasks.
    """
    program = make_barrier_program(
        parties, phases=phases, work=work, faulty=faulty
    )
    config = PTestConfig(
        pattern_count=parties,
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="barrier_member",
        pair_programs=("barrier_member",) * parties,
        lockstep=True,
        max_ticks=max_ticks,
        progress_window=progress_window,
        reply_timeout=5_000,
    )
    return AdaptiveTest(
        config=config,
        programs={"barrier_member": program},
        pfa=lifecycle_pfa(("TC",)),
        setup=setup_barrier,
    )


@scenario("readers_writers", expect=lambda **_: None)
def readers_writers_scenario(
    seed: int = 0,
    readers: int = 2,
    reads: int = 6,
    increments: int = 6,
    hold_steps: int = 2,
    greedy: bool = False,
    max_ticks: int = 30_000,
    progress_window: int = 5_000,
) -> AdaptiveTest:
    """Readers/writers over the shared counter: one writer (pair 0, the
    lowest priority band) plus ``readers`` reader tasks.

    The plain variant is a healthy concurrent mutex workload (detector
    false-positive coverage); ``greedy=True`` readers hold the lock 50x
    longer, squeezing the writer — shrink ``progress_window`` to study
    the detector's starvation threshold against it.
    """
    config = PTestConfig(
        pattern_count=readers + 1,
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="rw_writer",
        pair_programs=("rw_writer",) + ("rw_reader",) * readers,
        lockstep=True,
        max_ticks=max_ticks,
        progress_window=progress_window,
        reply_timeout=5_000,
    )
    return AdaptiveTest(
        config=config,
        programs={
            "rw_writer": make_writer_program(
                increments, hold_steps=hold_steps
            ),
            "rw_reader": make_reader_program(
                reads, hold_steps=hold_steps, greedy=greedy
            ),
        },
        pfa=lifecycle_pfa(("TC",)),
    )


@scenario("pipeline", expect=lambda **_: None)
def pipeline_scenario(
    seed: int = 0,
    stages: int = 2,
    count: int = 12,
    queue_capacity: int = 2,
    work: int = 1,
    max_ticks: int = 40_000,
    progress_window: int = 5_000,
) -> AdaptiveTest:
    """``source -> stage_1 .. stage_k -> sink`` over kernel queues.

    Pair bands ascend along the pipeline, so the sink runs hottest and
    queues stay short (maximum context-switch pressure), mirroring
    :func:`repro.workloads.pipeline.build_pipeline`.  The sink asserts
    the stream arrives in order; a healthy run drains clean.
    """
    stage_names = tuple(f"pipe_stage{index}" for index in range(stages))
    pair_programs = ("pipe_source",) + stage_names + ("pipe_sink",)
    programs = {
        "pipe_source": make_source_program(count, work=work),
        "pipe_sink": make_sink_program(stages, count),
    }
    for index, name in enumerate(stage_names):
        programs[name] = make_stage_program(index, count, work=work)

    def setup(kernel: PCoreKernel) -> None:
        for index in range(stages + 1):
            kernel.add_message_queue(
                queue_name(index), capacity=queue_capacity
            )

    config = PTestConfig(
        pattern_count=len(pair_programs),
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="pipe_source",
        pair_programs=pair_programs,
        lockstep=True,
        max_ticks=max_ticks,
        progress_window=progress_window,
        reply_timeout=5_000,
    )
    return AdaptiveTest(
        config=config,
        programs=programs,
        pfa=lifecycle_pfa(("TC",)),
        setup=setup,
    )


@scenario("clean_spin", expect=lambda **_: None)
def clean_spin_scenario(
    seed: int = 0,
    tasks: int = 3,
    total_steps: int = 600,
    chunk: int = 20,
) -> AdaptiveTest:
    """Long-running *clean* campaign cell for executor benchmarking.

    ``tasks`` spinners each compute ``total_steps`` units in polite
    ``chunk``-sized slices and exit; under strict priority scheduling
    they run to completion one band at a time, so the run lasts about
    ``tasks * total_steps`` ticks and never detects anything — the
    detector windows are derived from the duration so no legitimate
    wait can trip them (the ordered-philosophers control cannot make
    that promise once its holds outgrow the progress window).
    """
    duration = tasks * total_steps
    config = PTestConfig(
        pattern_count=tasks,
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="spinner",
        pair_programs=("spinner",) * tasks,
        lockstep=True,
        max_ticks=4 * duration + 10_000,
        progress_window=2 * duration + 2_000,
        reply_timeout=2 * duration + 2_000,
    )
    return AdaptiveTest(
        config=config,
        programs={"spinner": make_spin_program(total_steps, chunk=chunk)},
        pfa=lifecycle_pfa(("TC",)),
    )


def _spin_hog_program(ctx: TaskContext) -> Generator[Syscall, object, None]:
    """Computes forever without yielding: starves lower priorities."""
    del ctx
    while True:
        yield Compute(50)


def _polite_program(ctx: TaskContext) -> Generator[Syscall, object, None]:
    """Computes a little, yields, exits — a well-behaved task."""
    del ctx
    for _ in range(40):
        yield Compute(1)
        yield YieldCpu()
    yield Exit(0)


@scenario("priority_starvation", expect=lambda **_: AnomalyKind.STARVATION)
def priority_starvation_scenario(seed: int) -> AdaptiveTest:
    """A high-priority task computes without yielding, so a lower
    priority task never progresses: pair 1 (higher band = higher
    priority) hogs the CPU and pair 0's polite task starves in READY."""
    config = PTestConfig(
        pattern_count=2,
        pattern_size=1,
        op="round_robin",
        seed=seed,
        program="polite",
        pair_programs=("polite", "hog"),
        max_ticks=10_000,
        progress_window=400,
        reply_timeout=20_000,
    )
    return AdaptiveTest(
        config=config,
        programs={"polite": _polite_program, "hog": _spin_hog_program},
        pfa=lifecycle_pfa(("TC",)),
    )


@scenario("healthy_control", expect=lambda **_: None)
def healthy_control_scenario(seed: int) -> AdaptiveTest:
    """No fault: the full pCore PFA stress at moderate scale, with the
    correct GC and polite tasks."""
    config = PTestConfig(
        pattern_count=4,
        pattern_size=6,
        op="round_robin",
        seed=seed,
        program="polite",
        max_ticks=20_000,
        kernel=KernelConfig(buggy_gc=False),
    )
    return AdaptiveTest(config=config, programs={"polite": _polite_program})
