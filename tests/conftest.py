"""Shared fixtures for the test suite.

Also installs a per-test wall-clock timeout (SIGALRM-based, main
thread only): the suite exercises watchdog/hang-recovery machinery on
purpose-built hung workers, and a regression that reintroduces a real
hang must fail tier-1 loudly instead of wedging CI until the job-level
kill.  Override the budget with ``REPRO_TEST_TIMEOUT`` (seconds; ``0``
disables) — the default is far above any legitimate test's runtime.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.automata.pfa import PFA, Transition
from repro.pcore.kernel import KernelConfig, PCoreKernel
from repro.sim.memory import SharedMemory

#: Seconds one test (setup + call + teardown) may take before it is
#: interrupted.  Generous: the slowest legitimate tests (cold pool
#: spawns under coverage) finish in well under a minute.
_DEFAULT_TEST_TIMEOUT = 300.0


def _test_timeout() -> float:
    try:
        return float(os.environ.get("REPRO_TEST_TIMEOUT", ""))
    except ValueError:
        return _DEFAULT_TEST_TIMEOUT


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm a SIGALRM watchdog around each test.

    SIGALRM (not a watcher thread) so the hung test itself raises —
    with a stack trace pointing at the hang — rather than being
    reported dead from the outside.  Skipped off the main thread and on
    platforms without SIGALRM, where the alarm cannot be delivered.
    """
    timeout = _test_timeout()
    if (
        timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test {item.nodeid} exceeded the {timeout:.0f}s per-test "
            "watchdog (REPRO_TEST_TIMEOUT to adjust); a wedged worker "
            "pool or reintroduced hang is the usual culprit"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fig3_pfa() -> PFA:
    """The paper's Fig. 3 PFA: three states, alphabet {a,b,c,d},
    (ac*d)|b with P(a)=0.6, P(b)=0.4, P(c)=0.3, P(d)=0.7."""
    transitions = {
        0: {
            "a": Transition(source=0, symbol="a", target=1, probability=0.6),
            "b": Transition(source=0, symbol="b", target=2, probability=0.4),
        },
        1: {
            "c": Transition(source=1, symbol="c", target=1, probability=0.3),
            "d": Transition(source=1, symbol="d", target=2, probability=0.7),
        },
    }
    return PFA(
        num_states=3,
        alphabet=frozenset("abcd"),
        transitions=transitions,
        start=0,
        accepts=frozenset({2}),
        state_labels={0: "q0", 1: "q1", 2: "q2"},
    )


@pytest.fixture
def kernel() -> PCoreKernel:
    """A fresh pCore kernel with shared memory attached."""
    return PCoreKernel(
        config=KernelConfig(), shared_memory=SharedMemory(size=64 * 1024)
    )




@pytest.fixture
def register_scenario():
    """``register(name, builder, **params)``: register a test-local
    scenario in the default registry and return a ref to it.

    Campaign variants are refs to default-registry scenarios, so a
    test that needs a purpose-built builder (one that raises, dies or
    records) registers it here; every name is removed after the test,
    since the registry refuses silent replacement by design.  Pool
    workers forked afterwards see the registration: the version bump
    respawns a warm pool.
    """
    from repro.workloads.registry import REGISTRY, scenario_ref

    names = []

    def register(name, builder, **params):
        REGISTRY.register(name, builder)
        names.append(name)
        return scenario_ref(name, **params)

    yield register
    for name in names:
        REGISTRY._specs.pop(name, None)
        REGISTRY.version += 1
