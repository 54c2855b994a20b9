"""repro: reproduction of *pTest* (DATE 2009).

pTest is an adaptive stress-testing tool for concurrent software on
embedded multicore processors using the master-slave model.  This
package reimplements the tool and every substrate it ran on — the
OMAP5912-like dual-core SoC, the pCore microkernel, the bridge
middleware, the master-side runtime — as deterministic simulation, plus
the baselines it is compared against and the analyses its evaluation
calls for.

Quick start::

    from repro import CampaignSpec, execute_spec

    spec = CampaignSpec(scenario="philosophers", seeds=(0, 1, 2))
    outcome = execute_spec(spec)
    print(outcome.describe())

The names in ``__all__`` below are the supported embedding API: the
campaign engine (:class:`AdaptiveCampaign` and the
:class:`CellExecutor` its rounds run on),
the serializable request schema (:class:`CampaignSpec`,
:func:`execute_spec`), the scenario registry surface
(:func:`scenario`, :class:`ScenarioRef`, :func:`scenario_ref`), the
client for a running ``repro serve`` (:class:`Client`), and the error
root (:class:`ReproError`).  Everything else should be imported from
its subpackage and may move between releases.

Imports are lazy (PEP 562): ``import repro`` itself stays cheap — the
campaign machinery, worker pools and simulator only load when the
first attribute is touched.

Subpackages: :mod:`repro.automata` (regex -> NFA -> PFA pipeline),
:mod:`repro.sim` (the SoC), :mod:`repro.pcore` (the slave kernel),
:mod:`repro.master`, :mod:`repro.bridge`, :mod:`repro.ptest` (the
tool), :mod:`repro.baselines`, :mod:`repro.workloads`,
:mod:`repro.analysis`.
"""

__version__ = "0.1.0"

# Supported API name -> home module.  Resolved on first attribute
# access so `import repro` pulls in nothing beyond this file.
_EXPORTS = {
    "ReproError": "repro.errors",
    "AdaptiveCampaign": "repro.ptest.adaptive",
    "CellExecutor": "repro.ptest.executor",
    "CampaignSpec": "repro.ptest.spec",
    "RoundObservation": "repro.ptest.adaptive",
    "SpecOutcome": "repro.ptest.spec",
    "execute_spec": "repro.ptest.spec",
    "Client": "repro.client",
    "RemoteOutcome": "repro.client",
    "ServerError": "repro.client",
    "scenario": "repro.workloads.registry",
    "ScenarioRef": "repro.workloads.registry",
    "scenario_ref": "repro.workloads.registry",
    "PTestConfig": "repro.ptest.config",
    "run_adaptive_test": "repro.ptest.harness",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
