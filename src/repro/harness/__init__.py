"""Experiment harness: techniques, runners, reports, and the E1..E22 registry.

The package resolves each export on first use (a module ``__getattr__``),
so importing one submodule, such as :mod:`repro.harness.techniques` or
:mod:`repro.harness.persist`, loads neither the experiment registry nor
the supervised sweep pool (``multiprocessing``, ``concurrent.futures``).
``from repro.harness import X`` works as before.
"""

from __future__ import annotations

import importlib

#: Exported name -> the module that defines it.
_EXPORTS = {
    "Runner": "repro.harness.runner",
    "Point": "repro.spec",
    "ExperimentSpec": "repro.spec",
    "normalize_points": "repro.spec",
    "parallel_sweep": "repro.harness.parallel",
    "SweepPoint": "repro.harness.parallel",
    "SweepOutcome": "repro.harness.parallel",
    "PointFailure": "repro.harness.parallel",
    "RetryPolicy": "repro.harness.supervise",
    "AttemptRecord": "repro.harness.supervise",
    "TaskFailure": "repro.harness.supervise",
    "run_supervised": "repro.harness.supervise",
    "ResultStore": "repro.harness.persist",
    "cache_key": "repro.cachekey",
    "generate_report": "repro.harness.report",
    "default_trace_length": "repro.harness.runner",
    "geomean": "repro.harness.runner",
    "TECHNIQUES": "repro.harness.techniques",
    "TECHNIQUE_ORDER": "repro.harness.techniques",
    "technique_config": "repro.harness.techniques",
    "EXPERIMENTS": "repro.harness.experiments",
    "ExperimentTable": "repro.harness.experiments",
    "run_experiment": "repro.harness.experiments",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
