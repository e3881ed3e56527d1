"""What a process that simulates and serves in-process has to load.

perfbench, and any process that runs a :class:`~repro.serve.SimulationService`
in-process, imports the run API, the result cache and service, the
technique table, the workload suite, invariant checks, result
serialization, request specs and traces.  None of that needs the
experiment registry, the supervised sweep pool or the HTTP client and
daemon, and loading them made ``import perfbench.workloads`` load 292
modules instead of 226.  ``repro.harness`` and ``repro.serve`` resolve
their exports on first use so that it does not.

The import check runs in a fresh interpreter: in the test process the
whole package is long loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.harness
import repro.serve

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What perfbench's workloads import from the package.
IMPORTS = """\
import repro.api
from repro.serve import ResultCache, SimulationService
import repro.harness.techniques
import repro.workloads.suite
import repro.sim.invariants
import repro.sim.serialize
import repro.spec
import repro.trace
"""

NOT_LOADED = (
    "multiprocessing",
    "concurrent.futures",
    "http.client",
    "http.server",
    "repro.harness.experiments",
    "repro.harness.parallel",
    "repro.harness.supervise",
    "repro.serve.client",
    "repro.serve.daemon",
)


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON value it
    prints last."""
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_in_process_service_loads_no_pool_or_http_stack():
    loaded = set(run_fresh(IMPORTS + "print(json.dumps(sorted(sys.modules)))"))
    assert {"repro.serve.service", "repro.harness.persist"} <= loaded
    assert sorted(loaded.intersection(NOT_LOADED)) == []


@pytest.mark.parametrize("package", ["repro.harness", "repro.serve"])
def test_every_export_is_listed_and_resolves(package):
    # dir() is read before any export is resolved.
    unlisted = run_fresh(f"""\
import {package} as package
listed = dir(package)
unlisted = [name for name in package.__all__ if name not in listed]
for name in package.__all__:
    getattr(package, name)
print(json.dumps(unlisted))
""")
    assert unlisted == []


@pytest.mark.parametrize("package", [repro.harness, repro.serve],
                         ids=lambda package: package.__name__)
def test_unknown_attribute_is_an_attribute_error(package):
    # ``hasattr``, ``from ... import`` of a submodule and pytest's
    # ``monkeypatch.setattr("pkg.sub.name", ...)`` all rely on it.
    assert not hasattr(package, "no_such_export")
