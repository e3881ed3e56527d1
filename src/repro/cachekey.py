"""Canonical simulation-point identity digests.

The one result store (:class:`~repro.harness.persist.ResultStore`,
which the memoizing :class:`~repro.harness.runner.Runner`, sweeps and
the serving layer share, the last as
:class:`~repro.serve.cache.ResultCache`) keys entries by one question:
*which simulation is this?*  This module is the single source of the
answer.

:func:`cache_key` digests the **canonical dict form** of the
configuration (:meth:`~repro.config.SimConfig.to_dict`, serialized
with sorted keys), the workload/trace identity ``(workload,
trace_length, seed)``, the package version, and the result
``SCHEMA_VERSION`` — so a key computed in a pool worker, another
process, or another session matches bit for bit, regardless of dict
insertion order, and any model or schema change invalidates old
entries instead of serving stale results.

This module sits below the harness and the serving layer on purpose:
both import it, neither imports the other.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.config import SimConfig

__all__ = ["cache_key"]

#: Hex digest length of a cache key (half a SHA-256, plenty of margin
#: against collisions at any realistic sweep size).
KEY_LENGTH = 32


def cache_key(workload: str, config: "SimConfig", trace_length: int,
              seed: int) -> str:
    """Stable content-addressed identity of one simulation point.

    The digest covers everything that determines the result: the
    canonical config dict (sorted keys — insertion order can never
    matter), the trace identity, the package version, and the
    serialized-result schema version.  Two processes that agree on
    those inputs agree on the key; any disagreement (model change,
    schema bump, different seed) yields a disjoint key space.

    How a run executes (cycle engine, checkpoint cadence, watchdog,
    profiling) is not part of the config, so a result computed under
    any engine serves a request run under any other.
    """
    import repro
    from repro.sim.serialize import SCHEMA_VERSION

    identity = {
        "version": repro.__version__,
        "result_schema": SCHEMA_VERSION,
        "workload": workload,
        "trace_length": int(trace_length),
        "seed": int(seed),
        "config": config.to_dict(),
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:KEY_LENGTH]
