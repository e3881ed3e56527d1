"""Canonical simulation-point identity digests.

Every result cache in the system — the :class:`~repro.harness.persist.
ResultStore` behind ``REPRO_RESULT_CACHE`` that sweeps resume from, the
memoizing :class:`~repro.harness.runner.Runner`, and the serving
layer's content-addressed :class:`~repro.serve.cache.ResultCache` —
keys entries by the same question: *which simulation is this?*  This
module is the single source of the answer.

:func:`cache_key` digests the **canonical dict form** of the
configuration (:meth:`~repro.config.SimConfig.to_dict`, serialized
with sorted keys), the workload/trace identity ``(workload,
trace_length, seed)``, the package version, and the result
``SCHEMA_VERSION`` — so a key computed in a pool worker, another
process, or another session matches bit for bit, regardless of dict
insertion order, and any model or schema change invalidates old
entries instead of serving stale results.

:func:`shard_variant` renders the execution-variant tag for sharded
runs (``shards=K:overlap=N:warm=M``): a merged sharded result
approximates but does not equal the monolithic result and must never
be served from (or poison) the monolithic entry.

This module sits below the harness and the serving layer on purpose:
both import it, neither imports the other.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.config import SimConfig

__all__ = ["cache_key", "shard_variant"]

#: Hex digest length of a cache key (half a SHA-256, plenty of margin
#: against collisions at any realistic sweep size).
KEY_LENGTH = 32


def shard_variant(shards: int, overlap: int | None = None,
                  warm: str = "functional") -> str:
    """Cache-key variant tag for a sharded execution of a point.

    ``overlap=None`` resolves to the calibrated
    :data:`~repro.sim.sharding.DEFAULT_SHARD_OVERLAP`, mirroring what
    the shard planner itself does, so an explicit default and an
    omitted one produce the same key.
    """
    if overlap is None:
        from repro.sim.sharding import DEFAULT_SHARD_OVERLAP

        overlap = DEFAULT_SHARD_OVERLAP
    return f"shards={shards}:overlap={overlap}:warm={warm}"


def cache_key(workload: str, config: "SimConfig", trace_length: int,
              seed: int, variant: str = "") -> str:
    """Stable content-addressed identity of one simulation point.

    The digest covers everything that determines the result: the
    canonical config dict (sorted keys — insertion order can never
    matter), the trace identity, the package version, and the
    serialized-result schema version.  Two processes that agree on
    those inputs agree on the key; any disagreement (model change,
    schema bump, different seed) yields a disjoint key space.

    Execution-detail knobs (cycle engine, checkpoint/watchdog cadence,
    profiling, event logging) are normalized out first
    (:meth:`~repro.config.SimConfig.execution_normalized`): every
    engine is bit-identical, so a result computed under one serves a
    request made under any other.
    """
    import repro
    from repro.sim.serialize import SCHEMA_VERSION

    identity = {
        "version": repro.__version__,
        "result_schema": SCHEMA_VERSION,
        "workload": workload,
        "trace_length": int(trace_length),
        "seed": int(seed),
        "config": config.execution_normalized().to_dict(),
        "variant": variant,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:KEY_LENGTH]
