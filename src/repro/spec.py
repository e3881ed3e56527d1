"""Typed experiment point and request specifications.

A sweep point is a :class:`Point` — a workload, a configuration, and
a display label; :class:`ExperimentSpec` is an immutable, iterable
collection of points with a name.  Bare ``(workload, config)`` tuples
are rejected by :func:`normalize_points` with a
:class:`~repro.errors.ConfigError` naming the :class:`Point`
replacement.

:class:`RunRequest` / :class:`RunResponse` are the canonical
request/response pair of the unified run API: one frozen bundle of
everything that identifies a simulation — workload, configuration,
trace length, seed — with a wire form (:meth:`RunRequest.
to_dict`) and a content-addressed identity (:meth:`RunRequest.
cache_key`).  :func:`resolve_request` is the single normalization
path: :func:`repro.api.simulate`, :func:`repro.api.profile_run`,
:func:`repro.api.execute`, the memoizing runner, and the serving
daemon all resolve their inputs through it, so the key a cache stores
under and the simulation a library call runs can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.cachekey import cache_key
from repro.config import SimConfig
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.sim.results import SimResult

__all__ = ["Point", "ExperimentSpec", "normalize_points",
           "RunRequest", "RunResponse", "resolve_request"]

#: Wire-format tag of one serialized :class:`RunRequest`.
REQUEST_SCHEMA = "repro.request/v4"


@dataclass(frozen=True)
class Point:
    """One sweep point: a workload simulated under a configuration.

    ``label`` names the point in reports (defaults to the workload
    name).
    """

    workload: str
    config: SimConfig
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ConfigError(
                f"Point.workload must be a non-empty string, "
                f"got {self.workload!r}")
        if not isinstance(self.config, SimConfig):
            raise ConfigError(
                f"Point.config must be a SimConfig, "
                f"got {type(self.config).__name__}")

    @property
    def name(self) -> str:
        """The point's display name (``label`` or the workload)."""
        return self.label if self.label is not None else self.workload

    @property
    def key(self) -> tuple[str, SimConfig]:
        """The ``(workload, config)`` identity sweeps key results by."""
        return (self.workload, self.config)


@dataclass(frozen=True)
class ExperimentSpec:
    """An immutable, named collection of sweep points.

    Iterates and indexes like a sequence of :class:`Point`.  Build one
    from an iterable of points with :meth:`of`.
    """

    points: tuple[Point, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        for point in self.points:
            if not isinstance(point, Point):
                raise ConfigError(
                    f"ExperimentSpec.points must contain Point objects; "
                    f"got {type(point).__name__} (build specs with "
                    f"ExperimentSpec.of)")

    @classmethod
    def of(cls, points: "Iterable[Point]",
           name: str = "") -> "ExperimentSpec":
        """Build a spec from an iterable of :class:`Point` objects."""
        return cls(points=tuple(normalize_points(points)), name=name)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]

    @property
    def workloads(self) -> tuple[str, ...]:
        """Unique workloads, in first-appearance order."""
        return tuple(dict.fromkeys(p.workload for p in self.points))

    @property
    def configs(self) -> tuple[SimConfig, ...]:
        """Unique configurations, in first-appearance order."""
        return tuple(dict.fromkeys(p.config for p in self.points))


def normalize_points(points: "Iterable[Point] | ExperimentSpec",
                     ) -> list[Point]:
    """Coerce a point collection to a list of :class:`Point`.

    Accepts :class:`Point` instances and :class:`ExperimentSpec`.
    Legacy ``(workload, config)`` tuples — deprecated with a warning
    for several releases — are now rejected with a
    :class:`~repro.errors.ConfigError` that names the replacement.
    """
    if isinstance(points, ExperimentSpec):
        return list(points.points)
    normalized: list[Point] = []
    for entry in points:
        if isinstance(entry, Point):
            normalized.append(entry)
        elif isinstance(entry, Sequence) and not isinstance(entry, str) \
                and len(entry) == 2:
            workload = entry[0]
            raise ConfigError(
                f"legacy (workload, config) tuple sweep points were "
                f"removed; pass repro.Point({workload!r}, config) "
                f"instead")
        else:
            raise ConfigError(
                f"sweep points must be Point objects; got {entry!r}")
    return normalized


# ----------------------------------------------------------------------
# Unified run request / response
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunRequest:
    """Everything that identifies one simulation run.

    A request bundles the workload/trace identity ``(workload,
    trace_length, seed)`` and the full :class:`~repro.config.SimConfig`;
    ``label`` names the run in reports and never contributes to
    identity.

    ``trace_length=None`` means "use the default" —
    :func:`resolve_request` pins it down.  Only a *resolved* request
    (:attr:`resolved` true) has a :meth:`cache_key`; every cache in the
    system keys on that digest.
    """

    workload: str
    config: SimConfig = field(default_factory=SimConfig)
    trace_length: int | None = None
    seed: int = 1
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ConfigError(
                f"RunRequest.workload must be a non-empty string, "
                f"got {self.workload!r}")
        if not isinstance(self.config, SimConfig):
            raise ConfigError(
                f"RunRequest.config must be a SimConfig, "
                f"got {type(self.config).__name__}")
        if self.trace_length is not None and self.trace_length < 1:
            raise ConfigError(
                f"RunRequest.trace_length must be >= 1 or None, "
                f"got {self.trace_length}")

    @property
    def name(self) -> str:
        """Display name (``label`` or the workload)."""
        return self.label if self.label is not None else self.workload

    @property
    def resolved(self) -> bool:
        """Whether ``trace_length``, the one defaulted identity field,
        has been pinned down."""
        return self.trace_length is not None

    def cache_key(self) -> str:
        """Content-addressed identity digest (resolved requests only).

        See :func:`repro.cachekey.cache_key` for exactly what the
        digest covers; an unresolved request has no stable identity and
        raises :class:`~repro.errors.ConfigError`.  The digest is
        derived once per request object and kept outside the dataclass
        fields, so equality, hashing and :meth:`to_dict` ignore it.
        """
        key = self.__dict__.get("_cache_key")
        if key is not None:
            return key
        if not self.resolved:
            raise ConfigError(
                "cache_key needs a resolved request (trace_length "
                "pinned); pass it through resolve_request first")
        assert self.trace_length is not None
        key = cache_key(self.workload, self.config, self.trace_length,
                        self.seed)
        object.__setattr__(self, "_cache_key", key)
        return key

    def to_dict(self) -> dict:
        """JSON-compatible wire form (the daemon's request body)."""
        return {
            "schema": REQUEST_SCHEMA,
            "workload": self.workload,
            "config": self.config.to_dict(),
            "trace_length": self.trace_length,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRequest":
        """Inverse of :meth:`to_dict`; validates schema and every field."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"RunRequest payload must be a mapping, "
                f"got {type(data).__name__}")
        schema = data.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise ConfigError(
                f"unsupported request schema {schema!r} "
                f"(this build reads {REQUEST_SCHEMA!r})")
        known = {"schema", "workload", "config", "trace_length", "seed",
                 "label"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown request key {unknown[0]!r}; valid keys: "
                f"{', '.join(sorted(known))}")
        config = data.get("config")
        return cls(
            workload=data.get("workload", ""),
            config=(SimConfig.from_dict(config)
                    if isinstance(config, dict) else SimConfig()),
            trace_length=data.get("trace_length"),
            seed=data.get("seed", 1),
            label=data.get("label"),
        )


@dataclass(frozen=True)
class RunResponse:
    """One executed (or served) :class:`RunRequest`.

    ``source`` says where the result came from: ``"computed"`` (a
    simulation actually ran), ``"cache"`` (served from the
    content-addressed result cache), or ``"coalesced"`` (this client
    shared another client's in-flight simulation).  ``profile`` carries
    the ``repro.profile/v1`` document when the run was profiled.
    """

    result: "SimResult"
    request: RunRequest
    source: str = "computed"
    profile: dict | None = None

    SOURCES = ("computed", "cache", "coalesced")

    def __post_init__(self) -> None:
        if self.source not in self.SOURCES:
            raise ConfigError(
                f"RunResponse.source must be one of "
                f"{', '.join(self.SOURCES)}; got {self.source!r}")


def resolve_request(request: RunRequest | None = None, *,
                    workload: str | None = None,
                    config: SimConfig | None = None,
                    trace_length: int | None = None,
                    seed: int | None = None,
                    label: str | None = None) -> RunRequest:
    """Normalize a request (or kwargs) into one resolved RunRequest.

    This is the single normalization path of the run API: defaults are
    applied exactly once, here — ``config`` to a stock
    :class:`~repro.config.SimConfig` and ``trace_length`` to the
    environment-controlled experiment default.  Explicit keyword
    arguments override the corresponding fields of a given
    ``request``.
    """
    if request is not None and not isinstance(request, RunRequest):
        raise ConfigError(
            f"expected a RunRequest, got {type(request).__name__} "
            f"(build one with repro.RunRequest(workload, config))")
    if request is None:
        if workload is None:
            raise ConfigError(
                "resolve_request needs a RunRequest or workload=...")
        request = RunRequest(workload=workload,
                             config=config or SimConfig(),
                             trace_length=trace_length,
                             seed=seed if seed is not None else 1,
                             label=label)
    else:
        overrides: dict[str, Any] = {}
        if workload is not None:
            overrides["workload"] = workload
        if config is not None:
            overrides["config"] = config
        if trace_length is not None:
            overrides["trace_length"] = trace_length
        if seed is not None:
            overrides["seed"] = seed
        if label is not None:
            overrides["label"] = label
        if overrides:
            request = replace(request, **overrides)

    if request.trace_length is not None:
        return request
    from repro.harness.runner import default_trace_length

    return replace(request, trace_length=default_trace_length())
