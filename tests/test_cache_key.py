"""The shared cache_key helper: one identity digest for every layer."""

from __future__ import annotations

import json
import subprocess
import sys

from repro.cachekey import KEY_LENGTH, cache_key
from repro.config import PrefetchConfig, SimConfig
from repro.harness.persist import result_key
from repro.spec import RunRequest


#: Another valid value for each string-valued default config leaf.
_OTHER_CHOICE = {"hybrid": "local", "fdip": "none", "enqueue": "remove"}


def _leaves(data: dict, prefix: str = ""):
    """``(dotted path, value)`` for every leaf of a config dict."""
    for name, value in data.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", value


def _other(value):
    """A valid value different from a default config leaf's."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 if value else 1
    if value is None:
        return 4
    return _OTHER_CHOICE[value]


class TestCacheKey:
    def test_stable_across_calls(self):
        config = SimConfig()
        assert cache_key("gcc_like", config, 60_000, 1) == \
            cache_key("gcc_like", config, 60_000, 1)

    def test_key_shape(self):
        key = cache_key("gcc_like", SimConfig(), 60_000, 1)
        assert len(key) == KEY_LENGTH
        assert all(c in "0123456789abcdef" for c in key)

    def test_every_input_contributes(self):
        base = cache_key("gcc_like", SimConfig(), 60_000, 1)
        assert cache_key("perl_like", SimConfig(), 60_000, 1) != base
        assert cache_key("gcc_like", SimConfig(), 60_001, 1) != base
        assert cache_key("gcc_like", SimConfig(), 60_000, 2) != base
        nopf = SimConfig(prefetch=PrefetchConfig(kind="none"))
        assert cache_key("gcc_like", nopf, 60_000, 1) != base
        # Every config field describes the machine, so every one forks
        # the key space; an option of how a run executes belongs where
        # the run starts, not in the config.
        for path, value in _leaves(SimConfig().to_dict()):
            overrides = {path: _other(value)}
            if path.endswith(".block_bytes"):
                # The L1-I and the L2 must share one block size.
                overrides = {"memory.icache.block_bytes": _other(value),
                             "memory.l2.block_bytes": _other(value)}
            varied = SimConfig().with_overrides(**overrides)
            assert cache_key("gcc_like", varied, 60_000, 1) != base, path

    def test_config_dict_ordering_is_irrelevant(self):
        """The digest covers the *canonical* config form.

        Two configs that round-trip to the same to_dict() must key
        identically even when one was built from a key-reordered dict.
        """
        config = SimConfig(prefetch=PrefetchConfig(kind="fdip"))
        payload = config.to_dict()
        reordered = json.loads(
            json.dumps(payload, sort_keys=True))
        reordered = dict(reversed(list(reordered.items())))
        rebuilt = SimConfig.from_dict(reordered)
        assert cache_key("gcc_like", config, 60_000, 1) == \
            cache_key("gcc_like", rebuilt, 60_000, 1)

    def test_stable_across_processes(self):
        """No per-process state (hash seeds, dict order) leaks in."""
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.cachekey import cache_key\n"
            "from repro.config import SimConfig\n"
            "print(cache_key('gcc_like', SimConfig(), 60000, 1))\n")
        keys = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True).stdout.strip()
            for _ in range(2)}
        assert keys == {cache_key("gcc_like", SimConfig(), 60_000, 1)}

    def test_result_key_is_an_alias(self):
        config = SimConfig()
        assert result_key("gcc_like", config, 60_000, 1) == \
            cache_key("gcc_like", config, 60_000, 1)

    def test_request_cache_key_matches_helper(self):
        request = RunRequest("gcc_like", SimConfig(),
                             trace_length=60_000, seed=1)
        assert request.cache_key() == \
            cache_key("gcc_like", SimConfig(), 60_000, 1)


class TestVersionBinding:
    def test_version_and_schema_are_in_the_digest(self, monkeypatch):
        """A model or result-schema change must invalidate old keys."""
        import repro
        import repro.sim.serialize as serialize

        base = cache_key("gcc_like", SimConfig(), 60_000, 1)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        bumped_version = cache_key("gcc_like", SimConfig(), 60_000, 1)
        assert bumped_version != base
        monkeypatch.undo()
        monkeypatch.setattr(serialize, "SCHEMA_VERSION", 999)
        assert cache_key("gcc_like", SimConfig(), 60_000, 1) != base

    def test_golden_pin(self):
        """The digest algorithm itself is frozen.

        This pins the *construction* (canonical JSON, sha256, prefix
        length) rather than one literal digest — the digest legitimately
        moves with the package version and result schema.
        """
        import hashlib

        import repro
        from repro.sim.serialize import SCHEMA_VERSION

        config = SimConfig()
        identity = {
            "version": repro.__version__,
            "result_schema": SCHEMA_VERSION,
            "workload": "gcc_like",
            "trace_length": 60_000,
            "seed": 1,
            "config": config.to_dict(),
            "variant": "",
        }
        blob = json.dumps(identity, sort_keys=True,
                          separators=(",", ":"))
        expected = hashlib.sha256(
            blob.encode("utf-8")).hexdigest()[:KEY_LENGTH]
        assert cache_key("gcc_like", config, 60_000, 1) == expected
