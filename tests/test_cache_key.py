"""The shared cache_key helper: one identity digest for every layer."""

from __future__ import annotations

import json
import subprocess
import sys

from repro.cachekey import KEY_LENGTH, cache_key, shard_variant
from repro.config import PrefetchConfig, SimConfig
from repro.harness.persist import result_key
from repro.spec import RunRequest


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
        assert cache_key("gcc_like", SimConfig(), 60_000, 1,
                         variant="shards=4:overlap=2000:warm=functional"
                         ) != base
        nopf = SimConfig(prefetch=PrefetchConfig(kind="none"))
        assert cache_key("gcc_like", nopf, 60_000, 1) != base

    def test_execution_knobs_do_not_contribute(self):
        """Engine, cadence, and logging choices never affect the
        result, so they must never fork the key space."""
        base = cache_key("gcc_like", SimConfig(), 60_000, 1)
        for changes in ({"engine": "naive"},
                        {"checkpoint_interval": 500},
                        {"watchdog_interval": 1000},
                        {"profile": True},
                        {"event_log": "events.jsonl"}):
            varied = SimConfig(**changes)
            assert cache_key("gcc_like", varied, 60_000, 1) == base, \
                changes

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
        assert result_key("gcc_like", config, 60_000, 1, "v") == \
            cache_key("gcc_like", config, 60_000, 1, "v")

    def test_request_cache_key_matches_helper(self):
        request = RunRequest("gcc_like", SimConfig(),
                             trace_length=60_000, seed=1, shards=1)
        assert request.cache_key() == \
            cache_key("gcc_like", SimConfig(), 60_000, 1)


class TestShardVariant:
    def test_tag_format(self):
        assert shard_variant(4, 2000) == \
            "shards=4:overlap=2000:warm=functional"
        assert shard_variant(2, 500, warm="overlap") == \
            "shards=2:overlap=500:warm=overlap"

    def test_default_overlap_resolves(self):
        from repro.sim.sharding import DEFAULT_SHARD_OVERLAP

        assert shard_variant(4) == \
            f"shards=4:overlap={DEFAULT_SHARD_OVERLAP}:warm=functional"

    def test_sharded_and_monolithic_keys_differ(self):
        config = SimConfig()
        assert cache_key("gcc_like", config, 200_000, 1,
                         variant=shard_variant(4)) != \
            cache_key("gcc_like", config, 200_000, 1)


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
