"""Result serialization and the persistent result store."""

import pytest

from repro.errors import ReproError
from repro.harness import ResultStore, Runner, technique_config
from repro.sim import (
    SimResult,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.spec import RunRequest


def make_result(**overrides):
    defaults = dict(
        name="w", prefetcher="fdip", cycles=1000, instructions=2000,
        mispredicts=10, bpred_accuracy=0.9, ftq_mean_occupancy=5.0,
        demand_misses=40, demand_merges=10, bus_utilization=0.25,
        l2_misses=5, prefetches_issued=100, prefetches_useful=50,
        prefetches_late=10, counters={"a.b": 3},
        ftq_occupancy_hist={0: 10, 4: 20},
        fetch_block_hist={6: 30},
        prefetch_lead_hist={12: 4},
    )
    defaults.update(overrides)
    return SimResult(**defaults)


class TestSerialization:
    def test_dict_roundtrip(self):
        original = make_result()
        restored = result_from_dict(result_to_dict(original))
        assert restored == original

    def test_json_roundtrip_preserves_int_keys(self):
        original = make_result()
        restored = result_from_json(result_to_json(original))
        assert restored.ftq_occupancy_hist == {0: 10, 4: 20}
        assert restored.prefetch_lead_hist == {12: 4}
        assert restored == original

    def test_malformed_json_rejected(self):
        with pytest.raises(ReproError):
            result_from_json("{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(ReproError):
            result_from_dict({"name": "w"})


class TestSchemaVersioning:
    def _live_result(self, small_trace):
        from repro.config import SimConfig
        from repro.sim.simulator import Simulator

        config = SimConfig().replace(telemetry_window=256)
        return Simulator(small_trace, config).run()

    def test_payload_carries_schema_version(self):
        from repro.sim.serialize import SCHEMA_VERSION

        payload = result_to_dict(make_result())
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_v1_payload_migrates_to_no_telemetry(self):
        """Pre-telemetry payloads (no version field) still load."""
        payload = result_to_dict(make_result())
        del payload["schema_version"]
        del payload["telemetry"]
        restored = result_from_dict(payload)
        assert restored.telemetry is None
        assert restored.cycles == 1000

    def test_newer_schema_rejected(self):
        payload = result_to_dict(make_result())
        payload["schema_version"] = 99
        with pytest.raises(ReproError, match="newer"):
            result_from_dict(payload)

    def test_bad_schema_version_rejected(self):
        payload = result_to_dict(make_result())
        payload["schema_version"] = "two"
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_telemetry_roundtrip_full(self, small_trace):
        """A live result — tree, meta, and interval series — survives
        JSON byte-for-byte, including telemetry equality."""
        original = self._live_result(small_trace)
        assert original.telemetry is not None
        assert original.telemetry.intervals is not None
        restored = result_from_json(result_to_json(original))
        assert restored.telemetry == original.telemetry
        assert restored == original

    def test_telemetry_none_roundtrip(self):
        original = make_result()   # constructed directly: no snapshot
        restored = result_from_json(result_to_json(original))
        assert restored.telemetry is None
        assert restored == original


def _request(workload="w", technique="none", length=1000, seed=1):
    return RunRequest(workload, technique_config(technique), length, seed)


class TestResultStore:
    def test_store_and_load(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        key = store.put(_request(), result)
        assert key == _request().cache_key()
        loaded = store.get(_request())
        assert loaded == result
        assert (store.hits, store.misses, store.stores) == (1, 0, 1)

    def test_distinct_identities_distinct_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        store.put(_request(), result)
        assert store.get(_request(technique="nlp")) is None
        assert store.get(_request(length=2000)) is None
        assert store.get(_request(workload="x")) is None
        assert store.misses == 3

    def test_label_is_not_identity(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_request(), make_result())
        labelled = RunRequest("w", technique_config("none"), 1000, 1,
                              label="shown")
        assert store.get(labelled) == make_result()

    def test_corrupt_entry_ignored_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_request(), make_result())
        victim = next(tmp_path.glob("*.result.json"))
        victim.write_text("garbage")
        assert store.get(_request()) is None
        assert not victim.exists()

    def test_undecodable_entry_quarantined(self, tmp_path):
        # A flipped byte can break UTF-8 itself, not just the JSON or
        # the checksum; that must quarantine too, never raise.
        store = ResultStore(tmp_path)
        store.put(_request(), make_result())
        victim = next(tmp_path.glob("*.result.json"))
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] = 0xA3
        victim.write_bytes(bytes(blob))
        assert store.get(_request()) is None
        assert not victim.exists()
        assert store.quarantined == 1
        assert [p.name for p in store.quarantined_files()] == [victim.name]

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_request(), make_result())
        assert store.clear() == 1
        assert store.clear() == 0


class TestRunnerPersistence:
    def test_second_runner_reuses_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        config = technique_config("none")
        first = Runner(trace_length=2500,
                       persist_dir=str(tmp_path / "results"))
        a = first.run("compress_like", config)
        second = Runner(trace_length=2500,
                        persist_dir=str(tmp_path / "results"))
        b = second.run("compress_like", config)
        assert a == b
        assert second.runs_performed == 1   # loaded, then memoized

    def test_env_var_activates_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_RESULT_CACHE",
                           str(tmp_path / "results"))
        runner = Runner(trace_length=2500)
        runner.run("compress_like", technique_config("none"))
        assert list((tmp_path / "results").glob("*.result.json"))
