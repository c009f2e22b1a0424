"""Result cache: hit identity, LRU, disk persistence, versioning."""

import json

import pytest

from repro.service import api, pool
from repro.service.cache import ResultCache, cache_key
from repro.service.spec import SimJobSpec
from repro.system.design import DesignPoint
from repro.system.training import NetworkResult, PhaseTimes

CHEAP = dict(columns_per_stripe=8, designs=("Baseline", "GradPIM-BD"))


@pytest.fixture()
def spec():
    return SimJobSpec(network="MLP1", **CHEAP)


def _fake_result(tag: float) -> NetworkResult:
    return NetworkResult(
        network="MLP1",
        batch=128,
        precision="8/32",
        optimizer="momentum_sgd",
        blocks=(),
        totals={DesignPoint.BASELINE: PhaseTimes(fwd=tag)},
        profiles={},
    )


class TestMemoryLayer:
    def test_hit_returns_identical_object_without_simulating(
        self, spec, monkeypatch
    ):
        calls = []
        real = pool.execute_spec

        def counting(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(pool, "execute_spec", counting)
        cache = ResultCache()
        first = api.submit(spec, cache=cache)
        second = api.submit(spec, cache=cache)
        assert len(calls) == 1  # the second run never hit the simulator
        assert second.from_cache and not first.from_cache
        assert second.result is first.result  # identical object
        assert cache.stats()["hits"] == 1

    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        specs = [
            SimJobSpec(network="MLP1", batch=b, **CHEAP)
            for b in (16, 32, 64)
        ]
        for i, s in enumerate(specs):
            cache.put(s, _fake_result(float(i)))
        assert cache.get(specs[0]) is None  # evicted
        assert cache.get(specs[1]) is not None
        assert cache.get(specs[2]) is not None

    def test_lru_touch_on_get(self):
        cache = ResultCache(max_entries=2)
        specs = [
            SimJobSpec(network="MLP1", batch=b, **CHEAP)
            for b in (16, 32, 64)
        ]
        cache.put(specs[0], _fake_result(0.0))
        cache.put(specs[1], _fake_result(1.0))
        cache.get(specs[0])  # refresh: specs[1] becomes the oldest
        cache.put(specs[2], _fake_result(2.0))
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[1]) is None

    def test_capacity_zero_disables_memory(self, spec):
        cache = ResultCache(max_entries=0)
        cache.put(spec, _fake_result(0.0))
        assert len(cache) == 0


class TestDiskLayer:
    def test_round_trip_across_cache_instances(self, tmp_path, spec):
        writer = ResultCache(directory=tmp_path)
        writer.put(spec, _fake_result(0.125))
        reader = ResultCache(directory=tmp_path)  # fresh memory layer
        result = reader.get(spec)
        assert result is not None
        assert result.totals[DesignPoint.BASELINE].fwd == 0.125
        assert reader.stats()["disk_hits"] == 1

    def test_served_without_invoking_simulator(
        self, tmp_path, spec, monkeypatch
    ):
        ResultCache(directory=tmp_path).put(spec, _fake_result(1.0))

        def explode(s):
            raise AssertionError("simulator must not run on a disk hit")

        monkeypatch.setattr(pool, "execute_spec", explode)
        out = api.submit(spec, cache=ResultCache(directory=tmp_path))
        assert out.ok and out.from_cache

    def test_stale_version_is_a_miss(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, _fake_result(1.0))
        path = tmp_path / f"{cache_key(spec)}.json"
        payload = json.loads(path.read_text())
        payload["version"] = "0.0.0-old"
        path.write_text(json.dumps(payload))
        assert ResultCache(directory=tmp_path).get(spec) is None

    def test_corrupt_file_is_a_miss(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, _fake_result(1.0))
        (tmp_path / f"{cache_key(spec)}.json").write_text("{not json")
        assert ResultCache(directory=tmp_path).get(spec) is None


class TestKeys:
    def test_key_depends_on_spec_content(self, spec):
        other = SimJobSpec(network="MLP1", batch=16, **CHEAP)
        assert cache_key(spec) != cache_key(other)

    def test_key_depends_on_code_version(self, spec):
        assert cache_key(spec, version="1.0.0") != cache_key(
            spec, version="2.0.0"
        )
