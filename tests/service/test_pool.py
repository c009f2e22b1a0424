"""Worker pool: parallel == serial, error isolation, dedup."""

import pytest

from repro.service import api, pool
from repro.service.cache import ResultCache
from repro.service.pool import run_specs
from repro.service.spec import SimJobSpec

CHEAP = dict(columns_per_stripe=8, designs=("Baseline", "GradPIM-BD"))


@pytest.fixture(scope="module")
def specs():
    return [
        SimJobSpec(network="MLP1", batch=b, **CHEAP)
        for b in (16, 32, 64, 128)
    ]


class TestPoolMatchesSerial:
    def test_results_identical_spec_for_spec(self, specs):
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=4)
        assert [p["status"] for p in parallel] == ["ok"] * len(specs)
        for s, p in zip(serial, parallel):
            assert s["result"] == p["result"]  # exact float equality

    def test_submit_many_parallel_matches_serial(self, specs):
        serial = api.submit_many(specs, jobs=1, cache=ResultCache())
        parallel = api.submit_many(specs, jobs=2, cache=ResultCache())
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.result.to_dict() == p.result.to_dict()


class TestErrorIsolation:
    def test_one_failing_job_does_not_sink_the_batch(
        self, specs, monkeypatch
    ):
        real = pool.execute_spec

        def flaky(spec):
            if spec.batch == 32:
                raise RuntimeError("injected fault")
            return real(spec)

        monkeypatch.setattr(pool, "execute_spec", flaky)
        results = api.submit_many(specs, jobs=1, cache=ResultCache())
        assert [r.ok for r in results] == [True, False, True, True]
        assert "injected fault" in results[1].error
        assert results[1].result is None

    def test_worker_payload_carries_traceback(self, monkeypatch):
        def boom(spec):
            raise ValueError("bad geometry")

        monkeypatch.setattr(pool, "execute_spec", boom)
        (payload,) = run_specs(
            [SimJobSpec(network="MLP1", **CHEAP)], jobs=1
        )
        assert payload["status"] == "error"
        assert "bad geometry" in payload["error"]
        assert "Traceback" in payload["traceback"]


class TestBatchSemantics:
    def test_duplicates_executed_once(self, monkeypatch):
        calls = []
        real = pool.execute_spec

        def counting(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(pool, "execute_spec", counting)
        spec = SimJobSpec(network="MLP1", **CHEAP)
        results = api.submit_many(
            [spec, spec, spec], jobs=1, cache=ResultCache()
        )
        assert len(calls) == 1
        assert all(r.ok for r in results)
        assert (
            results[0].result.to_dict() == results[2].result.to_dict()
        )

    def test_order_preserved(self, specs):
        results = api.submit_many(specs, jobs=2, cache=ResultCache())
        assert [r.spec.batch for r in results] == [16, 32, 64, 128]

    def test_model_cache_shared_within_process(self, specs):
        before = len(pool._MODELS)
        run_specs(specs, jobs=1)
        # All four jobs share one substrate configuration.
        assert len(pool._MODELS) <= before + 1

    def test_hyperparameters_do_not_share_profiles(self):
        # UpdatePhaseModel caches profiles by optimizer *name*, so the
        # shared-model key must separate differing hyperparameters:
        # weight_decay=0 drops a term from the compiled command stream.
        with_decay = SimJobSpec(
            network="MLP1",
            optimizer_params={
                "eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4,
            },
            **CHEAP,
        )
        without_decay = SimJobSpec(
            network="MLP1",
            optimizer_params={
                "eta": 0.01, "alpha": 0.9, "weight_decay": 0.0,
            },
            **CHEAP,
        )
        a = pool.execute_spec(with_decay)
        b = pool.execute_spec(without_decay)
        from repro.system.design import DesignPoint

        # The baseline stream touches the same arrays either way; the
        # compiled PIM kernel gains a scaled-load term with decay.
        pim = DesignPoint.GRADPIM_BUFFERED
        assert (
            a.profiles[pim].seconds_per_param
            != b.profiles[pim].seconds_per_param
        )
        # And re-running in the same process reproduces both exactly.
        fresh = run_specs([without_decay, with_decay], jobs=1)
        assert (
            fresh[0]["result"]["profiles"]["GradPIM-BD"]
            == b.to_dict()["profiles"]["GradPIM-BD"]
        )
        assert (
            fresh[1]["result"]["profiles"]["GradPIM-BD"]
            == a.to_dict()["profiles"]["GradPIM-BD"]
        )


class TestSubstrateMemoization:
    def test_hyperparam_variants_share_one_model(self):
        # The substrate key is hardware-only; profiles are memoized
        # inside the model by full optimizer identity, so two jobs
        # differing only in hyperparameters share one UpdatePhaseModel.
        pool.clear_model_cache()
        a = SimJobSpec(
            network="MLP1",
            optimizer_params={"eta": 0.01, "alpha": 0.9,
                              "weight_decay": 1e-4},
            **CHEAP,
        )
        b = SimJobSpec(
            network="MLP1",
            optimizer_params={"eta": 0.01, "alpha": 0.9,
                              "weight_decay": 0.0},
            **CHEAP,
        )
        run_specs([a, b], jobs=1)
        assert len(pool._MODELS) == 1
        (model,) = pool._MODELS.values()
        # Both optimizer identities are separately cached inside it.
        designs = {key[0] for key in model._cache}
        identities = {key[1] for key in model._cache}
        assert len(identities) == 2
        assert len(designs) == 2  # Baseline + GradPIM-BD

    def test_profiles_computed_once_across_jobs(self, monkeypatch):
        from repro.dram.scheduler import CommandScheduler

        pool.clear_model_cache()
        runs = []
        real = CommandScheduler.run

        def counting(self, commands, **kwargs):
            runs.append(len(commands))
            return real(self, commands, **kwargs)

        monkeypatch.setattr(CommandScheduler, "run", counting)
        specs = [
            SimJobSpec(network="MLP1", batch=b, **CHEAP)
            for b in (16, 32, 64)
        ]
        run_specs(specs, jobs=1)
        # One schedule per design in the set, not per job.
        assert len(runs) == len(CHEAP["designs"])

    def test_exact_engine_spellings_share_one_model(self):
        """``incremental``/``reference``/``columnar`` all select the
        columnar loop: one substrate, one model — while each spelling
        keeps its own content hash (cache keys never move)."""
        pool.clear_model_cache()
        specs = [
            SimJobSpec(network="MLP1", engine=engine, **CHEAP)
            for engine in ("incremental", "reference", "columnar")
        ]
        results = [pool.execute_spec(s).to_dict() for s in specs]
        assert len(pool._MODELS) == 1
        (model,) = pool._MODELS.values()
        assert model.engine == "columnar"
        assert results[0] == results[1] == results[2]
        assert len({s.content_hash() for s in specs}) == 3
        # The periodic engine keeps a model of its own.
        pool.execute_spec(
            SimJobSpec(network="MLP1", engine="periodic", **CHEAP)
        )
        assert len(pool._MODELS) == 2

    def test_validate_flag_reaches_the_model(self):
        pool.clear_model_cache()
        spec = SimJobSpec(network="MLP1", validate=False, **CHEAP)
        result = pool.execute_spec(spec)
        assert result is not None
        (key,) = pool._MODELS
        assert pool._MODELS[key].validate is False
        # Validated and unvalidated substrates do not share models.
        pool.execute_spec(SimJobSpec(network="MLP1", **CHEAP))
        assert len(pool._MODELS) == 2

    def test_no_validate_matches_validated_results(self):
        pool.clear_model_cache()
        on = pool.execute_spec(SimJobSpec(network="MLP1", **CHEAP))
        off = pool.execute_spec(
            SimJobSpec(network="MLP1", validate=False, **CHEAP)
        )
        assert on.to_dict() == off.to_dict()
