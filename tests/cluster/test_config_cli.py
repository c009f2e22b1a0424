"""ClusterConfig validation, shard-config pass-through, and the CLI."""

import pickle

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.__main__ import _parser, main
from repro.errors import ConfigError
from repro.server import ServerConfig
from repro.service.config import ServiceConfig


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"port": -1},
            {"shards": 0},
            {"vnodes": 0},
            {"probe_interval_seconds": 0},
            {"probe_timeout_seconds": -1.0},
            {"probe_misses": 0},
            {"restart_budget": -1},
            {"restart_backoff_seconds": 0},
            {"max_batch": 0},
            {"max_tracked_jobs": 0},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ClusterConfig(**overrides)

    def test_defaults_construct(self):
        config = ClusterConfig()
        assert config.shards == 3
        assert config.restart_budget >= 1


class TestShardConfig:
    def test_shards_always_bind_ephemeral_ports(self):
        config = ClusterConfig(port=8123)
        assert config.shard_config().port == 0

    def test_gateway_knobs_forwarded_verbatim(self, tmp_path):
        config = ClusterConfig(
            shard_workers=2,
            shard_queue_depth=7,
            cache_dir=str(tmp_path),
            execution=ServiceConfig(
                job_timeout_seconds=12.5,
                max_retries=4,
                quarantine_ttl_seconds=3.0,
            ),
            faults="seed=9;engine.slow:rate=0.1,delay_ms=1",
        )
        shard = config.shard_config()
        assert shard.workers == 2
        assert shard.queue_depth == 7
        assert shard.cache_dir == str(tmp_path)
        assert shard.execution.job_timeout_seconds == 12.5
        assert shard.execution.max_retries == 4
        assert shard.execution.quarantine_ttl_seconds == 3.0
        # Same plan text = same seed: shard-side sites fire under the
        # one deterministic schedule the whole cluster shares.
        assert shard.faults == config.faults

    def test_shard_config_round_trips_through_pickle(self):
        # Shard children receive the frozen ServerConfig itself; it
        # must pickle, nested execution policy included, to the exact
        # config.
        config = ClusterConfig(
            shard_queue_depth=9,
            execution=ServiceConfig(default_deadline_ms=1500),
        )
        shard = config.shard_config()
        assert isinstance(shard, ServerConfig)
        assert pickle.loads(pickle.dumps(shard)) == shard


class TestCli:
    def test_parser_defaults_mirror_config_defaults(self):
        args = _parser().parse_args([])
        defaults = ClusterConfig()
        assert args.shards == defaults.shards
        assert args.probe_interval == defaults.probe_interval_seconds
        assert args.probe_misses == defaults.probe_misses
        assert args.restart_budget == defaults.restart_budget
        assert args.restart_backoff == defaults.restart_backoff_seconds
        assert args.quarantine_ttl is None
        assert args.faults is None

    def test_bad_config_exits_2(self, capsys):
        assert main(["--shards", "0"]) == 2
        assert "cannot start cluster" in capsys.readouterr().err

    def test_bad_fault_plan_exits_2(self, capsys):
        assert main(["--faults", "nonsense:rate=1"]) == 2
        assert "cannot start cluster" in capsys.readouterr().err
