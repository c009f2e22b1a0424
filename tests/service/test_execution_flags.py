"""The execution-policy flags, parsed the same way by every front end.

``repro-server``, ``repro-cluster`` and ``repro-service`` each take
``--job-timeout``, ``--job-max-retries``, ``--quarantine-ttl`` and
``--deadline-ms`` from one helper; this table drives all three through
their real ``main`` with the heavy part (binding a server, spawning
shards, running jobs) replaced by a recorder of the policy it got.
"""

import json

import pytest

from repro.cluster import __main__ as cluster_cli
from repro.server import __main__ as server_cli
from repro.service import __main__ as service_cli
from repro.service.config import ServiceConfig


class _FrontEnd:
    """Stands in for a bound server or cluster: serves nothing."""

    url = "http://127.0.0.1:1"

    def serve_forever(self, poll_interval=0.5):
        pass

    def stop(self):
        pass


@pytest.fixture()
def run_cli(monkeypatch, tmp_path):
    """``run_cli(name, flags)`` -> (exit code, ServiceConfig or None)."""
    seen = []

    def build(config):
        seen.append(config.execution)
        return _FrontEnd()

    def submit_many(specs, jobs, cache, config):
        seen.append(config)
        return []

    monkeypatch.setattr(server_cli, "create_server", build)
    monkeypatch.setattr(cluster_cli, "create_cluster", build)
    monkeypatch.setattr(service_cli, "submit_many", submit_many)
    job_file = tmp_path / "jobs.json"
    job_file.write_text(json.dumps({"jobs": []}))
    argv0 = {
        "repro-server": ["--port", "0"],
        "repro-cluster": ["--port", "0"],
        "repro-service": [str(job_file)],
    }
    mains = {
        "repro-server": server_cli.main,
        "repro-cluster": cluster_cli.main,
        "repro-service": service_cli.main,
    }

    def run(name, flags):
        seen.clear()
        try:
            code = mains[name](argv0[name] + list(flags))
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        return code, (seen[0] if seen else None)

    return run


CLIS = ["repro-server", "repro-cluster", "repro-service"]

FLAGS = [
    "--job-timeout", "12.5",
    "--job-max-retries", "4",
    "--quarantine-ttl", "30",
    "--deadline-ms", "1500",
]

POLICY = ServiceConfig(
    job_timeout_seconds=12.5,
    max_retries=4,
    quarantine_ttl_seconds=30.0,
    default_deadline_ms=1500,
)


@pytest.mark.parametrize("cli", CLIS)
def test_same_flags_yield_the_same_policy(run_cli, cli):
    assert run_cli(cli, FLAGS) == (0, POLICY)


@pytest.mark.parametrize("cli", CLIS)
def test_defaults_are_the_service_defaults(run_cli, cli):
    assert run_cli(cli, []) == (0, ServiceConfig())


@pytest.mark.parametrize("cli", CLIS)
def test_max_retries_is_a_second_spelling(run_cli, cli):
    assert run_cli(cli, ["--max-retries", "4"]) == run_cli(
        cli, ["--job-max-retries", "4"]
    )
    assert run_cli(cli, ["--max-retries", "4"])[1].max_retries == 4


@pytest.mark.parametrize("cli", CLIS)
@pytest.mark.parametrize(
    "flags",
    [
        ["--job-timeout", "0"],
        ["--job-max-retries", "-1"],
        ["--quarantine-ttl", "-5"],
        ["--deadline-ms", "0"],
        ["--deadline-ms", "soon"],
    ],
    ids=["timeout=0", "retries=-1", "ttl=-5", "deadline=0", "deadline=soon"],
)
def test_bad_value_exits_2(run_cli, cli, flags, capsys):
    assert run_cli(cli, flags) == (2, None)
    assert capsys.readouterr().err
