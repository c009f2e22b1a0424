"""Runner-CLI smoke tests (cheap subset only)."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main


def test_every_figure_registered():
    assert set(EXPERIMENTS) == {
        "tables", "fig2", "fig9", "fig10", "fig11", "fig12", "fig13",
        "fig14",
    }


def test_main_runs_cheap_subset(capsys):
    assert main(["tables", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "update share" in out


def test_main_rejects_unknown(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiments" in capsys.readouterr().out


def test_main_accepts_jobs_flag(capsys):
    assert main(["--jobs", "2", "tables"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_main_accepts_cache_dir(tmp_path, capsys):
    assert main([f"--cache-dir={tmp_path}", "tables"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_main_rejects_bad_jobs(capsys):
    assert main(["--jobs", "zero", "tables"]) == 2
    assert "--jobs" in capsys.readouterr().out


def test_main_rejects_unknown_flag(capsys):
    assert main(["--fidelity", "high"]) == 2
    assert "unknown option" in capsys.readouterr().out


def test_main_accepts_no_validate(capsys):
    assert main(["--no-validate", "tables", "fig2"]) == 0
    assert "Fig. 2" in capsys.readouterr().out


def test_parse_args_no_validate():
    from repro.experiments.runner import parse_args

    assert parse_args(["fig9"]) == (
        ["fig9"], 1, None, True, "incremental", None,
    )
    assert parse_args(["--no-validate", "fig9"]) == (
        ["fig9"], 1, None, False, "incremental", None,
    )
    assert parse_args(["--engine", "periodic", "fig9"]) == (
        ["fig9"], 1, None, True, "periodic", None,
    )
    assert parse_args(["--trace", "out.json", "fig9"]) == (
        ["fig9"], 1, None, True, "incremental", "out.json",
    )
    with pytest.raises(ValueError):
        parse_args(["--engine", "warp-drive", "fig9"])


def test_full_run_never_materializes_commands(monkeypatch, capsys):
    """Every figure, in process with an in-memory cache, schedules and
    validates without building a single ``Command`` object."""
    from repro.dram.columnar import ColumnarStream

    def refuse(*args, **kwargs):
        raise AssertionError("ColumnarStream.to_commands was called")

    monkeypatch.setattr(ColumnarStream, "to_commands", refuse)
    assert main([]) == 0
    assert "Fig. 9" in capsys.readouterr().out


def test_full_run_schedules_each_substrate_once(monkeypatch, capsys):
    """A cold in-process run profiles every (design, substrate) once:
    figures that read update profiles directly (Fig. 11) share the
    service's update models instead of re-profiling on their own. The
    17 schedules left include two pairs of identical streams compiled
    for different precisions."""
    from repro.dram.scheduler import CommandScheduler
    from repro.service.pool import clear_model_cache

    runs = []
    real = CommandScheduler.run

    def counting(self, commands, *args, **kwargs):
        runs.append(len(commands))
        return real(self, commands, *args, **kwargs)

    clear_model_cache()
    monkeypatch.setattr(CommandScheduler, "run", counting)
    assert main([]) == 0
    assert "Fig. 9" in capsys.readouterr().out
    assert len(runs) == 17
