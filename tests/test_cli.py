"""Config parsing, command orchestration, artifact layout, and exit codes."""

from __future__ import annotations

import dataclasses

import pytest

import nspnp.cli as cli
from nspnp.cli import (
    ERRORS_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    RunConfig,
    cmd_convergence,
    cmd_run,
    main,
    parse_config,
)
from nspnp.diagnostics import DIAG_COLUMNS


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --- parsing ---------------------------------------------------------------


def test_parse_minimal_config():
    config = parse_config("case=example1\ntau=0.1\n")
    assert config.case == "example1"
    assert config.tau == 0.1
    # Everything else stays unset and falls back to the case defaults later.
    assert config.nx is None and config.t_final is None and config.c0 is None
    assert config.tol == 1e-10
    assert config.emit_svg is False


def test_parse_full_config_and_comments():
    text = """
# full option surface
case = example2   # trailing comment
nx = 16
ny = 12
taus = 0.1, 0.05 0.025
t_final = 0.1
c0 = 7.5
tol = 1e-8
max_iter = 5000
out = results
emit_svg = yes
"""
    config = parse_config(text)
    assert config.case == "example2"
    assert (config.nx, config.ny) == (16, 12)
    assert config.taus == (0.1, 0.05, 0.025)
    assert config.t_final == 0.1
    assert config.c0 == 7.5
    assert config.tol == 1e-8
    assert config.max_iter == 5000
    assert config.out == "results"
    assert config.emit_svg is True
    # run and convergence are deterministic; they take no seed.
    with pytest.raises(ConfigError, match="line 2: unknown key 'seed'"):
        parse_config("case=example1\nseed = 3\n")


def test_parse_empty_taus_gives_empty_tuple():
    config = parse_config("case=example1\ntaus=\n")
    assert config.taus == ()


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("", "case is required"),
        ("tau=0.1\n", "case is required"),
        ("case=example9\n", "line 1: unknown case"),
        ("case=example1\nbogus=3\n", "line 2: unknown key 'bogus'"),
        ("case=example1\ntau=-1\n", "line 2: tau must be positive"),
        ("case=example1\ntau=fast\n", "line 2: tau expects a number"),
        ("case=example1\nnx=0\n", "line 2: nx must be positive"),
        ("case=example1\nnx=2.5\n", "line 2: nx expects an integer"),
        ("case=example1\ntaus=0.1 -0.05\n", "line 2: taus must all be positive"),
        ("case=example1\ntaus=0.1 0.05 0.1\n", "line 2: taus must be distinct"),
        ("case=example1\ntol=2\n", "line 2: tol must lie in (0, 1)"),
        ("case=example1\nemit_svg=maybe\n", "line 2: emit_svg expects a boolean"),
        ("case=example1\njust words\n", "line 2: expected key=value"),
        ("case=example1\ncase=example2\n", "line 2: duplicate key 'case'"),
    ],
)
def test_parse_rejects_bad_input(text, fragment):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert fragment in str(exc_info.value)


def test_duplicate_error_names_first_line():
    with pytest.raises(ConfigError, match="first set on line 2"):
        parse_config("case=example1\nnx=4\nnx=8\n")


# --- commands --------------------------------------------------------------


@pytest.fixture()
def tiny_run_config():
    # Three steps of the source-free case on a coarse mesh: fast but exercises
    # every stage of the stepper and both CSV writers.
    return parse_config("case=example3\nnx=6\ntau=0.1\nt_final=0.3\n")


def test_cmd_run_artifacts(tiny_run_config, tmp_path):
    assert cmd_run(tiny_run_config, tmp_path) == 0
    header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header == list(DIAG_COLUMNS)
    assert len(rows) == 4  # step 0 snapshot + 3 steps
    assert all(len(row) == len(DIAG_COLUMNS) for row in rows)
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]

    header, rows = read_csv(tmp_path / "summary.csv")
    assert header == list(SUMMARY_COLUMNS)
    (row,) = rows
    summary = dict(zip(header, row))
    assert summary["case"] == "example3"
    assert summary["nx"] == "6"
    assert summary["steps"] == "3"
    assert float(summary["mass_drift_c1"]) < 1e-9
    assert float(summary["max_energy_increase"]) < 0.0


def test_cmd_run_accepts_single_tau_list(tmp_path):
    config = parse_config("case=example3\nnx=4\ntaus=0.1\nt_final=0.2\n")
    assert cmd_run(config, tmp_path) == 0
    assert (tmp_path / "summary.csv").exists()


def test_cmd_run_without_tau_is_usage_error(tmp_path):
    config = parse_config("case=example3\nnx=4\n")
    with pytest.raises(ConfigError, match="single tau"):
        cmd_run(config, tmp_path)


def test_cmd_run_determinism(tiny_run_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_run(tiny_run_config, a)
    cmd_run(tiny_run_config, b)
    for name in ("diagnostics.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cmd_run_emits_svgs(tiny_run_config, tmp_path):
    config = dataclasses.replace(tiny_run_config, emit_svg=True)
    cmd_run(config, tmp_path)
    for name in ("energy.svg", "mass.svg", "extrema.svg"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert "polyline" in text


def test_cmd_convergence_artifacts(tmp_path):
    config = parse_config("case=example1\nnx=8\ntaus=0.1 0.05\nt_final=0.2\n")
    assert cmd_convergence(config, tmp_path) == 0
    header, rows = read_csv(tmp_path / "errors.csv")
    assert header == list(ERRORS_COLUMNS)
    assert len(rows) == 2
    first, second = (dict(zip(header, row)) for row in rows)
    # Rates compare successive taus, so the first row leaves them blank.
    assert first["rate_c1_L2"] == "" and first["rate_p_L2"] == ""
    assert float(second["rate_u_L2"]) != 0.0
    assert float(first["e_c1_L2"]) > 0.0
    assert float(first["tau"]) == 0.1 and float(second["tau"]) == 0.05


def test_cmd_convergence_requires_taus(tmp_path):
    config = parse_config("case=example1\nnx=8\ntaus=\n")
    with pytest.raises(ConfigError, match="nonempty tau list"):
        cmd_convergence(config, tmp_path)


def test_cmd_convergence_rejects_case_without_truth(tmp_path):
    config = parse_config("case=example3\nnx=8\ntaus=0.1\n")
    with pytest.raises(ConfigError, match="no closed-form solution"):
        cmd_convergence(config, tmp_path)


# --- entry point -----------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_main_run_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "case=example3\nnx=4\ntau=0.1\nt_final=0.2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "summary.csv").exists()


def test_main_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_bad_config_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "case=example1\nbogus=1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_main_empty_tau_list_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "case=example1\nnx=4\ntaus=\n")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "nonempty tau list" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "text", "fragment"),
    [
        ("run", "case=example3\nnx=4\ntau=0.25\nt_final=0.6\n", "not an integer multiple"),
        ("convergence", "case=example1\nnx=4\ntaus=0.2 0.25\nt_final=0.6\n", "not an integer multiple"),
        ("run", "case=example3\nnx=4\ntau=nan\nt_final=0.1\n", "line 3: tau must be finite"),
        ("run", "case=example3\nnx=4\ntau=inf\nt_final=0.1\n", "line 3: tau must be finite"),
        ("run", "case=example3\nnx=4\ntau=0.1\nt_final=0.1\nc0=inf\n", "line 5: c0 must be finite"),
        ("run", "case=example3\nnx=4\nny=6\ntau=0.1\nt_final=0.1\n", "anisotropic cells"),
        ("run", "case=example3\nnx=4\ntau=1e-300\nt_final=1e10\n", "tau=1e-300 overflows"),
        ("convergence", "case=example1\nnx=4\ntaus=0.1 1e-300\nt_final=1e10\n", "tau=1e-300 overflows"),
    ],
    ids=[
        "t_final-not-multiple", "later-tau-not-multiple", "tau-nan", "tau-inf", "c0-inf", "unequal-cells",
        "step-count-overflows", "later-step-count-overflows",
    ],
)
def test_main_invalid_parameters_are_usage_errors(tmp_path, capsys, command, text, fragment):
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert fragment in capsys.readouterr().err


def test_main_solver_failure_exits_one(tmp_path, capsys):
    # One Krylov iteration cannot reach 1e-10 on the first step's c1 transport solve.
    cfg = write_config(
        tmp_path, "case=example3\nnx=4\ntau=0.1\nt_final=0.1\nmax_iter=1\n"
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "solve failed" in capsys.readouterr().err


def test_main_out_dir_precedence(tmp_path, monkeypatch):
    # config `out` is the default; an explicit --out flag overrides it, `--out .` included.
    configured = tmp_path / "configured"
    flagged = tmp_path / "flagged"
    cfg = write_config(
        tmp_path,
        f"case=example3\nnx=4\ntau=0.1\nt_final=0.1\nout={configured}\n",
    )
    assert main(["run", "--config", cfg]) == 0
    assert (configured / "summary.csv").exists()

    assert main(["run", "--config", cfg, "--out", str(flagged)]) == 0
    assert (flagged / "summary.csv").exists()

    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", "--config", cfg, "--out", "."]) == 0
    assert (cwd / "summary.csv").exists()


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_selfcheck_reporting(monkeypatch, capsys):
    @dataclasses.dataclass(frozen=True)
    class Stub:
        name: str
        passed: bool
        detail: str

    def fake_run_all(seed=0):
        return [Stub("alpha", True, "ok"), Stub("beta", False, f"seed {seed}")]

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    assert main(["selfcheck", "--seed", "11"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] alpha: ok" in out
    assert "[FAIL] beta: seed 11" in out
    assert "1/2 checks passed" in out

    monkeypatch.setattr(
        cli, "run_all", lambda seed=0: [Stub("alpha", True, "ok")]
    )
    assert main(["selfcheck"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


def test_errors_columns_layout():
    assert ERRORS_COLUMNS[0] == "tau"
    assert ERRORS_COLUMNS[-2:] == ("e_p_L2", "rate_p_L2")
    # Per measured field: error then rate, L2 then H1.
    assert ERRORS_COLUMNS[1:5] == ("e_c1_L2", "rate_c1_L2", "e_c1_H1", "rate_c1_H1")
    assert len(ERRORS_COLUMNS) == 1 + 4 * 4 + 2


def test_run_config_is_frozen():
    config = RunConfig(case="example1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.case = "example2"  # type: ignore[misc]
