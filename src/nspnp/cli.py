"""Command-line front end: config parsing, run orchestration, artifact output.

Three subcommands share one flat key=value config format:

* ``run``: advance a single case to its final time, writing ``diagnostics.csv``
  (one row per step, columns fixed by :data:`nspnp.diagnostics.DIAG_COLUMNS`)
  and ``summary.csv`` (final-state scalars), plus optional SVG trace plots.
* ``convergence``: sweep a list of time steps on one mesh and write
  ``errors.csv`` with per-field errors and successive-halving rates.
* ``selfcheck``: run the built-in property checks and report pass/fail counts.

All floats are serialized with ``repr``, which round-trips exactly, so two runs
with the same config produce byte-identical files.  CSV headers are stable and
consumers should address columns by name.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Sequence

from .diagnostics import DiagRecord
from .mms import CASES, ERROR_FIELDS, case_by_name, case_operators, convergence_study, run_case
from .scheme import SchemeParams
from .selfcheck import run_all

ERRORS_COLUMNS = (
    ("tau",)
    + tuple(
        f"{kind}_{field}_{norm}"
        for field in ("c1", "c2", "phi", "u")
        for norm in ("L2", "H1")
        for kind in ("e", "rate")
    )
    + ("e_p_L2", "rate_p_L2")
)

SUMMARY_COLUMNS = (
    "case",
    "nx",
    "ny",
    "tau",
    "t_final",
    "steps",
    "mass_c1",
    "mass_c2",
    "mass_drift_c1",
    "mass_drift_c2",
    "min_c1_run",
    "min_c2_run",
    "E_h_initial",
    "E_h_final",
    "E_orig_final",
    "max_energy_increase",
    "max_xi_deviation",
    "r_final",
)


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration text."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration for the run/convergence commands.

    Unset numeric fields are None and fall back to the chosen case's
    published defaults when the command resolves the mesh and parameters.
    """

    case: str
    nx: int | None = None
    ny: int | None = None
    tau: float | None = None
    taus: tuple[float, ...] | None = None
    t_final: float | None = None
    c0: float | None = None
    tol: float = 1e-10
    max_iter: int = 200_000
    out: str | None = None
    emit_svg: bool = False


def _parse_bool(raw: str, key: str, lineno: int) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"line {lineno}: {key} expects a boolean, got {raw!r}")


def _parse_float(raw: str, key: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {lineno}: {key} must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, key: str, lineno: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects an integer, got {raw!r}") from None
    return value


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key=value`` configuration text into a RunConfig.

    Lines are independent; ``#`` starts a comment and blank lines are
    skipped.  Unknown keys, malformed numbers, duplicate keys, and values
    violating basic invariants (nonpositive steps, unknown case) are all
    reported with the offending line number, first error wins.
    """
    fields: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno

        if key == "case":
            if raw not in CASES:
                raise ConfigError(
                    f"line {lineno}: unknown case {raw!r}; expected one of {', '.join(CASES)}"
                )
            fields["case"] = raw
        elif key in ("nx", "ny"):
            value = _parse_int(raw, key, lineno)
            if value < 1:
                raise ConfigError(f"line {lineno}: {key} must be positive, got {value}")
            fields[key] = value
        elif key == "tau":
            value = _parse_float(raw, key, lineno)
            if value <= 0.0:
                raise ConfigError(f"line {lineno}: tau must be positive, got {raw}")
            fields["tau"] = value
        elif key == "taus":
            parts = [p for p in raw.replace(",", " ").split() if p]
            taus = tuple(_parse_float(p, "taus", lineno) for p in parts)
            if any(t <= 0.0 for t in taus):
                raise ConfigError(f"line {lineno}: taus must all be positive, got {raw}")
            if len(set(taus)) < len(taus):
                # Convergence rates divide by log(tau_prev / tau).
                raise ConfigError(f"line {lineno}: taus must be distinct, got {raw}")
            fields["taus"] = taus
        elif key == "t_final":
            value = _parse_float(raw, key, lineno)
            if value <= 0.0:
                raise ConfigError(f"line {lineno}: t_final must be positive, got {raw}")
            fields["t_final"] = value
        elif key == "c0":
            value = _parse_float(raw, key, lineno)
            if value <= 0.0:
                raise ConfigError(f"line {lineno}: c0 must be positive, got {raw}")
            fields["c0"] = value
        elif key == "tol":
            value = _parse_float(raw, key, lineno)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"line {lineno}: tol must lie in (0, 1), got {raw}")
            fields["tol"] = value
        elif key == "max_iter":
            value = _parse_int(raw, key, lineno)
            if value < 1:
                raise ConfigError(f"line {lineno}: max_iter must be positive, got {value}")
            fields["max_iter"] = value
        elif key == "out":
            fields["out"] = raw
        elif key == "emit_svg":
            fields["emit_svg"] = _parse_bool(raw, key, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if "case" not in fields:
        raise ConfigError(f"case is required (case={'|'.join(CASES)})")
    return RunConfig(**fields)  # type: ignore[arg-type]


def _resolve(config: RunConfig):
    """Fill case defaults and build the case and its operators."""
    case = case_by_name(config.case)
    try:
        ops = case_operators(case, config.nx, config.ny)
    except ValueError as exc:  # a mesh the config describes cannot be built
        raise ConfigError(str(exc)) from None
    return case, ops


def _params(config: RunConfig, case, tau: float) -> SchemeParams:
    try:
        return SchemeParams(
            tau=tau,
            t_final=config.t_final if config.t_final is not None else case.t_final,
            c0=config.c0 if config.c0 is not None else case.c0,
            tol=config.tol,
            max_iter=config.max_iter,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # Coerce numpy scalars so repr is the bare round-trip literal.
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns: Sequence[str], rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _svg_polyline(path: Path, title: str, times, series) -> None:
    """Write a minimal fixed-size SVG line plot of named traces over time.

    series is a list of (label, values) pairs.  Axes are linear with tight
    data bounds; this is a convenience rendering of CSV data, not a report.
    """
    width, height, margin = 640, 400, 50
    t_lo, t_hi = min(times), max(times)
    values = [v for _, vs in series for v in vs]
    v_lo, v_hi = min(values), max(values)
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    def sx(t):
        return margin + (t - t_lo) / (t_hi - t_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - v_lo) / (v_hi - v_lo) * (height - 2 * margin)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}"'
        f' height="{height - 2 * margin}" fill="none" stroke="#888"/>',
        f'<text x="{margin}" y="{height - 8}" font-size="11">t = {_format(float(t_lo))}'
        f' .. {_format(float(t_hi))}</text>',
        f'<text x="{margin}" y="{margin - 6}" font-size="11">range {_format(float(v_lo))}'
        f' .. {_format(float(v_hi))}</text>',
    ]
    for idx, (label, vals) in enumerate(series):
        color = palette[idx % len(palette)]
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times, vals))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * (idx + 1)}"'
            f' font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _emit_svgs(out: Path, records: list[DiagRecord]) -> None:
    times = [rec.time for rec in records]
    _svg_polyline(
        out / "energy.svg",
        "energy traces",
        times,
        [("E_h", [r.E_h for r in records]), ("E_orig", [r.E_orig for r in records])],
    )
    _svg_polyline(
        out / "mass.svg",
        "species masses",
        times,
        [("mass_c1", [r.mass_c1 for r in records]), ("mass_c2", [r.mass_c2 for r in records])],
    )
    _svg_polyline(
        out / "extrema.svg",
        "concentration extrema",
        times,
        [
            ("min_c1", [r.min_c1 for r in records]),
            ("max_c1", [r.max_c1 for r in records]),
            ("min_c2", [r.min_c2 for r in records]),
            ("max_c2", [r.max_c2 for r in records]),
        ],
    )


def cmd_run(config: RunConfig, out_dir: str | Path = ".") -> int:
    """Advance one case and write diagnostics.csv, summary.csv, optional SVGs."""
    if config.tau is None:
        if config.taus is not None and len(config.taus) == 1:
            config = dataclasses.replace(config, tau=config.taus[0])
        else:
            raise ConfigError("run requires a single tau (tau=...)")
    case, ops = _resolve(config)
    params = _params(config, case, config.tau)
    _, records, _ = run_case(case, params, ops=ops)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "diagnostics.csv", DiagRecord.field_names(), [r.as_row() for r in records])

    last = records[-1]
    drift1 = max(abs(r.mass_c1 - records[0].mass_c1) for r in records)
    drift2 = max(abs(r.mass_c2 - records[0].mass_c2) for r in records)
    increases = [b.E_h - a.E_h for a, b in zip(records, records[1:])]
    summary_row = (
        case.name,
        ops.mesh.nx,
        ops.mesh.ny,
        params.tau,
        params.t_final,
        last.step,
        last.mass_c1,
        last.mass_c2,
        drift1,
        drift2,
        min(r.min_c1 for r in records),
        min(r.min_c2 for r in records),
        records[0].E_h,
        last.E_h,
        last.E_orig,
        max(increases) if increases else 0.0,
        max(abs(r.xi - 1.0) for r in records[1:]) if len(records) > 1 else 0.0,
        last.r,
    )
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, [summary_row])
    if config.emit_svg:
        _emit_svgs(out, records)
    return 0


def cmd_convergence(config: RunConfig, out_dir: str | Path = ".") -> int:
    """Sweep the configured tau list on one mesh and write errors.csv."""
    taus = config.taus
    if taus is None and config.tau is not None:
        taus = (config.tau,)
    if not taus:
        raise ConfigError("convergence requires a nonempty tau list (taus=...)")
    case, ops = _resolve(config)
    if case.exact is None:
        raise ConfigError(f"case {case.name} has no closed-form solution to measure errors against")
    params = _params(config, case, taus[0])
    for tau in taus[1:]:
        _params(config, case, tau)  # every tau must divide t_final
    rows = convergence_study(case, params, list(taus), ops=ops)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "errors.csv",
        ERRORS_COLUMNS,
        [tuple(row[col] for col in ERRORS_COLUMNS) for row in rows],
    )
    return 0


def cmd_selfcheck(seed: int = 0) -> int:
    """Run the property checks and print a pass/fail report; 0 iff all pass."""
    results = run_all(seed=seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nspnp",
        description="Finite-element electrohydrodynamics solver with energy-stable time stepping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance one case and write per-step diagnostics")
    p_run.add_argument("--config", required=True, help="path to key=value config file")
    p_run.add_argument("--out", help="output directory (default: config out, else cwd)")

    p_conv = sub.add_parser("convergence", help="time-step sweep with error table output")
    p_conv.add_argument("--config", required=True, help="path to key=value config file")
    p_conv.add_argument("--out", help="output directory (default: config out, else cwd)")

    p_check = sub.add_parser("selfcheck", help="run built-in property checks")
    p_check.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "selfcheck":
        return cmd_selfcheck(seed=args.seed)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None else config.out if config.out is not None else "."
    try:
        if args.command == "run":
            return cmd_run(config, out_dir)
        return cmd_convergence(config, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
