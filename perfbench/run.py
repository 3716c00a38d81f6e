"""Time-to-solution benchmark of the nspnp SAV projection step.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload relax-ex3-n100 --seed 3 --seconds 30 --trace 0

With --workload, the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, measured with only the advance() and init_state()
boundaries timed; --trace 1 reports the per-layer metrics from a traced
repetition and writes its spans to .bench_out/.  Times are CPU seconds
scaled to a reference machine speed by calibrate.py.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread: the Krylov dot products then reduce in a fixed
# order and iteration counts repeat exactly.  Must precede importing numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
from calibrate import REFERENCE_S, Calibrator

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("relax-ex3-n100", "ladder-ex1-n40", "mms-ex2-n80")
# Stand-alone set-ups per run, at least SETUPS and for at least SETUP_MIN_S;
# setup_s is their median.
SETUPS = 9
SETUP_MIN_S = 2.0
# A run stops before a repetition that would end after WALL_FACTOR * --seconds
# of wall time, however many reference seconds it has measured.
WALL_FACTOR = 2.0
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "err_L2_max": "1",
}


def load_package():
    """Import nspnp from this checkout's src/, never from an installed copy."""
    package = ROOT / "src" / "nspnp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no nspnp sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import nspnp

    if Path(nspnp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported nspnp from {nspnp.__file__}, not {package}")


def environment() -> dict:
    """Interpreter, numpy/scipy and BLAS identity and thread count."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "cpu": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_unit(workload, recorder, traced: bool, calibrator):
    """One repetition under a 'unit' span; returns its Outcome or the error."""
    with (
        spans.instrument(recorder, full=traced, between=calibrator.burst_owed),
        recorder.span(spans.UNIT) as unit,
    ):
        calibrator.burst(recorder)
        try:
            ops = workload.build(recorder)
            outcome = workload.solve(ops)
        except RuntimeError as exc:  # a solver that did not converge
            unit.info["error"] = str(exc)
            return None, str(exc)
    return outcome, None


def durations(span_list, name: str) -> list[float]:
    return [s.duration for s in span_list if s.name == name]


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Set-ups, then repetitions until the next one would overrun seconds.

    Seconds are counted in reference seconds, the unit of the metrics, so
    that the number of repetitions does not change with the speed the host
    gives the process; a wall-clock cap of WALL_FACTOR * seconds bounds the
    run on a slow machine.  Every run makes at least one repetition.  A
    traced run alternates untraced and traced repetitions, at least one of
    each, so that the tracing overhead is the difference of their run times.
    """
    from workloads import WORKLOADS

    wall_deadline = time.perf_counter() + WALL_FACTOR * seconds
    workload = WORKLOADS[name](seed)
    calibrator = Calibrator(time.process_time)
    setups = spans.Recorder()
    with spans.instrument(setups, full=trace):
        calibrator.burst(setups)
        start, done = time.perf_counter(), 0
        while done < SETUPS or time.perf_counter() - start < SETUP_MIN_S:
            workload.setup(setups)
            calibrator.burst(setups)
            done += 1
    # Every time from here on is in reference seconds; see calibrate.py.
    setup = spans.warp(setups.spans, REFERENCE_S)
    spent = sum(durations(setup, "setup"))

    plain, traced = spans.Recorder(), spans.Recorder()
    outcomes, failures, runs = [], [], []
    while True:
        use_trace = trace and (len(outcomes) + len(failures)) % 2 == 1
        recorder = traced if use_trace else plain
        start = time.perf_counter()
        outcome, error = run_unit(workload, recorder, use_trace, calibrator)
        last = time.perf_counter() - start
        if error is None and outcome.problems:
            error = "; ".join(outcome.problems)
        if error is None:
            outcomes.append(outcome)
        else:
            failures.append(error)
        runs.append(durations(spans.warp(recorder.spans, REFERENCE_S), spans.UNIT)[-1])
        if trace and not traced.spans:
            continue
        if spent + sum(runs) + max(runs) > seconds or time.perf_counter() + last > wall_deadline:
            break

    untraced = spans.warp(plain.spans, REFERENCE_S)
    if trace:
        timed = spans.warp(traced.spans, REFERENCE_S)
        metrics = spans.layer_metrics(timed)
        for part in ("mesh", "operators"):
            metrics[f"setup.{part}_s"] = median(durations(setup, f"setup.{part}"))
        metrics["setup.init_state_s"] = median(durations(setup, spans.INIT_STATE))
        metrics["trace.overhead_s"] = median(durations(timed, spans.UNIT)) - median(
            durations(untraced, spans.UNIT)
        )
        write_trace(name, seed, {"setup": setups, "untraced": plain, "traced": traced})
    else:
        metrics = {
            "setup_s": median(durations(setup, "setup")),
            "step_s": median(spans.mean_step_times(untraced)),
            "run_s": median(durations(untraced, spans.UNIT)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if outcomes:
            metrics["err_L2_max"] = median(o.err_L2_max for o in outcomes)
    return metrics, len(outcomes) + len(failures), failures


def write_trace(name: str, seed: int, recorders: dict):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "env": environment()}) + "\n")
        for part, recorder in recorders.items():
            for row in spans.to_records(recorder.spans, part):
                fh.write(json.dumps(row) + "\n")


def run_one(args) -> int:
    load_package()
    metrics, attempted, failures = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for failure in failures:
        print(f"# failed: {failure}")
    units = {
        key: spans.unit_of(key) if args.trace else END_TO_END_UNITS[key] for key in metrics
    }
    for key, value in metrics.items():
        print(f"{args.workload} {key} = {value!r} {units[key]}")
    print(f"{args.workload} failed_share = {len(failures) / attempted!r} 1 ({len(failures)}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="omit to run every workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the published data")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
