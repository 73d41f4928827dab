"""graphld benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload decay_mc --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics of one
untraced timed phase; with ``--trace 1`` it runs the same units with and
without spans and reports the per-layer metrics.  Every output is checked
against an exact reference.  The last line of stdout is the result object;
the exit code is 0 only if every output was correct.  Spans and the full
result go to ``.perfbench/``.
"""

from __future__ import annotations

import os

# One thread everywhere: pin BLAS before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("decay_mc", "class_mc", "exact_census", "rate_sweep")
#: Fresh processes timed from start to the end of their warm-up unit.
SETUP_PROBES = 3
#: Nominal seconds per cycle on a 2-core x86 box; the traced run replays
#: round(seconds / (2 * nominal)) cycles, a fixed amount of work per setting.
NOMINAL_CYCLE_S = {"decay_mc": 0.4, "class_mc": 0.25, "exact_census": 0.07, "rate_sweep": 0.28}

Done = Tuple[Any, Any, Optional[str], float]   # unit, output, error, seconds


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import graphld from it."""
    if not (SRC / "graphld" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphld sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphld
    if Path(graphld.__file__).resolve().parent != (SRC / "graphld").resolve():
        raise SystemExit(f"error: graphld imported from {graphld.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy as np
    import scipy
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_library = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_library = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_library,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_graphld_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted((SRC / "graphld").rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# Running units
# ---------------------------------------------------------------------------

def run_units(units: List[Any], tracer=None) -> List[Done]:
    """Run units back to back; with a tracer, each inside a unit span."""
    done = []
    for unit in units:
        if tracer is not None:
            tracer.unit += 1
            tracer.regime = unit.regime
            tracer.open("bench.unit")
        start = perf_counter()
        try:
            output, error = unit.run(), None
        except Exception as exc:  # a failing unit is counted, not fatal
            output, error = None, f"{unit.kind}: {exc!r}"
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.close()
        done.append((unit, output, error, seconds))
    return done


def failures(workload, done: List[Done]) -> List[Tuple[Any, List[str]]]:
    """(unit, problems) for every unit that raised, failed its own check, or
    belongs to a group whose pooled output fails the law check."""
    checked = [(unit, [error] if error else unit.check(output)) for unit, output, error, _ in done]
    pooled = [(unit, output) for (unit, output, error, _), (_, problems)
              in zip(done, checked) if not problems]
    law = workload.law_problems(pooled)
    return [(unit, problems + law.get(unit.group, [])) for unit, problems in checked
            if problems or law.get(unit.group)]


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    units beyond it; the maximum when a run has ten units or fewer."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to the end of its warm-up unit."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["ready"]) - start


def timed_phase(workload, seconds: float) -> Tuple[List[List[Done]], float]:
    """Whole cycles, untraced, until ``seconds`` have passed."""
    cycles: List[List[Done]] = []
    start = perf_counter()
    while True:
        cycles.append(run_units(workload.cycle()))
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return cycles, elapsed


def end_to_end(cycles: List[List[Done]], elapsed: float) -> Tuple[Dict[str, float],
                                                                  Dict[str, Any]]:
    """Timings of the timed phase.  The bounded ones are built from each
    input's time: the mean of its fastest and its median latency over the
    run.  On a shared host the fastest tracks idle speed and the median the
    typical load, each swinging on its own from run to run; their mean
    swings less than either, and far less than elapsed time or a pooled
    percentile, which are reported beside them."""
    done = [d for cycle in cycles for d in cycle]
    by_kind: Dict[str, List[float]] = {}
    for unit, _, _, seconds in done:
        by_kind.setdefault(unit.kind, []).append(seconds)
    typical = [(min(by_kind[unit.kind]) + statistics.median(by_kind[unit.kind])) / 2
               for unit, _, _, _ in cycles[0]]
    latencies = [seconds for _, _, _, seconds in done]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "throughput": sum(unit.work for unit, _, _, _ in cycles[0]) / sum(typical),
        "unit_p50_ms": 1e3 * statistics.median(typical),
        "unit_tail_ms": 1e3 * max(typical),
    }
    notes = {
        "cycles": len(cycles), "units": len(done), "timed_s": elapsed,
        "elapsed_throughput": sum(unit.work for unit, _, _, _ in done) / elapsed,
        "elapsed_p50_ms": 1e3 * statistics.median(latencies),
        "elapsed_tail_ms": 1e3 * tail_value, "elapsed_tail_percentile": tail_pct,
        "latencies_s": [[unit.kind, seconds] for unit, _, _, seconds in done],
    }
    return metrics, notes


def traced_phase(workload, args) -> Tuple[List[Done], Dict[str, float], List[str], Any]:
    """The same units untraced and traced, cycle by cycle."""
    import tracing
    tracer = tracing.Tracer(args.workload)
    cycles = max(1, round(args.seconds / (2 * NOMINAL_CYCLE_S[args.workload])))
    plain_s = traced_s = 0.0
    done: List[Done] = []
    mismatches: List[str] = []
    for _ in range(cycles):
        units = workload.cycle()
        start = perf_counter()
        plain = run_units(units)
        plain_s += perf_counter() - start
        with tracing.installed(tracer):
            start = perf_counter()
            traced = run_units(units, tracer)
            traced_s += perf_counter() - start
        for (unit, a, _, _), (_, b, _, _) in zip(plain, traced):
            if a != b:
                mismatches.append(f"{unit.kind}: tracing changed the output")
        done += traced
    return done, tracing.layer_metrics(tracer, traced_s, plain_s), mismatches, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        warm = run_units([workload.warmup()])
        if args.setup_probe:
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        info = manifest(args)
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)] if args.trace == 0 else []
        workload.build_references()

        mismatches: List[str] = []
        if args.trace == 0:
            cycles, elapsed = timed_phase(workload, args.seconds)
            done = [d for cycle in cycles for d in cycle]
            timings, notes = end_to_end(cycles, elapsed)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "throughput": (timings["throughput"], "units/s"),
                "unit_p50_ms": (timings["unit_p50_ms"], "ms"),
                "unit_tail_ms": (timings["unit_tail_ms"], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MiB"),
            }
            notes.update(setup_samples_s=setup, work_unit=workload.work_name)
        else:
            done, layers, mismatches, tracer = traced_phase(workload, args)
            spans = tracer.write(OUT / f"spans-{args.workload}.tsv.gz", info)
            metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
            notes = {"units": len(done), "spans": spans}

        failed = failures(workload, warm + done)
        problems = mismatches + [p for _, unit_problems in failed for p in unit_problems]
        attempted = len(warm) + len(done)
        correct = not problems
        notes["error_rate"] = len(failed) / attempted
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value!r} {unit}")
        for key, value in notes.items():
            if key != "latencies_s":
                print(f"{args.workload} {key}: {value}")
        print("manifest: " + json.dumps(info, sort_keys=True))
        for problem in problems[:20]:
            print(f"error: {problem}", file=sys.stderr)
        result = {"correct": correct, "attempted": attempted, "failed": len(failed),
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
            {**result, "notes": notes, "manifest": info, "problems": problems},
            indent=1, sort_keys=True))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith((".share", "_frac")) else "count"


if __name__ == "__main__":
    sys.exit(main())
