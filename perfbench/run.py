#!/usr/bin/env python3
"""floquetlab benchmark: one workload per fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload thin-dirac --seed 11 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 45 --trace 0

The workload seed draws every input.  Units of work run until
``--seconds`` would be exceeded by one more unit; the output oracle then
re-checks every unit.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
lines above it give the same numbers with their units and sample counts,
plus the environment record.  Traces, CLI artifacts and the environment
record are written under perfbench/out/.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in child processes.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import oracle                                        # noqa: E402
import tracer                                        # noqa: E402
import workloads                                     # noqa: E402

SETUP_PROBES = 5
EXIT_NO_PROGRAM = 2


class NoProgram(Exception):
    pass


def load_library():
    """Import floquetlab from this checkout's src/, never from elsewhere."""
    init = SRC / "floquetlab" / "__init__.py"
    if not init.is_file():
        raise NoProgram(f"{init} not found: run from a floquetlab checkout")
    sys.path.insert(0, str(SRC))
    fl = importlib.import_module("floquetlab")
    if Path(fl.__file__).resolve() != init.resolve():
        raise NoProgram(f"imported floquetlab from {fl.__file__}, not {init}")
    return fl


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """What a run does before its first unit: import and draw inputs."""
    load_library()
    next(workloads.units(workload, seed))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from process start to workload ready, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes seen by cpu0, by level, from /sys
    (L1 and L2 are per core; L3 is usually shared)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * mult
    return sizes


def largest_grid_bytes(reports: list) -> int:
    """Computed M-array bytes of the largest grouped call: the scan grid
    of the largest assembled operator."""
    best = 0
    cfg = workloads.THIN_CONFIG
    for doc in reports:
        period = doc["N"] * sum(l for l, _, _ in cfg["potential"])
        sup = max(abs(complex(re, im)) for rows in doc["cover"]
                  for _, re, im in rows)
        points = tracer._dirac_grid(period, sup, cfg["window"], 1.0)
        best = max(best, points * tracer.M_BYTES_PER_POINT)
    return best


def environment(m_bytes: int) -> dict:
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu0_cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_PIN,
        "m_array_bytes_largest_grouped_call": m_bytes,
        "m_array_over_l2": m_bytes / caches["L2"] if caches.get("L2") else None,
    }


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

def run_one(fl, workload, unit, out_dir):
    """Run a unit; an unexpected exception fails all of its operations."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        return workloads.run_unit(fl, workload, unit, out_dir)
    except Exception as exc:                          # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        ops = workloads.ops_per_unit(workload)
        return workloads.UnitResult(
            ops=ops, errors={op: f"{type(exc).__name__}: {exc}"
                             for op in range(ops)})


def timed(fn):
    t0, c0 = time.perf_counter(), time.process_time()
    value = fn()
    return value, time.perf_counter() - t0, time.process_time() - c0


def measure(fl, workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path) -> dict:
    covers = tracer.Tracer(fl, tracer.COVER_ONLY)
    full = tracer.Tracer(fl) if trace else None
    rows = []      # per unit: dict of wall, cpu, cover calls, result, ...
    t0 = time.perf_counter()
    for unit in workloads.units(workload, seed):
        elapsed = time.perf_counter() - t0
        if rows and elapsed + median([r["span"] for r in rows]) > seconds:
            break
        start = time.perf_counter()
        mark = covers.mark()
        with covers:
            result, wall, cpu = timed(lambda: run_one(
                fl, workload, unit, run_dir / f"u{unit.index}"))
        row = {"unit": unit, "result": result, "wall": wall, "cpu": cpu,
               "covers": covers.cover_calls(mark)}
        if full is not None:
            # the same inputs again, traced; its outputs go to the oracle
            mark = full.mark()
            with full:
                result, traced_wall, _ = timed(lambda: run_one(
                    fl, workload, unit, run_dir / f"u{unit.index}"))
            row["result"] = result
            row["traced_wall"] = traced_wall
            row["covers"] = full.cover_calls(mark)
        out_dir = run_dir / f"u{unit.index}"
        row["bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        row["span"] = time.perf_counter() - start
        rows.append(row)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rows": rows, "full": full, "t0": t0, "peak_rss_mb": peak_rss_mb}


def check_outputs(fl, workload: str, seed: int,
                  rows) -> tuple[int, int, list[str], list[str]]:
    """Oracle over every unit: (attempted, failed, messages, known), where
    known lists the bands that show the band scan's known sub-grid defect
    (see oracle.py); they are reported, not counted as failures."""
    rng = np.random.default_rng([seed, 1])
    attempted = failed = 0
    messages, known = [], []
    for row in rows:
        result = row["result"]
        bad_ops = dict(result.errors)
        if workload == "search":
            for op, kind, base, members in result.covers:
                bad = oracle.check_cover(fl, kind, base, members,
                                         workloads.SEARCH_EPS, rng,
                                         workloads.SEARCH_WINDOW)
                if bad:
                    bad_ops[op] = "; ".join(bad)
        elif not bad_ops:
            found = []
            bad = oracle.check_thin(fl, workloads.THIN_CONFIG,
                                    result.reports, rng, found)
            if bad:
                bad_ops[0] = "; ".join(bad)
            known += [f"unit {row['unit'].index}: {msg}" for msg in found]
        attempted += result.ops
        failed += len(bad_ops)
        messages += [f"unit {row['unit'].index} op {op}: {msg}"
                     for op, msg in sorted(bad_ops.items())]
    return attempted, failed, messages, known


def end_to_end(run: dict, setup_times: list[float]) -> dict:
    rows = run["rows"]
    return {
        "wall_s": median([r["wall"] for r in rows]),
        "cpu_s": median([r["cpu"] for r in rows]),
        "setup_s": median(setup_times),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def cover_numbers(rows) -> list[tuple[str, float, str, int]]:
    """Cover timings, timed around each cover call: (name, value, unit,
    samples).  Printed, not gated: on the thin workloads the cover is a
    small, seed-dependent share of a unit."""
    covers = [c for r in rows for c in r["covers"]]
    out = []
    for label, fn in (("cover_dirac_s", "resolvent_cover"),
                      ("cover_cmv_s", "cmv_resolvent_cover")):
        ts = [t for f, t, _ in covers if f == fn]
        if ts:
            out.append((label, median(ts), "s", len(ts)))
    seconds = sum(t for _, t, _ in covers)
    if seconds:
        out.append(("members_per_s", sum(m for _, _, m in covers) / seconds,
                    "1/s", len(covers)))
    return out


def per_layer(run: dict) -> dict:
    rows, full = run["rows"], run["full"]
    traced = [r["traced_wall"] for r in rows]
    out = full.layer_metrics(len(rows), sum(traced))
    out["construct.thin.report_bytes"] = median([r["bytes"] for r in rows])
    named = {label: value for label, value, _, _ in cover_numbers(rows)}
    out["construct.cover.dirac_s"] = named.get("cover_dirac_s", 0.0)
    out["construct.cover.cmv_s"] = named.get("cover_cmv_s", 0.0)
    out["construct.cover.members_per_s"] = named.get("members_per_s", 0.0)
    out["trace.wall_s"] = median(traced)
    out["trace.overhead_s"] = median(
        [r["traced_wall"] - r["wall"] for r in rows])
    return out


UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last.endswith("frac") or last in ("share", "attempts_per_member",
                                         "evals_per_band"):
        return "ratio"
    if "bytes" in last:
        return "B"
    return "count"


def run_workload(args) -> int:
    fl = load_library()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_times = measure_setup(args.workload, args.seed)
    run = measure(fl, args.workload, args.seed, args.seconds, bool(args.trace),
                  run_dir)
    rows = run["rows"]
    attempted, failed, messages, known = check_outputs(
        fl, args.workload, args.seed, rows)
    for msg in messages:
        print(f"MISMATCH {msg}", file=sys.stderr)
    for msg in known:
        print(f"KNOWN DEFECT {msg}", file=sys.stderr)

    reports = [doc for r in rows for doc in r["result"].reports]
    env = environment(largest_grid_bytes(reports))
    (run_dir / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    if run["full"] is not None:
        run["full"].write_jsonl(run_dir / "trace.jsonl", run["t0"])

    n = len(rows)
    print(f"workload {args.workload}  seed {args.seed}  units {n}  "
          f"trace {args.trace}")
    print(f"fail_frac {failed / attempted if attempted else 0.0!r} "
          f"({failed} failed of {attempted} attempted)")
    print(f"known defect: {len(known)} reported bands span a gap narrower "
          f"than the scan spacing (listed on stderr; not failures)")
    if args.trace:
        metrics = per_layer(run)
        metrics["oracle.subgrid_gaps"] = len(known)
        units = {k: layer_unit(k) for k in metrics}
        print(f"per layer: per unit over {n} traced units; trace in "
              f"{run_dir.relative_to(ROOT) / 'trace.jsonl'}")
    else:
        metrics = end_to_end(run, setup_times)
        units = UNITS
        print(f"timings are medians: wall_s and cpu_s of {n} units, "
              f"setup_s of {len(setup_times)} fresh processes")
        print("  unit wall times: " + " ".join(f"{r['wall']:.3f}" for r in rows))
        for label, value, unit, samples in cover_numbers(rows):
            print(f"  {label:<40} {value:>14.6g} {unit}  (not gated; "
                  f"{samples} covers)")
        sizes = [r["result"].cover_size for r in rows if r["result"].cover_size]
        if sizes:
            print(f"  cover members found per unit: {sizes} (padded to "
                  f"{workloads.THIN_CONFIG['cover_members']})")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        merged["correct"] &= doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for key, value in doc["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM


if __name__ == "__main__":
    sys.exit(main())
