"""streamsparse benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload hyper_balanced --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20

Run from the root of a checkout; the library is imported from its src/.
One workload runs per process, single-threaded: BLAS is pinned to one
thread before numpy loads. The body of the workload is repeated on the same
inputs until --seconds have passed; timings are medians over the repeats
and the outputs of every repeat must match the first one exactly. Output
checks run outside the timed regions. A human-readable report goes to
stdout, followed by one JSON line with the gated metrics; the full record
(environment, sample counts, digest) and, for traced runs, the raw spans
are written to .perfbench/ in the checkout. See perfbench/README.md.
"""

import os

# must precede the first numpy import anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# workloads and metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# the per-layer metrics that count things; they must repeat exactly
LAYER_COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]

IMPORT_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, streamsparse; "
                "print(time.perf_counter() - t)")
TAIL_SAMPLES = 10     # a tail percentile needs this many samples beyond it


class BenchError(Exception):
    """The benchmark cannot run here (no library, or a broken one)."""


# -- environment -------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the BLAS loaded into this process, when it is an
    OpenBLAS or MKL that reports it; None otherwise."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if ".so" in line and ("blas" in line.lower()
                                                 or "mkl" in line.lower())})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = blas_threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads,
            "blas_threads_flag": threads != 1,
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count()}


# -- set-up -------------------------------------------------------------------


def import_library():
    if not (SRC / "streamsparse" / "__init__.py").is_file():
        raise BenchError(f"no streamsparse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamsparse
    if SRC not in Path(streamsparse.__file__).resolve().parents:
        raise BenchError(f"imported streamsparse from {streamsparse.__file__}")
    return streamsparse


def import_seconds() -> list[float]:
    """Time `import numpy, streamsparse` in fresh interpreters, which is the
    part of set-up that one process can only pay once."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -- statistics -----------------------------------------------------------------


def percentile(samples: list[float], q: float, tail: bool) -> float | None:
    """The q-quantile (nearest rank); None for a tail percentile with fewer
    than TAIL_SAMPLES samples beyond it."""
    if not samples:
        return None
    if tail and len(samples) * (1.0 - q) < TAIL_SAMPLES:
        return None
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the run --------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    ss = import_library()
    imports = import_seconds()
    import numpy as np
    import workloads
    from layers import Profile, install_observers, layer_metrics
    from tracer import Tracer

    wl = workloads.WORKLOADS[name](tiny=tiny)
    prepare_s, walls, traced_walls, layer_runs = [], [], [], []
    pushes, queries, client_s = [], [], []
    first = check = spans = None
    attempted = failed = 0
    notes: list[str] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(traced_walls) < len(walls)
        t0 = time.perf_counter()
        ctx = wl.prepare(seed)
        t1 = time.perf_counter()
        rec = workloads.Recorder()
        gc.collect()    # every repeat starts from the same heap
        if traced:
            tracer = Tracer(ss)
            counters = install_observers(tracer)
            with tracer:
                t2 = time.perf_counter()
                out = wl.run(ctx, rec)
                t3 = time.perf_counter()
            final_s = getattr(wl, "final_trials_s", lambda _: 0.0)(out)
            layer_runs.append(layer_metrics(Profile(tracer.profile()),
                                            counters, final_s))
            traced_walls.append(t3 - t2)
            if spans is None:
                spans = tracer
        else:
            t2 = time.perf_counter()
            out = wl.run(ctx, rec)
            t3 = time.perf_counter()
            walls.append(t3 - t2)
            prepare_s.append(t1 - t0)
            pushes += rec.push
            queries += rec.query
            client_s.append(rec.client_s)
        summary = wl.summary(out)
        if first is None:
            first = summary
            check = wl.check(ctx, out)
            attempted += check.attempted
            failed += check.failed
            notes += check.notes
        else:
            # every repeat runs the same inputs and must give the same
            # outputs and, when traced, the same per-layer counts
            attempted += 1
            if summary != first or (traced and any(
                    layer_runs[-1][k] != layer_runs[0][k]
                    for k in LAYER_COUNTS)):
                failed += 1
                notes.append(f"repeat {len(walls) + len(traced_walls)} "
                             f"{'(traced) ' if traced else ''}differs")
        done = time.perf_counter() - start >= seconds
        if done and (not trace or traced_walls):
            break
        del ctx, out

    env = environment(np)
    wall = statistics.median(walls)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
        "reps": len(walls), "traced_reps": len(traced_walls),
        "walls": walls, "traced_walls": traced_walls,
        "environment": env, "digest": digest(first), "summary": first,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "notes": notes,
    }
    if trace:
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall
        record["layer_digest"] = digest(
            {k: layer_runs[0][k] for k in LAYER_COUNTS})
        record["traced_wall_s"] = statistics.median(traced_walls)
        OUT.mkdir(exist_ok=True)
        spans.save(OUT / f"{name}-spans.npz")
    else:
        push_total = sum(pushes)
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(prepare_s),
            "wall_s": wall,
            "kept_frac": check.kept_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        record["import_s"] = imports
        record["report"] = {
            "items_per_s": len(pushes) / push_total if push_total else None,
            "push_p50_us": _us(percentile(pushes, 0.50, tail=False)),
            "push_p99_us": _us(percentile(pushes, 0.99, tail=True)),
            "query_p50_us": _us(percentile(queries, 0.50, tail=False)),
            "query_p95_us": _us(percentile(queries, 0.95, tail=True)),
            "error": check.error,
            "failed_frac": failed / attempted,
            "pushes": len(pushes), "queries": len(queries),
            "client_s": statistics.median(client_s),
        }
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    record["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    record["units"] = {m["name"]: m["unit"] for m in declared}
    return record


def _us(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e6


# -- output -----------------------------------------------------------------------


REPORT_UNITS = {"items_per_s": "items/s", "push_p50_us": "us",
                "push_p99_us": "us", "query_p50_us": "us",
                "query_p95_us": "us", "error": "ratio",
                "failed_frac": "ratio", "pushes": "count",
                "queries": "count", "client_s": "s"}


def report(record: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} reps={record['reps']} "
        f"traced_reps={record['traced_reps']} digest={record['digest']}",
        f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']}"
        f" blas_threads={env['blas_threads']}, nproc={env['nproc']}",
    ]
    if env["blas_threads_flag"]:
        lines.append("  WARNING: BLAS is not running on exactly one thread")
    for key, value in record["metrics"].items():
        lines.append(f"  {key:34s} {value:14.6g} {record['units'][key]}")
    extra = record.get("report", {})
    if extra:
        lines.append(f"  (timings are medians over {record['reps']} repeats; "
                     f"latencies pool {extra['pushes']} writes and "
                     f"{extra['queries']} reads; a tail percentile needs "
                     f"{TAIL_SAMPLES} samples beyond it)")
    for key, value in extra.items():
        shown = "n/a" if value is None else f"{value:14.6g}"
        lines.append(f"  {key:34s} {shown:>14s} {REPORT_UNITS.get(key, '')}")
    lines.append(f"  checks: {record['failed']} failed of {record['attempted']}")
    lines += [f"  note: {note}" for note in record["notes"][:20]]
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": record["units"][k]}
                    for k, v in record["metrics"].items()}})


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            print(f"perfbench {name}: FAILED (exit {proc.returncode})\n"
                  f"{proc.stderr}", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (for the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    try:
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(report(record)))
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
