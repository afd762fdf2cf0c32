"""Benchmark for amalgam: four workloads, checked outputs, an optional trace.

One workload per process:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0

prints the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. With no --workload it runs every
workload, untraced and then traced, one process after another, and prints
a summary. See perfbench/README.md for the workloads and metrics.
"""

import os

# numpy reads these when it is first imported; one thread per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 9  # set-ups per untraced run: this process, then fresh ones
MIN_PASSES = 3  # timed passes
DEFAULT_SECONDS = 15  # run_seconds in BENCHMARK.json
CHILD_TIMEOUT_S = 600


def set_up(name: str, seed: int, workdir: Path):
    """Import amalgam from this checkout and build the workload's inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        amalgam = importlib.import_module("amalgam")
    except ImportError as exc:
        raise SystemExit(f"cannot import amalgam from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(amalgam.__file__).resolve().parents:
        raise SystemExit(f"amalgam was imported from {amalgam.__file__}, not this checkout")
    importlib.import_module("amalgam.cli")
    ops = workloads.WORKLOADS[name](amalgam, seed, ROOT, workdir)
    return amalgam, ops, time.perf_counter() - t0


def setup_sample(args) -> float:
    """Set-up time of a fresh process, interpreter start excluded."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_op(op, tracer=None):
    """Run and check one operation: (seconds, failed, correct)."""
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a crash is reported, not propagated
        result, error = None, exc
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if error is not None:
        print(f"{op.name}: raised {error!r}", file=sys.stderr)
        return seconds, 1, False
    try:
        return seconds, int(op.check(result)), True
    except Exception as exc:  # a wrong or malformed output
        print(f"{op.name}: {exc!r}", file=sys.stderr)
        return seconds, 1, False


def run_passes(ops, warm_up, seconds: float, tracer, between_ops=None):
    """A warm-up, then whole passes until the time is up.

    The warm-up runs the operations named in warm_up (all of them if None)
    once each. It is checked but neither timed nor counted, so every run
    attempts whole passes only: on quotients the first run of the
    operation with the biggest tables makes the process heap grow, and
    the pass holding it ran 15-25% slower than later ones. With a tracer,
    every second timed pass is traced. Before each operation, between_ops
    is called with the seconds gone since the start.
    """
    passes, attempted, failed, correct = [], 0, 0, True
    start = time.perf_counter()
    for op in ops:
        if warm_up is None or op.name in warm_up:
            correct = run_op(op)[2] and correct
    passes.append(("warm-up", [time.perf_counter() - start]))
    while len(passes) <= MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
        gc.collect()
        times = []
        for i, op in enumerate(ops):
            if between_ops is not None:
                between_ops(time.perf_counter() - start)
            if traced:
                tracer.op, tracer.active = i, True
            op_s, op_failed, op_correct = run_op(op, tracer if traced else None)
            times.append(op_s)
            attempted += 1
            failed += op_failed
            correct = correct and op_correct
        if traced:
            tracer.uninstall()
            tracer.end_pass()
        passes.append(("traced" if traced else "plain", times))
    return passes, attempted, failed, correct


def percentile_line(samples) -> str:
    """The median, and p90/p99 where at least ten samples lie beyond each."""
    samples = sorted(samples)
    parts = [f"n={len(samples)}", f"p50={statistics.median(samples) * 1000:.3f}ms"]
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            parts.append(f"p{q}={samples[int(len(samples) * q / 100)] * 1000:.3f}ms")
    return " ".join(parts)


def measure(args) -> int:
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    try:
        amalgam, ops, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer(amalgam) if args.trace else None
        setups = [setup_s]

        def sample_setups(elapsed):
            # fresh set-ups spread over the run: a slow spell of the shared
            # machine then moves a few samples, not the median
            due = SETUP_SAMPLES
            if elapsed is not None:
                due = min(due, 1 + int(SETUP_SAMPLES * elapsed / args.seconds))
            while len(setups) < due:
                setups.append(setup_sample(args))

        passes, attempted, failed, correct = run_passes(
            ops, workloads.WARM_UP.get(args.workload), args.seconds, tracer,
            sample_setups if tracer is None else None,
        )
        if tracer is None:
            sample_setups(None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [times for kind, times in passes if kind == "plain"]
    pass_s = statistics.median(sum(t) for t in plain)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        op_p50_ms = statistics.median(t for times in plain for t in times) * 1000
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
        print(f"{args.workload}: {len(plain)} passes, setups {setups}, ops "
              f"{percentile_line([t for times in plain for t in times])}", file=sys.stderr)
    else:
        traced = [times for kind, times in passes if kind == "traced"]
        metrics = tracer.metrics(
            statistics.median(sum(t) for t in traced), pass_s, sum(map(sum, traced))
        )
        tracer.write(RESULTS / f"trace-{stem}.jsonl")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    op_ms = {op.name: statistics.median(times[i] for times in plain) * 1000
             for i, op in enumerate(ops)}
    (RESULTS / f"result-{stem}.json").write_text(
        json.dumps({"result": result, "pass_s": [[kind, sum(t)] for kind, t in passes],
                    "op_median_ms": op_ms}, indent=1)
        + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one process each, in turn."""
    ok = True
    for name in workloads.WORKLOADS:
        line = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            line[trace] = json.loads(proc.stdout.splitlines()[-1])
        if 0 not in line:
            continue
        res = line[0]
        ok = ok and all(r["correct"] for r in line.values())
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}: {shown}")
        if 1 in line:
            layer = line[1]["metrics"]
            print(f"{name} traced: overhead {layer['trace.overhead']['value']:+.1%}, "
                  f"span coverage {layer['trace.span_coverage']['value']:.1%}")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.workload is None:
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
