"""Benchmark of ntcfk: protocol sessions in process and over TCP, the
LWE->DCP/EDCP pipelines, and the noisy oracle cross-check.

    python3 perfbench/run.py --workload desk-inproc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --selfcheck --seconds 3   # exact counts repeat per seed

Run it from the root of a checkout; it imports `ntcfk` from `src/`.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
wraps the calls into each module and reports per-layer metrics. The
last line of stdout is one JSON object. It exits 1 when an output check
fails and 2 when it cannot run. See perfbench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread: the matrices are tiny, and the TCP workload already
# runs two Python threads on a two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 7
# A traced run alternates this many untraced and traced blocks on the
# same inputs, so host drift cancels out of the tracing overhead.
TRACE_BLOCKS = 4

# Printed and stored with every untraced run, but not in BENCHMARK.json:
# host speed drift moves them by more than the largest bound the
# benchmark may set (see README.md).
UNGATED_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def ref_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a yardstick for host speed."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads_cap": BLAS_THREADS,
        "platform": platform.platform(),
    }


def _clear_ntcfk_caches() -> None:
    """Empty every lru_cache of ntcfk, so each set-up fills them again."""
    for name, module in list(sys.modules.items()):
        if name == "ntcfk" or name.startswith("ntcfk."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _import_probe_s() -> float:
    """Start a fresh interpreter that imports what the benchmark imports."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import tracing, workloads"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(HERE), str(SRC)], check=True)
    return time.perf_counter() - start


def measure_setup(workload) -> list[float]:
    """Set up SETUP_REPS times: process start and imports (in a fresh
    interpreter), then empty caches and the warm-up run in this one.
    Warm-up seeds are fixed, so every run sets up the same work."""
    reps = []
    for rep in range(SETUP_REPS):
        imports = _import_probe_s()
        start = time.perf_counter()
        _clear_ntcfk_caches()
        workload.warm_up(1000 * (rep + 1))
        reps.append(imports + time.perf_counter() - start)
    return reps


def traced_run(workload, seed: int, seconds: float, tracer):
    """Untraced and traced blocks in turn, each pair on the same seed.

    Returns the tracer and the merged untraced and traced phases. Block 0
    runs on `seed` itself, so the count window and the transcripts match
    an untraced run of that seed.
    """
    from workloads import Phase

    block_s = seconds / (2 * TRACE_BLOCKS)
    untraced, traced = [], []
    for k in range(TRACE_BLOCKS):
        block_seed = seed + 1000 * k
        untraced.append(workload.run(block_seed, block_s, 1))
        tracer.op_base = sum(p.attempted for p in traced)
        with tracer.install():
            tracer.active = workload.protocol  # the other workloads switch it per op
            traced.append(workload.run(block_seed, block_s, workload.window, tracer))
            tracer.active = False
    return tracer, Phase.merge(untraced), Phase.merge(traced)


def op_metrics(phase) -> dict:
    ms = sorted(ns / 1e6 for ns in phase.op_ns)
    completed = phase.attempted - phase.failed
    return {
        "ops_per_s": completed / (sum(ms) / 1e3) if ms else 0.0,
        "op_ms_p50": statistics.median(ms) if ms else 0.0,
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8]
        if len(ms) > 1 else (ms[0] if ms else 0.0),
    }


def run_workload(args) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    machine = machine_record()
    machine["ref_loop_ms_before"] = ref_loop_ms()
    setup_reps = measure_setup(workload)

    tracer = None
    if args.trace:
        tracer, base, phase = traced_run(workload, args.seed, args.seconds, tracing.Tracer())
    else:
        phase = workload.run(args.seed, args.seconds, 1)
    for reason in workload.check(args.seed, phase):
        phase.fail(reason)
    attempted, failed, errors = phase.attempted, phase.failed, phase.errors
    if tracer is not None:  # the untraced blocks' ops were checked too
        attempted += base.attempted
        failed += base.failed
        errors = base.errors + errors

    machine["ref_loop_ms_after"] = ref_loop_ms()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timing = op_metrics(phase)
    if tracer is None:
        values = dict(timing, setup_s=statistics.median(setup_reps), peak_rss_mib=peak_rss_mib)
        shares = None
    else:
        useful = None
        if workload.protocol and len(phase.transcripts) >= workload.window:
            useful = sum(t.verdict != "retry" for t in phase.transcripts[: workload.window])
        values, shares = tracing.layer_metrics(
            tracer, phase.attempted, sum(phase.op_ns), threading.main_thread().ident,
            workload.window, useful,
        )
        untraced_p50 = op_metrics(base)["op_ms_p50"]
        values["trace.overhead_pct"] = 100.0 * (timing["op_ms_p50"] / untraced_p50 - 1.0)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    shown = dict(metrics)
    if tracer is None:
        shown.update({name: {"value": values[name], "unit": unit}
                      for name, unit in UNGATED_UNITS.items()})

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "setup_reps_s": setup_reps,
        "samples": len(phase.op_ns), "fail_ratio": failed / max(attempted, 1),
        "errors": errors, "layer_shares": shares, "metrics": shown,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_tsv(OUT / f"spans-{args.workload}.tsv")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(phase.op_ns)}")
    print("machine " + json.dumps(machine))
    for name, m in shown.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} (n={len(phase.op_ns)})")
    print(f"  {'fail_ratio':42s} {record['fail_ratio']:14.6g} {'ratio':6s} "
          f"(n={attempted})")
    if shares is not None:
        print("self-time share: " + "  ".join(
            f"{g} {s:.1%}" for g, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    for reason in errors:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, str, dict | None]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def run_all(args) -> int:
    """Every workload in its own process, then one combined line."""
    import workloads

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        code, text, result = _child(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(text)
        if code != 0 or result is None:
            status = 1
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return status


def run_selfcheck(args) -> int:
    """Two traced runs per workload with one seed: exact counts must match."""
    import tracing
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        runs = [_child(name, args.seed, args.seconds, 1) for _ in range(2)]
        if any(code != 0 or result is None for code, _text, result in runs):
            print(f"{name}: a traced run failed")
            status = 1
            continue
        for metric in tracing.EXACT_COUNTS:
            a, b = (result["metrics"][metric]["value"] for _c, _t, result in runs)
            same = a == b
            status |= not same
            print(f"{name:13s} {metric:38s} {a!r:>12} {b!r:>12} {'same' if same else 'DIFFERENT'}")
    print(json.dumps({"selfcheck": "pass" if status == 0 else "fail"}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="desk-inproc, desk-tcp, reduce-desk, oracle-noisy or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="check that exact per-op counts repeat for one seed")
    args = ap.parse_args(argv)

    if not (SRC / "ntcfk" / "__init__.py").is_file():
        print(f"perfbench: no ntcfk sources under {SRC}", file=sys.stderr)
        return 2
    # The benchmark modules import ntcfk, so they load only after this.
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return run_selfcheck(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
