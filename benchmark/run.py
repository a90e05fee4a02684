"""Benchmark for seqseg: set-up, timed rounds, correctness checks, one JSON line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --spec      # rewrite BENCHMARK.json from the tables here

The program is imported from the ``src`` directory of the checkout that
holds this file. With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds, and prints
the per-layer metrics (per traced round) and the tracing overhead.
The last line of standard output is the JSON result.
"""

import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    import os

    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
RUN_SECONDS = 25
# Each bound is three times the largest quartile spread (over its median) of
# the metric in ten runs per workload, plus the largest gap between the
# medians of two such sets, rounded up to 0.05 and at most 0.25. setup_s,
# the noisiest, takes the largest bound. README.md has the runs.
BOUNDS = {"setup_s": 0.25, "peak_rss_mb": 0.05}
DEFAULT_BOUND = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.spec and args.workload is None:
        p.error("--workload is required")
    return args


def import_program() -> None:
    """Import seqseg from this checkout, with BLAS threads capped at nproc."""
    src = ROOT / "src"
    if not (src / "seqseg" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {src / 'seqseg'}; run inside a seqseg checkout")
    os.environ["NOISY_LSTM_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(src), str(BENCH)]
    import seqseg.cli  # applies the thread cap before numpy loads

    if Path(seqseg.cli.__file__).resolve().parent != (src / "seqseg").resolve():
        raise SystemExit(f"error: imported seqseg from {seqseg.cli.__file__}, not {src}")


def spec() -> dict:
    from tracing import COUNT_METRICS, GEN_RATE, OVERHEAD_METRICS, SPAN_METRICS, metric_unit
    from workloads import END_TO_END, WORKLOADS

    layer = list(SPAN_METRICS) + list(COUNT_METRICS) + list(OVERHEAD_METRICS) + [GEN_RATE]
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": unit, "better": better,
                        "bound": BOUNDS.get(n, DEFAULT_BOUND)}
                       for n, (unit, better) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": metric_unit(n),
                       "better": "higher" if n == GEN_RATE else "lower"} for n in layer],
    }


def measure(args) -> dict:
    import resource
    import statistics

    import checks
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    runner = workloads.Runner(args.workload, args.seed, RUNS / args.workload, tracer)
    runner.setup()
    setup_s = _AGE0 + time.perf_counter() - _T0
    if args.trace:
        # pairs of one untraced and one traced round, so that a drift in the
        # machine's speed during the run reaches both sides alike
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            with runner.noise_probe():
                plain += runner.run_rounds(0)
            first_traced = len(runner.noise_counts)
            # the probe inside the tracer, so that no span times the probe
            with tracer.installed(), runner.noise_probe():
                traced += runner.run_rounds(0)
            tracer.sums["replaced_frames"] += sum(runner.noise_counts[first_traced:])
    else:
        with runner.noise_probe():
            plain = traced = runner.run_rounds(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not (plain and traced):
        raise RuntimeError("no round completed")
    try:
        runner.final_checks()
    except checks.CheckFailed as exc:
        runner.errors.append(f"final: {exc}")
    runner.cleanup()

    rates = workloads.stage_rates(runner.w, plain)
    gen_rate = rates.pop("gen_clips_per_s")
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics[tracing.GEN_RATE] = gen_rate
        untraced, traced_s = (statistics.median(sum(t.values()) for t in ts)
                              for ts in (plain, traced))
        metrics.update(zip(tracing.OVERHEAD_METRICS, (untraced, traced_s, traced_s / untraced)))
        tracer.write_spans(RUNS / f"{args.workload}-seed{args.seed}.spans.jsonl")
        units = {n: tracing.metric_unit(n) for n in metrics}
    else:
        metrics = {"setup_s": setup_s, **rates, "peak_rss_mb": peak_rss_mb}
        units = {n: unit for n, (unit, _) in workloads.END_TO_END.items()}
    for msg in runner.errors:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    result = measure(args)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
