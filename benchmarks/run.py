"""Benchmark of masspcg: time to solution on three workloads, with every output
checked, and per-layer timings from a separate traced run.

    python3 benchmarks/run.py --workload pcg3d --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --self-test

A run sets masspcg up in batches of ``SETUP_BATCH`` (a fresh import plus the
workload's inputs each time), warms up with a checked pass or, on the CG
workloads, with checked reference solves, then repeats passes of the workload
until the next pass would end past ``--seconds``. Each pass's outputs are
deleted before it and checked after it, outside the timed region.
``setup_s`` is the median of all set-ups. With ``--trace 1`` half the time
goes to untraced passes and half to passes with every public masspcg function
wrapped (see tracer.py); the per-layer metrics are means per traced pass.

Standard output is a readable summary, one JSON line with the environment
and the timing samples, and last the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. ``attempted`` and
``failed`` count output checks. The exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One thread per process: the workloads are defined single-threaded, and a
# BLAS thread pool adds run-to-run noise. This must precede the numpy import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402  (imports numpy)
import selftest  # noqa: E402
from tracer import OPERATORS, Stat, Tracer  # noqa: E402
from workloads import WORKLOADS, Check, exit_code, failed_count, fresh_import  # noqa: E402

#: Set-ups per batch. A run sets up in three batches: before the warm-up,
#: after it, and after the untraced passes.
SETUP_BATCH = 50

#: Functions whose calls and self time are reported as per-layer metrics.
LAYER_FUNCTIONS = (
    "operators.apply_laplacian",
    "operators.apply_mass",
    "solver.cg_solve",
    "grid.dot",
    "grid.norm2",
    "grid.check_vector",
    "spectrum.ratio_report",
    "spectrum.spectrum_report",
    "spectrum.full_spectrum",
    "experiments.make_rhs",
    "experiments.run_solve",
    "experiments.spectrum_cells",
    "experiments.render_table",
    "experiments.write_text",
    "cli.main",
)


def timed_passes(workload, inp, budget_s: float, consume) -> list[float]:
    """Run passes until the next one would end past ``budget_s``; at least one.

    Before each pass, outside its time, the pass's output files are deleted
    and garbage is collected. ``consume`` receives each pass's outputs after
    its time is taken.
    """
    times = []
    start = time.perf_counter()
    while True:
        workload.clear(inp)
        gc.collect()
        t0 = time.perf_counter()
        out = workload.run_pass(inp)
        times.append(time.perf_counter() - t0)
        consume(out)
        if time.perf_counter() - start + statistics.median(times) > budget_s:
            return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_wall: float, copy_gbps: float) -> dict:
    passes = len(traced_walls)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        stat = tracer.stats.get(name, Stat())
        metrics[f"{name}.calls"] = _metric(stat.calls / passes, "count")
        metrics[f"{name}.self_s"] = _metric(stat.self_s / passes, "s")
    for name in OPERATORS:
        stat = tracer.stats.get(name, Stat())
        gbps = tracer.operator_bytes[name] / stat.total_s / 1e9 if stat.total_s else 0.0
        metrics[f"{name}.ms_per_call"] = _metric(stat.total_s / stat.calls * 1e3 if stat.calls else 0.0, "ms")
        metrics[f"{name}.gbps"] = _metric(gbps, "GB/s")
        metrics[f"{name}.roofline_frac"] = _metric(gbps / copy_gbps, "fraction")
    (plain_s, plain_it), (mass_s, mass_it) = tracer.cg["none"], tracer.cg["mass"]
    metrics["solver.ms_per_iter.plain"] = _metric(plain_s / plain_it * 1e3 if plain_it else 0.0, "ms")
    metrics["solver.ms_per_iter.mass"] = _metric(mass_s / mass_it * 1e3 if mass_it else 0.0, "ms")
    drift_checks = tracer.laplacian_calls_in_cg - plain_it - mass_it
    metrics["solver.drift_checks"] = _metric(drift_checks / passes, "count")
    metrics["solver.residual_replacements"] = _metric((drift_checks - tracer.cg_converged) / passes, "count")
    metrics["solver.wallclock_speedup_mass"] = _metric(plain_s / mass_s if mass_s else 0.0, "ratio")
    metrics["experiments.write_text.bytes"] = _metric(tracer.written_bytes / passes, "B")
    metrics["machine.copy_gbps"] = _metric(copy_gbps, "GB/s")
    traced_wall = sum(traced_walls) / passes
    self_sum = sum(stat.self_s for stat in tracer.stats.values()) / passes
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.self_sum_s"] = _metric(self_sum, "s")
    metrics["trace.remainder_s"] = _metric(traced_wall - self_sum, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    return metrics


def distribution(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    summary = {"n": len(ordered), "median": statistics.median(ordered)}
    rank = len(ordered) - 10
    if rank >= 1:
        summary["tail"] = {"percentile": 100 * rank / len(ordered), "value": ordered[rank - 1]}
    return summary


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Measure one workload; return (metrics, checks, samples, tracer or None)."""
    setup_times = []

    def set_up(repeats: int):
        # Each set-up drops the previous one's modules and inputs; the last
        # batch's are not used.
        for _ in range(repeats):
            t0 = time.perf_counter()
            m = fresh_import()
            inp = workload.setup(m, seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        return m, inp

    # The traced run reports no setup_s, so it sets up once.
    batch = 1 if trace else SETUP_BATCH
    m, inp = set_up(batch)
    checks = workload.warm_up(inp)
    # Two more batches, between the warm-up and the passes and after the
    # passes, spread the set-up samples over the run, so a few slow seconds
    # of a shared machine move their median less.
    set_up(batch)

    iterations = []

    def check(out):
        count, found = workload.summarize(inp, out)
        iterations.append(count)
        checks.extend(found)

    tracer = None
    if trace:
        copy_gbps = machine.copy_gbps(workload.vector_size)
        walls = timed_passes(workload, inp, seconds / 2, check)
        tracer = Tracer()
        with tracer.installed(m):
            traced_walls = timed_passes(workload, inp, seconds / 2, check)
        metrics = layer_metrics(tracer, traced_walls, statistics.fmean(walls), copy_gbps)
        samples = {"wall_s": walls, "trace.wall_s": traced_walls}
    else:
        walls = timed_passes(workload, inp, seconds, check)
        set_up(SETUP_BATCH)
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "cg_iterations": _metric(statistics.median(iterations), "count"),
            # ru_maxrss is KiB on Linux; one process runs one workload
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {"wall_s": walls, "setup_s": setup_times}
    checks.append(Check("same CG iteration count in every pass", len(set(iterations)) == 1,
                        str(sorted(set(iterations)))))
    return metrics, checks, samples, tracer


def report(workload, seed, metrics, checks, samples, tracer) -> list[str]:
    failed = failed_count(checks)
    lines = [f"{workload.name} seed={seed}: {len(samples['wall_s'])} untraced pass(es); "
             f"{len(checks) - failed} of {len(checks)} checks passed"]
    lines += [f"  FAILED {c.name}: {c.detail}" for c in checks if not c.ok]
    for name, metric in metrics.items():
        lines.append(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    lines.append(f"  {'failed_frac':42s} {failed / len(checks):>16.6g} fraction ({failed} of {len(checks)} checks)")
    for name, values in samples.items():
        d = distribution(values)
        tail = (f"p{d['tail']['percentile']:.1f} {d['tail']['value']:.6g}" if "tail" in d
                else "no percentile with 10 samples beyond it")
        lines.append(f"  {name} samples: n={d['n']} median {d['median']:.6g} s, {tail}")
    if tracer is not None:
        lines.append("  self time per traced pass, every wrapped function:")
        passes = len(samples["trace.wall_s"])
        for name, stat in sorted(tracer.stats.items(), key=lambda item: -item[1].self_s):
            lines.append(f"    {name:40s} {stat.calls / passes:>10.6g} calls {stat.self_s / passes:>12.6g} s")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checks catch injected faults, then exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if args.self_test:
            return selftest.main(workdir)
        workload = WORKLOADS[args.workload]
        metrics, checks, samples, tracer = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(report(workload, args.seed, metrics, checks, samples, tracer)))
    print(json.dumps({
        "environment": machine.environment(ROOT, workload, args.seed),
        "samples": samples,
        "distributions": {name: distribution(values) for name, values in samples.items()},
    }))
    failed = failed_count(checks)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return exit_code(checks)


if __name__ == "__main__":
    sys.exit(main())
