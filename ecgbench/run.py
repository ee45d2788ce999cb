"""Benchmark of ecgssl, run from the root of a source checkout:

    python3 ecgbench/run.py --workload ssl-train --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload, at least one, and starts another only
while one more round as long as the last would end within --seconds; checks
every output, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The run and its CLI children stay on one CPU, so that the speed probe of
# workloads.Timed measures the core the timed work runs on; BLAS gets one
# thread to match. A change that speeds the program up by using a second
# core (threaded BLAS, parallel resampling) does not show here.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def metric_units(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ecgssl.cli  # noqa: F401
    except ImportError as e:
        print(f"cannot import ecgssl from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import checks
    import layers
    import workloads as wl
    from spans import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = wl.WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    rec = wl.Recorder()
    try:
        runner = wl.CliRunner(ROOT, out, args.seed, tracer)
        setup_times, cohorts = wl.setup(spec, args.seed, runner, SETUP_REPEATS)
        for t in setup_times:
            rec.add("setup_s", t)
        cli_cohorts = wl.CliCohorts(spec, out / "data", args.seed)
        leads, split, shift_windows = wl.inproc_inputs(spec, args.seed, cohorts, cli_cohorts)
        configs = wl.cli_configs(spec, out / "data", out / "runs")

        round_s = []
        if tracer:
            layers.install(tracer)
        try:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                enc_cfg, trained, model, log = wl.stage_train(spec, args.seed, split, leads, rec, tracer)
                dirs = wl.stage_cli(runner, configs, rec)
                shift_params = wl.shift_encoder(spec, trained, enc_cfg, args.seed)
                embeddings, reports = wl.stage_shift(
                    shift_windows, shift_params, enc_cfg, spec["shift_repeats"], rec, tracer
                )
                round_s.append(time.perf_counter() - t0)
                checks.check_train(enc_cfg, trained, model, log, split, rec)
                checks.check_cli(cli_cohorts, dirs, rec)
                checks.check_shift(shift_windows, shift_params, enc_cfg, embeddings, reports, rec)
                if time.perf_counter() - start + round_s[-1] > args.seconds:
                    break
        finally:
            if tracer:
                tracer.restore()

        # read before the oracle checks, whose large KDE is not the workload's
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        checks.oracle_checks(args.seed, rec)
        if tracer:
            values = layers.from_spans(tracer)
            values.update(layers.measure(ROOT, out))
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json")
            result = {k: {"value": values[k], "unit": unit} for k, unit in metric_units("per_layer").items()}
        else:
            rec.add("peak_rss_mb", peak_kb / 1024.0)
            result = {
                k: {"value": statistics.median(rec.samples[k]), "unit": unit}
                for k, unit in metric_units("end_to_end").items()
            }
            print(f"samples: {json.dumps(rec.samples)}", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} cpu={cpu} nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
          f"rounds={len(round_s)} round_s={[round(s, 3) for s in round_s]}")
    for what, reason in rec.failures:
        print(f"failed: {what}: {reason}")
    for problem in rec.problems:
        print(f"wrong: {problem}")
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
