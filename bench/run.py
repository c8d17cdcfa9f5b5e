"""Benchmark of xbardse: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload dse_grid --seed 1 --seconds 10 --trace 0

It imports xbardse from the checkout's src/ and writes only under
.bench_work/ in the checkout, which it removes again. Workloads are defined
in workloads.py. A run generates the workload from the seed in a child
process, times set-up in fresh interpreters, runs one untimed warm-up pass,
repeats the workload's pass for --seconds, checks every output and prints
the metrics, one per line, then the JSON result as the last line of
standard output.

--trace 0 reports the end-to-end metrics (host time; RD, RWO and tiles are
simulated counts, checked but not timed):
  setup_s       median over fresh interpreters of `import xbardse` plus
                loading the workload's network and dataset files
  points_per_s  design points completed per second of wall time spent on
                all attempted points, median over passes
  peak_rss_mb   peak resident memory of this process over its passes
  ok_frac       design points completed / attempted; a point fails on
                dse.EvaluationError or when `xbardse dse` exits non-zero
--trace 1 spends half of --seconds on untraced passes and half on traced
passes, and reports the per-layer metrics of layer_metrics.py (median over
traced passes) with the traced/untraced wall-time overhead.

Exit codes: 0 result printed, 1 an output check failed (no result is
printed), 2 the xbardse sources or the benchmark definition are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7        # timed fresh interpreters, after one untimed warm-up
CHILD_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("points_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(section: str) -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[section]]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def setup_seconds(network: Path, dataset: Path) -> float:
    times = []
    for i in range(1 + SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(network),
             str(dataset)], capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if i:
            times.append(json.loads(proc.stdout))
    return statistics.median(times)


def run_passes(runner, seconds: float, first_index: int, wrap=None) -> list:
    """Repeat the workload's pass for `seconds`, at least once.
    `wrap(run_pass, index)` lets the caller trace each pass."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        index = first_index + len(passes)
        passes.append(wrap(runner.run_pass, index) if wrap else runner.run_pass(index))
    return passes


def measure(args, workdir: Path) -> int:
    import layer_metrics
    import tracing
    import workloads
    from xbardse import cli, dse, mapping, qnet, xbar

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    units = dict(layer_metrics.PER_LAYER if args.trace else END_TO_END)
    if declared_metrics("per_layer" if args.trace else "end_to_end") != list(units.items()):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), "--workload", spec.name,
                    "--seed", str(args.seed), "--out", str(workdir)],
                   check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=child_env())
    runner = workloads.Runner(spec.name, args.seed, workdir)
    setup_s = setup_seconds(runner.network, runner.dataset)

    # The warm-up pass fills allocator arenas and lazy imports; it is checked
    # (dse_grid's results.csv against every later pass) and counted as
    # attempted work, but not timed.
    warmup = runner.run_pass(0)
    # a traced run splits --seconds between untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(runner, seconds, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    layer_runs = []
    span_lines = []     # summary of the last traced pass
    if args.trace:
        untraced_wall = statistics.median(p.wall for p in passes)

        def traced_pass(run_pass, index):
            stats = layer_metrics.LayerStats()
            tracer = tracing.Tracer(stats.hooks())
            with tracing.traced(tracer, (qnet, mapping, xbar, dse, cli)):
                result = run_pass(index)
            layer_runs.append(stats.metrics(tracer.spans, result.wall / untraced_wall - 1))
            span_lines[:] = layer_metrics.span_summary(tracer.spans)
            return result

        passes += run_passes(runner, seconds, 1 + len(passes), wrap=traced_pass)

    every = [warmup] + passes
    try:
        runner.check(every)
    except workloads.CheckFailed as err:
        print(f"check failed on {spec.name} (seed {args.seed}): {err}", file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in every)
    completed = sum(p.ok for p in every)
    if args.trace:
        values = {name: statistics.median(run[name] for run in layer_runs)
                  for name in units}
    else:
        values = {"setup_s": setup_s,
                  "points_per_s": statistics.median(p.ok / p.wall for p in passes),
                  "peak_rss_mb": peak_rss_mb,
                  "ok_frac": completed / attempted}

    print(f"workload {spec.name} seed {args.seed}: warm-up and {len(passes)} timed "
          f"passes, {attempted} points attempted, {attempted - completed} failed "
          f"(failed_frac {(attempted - completed) / attempted})")
    print(f"why: {spec.why}")
    failures = Counter((o.point, o.cause) for p in every for o in p.outcomes if o.cause)
    for (point, cause), count in sorted(failures.items()):
        print(f"failed point {point} ({count}x): {cause}")
    for line in span_lines:
        print(line)
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": attempted - completed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xbardse" / "__init__.py").is_file():
        print(f"error: no xbardse sources under {SRC}; run inside a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
