"""Subsequence-retrieval benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload topk-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload range-cold --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload serve-mixed --steady 5 --seed 100

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The lines above it
are for people: every metric with its unit, the tail percentiles and sample
counts, and the machine the numbers come from.  The exit code is non-zero
when any answer disagrees with its oracle or any operation failed.

``--steady N`` runs the workload N times as child processes, seeds
``--seed`` .. ``--seed + N - 1``, and prints each end-to-end metric's median,
quartiles and spread against its bound in ``BENCHMARK.json``.

See ``perfbench/README.md`` for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("topk-warm", "range-cold", "serve-mixed")


def pin_environment() -> None:
    """Measure the defaults: no ``REPRO_*`` knob, kernels built in the checkout.

    Dropping ``REPRO_*`` means executor, transport, log format and kernel
    tier all take their defaults.  The compiled-kernel cache and the C
    compiler's temporary files go under the checkout's build directory
    instead of the user's home and the system temporary directory.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")


def build_kernels() -> str:
    """Compile (or find) the C kernels before any timed setup starts."""
    from repro.distances.backend import active_kernel_name

    return active_kernel_name()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat the workload N times and report spreads")
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def steady(args) -> int:
    """Repeat a workload over N seeds; print median, quartiles and spread."""
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    status = 0
    for offset in range(args.steady):
        seed = args.seed + offset
        completed = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in values
        ), flush=True)
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "NOISY")
        print(f"{name:<16}{mid:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.3f}{bound:>8.2f}  {verdict}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.steady:
        return steady(args)
    sys.path.insert(0, str(ROOT / "src"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    kernel = build_kernels()

    from harness import run_workload

    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), BUILD)
    environment = dict(result["environment"], kernel_tier_at_start=kernel)
    print(f"# {args.workload} seed={args.seed} seconds={seconds} trace={args.trace}")
    print("# environment " + json.dumps(environment, sort_keys=True))
    print("# details " + json.dumps(result["details"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<28}{value:>16.6g} {unit}")
    if "failed_ratio" in result["details"]:
        print(f"{'failed_ratio':<28}{result['details']['failed_ratio']:>16.6g} fraction")
    for problem in result["problems"]:
        print(f"! {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
