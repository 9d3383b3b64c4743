"""Benchmark for polarlink: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload waterfall --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; polarlink is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics of a traced run. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Lines before it are a readable table, including the metrics that are not in
the JSON (goodput, prr, brr, fail_ratio), and the environment record. Check
failures are listed on standard error. See NOTES.md.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS/OpenMP thread per process, so the 2-worker pool does not
# oversubscribe 2 cores. Set before numpy is imported; children inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("deep_fail", "waterfall", "high_snr_session")


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test; not a measurement")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polarlink" / "__init__.py").is_file():
        print(f"perfbench: no polarlink sources under {ROOT / 'src'}; "
              "run from the root of a polarlink checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = workloads.run_traced(wl, args.seed, quick=args.quick)
    else:
        result = workloads.run_end_to_end(wl, args.seed, args.seconds, quick=args.quick)

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    shown = dict(result["metrics"])
    shown.update(result.get("report", {}))
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
