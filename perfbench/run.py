"""atcpip benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload market --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
run under the span tracer and prints the per-layer metrics. The phases
are described in ``bench.py`` and the metrics in ``README.md``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every correctness check passed.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="atcpip benchmark")
    parser.add_argument("--workload", required=True, choices=("hot_provider", "market"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_atcpip():
    import atcpip.canon
    import atcpip.disputes
    import atcpip.errors
    import atcpip.ledger
    import atcpip.scenario
    import atcpip.sim
    import atcpip.trust

    return atcpip


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "atcpip" / "__init__.py").is_file():
        print(f"no atcpip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    api = _import_atcpip()
    import_s = time.perf_counter() - _PROCESS_START
    import_s *= 2 * calibrate.REFERENCE_S / (calibrate.slice_seconds() + calibrate.slice_seconds())

    import bench

    if args.trace:
        import layers

        run, metrics = layers.traced_run(api, args, TRACE_DIR)
    else:
        run = bench.Bench(api, args.workload, args.seed, args.seconds)
        run.timed()
        metrics = run.end_to_end(import_s)
    run.describe()
    checks = run.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
