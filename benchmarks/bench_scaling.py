"""Simulator scaling curve: ms per session as the session count grows.

Usage, from the root of a checkout:

    python3 benchmarks/bench_scaling.py

Both shapes of ``perfbench/worlds.py`` (``market``: many agents with a
few dozen sessions each; ``hot_provider``: every session on one
provider) run through ``run_scenario`` at 250, 1000 and 4000 sessions,
seed 1. Each size runs ``REPEATS`` times; the script records the
median wall-clock ms/session, raw and calibrated to the reference host
by ``perfbench/calibrate.py`` (one slice right before and one right
after each run), and transcript bytes/session.

Results go into ``BENCH_scaling.json`` at the root of the checkout,
keyed by the commit the sources were measured at (``+dirty`` when
``src/`` differs from it), so the file keeps the curve of each
commit measured. Linear scaling means a flat row: ms/session at 4000
sessions about what it is at 250.
"""

import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_scaling.json"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import calibrate  # noqa: E402
import worlds  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

from atcpip import canon  # noqa: E402
from atcpip.scenario import scenario_from_bytes  # noqa: E402
from atcpip.sim import run_scenario  # noqa: E402

SHAPES = ("market", "hot_provider")
SIZES = (250, 1000, 4000)
REPEATS = 3
SEED = 1


def measure(shape, sessions, seed=SEED):
    """One ``run_scenario`` of a generated world: its ms/session, raw and
    calibrated, and its transcript bytes/session."""
    document = getattr(worlds, shape)(sessions, seed)
    scenario = scenario_from_bytes(canon.dumps(document))
    before = calibrate.slice_seconds()
    started = time.perf_counter()
    transcript, _ = run_scenario(scenario)
    seconds = time.perf_counter() - started
    after = calibrate.slice_seconds()
    calibrated = seconds * 2 * calibrate.REFERENCE_S / (before + after)
    return {
        "ms_per_session_raw": round(1000 * seconds / sessions, 3),
        "ms_per_session": round(1000 * calibrated / sessions, 3),
        "bytes_per_session": round(len(transcript) / sessions, 1),
    }


def curve(sizes=SIZES, repeats=REPEATS):
    """{shape: {size: median of each figure over ``repeats`` runs}}."""
    table = {}
    for shape in SHAPES:
        table[shape] = {}
        for sessions in sizes:
            runs = [measure(shape, sessions) for _ in range(repeats)]
            table[shape][str(sessions)] = {
                key: statistics.median(run[key] for run in runs) for key in runs[0]
            }
    return table


def _commit():
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
        )

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def main():
    results = json.loads(OUTPUT.read_text()) if OUTPUT.is_file() else {}
    commit = _commit()
    results[commit] = {
        "date": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "seed": SEED,
        "repeats": REPEATS,
        "curve": curve(),
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    for shape, row in results[commit]["curve"].items():
        figures = "  ".join(f"{size}: {cell['ms_per_session']:.2f}" for size, cell in row.items())
        print(f"{commit} {shape} calibrated ms/session  {figures}")


if __name__ == "__main__":
    main()
