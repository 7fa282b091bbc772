"""Simulator scaling curve: ms per session as the session count grows.

Usage, from the root of a checkout:

    python3 benchmarks/bench_scaling.py

Both shapes of ``perfbench/worlds.py`` (``market``: many agents with a
few dozen sessions each; ``hot_provider``: every session on one
provider) run through ``run_scenario`` at 250, 1000 and 4000 sessions,
seed 1. Each size runs one generated world at least ``MIN_RUNS`` times
and until the runs together last ``MIN_SECONDS``, so a 250-session
cell is the median of about ten runs, not of three that a shift in
host speed can move. The script records the median wall-clock
ms/session, raw and calibrated to the reference host by
``perfbench/calibrate.py`` (over the median of the slices taken right
before and right after each of the cell's runs), the number of runs,
and transcript bytes/session. On one more run of each shape and size
it records the median calibrated ms of one ``file_dispute`` +
``resolve`` on the finished world, so dispute cost shows against chain
length.

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
MIN_RUNS = 3
MIN_SECONDS = 1.0  # raw run time each cell sums to at least
SEED = 1
DISPUTES = 7  # filed one at a time on each finished world


def _scenario(shape, sessions, seed):
    return scenario_from_bytes(canon.dumps(getattr(worlds, shape)(sessions, seed)))


def _timed(function, *args):
    """``function(*args)``'s result, its seconds, and the seconds of one
    calibration slice right before it and one right after."""
    before = calibrate.slice_seconds()
    started = time.perf_counter()
    result = function(*args)
    seconds = time.perf_counter() - started
    return result, seconds, (before, calibrate.slice_seconds())


def _calibrated(seconds, slices):
    """``seconds`` as the reference host would take them, by the median
    of ``slices``."""
    return seconds * calibrate.REFERENCE_S / statistics.median(slices)


def measure(scenario):
    """One ``run_scenario``: its seconds, the calibration slices around
    it, and its transcript bytes."""
    (transcript, _), seconds, slices = _timed(run_scenario, scenario)
    return seconds, slices, len(transcript)


def cell(shape, sessions, min_seconds=MIN_SECONDS, seed=SEED):
    """Median ms/session, raw and calibrated, over at least ``MIN_RUNS``
    runs of one generated world that together last ``min_seconds``. The
    calibration takes the median of every slice around the cell's runs,
    so a host stall that catches one or two slices does not move it."""
    scenario = _scenario(shape, sessions, seed)
    runs, slices = [], []
    while len(runs) < MIN_RUNS or sum(runs) < min_seconds:
        seconds, run_slices, transcript_bytes = measure(scenario)
        runs.append(seconds)
        slices.extend(run_slices)
    seconds = statistics.median(runs)
    return {
        "ms_per_session_raw": round(1000 * seconds / sessions, 3),
        "ms_per_session": round(1000 * _calibrated(seconds, slices) / sessions, 3),
        "bytes_per_session": round(transcript_bytes / sessions, 1),
        "runs": len(runs),
    }


def curve(sizes=SIZES, min_seconds=MIN_SECONDS):
    """{shape: {size: cell}}."""
    return {
        shape: {str(sessions): cell(shape, sessions, min_seconds) for sessions in sizes}
        for shape in SHAPES
    }


def dispute_ms(shape, sessions, seed=SEED, count=DISPUTES):
    """Median calibrated ms of one ``file_dispute`` + ``resolve`` (a
    provider's ``payment_default`` claim) on the finished world of one
    run, over its first ``count`` agreed sessions. Each dispute rehashes
    the whole chain, so this grows with the chain."""
    scenario = _scenario(shape, sessions, seed)
    _, world = run_scenario(scenario)
    ledger, court = world.ledger, world.court

    def dispute(session_id):
        token = ledger.session_agreement(session_id)
        metadata = token.metadata
        claim = court.file_dispute(
            session_id, metadata.issuer_id, metadata.holder_id, "payment_default"
        )
        return court.resolve(claim.dispute_id)

    agreed = [sid for sid in scenario.session_ids() if ledger.session_agreement(sid)]
    times = [_calibrated(*_timed(dispute, session_id)[1:]) for session_id in agreed[:count]]
    return round(1000 * statistics.median(times), 3)


def dispute_row(sizes=SIZES):
    """{shape: {size: dispute_ms}}."""
    return {
        shape: {str(sessions): dispute_ms(shape, sessions) for sessions in sizes}
        for shape in SHAPES
    }


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
        "min_runs": MIN_RUNS,
        "min_seconds": MIN_SECONDS,
        "curve": curve(),
        "dispute_ms": dispute_row(),
        "disputes": DISPUTES,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    for shape, row in results[commit]["curve"].items():
        figures = "  ".join(f"{size}: {cell['ms_per_session']:.2f}" for size, cell in row.items())
        print(f"{commit} {shape} calibrated ms/session  {figures}")
    for shape, row in results[commit]["dispute_ms"].items():
        figures = "  ".join(f"{size}: {ms:.1f}" for size, ms in row.items())
        print(f"{commit} {shape} calibrated ms/dispute  {figures}")


if __name__ == "__main__":
    main()
