"""Simulator scaling curve: ms per session as the session count grows.

Usage, from the root of a checkout:

    python3 benchmarks/bench_scaling.py

Both shapes of ``perfbench/worlds.py`` (``market``: many agents with a
few dozen sessions each; ``hot_provider``: every session on one
provider) run through ``run_scenario`` at 250, 1000 and 4000 sessions,
seed 1. Each size runs ``REPEATS`` times; the script records the
median wall-clock ms/session, raw and calibrated to the reference host
by ``perfbench/calibrate.py`` (one slice right before and one right
after each run), and transcript bytes/session. On one more run of each
shape and size it records the median calibrated ms of one
``file_dispute`` + ``resolve`` on the finished world, so dispute cost
shows against chain length.

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
DISPUTES = 7  # filed one at a time on each finished world


def _scenario(shape, sessions, seed):
    return scenario_from_bytes(canon.dumps(getattr(worlds, shape)(sessions, seed)))


def _timed(function, *args):
    """``function(*args)``'s result, its seconds, and those seconds
    calibrated to the reference host (one slice before, one after)."""
    before = calibrate.slice_seconds()
    started = time.perf_counter()
    result = function(*args)
    seconds = time.perf_counter() - started
    after = calibrate.slice_seconds()
    return result, seconds, seconds * 2 * calibrate.REFERENCE_S / (before + after)


def measure(shape, sessions, seed=SEED):
    """One ``run_scenario`` of a generated world: its ms/session, raw and
    calibrated, and its transcript bytes/session."""
    (transcript, _), seconds, calibrated = _timed(run_scenario, _scenario(shape, sessions, seed))
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
    times = [_timed(dispute, session_id)[2] for session_id in agreed[:count]]
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
        "repeats": REPEATS,
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
