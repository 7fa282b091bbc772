"""Simulator scaling curve: ms per session as the session count grows.

Usage, from the root of a checkout:

    python3 benchmarks/bench_scaling.py

Both shapes of ``perfbench/worlds.py`` (``market``: many agents with a
few dozen sessions each; ``hot_provider``: every session on one
provider) run through ``run_scenario`` at 250, 1000 and 4000 sessions,
seed 1. Each cell runs one generated world. The timed runs go
round-robin over the cells, one run of every cell a round, until each
cell has at least ``MIN_RUNS`` runs that together last ``MIN_SECONDS``:
every cell runs as often as the 250-session cells need (about ten
times), and a shift in host speed lands on every cell rather than on
the one that happened to be running. The script records the median
wall-clock ms/session, raw and calibrated to the reference host by
``perfbench/calibrate.py`` (over the median of the slices taken right
before and right after each of the cell's runs), the interquartile
range of the calibrated runs beside it, the number of runs, and
transcript bytes/session; per shape, it records the calibrated
ms/session of the largest size over the smallest (4000 over 250), the
number a flat row holds at 1. One more run of each cell, untimed and
under ``tracemalloc``, records in kB (1,000 bytes) per session the
run's peak and what it returns (transcript plus world, after a
collection), so a run that holds more than it hands back shows. One
more untimed run gives each cell a finished world with one dispute
filed on it; over that world's chain the cell records the median
calibrated µs per entry of ``verify_entries`` on the export (the
``verify-ledger`` path) and of the export-evidence path on the
export's bytes (``canon.loads``, ``Ledger.from_export``, then
``collect_evidence``). On one more run of each shape and size it
records the median calibrated ms of one ``file_dispute`` + ``resolve``
on the finished world, so dispute cost shows against chain length.

Results go into ``BENCH_scaling.json`` at the root of the checkout,
keyed by the commit the sources were measured at (``+dirty`` when
``src/`` differs from it), so the file keeps the curve of each
commit measured. Linear scaling means a flat row: ms/session at 4000
sessions about what it is at 250.
"""

import gc
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_scaling.json"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import calibrate  # noqa: E402
import worlds  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

from atcpip import canon  # noqa: E402
from atcpip.disputes import DisputeCourt  # noqa: E402
from atcpip.ledger import Ledger, verify_entries  # noqa: E402
from atcpip.scenario import scenario_from_bytes  # noqa: E402
from atcpip.sim import run_scenario  # noqa: E402
from atcpip.trust import ReputationBoard  # noqa: E402

SHAPES = ("market", "hot_provider")
SIZES = (250, 1000, 4000)
MIN_RUNS = 3
MIN_SECONDS = 1.0  # raw run time each cell sums to at least
SEED = 1
DISPUTES = 7  # filed one at a time on each finished world
TOOL_RUNS = 5  # timed runs of each chain tool per cell


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


def memory(scenario):
    """One untimed ``run_scenario`` under ``tracemalloc``: the bytes it
    peaked at and the bytes still held, after a collection, by what it
    returns."""
    gc.collect()
    tracemalloc.start()
    try:
        returned = run_scenario(scenario)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del returned
    return peak, retained


def _file_dispute(world, session_id):
    """A provider's ``payment_default`` claim on ``session_id``, filed
    and resolved on ``world``; returns the dispute id."""
    metadata = world.ledger.session_agreement(session_id).metadata
    claim = world.court.file_dispute(
        session_id, metadata.issuer_id, metadata.holder_id, "payment_default"
    )
    world.court.resolve(claim.dispute_id)
    return claim.dispute_id


def _agreed(scenario, ledger):
    return [sid for sid in scenario.session_ids() if ledger.session_agreement(sid)]


def chain_tools(scenario, runs=TOOL_RUNS):
    """Median calibrated µs per chain entry of ``verify_entries`` and of
    the export-evidence path, on the world of one untimed run with one
    dispute filed (on its first agreed session)."""
    _, world = run_scenario(scenario)
    dispute_id = _file_dispute(world, _agreed(scenario, world.ledger)[0])
    export = world.ledger.export_entries()
    raw = canon.dumps(export)
    del world

    def export_evidence():
        book = Ledger.from_export(canon.loads(raw))
        court = DisputeCourt(book, ReputationBoard(book))
        return court.collect_evidence(dispute_id)

    verify, evidence = [], []
    for _ in range(runs):
        intact, *timing = _timed(verify_entries, export)
        assert intact
        verify.append(_calibrated(*timing))
        bundle, *timing = _timed(export_evidence)
        assert bundle.entries
        evidence.append(_calibrated(*timing))
    return {
        "chain_entries": len(export),
        "verify_us_per_entry": round(1e6 * statistics.median(verify) / len(export), 3),
        "export_evidence_us_per_entry": round(1e6 * statistics.median(evidence) / len(export), 3),
    }


def cell(scenario, sessions, runs, slices, transcript_bytes):
    """A cell's figures from its timed ``runs`` (seconds each) and the
    calibration ``slices`` around them: median ms/session, raw and
    calibrated, and the calibrated interquartile range. The calibration
    takes the median of every slice around the cell's runs, so a host
    stall that catches one or two slices does not move it."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    seconds = statistics.median(runs)
    peak, retained = memory(scenario)
    tools = chain_tools(scenario)
    return {
        "ms_per_session_raw": round(1000 * seconds / sessions, 3),
        "ms_per_session": round(1000 * _calibrated(seconds, slices) / sessions, 3),
        "ms_per_session_iqr": round(1000 * _calibrated(q3 - q1, slices) / sessions, 4),
        "bytes_per_session": round(transcript_bytes / sessions, 1),
        "runs": len(runs),
        "peak_kb_per_session": round(peak / 1000 / sessions, 2),
        "retained_kb_per_session": round(retained / 1000 / sessions, 2),
        **tools,
    }


def curve(sizes=SIZES, min_seconds=MIN_SECONDS):
    """{shape: {size: cell}}, the cells' timed runs taken round-robin
    until every cell has at least ``MIN_RUNS`` runs that together last
    ``min_seconds``."""
    scenarios = {
        (shape, sessions): _scenario(shape, sessions, SEED) for shape in SHAPES for sessions in sizes
    }
    runs = {key: [] for key in scenarios}
    slices = {key: [] for key in scenarios}
    transcript_bytes = {}
    while any(len(times) < MIN_RUNS or sum(times) < min_seconds for times in runs.values()):
        for key, scenario in scenarios.items():
            seconds, run_slices, transcript_bytes[key] = measure(scenario)
            runs[key].append(seconds)
            slices[key].extend(run_slices)
    return {
        shape: {
            str(sessions): cell(
                scenarios[shape, sessions],
                sessions,
                runs[shape, sessions],
                slices[shape, sessions],
                transcript_bytes[shape, sessions],
            )
            for sessions in sizes
        }
        for shape in SHAPES
    }


def flatness(table):
    """{shape: calibrated ms/session at the largest size over the
    smallest}; a row that scales linearly reads 1."""
    ratios = {}
    for shape, row in table.items():
        largest, smallest = row[max(row, key=int)], row[min(row, key=int)]
        ratios[shape] = round(largest["ms_per_session"] / smallest["ms_per_session"], 3)
    return ratios


def dispute_ms(shape, sessions, seed=SEED, count=DISPUTES):
    """Median calibrated ms of one ``file_dispute`` + ``resolve`` (a
    provider's ``payment_default`` claim) on the finished world of one
    run, over its first ``count`` agreed sessions. Each dispute rehashes
    the whole chain, so this grows with the chain."""
    scenario = _scenario(shape, sessions, seed)
    _, world = run_scenario(scenario)
    agreed = _agreed(scenario, world.ledger)
    times = [
        _calibrated(*_timed(_file_dispute, world, session_id)[1:])
        for session_id in agreed[:count]
    ]
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
    table = curve()
    results[commit] = {
        "date": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "seed": SEED,
        "min_runs": MIN_RUNS,
        "min_seconds": MIN_SECONDS,
        "curve": table,
        "ms_per_session_ratio": flatness(table),
        "dispute_ms": dispute_row(),
        "disputes": DISPUTES,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    for shape, row in table.items():
        figures = "  ".join(
            f"{size}: {cell['ms_per_session']:.3f} (IQR {cell['ms_per_session_iqr']:.3f})"
            for size, cell in row.items()
        )
        ratio = results[commit]["ms_per_session_ratio"][shape]
        print(f"{commit} {shape} calibrated ms/session  {figures}  largest/smallest {ratio:.3f}")
        figures = "  ".join(
            f"{size}: {cell['peak_kb_per_session']:.1f}/{cell['retained_kb_per_session']:.1f}"
            for size, cell in row.items()
        )
        print(f"{commit} {shape} peak/retained kB/session  {figures}")
        figures = "  ".join(
            f"{size}: {cell['verify_us_per_entry']:.2f}/{cell['export_evidence_us_per_entry']:.2f}"
            for size, cell in row.items()
        )
        print(f"{commit} {shape} calibrated verify/export-evidence µs/entry  {figures}")
    for shape, row in results[commit]["dispute_ms"].items():
        figures = "  ".join(f"{size}: {ms:.1f}" for size, ms in row.items())
        print(f"{commit} {shape} calibrated ms/dispute  {figures}")


if __name__ == "__main__":
    main()
