"""Command line interface.

Subcommands:

- run: execute a scenario (file path or built-in name), optionally
  writing the transcript and a ledger export; exits 1 when the
  scenario's expectations fail or the closed economy leaks.
- replay: re-run a scenario and compare against a recorded transcript.
- verify-ledger: recompute the hash chain of a ledger export.
- export-evidence: print the evidence bundle for a dispute recorded in
  a ledger export.

Exit codes: 0 success/true, 1 mismatch/false, 2 errors. All files read
and written here are canonical JSON (transcripts are one canonical
document per line).
"""

import argparse
import pathlib
import sys

from . import canon
from .disputes import DisputeCourt
from .errors import AtcpipError, ParseError, TamperedLedger
from .ledger import Ledger, verify_entries
from .scenario import load_scenario, scenario_from_bytes
from .scenarios import BUILTIN_SCENARIOS, builtin_bytes
from .sim import check_expectations, replay, run_scenario
from .trust import ReputationBoard


def _resolve_scenario(ref):
    if pathlib.Path(ref).exists():
        return load_scenario(ref)
    if ref in BUILTIN_SCENARIOS:
        return scenario_from_bytes(builtin_bytes(ref))
    known = ", ".join(BUILTIN_SCENARIOS)
    raise ParseError(f"no scenario file or built-in named {ref!r} (built-ins: {known})")


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def _cmd_run(args):
    scenario = _resolve_scenario(args.scenario)
    transcript, world = run_scenario(scenario, seed=args.seed)
    if args.transcript:
        _write(args.transcript, transcript)
    if args.export_ledger:
        _write(args.export_ledger, world.ledger.export_bytes() + b"\n")
    problems = check_expectations(scenario, world)
    if not world.conservation_intact():
        problems.append("total balances changed; the closed economy leaked")
    # Every line ends in a newline, and canonical strings escape theirs.
    lines = transcript.count(b"\n")
    print(
        f"{scenario.name}: {world.final_tick} ticks,"
        f" {len(world.ledger.entries())} ledger entries,"
        f" {lines} transcript lines"
    )
    for problem in problems:
        print(f"expectation failed: {problem}")
    return 1 if problems else 0


def _cmd_replay(args):
    scenario = _resolve_scenario(args.scenario)
    recorded = _read(args.transcript)
    if replay(scenario, recorded):
        print("replay ok: transcripts are byte-identical")
        return 0
    print("replay mismatch: fresh run differs from the recording")
    return 1


def _cmd_verify_ledger(args):
    value = canon.loads(_read(args.path))
    if not isinstance(value, list):
        raise ParseError("ledger export must be a list of entries")
    if verify_entries(value):
        print(f"ledger intact: {len(value)} entries")
        return 0
    print("ledger tampered: hash chain verification failed")
    return 1


def _cmd_export_evidence(args):
    book = Ledger.from_export(canon.loads(_read(args.ledger)))
    court = DisputeCourt(book, ReputationBoard(book))
    bundle = court.collect_evidence(args.dispute)
    sys.stdout.buffer.write(canon.dumps(bundle.to_value()) + b"\n")
    sys.stdout.buffer.flush()
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="atcpip",
        description="Agent-to-agent IP licensing simulator and ledger tools.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a scenario file or built-in")
    run.add_argument("--scenario", required=True, help="scenario file path or built-in name")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--transcript", help="write the run transcript to this file")
    run.add_argument("--export-ledger", help="write the final ledger export to this file")
    run.set_defaults(handler=_cmd_run)

    rep = commands.add_parser("replay", help="re-run and compare against a transcript")
    rep.add_argument("--scenario", required=True, help="scenario file path or built-in name")
    rep.add_argument("--transcript", required=True, help="recorded transcript file")
    rep.set_defaults(handler=_cmd_replay)

    verify = commands.add_parser("verify-ledger", help="check a ledger export's hash chain")
    verify.add_argument("path", help="ledger export file")
    verify.set_defaults(handler=_cmd_verify_ledger)

    evidence = commands.add_parser(
        "export-evidence", help="print the evidence bundle for a recorded dispute"
    )
    evidence.add_argument("--ledger", required=True, help="ledger export file")
    evidence.add_argument("--dispute", required=True, help="dispute id, e.g. dispute-17")
    evidence.set_defaults(handler=_cmd_export_evidence)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TamperedLedger as exc:
        print(f"tampered: {exc}", file=sys.stderr)
        return 1
    except AtcpipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
