"""Command line interface: subcommands, exit codes, canonical file IO."""

import pathlib
import shutil
import subprocess
import sys

import pytest

from atcpip import canon
from atcpip.cli import main

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def write_scenario(tmp_path, value, name="scenario.json"):
    path = tmp_path / name
    path.write_bytes(canon.dumps(value) + b"\n")
    return path


def demo_value(**overrides):
    value = {
        "name": "cli_demo",
        "seed": 2,
        "network": {"latency": 1},
        "agents": [
            {
                "id": "prov",
                "balance": 0,
                "catalog": [
                    {
                        "content_id": "weather",
                        "content": "temp,rain",
                        "tags": ["dataset"],
                        "terms": {
                            "upfront_fee": 1_000_000,
                            "duration": "2030-01-01",
                            "revocation_conditions": ["dispute_loss"],
                        },
                    }
                ],
            },
            {"id": "req", "balance": 5_000_000},
        ],
        "script": [
            {
                "tick": 0,
                "action": "request",
                "requester": "req",
                "provider": "prov",
                "content_id": "weather",
                "session_id": "s1",
            }
        ],
        "expectations": {
            "balances": {"prov": 1_000_000, "req": 4_000_000},
            "states": {"s1": "completed"},
        },
    }
    value.update(overrides)
    return value


def test_run_writes_transcript_and_ledger_and_exits_zero(tmp_path, capsys):
    scenario = write_scenario(tmp_path, demo_value())
    transcript = tmp_path / "run.jsonl"
    export = tmp_path / "ledger.json"
    code = main(
        [
            "run",
            "--scenario",
            str(scenario),
            "--transcript",
            str(transcript),
            "--export-ledger",
            str(export),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cli_demo" in out and "ledger entries" in out
    lines = transcript.read_bytes().splitlines()
    assert canon.loads(lines[0])["kind"] == "meta"
    exported = canon.loads(export.read_bytes())
    assert isinstance(exported, list) and exported
    assert export.read_bytes() == canon.dumps(exported) + b"\n"


def test_run_reports_expectation_failures_with_exit_one(tmp_path, capsys):
    value = demo_value()
    value["expectations"]["balances"]["prov"] = 123
    scenario = write_scenario(tmp_path, value)
    code = main(["run", "--scenario", str(scenario)])
    assert code == 1
    assert "expectation failed" in capsys.readouterr().out


def test_run_accepts_builtin_names(capsys):
    assert main(["run", "--scenario", "uc1_dataset"]) == 0
    assert "uc1_dataset" in capsys.readouterr().out


def test_run_rejects_unknown_scenario_with_exit_two(capsys):
    assert main(["run", "--scenario", "no_such_thing"]) == 2
    assert "no_such_thing" in capsys.readouterr().err


def test_replay_round_trip_and_mismatch(tmp_path, capsys):
    scenario = write_scenario(tmp_path, demo_value())
    transcript = tmp_path / "run.jsonl"
    assert main(["run", "--scenario", str(scenario), "--transcript", str(transcript)]) == 0
    assert main(["replay", "--scenario", str(scenario), "--transcript", str(transcript)]) == 0
    doctored = transcript.read_bytes().replace(b'"amount":1000000', b'"amount":1000001')
    transcript.write_bytes(doctored)
    assert main(["replay", "--scenario", str(scenario), "--transcript", str(transcript)]) == 1
    out = capsys.readouterr().out
    assert "replay ok" in out and "replay mismatch" in out


def test_verify_ledger_intact_tampered_and_garbage(tmp_path, capsys):
    scenario = write_scenario(tmp_path, demo_value())
    export = tmp_path / "ledger.json"
    main(["run", "--scenario", str(scenario), "--export-ledger", str(export)])
    assert main(["verify-ledger", str(export)]) == 0

    entries = canon.loads(export.read_bytes())
    entries[2]["payload"]["round"] = 99
    tampered = tmp_path / "tampered.json"
    tampered.write_bytes(canon.dumps(entries) + b"\n")
    assert main(["verify-ledger", str(tampered)]) == 1

    garbage = tmp_path / "garbage.json"
    garbage.write_bytes(b"{not json")
    assert main(["verify-ledger", str(garbage)]) == 2
    out = capsys.readouterr().out
    assert "ledger intact" in out and "ledger tampered" in out


@pytest.mark.parametrize(
    "document",
    [
        pytest.param(b"[" * 5000 + b"]" * 5000, id="nested-too-deep"),
        pytest.param(b"[" + b"1" * 5000 + b"]", id="int-past-the-digit-limit"),
    ],
)
def test_verify_ledger_refuses_unparseable_exports_as_errors(tmp_path, capsys, document):
    # Exit 1 means a tampered chain; a document that does not parse is
    # an input error, exit 2.
    path = tmp_path / "export.json"
    path.write_bytes(document)
    assert main(["verify-ledger", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_export_evidence_prints_a_canonical_bundle(tmp_path, capsys):
    value = demo_value()
    value["script"].extend(
        [
            {
                "tick": 20,
                "action": "usage",
                "agent": "req",
                "session_id": "s1",
                "tags": ["redistribute"],
            },
            {
                "tick": 25,
                "action": "dispute",
                "claimant": "prov",
                "session_id": "s1",
                "kind": "usage_violation",
            },
        ]
    )
    scenario = write_scenario(tmp_path, value)
    export = tmp_path / "ledger.json"
    assert main(["run", "--scenario", str(scenario), "--export-ledger", str(export)]) == 0
    capsys.readouterr()

    entries = canon.loads(export.read_bytes())
    dispute_ids = [
        entry["payload"]["dispute_id"] for entry in entries if entry["kind"] == "dispute"
    ]
    assert len(dispute_ids) == 1
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "atcpip.cli",
            "export-evidence",
            "--ledger",
            str(export),
            "--dispute",
            dispute_ids[0],
        ],
        capture_output=True,
    )
    assert result.returncode == 0
    bundle = canon.loads(result.stdout)
    assert bundle["dispute"]["dispute_id"] == dispute_ids[0]
    assert bundle["dispute"]["claim"] == "usage_violation"
    kinds = {entry["kind"] for entry in bundle["entries"]}
    assert "agreement_token" in kinds and "dispute" in kinds


def test_export_evidence_unknown_dispute_is_an_error(tmp_path, capsys):
    scenario = write_scenario(tmp_path, demo_value())
    export = tmp_path / "ledger.json"
    main(["run", "--scenario", str(scenario), "--export-ledger", str(export)])
    capsys.readouterr()
    assert main(["export-evidence", "--ledger", str(export), "--dispute", "dispute-0"]) == 2
    assert "dispute-0" in capsys.readouterr().err


def test_export_evidence_refuses_tampered_ledgers(tmp_path, capsys):
    value = demo_value()
    value["script"].append(
        {
            "tick": 20,
            "action": "dispute",
            "claimant": "prov",
            "session_id": "s1",
            "kind": "payment_default",
        }
    )
    scenario = write_scenario(tmp_path, value)
    export = tmp_path / "ledger.json"
    main(["run", "--scenario", str(scenario), "--export-ledger", str(export)])
    entries = canon.loads(export.read_bytes())
    entries[3]["payload"]["amount"] = 1
    export.write_bytes(canon.dumps(entries) + b"\n")
    capsys.readouterr()
    assert main(["export-evidence", "--ledger", str(export), "--dispute", "dispute-5"]) == 1
    assert "tampered" in capsys.readouterr().err


def test_missing_file_is_an_error(tmp_path):
    assert main(["replay", "--scenario", "uc1_dataset", "--transcript", str(tmp_path / "x")]) == 2


def test_console_entry_point_runs_builtins():
    """Runs the declared `atcpip` script target the way the installed wrapper runs it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads(PYPROJECT.read_text())
    module, attr = pyproject["project"]["scripts"]["atcpip"].split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'atcpip'\n"
        f"sys.exit({attr}())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "run", "--scenario", "uc3_style_transfer"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "uc3_style_transfer" in result.stdout


@pytest.mark.skipif(shutil.which("atcpip") is None, reason="atcpip is not installed on PATH")
def test_installed_console_script_runs_builtins():
    result = subprocess.run(
        ["atcpip", "run", "--scenario", "uc3_style_transfer"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "uc3_style_transfer" in result.stdout
