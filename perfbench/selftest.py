"""Checks on the benchmark's own machinery.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test
run does not collect it.
"""

import collections
import hashlib
import pathlib
import shutil
import subprocess
import sys

import atcpip.runtime
import atcpip.sim
import atcpip.terms
from atcpip import canon
from atcpip.scenario import scenario_from_bytes
from atcpip.sim import run_scenario

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fold  # noqa: E402
import worlds  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "market": lambda seed: worlds.market(60, seed, usage_events=20),
    "hot_provider": lambda seed: worlds.hot_provider(60, seed, usage_events=20),
}


def _load(value):
    return scenario_from_bytes(canon.dumps(value))


def test_worlds_load_strictly_repeat_by_seed_and_use_each_pair_once():
    for name, build in SMALL.items():
        raw = canon.dumps(build(7))
        assert raw == canon.dumps(build(7)), name
        assert raw != canon.dumps(build(8)), name
        scenario = scenario_from_bytes(raw)
        pairs = [
            (event.body["requester"], event.body["content_id"])
            for event in scenario.script
            if event.action == "request"
        ]
        assert len(pairs) == 60 and len(set(pairs)) == len(pairs), name


def test_hot_provider_puts_every_session_on_one_provider():
    scenario = _load(worlds.hot_provider(60, 3))
    providers = {event.body["provider"] for event in scenario.script if event.action == "request"}
    assert providers == {"p0"}


def test_fold_agrees_with_the_live_world():
    transcript, world = run_scenario(_load(worlds.market(60, 5, usage_events=20)))
    counts = fold.fold(transcript)
    kinds = collections.Counter(entry.kind for entry in world.ledger.entries())
    assert counts["ledger_entries"] == dict(kinds)
    requesters = [
        session
        for runtime in world.runtimes.values()
        for session in runtime.sessions().values()
        if session.role == "requester"
    ]
    assert counts["sessions_completed"] == sum(s.state.value == "completed" for s in requesters)
    failed = collections.Counter(
        session.failure_reason
        for runtime in world.runtimes.values()
        for session in runtime.sessions().values()
        if session.state.value == "failed"
    )
    assert sum(counts["sessions_failed"].values()) == sum(failed.values())
    assert counts["sessions_failed"].get("other", 0) == 0
    assert counts["bytes"] == len(transcript)


def test_tracer_wraps_every_binding_keeps_bytes_and_uninstalls():
    scenario = _load(worlds.market(40, 2))
    plain, _ = run_scenario(scenario)
    original = atcpip.terms.terms_hash
    tracer = Tracer()
    tracer.install("atcpip")
    try:
        assert atcpip.runtime.terms_hash is not original
        assert atcpip.runtime.terms_hash.__wrapped__ is original
        tracer.phase("sim")
        traced, _ = atcpip.sim.run_scenario(scenario)
        tracer.finish()
    finally:
        tracer.uninstall()
    assert atcpip.runtime.terms_hash is original and atcpip.terms.terms_hash is original
    assert hashlib.sha256(traced).digest() == hashlib.sha256(plain).digest()
    names = collections.Counter(tracer.names[tracer.name_id[i]] for i in tracer.spans("sim"))
    for name in (
        "sim.run_scenario",
        "canon.dumps",
        "terms.terms_hash",
        "ledger.chain_entry_hash",
        "protocol.provider_transition",
        "runtime.AgentRuntime.timer_for",
    ):
        assert names[name] > 0, name
    roots = [i for i in tracer.spans("sim") if tracer.parent[i] < 0]
    assert [tracer.names[tracer.name_id[i]] for i in roots] == ["sim.run_scenario"]
    self_total = sum(
        tracer.end[i] - tracer.start[i] - tracer.child[i] for i in range(len(tracer.start))
    )
    root_time = tracer.end[roots[0]] - tracer.start[roots[0]]
    assert abs(self_total - root_time) < 1e-9 * len(tracer.start)


def test_run_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_rounds_repeat_the_same_calls_on_the_same_state(monkeypatch):
    import atcpip.disputes
    import atcpip.errors
    import atcpip.ledger
    import atcpip.trust
    import bench

    tiny = bench.Workload(worlds.market, sessions=60, disputes=3)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    run = bench.Bench(atcpip, "tiny", seed=4, seconds=0)
    run.timed()
    assert run.checks.failed == 0, run.checks.problems
    rounds = len(run.sim_times)
    assert rounds == bench.MIN_ROUNDS == len(run.setup_times) == len(run.import_times)
    assert [len(times) for times in run.dispute_times] == [rounds] * 3
    metrics = run.end_to_end(0.1)
    assert all(value > 0 for value, _ in metrics.values())
