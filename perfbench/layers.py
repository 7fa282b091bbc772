"""The traced run and the per-layer metrics drawn from its spans.

Per-session counts divide by the sessions of every traced sim run and
per-dispute counts by the disputes run. ``<layer>.self_share`` is the
layer's self time over the time of every span in the sim runs, and
``<layer>.dispute_share`` the same over the disputes, so each family
adds up to 1 across the layers.
"""

import collections
import statistics

import bench
from fold import FAILURE_REASONS, fold
from spans import LAYERS, Tracer

# Kinds a sim run writes; dispute and verdict entries come only from the
# dispute phase, which the sim transcript does not cover.
SIM_ENTRY_KINDS = ("agreement_token", "draft_token", "payment", "reputation_event")
# Layers a dispute reaches; the others take no time in the dispute phase.
DISPUTE_LAYERS = ("canon", "terms", "ledger", "trust", "disputes")


class Tally:
    """Calls, self time, observed result sizes and top-level durations of
    one phase, by span name."""

    def __init__(self, tracer, phase):
        count = len(tracer.names)
        calls, self_s, sizes = [0] * count, [0.0] * count, [0] * count
        roots = [[] for _ in range(count)]
        name_id, parent, start, end = tracer.name_id, tracer.parent, tracer.start, tracer.end
        child, extra = tracer.child, tracer.extra
        for index in tracer.spans(phase):
            nid = name_id[index]
            duration = end[index] - start[index]
            calls[nid] += 1
            self_s[nid] += duration - child[index]
            sizes[nid] += extra[index]
            if parent[index] < 0:
                roots[nid].append(duration)
        self.calls = collections.Counter(dict(zip(tracer.names, calls)))
        self.self_s = collections.Counter(dict(zip(tracer.names, self_s)))
        self.sizes = collections.Counter(dict(zip(tracer.names, sizes)))
        self.root_durations = dict(zip(tracer.names, roots))
        self.total = sum(sum(durations) for durations in roots)

    def layer_calls(self, layer):
        return sum(count for name, count in self.calls.items() if name.startswith(layer + "."))

    def share(self, layer):
        own = sum(seconds for name, seconds in self.self_s.items() if name.startswith(layer + "."))
        return own / self.total


def traced_run(api, args, trace_dir):
    """Run once untraced for reference, then again with every public
    function wrapped; returns the traced run and its per-layer metrics."""
    reference = bench.Bench(api, args.workload, args.seed, args.seconds)
    reference.setup()
    reference.run_world()
    tracer = Tracer()
    tracer.install("atcpip")
    run = bench.Bench(api, args.workload, args.seed, args.seconds, tracer=tracer)
    run.timed()
    run.checks.absorb(reference.checks)
    same = run.transcript == reference.transcript
    run.checks.record([] if same else ["tracing changed the transcript bytes"])
    overhead = statistics.median(run.sim_times) / statistics.median(reference.sim_times)
    metrics = per_layer(tracer, run, overhead)
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"spans-{args.workload}.bin")
    return run, metrics


def per_layer(tracer, run, overhead):
    sim, dispute, tools, setup = (Tally(tracer, phase) for phase in ("sim", "dispute", "tools", "setup"))
    world_sessions = run.workload.sessions
    sessions = world_sessions * len(run.sim_times)
    disputes = run.disputes_run
    imports = len(run.import_times)
    entries = run.chain_entries * imports
    folded = fold(run.transcript)
    print(f"transcript counts: {folded}")

    def per_session(*names):
        return sum(sim.calls[name] for name in names) / sessions

    def per_world_session(count):
        return count / world_sessions

    swept = sim.calls["runtime.AgentRuntime.sessions"]
    metrics = {
        "canon.dumps_calls_per_session": (per_session("canon.dumps"), "calls"),
        "canon.bytes_per_session": (sim.sizes["canon.dumps"] / sessions, "bytes"),
        "canon.distinct_ratio": (tracer.distinct["sim"] / sim.calls["canon.dumps"], "ratio"),
        "canon.loads_calls": (tools.calls["canon.loads"] / imports, "calls"),
        "canon.loads_self_s": (tools.self_s["canon.loads"] / imports, "s"),
        "terms.terms_hash_calls_per_session": (per_session("terms.terms_hash"), "calls"),
        "ledger.appends_per_session": (per_session("ledger.Ledger.append"), "calls"),
        "ledger.append_self_us": (
            sim.self_s["ledger.Ledger.append"] / sim.calls["ledger.Ledger.append"] * 1e6,
            "us",
        ),
        "ledger.entries": (sum(folded["ledger_entries"].values()), "count"),
        "ledger.rehashes_per_dispute": (dispute.calls["ledger.chain_entry_hash"] / disputes, "calls"),
        "ledger.entries_scanned_per_dispute": (
            (dispute.sizes["ledger.Ledger.entries"] + dispute.sizes["ledger.Ledger.history"]) / disputes,
            "count",
        ),
        "ledger.verify_us_per_entry": (
            sum(tools.root_durations["ledger.verify_entries"]) / entries * 1e6,
            "us",
        ),
        "ledger.import_us_per_entry": (
            sum(tools.root_durations["ledger.Ledger.from_export"]) / entries * 1e6,
            "us",
        ),
        "payments.settles_per_session": (per_session("payments.WalletSystem.settle"), "calls"),
        "payments.transfers_per_session": (per_world_session(folded["balance_lines"]), "count"),
        "protocol.transitions_per_session": (
            per_session("protocol.provider_transition", "protocol.requester_transition"),
            "calls",
        ),
        "negotiation.calls_per_session": (sim.layer_calls("negotiation") / sessions, "calls"),
        "negotiation.rounds_per_session": (per_world_session(folded["negotiation_rounds"]), "count"),
        "trust.record_outcome_calls_per_session": (
            per_session("trust.ReputationBoard.record_outcome"),
            "calls",
        ),
        "disputes.collect_evidence_calls_per_dispute": (
            dispute.calls["disputes.DisputeCourt.collect_evidence"] / disputes,
            "calls",
        ),
        "runtime.calls_per_session": (
            per_session(
                "runtime.AgentRuntime.start_request",
                "runtime.AgentRuntime.receive_message",
                "runtime.AgentRuntime.expire_timer",
            ),
            "calls",
        ),
        "runtime.timer_expiries_per_session": (per_session("runtime.AgentRuntime.expire_timer"), "calls"),
        "sim.sessions_swept_per_event": (sim.sizes["runtime.AgentRuntime.sessions"] / swept, "count"),
        "sim.timer_restarts_per_session": (per_session("runtime.AgentRuntime.timer_for"), "calls"),
        "sim.msgs_delivered_per_session": (per_world_session(sum(folded["msgs_delivered"].values())), "count"),
        "sim.msgs_dropped_per_session": (per_world_session(sum(folded["msgs_dropped"].values())), "count"),
        "sim.state_lines_per_session": (per_world_session(folded["state_lines"]), "count"),
        "sim.transcript_bytes_per_session": (per_world_session(folded["bytes"]), "bytes"),
        "sim.sessions_completed": (folded["sessions_completed"], "count"),
        "sim.sessions_failed": (sum(folded["sessions_failed"].values()), "count"),
        "scenario.load_s": (
            statistics.median(setup.root_durations["scenario.scenario_from_bytes"]),
            "s",
        ),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for reason in (*FAILURE_REASONS, "other"):
        metrics[f"sim.sessions_failed.{reason}"] = (folded["sessions_failed"].get(reason, 0), "count")
    for kind in SIM_ENTRY_KINDS:
        metrics[f"ledger.entries.{kind}"] = (folded["ledger_entries"].get(kind, 0), "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (sim.share(layer), "ratio")
    for layer in DISPUTE_LAYERS:
        metrics[f"{layer}.dispute_share"] = (dispute.share(layer), "ratio")
    return metrics
