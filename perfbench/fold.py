"""Counts folded from transcript bytes alone.

A transcript is the program's own record of a run, so these counts
repeat exactly for a given world and seed and serve as exact bases for
the traced ratios. The stdlib parser is enough here: nothing is
re-encoded and decimals are never compared.
"""

import collections
import json

# Session failure reasons as the protocol words them, by metric suffix.
FAILURE_REASONS = {
    "no_token": "No valid license token received.",
    "no_payment": "Payment not confirmed by requester.",
    "no_terms": "No terms received.",
    "no_final_terms": "No final terms received.",
    "no_payment_request": "No payment request received.",
    "no_delivery": "IP delivery not received.",
}
_REASON_KEYS = {text: key for key, text in FAILURE_REASONS.items()}


def fold(transcript):
    """Counts of one run, keyed by what they count."""
    delivered = collections.Counter()
    dropped = collections.Counter()
    entries = collections.Counter()
    final_state = {}  # (agent, session) -> state line
    rounds = {}  # session -> highest draft round on the chain
    balances = 0
    state_lines = 0
    for line in transcript.splitlines():
        value = json.loads(line)
        kind = value["kind"]
        if kind == "msg":
            target = delivered if value["status"] == "delivered" else dropped
            target[value["frame"]["action"]] += 1
        elif kind == "state":
            state_lines += 1
            final_state[(value["agent"], value["session"])] = value
        elif kind == "ledger":
            payload = value["entry"]["payload"]
            entries[payload["kind"]] += 1
            if payload["kind"] == "draft_token":
                session = payload["session_id"]
                rounds[session] = max(rounds.get(session, 0), payload["round"])
        elif kind == "balance":
            balances += 1
    completed = 0
    failed = collections.Counter()
    for state in final_state.values():
        if state["role"] == "requester" and state["state"] == "completed":
            completed += 1
        if state["state"] == "failed":
            failed[_REASON_KEYS.get(state.get("failure"), "other")] += 1
    return {
        "bytes": len(transcript),
        "msgs_delivered": dict(delivered),
        "msgs_dropped": dict(dropped),
        "state_lines": state_lines,
        "sessions_completed": completed,
        "sessions_failed": dict(failed),
        "ledger_entries": dict(entries),
        "negotiation_rounds": sum(rounds.values()),
        "balance_lines": balances,
    }
