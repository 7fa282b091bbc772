"""Deterministic discrete-event simulator for scenario files.

One seeded generator drives every random choice (message loss, latency
jitter), and the event queue orders work by (deliver_tick, insertion
sequence), so a scenario plus a seed fully determines the run. The
transcript is a newline-separated list of canonical JSON lines: one meta
line, then message, ledger, balance, state change, and memory lines in
the order they happened; each payment's ledger line is followed by its
balance line. Replays compare transcripts byte for byte.

Timers follow the protocol tables: every event a session processes
restarts the wait its new state listens on, and each reschedule bumps
an epoch counter so stale timer events fall through harmlessly. A
timer event names the agent, the session and the epoch, nothing more.

After an agent acts, a sweep records its sessions' state changes and
restarts their timers. It visits only the sessions that agent's entry
points acted on since its last sweep, in creation order: a transition
changes no session but the one it was handed, so every other session
is still in the state the last sweep recorded, and a visit to it would
write no line and push no timer. The sweep's cost is therefore the work
the agent just did, not the number of sessions it holds.
"""

import heapq
import random
from dataclasses import dataclass

from . import canon
from .disputes import DisputeCourt, record_usage
from .errors import AtcpipError
from .ledger import Ledger
from .negotiation import RISK_TIERS
from .payments import WalletSystem
from .runtime import AgentRuntime
from .trust import ReputationBoard


@dataclass
class WorldState:
    """Everything left standing after a run."""

    ledger: object
    wallets: object
    court: object
    runtimes: dict
    initial_balances: dict
    final_tick: int

    def conservation_intact(self):
        return sum(self.wallets.balances().values()) == sum(self.initial_balances.values())


class Simulation:
    def __init__(self, scenario, seed=None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.tick = 0
        self._counter = 0
        self._queue = []
        self._lines = []
        self._session_state = {}  # (agent_id, session_id) -> last seen state
        self._epoch = {}  # (agent_id, session_id) -> live timer epoch
        self._queued = {}  # (tick, recipient, session_id) -> messages in the queue
        breaks = list(scenario.clock_date_map)
        self.ledger = Ledger(current_date=breaks[0][1])
        self._date_breaks = breaks[1:]
        self._emit({"kind": "meta", "scenario": scenario.name, "seed": self.seed})
        self.ledger.on_append = self._on_ledger
        self.wallets = WalletSystem(self.ledger)
        board = ReputationBoard(self.ledger)
        self.court = DisputeCourt(self.ledger, board)
        profiles = {profile.code: profile for profile in scenario.jurisdictions}
        blocked_pairs = frozenset(frozenset(pair) for pair in scenario.blocked_pairs)
        directory = {spec.agent_id: spec.jurisdiction for spec in scenario.agents}
        network = scenario.network
        self._latency = (network.latency_min, network.latency_max)
        self._drop = {action: float(p) for action, p in network.drop if p > 0}
        self.runtimes = {}
        for spec in scenario.agents:
            self.ledger.register_agent(spec.agent_id, f"secret::{spec.agent_id}".encode())
            self.wallets.open_account(spec.agent_id, spec.balance)
            runtime = AgentRuntime(
                spec.agent_id,
                self.ledger,
                self.wallets,
                board,
                profiles,
                blocked_pairs,
                directory,
                policy=spec.policy,
                tier=RISK_TIERS[spec.tier],
                config=spec.config,
            )
            runtime.clock = self._now
            runtime.on_memory = self._on_memory
            for item in spec.catalog:
                runtime.add_item(item)
            self.runtimes[spec.agent_id] = runtime
        self.initial_balances = dict(self.wallets.balances())
        for event in scenario.script:
            self._push(event.tick, ("script", event))

    # -- plumbing ---------------------------------------------------------------

    def _now(self):
        return self.tick

    def _emit(self, value):
        self._lines.append(canon.dumps(value))

    def _push(self, tick, payload):
        heapq.heappush(self._queue, (tick, self._counter, payload))
        self._counter += 1

    def _on_ledger(self, entry, payload, encoded):
        # canon.dumps of {"kind": "ledger", "tick": ..., "entry": entry.to_value()},
        # built around the payload bytes the ledger has already encoded.
        # A payment line is followed by its balance line, read from the
        # map the ledger encoded, so the sealed entry is not decoded.
        self._lines.append(
            b'{"entry":{"entry_hash":"%s","height":%d,"kind":"%s","payload":%s,'
            b'"payload_hash":"%s"},"kind":"ledger","tick":%d}'
            % (
                entry.entry_hash.encode("ascii"),
                entry.height,
                entry.kind.encode("ascii"),
                encoded,
                entry.payload_hash.encode("ascii"),
                self.tick,
            )
        )
        if entry.kind == "payment":
            self._emit(
                {
                    "kind": "balance",
                    "tick": self.tick,
                    "from": payload["from"],
                    "to": payload["to"],
                    "amount": payload["amount"],
                    "purpose": payload["purpose"],
                    "from_balance": self.wallets.balance(payload["from"]),
                    "to_balance": self.wallets.balance(payload["to"]),
                }
            )

    def _on_memory(self, agent_id, record):
        self._emit(
            {"kind": "memory", "tick": self.tick, "agent": agent_id, "record": record.to_value()}
        )

    # -- event loop ---------------------------------------------------------------

    def run(self):
        max_ticks = self.scenario.max_ticks
        while self._queue:
            tick, _, payload = heapq.heappop(self._queue)
            if tick > max_ticks:
                break
            self.tick = tick
            self._advance_date(tick)
            if payload[0] == "msg":
                message = payload[1]
                key = (tick, message.recipient, message.session_id)
                left = self._queued.pop(key) - 1
                if left:
                    self._queued[key] = left
                self._deliver(message)
            elif payload[0] == "timer":
                self._fire_timer(*payload[1:])
            else:
                self._run_script_event(payload[1])
        world = WorldState(
            ledger=self.ledger,
            wallets=self.wallets,
            court=self.court,
            runtimes=self.runtimes,
            initial_balances=self.initial_balances,
            final_tick=self.tick,
        )
        transcript = b"\n".join(self._lines) + b"\n"
        # The world outlives the run, and its ledger and runtimes hold
        # this simulation through their hooks: drop the lines, and write
        # none for what happens on the world after the run.
        self._lines = []
        self.ledger.on_append = None
        for runtime in self.runtimes.values():
            runtime.on_memory = None
        return transcript, world

    def _advance_date(self, tick):
        while self._date_breaks and self._date_breaks[0][0] <= tick:
            _, date = self._date_breaks.pop(0)
            self.ledger.current_date = date

    def _deliver(self, message):
        self._emit(
            {
                "kind": "msg",
                "tick": self.tick,
                "status": "delivered",
                "frame": message.to_value(),
            }
        )
        runtime = self.runtimes[message.recipient]
        self._route(self._act(runtime, "Message", runtime.receive_message, message))
        self._sweep(runtime, message.session_id)

    def _act(self, runtime, what, handler, *args):
        """Run an agent entry point; a typed error becomes a memory note
        and sends nothing, so one agent's failure cannot end the run."""
        try:
            return handler(*args)
        except AtcpipError as exc:
            runtime.remember(f"{what} handling failed: {exc}")
            return []

    def _route(self, messages):
        low, high = self._latency
        for message in messages:
            probability = self._drop.get(message.action)
            if probability is not None and self.rng.random() < probability:
                self._emit(
                    {
                        "kind": "msg",
                        "tick": self.tick,
                        "status": "dropped",
                        "frame": message.to_value(),
                    }
                )
                continue
            latency = low if low == high else self.rng.randint(low, high)
            key = (self.tick + latency, message.recipient, message.session_id)
            self._queued[key] = self._queued.get(key, 0) + 1
            self._push(self.tick + latency, ("msg", message))

    def _sweep(self, runtime, touched_session_id=None):
        """Record state changes and restart timers after an agent acted.

        Visits the sessions the agent's entry points acted on since its
        last sweep, which include the touched session, in creation order;
        no other session's state can have changed. When an entry point
        raises and its sweep is skipped, the agent keeps those ids for
        its next sweep. A session's timer restarts when its state changed
        or when it just processed an event (each received message
        restarts the listen wait). Bumping the epoch quietly cancels
        whatever was pending.
        """
        for session_id, session in runtime.sessions(acted=True).items():
            key = (runtime.agent_id, session_id)
            previous = self._session_state.get(key)
            changed = session.state is not previous
            if changed:
                self._session_state[key] = session.state
                value = {
                    "kind": "state",
                    "tick": self.tick,
                    "agent": runtime.agent_id,
                    "session": session_id,
                    "role": session.role,
                    "state": session.state.value,
                }
                if session.failure_reason:
                    value["failure"] = session.failure_reason
                if session.reject_reason:
                    value["reject"] = session.reject_reason
                self._emit(value)
            if changed or session_id == touched_session_id:
                epoch = self._epoch.get(key, 0) + 1
                self._epoch[key] = epoch
                if not session.terminal():
                    ticks = runtime.timer_for(session_id)
                    if ticks is not None:
                        self._push(
                            self.tick + ticks, ("timer", runtime.agent_id, session_id, epoch)
                        )

    def _fire_timer(self, agent_id, session_id, epoch):
        if self._epoch.get((agent_id, session_id)) != epoch:
            return
        if self._queued.get((self.tick, agent_id, session_id)):
            # A message for this wait lands on the deadline tick itself.
            # Arrival wins the tie: its sweep restarts the wait, which
            # leaves this deadline stale.
            return
        runtime = self.runtimes[agent_id]
        self._route(self._act(runtime, "Timer", runtime.expire_timer, session_id))
        self._sweep(runtime, session_id)

    # -- scripted events ------------------------------------------------------------

    def _run_script_event(self, event):
        body = event.body
        try:
            handler = getattr(self, f"_script_{event.action}")
            handler(body)
        except AtcpipError as exc:
            agent_id = (
                body.get("agent")
                or body.get("requester")
                or body.get("seller")
                or body.get("claimant")
            )
            self.runtimes[agent_id].remember(f"Script event {event.action!r} failed: {exc}")

    def _script_request(self, body):
        runtime = self.runtimes[body["requester"]]
        outbound = runtime.start_request(
            body["session_id"],
            body["provider"],
            body["content_id"],
            offer=body.get("offer"),
            purpose=body.get("purpose", ""),
        )
        self._route(outbound)
        self._sweep(runtime, body["session_id"])

    def _script_decide_courtship(self, body):
        runtime = self.runtimes[body["agent"]]
        self._route(runtime.decide_courtship(body["content_id"]))
        self._sweep(runtime)

    def _script_downstream_sale(self, body):
        seller = self.runtimes[body["seller"]]
        seller.sell(
            body["content_id"], body["buyer"], body["price"], session_id=body.get("session_id", "")
        )

    def _script_usage(self, body):
        token = self.ledger.session_agreement(body["session_id"])
        if token is None:
            self.runtimes[body["agent"]].remember(
                f"Usage event without license for session {body['session_id']}."
            )
            return
        record_usage(self.ledger, body["agent"], token.license_id, body["tags"])

    def _script_dispute(self, body):
        claimant = body["claimant"]
        session_id = body["session_id"]
        token = self.ledger.session_agreement(session_id)
        if token is None:
            self.runtimes[claimant].remember(
                f"Dispute without license for session {session_id}."
            )
            return
        parties = {token.metadata.issuer_id, token.metadata.holder_id}
        others = sorted(parties - {claimant})
        respondent = others[0] if others else claimant
        claim = self.court.file_dispute(
            session_id,
            claimant,
            respondent,
            body["kind"],
            asserted_terms_hash=body.get("terms_hash", ""),
            asserted_clause=tuple(body.get("clause", ())),
        )
        verdict = self.court.resolve(claim.dispute_id)
        self.runtimes[claimant].remember(
            f"Dispute {claim.dispute_id} resolved: {verdict.rationale}."
        )

    def _script_log(self, body):
        self.runtimes[body["agent"]].remember(body["text"])


def run_scenario(scenario, seed=None):
    """Run a scenario to completion; returns (transcript bytes, WorldState)."""
    return Simulation(scenario, seed=seed).run()


def replay(scenario, recorded):
    """Re-run and compare byte for byte against a recorded transcript.

    The seed comes from the transcript's own meta line when present, so
    a recording made with a seed override still replays against the same
    scenario file.
    """
    recorded = bytes(recorded)
    seed = None
    try:
        meta = canon.loads(recorded.split(b"\n", 1)[0])
    except AtcpipError:
        meta = None
    if isinstance(meta, dict) and meta.get("kind") == "meta":
        candidate = meta.get("seed")
        if isinstance(candidate, int) and not isinstance(candidate, bool):
            seed = candidate
    fresh, _ = run_scenario(scenario, seed=seed)
    return fresh == recorded


def check_expectations(scenario, world):
    """Compare a finished world against the scenario's expectations.

    Returns a list of human-readable mismatch descriptions; empty means
    every expectation held.
    """
    problems = []
    expectations = scenario.expectations
    for agent_id, want in expectations.get("balances", {}).items():
        got = world.wallets.balance(agent_id)
        if got != want:
            problems.append(f"balance of {agent_id}: expected {want}, got {got}")
    for session_id, want in expectations.get("states", {}).items():
        found = False
        for runtime in world.runtimes.values():
            if runtime.has_session(session_id):
                found = True
                got = runtime.session(session_id).state.value
                if got != want:
                    problems.append(
                        f"session {session_id} on {runtime.agent_id}:"
                        f" expected {want}, got {got}"
                    )
        if not found:
            problems.append(f"session {session_id}: never opened")
    for agent_id, contents in expectations.get("holdings", {}).items():
        runtime = world.runtimes[agent_id]
        for content_id in contents:
            token = runtime.tokens.get(content_id)
            if token is None:
                problems.append(f"{agent_id} holds no license token for {content_id}")
            elif not world.ledger.verify_token(token, token.terms):
                problems.append(f"{agent_id} token for {content_id} does not verify")
    for agent_id, needles in expectations.get("memory_contains", {}).items():
        texts = world.runtimes[agent_id].memory_texts()
        for needle in needles:
            if not any(needle in text for text in texts):
                problems.append(f"memory of {agent_id} lacks {needle!r}")
    if expectations.get("payments"):
        recorded = [
            entry.payload for entry in world.ledger.entries() if entry.kind == "payment"
        ]
        for line in expectations["payments"]:
            matches = [
                payload
                for payload in recorded
                if payload["from"] == line["from"]
                and payload["to"] == line["to"]
                and payload["amount"] == line["amount"]
            ]
            if not matches:
                problems.append(
                    f"no payment of {line['amount']} from {line['from']} to {line['to']}"
                )
    return problems
