"""The benchmark's workloads and timed phases.

Each run times calls into atcpip's public functions from outside, in
rounds. Every round does the same work on one generated world:

- setup: the world is generated, encoded and loaded again;
- sim: ``run_scenario`` over the world; one run is every scripted
  session negotiated, paid, minted and delivered;
- dispute: ``DisputeCourt.file_dispute`` + ``resolve``, one dispute at
  a time, on the live ledger of that round's sim run;
- tools: ``verify_entries`` on that ledger's export (the
  ``verify-ledger`` path), and ``canon.loads`` + ``Ledger.from_export``
  + ``DisputeCourt.rebuild`` + ``collect_evidence`` on the export's
  bytes (the ``export-evidence`` path).

Since every round starts from the same bytes, each timed call is
repeated on identical state once per round, and the timings report the
median repeat of each call at the reference host speed (``calibrate``).
Correctness checks run between the timed calls, never inside them.
"""

import gc
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass

import calibrate
import worlds

MIN_ROUNDS = 4
DISPUTE_KINDS = ("misrepresentation", "payment_default", "usage_violation")
CLAUSES = ("no_redistribution", "no_training", "read_only")


@dataclass(frozen=True)
class Workload:
    generate: object  # worlds.market or worlds.hot_provider
    sessions: int
    disputes: int  # filed and resolved in every round

    def world(self, seed):
        return self.generate(self.sessions, seed, usage_events=self.sessions // 3)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "market": Workload(worlds.market, sessions=800, disputes=12),
    "hot_provider": Workload(worlds.hot_provider, sessions=900, disputes=6),
}


class Checks:
    """Operations attempted and failed; any failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def absorb(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def p90(values):
    """90th percentile, interpolated within the samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


class Bench:
    """One run of one workload. ``api`` is the atcpip package; calls go
    through its module attributes so that a tracer's rebinding is seen."""

    def __init__(self, api, name, seed, seconds, tracer=None):
        self.api = api
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.checks = Checks()
        # seconds of the timed calls, at the reference host speed
        self.setup_times = []
        self.sim_times = []
        self.dispute_times = []  # per planned dispute, its seconds in every round
        self.verify_times = []
        self.import_times = []
        self.scenario = None
        self.transcript = None  # of the first sim run; every later run must match
        self.tip = None  # ledger tip after the first round's disputes
        self.world = None  # the latest sim run's world
        self.plan = None
        self.dispute_ids = []  # of the latest round
        self.chain_entries = 0  # export length after a round's disputes
        self.measured = {}  # phase -> seconds of each timed call as measured
        self.slowdowns = []  # host slowdown beside each timed call

    def _call(self, phase, function, *args, **kwargs):
        """Time one call; returns its result and its seconds at the
        reference host speed (``calibrate``). In a traced run its spans
        land in ``phase`` and nothing between timed calls is recorded.

        Every live object is collected and then frozen out of the cyclic
        collector first, so the call pays only for the collections its
        own allocations cause, as it would in a fresh ``atcpip`` process,
        and not for scanning the benchmark's earlier worlds.
        """
        gc.collect()
        gc.freeze()
        before = calibrate.slice_seconds()
        if self.tracer is not None:
            self.tracer.phase(phase)
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
            seconds = time.perf_counter() - started
        finally:
            if self.tracer is not None:
                self.tracer.phase(None)
        slowdown = (before + calibrate.slice_seconds()) / 2 / calibrate.REFERENCE_S
        self.measured.setdefault(phase, []).append(seconds)
        self.slowdowns.append(slowdown)
        return result, seconds / slowdown

    @property
    def disputes_run(self):
        return sum(len(times) for times in self.dispute_times)

    # -- set-up ---------------------------------------------------------------

    def _load(self):
        api = self.api
        return api.scenario.scenario_from_bytes(api.canon.dumps(self.workload.world(self.seed)))

    def setup(self):
        gc.unfreeze()  # let the next collection free what earlier rounds left
        self.scenario, seconds = self._call("setup", self._load)
        self.setup_times.append(seconds)

    def run_world(self):
        (transcript, world), seconds = self._call("sim", self.api.sim.run_scenario, self.scenario)
        self.sim_times.append(seconds)
        self.checks.record(self._check_world(transcript, world))
        if self.transcript is None:
            self.transcript = transcript
        self.world = world

    def _check_world(self, transcript, world):
        problems = []
        if self.transcript is not None and transcript != self.transcript:
            problems.append("transcript differs between runs of one world")
        if not world.conservation_intact():
            problems.append("total balances changed")
        # Worlds leave 400 ticks after the last request, far past every
        # protocol timeout, so no session may be left open by max_ticks.
        for runtime in world.runtimes.values():
            for session_id, session in runtime.sessions().items():
                if not session.terminal():
                    problems.append(f"session {session_id} on {runtime.agent_id} not terminal")
        return problems

    # -- timed rounds -----------------------------------------------------------------

    def timed(self):
        """Rounds of set-up, sim, disputes and tools until the run's
        seconds are up.

        Every round loads the world afresh, runs it, files the same seeded
        disputes on its live ledger and runs the tools on the result, so
        each timed call meets the same state in every round and its
        repeats can be compared one to one.
        """
        started = time.perf_counter()
        while len(self.sim_times) < MIN_ROUNDS or time.perf_counter() - started < self.seconds:
            self.setup()
            self.run_world()
            if self.plan is None:
                self.plan = self._dispute_plan()
                self.dispute_times = [[] for _ in self.plan]
            self._disputes()
            self._tools()
        if self.tracer is not None:
            self.tracer.finish()

    def _dispute_plan(self):
        """(session, claimant, respondent, kind, asserted hash, clause), seeded."""
        ledger = self.world.ledger
        rng = random.Random(f"disputes:{self.seed}")
        agreed = [sid for sid in self.scenario.session_ids() if ledger.session_agreement(sid)]
        plan = []
        for session_id in rng.sample(agreed, self.workload.disputes):
            token = ledger.session_agreement(session_id)
            provider, holder = token.metadata.issuer_id, token.metadata.holder_id
            kind = rng.choice(DISPUTE_KINDS)
            asserted, clause = "", ()
            if kind == "misrepresentation":
                claimant, respondent = holder, provider
                if rng.random() < 0.5:
                    asserted = token.terms_hash if rng.random() < 0.5 else "0" * 64
                else:
                    clause = ("ip_restrictions", rng.choice(CLAUSES))
            else:
                claimant, respondent = provider, holder
            plan.append((session_id, claimant, respondent, kind, asserted, clause))
        return plan

    def _disputes(self):
        court = self.world.court

        def dispute(session_id, claimant, respondent, kind, asserted, clause):
            claim = court.file_dispute(
                session_id,
                claimant,
                respondent,
                kind,
                asserted_terms_hash=asserted,
                asserted_clause=clause,
            )
            return court.resolve(claim.dispute_id)

        self.dispute_ids = []
        for step, times in zip(self.plan, self.dispute_times):
            try:
                verdict, seconds = self._call("dispute", dispute, *step)
            except self.api.errors.AtcpipError as exc:
                self.checks.record([f"dispute on {step[0]} raised {exc!r}"])
                continue
            times.append(seconds)
            self.dispute_ids.append(verdict.dispute_id)
            self.checks.record([])
        self._check_verdicts()

    def _check_verdicts(self):
        ledger = self.world.ledger
        verdicts = {entry.payload["dispute_id"] for entry in ledger.entries() if entry.kind == "verdict"}
        missing = [dispute_id for dispute_id in self.dispute_ids if dispute_id not in verdicts]
        problems = [f"no verdict entry for {missing[0]} and {len(missing) - 1} more"] if missing else []
        if self.tip is None:
            self.tip = ledger.tip_hash()
        elif ledger.tip_hash() != self.tip:
            problems.append("ledger tip after the disputes differs between rounds")
        self.checks.record(problems)

    def _tools(self):
        api = self.api
        live_tip = self.world.ledger.tip_hash()
        export = self.world.ledger.export_entries()
        raw = api.canon.dumps(export)
        evidence_for = self.dispute_ids[-1]

        def export_evidence():
            book = api.ledger.Ledger.from_export(api.canon.loads(raw))
            court = api.disputes.DisputeCourt.rebuild(book, api.trust.ReputationBoard(book))
            return book, court.collect_evidence(evidence_for)

        self.chain_entries = len(export)
        intact, seconds = self._call("tools", api.ledger.verify_entries, export)
        self.verify_times.append(seconds)
        self.checks.record([] if intact else ["verify_entries rejected the live export"])
        try:
            (book, bundle), seconds = self._call("tools", export_evidence)
        except api.errors.AtcpipError as exc:
            self.checks.record([f"export-evidence path raised {exc!r}"])
            return
        self.import_times.append(seconds)
        problems = []
        if book.tip_hash() != live_tip:
            problems.append("re-imported tip differs from the live tip")
        if not bundle.entries:
            problems.append(f"evidence for {evidence_for} is empty")
        self.checks.record(problems)

    # -- results ------------------------------------------------------------------------

    def end_to_end(self, import_s):
        """The end-to-end metrics, every time at the reference host speed
        (``calibrate``), ``import_s`` too.

        Each timing is a median over the rounds; the dispute percentiles
        are taken over the planned disputes, each at its median over the
        rounds.
        """
        median = statistics.median
        disputes = [median(times) for times in self.dispute_times]
        return {
            "sessions_per_s": (self.workload.sessions / median(self.sim_times), "sessions/s"),
            "dispute_ms_p50": (median(disputes) * 1e3, "ms"),
            "dispute_ms_p90": (p90(disputes) * 1e3, "ms"),
            "verify_entries_per_s": (self.chain_entries / median(self.verify_times), "entries/s"),
            "import_entries_per_s": (self.chain_entries / median(self.import_times), "entries/s"),
            "setup_s": (import_s + median(self.setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def describe(self):
        print(f"workload: {self.name} seed: {self.seed} backend: {self.api.canon.BACKEND}")
        print(f"transcript_sha256: {sha256(self.transcript)}")
        print(f"ledger_tip: {self.world.ledger.tip_hash()}")
        print(
            f"samples: rounds={len(self.sim_times)} disputes_per_round={len(self.plan)}"
            f" chain_entries={self.chain_entries} sessions={self.workload.sessions}"
        )
        measured = " ".join(f"{phase}={statistics.median(times):.6f}" for phase, times in self.measured.items())
        print(f"median measured seconds: {measured}")
        slowdowns = statistics.quantiles(self.slowdowns, n=10)
        print(f"host slowdown: p10={slowdowns[0]:.3f} p50={slowdowns[4]:.3f} p90={slowdowns[8]:.3f}")
        for problem in self.checks.problems[:20]:
            print(f"check failed: {problem}")
