"""The sharded marketplace tick engine: parallel campaign shards, serial commits.

The reference engine (:meth:`MarketplaceOrchestrator._tick`) steps every
campaign in one process.  This module splits each tick into two phases:

* **Parallel phase** — campaigns are deterministically partitioned into
  shards (:func:`shard_of`: a stable splitmix64 hash of the campaign
  name, *not* Python's salted ``hash``).  Each shard owns full replica
  campaign state — the real :class:`~repro.marketplace.lifecycle.CampaignHandle`
  machinery over replica pools — and does everything *except* routing:
  selection rounds, answer simulation, aggregation, drift tracking and
  task bookkeeping.  Instead of routing, a shard emits **intents** (which
  tasks want votes) plus the deltas the parent must mirror (delivered
  answers, drift demotions).
* **Serial commit phase** — the parent merges shard outputs in spec
  order against the *true* shared pools: it applies demotions and
  delivered-answer completions, routes every intent through the real
  routers (so shared-worker capacity is reconciled exactly as the
  reference engine would), performs registrations/re-qualifications, and
  assembles the tick's journal event.

Routing outcomes flow back to the shards with a one-tick lag: intents
emitted at step ``t`` are routed at commit ``t`` and adopted by the shard
at input ``t+1``.  Because an answer is only delivered at least one tick
after its vote was routed (delivery precedes submission inside a step),
the lag is invisible — the sharded engine produces **byte-identical
journals and final state** to the reference engine at any
``(n_shards, tick_batch)``.

Worker churn stays parent-side: the parent runs the same
:class:`~repro.marketplace.orchestrator.Marketplace` departure/arrival
code over lightweight :class:`CommitCampaign` adapters, computes
invalidation records with the true routers, and ships the records plus
joined/departed workers to the shards, which replay them verbatim.
Answer draws are per ``(campaign, worker)`` counter streams
(:func:`repro.marketplace.orchestrator.simulate_answers`), so a shard can
draw its campaigns' answers without consulting the parent registry.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign import Campaign
from repro.marketplace.lifecycle import CampaignHandle, CampaignPhase, CampaignSpec
from repro.obs.timing import perf_counter
from repro.platform.tasks import Task
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.routing import NoEligibleWorkersError, make_router, router_engines
from repro.serving.service import working_task_stream
from repro.stats.rng import derive_seed, token_hashes


def shard_of(campaign_name: str, n_shards: int) -> int:
    """Deterministic shard index of a campaign (stable across runs/processes).

    Uses the repo's splitmix64 token hash — Python's builtin ``hash`` is
    salted per process and would scatter campaigns differently on every
    run.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return int(token_hashes([campaign_name])[0]) % n_shards


@dataclass
class WireWorker:
    """A worker's answer-simulation profile, shipped parent -> shard.

    Carries exactly what a shard needs to (a) build a replica pool member
    and (b) draw the worker's answers for one campaign.  Qualifications
    deliberately do **not** travel: replica pool members carry empty
    qualification maps, so replica-side drift demotions are no-ops and
    the true tiers live only on the parent's shared pools.
    """

    worker_id: str
    max_concurrent: int
    target_domain: str
    exposure_offset: float
    accuracies: Dict[str, float]
    behavior: Optional[object] = None


class _ShardAnswerBook:
    """Quacks like ``Marketplace`` for a shard handle's answer lookups."""

    def __init__(self, handle: "ShardCampaignHandle") -> None:
        self._handle = handle

    def answer(self, worker_id: str, task: Task, campaign: str) -> bool:
        return self.answers([(worker_id, task)], campaign)[0]

    def answers(self, pairs: Sequence[Tuple[str, Task]], campaign: str) -> List[bool]:
        # Import here: orchestrator imports this module lazily from run(),
        # and this module must stay importable before orchestrator finishes
        # loading during that dance.
        from repro.marketplace.orchestrator import simulate_answers

        handle = self._handle
        counts: List[int] = []
        for worker_id, _ in pairs:
            count = handle._answer_counts.get(worker_id, 0)
            handle._answer_counts[worker_id] = count + 1
            counts.append(count)
        return simulate_answers(
            handle._answer_seed,
            campaign,
            [handle._wire[worker_id] for worker_id, _ in pairs],
            [task for _, task in pairs],
            counts,
        )


class ShardCampaignHandle(CampaignHandle):
    """A campaign handle living inside a shard process.

    Reuses the whole :class:`CampaignHandle` serving machinery (replica
    pool, real :class:`~repro.serving.service.AnnotationService`,
    aggregator, drift tracker, task stream, scheduled answers) but never
    routes: :meth:`shard_step` emits intents and deltas, and
    :meth:`apply_outcome` adopts what the parent's commit phase decided.
    """

    def __init__(self, spec: CampaignSpec, config, answer_seed: int) -> None:
        super().__init__(spec, config, marketplace=None)
        self._answer_seed = int(answer_seed)
        self._marketplace = _ShardAnswerBook(self)
        #: Per-worker answer-simulation profiles for THIS campaign.
        self._wire: Dict[str, WireWorker] = {}
        #: Per-worker answer counts for THIS campaign's draw streams.
        self._answer_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Parallel phase: one shard-local step
    # ------------------------------------------------------------------ #
    def shard_step(self, tick: int) -> Dict[str, object]:
        """Advance one tick locally; returns the shard output payload."""
        out: Dict[str, object] = {"campaign": self.spec.name, "kind": "noop", "core": {}}
        if self.phase is CampaignPhase.SELECTING:
            self._shard_step_selecting(out)
        elif self.phase is CampaignPhase.SERVING:
            self._shard_step_serving(tick, out)
        elif self.phase is CampaignPhase.RESELECTING:
            self._shard_step_reselecting(tick, out)
        return out

    def _shard_step_selecting(self, out: Dict[str, object]) -> None:
        for _ in range(self._config.selection_rounds_per_tick):
            if self.campaign.step() is None:
                break
        out["kind"] = "selecting"
        out["core"] = {"rounds_completed": self.campaign.rounds_completed}
        if not self.campaign.finished:
            return
        out["kind"] = "selection_finished"
        manifest = self.campaign.selection_manifest()
        behaviors = {worker.worker_id: worker for worker in self.campaign.instance.pool}
        out["selection"] = {"manifest": manifest, "behaviors": behaviors}
        # Build the task stream now (it needs the campaign instance, which
        # lives shard-side); the phase transition itself waits for the
        # parent's "build" outcome carrying the true pool membership.
        self._tasks = working_task_stream(self.campaign.instance.task_bank, self._config.total_tasks)
        self._task_by_id = {task.task_id: task for task in self._tasks}

    def _shard_step_serving(self, tick: int, out: Dict[str, object]) -> None:
        assert self.service is not None
        out["kind"] = "serving"
        demote_mark = len(self.service.tracker.events)
        self.service.finalize_ready()
        delivered = self._deliver_due_answers(tick)
        out["core"] = {"delivered": delivered}
        out["intents"] = [
            (task.task_id, task.domain) for task in self._peek_tasks()
        ]
        out["demote_intents"] = [
            (event.worker_id, event.domain)
            for event in self.service.tracker.events[demote_mark:]
        ]
        out["reselect"] = False
        out["done"] = False
        if (
            self.service.reselection_recommended
            and self.reselections < self._config.max_reselections
        ):
            out["reselect"] = True
            out["reselection_domains"] = list(self.service.reselection_domains)
        elif (
            not out["intents"]
            and not self.service.pending_task_ids
            and not self._scheduled
        ):
            # Same condition as the reference done-check: an empty intent
            # list means the cursor is exhausted and the retry queue empty.
            self._merge_labels()
            self._transition(CampaignPhase.DONE)
            out["done"] = True
        out["phase_after"] = self.phase.value

    def _shard_step_reselecting(self, tick: int, out: Dict[str, object]) -> None:
        assert self._checkpoint is not None
        if tick < int(self._checkpoint["resume_at_tick"]):
            out["kind"] = "reselect_wait"
            return
        # Restore from the checkpoint exactly as the reference engine does
        # at its requalify tick (idempotent when the resume attempt fails
        # and repeats next tick).
        self.campaign = Campaign.from_state_dict(self._checkpoint["campaign"])
        out["kind"] = "resume_request"
        out["resume"] = {"k": self.campaign.k, "ewma": self.service.tracker.snapshot()}

    def _peek_tasks(self) -> List[Task]:
        """The next up-to-``tasks_per_tick`` tasks, *without* consuming them."""
        budget = self._config.tasks_per_tick
        candidates: List[Task] = []
        for task_id in self._retry:
            if len(candidates) >= budget:
                return candidates
            candidates.append(self._task_by_id[task_id])
        index = self._cursor
        while index < len(self._tasks) and len(candidates) < budget:
            candidates.append(self._tasks[index])
            index += 1
        return candidates

    # ------------------------------------------------------------------ #
    # Input application (start of the NEXT tick, before shard_step)
    # ------------------------------------------------------------------ #
    def _adopt_members(self, members: Sequence[WireWorker]) -> List[ServingWorker]:
        replicas: List[ServingWorker] = []
        for wire in members:
            self._wire[wire.worker_id] = wire
            replicas.append(
                ServingWorker(
                    worker_id=wire.worker_id,
                    qualifications={},
                    max_concurrent=wire.max_concurrent,
                )
            )
        return replicas

    def apply_outcome(self, outcome: Dict[str, object], routed_tick: int) -> None:
        """Apply the parent's commit-phase outcome for tick ``routed_tick``."""
        kind = outcome["kind"]
        if kind == "build":
            self._build_serving(self._adopt_members(outcome["members"]))
            self._transition(CampaignPhase.SERVING)
            return
        if kind == "resume":
            self._build_serving(self._adopt_members(outcome["members"]))
            self.reselections += 1
            self._transition(CampaignPhase.SERVING)
            return
        assert kind == "serving", kind
        assert self.service is not None
        due = routed_tick + self._config.answer_delay
        for task_id, worker_ids in outcome["routed"]:
            task = self._task_by_id[task_id]
            self._consume_task()
            self._submitted += 1
            self.service.adopt_assignment(task, worker_ids)
            for worker_id in worker_ids:
                self._scheduled.append((due, task_id, worker_id))
        if outcome["stalled"]:
            self.stalled_ticks += 1
        if outcome["reselected"]:
            # Mirrors _enter_reselecting, using the parent's reselect tick.
            self._merge_labels()
            abandoned = self.service.abandon_pending()
            self._scheduled.clear()
            for task_id in abandoned:
                self._retry.append(task_id)
            self._checkpoint = {
                "campaign": self.campaign.state_dict(),
                "tick": routed_tick,
                "resume_at_tick": routed_tick + self._config.requalify_ticks,
                "reselection_index": self.reselections,
            }
            self._transition(CampaignPhase.RESELECTING)

    def apply_invalidations(self, records: List[Dict[str, object]], tick: int) -> None:
        assert self.service is not None
        for record in records:
            self.service.apply_invalidation_record(record)
        self.on_invalidations(records, tick)

    def apply_departure(self, worker_id: str) -> None:
        if self.pool is not None and worker_id in self.pool:
            self.pool.remove_worker(worker_id)

    def apply_joined(self, members: Sequence[WireWorker]) -> None:
        assert self.pool is not None
        for replica in self._adopt_members(members):
            self.pool.add_worker(replica)


class ShardRuntime:
    """All of one shard's campaigns plus the per-tick wire protocol."""

    def __init__(self, shard_index: int, specs: Sequence[CampaignSpec], config, seed: int) -> None:
        self.shard_index = shard_index
        answer_seed = derive_seed(int(seed), "marketplace", "answers")
        self.handles: List[ShardCampaignHandle] = [
            ShardCampaignHandle(spec, config, answer_seed) for spec in specs
        ]
        self._by_name = {handle.spec.name: handle for handle in self.handles}

    def apply_inputs(self, payload: Dict[str, object]) -> None:
        """Apply one tick's inputs in the reference engine's order.

        Routed outcomes (tick ``t-1``) land before this tick's
        invalidations — matching the reference, where tick ``t-1``
        submissions precede tick ``t`` departures — then departures, then
        arrivals, exactly the reference intra-tick order.
        """
        tick = int(payload["tick"])
        outcome_tick = payload["outcome_tick"]
        outcomes: Dict[str, Dict[str, object]] = payload.get("outcomes", {})
        for handle in self.handles:
            outcome = outcomes.get(handle.spec.name)
            if outcome is not None:
                handle.apply_outcome(outcome, int(outcome_tick))
        invalidations: Dict[str, List[Dict[str, object]]] = payload.get("invalidations", {})
        for handle in self.handles:
            records = invalidations.get(handle.spec.name)
            if records:
                handle.apply_invalidations(records, tick)
        for worker_id in payload.get("departed", ()):
            for handle in self.handles:
                handle.apply_departure(worker_id)
        joined: Dict[str, List[WireWorker]] = payload.get("joined", {})
        for handle in self.handles:
            members = joined.get(handle.spec.name)
            if members:
                handle.apply_joined(members)

    def tick(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.apply_inputs(payload)
        tick = int(payload["tick"])
        outputs = {handle.spec.name: handle.shard_step(tick) for handle in self.handles}
        return {"outputs": outputs, "steps": len(self.handles)}

    def drain(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Apply the final commit's outcomes (no step) and report summaries."""
        outcome_tick = payload["outcome_tick"]
        outcomes: Dict[str, Dict[str, object]] = payload.get("outcomes", {})
        for handle in self.handles:
            outcome = outcomes.get(handle.spec.name)
            if outcome is not None:
                handle.apply_outcome(outcome, int(outcome_tick))
        return {"summaries": {handle.spec.name: handle.summary() for handle in self.handles}}


# ---------------------------------------------------------------------- #
# Shard executors
# ---------------------------------------------------------------------- #
class InlineShardExecutor:
    """Run every shard in-process (tests, single-core fallbacks).

    Requests and replies take a pickle round-trip, so anything that would
    not survive the process transport fails here too — the equivalence
    tests exercise the real wire format without fork overhead.
    """

    def __init__(self, runtimes: Sequence[ShardRuntime]) -> None:
        self._runtimes = list(runtimes)

    @staticmethod
    def _roundtrip(value: object) -> object:
        return pickle.loads(pickle.dumps(value))

    def tick(self, payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        replies = []
        for runtime, payload in zip(self._runtimes, payloads):
            replies.append(self._roundtrip(runtime.tick(self._roundtrip(payload))))
        return replies

    def drain(self, payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        replies = []
        for runtime, payload in zip(self._runtimes, payloads):
            replies.append(self._roundtrip(runtime.drain(self._roundtrip(payload))))
        return replies

    def close(self) -> None:
        self._runtimes = []


def _shard_worker_main(runtime: ShardRuntime, conn) -> None:
    """Entry point of one forked shard process (lockstep request loop)."""
    import traceback

    while True:
        try:
            kind, payload = conn.recv()
        except EOFError:
            return
        if kind == "close":
            return
        try:
            if kind == "tick":
                conn.send(("ok", runtime.tick(payload)))
            elif kind == "drain":
                conn.send(("ok", runtime.drain(payload)))
            else:  # pragma: no cover - protocol guard
                conn.send(("error", f"unknown request {kind!r}"))
        # repro: allow[S002] -- the traceback is shipped to the parent, which re-raises it
        except Exception:
            conn.send(("error", traceback.format_exc()))
            return


class ProcessShardExecutor:
    """One forked process per shard, driven in lockstep over pipes.

    Processes are forked once at run start, inheriting their fully built
    :class:`ShardRuntime` (fork keeps the parent's memory, so nothing is
    pickled at spawn); per-tick traffic is the small input/output payload.
    """

    def __init__(self, runtimes: Sequence[ShardRuntime]) -> None:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for runtime in runtimes:
            parent_conn, child_conn = context.Pipe(duplex=True)
            proc = context.Process(
                target=_shard_worker_main, args=(runtime, child_conn), daemon=True
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _collect(self) -> List[Dict[str, object]]:
        replies = []
        for conn in self._conns:
            try:
                status, payload = conn.recv()
            except EOFError as error:
                raise RuntimeError("a marketplace shard process died mid-tick") from error
            if status != "ok":
                raise RuntimeError(f"marketplace shard failed:\n{payload}")
            replies.append(payload)
        return replies

    def tick(self, payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        for conn, payload in zip(self._conns, payloads):
            conn.send(("tick", payload))
        return self._collect()

    def drain(self, payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        for conn, payload in zip(self._conns, payloads):
            conn.send(("drain", payload))
        return self._collect()

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - cleanup guard
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []


SHARD_EXECUTORS = ("process", "inline")


# ---------------------------------------------------------------------- #
# Parent-side commit state
# ---------------------------------------------------------------------- #
@dataclass
class _MirrorPending:
    """Parent-side mirror of one in-flight task's unanswered votes."""

    domain: str
    expected: Tuple[str, ...]
    answers: Set[str] = field(default_factory=set)


class _EwmaView:
    """Read-only tracker shim over a shard-shipped EWMA table."""

    def __init__(self, table: Dict[str, Dict[str, float]]) -> None:
        self._table = table

    def ewma(self, worker_id: str, domain: str) -> Optional[float]:
        return self._table.get(worker_id, {}).get(domain)


class _CommitService:
    """The parent's per-campaign routing/invalidation state.

    Replays exactly the marketplace-relevant slice of
    :class:`~repro.serving.service.AnnotationService` against the *true*
    shared pool: vote routing for shard intents, departure invalidation
    (including deterministic replacement re-routes through
    ``route_excluding``) and reselection abandonment.  Aggregation and
    drift stay shard-side; ``tracker`` is an :class:`_EwmaView` refreshed
    from each resume request so :meth:`Marketplace.requalify` reads the
    shard's live agreement signal.
    """

    def __init__(self, pool: ServingPool, config) -> None:
        self._pool = pool
        router_config: Dict[str, object] = {}
        if config.routing_engine in router_engines(config.router):
            router_config["engine"] = config.routing_engine
        self._router = make_router(config.router, pool, **router_config)
        self._votes_per_task = config.votes_per_task
        self._mirror: Dict[str, _MirrorPending] = {}
        self.tracker = _EwmaView({})

    def route_intent(self, task_id: str, domain: str) -> List[str]:
        """Route one intent; raises ``NoEligibleWorkersError`` on a stall."""
        worker_ids = self._router.route(domain, self._votes_per_task)
        self._mirror[task_id] = _MirrorPending(domain=domain, expected=tuple(worker_ids))
        return list(worker_ids)

    def apply_delivered(self, task_id: str, worker_id: str) -> None:
        """Mirror one shard-delivered answer onto the true pool."""
        entry = self._mirror[task_id]
        entry.answers.add(worker_id)
        self._pool.complete_assignment(worker_id)
        if len(entry.answers) == len(entry.expected):
            # A fully answered task can never be touched by a later
            # invalidation (every expected vote is answered), so the
            # mirror entry is safe to retire immediately even though the
            # shard's replica keeps it pending until finalize_ready().
            del self._mirror[task_id]

    def invalidate_worker(self, worker_id: str) -> List[Dict[str, object]]:
        """The reference invalidation, against the mirror + true router."""
        invalidated: List[Dict[str, object]] = []
        for task_id in list(self._mirror):
            entry = self._mirror[task_id]
            if worker_id not in entry.expected or worker_id in entry.answers:
                continue
            self._pool.release_assignment(worker_id)
            exclude = set(entry.expected) | {worker_id}
            entry.expected = tuple(w for w in entry.expected if w != worker_id)
            replacements = self._router.route_excluding(entry.domain, 1, exclude)
            entry.expected = entry.expected + tuple(replacements)
            record: Dict[str, object] = {
                "task_id": task_id,
                "domain": entry.domain,
                "worker_id": worker_id,
                "replacements": list(replacements),
                "abandoned": not entry.expected,
            }
            invalidated.append(record)
            if not entry.expected:
                del self._mirror[task_id]
        return invalidated

    def abandon_pending(self) -> List[str]:
        """Release unanswered true-pool charges; returns ids in routing order."""
        abandoned: List[str] = []
        for task_id in list(self._mirror):
            entry = self._mirror.pop(task_id)
            for worker_id in entry.expected:
                if worker_id not in entry.answers:
                    self._pool.release_assignment(worker_id)
            abandoned.append(task_id)
        return abandoned


class _CampaignShim:
    """Quacks like ``Campaign`` for the few attrs ``requalify`` touches."""

    def __init__(self) -> None:
        self.k: Optional[int] = None


class CommitCampaign:
    """Parent-side stand-in for a shard-resident campaign handle.

    Presents the exact attribute surface :class:`Marketplace` touches
    (``spec``, ``phase``, ``pool``, ``service``, ``target_domain``,
    ``campaign.k``, ``on_invalidations``), so the reference churn and
    re-qualification code runs verbatim against the true shared pools
    while the heavy per-campaign state lives in a shard process.
    """

    def __init__(self, spec: CampaignSpec, config) -> None:
        self.spec = spec
        self._config = config
        self.phase = CampaignPhase.SELECTING
        self.pool: Optional[ServingPool] = None
        self.service: Optional[_CommitService] = None
        self.campaign = _CampaignShim()
        self.target_domain: Optional[str] = None
        #: Invalidation records of the current tick, drained by the engine.
        self.pending_invalidations: List[Dict[str, object]] = []

    def on_invalidations(self, records: List[Dict[str, object]], tick: int) -> None:
        self.pending_invalidations.extend(records)

    def build_pool(self, members: Sequence[ServingWorker]) -> None:
        ewma = self.service.tracker if self.service is not None else _EwmaView({})
        self.pool = ServingPool(list(members), policy=self._config.qualification)
        self.service = _CommitService(self.pool, self._config)
        self.service.tracker = ewma


class _ShardMetrics:
    """Pre-bound shard-engine metric children (parent-side only)."""

    __slots__ = ("ticks", "merge_conflicts", "reroutes", "parallel_seconds", "commit_seconds")

    def __init__(self, registry) -> None:
        self.ticks = registry.counter(
            "marketplace.shard.ticks", "campaign steps executed in shard parallel phases"
        )
        self.merge_conflicts = registry.counter(
            "marketplace.shard.merge_conflicts",
            "commit-phase routing stalls (shared-worker capacity conflicts)",
        )
        self.reroutes = registry.counter(
            "marketplace.shard.reroutes",
            "replacement votes re-routed deterministically at commit",
        )
        phase_seconds = registry.gauge(
            "marketplace.shard.phase_seconds",
            "wall-clock seconds of the last tick's phases (volatile)",
            ("phase",),
            volatile=True,
        )
        self.parallel_seconds = phase_seconds.labels("parallel")
        self.commit_seconds = phase_seconds.labels("commit")


class ShardedTickEngine:
    """Drive one orchestrator run through the two-phase sharded protocol."""

    def __init__(self, orchestrator, executor: str = "process") -> None:
        if executor not in SHARD_EXECUTORS:
            raise ValueError(
                f"unknown shard executor {executor!r}; choose from: {', '.join(SHARD_EXECUTORS)}"
            )
        # Lazy import against the lazy import in orchestrator.run().
        from repro.marketplace.churn import ChurnModel
        from repro.marketplace.orchestrator import Marketplace

        self._specs: List[CampaignSpec] = list(orchestrator._specs)
        self._config = orchestrator._config
        self._seed = orchestrator._seed
        self._metrics = orchestrator._metrics
        telemetry = orchestrator._telemetry
        self._shard_metrics = (
            _ShardMetrics(telemetry.registry) if telemetry is not None else None
        )
        n_shards = self._config.n_shards
        by_shard: Dict[int, List[CampaignSpec]] = {}
        for spec in self._specs:
            by_shard.setdefault(shard_of(spec.name, n_shards), []).append(spec)
        self._shard_indexes = sorted(by_shard)
        runtimes = [
            ShardRuntime(index, by_shard[index], self._config, self._seed)
            for index in self._shard_indexes
        ]
        self._shard_campaigns = {
            index: [spec.name for spec in by_shard[index]] for index in self._shard_indexes
        }
        population = orchestrator._population
        if population is None:
            # Same default as the reference engine: the first campaign's
            # dataset population. The campaign objects live in the (not
            # yet forked) runtimes.
            first = self._specs[0].name
            for runtime in runtimes:
                for handle in runtime.handles:
                    if handle.spec.name == first:
                        population = handle.campaign.instance.spec.population
        self.marketplace = Marketplace(self._config, population, self._seed)
        self._adapters = {spec.name: CommitCampaign(spec, self._config) for spec in self._specs}
        for spec in self._specs:
            self.marketplace.attach(self._adapters[spec.name])
        self._churn = ChurnModel(orchestrator._churn_config, self._seed)
        # Fork (or wrap) AFTER all shard state is built so child processes
        # inherit fully initialised runtimes.
        if executor == "process":
            self._executor = ProcessShardExecutor(runtimes)
        else:
            self._executor = InlineShardExecutor(runtimes)
        self._pending_outcomes: Dict[str, Dict[str, object]] = {}
        self._last_tick: Optional[int] = None

    # ------------------------------------------------------------------ #
    def _wire(self, worker_id: str) -> WireWorker:
        worker = self.marketplace.workers[worker_id]
        return WireWorker(
            worker_id=worker.worker_id,
            max_concurrent=worker.serving.max_concurrent,
            target_domain=worker.target_domain,
            exposure_offset=worker.exposure_offset,
            accuracies=dict(worker.accuracies),
            behavior=worker.behavior,
        )

    def _shard_payloads(
        self,
        tick: int,
        invalidations: Dict[str, List[Dict[str, object]]],
        departed: List[str],
        joined: Dict[str, List[WireWorker]],
    ) -> List[Dict[str, object]]:
        payloads = []
        for index in self._shard_indexes:
            names = self._shard_campaigns[index]
            payloads.append(
                {
                    "tick": tick,
                    "outcome_tick": tick - 1,
                    "outcomes": {
                        name: self._pending_outcomes[name]
                        for name in names
                        if name in self._pending_outcomes
                    },
                    "invalidations": {
                        name: invalidations[name] for name in names if name in invalidations
                    },
                    "departed": departed,
                    "joined": {name: joined[name] for name in names if name in joined},
                }
            )
        return payloads

    def tick(self, tick: int) -> Dict[str, object]:
        """One sharded tick; returns the (byte-identical) journal record."""
        # --- serial churn prologue: the reference tick order, verbatim ---
        departing = self._churn.departures_among(self.marketplace.present_ids(), tick)
        annotated: List[Dict[str, object]] = []
        for worker_id in departing:
            annotated.extend(self.marketplace.depart(worker_id, tick))
        invalidations: Dict[str, List[Dict[str, object]]] = {}
        for name, adapter in self._adapters.items():
            if adapter.pending_invalidations:
                invalidations[name] = adapter.pending_invalidations
                adapter.pending_invalidations = []
        arrivals = self.marketplace.admit_arrivals(tick, self._churn.arrivals_at(tick))
        joined: Dict[str, List[WireWorker]] = {}
        for event in arrivals:
            if not event["admitted"]:
                continue
            worker_id = str(event["worker_id"])
            for name, adapter in self._adapters.items():
                if adapter.pool is not None and worker_id in adapter.pool:
                    joined.setdefault(name, []).append(self._wire(worker_id))
        # --- parallel phase ---
        start = perf_counter()
        replies = self._executor.tick(
            self._shard_payloads(tick, invalidations, list(departing), joined)
        )
        parallel_s = perf_counter() - start
        outputs: Dict[str, Dict[str, object]] = {}
        steps = 0
        for reply in replies:
            outputs.update(reply["outputs"])
            steps += reply["steps"]
        # --- serial commit phase ---
        start = perf_counter()
        events: List[Dict[str, object]] = []
        outcomes: Dict[str, Dict[str, object]] = {}
        stalls = 0
        for spec in self._specs:
            event, outcome = self._commit_campaign(spec.name, outputs[spec.name], tick)
            events.append(event)
            if outcome is not None:
                outcomes[spec.name] = outcome
                if outcome.get("stalled"):
                    stalls += 1
        self._pending_outcomes = outcomes
        self._last_tick = tick
        commit_s = perf_counter() - start
        metrics = self._metrics
        if metrics is not None:
            metrics.ticks.inc()
            metrics.departures.inc(len(departing))
            metrics.invalidations.inc(len(annotated))
            for event in arrivals:
                (metrics.admitted if event["admitted"] else metrics.rejected).inc()
            for event in events:
                metrics.campaign_events.labels(str(event["phase"])).inc()
        if self._shard_metrics is not None:
            self._shard_metrics.ticks.inc(steps)
            self._shard_metrics.merge_conflicts.inc(stalls)
            self._shard_metrics.reroutes.inc(
                sum(len(record["replacements"]) for record in annotated)
            )
            self._shard_metrics.parallel_seconds.set(parallel_s)
            self._shard_metrics.commit_seconds.set(commit_s)
        return {
            "type": "tick",
            "tick": tick,
            "departures": list(departing),
            "invalidations": annotated,
            "arrivals": arrivals,
            "campaigns": events,
        }

    def _commit_campaign(
        self, name: str, output: Dict[str, object], tick: int
    ) -> Tuple[Dict[str, object], Optional[Dict[str, object]]]:
        adapter = self._adapters[name]
        kind = output["kind"]
        event: Dict[str, object] = {"campaign": name, "phase": adapter.phase.value}
        event.update(output.get("core", {}))
        if kind == "noop" or kind == "reselect_wait":
            return event, None
        if kind == "selecting":
            return event, None
        if kind == "selection_finished":
            selection = output["selection"]
            members = self.marketplace.register_selected(
                adapter, selection["manifest"], tick, behaviors=selection["behaviors"]
            )
            adapter.target_domain = selection["manifest"].target_domain
            adapter.campaign.k = None  # refreshed by resume requests when needed
            adapter.build_pool(members)
            adapter.phase = CampaignPhase.SERVING
            event["selected"] = [worker.worker_id for worker in members]
            event["phase"] = adapter.phase.value
            return event, {
                "kind": "build",
                "members": [self._wire(worker.worker_id) for worker in members],
            }
        if kind == "resume_request":
            resume = output["resume"]
            adapter.campaign.k = resume["k"]
            assert adapter.service is not None
            adapter.service.tracker = _EwmaView(resume["ewma"])
            members = self.marketplace.requalify(adapter, tick)
            event["reselected"] = [worker.worker_id for worker in members]
            if not members:
                return event, None
            adapter.build_pool(members)
            adapter.phase = CampaignPhase.SERVING
            event["phase"] = adapter.phase.value
            return event, {
                "kind": "resume",
                "members": [self._wire(worker.worker_id) for worker in members],
            }
        assert kind == "serving", kind
        service = adapter.service
        pool = adapter.pool
        assert service is not None and pool is not None
        for worker_id, domain in output["demote_intents"]:
            pool.demote(worker_id, domain)
        for task_id, worker_id, _answer in output["core"]["delivered"]:
            service.apply_delivered(task_id, worker_id)
        submitted: List[List[object]] = []
        routed: List[Tuple[str, List[str]]] = []
        stalled = False
        for task_id, domain in output["intents"]:
            try:
                worker_ids = service.route_intent(task_id, domain)
            except NoEligibleWorkersError:
                stalled = True
                break
            routed.append((task_id, worker_ids))
            submitted.append([task_id, list(worker_ids)])
        event["submitted"] = submitted
        event["stalled"] = stalled
        outcome: Dict[str, object] = {
            "kind": "serving",
            "routed": routed,
            "stalled": stalled,
            "reselected": False,
        }
        if output["reselect"]:
            event["reselection_triggered"] = True
            event["reselection_domains"] = list(output["reselection_domains"])
            event["abandoned"] = service.abandon_pending()
            adapter.phase = CampaignPhase.RESELECTING
            event["phase"] = adapter.phase.value
            outcome["reselected"] = True
            return event, outcome
        event["reselection_triggered"] = False
        event["phase"] = str(output["phase_after"])
        if output["done"]:
            adapter.phase = CampaignPhase.DONE
        return event, outcome

    def finalize(self) -> List[Dict[str, object]]:
        """Drain the last commit's outcomes into the shards; collect summaries."""
        payloads = []
        outcome_tick = self._last_tick if self._last_tick is not None else 0
        for index in self._shard_indexes:
            names = self._shard_campaigns[index]
            payloads.append(
                {
                    "outcome_tick": outcome_tick,
                    "outcomes": {
                        name: self._pending_outcomes[name]
                        for name in names
                        if name in self._pending_outcomes
                    },
                }
            )
        replies = self._executor.drain(payloads)
        summaries: Dict[str, Dict[str, object]] = {}
        for reply in replies:
            summaries.update(reply["summaries"])
        self._pending_outcomes = {}
        return [summaries[spec.name] for spec in self._specs]

    def close(self) -> None:
        self._executor.close()


__all__ = [
    "shard_of",
    "WireWorker",
    "ShardCampaignHandle",
    "ShardRuntime",
    "InlineShardExecutor",
    "ProcessShardExecutor",
    "SHARD_EXECUTORS",
    "CommitCampaign",
    "ShardedTickEngine",
]
