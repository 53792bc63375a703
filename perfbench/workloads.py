"""The three benchmark workloads, each a closed loop over the public API.

Every workload turns ``--seed`` into a fixed list of *cases* (its inputs),
builds the objects a user builds once (:meth:`Workload.build`), then runs
*passes*: one pass runs every case once and times it.  Passes repeat the
same cases, so each case's outputs must repeat exactly; a pass whose
digest differs from the first pass's counts as a failed check.

* ``campaign-select`` — one case per (dataset, seed): ``Campaign(..., "ours")``
  driven with ``step()``, then ``report()`` and ``serve()``.
* ``serve-stream`` — one case per seed: a ``me`` selection on S-4 built
  once, then a long task stream through ``AnnotationService.process()``
  with telemetry on, the final ``report()`` and a metrics snapshot.
* ``marketplace-churn`` — one case per seed: a journaled 4-campaign
  marketplace run over one churning pool (reference tick engine).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Campaign, CampaignReport
from repro.marketplace import (
    CampaignSpec,
    ChurnConfig,
    EventJournal,
    JournalError,
    MarketplaceConfig,
    MarketplaceOrchestrator,
)
from repro.marketplace.churn import ChurnModel
from repro.obs import create_telemetry
from repro.obs.timing import perf_counter
from repro.platform.session import BudgetExceededError
from repro.serving.routing import NoEligibleWorkersError
from repro.serving.service import ServingConfig, ServingReport, working_task_stream
from repro.stats.rng import derive_seed

from tracer import ROOT_SPAN, SpanRecorder, patched

DATASETS = ("RW-1", "RW-2", "S-1", "S-2", "S-3", "S-4")
VOTES_PER_TASK = ServingConfig().votes_per_task


def digest_of(payload: object) -> str:
    """SHA-256 of a payload's canonical JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def sub_seeds(seed: int, workload: str, count: int) -> List[int]:
    """``count`` input seeds derived from the run's ``--seed``."""
    return [derive_seed(seed, "perfbench", workload, index) % 1_000_000 for index in range(count)]


@dataclass
class CaseResult:
    """One timed case of one pass."""

    seconds: float
    #: Operations attempted (campaigns, tasks or ticks).
    ops: int
    failed: int
    digest: str
    latencies: Sequence[float] = ()
    problems: List[str] = field(default_factory=list)
    #: Per-selection / per-stream quality values (lists averaged over a pass).
    quality: Dict[str, List[float]] = field(default_factory=dict)
    #: Workload-level counts read from the program's own reports.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Reference-kernel times taken right after the case, set by the
    #: runner (see ``reference.py``).
    reference_s: Sequence[float] = ()


def _root(recorder: Optional[SpanRecorder]):
    return recorder.span(ROOT_SPAN) if recorder is not None else contextlib.nullcontext()


def check_serving(report: ServingReport, n_tasks: int, votes: int) -> List[str]:
    """Every routed task got ``votes`` answers and a label."""
    problems = []
    if report.n_tasks_routed != n_tasks:
        problems.append(f"routed {report.n_tasks_routed} of {n_tasks} tasks")
    short = [a.task_id for a in report.assignments if len(a.worker_ids) != votes]
    if short:
        problems.append(f"{len(short)} tasks got fewer than {votes} votes (first: {short[0]})")
    if report.n_answers != report.n_tasks_routed * votes:
        problems.append(f"{report.n_answers} answers for {report.n_tasks_routed} tasks x {votes} votes")
    unlabeled = [a.task_id for a in report.assignments if a.task_id not in report.labels]
    if unlabeled:
        problems.append(f"{len(unlabeled)} routed tasks have no label (first: {unlabeled[0]})")
    return problems


def check_campaign(campaign: Campaign, report: CampaignReport) -> List[str]:
    """k distinct pool workers, budget respected, report round-trips."""
    problems = []
    selected = report.selected_worker_ids
    pool = {worker.worker_id for worker in campaign.instance.pool}
    if len(selected) != campaign.k or len(set(selected)) != campaign.k:
        problems.append(f"selected {selected} is not {campaign.k} distinct workers")
    strangers = [worker_id for worker_id in selected if worker_id not in pool]
    if strangers:
        problems.append(f"selected workers {strangers} are not in the pool")
    if report.spent_budget > report.total_budget:
        problems.append(f"spent {report.spent_budget} of a {report.total_budget} budget")
    if CampaignReport.from_dict(json.loads(json.dumps(report.to_dict(), sort_keys=True))) != report:
        problems.append("CampaignReport does not round-trip through to_dict/from_dict")
    return problems


class Workload:
    """One named workload: its cases, build-once objects and timed case."""

    name = ""
    #: What one completed operation is (the unit of ``ops_per_s``).
    op = ""
    #: The call whose latency ``latency_*`` reports.
    latency_op = ""
    #: Tail percentile reported as ``latency_tail_ms``.
    tail = 90.0

    def build(self, seed: int):
        raise NotImplementedError

    def n_cases(self, state) -> int:
        return len(state)

    def run_case(self, state, index: int, recorder: Optional[SpanRecorder], evaluate: bool) -> CaseResult:
        raise NotImplementedError

    def verify(self, state) -> List[str]:
        """Costly once-per-run contract checks (made in the traced run)."""
        return []

    def instruments(self):
        """Context in which the passes run (the benchmark's own probes)."""
        return contextlib.nullcontext()

    def close(self, state) -> None:
        """Release what :meth:`build` created."""


class CampaignSelect(Workload):
    name = "campaign-select"
    op = "campaign (select + serve)"
    latency_op = "Campaign.step() (one elimination round)"
    tail = 90.0
    datasets = DATASETS
    # 20 rounds per seed; three seeds give the 100 rounds a p90 needs in
    # two passes, and more distinct rounds for the median than two seeds.
    seeds_per_dataset = 3

    def build(self, seed: int):
        seeds = sub_seeds(seed, self.name, self.seeds_per_dataset)
        return [(dataset, sub_seed) for sub_seed in seeds for dataset in self.datasets]

    def run_case(self, state, index, recorder, evaluate) -> CaseResult:
        dataset, seed = state[index]
        if recorder is not None:
            recorder.run_id += 1
        rounds = []
        with _root(recorder):
            start = perf_counter()
            campaign = Campaign(dataset, "ours", seed=seed)
            while True:
                began = perf_counter()
                event = campaign.step()
                if event is None:
                    break
                rounds.append(perf_counter() - began)
            report = campaign.report()
            serving = campaign.serve()
            seconds = perf_counter() - start
        problems = check_campaign(campaign, report)
        problems += check_serving(serving, campaign.instance.task_bank.n_working, VOTES_PER_TASK)
        return CaseResult(
            seconds=seconds,
            ops=1,
            failed=1 if problems else 0,
            digest=digest_of({"report": report.to_dict(), "serving": serving.trace_dict()}),
            latencies=rounds,
            problems=[f"{dataset} seed {seed}: {problem}" for problem in problems],
            quality={
                "selection_accuracy": [report.mean_accuracy],
                "precision_at_k": [report.precision_at_k],
                "label_accuracy": [serving.label_accuracy],
            },
        )


@dataclass
class _StreamCase:
    campaign: Campaign
    tasks: list
    report: CampaignReport


class ServeStream(Workload):
    name = "serve-stream"
    op = "task"
    latency_op = "AnnotationService.process(task)"
    # p95, not p99: about 1.2% of tasks run a cyclic GC collection and 1.6%
    # take the sampled route-latency reading, so p99 falls where the latency
    # climbs steeply and flips between tasks with and without that work.
    tail = 95.0
    n_seeds = 3
    n_tasks = 10_000

    def build(self, seed: int):
        cases = []
        for sub_seed in sub_seeds(seed, self.name, self.n_seeds):
            campaign = Campaign("S-4", "me", seed=sub_seed)
            report = campaign.run()
            # Set-up pays for one service, as a user would; every pass then
            # builds a fresh one untimed, because a service keeps its tasks.
            campaign.serving_service(telemetry=create_telemetry())
            cases.append(_StreamCase(campaign, working_task_stream(campaign.instance.task_bank, self.n_tasks), report))
        return cases

    def _stream(self, case: _StreamCase, telemetry, recorder, latencies, problems):
        service = case.campaign.serving_service(telemetry=telemetry)
        failed = 0
        base = recorder.run_id + 1 if recorder is not None else 0
        for ordinal, task in enumerate(case.tasks):
            if recorder is not None:
                recorder.run_id = base + ordinal
            began = perf_counter()
            try:
                assignment = service.process(task)
            except (NoEligibleWorkersError, BudgetExceededError) as error:
                failed += 1
                problems.append(f"task {task.task_id} refused: {error}")
                continue
            latencies.append(perf_counter() - began)
            if len(assignment.worker_ids) != VOTES_PER_TASK:
                problems.append(f"task {task.task_id} got {len(assignment.worker_ids)} votes")
        return service, failed

    def run_case(self, state, index, recorder, evaluate) -> CaseResult:
        case = state[index]
        telemetry = create_telemetry()
        latencies = array("d")
        problems: List[str] = []
        with _root(recorder):
            start = perf_counter()
            service, failed = self._stream(case, telemetry, recorder, latencies, problems)
            report = service.report()
            snapshot = telemetry.snapshot_json()
            seconds = perf_counter() - start
        problems += check_serving(report, len(case.tasks), VOTES_PER_TASK)
        return CaseResult(
            seconds=seconds,
            ops=len(case.tasks),
            failed=max(failed, 1 if problems else 0),
            digest=digest_of({"trace": report.trace_dict(), "snapshot": snapshot}),
            latencies=latencies,
            problems=problems,
            quality={
                "selection_accuracy": [case.report.mean_accuracy],
                "precision_at_k": [case.report.precision_at_k],
                "label_accuracy": [report.label_accuracy],
            },
        )

    def verify(self, state) -> List[str]:
        """Telemetry is inert: the same stream without it gives the same trace."""
        case = state[0]
        problems: List[str] = []
        on, _ = self._stream(case, create_telemetry(), None, [], problems)
        off, _ = self._stream(case, None, None, [], problems)
        if on.report().trace_dict() != off.report().trace_dict():
            problems.append("serving trace differs with telemetry off (inert contract broken)")
        return problems


class TickClock:
    """Start time of every marketplace tick, read at the tick's churn draw.

    The reference tick loop draws each tick's departures first, passing
    the tick number, so the call marks where each tick begins.
    """

    def __init__(self) -> None:
        self.ticks: List[int] = []
        self.starts: List[float] = []
        self.recorder: Optional[SpanRecorder] = None

    def install(self):
        def replace(original):
            def departures_among(churn, worker_ids, tick):
                self.starts.append(perf_counter())
                self.ticks.append(tick)
                if self.recorder is not None:
                    self.recorder.run_id += 1
                return original(churn, worker_ids, tick)

            return departures_among

        return patched(ChurnModel, "departures_among", replace)

    def reset(self) -> None:
        self.ticks = []
        self.starts = []


@dataclass
class _MarketCase:
    seed: int
    orchestrator: MarketplaceOrchestrator
    journal: Path


class MarketplaceChurn(Workload):
    name = "marketplace-churn"
    op = "tick"
    latency_op = "one marketplace tick"
    # p99 lands on the few reselection ticks a seed happens to have (each
    # replays a selection), so it tracks the input mix more than the code.
    tail = 90.0
    # Stalls, and so the work per tick, differ from marketplace to
    # marketplace: two 300-tick ones of one seed took 0.41 s and 1.06 s.
    # Twenty 150-tick marketplaces per run average more of that out than
    # ten 300-tick ones.
    n_seeds = 20
    n_campaigns = 4
    n_ticks = 150
    tasks_per_tick = 2
    tick_batch = 8

    def __init__(self, scratch: Path) -> None:
        self._scratch = scratch
        self.clock = TickClock()

    def _orchestrator(self, seed: int, journal: Path) -> MarketplaceOrchestrator:
        specs = [
            CampaignSpec(name=f"c{index}", dataset=("S-1", "S-2")[index % 2], selector="us", k=5, seed=seed + index)
            for index in range(self.n_campaigns)
        ]
        return MarketplaceOrchestrator(
            specs,
            config=MarketplaceConfig(
                tasks_per_tick=self.tasks_per_tick, total_tasks=self.n_ticks * self.tasks_per_tick
            ),
            churn=ChurnConfig(arrival_rate=0.5, departure_rate=0.02),
            journal_path=journal,
            seed=seed,
        )

    def build(self, seed: int):
        self._scratch.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="journals-", dir=self._scratch))
        cases = []
        for index, sub_seed in enumerate(sub_seeds(seed, self.name, self.n_seeds)):
            journal = directory / f"case{index}.jsonl"
            cases.append(_MarketCase(sub_seed, self._orchestrator(sub_seed, journal), journal))
        return cases

    def instruments(self):
        return self.clock.install()

    def close(self, state) -> None:
        if state:
            shutil.rmtree(state[0].journal.parent, ignore_errors=True)

    def run_case(self, state, index, recorder, evaluate) -> CaseResult:
        case = state[index]
        self.clock.reset()
        self.clock.recorder = recorder
        with _root(recorder):
            start = perf_counter()
            report = case.orchestrator.run(self.n_ticks, tick_batch=self.tick_batch)
            seconds = perf_counter() - start
        problems = []
        if self.clock.ticks != list(range(self.n_ticks)):
            problems.append("tick clock did not see ticks 0..n-1 in order")
        ends = self.clock.starts[1:] + [start + seconds]
        latencies = [end - began for began, end in zip(self.clock.starts, ends)]
        try:
            _, records = EventJournal(case.journal).read()
        except JournalError as error:
            records = []
            problems.append(f"journal unreadable: {error}")
        if [record.get("tick") for record in records] != list(range(self.n_ticks)):
            problems.append(f"journal holds {len(records)} tick records for {self.n_ticks} ticks")
        quality: Dict[str, List[float]] = {"label_accuracy": []}
        for summary in report.campaigns:
            if summary["label_accuracy"] is not None:
                quality["label_accuracy"].append(summary["label_accuracy"])
        if evaluate:
            reports = [handle.campaign.report() for handle in case.orchestrator.handles]
            quality["selection_accuracy"] = [r.mean_accuracy for r in reports]
            quality["precision_at_k"] = [r.precision_at_k for r in reports]
        outputs = {"campaigns": report.campaigns, "marketplace": report.marketplace}
        outputs["journal"] = hashlib.sha256(case.journal.read_bytes()).hexdigest()
        return CaseResult(
            seconds=seconds,
            ops=self.n_ticks,
            failed=len(problems),
            digest=digest_of(outputs),
            latencies=latencies,
            problems=problems,
            quality=quality,
            counts={
                "marketplace.stalled_ticks": sum(c["stalled_ticks"] for c in report.campaigns),
                "marketplace.reselections": sum(c["reselections"] for c in report.campaigns),
                "marketplace.campaign_ticks": self.n_ticks * len(report.campaigns),
            },
        )

    def verify(self, state) -> List[str]:
        """A resumed rerun over the finished journal replays without divergence."""
        case = state[0]
        before = case.journal.read_bytes()
        resumed = self._orchestrator(case.seed, case.journal)
        try:
            resumed.run(self.n_ticks, tick_batch=self.tick_batch, resume=True)
        except JournalError as error:
            return [f"resume over the finished journal failed: {error}"]
        if case.journal.read_bytes() != before:
            return ["resume over the finished journal changed its bytes"]
        return []


def make_workloads(scratch: Path) -> Dict[str, Workload]:
    workloads: Tuple[Workload, ...] = (CampaignSelect(), ServeStream(), MarketplaceChurn(scratch))
    return {workload.name: workload for workload in workloads}


__all__ = [
    "DATASETS",
    "CaseResult",
    "Workload",
    "CampaignSelect",
    "ServeStream",
    "MarketplaceChurn",
    "TickClock",
    "check_campaign",
    "check_serving",
    "digest_of",
    "make_workloads",
    "sub_seeds",
]
