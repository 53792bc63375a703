"""Spans and counters recorded around the program's public calls.

The benchmark traces the program from the outside: :func:`installed`
swaps each public call named in :func:`span_sites` for a wrapper that
records one span per call (name, start, end, parent span, run id) into a
:class:`SpanRecorder`, and feeds the call's arguments and result to a
counter hook.  Nothing inside ``src/`` changes; leaving the ``with`` block
restores every original.

Spans are kept in flat arrays and written out once, when the run ends.
A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`), so the self times of one run add up to
the time spent inside traced calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.obs.timing import perf_counter

#: Root span of one closed-loop operation (a campaign, a task stream, a marketplace run).
ROOT_SPAN = "workload.op"


class SpanRecorder:
    """In-memory span store: one row per finished or open span."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.runs = array("i")
        self._open: List[int] = []
        #: Identifier shared by every span of the current operation.
        self.run_id = -1

    def __len__(self) -> int:
        return len(self.starts)

    def intern(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self._ids[name] = name_id
            self.names.append(name)
        return name_id

    def begin(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._open[-1] if self._open else -1)
        self.runs.append(self.run_id)
        self.ends.append(math.nan)
        self._open.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(self.intern(name))
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recording one span named ``name`` per call."""
        name_id = self.intern(name)
        begin = self.begin
        end = self.end

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                end(index)

        return traced

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (a NumPy ``.npz`` archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(json.dumps(self.names, sort_keys=True)),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            run=np.frombuffer(self.runs, dtype=np.int32),
        )


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover.

    ``parents[i]`` is the index of span ``i``'s parent (``-1`` for a root);
    children must appear in start order, as a stack recorder writes them.
    Child intervals are clipped to the parent and overlaps counted once.
    """
    result = [end - start for start, end in zip(starts, ends)]
    covered_until: Dict[int, float] = {}
    for index, parent in enumerate(parents):
        if parent < 0:
            continue
        low = max(starts[index], starts[parent], covered_until.get(parent, -math.inf))
        high = min(ends[index], ends[parent])
        if high > low:
            result[parent] -= high - low
            covered_until[parent] = high
    return result


def layer_profile(recorder: SpanRecorder, last: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "self_s"}}`` over the first ``last`` spans (all by default)."""
    last = len(recorder) if last is None else last
    own_times = self_times(recorder.starts[:last], recorder.ends[:last], recorder.parents[:last])
    profile: Dict[str, Dict[str, float]] = {}
    for name_id, own in zip(recorder.name_ids[:last], own_times):
        entry = profile.setdefault(recorder.names[name_id], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return profile


class Counters:
    """Named running totals the counter hooks add to."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> float:
        return self.values.get(name, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        base = self.get(denominator)
        return self.get(numerator) / base if base else 0.0

    def snapshot(self) -> Dict[str, float]:
        return dict(self.values)


#: ``hook(counters, args, kwargs, result)`` — called after each traced call
#: returns, and with ``result=None`` when it raises one of the site's ``errors``.
CounterHook = Callable[[Counters, tuple, dict, object], None]


@dataclass(frozen=True)
class SpanSite:
    """One public call the benchmark wraps: ``owner.attribute`` traced as ``span``."""

    span: str
    owner: object
    attribute: str
    hook: Optional[CounterHook] = None
    #: Exceptions counted as ``error_counter`` (and passed on) when the call raises them.
    errors: tuple = ()
    error_counter: str = ""


def _argument(args: tuple, kwargs: dict, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _lge_estimate(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    counters.add("core.lge.workers_fitted", len(_argument(args, kwargs, 1, "worker_ids")))


def _eliminate(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    counters.add("core.elimination.offered", len(_argument(args, kwargs, 0, "worker_ids")))
    counters.add("core.elimination.kept", len(result))


def _learning_round(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    workers = _argument(args, kwargs, 1, "worker_ids")
    tasks = _argument(args, kwargs, 2, "tasks_per_worker")
    counters.add("platform.learning_round.answers", len(workers) * int(tasks))


def _route(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    counters.add("serving.route.requested", int(_argument(args, kwargs, 2, "n_votes")))
    counters.add("serving.route.assigned", len(result or ()))


def _quality(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    if result is not None:
        counters.add("serving.quality.demotions")


def _admit(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    counters.add("marketplace.admit.arrivals", len(result))
    counters.add("marketplace.admit.admitted", sum(1 for event in result if event["admitted"]))


def _depart(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    counters.add("marketplace.depart.invalidated_votes", len(result))


def _journal(counters: Counters, args: tuple, kwargs: dict, result) -> None:
    from repro.marketplace.journal import encode_record

    records = _argument(args, kwargs, 1, "records")
    counters.add("marketplace.journal.bytes", sum(len(encode_record(r).encode("utf-8")) for r in records))


def span_sites() -> List[SpanSite]:
    """Every public call the traced run wraps, innermost layers included."""
    import repro.campaign
    import repro.core.pipeline
    from repro.campaign import Campaign
    from repro.core.cpe import CrossDomainPerformanceEstimator
    from repro.core.lge import LearningGainEstimator
    from repro.marketplace.churn import ChurnModel
    from repro.marketplace.journal import EventJournal
    from repro.marketplace.lifecycle import CampaignHandle
    from repro.marketplace.orchestrator import Marketplace
    from repro.obs.config import Telemetry
    from repro.platform.session import AnnotationEnvironment
    from repro.serving.aggregation import IncrementalDawidSkene, OnlineMajorityVote
    from repro.serving.quality import QualityTracker
    from repro.serving.routing import BaseRouter, NoEligibleWorkersError
    from repro.serving.service import AnnotationService

    return [
        SpanSite("core.lge.estimate", LearningGainEstimator, "estimate", _lge_estimate),
        SpanSite("core.cpe.update", CrossDomainPerformanceEstimator, "update"),
        SpanSite("core.cpe.predict", CrossDomainPerformanceEstimator, "predict"),
        SpanSite("platform.learning_round", AnnotationEnvironment, "run_learning_round", _learning_round),
        SpanSite("core.elimination", repro.core.pipeline, "median_eliminate", _eliminate),
        SpanSite("platform.evaluate", AnnotationEnvironment, "evaluate_selection"),
        SpanSite("campaign.step", Campaign, "step"),
        SpanSite("datasets.load", repro.campaign, "load_dataset"),
        SpanSite("serving.process", AnnotationService, "process"),
        SpanSite("serving.submit", AnnotationService, "submit"),
        SpanSite(
            "serving.route",
            BaseRouter,
            "route",
            _route,
            errors=(NoEligibleWorkersError,),
            error_counter="serving.route.failed",
        ),
        SpanSite("serving.record_answer", AnnotationService, "record_answer"),
        SpanSite("serving.aggregate", IncrementalDawidSkene, "add"),
        SpanSite("serving.aggregate", OnlineMajorityVote, "add"),
        SpanSite("serving.quality", QualityTracker, "observe", _quality),
        SpanSite("serving.report", AnnotationService, "report"),
        SpanSite("serving.converge", IncrementalDawidSkene, "converged_labels"),
        SpanSite("obs.snapshot", Telemetry, "snapshot_json"),
        SpanSite("marketplace.answer", Marketplace, "answer"),
        SpanSite("marketplace.admit", Marketplace, "admit_arrivals", _admit),
        SpanSite("marketplace.depart", Marketplace, "depart", _depart),
        SpanSite("serving.invalidate", AnnotationService, "invalidate_worker"),
        SpanSite("marketplace.requalify", Marketplace, "requalify"),
        SpanSite("marketplace.churn", ChurnModel, "arrivals_at"),
        SpanSite("marketplace.churn", ChurnModel, "departures_among"),
        SpanSite("marketplace.campaign_step", CampaignHandle, "step"),
        SpanSite("marketplace.journal", EventJournal, "append_ticks", _journal),
    ]


def _counting(site: SpanSite, counters: Counters, function: Callable) -> Callable:
    hook = site.hook
    errors = site.errors

    @functools.wraps(function)
    def counted(*args, **kwargs):
        try:
            result = function(*args, **kwargs)
        except errors:
            counters.add(site.error_counter)
            if hook is not None:
                hook(counters, args, kwargs, None)
            raise
        if hook is not None:
            hook(counters, args, kwargs, result)
        return result

    return counted


@contextlib.contextmanager
def patched(owner: object, attribute: str, replacement: Callable) -> Iterator[Callable]:
    """Temporarily replace ``owner.attribute``; yields the original."""
    original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    setattr(owner, attribute, replacement(original))
    try:
        yield original
    finally:
        setattr(owner, attribute, original)


@contextlib.contextmanager
def installed(recorder: SpanRecorder, counters: Counters, sites: Sequence[SpanSite]) -> Iterator[None]:
    """Wrap every site for the duration of the block."""

    def tracing(site: SpanSite) -> Callable[[Callable], Callable]:
        def replace(original: Callable) -> Callable:
            function = _counting(site, counters, original) if site.hook or site.errors else original
            return recorder.wrap(site.span, function)

        return replace

    with contextlib.ExitStack() as stack:
        for site in sites:
            stack.enter_context(patched(site.owner, site.attribute, tracing(site)))
        yield


__all__ = [
    "ROOT_SPAN",
    "SpanRecorder",
    "self_times",
    "layer_profile",
    "Counters",
    "SpanSite",
    "span_sites",
    "patched",
    "installed",
]
