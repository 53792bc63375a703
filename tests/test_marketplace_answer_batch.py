"""The batched marketplace answer and prestudy paths must match the scalar ones bit for bit.

The marketplace delivers each campaign-tick's due answers through
:func:`~repro.marketplace.orchestrator.simulate_answers` and evaluates each
tick's arrival prestudies as one batch.  Both are valid replacements for
the per-answer :func:`~repro.marketplace.orchestrator.simulate_answer` and
the per-point ``accuracy_at`` prestudy only if every answer, observed
accuracy and admitted accuracy is identical, so every comparison here uses
``==``, never ``approx``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marketplace.orchestrator import (
    ARRIVAL_PREFIX,
    Marketplace,
    MarketplaceConfig,
    MarketWorker,
    simulate_answer,
    simulate_answers,
)
from repro.marketplace.sharding import WireWorker, _ShardAnswerBook
from repro.platform.tasks import Task, TaskKind
from repro.serving.pool import ServingWorker
from repro.stats.rng import counter_uniforms, derive_seed, stream_seeds, token_hashes
from repro.workers.behavior import (
    AdversarialWorker,
    DrifterWorker,
    FatigueWorker,
    LearningWorker,
    SleeperWorker,
    SpammerWorker,
    StaticWorker,
    WorkerBehavior,
)
from repro.workers.population import PopulationConfig, sample_learning_population
from tests.conftest import make_profile

TARGET = "t"
DOMAINS = (TARGET, "p1", "unknown")  # target, a registered non-target, an unregistered one


class ThirdPartyBehavior(WorkerBehavior):
    """Overrides ``accuracy_at`` only: no batched curve, so the matrix falls back per row."""

    def curve_params(self):
        return {}

    def accuracy_at(self, exposure: float) -> float:
        return 0.3 if exposure < 20 else 0.9


BEHAVIORS = {
    "none": lambda profile: None,
    "learning": lambda profile: LearningWorker(profile, initial_accuracy=0.55, learning_rate=0.4),
    "static": lambda profile: StaticWorker(profile, target_accuracy=0.7),
    "spammer": lambda profile: SpammerWorker(profile),
    "adversarial": lambda profile: AdversarialWorker(profile, accuracy=0.3),
    "fatigue": lambda profile: FatigueWorker(profile, initial_accuracy=0.85, fatigue_rate=0.4),
    "sleeper": lambda profile: SleeperWorker(profile, period=10.0, sleep_fraction=0.4, phase=0.25),
    "drifter": lambda profile: DrifterWorker(profile, drift_exposure=30.0),
    "third_party": lambda profile: ThirdPartyBehavior(profile),
}


def make_task(index: int, domain: str, gold: bool) -> Task:
    return Task(task_id=f"task-{index}", domain=domain, kind=TaskKind.WORKING, gold_label=gold)


def consecutive_counts(worker_ids, start_counts):
    """Per-answer counts when each worker's count advances in batch order."""
    following = dict(start_counts)
    counts = []
    for worker_id in worker_ids:
        counts.append(following[worker_id])
        following[worker_id] += 1
    return counts


@st.composite
def answer_batches(draw):
    """A roster of mixed-behaviour workers and a batch of (worker, task) picks."""
    kinds = draw(st.lists(st.sampled_from(sorted(BEHAVIORS)), min_size=1, max_size=6))
    roster = []
    for index, kind in enumerate(kinds):
        worker_id = f"w-{index}"
        roster.append(
            WireWorker(
                worker_id=worker_id,
                max_concurrent=8,
                target_domain=TARGET,
                exposure_offset=draw(st.sampled_from([0.0, 12.0])) + draw(st.integers(0, 60)),
                accuracies={
                    TARGET: draw(st.floats(0.0, 1.0)),
                    "p1": draw(st.floats(0.0, 1.0)),
                },
                behavior=BEHAVIORS[kind](make_profile(worker_id)),
            )
        )
    picks = draw(st.lists(st.integers(0, len(roster) - 1), max_size=14))
    tasks = [
        make_task(index, draw(st.sampled_from(DOMAINS)), draw(st.booleans()))
        for index in range(len(picks))
    ]
    start_counts = {worker.worker_id: draw(st.integers(0, 40)) for worker in roster}
    answer_seed = draw(st.integers(0, 2**64 - 1))
    campaign = draw(st.sampled_from(["alpha", "beta"]))
    return answer_seed, campaign, roster, picks, tasks, start_counts


def scalar_answers(answer_seed, campaign, workers, tasks, counts):
    return [
        simulate_answer(
            answer_seed,
            worker.worker_id,
            campaign,
            task,
            behavior=worker.behavior,
            target_domain=worker.target_domain,
            accuracies=worker.accuracies,
            exposure_offset=worker.exposure_offset,
            answer_count=count,
        )
        for worker, task, count in zip(workers, tasks, counts)
    ]


def make_marketplace(roster, seed=5):
    market = Marketplace(MarketplaceConfig(), population=None, seed=seed)
    for wire in roster:
        market.workers[wire.worker_id] = MarketWorker(
            worker_id=wire.worker_id,
            serving=ServingWorker(worker_id=wire.worker_id, qualifications={}),
            origin="arrival",
            home=None,
            accuracies=dict(wire.accuracies),
            target_domain=wire.target_domain,
            behavior=wire.behavior,
            exposure_offset=wire.exposure_offset,
        )
    return market


class TestSimulateAnswers:
    @settings(max_examples=300, deadline=None)
    @given(answer_batches())
    def test_batch_matches_per_answer_loop(self, batch):
        answer_seed, campaign, roster, picks, tasks, start_counts = batch
        workers = [roster[pick] for pick in picks]
        counts = consecutive_counts([worker.worker_id for worker in workers], start_counts)
        expected = scalar_answers(answer_seed, campaign, workers, tasks, counts)
        assert simulate_answers(answer_seed, campaign, workers, tasks, counts) == expected

    def test_every_behaviour_class_and_domain_in_one_batch(self):
        roster = [
            WireWorker(f"w-{kind}", 8, TARGET, 7.0, {TARGET: 0.8, "p1": 0.65}, BEHAVIORS[kind](make_profile()))
            for kind in sorted(BEHAVIORS)
        ]
        workers, tasks = [], []
        for _ in range(3):
            for domain in DOMAINS:
                for worker in roster:
                    workers.append(worker)
                    tasks.append(make_task(len(tasks), domain, (len(tasks) % 3) == 0))
        counts = consecutive_counts([worker.worker_id for worker in workers], {w.worker_id: 0 for w in roster})
        expected = scalar_answers(99, "alpha", workers, tasks, counts)
        assert simulate_answers(99, "alpha", workers, tasks, counts) == expected
        assert len(set(expected)) == 2

    def test_empty_batch(self):
        assert simulate_answers(1, "alpha", [], [], []) == []

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -1.0])
    def test_invalid_exposure_rejected_like_the_scalar_path(self, offset):
        worker = WireWorker("w-0", 8, TARGET, offset, {}, BEHAVIORS["learning"](make_profile()))
        task = make_task(0, TARGET, True)
        with pytest.raises(ValueError, match="finite and non-negative"):
            scalar_answers(3, "alpha", [worker], [task], [0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_answers(3, "alpha", [worker], [task], [0])


class TestAnswerBooks:
    """``answers`` on the registry and the shard book equal ``answer`` called pair by pair."""

    @settings(max_examples=100, deadline=None)
    @given(answer_batches())
    def test_marketplace_answers_match_answer_calls(self, batch):
        _, campaign, roster, picks, tasks, _ = batch
        pairs = [(roster[pick].worker_id, task) for pick, task in zip(picks, tasks)]
        batched, single = make_marketplace(roster), make_marketplace(roster)
        for split in (pairs[:3], pairs[3:], pairs):  # counts carry over between batches
            expected = [single.answer(worker_id, task, campaign) for worker_id, task in split]
            assert batched.answers(split, campaign) == expected
        for worker in roster:
            assert batched.workers[worker.worker_id].answer_counts == single.workers[worker.worker_id].answer_counts

    @settings(max_examples=100, deadline=None)
    @given(answer_batches())
    def test_shard_answer_book_matches_answer_calls(self, batch):
        answer_seed, campaign, roster, picks, tasks, _ = batch
        pairs = [(roster[pick].worker_id, task) for pick, task in zip(picks, tasks)]

        def book():
            wire = {worker.worker_id: worker for worker in roster}
            return _ShardAnswerBook(SimpleNamespace(_answer_seed=answer_seed, _wire=wire, _answer_counts={}))

        batched, single = book(), book()
        expected = [single.answer(worker_id, task, campaign) for worker_id, task in pairs]
        assert batched.answers(pairs, campaign) == expected
        assert batched._handle._answer_counts == single._handle._answer_counts

    def test_repeated_worker_gets_consecutive_counts(self):
        roster = [WireWorker("w-0", 8, TARGET, 12.0, {}, BEHAVIORS["drifter"](make_profile()))]
        batched, single = make_marketplace(roster), make_marketplace(roster)
        pairs = [("w-0", make_task(index, TARGET, index % 2 == 0)) for index in range(25)]
        expected = [single.answer("w-0", task, "alpha") for _, task in pairs]
        assert batched.answers(pairs, "alpha") == expected
        assert batched.workers["w-0"].answer_counts == {"alpha": 25}
        # Exposures 12..36 straddle the drift exposure (30) inside this one batch.
        assert {roster[0].behavior.accuracy_at(12.0 + count) for count in range(25)} == {0.8, 0.4}

    def test_empty_batch_leaves_counts_untouched(self):
        roster = [WireWorker("w-0", 8, TARGET, 0.0, {}, None)]
        market = make_marketplace(roster)
        assert market.answers([], "alpha") == []
        assert market.workers["w-0"].answer_counts == {}


class TestPerStreamOffsets:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**63 - 1) | st.integers(0, 100)),
            max_size=8,
        ),
        st.integers(0, 6),
    )
    def test_rows_match_scalar_offset_calls(self, streams, n_draws):
        seeds = np.asarray([seed for seed, _ in streams], dtype=np.uint64)
        offsets = np.asarray([offset for _, offset in streams], dtype=np.int64)
        block = counter_uniforms(seeds, n_draws, offset=offsets)
        assert block.shape == (len(streams), n_draws)
        for row, (seed, offset) in enumerate(streams):
            expected = counter_uniforms(np.asarray([seed], dtype=np.uint64), n_draws, offset=offset)[0]
            assert block[row].tolist() == expected.tolist()

    def test_invalid_offsets_rejected(self):
        seeds = stream_seeds(7, token_hashes(["a", "b"]))
        with pytest.raises(ValueError, match="non-negative"):
            counter_uniforms(seeds, 2, offset=np.array([0, -1]))
        with pytest.raises(ValueError, match="shape"):
            counter_uniforms(seeds, 2, offset=np.array([0, 1, 2]))
        with pytest.raises(TypeError, match="integers"):
            counter_uniforms(seeds, 2, offset=np.array([0.0, 1.0]))


def reference_prestudy(population, seed, index, n_questions):
    """One arrival's prestudy the per-point way: ``n_questions + 1`` ``accuracy_at`` calls."""
    behavior = sample_learning_population(
        population,
        1,
        rng=derive_seed(seed, "marketplace", "arrival", index),
        id_prefix=ARRIVAL_PREFIX,
        id_offset=index,
    )[0]
    gid = behavior.profile.worker_id
    prestudy_seed = derive_seed(seed, "marketplace", "prestudy")
    uniforms = counter_uniforms(stream_seeds(prestudy_seed, token_hashes([gid])), n_questions)[0]
    correct = sum(int(uniforms[i] < behavior.accuracy_at(float(i))) for i in range(n_questions))
    return gid, correct / n_questions, float(behavior.accuracy_at(float(n_questions)))


class TestBatchedPrestudy:
    @pytest.mark.parametrize("mix", [None, {"sleeper": 0.7}, {"drifter": 0.7}])
    @pytest.mark.parametrize("n_questions", [12, 5])
    def test_matches_per_point_loop(self, mix, n_questions):
        population = PopulationConfig(
            prior_domains=("p1", "p2"),
            target_domain=TARGET,
            prior_means=(0.7, 0.8),
            prior_stds=(0.15, 0.1),
            target_mean=0.6,
            target_std=0.15,
            reference_exposure=10,
            behavior_mix=mix,
        )
        seed = 21
        market = Marketplace(MarketplaceConfig(prestudy_questions=n_questions), population, seed=seed)
        index = 0
        admitted = 0
        for tick, count in enumerate([0, 1, 3, 5, 2]):
            events = market.admit_arrivals(tick, count)
            assert len(events) == count
            for event in events:
                gid, observed, accuracy = reference_prestudy(population, seed, index, n_questions)
                index += 1
                assert event["worker_id"] == gid
                assert event["observed"] == observed
                if event["admitted"]:
                    admitted += 1
                    assert market.workers[gid].accuracies[TARGET] == accuracy
                else:
                    assert gid not in market.workers
        assert admitted > 0
