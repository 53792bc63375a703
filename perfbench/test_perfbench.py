"""Tests of the benchmark itself: statistics, span arithmetic, names, determinism."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from repro import Campaign

import reference
import run
import stats
from tracer import Counters, SpanRecorder, installed, layer_profile, self_times, span_sites
from workloads import (
    CampaignSelect,
    CaseResult,
    MarketplaceChurn,
    Workload,
    ServeStream,
    check_campaign,
    check_serving,
    make_workloads,
)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #
def test_ten_samples_beyond_rule():
    assert stats.resolvable(100, 90.0)
    assert not stats.resolvable(99, 90.0)
    assert stats.resolvable(1000, 99.0)
    assert not stats.resolvable(999, 99.0)
    assert stats.resolvable(10_000, 99.9)
    assert stats.samples_beyond(200, 99.0) == pytest.approx(2.0)


def test_percentile_interpolates_and_refuses_unresolved_tails():
    samples = [float(i) for i in range(1000, 0, -1)]
    assert stats.percentile(samples, 99.0) == pytest.approx(990.01)
    assert stats.median(samples) == pytest.approx(500.5)
    with pytest.raises(stats.InsufficientSamplesError):
        stats.percentile(samples[:999], 99.0)
    with pytest.raises(stats.InsufficientSamplesError):
        stats.median([])
    assert stats.median([3.0]) == 3.0


def test_latency_summary_states_sample_count():
    summary = stats.latency_summary([float(i) for i in range(1, 101)], 90.0)
    assert summary["n"] == 100
    assert summary["blocks"] == 1
    assert summary["tail_q"] == 90.0
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["tail"] == pytest.approx(90.1)


def test_block_size_resolves_the_tail():
    assert stats.block_size(90.0) == 100
    assert stats.block_size(95.0) == 200
    assert stats.block_size(99.0) == 1000
    assert stats.block_size(50.0) == 1
    assert stats.resolvable(stats.block_size(95.0), 95.0)


def test_block_percentiles_follow_a_mixture_of_host_speeds_linearly():
    rng = np.random.default_rng(0)
    fast = rng.uniform(1.0, 1.2, size=2000)

    def run(slow_share):
        # A run in which the host spent ``slow_share`` of its blocks 1.6x slower.
        n_slow = int(len(fast) * slow_share)
        return np.concatenate([fast[:n_slow] * 1.6, fast[n_slow:]])

    size = stats.block_size(90.0)
    block = [stats.block_percentile(run(share), 50.0, size) for share in (0.4, 0.5, 0.6)]
    pooled = [stats.median(run(share)) for share in (0.4, 0.5, 0.6)]
    # Pooled, the median jumps by the speed ratio as the mix crosses one half.
    assert pooled[2] / pooled[0] > 1.4
    # In blocks it moves with the mix: 0.1 of a 0.6 gap per step.
    assert block[1] - block[0] == pytest.approx(block[2] - block[1], rel=0.1)
    assert block[2] / block[0] < 1.1
    with pytest.raises(stats.InsufficientSamplesError):
        stats.block_percentile(fast[:99], 90.0, size)


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #
def test_kernel_runs_once_per_stretch_of_case_time(monkeypatch):
    monkeypatch.setattr(reference, "reference_seconds", lambda: 0.01)
    assert reference.reference_times(0.0) == [0.01]
    assert len(reference.reference_times(10 * reference.SAMPLE_EVERY_S)) == 10
    # The mean, not the median, of kernel times that flicker between regimes.
    assert reference.factor([0.010, 0.010, 0.040]) == pytest.approx(reference.NOMINAL_S / 0.020)


def test_reference_kernel_restores_the_garbage_collector():
    import gc

    assert gc.isenabled()
    assert reference.reference_seconds() > 0
    assert gc.isenabled()


def test_a_pass_starts_only_while_it_fits(monkeypatch):
    monkeypatch.setattr(reference, "reference_times", lambda seconds: [reference.NOMINAL_S])

    class Sleepy(Workload):
        name = "sleepy"

        def n_cases(self, state):
            return 1

        def run_case(self, state, index, recorder, evaluate):
            time.sleep(0.3)
            return CaseResult(seconds=0.3, ops=1, failed=0, digest="d", latencies=[0.3])

    # A second 0.3 s pass fits in 0.75 s; a third would end at about 0.9 s.
    assert len(run.run_passes(Sleepy(), None, 0.75, 1)) == 2
    assert len(run.run_passes(Sleepy(), None, 0.75, 3)) == 3


def test_end_to_end_times_are_rescaled_per_case():
    class Fake:
        op = latency_op = "op"
        tail = 90.0

    def case(seconds, kernel_s):
        return CaseResult(
            seconds=seconds,
            ops=10,
            failed=0,
            digest="d",
            latencies=[seconds / 10] * 100,
            quality={"selection_accuracy": [0.5], "label_accuracy": [0.75]},
            reference_s=[kernel_s],
        )

    nominal = reference.NOMINAL_S
    # The host ran at half the reference speed for the whole run.
    passes = [
        [case(1.0, 2 * nominal), case(3.0, 2 * nominal)],
        [case(2.0, 2 * nominal), case(3.0, 2 * nominal)],
    ]
    metrics, basis = run.end_to_end(Fake(), passes, setup_wall_s=4.0)
    assert basis["host_factor"] == pytest.approx(0.5)
    assert metrics["setup_s"] == pytest.approx(2.0)
    # Mean case times 1.5 s and 3.0 s of wall time, scaled to 0.75 s and 1.5 s.
    assert basis["wall_ops_per_s"] == pytest.approx(20 / 4.5)
    assert metrics["ops_per_s"] == pytest.approx(20 / 2.25)
    # Four cases of 100 samples: four p90 blocks, whose medians are
    # 0.1, 0.3, 0.2 and 0.3 s of wall time, averaged and scaled.
    assert basis["latency_blocks"] == 4
    assert metrics["latency_p50_ms"] == pytest.approx((0.1 + 0.3 + 0.2 + 0.3) / 4 * 0.5 * 1e3)


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    # Children overlap each other and one runs past its parent's end.
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 3.0, 4.0, 12.0]
    parents = [-1, 0, 0, 0]
    # Covered: [1, 4] and [8, 10] -> 5 of the root's 10 seconds.
    assert self_times(starts, ends, parents)[0] == pytest.approx(5.0)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_recorder_nests_wrapped_calls_and_totals_self_time():
    recorder = SpanRecorder(clock=_Clock())

    inner = recorder.wrap("inner", lambda: None)

    def middle():
        inner()
        inner()

    outer = recorder.wrap("outer", recorder.wrap("middle", middle))
    recorder.run_id = 7
    outer()
    assert list(recorder.parents) == [-1, 0, 1, 1]
    assert set(recorder.runs) == {7}
    profile = layer_profile(recorder)
    assert profile["inner"] == {"calls": 2, "self_s": 2.0}
    # middle spans [2, 7]: 5 s, minus two 1 s children.
    assert profile["middle"] == {"calls": 1, "self_s": 3.0}
    assert profile["outer"] == {"calls": 1, "self_s": 2.0}
    total = sum(entry["self_s"] for entry in profile.values())
    assert total == recorder.ends[0] - recorder.starts[0]


def test_recorder_writes_spans(tmp_path):
    recorder = SpanRecorder(clock=_Clock())
    with recorder.span("a"):
        with recorder.span("b"):
            pass
    recorder.write(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert json.loads(str(saved["names"])) == ["a", "b"]
    assert saved["parent"].tolist() == [-1, 0]
    assert saved["end"].tolist() == [4.0, 3.0]


def test_installed_wrappers_are_removed_afterwards():
    sites = span_sites()
    originals = [
        site.owner.__dict__[site.attribute] if isinstance(site.owner, type) else getattr(site.owner, site.attribute)
        for site in sites
    ]
    with installed(SpanRecorder(), Counters(), sites):
        assert all(
            getattr(site.owner, site.attribute) is not original for site, original in zip(sites, originals)
        )
    for site, original in zip(sites, originals):
        current = site.owner.__dict__[site.attribute] if isinstance(site.owner, type) else getattr(site.owner, site.attribute)
        assert current is original


# --------------------------------------------------------------------- #
# Names
# --------------------------------------------------------------------- #
def _declared(section):
    return {entry["name"]: entry for entry in BENCHMARK[section]}


def test_every_metric_name_is_declared_with_its_unit():
    end_to_end = _declared("end_to_end")
    per_layer = _declared("per_layer")
    assert {name: end_to_end[name]["unit"] for name in end_to_end} == run.E2E_UNITS
    assert {name: per_layer[name]["unit"] for name in per_layer} == run.per_layer_units()
    for name in list(end_to_end) + list(per_layer):
        assert NAME.match(name) and len(name) <= 64, name
    assert end_to_end["setup_s"]["better"] == "lower"


def test_benchmark_declares_the_three_workloads(tmp_path):
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert names == list(make_workloads(tmp_path))
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


# --------------------------------------------------------------------- #
# Tiny workloads
# --------------------------------------------------------------------- #
def _tiny(name: str, scratch: Path):
    if name == "campaign-select":
        workload = CampaignSelect()
        workload.datasets = ("RW-1",)
    elif name == "serve-stream":
        workload = ServeStream()
        workload.n_seeds = 1
        workload.n_tasks = 1000
    else:
        workload = MarketplaceChurn(scratch)
        workload.n_seeds = 1
        workload.n_ticks = 40
    return workload


def _one_pass(workload, seed: int):
    state = workload.build(seed)
    try:
        with workload.instruments():
            return [workload.run_case(state, i, None, True) for i in range(workload.n_cases(state))]
    finally:
        workload.close(state)


@pytest.mark.parametrize("name", ["campaign-select", "serve-stream", "marketplace-churn"])
def test_tiny_run_is_deterministic_for_a_seed(name, tmp_path):
    workload = _tiny(name, tmp_path)
    first = _one_pass(workload, 5)
    again = _one_pass(workload, 5)
    other = _one_pass(workload, 6)
    assert [case.digest for case in first] == [case.digest for case in again]
    assert [case.quality for case in first] == [case.quality for case in again]
    assert [case.digest for case in first] != [case.digest for case in other]
    assert all(not case.problems and case.failed == 0 for case in first)
    assert not list(tmp_path.glob("journals-*")), "journals outlive the run"


def test_printed_end_to_end_names_are_declared(tmp_path):
    workload = _tiny("serve-stream", tmp_path)
    state = workload.build(1)
    passes = run.run_passes(workload, state, 0.0, 1, need_latency=True)
    metrics, basis = run.end_to_end(workload, passes, setup_wall_s=1.0)
    assert set(metrics) == set(_declared("end_to_end"))
    assert all(value > 0 for value in metrics.values())
    assert basis["latency_samples"] >= 1000


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    workload = _tiny("marketplace-churn", tmp_path)
    state = workload.build(2)
    try:
        with workload.instruments():
            metrics, basis, recorder, passes = run.per_layer(workload, state, 0.0)
        assert not workload.verify(state)
    finally:
        workload.close(state)
    assert set(metrics) == set(_declared("per_layer"))
    assert metrics["marketplace.campaign_step.calls"] == 4 * 40
    assert metrics["marketplace.journal.calls"] == 5  # 40 ticks in batches of 8
    assert metrics["workload.op.calls"] == 1
    assert sum(metrics[f"{span}.share"] for span in run.span_names()) == pytest.approx(1.0)
    assert len(recorder) == basis["spans"]


def test_serve_stream_telemetry_is_inert(tmp_path):
    workload = _tiny("serve-stream", tmp_path)
    assert workload.verify(workload.build(3)) == []


def test_output_checks_catch_broken_outputs():
    campaign = Campaign("RW-1", "ours", seed=0)
    report = campaign.run()
    assert check_campaign(campaign, report) == []
    duplicated = report.__class__(**{**report.__dict__, "selected_worker_ids": [report.selected_worker_ids[0]] * campaign.k})
    assert check_campaign(campaign, duplicated)
    overspent = report.__class__(**{**report.__dict__, "spent_budget": report.total_budget + 1})
    assert check_campaign(campaign, overspent)
    serving = campaign.serve()
    assert check_serving(serving, campaign.instance.task_bank.n_working, 3) == []
    assert check_serving(serving, campaign.instance.task_bank.n_working, 4)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, copy / source.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-stream", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
