"""Golden pin: marketplace runs must reproduce recorded journal bytes exactly.

Each digest is the SHA-256 of a run's journal bytes followed by the
canonical JSON of its ``MarketplaceReport.to_dict()`` (minus the
wall-clock ``elapsed_s``).  The journal records every delivered answer,
every prestudy outcome (observed accuracy, tier, admission) and every
routing decision, so a change in the last bit of a simulated accuracy or
of a counter-based draw changes the digest.  The values were recorded
with per-answer simulation and per-point prestudy evaluation; the batched
answer and prestudy paths must reproduce them bit for bit.

Four configurations cover the marketplace's answer-dependent paths:

* ``clean`` — clean S-1/S-2 campaigns under churn;
* ``drift`` — a 40%-drifter pool whose serving phase triggers
  checkpointed re-selections;
* ``scenario`` — contaminated S-2:spam10 / S-3:mixed20 campaigns with
  arrivals admitted (learning and drifting workers answer side by side);
* ``sharded`` — the scenario campaigns plus a drifting one under the
  sharded engine (inline executor, two shards).

Like ``test_lge_golden.py`` the digests depend on numpy's and scipy's
floating-point kernels, so they are checked only under the versions they
were recorded with (x86-64 Linux).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import scipy

from repro.marketplace import (
    CampaignSpec,
    ChurnConfig,
    MarketplaceConfig,
    MarketplaceOrchestrator,
)
from repro.serving.quality import DriftConfig

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

GOLDEN_DIGESTS = {
    "clean": "fd0f1d03cde55235e087ca3f4e5244a5295d6bd8101f4f95cd8dadb2a297ffad",
    "drift": "95c71747d50a361964676825b32793e8fbd6ed4509f965ae6fd92d66a0acd4a1",
    "scenario": "c492c2ce36f5889a6de86a9e12251a188b0e1def4cc1c0d7ec7c67bf191951fd",
    "sharded": "34c247d7e0356766922949b75768b839877ab1feb06e8458c70157fc46b50b14",
}

_DRIFT = DriftConfig(alpha=0.2, min_observations=5, demote_below=0.5, drop_tolerance=0.3, cooldown=5)


def _clean(journal_path):
    specs = [
        CampaignSpec(name="alpha", dataset="S-1", selector="us", k=5, seed=1),
        CampaignSpec(name="beta", dataset="S-2", selector="us", k=5, seed=2),
    ]
    orchestrator = MarketplaceOrchestrator(
        specs,
        config=MarketplaceConfig(total_tasks=30),
        churn=ChurnConfig(arrival_rate=0.8, departure_rate=0.05),
        journal_path=journal_path,
        seed=7,
    )
    return orchestrator, 60


def _drift(journal_path):
    spec = CampaignSpec(name="drifty", dataset="S-1:drift40", selector="us", k=6, seed=3)
    config = MarketplaceConfig(
        total_tasks=120,
        tasks_per_tick=4,
        drift=_DRIFT,
        reselect_fraction=0.3,
        max_reselections=2,
        requalify_ticks=2,
    )
    orchestrator = MarketplaceOrchestrator(
        [spec],
        config=config,
        churn=ChurnConfig(arrival_rate=1.0, departure_rate=0.01),
        journal_path=journal_path,
        seed=11,
    )
    return orchestrator, 120


def _scenario_specs():
    return [
        CampaignSpec(name="spam", dataset="S-2:spam10", selector="us", k=5, seed=4),
        CampaignSpec(name="mixed", dataset="S-3:mixed20", selector="us", k=5, seed=5),
    ]


def _scenario(journal_path):
    orchestrator = MarketplaceOrchestrator(
        _scenario_specs(),
        config=MarketplaceConfig(total_tasks=40, tasks_per_tick=3),
        churn=ChurnConfig(arrival_rate=1.2, departure_rate=0.04),
        journal_path=journal_path,
        seed=13,
    )
    return orchestrator, 70


def _sharded(journal_path):
    specs = _scenario_specs() + [
        CampaignSpec(name="drifty", dataset="S-1:drift40", selector="us", k=5, seed=6)
    ]
    config = MarketplaceConfig(
        total_tasks=40,
        tasks_per_tick=3,
        answer_delay=0,
        max_concurrent=4,
        drift=_DRIFT,
        reselect_fraction=0.3,
        requalify_ticks=2,
        tick_engine="sharded",
        n_shards=2,
    )
    orchestrator = MarketplaceOrchestrator(
        specs,
        config=config,
        churn=ChurnConfig(arrival_rate=1.0, departure_rate=0.08, bursts={6: 3}),
        journal_path=journal_path,
        seed=17,
        shard_executor="inline",
    )
    return orchestrator, 70


CONFIGURATIONS = {"clean": _clean, "drift": _drift, "scenario": _scenario, "sharded": _sharded}


def run_digest(name, journal_path):
    """Run configuration ``name``; returns ``(digest, report)``."""
    orchestrator, n_ticks = CONFIGURATIONS[name](journal_path)
    report = orchestrator.run(n_ticks, tick_batch=8)
    payload = report.to_dict()
    payload.pop("elapsed_s")
    digest = hashlib.sha256(
        journal_path.read_bytes() + json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest, report


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"golden digests were recorded with {RECORDED_WITH}",
)
@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_marketplace_run_matches_golden_digest(name, tmp_path):
    digest, report = run_digest(name, tmp_path / f"{name}.jsonl")
    if name == "drift":
        assert report.campaigns[0]["reselections"] >= 1
    if name in ("scenario", "sharded"):
        assert report.marketplace["arrivals_admitted"] > 0
    assert digest == GOLDEN_DIGESTS[name]
