"""Golden pin: full ``ours`` campaigns must reproduce recorded bytes exactly.

Each digest is the SHA-256 of the canonical JSON of the campaign's
``CampaignReport.to_dict()`` together with the selector's final
``fitted_alphas``.  JSON renders floats with ``repr`` (shortest round-trip
form), so any change in the last bit of a fitted learning rate, an LGE
estimate or an evaluated accuracy changes the digest.  The values were
recorded with the per-worker scalar learning-rate fit; the batched fit must
reproduce them bit for bit.

The digests also depend on the floating-point environment (numpy's and
scipy's kernels for ``exp``, ``log1p`` and friends), so they are checked
only under the numpy/scipy versions they were recorded with (x86-64
Linux).  To re-record for another environment, run the test body at the
commit before a change and paste its digests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import scipy

from repro import Campaign

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

GOLDEN_DIGESTS = {
    ("RW-1", 0): "217fc522a7e9cfbe02adfbeae6cac5ca23cdcaa976c1fc15320416f816c31a05",
    ("RW-1", 7): "7e330f1d775d47422a19eb2576aaa900b1ec7f6f2543d4d40c84da2101813a1e",
    ("S-1", 0): "1052949e2d7d7457d7266efd6a2aef174a5d28d54b69d277800db42addc7564f",
    ("S-1", 7): "4bd7d5e69c857c19072c42191fe4b75c49815f839fe7b253ecb9dfd9b184f608",
    ("S-4", 0): "33486bdb9e828278851f68c0113842c42257a7e8f4593f5e766ba83e66a59778",
    ("S-4", 7): "43c86b4986e00610eb70dce0c502bdc8f4c71d21ec1e155632074ce6ff24a9dd",
}


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"golden digests were recorded with {RECORDED_WITH}",
)
@pytest.mark.parametrize(("dataset", "seed"), sorted(GOLDEN_DIGESTS))
def test_ours_campaign_matches_golden_digest(dataset, seed):
    campaign = Campaign(dataset, "ours", seed=seed)
    report = campaign.run()
    fitted_alphas = campaign.result().diagnostics["fitted_alphas"]
    assert fitted_alphas, "the ours selector must record fitted learning rates"
    payload = {"report": report.to_dict(), "fitted_alphas": fitted_alphas}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIGESTS[(dataset, seed)]
