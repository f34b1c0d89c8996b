"""Differential N-way identity matrix.

One parametrized test proves the headline reproducibility claim: the same
seeded episode is bit-identical whether it is rerun, runs with
observability instrumentation enabled, under the invariant auditor, on
the object-node population backend or in worker processes.  This
replaces the ad-hoc pairwise comparisons that used to live in
tests/obs/test_bit_identity.py.
"""

import tempfile

import pytest

from repro.testing import VARIANTS, run_matrix, run_variant
from repro.testing.differential import matrix_report
from repro.testing.scenarios import get_scenario


@pytest.mark.parametrize("scenario", ["baseline", "faulted"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_bit_identical(scenario, variant, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outcome = run_variant(get_scenario(scenario), variant)
    assert outcome.identical, outcome.describe()
    assert outcome.rounds > 0
    # No variant may leave anything in the temp dir behind.
    assert list(tmp_path.iterdir()) == []


def test_run_matrix_covers_all_variants():
    outcomes = run_matrix("baseline", variants=("rerun", "audited"))
    assert [o.variant for o in outcomes] == ["rerun", "audited"]
    assert all(o.identical for o in outcomes)


def test_matrix_report_maps_scenarios_to_outcomes():
    report = matrix_report(["baseline"], variants=("rerun",))
    assert set(report) == {"baseline"}
    (outcome,) = report["baseline"]
    assert outcome.identical
    assert "bit-identical" in outcome.describe()


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        run_variant(get_scenario("baseline"), "nonsense")
