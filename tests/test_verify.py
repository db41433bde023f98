"""What one seeded OR-composition trial checks."""

import random

import pytest

from fractalcut import verify


@pytest.mark.parametrize("flavor,seed", [("lbec-und", 4), ("dsct", 0)])
def test_or_composition_trial_replays_each_modes_witness(monkeypatch, flavor,
                                                         seed):
    # Both seeds draw a yes input, so each mode's composed verdict carries a
    # witness.  Refusing every replay on a unit-cost graph fails only the
    # simple mode's.
    def trial():
        return verify.or_composition_trial(random.Random(seed), flavor, p=2,
                                           k=1, ell=3, n_hi=4,
                                           check_simple=True)

    assert trial() is None
    monkeypatch.setattr(verify, "check_witness",
                        lambda inst, edges: not inst.graph.is_unit)
    assert trial() == f"{flavor} p=2 k=1 ell=3: simple witness replay failed"
