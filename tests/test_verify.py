"""What one seeded OR-composition trial checks."""

import random

import pytest

from fractalcut import Graph, verify


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


def _moving_edge_5_of_depth_2_to(pair):
    """build_fractal, but the depth-2 fractal's edge 5, (2, 3), is ``pair``."""
    build = verify.build_fractal

    def corrupted(q, directed=False, cost=1):
        f = build(q, directed, cost)
        if q == 2:
            rows = [(e.u, e.v) for e in f.graph.edges]
            rows[5] = pair
            object.__setattr__(f, "graph", Graph(directed, f.graph.n, rows,
                                                 f.graph.labels))
        return f
    return corrupted


@pytest.mark.parametrize("check, pair, first_failure", [
    (verify.check_fractal_formulas, (1, 3),
     "q=2: edge list differs from the marked-edge rounds"),
    (verify.check_directed_fractal_acyclic, (3, 2),
     "q=2: arc against the position order"),
    (verify.check_min_cut_suite, (1, 3),
     "q=2: cut 2 not a minimal disconnecting set"),
    (verify.check_distance_split, (3, 2), "q=2 dir=True cut 3: inf+inf != 2"),
], ids=["formulas", "acyclic", "min-cuts", "distance-split"])
def test_lemma_checks_fail_on_a_corrupted_fractal(monkeypatch, check, pair,
                                                  first_failure):
    # (1, 3) breaks the edge order and the cut through gap 2; the arc (3, 2)
    # points against the position order and cuts 3 off sigma.
    assert check(3).ok
    monkeypatch.setattr(verify, "build_fractal", _moving_edge_5_of_depth_2_to(pair))
    result = check(3)
    assert result.ok is False
    assert result.detail.split("; ")[0] == first_failure


def test_short_path_check_samples_shallow_fractals():
    # A depth-q fractal has 2**(q+1) - 1 edges, fewer than the 8 deletions
    # a sample may draw at q <= 2.
    for q in (0, 1, 2):
        assert verify.check_short_path(exhaustive_q=0, random_q=q, samples=50).ok
