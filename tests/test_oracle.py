import random

import pytest

from frobsplit import field_poly as fp
from frobsplit import groebner as gb

import oracle


def test_monomials_up_to_counts():
    # C(n + d, n) monomials of degree <= d
    assert len(oracle.monomials_up_to(2, 3)) == 10
    assert len(oracle.monomials_up_to(3, 2)) == 10
    assert oracle.monomials_up_to(2, 0) == [(0, 0)]


def test_rref_is_reduced():
    import numpy as np

    A = np.array([[1, 0, 0], [0, 2, 0], [1, 1, 3]], dtype=np.int64)  # det = 6, a unit mod 5
    R, pivots = oracle._rref_mod_p(A, 5)
    assert len(pivots) == 3
    for i, c in enumerate(pivots):
        assert R[i, c] == 1
        col = R[:, c].copy()
        col[i] = 0
        assert not col.any()


def test_macaulay_recovers_derived_gb():
    # frozen example: staircase and basis at truncation degree 6
    R = fp.ring_new(5, ["x", "y"])
    o = fp.lex()
    gens = [R.parse("x^2 - y"), R.parse("x*y - 1")]
    mb = oracle.MacaulayBasis(R, gens, o, 6)
    assert mb.staircase() == [(0, 3), (1, 0)]
    cand = mb.reduced_gb_candidate()
    assert [c.text(o) for c in cand] == ["y^3 + 4", "x + 4*y^2"]
    assert mb.contains(R.parse("x - y^2"))
    assert not mb.contains(R.parse("x + 1"))


def test_macaulay_membership_degree_guard():
    R = fp.ring_new(5, ["x"])
    mb = oracle.MacaulayBasis(R, [R.parse("x")], fp.lex(), 3)
    with pytest.raises(ValueError):
        mb.contains(R.parse("x^5"))


def test_stable_gb_grows_until_agreement():
    R = fp.ring_new(5, ["x", "y"])
    res = oracle.stable_gb(R, [R.parse("x^2 - y"), R.parse("x*y - 1")], fp.lex(), 3, 10)
    assert res is not None
    cand, d = res
    assert [c.text(fp.lex()) for c in cand] == ["y^3 + 4", "x + 4*y^2"]


def test_oracle_exact_for_homogeneous_ideals():
    # for homogeneous input the truncated span is the full degree slice,
    # so the staircase matches Buchberger's at any covering degree
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([2, 3])
        R = fp.ring_new(p, ["x", "y", "z"])
        order = rng.choice([fp.lex(), fp.grevlex()])
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 2)
            coeffs = {}
            for e in oracle.monomials_up_to(3, d):
                if sum(e) == d and rng.random() < 0.5:
                    coeffs[e] = rng.randint(1, p - 1)
            f = R.polynomial(coeffs)
            if f:
                gens.append(f)
        if not gens:
            continue
        B = gb.reduced_gb(gb.ideal(R, gens), order)
        top = max((g.degree() for g in B.elements), default=1)
        cand = oracle.macaulay_gb(R, gens, order, top + 2)
        assert list(B.elements) == cand
