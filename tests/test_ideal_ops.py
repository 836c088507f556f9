import functools
import random
from itertools import combinations

import pytest

from frobsplit import field_poly as fp
from frobsplit import groebner as gb
from frobsplit import ideal_ops as ops

import oracle
from conftest import minors_2x3, random_monomial_ideal, random_order, random_polynomial


def texts(I, order):
    return sorted(g.text(order) for g in I.generators)


# -- intersect ----------------------------------------------------------------


def test_intersect_examples(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    assert texts(
        ops.intersect(gb.ideal(R, [R.parse("x")]), gb.ideal(R, [R.parse("y")]), o), o
    ) == ["x*y"]
    I = gb.ideal(R, [R.parse("x^2"), R.parse("x*y")])
    assert gb.ideals_equal(ops.intersect(I, I, o), I, o)
    # derived via the pairwise-lcm formula: (x^2, xy) ∩ (y^2) minimalizes to (xy^2)
    J = gb.ideal(R, [R.parse("y^2")])
    assert texts(ops.intersect(I, J, o), o) == ["x*y^2"]


def test_intersect_result_has_cached_reduced_basis(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    got = ops.intersect(gb.ideal(R, [R.parse("x")]), gb.ideal(R, [R.parse("y")]), o)
    assert got._cached_gb(o) is not None
    G = gb.reduced_gb(got, o)
    for i, j in combinations(range(len(G.elements)), 2):
        s = oracle.s_polynomial(G.elements[i], G.elements[j], o)
        assert not s or gb.normal_form(s, G.elements, o).is_zero


def test_intersect_aux_variable_never_leaks(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    got = ops.intersect(
        gb.ideal(R, [R.parse("x + y")]), gb.ideal(R, [R.parse("x - y")]), o
    )
    assert all(g.ring == R for g in got.generators)


def test_intersect_against_lcm_formula_randomized():
    rng = random.Random(2024)
    R = fp.ring_new(3, ["x", "y", "z"])
    o = fp.grevlex()
    for _ in range(60):
        def random_monomial_ideal():
            gens = []
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(3))
                if any(e):
                    gens.append(R.polynomial({e: 1}))
            return gens
        A, B = random_monomial_ideal(), random_monomial_ideal()
        if not A or not B:
            continue
        got = ops.intersect(gb.ideal(R, A), gb.ideal(R, B), o)
        MA = gb.MonomialIdeal(R, tuple(f.leading_monomial(o) for f in A))
        MB = gb.MonomialIdeal(R, tuple(f.leading_monomial(o) for f in B))
        expected = oracle.monomial_ideal_intersection_lcm(MA, MB)
        assert sorted(m.exponents for m in expected.generators) == sorted(
            g.leading_monomial(o).exponents for g in got.generators
        )


def _orders(rng, n):
    tie = rng.choice(["lex", "grevlex"])
    return [fp.lex(), fp.grevlex(), fp.weight_order(tuple(rng.randint(1, 3) for _ in range(n)), tie)]


def _elimination_reference(A, B, o):
    """A ∩ B as the t-free elements of the elimination basis, picked by leading monomial."""
    ext = A.ring.extend()
    t = ext.variable(ext.n - 1)
    gens = [t * ops.embed(a, ext) for a in A.generators]
    gens += [(ext.one() - t) * ops.embed(b, ext) for b in B.generators]
    elim = fp.EliminationOrder(o)
    E = gb.reduced_gb(gb.ideal(ext, gens), elim)
    kept = [
        A.ring.polynomial({e[:-1]: c for e, c in g.terms_dict().items()})
        for g in E.elements
        if g.leading_monomial(elim).exponents[-1] == 0
    ]
    return gb.reduced_gb(gb.ideal(A.ring, kept), o).elements


def test_prefilled_bases_match_fresh_buchberger_runs():
    # intersect/colon cache a basis obtained without pair processing; a
    # from-scratch completion of the same generators must agree exactly,
    # and the intersection must agree with the elimination done here
    rng = random.Random(314)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        R = fp.ring_new(p, ["x", "y", "z"])
        o = rng.choice(_orders(rng, 3))
        ga = [random_polynomial(rng, R, 2, max_terms=3) for _ in range(2)]
        gc = [random_polynomial(rng, R, 2, max_terms=3) for _ in range(1)]
        ga = [g for g in ga if g]
        gc = [g for g in gc if g]
        if not ga or not gc:
            continue
        A, B = gb.ideal(R, ga), gb.ideal(R, gc)
        X = ops.intersect(A, B, o)
        fresh = gb.reduced_gb(gb.ideal(R, X.generators), o)
        assert fresh.elements == gb.reduced_gb(X, o).elements == X.generators
        assert X.generators == _elimination_reference(A, B, o)
        f = gc[0]
        C = ops.colon(A, f, o)
        fresh_c = gb.reduced_gb(gb.ideal(R, C.generators), o)
        assert fresh_c.elements == gb.reduced_gb(C, o).elements


def test_intersect_and_colon_under_weight_orders(ring_xy5):
    # elimination must compose with a weight base order
    R = ring_xy5
    o = fp.weight_order((3, 2), "grevlex")
    got = ops.intersect(gb.ideal(R, [R.parse("x")]), gb.ideal(R, [R.parse("y")]), o)
    assert [g.text(o) for g in got.generators] == ["x*y"]
    c = ops.colon(gb.ideal(R, [R.parse("x^2*y")]), R.parse("x"), o)
    assert [g.text(o) for g in c.generators] == ["x*y"]
    s = ops.saturate(gb.ideal(R, [R.parse("x^2*y")]), R.parse("x"), o)
    assert [g.text(o) for g in s.generators] == ["y"]


def test_intersect_with_unit_and_zero(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    B = gb.ideal(R, [R.parse("x^2 + y")])
    assert gb.ideals_equal(ops.intersect(gb.ideal(R, [R.one()]), B, o), B, o)
    assert ops.intersect(gb.ideal(R, []), B, o).is_zero



def _count_kernel_runs(monkeypatch):
    runs = []
    kernel = gb._buchberger

    def counting(*args, **kwargs):
        runs.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(gb, "_buchberger", counting)
    return runs


def _random_monomial_case(rng):
    n = rng.randint(1, 4)
    R = fp.ring_new(rng.choice([2, 3]), [f"x{i}" for i in range(n)])
    return R, random_order(rng, n)


def test_monomial_intersection_matches_elimination(monkeypatch):
    # two monomial ideals meet in the lcms of their generators, with no
    # kernel run; the zero and unit ideals are among the inputs
    runs = _count_kernel_runs(monkeypatch)
    rng = random.Random(1718)
    for _ in range(200):
        R, o = _random_monomial_case(rng)
        A, B = random_monomial_ideal(rng, R), random_monomial_ideal(rng, R)
        del runs[:]
        got = ops.intersect(A, B, o)
        assert runs == []
        assert got.generators == _elimination_reference(A, B, o)
        if not got.is_zero:
            assert got._cached_gb(o).elements == got.generators


def test_monomial_colon_by_a_term_matches_intersection_and_division(monkeypatch):
    # I : m = (a / gcd(a, m)) over the generators a, with no kernel run,
    # against (I ∩ (m)) / m with the intersection by elimination
    runs = _count_kernel_runs(monkeypatch)
    rng = random.Random(1719)
    for _ in range(200):
        R, o = _random_monomial_case(rng)
        I = random_monomial_ideal(rng, R)
        e = tuple(rng.randint(0, 3) for _ in range(R.n))
        m = R.polynomial({e: rng.randint(1, R.p - 1)})
        del runs[:]
        got = ops.colon(I, m, o)
        assert runs == []
        meet = _elimination_reference(I, gb.ideal(R, [m]), o)
        expected = gb.reduced_gb(gb.ideal(R, [ops.exact_divide(g, m, o) for g in meet]), o)
        assert gb.reduced_gb(got, o).elements == expected.elements
        if m.degree() > 0 and not I.is_zero:
            assert got.generators == expected.elements


def test_intersection_with_the_unit_ideal_takes_no_pair():
    # (1) ∩ B = B, shown by a constant generator or a cached basis (1)
    R = fp.ring_new(3, ["x0", "x1"])
    o = fp.lex()
    B = gb.ideal(R, [R.parse("x0^2 + x1"), R.parse("x1^3 + x0*x1 + 1")])
    G = gb.reduced_gb(B, o)
    unit_by_basis = gb.ideal(R, [R.parse("x0 + 1"), R.parse("x0")])
    gb.reduced_gb(unit_by_basis, o)
    for U in (gb.ideal(R, [R.constant(2)]), unit_by_basis):
        for A, C in ((U, B), (B, U)):
            with gb.Budget() as budget:
                X = ops.intersect(A, C, o)
            assert budget.pairs == 0
            assert X.generators == G.elements == X._cached_gb(o).elements
    # the colon of the unit-ideal test below, now by colon_ideal: 4 pairs
    # for the basis of I^[3], and none for the intersections of (1) with (1)
    I = gb.ideal(R, [R.parse("x0^2 + x0 + 2"), R.parse("2*x0*x1 + x1^2 + 1"), R.parse("x0*x1 + 2*x0 + 2")])
    with gb.Budget(50) as budget:
        C = ops.colon_ideal(ops.bracket_power(I, 1), I, o)
    assert C.generators == (R.one(),) and budget.pairs == 4


def _random_ideal(rng, R):
    """Zero, unit, or one to three random generators of degree at most 2."""
    kind = rng.random()
    if kind < 0.08:
        return gb.ideal(R, [])
    if kind < 0.16:
        return gb.ideal(R, [R.one()])
    return gb.ideal(R, [random_polynomial(rng, R, 2, max_terms=3, nonzero=True) for _ in range(rng.randint(1, 3))])


def _random_ring_and_order(rng):
    n = rng.randint(2, 4)
    R = fp.ring_new(rng.choice([2, 3, 5]), [f"x{i}" for i in range(n)])
    return R, rng.choice(_orders(rng, n))


def test_intersect_same_basis_with_or_without_cached_inputs():
    # a cached reduced basis stands in for an input's generators, and the
    # kernel skips the pairs inside it; the result must not depend on that
    rng = random.Random(1616)
    for _ in range(150):
        R, o = _random_ring_and_order(rng)
        A, B = _random_ideal(rng, R), _random_ideal(rng, R)
        plain = ops.intersect(gb.ideal(R, A.generators), gb.ideal(R, B.generators), o)
        gb.reduced_gb(A, o)
        one_known = ops.intersect(A, gb.ideal(R, B.generators), o)
        gb.reduced_gb(B, o)
        both_known = ops.intersect(A, B, o)
        assert plain.generators == one_known.generators == both_known.generators
        assert plain.generators == gb.reduced_gb(gb.ideal(R, plain.generators), o).elements


def test_balanced_intersection_matches_left_fold():
    rng = random.Random(1617)
    for _ in range(60):
        R, o = _random_ring_and_order(rng)
        ideals = [_random_ideal(rng, R) for _ in range(rng.randint(3, 5))]
        fold = functools.reduce(lambda A, B: ops.intersect(A, B, o), ideals)
        fresh = [gb.ideal(R, I.generators) for I in ideals]
        assert ops.intersect_all(fresh, o).generators == fold.generators


# -- colon ---------------------------------------------------------------------


def test_colon_examples(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    assert texts(ops.colon(gb.ideal(R, [R.parse("x^2")]), R.parse("x"), o), o) == ["x"]
    I = gb.ideal(R, [R.parse("x^2"), R.parse("x*y")])
    assert gb.ideals_equal(ops.colon(I, R.one(), o), I, o)
    assert texts(
        ops.colon(gb.ideal(R, [R.parse("x^2*y^2")]), R.parse("x*y"), o), o
    ) == ["x*y"]
    with pytest.raises(fp.ZeroPolynomialError):
        ops.colon(I, R.zero(), o)



def test_colon_of_the_unit_ideal_takes_no_elimination():
    # this I is (1), and so is I^[3]; colon reads the reduced basis of I^[3]
    # (4 pairs) before it eliminates, and an elimination from the generators
    # ran out of memory within 42 pairs
    R = fp.ring_new(3, ["x0", "x1"])
    I = gb.ideal(R, [R.parse("x0^2 + x0 + 2"), R.parse("2*x0*x1 + x1^2 + 1"), R.parse("x0*x1 + 2*x0 + 2")])
    with gb.Budget(50) as budget:
        C = ops.colon(ops.bracket_power(I, 1), R.parse("x0^2 + x0 + 2"), fp.lex())
    assert C.generators == (R.one(),) and budget.pairs == 4

def test_colon_ideal_examples():
    # (g^2) : (g) = (g) for the irreducible 2x2 determinant, p = 2
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    o = fp.lex()
    g = R.parse("x1*x4 - x2*x3")
    I = gb.ideal(R, [g])
    C = ops.colon_ideal(ops.bracket_power(I, 1), I, o)
    assert gb.ideals_equal(C, I, o)
    # I : I = (1)
    assert texts(ops.colon_ideal(I, I, o), o) == ["1"]
    with pytest.raises(fp.ZeroPolynomialError):
        ops.colon_ideal(I, gb.ideal(R, []), o)


def test_colon_ideal_presentation_independent():
    # two generating sets of the same ideal give the same I^[p] : I
    R = fp.ring_new(3, ["x", "y", "z"])
    o = fp.grevlex()
    g1, g2 = R.parse("x*y - z^2"), R.parse("y^2 - x*z")
    A = gb.ideal(R, [g1, g2])
    B = gb.ideal(R, [g1 + g2, g2, g1 + R.parse("2") * g2])
    CA = ops.colon_ideal(ops.bracket_power(A, 1), A, o)
    # bracket powers of different generating sets of the same ideal agree
    # by flatness of Frobenius, so compare through B's own presentation
    CB = ops.colon_ideal(ops.bracket_power(B, 1), B, o)
    assert gb.ideals_equal(CA, CB, o)


def test_principal_colon_matches_elimination(monkeypatch):
    # (h) : f skips the intersection when f divides h; presenting the same
    # ideal as (h, x*h) forces the elimination route
    meets = []
    meet = ops._eliminated_meet

    def counting(*args, **kwargs):
        meets.append(1)
        return meet(*args, **kwargs)

    monkeypatch.setattr(ops, "_eliminated_meet", counting)
    rng = random.Random(17)
    kinds = {"divides": 0, "unit": 0, "inexact": 0}
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        R = fp.ring_new(p, ["x", "y", "z"])
        o = rng.choice(_orders(rng, 3))
        f = random_polynomial(rng, R, 2, max_terms=3, nonzero=True)
        if f.degree() == 0:
            continue
        kind = rng.choice(list(kinds))
        if kind == "divides":
            h = f * random_polynomial(rng, R, 2, max_terms=3, nonzero=True)
        elif kind == "unit":
            h = rng.randint(1, p - 1) * f
        else:
            h = f * random_polynomial(rng, R, 1, max_terms=2, nonzero=True) + R.variable(
                rng.randrange(3)
            )
            if gb._quotient(h, f, o) is not None:
                continue
        del meets[:]
        got = ops.colon(gb.ideal(R, [h]), f, o)
        assert len(meets) == (kind == "inexact")
        reference = ops.colon(gb.ideal(R, [h, R.variable(0) * h]), f, o)
        assert gb.reduced_gb(got, o).elements == gb.reduced_gb(reference, o).elements
        if kind != "inexact":
            assert got.generators == gb.reduced_gb(got, o).elements
        kinds[kind] += 1
    assert min(kinds.values()) >= 10


def test_exact_divide_randomized():
    # (f*q)/f == q, and f*q + m is not a multiple of f when f has two or
    # more terms and m is a monomial
    rng = random.Random(23)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        R = fp.ring_new(p, ["x", "y", "z"])
        o = rng.choice(_orders(rng, 3))
        f = random_polynomial(rng, R, 3, max_terms=4, nonzero=True)
        q = random_polynomial(rng, R, 3, max_terms=4)
        assert ops.exact_divide(f * q, f, o) == q
        if len(f.terms_dict()) >= 2:
            e = tuple(rng.randint(0, 3) for _ in range(3))
            m = R.polynomial({e: rng.randint(1, p - 1)})
            with pytest.raises(fp.FieldPolyError, match="inexact"):
                ops.exact_divide(f * q + m, f, o)


def test_exact_divide_errors(ring_xy5):
    R = ring_xy5
    with pytest.raises(fp.FieldPolyError):
        ops.exact_divide(R.parse("x + 1"), R.parse("y"), fp.lex())
    with pytest.raises(fp.ZeroPolynomialError):
        ops.exact_divide(R.parse("x + 1"), R.zero(), fp.lex())
    S = fp.ring_new(5, ["x", "y", "z"])
    for g, f in ((S.parse("x*y"), R.parse("x")), (R.parse("x*y"), S.parse("x"))):
        with pytest.raises(fp.RingMismatchError):
            ops.exact_divide(g, f, fp.lex())
    with pytest.raises(fp.FieldPolyError):
        ops.colon(gb.ideal(S, [S.parse("x*y")]), R.parse("x"), fp.lex())


# -- saturate --------------------------------------------------------------------


def test_saturate_examples(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    s = ops.saturate(gb.ideal(R, [R.parse("x^2*y")]), R.parse("y"), o)
    assert texts(s, o) == ["x^2"] and s.provenance["saturation_exponent"] == 1
    I = gb.ideal(R, [R.parse("x^2"), R.parse("x*y")])
    s2 = ops.saturate(I, R.parse("x"), o)
    assert texts(s2, o) == ["1"] and s2.provenance["saturation_exponent"] == 2
    s3 = ops.saturate(I, R.one(), o)
    assert gb.ideals_equal(s3, I, o) and s3.provenance["saturation_exponent"] == 0


def test_saturate_invariants(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    rng = random.Random(17)
    for _ in range(20):
        gens = [random_polynomial(rng, R, 3, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if g]
        f = random_polynomial(rng, R, 2, nonzero=True)
        if not gens or not f:
            continue
        I = gb.ideal(R, gens)
        S = ops.saturate(I, f, o)
        # saturation contains the ideal
        for g in I.generators:
            assert gb.member(g, S, o)
        # and is idempotent
        assert gb.ideals_equal(ops.saturate(S, f, o), S, o)


# -- powers ----------------------------------------------------------------------


def test_power_examples(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    assert texts(ops.power(gb.ideal(R, [R.parse("x")]), 2), o) == ["x^2"]
    I = gb.ideal(R, [R.parse("x"), R.parse("y")])
    assert ops.power(I, 1) is not I and gb.ideals_equal(ops.power(I, 1), I, o)
    assert texts(ops.power(I, 2), o) == ["x*y", "x^2", "y^2"]
    with pytest.raises(fp.FieldPolyError):
        ops.power(I, 0)


def test_bracket_power_examples():
    R = fp.ring_new(2, ["x", "y"])
    o = fp.lex()
    assert texts(ops.bracket_power(gb.ideal(R, [R.parse("x + y")]), 1), o) == ["x^2 + y^2"]
    assert texts(ops.bracket_power(gb.ideal(R, [R.parse("x*y")]), 1), o) == ["x^2*y^2"]
    R5 = fp.ring_new(5, ["x1", "x2", "x3"])
    I = gb.ideal(R5, [R5.parse("x1*x3"), R5.parse("x1*x2"), R5.parse("x2*x3")])
    assert texts(ops.bracket_power(I, 1), fp.lex()) == [
        "x1^5*x2^5",
        "x1^5*x3^5",
        "x2^5*x3^5",
    ]


def test_bracket_power_matches_ordinary_power():
    rng = random.Random(23)
    for p in [2, 3]:
        R = fp.ring_new(p, ["x", "y"])
        for _ in range(10):
            f = random_polynomial(rng, R, 2, max_terms=3, nonzero=True)
            assert ops.frobenius_power_poly(f, 1) == f**p
    # and g^p lies in the ordinary p-th power of the ideal
    R = fp.ring_new(3, ["x", "y"])
    I = gb.ideal(R, [R.parse("x + y"), R.parse("x*y - 1")])
    B = ops.bracket_power(I, 1)
    P = ops.power(I, 3)
    for g in B.generators:
        assert gb.member(g, P, fp.lex())


def test_bracket_power_overflow():
    R = fp.ring_new(5, ["x"])
    I = gb.ideal(R, [R.polynomial({(2**20,): 1})])
    with pytest.raises(fp.ExponentOverflowError):
        ops.bracket_power(I, 5)



def test_bracket_power_precaches_frobenius_power_of_basis():
    # lm(g^q) = lm(g)^q and a q-th power keeps G reduced, so G^[q] is the
    # reduced basis of I^[q]: it must equal a completion from scratch
    rng = random.Random(1618)
    for _ in range(60):
        R, o = _random_ring_and_order(rng)
        I = _random_ideal(rng, R)
        G = gb.reduced_gb(I, o)
        for e in (1, 2):
            B = ops.bracket_power(I, e)
            q = R.p**e
            assert B._cached_gb(o).elements == tuple(ops.frobenius_power_poly(g, e) for g in G)
            fresh = gb.reduced_gb(gb.ideal(R, B.generators), o)
            assert B._cached_gb(o).elements == fresh.elements
            assert all(
                m.exponents == tuple(q * a for a in lm.exponents)
                for m, lm in zip(fresh.leading_monomials(), G.leading_monomials())
            )
    # no basis cached, none pre-cached
    R = fp.ring_new(2, ["x", "y"])
    assert ops.bracket_power(gb.ideal(R, [R.parse("x + y")]), 1)._cached_gb(fp.lex()) is None


def test_bracket_power_skips_a_basis_past_the_exponent_cap():
    # under lex the basis of (x - y^k, x^2) holds y^(2k): its square passes
    # MAX_EXPONENT where the generators' squares do not, so bracket_power
    # answers as before, without a pre-cached basis
    R = fp.ring_new(2, ["x", "y"])
    k = 2**29
    I = gb.ideal(R, [R.parse(f"x - y^{k}"), R.parse("x^2")])
    assert [g.text(fp.lex()) for g in gb.reduced_gb(I, fp.lex())] == [f"y^{2 * k}", f"x + y^{k}"]
    B = ops.bracket_power(I, 1)
    assert [g.text(fp.lex()) for g in B.generators] == [f"x^2 + y^{2 * k}", "x^4"]
    assert B._cached_gb(fp.lex()) is None


# -- symbolic powers ---------------------------------------------------------------


def test_symbolic_power_prime_complete_intersection(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    P = gb.ideal(R, [R.parse("x")])
    S = ops.symbolic_power_prime(P, 2, R.one(), o)
    assert texts(S, o) == ["x^2"]
    assert S.provenance["symbolic_power"] == 2
    # m = 1 gives back the prime
    assert gb.ideals_equal(ops.symbolic_power_prime(P, 1, R.parse("y"), o), P, o)


def test_symbolic_power_minors_equals_ordinary_square():
    ring, P = minors_2x3(p=2)
    o = fp.lex()
    g = ring.parse("x11")
    S = ops.symbolic_power_prime(P, 2, g, o)
    P2 = ops.power(P, 2)
    assert gb.ideals_equal(S, P2, o)
    # independent truncated-staircase confirmation
    mb = oracle.MacaulayBasis(ring, list(P2.generators), o, 6)
    assert sorted(mb.staircase()) == sorted(
        m.exponents for m in gb.initial_ideal(S, o).generators if m.degree() <= 6
    )
    for h in gb.reduced_gb(S, o).elements:
        if h.degree() <= 6:
            assert mb.contains(h)


def test_symbolic_power_contains_ordinary_power():
    ring, P = minors_2x3(p=3)
    o = fp.grevlex()
    S = ops.symbolic_power_prime(P, 2, ring.parse("x11"), o)
    for g in ops.power(P, 2).generators:
        assert gb.member(g, S, o)


def test_symbolic_power_rejects_witness_in_prime(ring_xy5):
    R = ring_xy5
    P = gb.ideal(R, [R.parse("x")])
    with pytest.raises(ops.WitnessInPrimeError):
        ops.symbolic_power_prime(P, 2, R.parse("x*y"), fp.lex())
    with pytest.raises(ops.WitnessInPrimeError):
        ops.symbolic_power_prime(P, 2, R.zero(), fp.lex())


# -- homogenization ----------------------------------------------------------------


def test_homogenize_single_generator(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    H = ops.homogenize_w(gb.ideal(R, [R.parse("x^2 - y")]), (1, 1), o)
    assert H.ring.names == ("x", "y", "t")
    assert texts(H, fp.lex()) == ["x^2 + 4*y*t"]
    assert ops.dehomogenize(H.generators[0]) == R.parse("x^2 - y")


def test_homogenize_weight_homogeneous_input(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    I = gb.ideal(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
    H = ops.homogenize_w(I, (1, 1), o)
    for F in H.generators:
        assert F.terms_dict().keys() == {e + (0,) for e in ops.dehomogenize(F).terms_dict()}
    assert gb.ideals_equal(ops.dehomogenize_ideal(H), I, o)


def test_homogenize_generators_only_is_insufficient():
    # homogenizing the raw generators misses hom_w(I): the witness is the
    # S-pair x - y^2 whose homogenization is not in the naive ideal
    R = fp.ring_new(5, ["x", "y"])
    o = fp.lex()
    I = gb.ideal(R, [R.parse("x^2 - y"), R.parse("x*y - 1")])
    w = (1, 1)
    H = ops.homogenize_w(I, w, o)
    ext = H.ring
    naive = gb.ideal(
        ext,
        [
            ext.parse("x^2 - y*t"),
            ext.parse("x*y - t^2"),
        ],
    )
    elim = fp.grevlex()
    member_h = gb.member(ext.parse("x*t - y^2"), H, elim)
    member_naive = gb.member(ext.parse("x*t - y^2"), naive, elim)
    assert member_h and not member_naive


def test_dehomogenize_examples(ring_xy5):
    R = ring_xy5
    ext = R.extend()
    assert ops.dehomogenize(ext.parse("x^2 - y*t")) == R.parse("x^2 - y")
    assert ops.dehomogenize(ext.parse("t^3")) == R.one()
    with pytest.raises(fp.FieldPolyError):
        ops.dehomogenize(R.parse("x"))


def test_dehomogenize_inverts_homogenize(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    rng = random.Random(31)
    for _ in range(15):
        gens = [random_polynomial(rng, R, 3, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = gb.ideal(R, gens)
        w = (rng.randint(1, 4), rng.randint(1, 4))
        H = ops.homogenize_w(I, w, o)
        assert gb.ideals_equal(ops.dehomogenize_ideal(H), I, o)
        for F in H.generators:
            assert ops.is_weight_homogeneous(F, w)
            with pytest.raises(fp.FieldPolyError, match="all but the homogenizing variable"):
                ops.is_weight_homogeneous(F, w + (1,))


# -- monomial dimension --------------------------------------------------------------


def brute_force_dimension(M):
    """Exhaustive oracle over all variable subsets."""
    n = M.ring.n
    supports = [set(g.support()) for g in M.generators]
    best = -1
    for mask in range(2**n):
        Z = {i for i in range(n) if mask >> i & 1}
        if all(not s <= Z for s in supports):
            best = max(best, len(Z))
    return best


def test_monomial_dimension_examples(ring5):
    R2 = fp.ring_new(5, ["x", "y"])
    assert ops.monomial_dimension(gb.MonomialIdeal(R2, (R2.monomial((1, 1)),))) == 1
    assert ops.monomial_dimension(gb.MonomialIdeal(R2, (R2.monomial((1, 0)),))) == 1
    M = gb.MonomialIdeal(
        ring5,
        (
            ring5.monomial((1, 0, 1, 0, 0)),
            ring5.monomial((1, 1, 0, 0, 0)),
            ring5.monomial((0, 1, 1, 0, 0)),
        ),
    )
    assert ops.monomial_dimension(M) == brute_force_dimension(M) == 3
    with pytest.raises(ops.ImproperIdealError):
        ops.monomial_dimension(gb.MonomialIdeal(R2, (R2.monomial((0, 0)),)))
    assert ops.monomial_dimension(gb.MonomialIdeal(R2, ())) == 2


def test_weight_order_initial_ideal_matches_initial_forms(ring5):
    # in(I) under the weight order equals the tiebreak initial ideal of the
    # ideal generated by the weight initial forms
    from conftest import deformed_minors_ideal

    I = deformed_minors_ideal(ring5)
    w = (6, 24, 6, 3, 1)
    for tie in ("lex", "grevlex"):
        worder = fp.weight_order(w, tie)
        tie_order = fp.lex() if tie == "lex" else fp.grevlex()
        direct = gb.initial_ideal(gb.ideal(ring5, I.generators), worder)
        via_forms = gb.initial_ideal(
            ops.initial_forms_ideal(gb.ideal(ring5, I.generators), w, tie_order),
            tie_order,
        )
        assert direct == via_forms
    # and on a second fixture
    R = fp.ring_new(2, ["x", "y"])
    J = gb.ideal(R, [R.parse("x^2 - y"), R.parse("x*y - 1")])
    w2 = (2, 3)
    direct = gb.initial_ideal(gb.ideal(R, J.generators), fp.weight_order(w2, "lex"))
    via_forms = gb.initial_ideal(
        ops.initial_forms_ideal(gb.ideal(R, J.generators), w2, fp.lex()), fp.lex()
    )
    assert direct == via_forms


def test_monomial_dimension_randomized_against_brute_force():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 5)
        R = fp.ring_new(2, [f"x{i}" for i in range(n)])
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            if any(e):
                gens.append(R.monomial(e))
        if not gens:
            continue
        M = gb.MonomialIdeal(R, tuple(gens))
        assert ops.monomial_dimension(M) == brute_force_dimension(M)
