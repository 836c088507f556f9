import random
from collections import Counter
from itertools import combinations, product

import pytest

from frobsplit import field_poly as fp
from frobsplit import frobenius as fr
from frobsplit import groebner as gb
from frobsplit import ideal_ops as ops

from conftest import minors_2x3, random_polynomial


# -- trace ------------------------------------------------------------------------


def test_trace_examples():
    R = fp.ring_new(3, ["x1", "x2"])
    assert fr.trace(R.parse("x1^2*x2^2")) == R.one()
    assert fr.trace(R.parse("x1^5*x2^2")) == R.parse("x1")
    assert fr.trace(R.parse("x1^4*x2^2")).is_zero
    assert fr.trace(R.zero()).is_zero


def test_trace_linearity_over_p_th_powers():
    # trace(h^p * g) = h * trace(g)
    rng = random.Random(13)
    for p in [2, 3, 5]:
        R = fp.ring_new(p, ["x", "y"])
        for _ in range(40):
            h = random_polynomial(rng, R, 2, max_terms=3)
            g = random_polynomial(rng, R, 4, max_terms=4)
            assert fr.trace((h**p) * g) == h * fr.trace(g)


def test_dual_basis_identity():
    # (x^(p-1-i) * trace)(x^j) is 1 exactly when i == j, over all pairs below p
    for p in [2, 3]:
        for n in [1, 2, 3]:
            R = fp.ring_new(p, [f"x{k}" for k in range(n)])
            for i in product(range(p), repeat=n):
                carrier = R.polynomial({tuple(p - 1 - a for a in i): 1})
                for j in product(range(p), repeat=n):
                    val = fr.star_apply(carrier, R.polynomial({j: 1}))
                    if i == j:
                        assert val == R.one()
                    else:
                        assert val.is_zero


def test_star_apply_examples():
    R = fp.ring_new(2, ["x"])
    assert fr.star_apply(R.parse("x"), R.one()) == R.one()
    assert fr.star_apply(R.parse("x"), R.parse("x")).is_zero
    for p, n in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        S = fp.ring_new(p, [f"x{k}" for k in range(n)])
        assert fr.star_apply(fr.standard_splitting_carrier(S), S.one()) == S.one()


def test_initial_form_trace_disjunction():
    # either trace(in_w(g)) = 0 or it equals in_w(trace(g))
    rng = random.Random(101)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        g = random_polynomial(rng, R, 6, max_terms=6, nonzero=True)
        w = tuple(rng.randint(1, 9) for _ in range(n))
        lhs = fr.trace(g.initial_w(w))
        if lhs.is_zero:
            continue
        tg = fr.trace(g)
        assert tg
        assert lhs == tg.initial_w(w)


# -- splitting detection ---------------------------------------------------------


def test_is_splitting_examples():
    for p, n in [(2, 2), (3, 2), (5, 3)]:
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        assert fr.is_splitting(fr.standard_splitting_carrier(R)).ok
    R = fp.ring_new(2, ["x1", "x2"])
    chk = fr.is_splitting(R.parse("x1*x2 + x1^3*x2^3"))
    assert not chk.ok and chk.violation.exponents == (3, 3)
    R5 = fp.ring_new(5, ["x1", "x2"])
    chk2 = fr.is_splitting(R5.parse("2*x1^4*x2^4"))
    assert not chk2.ok and "coefficient 2" in chk2.reason


def test_is_splitting_iff_trace_is_one():
    # the violation is the first term of f, in its term order, whose exponents
    # are all p-1 mod p, other than the top monomial; else the top monomial
    rng = random.Random(55)
    seen = set()
    for _ in range(600):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        top = (p - 1,) * n
        f = random_polynomial(rng, R, 2 * p, max_terms=4)
        if rng.random() < 0.5:
            f = f + R.polynomial({top: 1})
        chk = fr.is_splitting(f)
        terms = f.terms_dict()
        other = next((e for e in terms if e != top and all(a % p == p - 1 for a in e)), None)
        if other is not None:
            want = (False, other, "monomial with all exponents = -1 mod p other than the top monomial")
        elif terms.get(top, 0) != 1:
            want = (False, top, f"top monomial has coefficient {terms.get(top, 0)}, expected 1")
        else:
            want = (True, None, "")
        assert (chk.ok, chk.violation and chk.violation.exponents, chk.reason) == want
        assert chk.ok == (fr.trace(f) == R.one())
        seen.add("ok" if chk.ok else "top" if want[1] == top else "other")
    assert seen == {"ok", "top", "other"}  # each verdict occurs


# -- trace iteration -------------------------------------------------------------


def iterate(f, g, n):
    """The map f * trace composed n times and applied to g: star_apply in a loop."""
    for _ in range(n):
        g = fr.star_apply(f, g)
    return g


def test_trace_iterate_plain_trace():
    # carrier 1 iterates the bare trace map
    R = fp.ring_new(2, ["x"])
    one = R.one()
    assert iterate(one, R.parse("x^3"), 1) == R.parse("x")
    assert iterate(one, R.parse("x^3"), 2) == R.one()
    for p, n, N in [(2, 2, 3), (3, 1, 2), (5, 2, 2)]:
        S = fp.ring_new(p, [f"x{k}" for k in range(n)])
        g = S.polynomial({(p**N - 1,) * n: 1})
        assert iterate(S.one(), g, N) == S.one()


def test_trace_iterate_matches_star_apply_at_one():
    rng = random.Random(77)
    R = fp.ring_new(3, ["x", "y"])
    for _ in range(30):
        f = random_polynomial(rng, R, 3, max_terms=3)
        g = random_polynomial(rng, R, 4, max_terms=4)
        assert iterate(f, g, 1) == fr.star_apply(f, g) == fr.trace(f * g)
        assert iterate(f, g, 2) == fr.trace(f * fr.trace(f * g))


def test_standard_carrier_iterate_divides_exponents():
    # the standard splitting sends x^a to x^(a/p) when p | a, else 0
    for p in [2, 3]:
        R = fp.ring_new(p, ["x", "y"])
        theta = fr.standard_splitting_carrier(R)
        assert iterate(theta, R.polynomial({(p * 2, p): 1}), 1) == R.polynomial({(2, 1): 1})
        assert iterate(theta, R.polynomial({(p * 2 + 1, p): 1}), 1).is_zero
        N = 2
        g = R.polynomial({(p**N * 3, p**N): 1})
        assert iterate(theta, g, N) == R.polynomial({(3, 1): 1})


# -- Fedder membership and compatibility ---------------------------------------


def test_fedder_membership_examples():
    R = fp.ring_new(2, ["x", "y"])
    o = fp.lex()
    I = gb.ideal(R, [R.parse("x*y")])
    assert fr.fedder_membership(R.parse("x*y"), I, o)
    assert not fr.fedder_membership(R.one(), gb.ideal(R, [R.parse("x")]), o)
    R4 = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    g = R4.parse("x1*x4 - x2*x3")
    assert fr.fedder_membership(g, gb.ideal(R4, [g]), fp.lex())


def test_compatible_check_examples():
    R = fp.ring_new(2, ["x1", "x2"])
    o = fp.lex()
    theta = fr.standard_splitting_carrier(R)
    assert fr.compatible_check(theta, gb.ideal(R, [R.parse("x1*x2")]), o)
    assert not fr.compatible_check(theta, gb.ideal(R, [R.parse("x1^2")]), o)
    assert fr.compatible_check(theta, gb.ideal(R, []), o)


def test_ring_mismatch_raises_on_zero_and_nonzero_ideals():
    # the ring is checked before the generators are looked at, so an empty
    # generator list cannot make a foreign polynomial compatible
    S = fp.ring_new(5, ["a", "b", "c"])
    R = fp.ring_new(3, ["x", "y"])
    f = S.parse("a*b")
    for J in (gb.ideal(R, []), gb.ideal(R, [R.parse("x*y")])):
        for check in (fr.compatible_check, fr.fedder_membership):
            with pytest.raises(fp.RingMismatchError):
                check(f, J, fp.lex())


def coset_definition(f, J, order):
    """(f * trace)(J) ⊆ J checked on every x^a * g, a below p, g a generator."""
    R = J.ring
    for g in J.generators:
        for a in product(range(R.p), repeat=R.n):
            image = fr.trace(f * g.multiply_monomial(R.monomial(a)))
            if image and not gb.member(image, J, order):
                return False
    return True


def test_compatible_check_matches_coset_definition_randomized():
    rng = random.Random(6)
    verdicts = []
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        o = rng.choice([fp.lex(), fp.grevlex()])
        gens = [random_polynomial(rng, R, 3, max_terms=3, nonzero=True) for _ in range(rng.randint(1, 2))]
        J = gb.ideal(R, gens)
        f = random_polynomial(rng, R, 2 * p, max_terms=4)
        if rng.random() < 0.5:
            # g^(p-1) * h lies in (g)^[p] : (g), so these instances often hold
            f = f * gens[0] ** (p - 1)
        got = fr.compatible_check(f, J, o)
        assert got == coset_definition(f, J, o)
        if not gb.member(R.one(), J, o):
            verdicts.append(got)
    # both verdicts occur often on proper ideals, where compatibility is not automatic
    assert min(verdicts.count(True), verdicts.count(False)) > 50


def test_compatible_check_has_no_coset_limit():
    # 5^8 cosets: the cost is the terms of f * g, not p^n
    R = fp.ring_new(5, [f"x{i}" for i in range(8)])
    I = gb.ideal(R, [R.variable(0)])
    assert not fr.compatible_check(R.one(), I, fp.lex())
    assert fr.compatible_check(fr.standard_splitting_carrier(R), I, fp.lex())
    # the hypersurface (ab - cd) at p = 31 with its Fedder element g^(p-1)
    S = fp.ring_new(31, ["a", "b", "c", "d"])
    g = S.parse("a*b - c*d")
    J = gb.ideal(S, [g])
    assert fr.compatible_check(g**30, J, fp.grevlex())
    assert not fr.compatible_check(S.one(), J, fp.grevlex())


def test_standard_splitting_characterization_small():
    # squarefree monomial ideals are exactly the compatible ones (sampled
    #; the exhaustive sweep runs in the acceptance suite)
    rng = random.Random(4242)
    for _ in range(150):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        theta = fr.standard_splitting_carrier(R)
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if any(e):
                gens.append(R.polynomial({e: 1}))
        if not gens:
            continue
        J = gb.ideal(R, gens)
        squarefree = gb.initial_ideal(J, fp.lex()).is_squarefree()
        assert fr.compatible_check(theta, J, fp.lex()) == squarefree


def test_compatible_split_ideals_are_fixed_not_just_stable():
    # for genuine splittings the image of the ideal is the whole ideal
    R = fp.ring_new(2, ["x1", "x2", "x3"])
    o = fp.lex()
    theta = fr.standard_splitting_carrier(R)
    J = gb.ideal(R, [R.parse("x1*x2"), R.parse("x2*x3")])
    assert fr.compatible_check(theta, J, o)
    images = []
    for g in J.generators:
        for a in product(range(2), repeat=3):
            img = fr.star_apply(theta, g.multiply_monomial(R.monomial(a)))
            if img:
                images.append(img)
    image_ideal = gb.ideal(R, images)
    assert gb.ideals_equal(image_ideal, J, o)


def test_fedder_equivalence_randomized():
    # the enumeration oracle and the colon route agree on random instances
    rng = random.Random(8)
    checked = 0
    while checked < 60:
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        o = fp.grevlex()
        gens = [random_polynomial(rng, R, 2, max_terms=2) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        J = gb.ideal(R, gens)
        f = random_polynomial(rng, R, p + 1, max_terms=3)
        assert fr.compatible_check(f, J, o) == fr.fedder_membership(f, J, o)
        checked += 1


# -- graded F-split test -----------------------------------------------------------


def test_fsplit_examples():
    R = fp.ring_new(2, ["x", "y"])
    o = fp.lex()
    out = fr.fsplit_graded_test(gb.ideal(R, [R.parse("x*y")]), o)
    assert out.split and out.witness == R.parse("x*y")
    R3 = fp.ring_new(2, ["x1", "x2", "x3"])
    I3 = gb.ideal(R3, [R3.parse("x1*x3"), R3.parse("x1*x2"), R3.parse("x2*x3")])
    out3 = fr.fsplit_graded_test(I3, fp.lex())
    assert out3.split
    # cross-check with the enumeration route: the witness is compatible
    assert fr.compatible_check(out3.witness, I3, fp.lex())


def test_fsplit_requires_ideal_inside_irrelevant_maximal():
    R = fp.ring_new(2, ["x"])
    with pytest.raises(fp.FieldPolyError):
        fr.fsplit_graded_test(gb.ideal(R, [R.parse("x + 1")]), fp.lex())


def test_fsplit_non_split_example():
    # cusp at p = 2: (x^2 - y^3) is not F-split
    R = fp.ring_new(2, ["x", "y"])
    out = fr.fsplit_graded_test(gb.ideal(R, [R.parse("x^2 - y^3")]), fp.grevlex())
    assert not out.split and out.witness is None


def test_leading_top_monomial_forces_a_splitting():
    # if the leading term of f is 1 * x_1^(p-1)...x_n^(p-1) under any
    # monomial order, every other all-(-1 mod p) monomial is a p-th-power
    # multiple of the top and hence larger, so f satisfies both splitting
    # conditions automatically
    rng = random.Random(909)
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        order = rng.choice(
            [fp.lex(), fp.grevlex(), fp.weight_order(tuple(rng.randint(1, 5) for _ in range(n)), "lex")]
        )
        top = (p - 1,) * n
        top_key = order.key(top)
        coeffs = {top: 1}
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 2 * p) for _ in range(n))
            if order.key(e) < top_key and e != top:
                coeffs[e] = rng.randint(1, p - 1)
        f = R.polynomial(coeffs)
        assert f.leading_monomial(order).exponents == top
        assert fr.is_splitting(f).ok


def test_deformed_minors_not_f_split():
    # squarefree initial ideal but a non-F-split quotient: the two notions
    # genuinely differ, and the graded Fedder test detects it
    from conftest import deformed_minors_ideal

    ring = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    I = deformed_minors_ideal(ring)
    assert gb.initial_ideal(I, fp.lex()).is_squarefree()
    assert not fr.fsplit_graded_test(I, fp.lex()).split


def test_charp_success_implies_f_split():
    # a Fedder-colon element whose lead divides the top monomial is itself
    # outside the bracket of the variables
    for builder in (minors_2x3,):
        ring, I = builder(p=2)
        assert fr.fsplit_graded_test(I, fp.lex()).split


def _height(I, order):
    """ht I = n - dim S/in(I): the fewest variables meeting every leading monomial."""
    leads = [m.exponents for m in gb.reduced_gb(I, order).leading_monomials()]
    n = I.ring.n
    return next(
        r
        for r in range(n + 1)
        if any(all(any(e[i] for i in s) for e in leads) for s in combinations(range(n), r))
    )


def _colon_kind(I, order):
    """Which route fedder_colon should take, read off the reduced basis."""
    G = gb.reduced_gb(I, order)
    if G.elements == (I.ring.one(),):
        return "unit"
    if len(G) == 1:
        return "principal"
    leads = [m.exponents for m in G.leading_monomials()]
    if all(not any(a and b for a, b in zip(e, f)) for e, f in combinations(leads, 2)):
        return "complete intersection"
    return "elimination"


def _fedder_formula(ring, gens):
    """Fedder's ``(g_1^p, ..., g_k^p) + ((g_1...g_k)^(p-1))``, the colon of a regular sequence."""
    product = ring.one()
    for g in gens:
        product = product * g
    return gb.ideal(ring, [g**ring.p for g in gens] + [product ** (ring.p - 1)])


def _times_minors(p, factor):
    """factor * (the 2x3 minors), an ideal of height 1 whose quotient by the gcd is not a CI."""
    ring, M = minors_2x3(p)
    return gb.ideal(ring, [ring.parse(factor) * g for g in M.generators])


def _fedder_colon_cases():
    R = fp.ring_new(3, ["x"])
    yield gb.ideal(R, [R.parse("x"), R.parse("x + 1")]), fp.lex()
    R = fp.ring_new(2, ["x", "y"])
    yield gb.ideal(R, [R.parse("x^2*y + y^3")]), fp.grevlex()
    R = fp.ring_new(5, ["x", "y", "z"])
    yield gb.ideal(R, [R.parse("x^2 + y"), R.parse("y^3 + z")]), fp.lex()
    yield minors_2x3(p=2)[1], fp.grevlex()
    # a complete intersection seen only through its presentation: the reduced
    # basis (x*y - y*z, x^2, y*z^2) has three elements, and the height is 2
    R = fp.ring_new(3, ["x", "y", "z"])
    yield gb.ideal(R, [R.parse("x*y - y*z"), R.parse("x^2")]), fp.grevlex()
    yield gb.ideal(R, [R.parse("x*y"), R.parse("x*z")]), fp.lex()
    yield _times_minors(2, "x11"), fp.grevlex()
    yield _times_minors(3, "x11 + x12"), fp.lex()
    yield _times_minors(2, "x13*x21 + 1"), fp.grevlex()
    # ideals of height 2 with three generators, none a complete intersection
    yield minors_2x3(p=3)[1], fp.lex()
    for p, order in [(2, fp.grevlex()), (3, fp.lex()), (5, fp.grevlex())]:
        R = fp.ring_new(p, ["x", "y", "z", "w"])
        twisted_cubic = [R.parse("x*z - y^2"), R.parse("x*w - y*z"), R.parse("y*w - z^2")]
        yield gb.ideal(R, twisted_cubic), order
        yield gb.ideal(R, [R.parse("x*y"), R.parse("y*z"), R.parse("x*z")]), order
    rng = random.Random(17)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        order = rng.choice([fp.lex(), fp.grevlex(), fp.weight_order(weights, rng.choice(["lex", "grevlex"]))])
        # binomials, at most two of them at p = 5, keep the elimination route fast
        count = rng.randint(1, 3 if p < 5 else 2)
        gens = [random_polynomial(rng, R, 2, max_terms=2, nonzero=True) for _ in range(count)]
        yield gb.ideal(R, gens), order
    # two trinomials in three variables: often a complete intersection whose
    # reduced basis is longer; times a binomial of degree at most one, an
    # ideal with a common factor
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        R = fp.ring_new(p, ["x", "y", "z"])
        order = rng.choice([fp.lex(), fp.grevlex()])
        gens = [random_polynomial(rng, R, 2, max_terms=3, nonzero=True) for _ in range(2)]
        d = random_polynomial(rng, R, 1, max_terms=2, nonzero=True)
        yield gb.ideal(R, gens), order
        yield gb.ideal(R, [d * g for g in gens]), order


def test_fedder_colon_matches_elimination(monkeypatch):
    # the closed form against the general route I^[p] : I by elimination,
    # which every ideal without disjoint leading supports takes; when the
    # shorter of the reduced basis and the generators has ht I elements (a
    # complete intersection by its height), elimination against Fedder's
    # formula on that set
    routed = []
    monkeypatch.setattr(fr, "colon_ideal", lambda *a: routed.append(a) or ops.colon_ideal(*a))
    seen = Counter()
    for I, order in _fedder_colon_cases():
        kind = _colon_kind(I, order)
        del routed[:]
        got = gb.reduced_gb(fr.fedder_colon(I, order), order)
        assert bool(routed) == (kind == "elimination")
        seen[kind] += 1
        if kind != "elimination":
            expected = ops.colon_ideal(ops.bracket_power(I, 1), I, order)
        else:
            G = gb.reduced_gb(I, order)
            gens = G.elements if len(G) < len(I.generators) else I.generators
            if _height(I, order) != len(gens):
                continue
            seen["complete intersection by height"] += 1
            expected = _fedder_formula(I.ring, gens)
        assert got.elements == gb.reduced_gb(expected, order).elements
    assert len(seen) == 5 and min(seen.values()) >= 10, seen


def _membership_cases():
    """The zero ideal, then ideals of every route kind of fedder_colon."""
    R = fp.ring_new(3, ["x", "y"])
    yield gb.ideal(R, []), fp.grevlex()
    yield from _fedder_colon_cases()


def test_fedder_membership_matches_colon(monkeypatch):
    # multiplication into G^[p] against membership in the colon, on the zero
    # ideal and every route kind: f = 0, a multiple of a colon basis element,
    # and a random f, often outside the colon; the colons are built first, and
    # the memberships run on fresh presentations with the colon routes and
    # bracket_power failing
    rng = random.Random(23)
    cases = []
    for I, order in _membership_cases():
        ring = I.ring
        C = fr.fedder_colon(I, order)
        h = rng.choice(gb.reduced_gb(C, order).elements)
        carriers = [
            ring.zero(),
            h * random_polynomial(rng, ring, 2, max_terms=2, nonzero=True),
            random_polynomial(rng, ring, ring.p + 1, max_terms=3),
        ]
        kind = "zero" if I.is_zero else _colon_kind(I, order)
        cases.append((kind, ring, I.generators, order, [(f, gb.member(f, C, order)) for f in carriers]))

    def fail(*args):
        raise AssertionError("fedder_membership formed a colon or a bracket power")

    monkeypatch.setattr(fr, "fedder_colon", fail)
    for name in ("colon_ideal", "bracket_power"):
        monkeypatch.setattr(fr, name, fail)
        monkeypatch.setattr(ops, name, fail)
    kinds, verdicts = Counter(), Counter()
    for kind, ring, gens, order, expected in cases:
        I = gb.ideal(ring, gens)
        for f, want in expected:
            assert fr.fedder_membership(f, I, order) == want
            verdicts[want] += 1
        kinds[kind] += 1
    assert kinds["zero"] == 1 and min(kinds[k] for k in kinds if k != "zero") >= 10, kinds
    assert len(kinds) == 5 and verdicts[False] > 200, (kinds, verdicts)


def test_fedder_membership_past_the_exponent_cap_uses_the_colon(monkeypatch):
    # f * g passes MAX_EXPONENT while the colon (g^2) does not, so the colon decides
    R = fp.ring_new(3, ["x", "y"])
    order = fp.grevlex()
    g = R.parse("x^700000000 + y")
    colons, original = [], fr.fedder_colon
    monkeypatch.setattr(fr, "fedder_colon", lambda *a: colons.append(a) or original(*a))
    for f, want in [(g**2 * R.parse("x^50000000 + y"), True), (R.parse("x^1500000000"), False)]:
        with pytest.raises(fp.ExponentOverflowError):
            f * g
        assert fr.fedder_membership(f, gb.ideal(R, [g]), order) == want
        assert gb.member(f, original(gb.ideal(R, [g]), order), order) == want
    assert len(colons) == 2


def test_fedder_membership_with_a_basis_past_the_cap_uses_the_colon(monkeypatch):
    # p-th powers capped at exponent 15: the generators' squares stay below
    # it, but the reduced basis element y*z^10 of I squares past it, so no
    # G^[2] is formed and the colon decides; the verdicts are the ones of the
    # uncapped multiplication
    R = fp.ring_new(2, ["x", "y", "z"])
    order = fp.lex()
    gens = [R.parse("x*y - y*z^5"), R.parse("x^2")]
    assert gb.reduced_gb(gb.ideal(R, gens), order).elements[0] == R.parse("y*z^10")
    carriers = [R.parse(t) for t in ["x*y + y*z^5", "x", "x^3*y - x^2*y*z^5", "x^2*y^2 + 1"]]
    want = [fr.fedder_membership(f, gb.ideal(R, gens), order) for f in carriers]
    assert want == [False, False, True, False]
    colons, original = [], fr.fedder_colon
    monkeypatch.setattr(fr, "fedder_colon", lambda *a: colons.append(a) or original(*a))

    power = ops.frobenius_power_poly

    def capped(g, e):
        if max(max(t) for t in g.terms_dict()) * R.p**e > 15:
            raise fp.ExponentOverflowError("exponent past a cap of 15")
        return power(g, e)

    monkeypatch.setattr(ops, "frobenius_power_poly", capped)
    assert [fr.fedder_membership(f, gb.ideal(R, gens), order) for f in carriers] == want
    assert len(colons) == len(carriers)


def test_common_factor_colon_pairs_pinned():
    # x11 * (2x3 minors), an ideal of height 1: its Fedder colon is built by
    # elimination on I itself, 2 pairs for the reduced basis of I and 81 for
    # the elimination
    order = fp.grevlex()
    with gb.Budget() as budget:
        fr.fedder_colon(_times_minors(2, "x11"), order)
    assert budget.pairs == 83
    I = _times_minors(2, "x11")
    with gb.Budget() as elimination:
        gb.reduced_gb(I, order)
        ops.colon_ideal(ops.bracket_power(I, 1), I, order)
    assert elimination.pairs == 83


def test_fedder_colon_of_zero_ideal_is_unit():
    # (0) : (0) = (1), the empty product in Fedder's formula; the graded test
    # reads the same witness 1 off it
    R = fp.ring_new(3, ["x", "y"])
    Z = gb.ideal(R, [])
    assert gb.reduced_gb(fr.fedder_colon(Z, fp.lex()), fp.lex()).elements == (R.one(),)
    assert fr.fedder_membership(R.parse("x*y"), Z, fp.lex())
    out = fr.fsplit_graded_test(Z, fp.lex())
    assert out.split and out.witness == R.one()


def test_fedder_colon_past_the_exponent_cap_takes_elimination():
    # (x^A + y)^2 * (y^A + x^(A-1))^2 has x^(4A-2) > MAX_EXPONENT, but the
    # reduced basis of the colon stays below 3A, and elimination reaches it
    R = fp.ring_new(3, ["x", "y"])
    A = 600_000_000
    I = gb.ideal(R, [R.parse(f"x^{A} + y"), R.parse(f"y^{A} + x^{A - 1}")])
    assert _colon_kind(I, fp.grevlex()) == "complete intersection"
    C = gb.reduced_gb(fr.fedder_colon(I, fp.grevlex()), fp.grevlex())
    assert [g.text() for g in C.elements[:2]] == [f"y^{3 * A} + x^{3 * A - 3}", f"x^{3 * A} + y^3"]
