import functools
import random
from operator import add

import pytest

from frobsplit import cli, criteria
from frobsplit import field_poly as fp
from frobsplit import groebner as gb
from frobsplit import ideal_ops as ops

import oracle
from conftest import FIXTURES, deformed_minors_ideal, random_monomial_ideal, random_order, random_polynomial


def test_s_polynomial_examples(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    f, g = R.parse("x^2 - y"), R.parse("x*y - 1")
    # hand expansion: y*f - x*g = x - y^2 (cross-checked by the Macaulay
    # oracle in test_oracle.py)
    assert oracle.s_polynomial(f, g, o) == R.parse("x - y^2")
    assert oracle.s_polynomial(f, f, o).is_zero
    # monomials with disjoint supports cancel completely
    assert oracle.s_polynomial(R.parse("x^2"), R.parse("x*y"), o).is_zero
    with pytest.raises(fp.ZeroPolynomialError):
        oracle.s_polynomial(f, R.zero(), o)


def test_kernel_key_reverses_the_order_and_is_additive():
    # the kernel sorts terms ascending by the order's sort_key and shifts them
    # by adding keys; the reference is the textbook comparator, not order.key
    rng = random.Random(11)

    def orders(n):
        w = tuple(rng.randint(1, 4) for _ in range(n))
        return [fp.lex(), fp.grevlex(), fp.weight_order(w, "lex"), fp.weight_order(w, "grevlex")]

    for _ in range(100):
        n = rng.randint(1, 6)
        monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(30)]
        for order in orders(n) + ([fp.EliminationOrder(o) for o in orders(n - 1)] if n > 1 else []):
            nkey = order.sort_key(n)
            assert sorted(monos, key=nkey) == oracle.sorted_descending(monos, order)
            assert sorted(monos, key=order.key, reverse=True) == sorted(monos, key=nkey)
            for a, b in zip(monos, monos[1:]):
                assert nkey(tuple(map(add, a, b))) == tuple(map(add, nkey(a), nkey(b)))
    with pytest.raises(fp.FieldPolyError):
        fp.weight_order((1, 1)).sort_key(3)


@pytest.mark.parametrize("width", [16, 64])
def test_packed_lcm_and_divisibility_match_the_tuple_helpers(width):
    # the pair criteria's lcm, divisibility and coprimality on exponent words
    # against _lcm and _divides, with exponents at 0 and at the largest value
    # a field holds with its guard bit clear
    rng = random.Random(width)
    top = 2 ** (width - 1) - 1
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        packing = gb._packing(random_order(rng, n), n, width)
        a = tuple(rng.choice([0, top, rng.randint(0, 3), rng.randint(0, top)]) for _ in range(n))
        b = rng.choice([
            tuple(rng.choice([0, top, rng.randint(0, 3), rng.randint(0, top)]) for _ in range(n)),
            tuple(rng.randint(x, top) for x in a),
            a,
        ])
        wa, wb = (packing.pack(e) & packing.low for e in (a, b))
        lcm = packing.lcm(wa, wb)
        assert packing.unpack(lcm) == fp._lcm(a, b) and lcm == packing.lcm(wb, wa)
        coprime = not any(map(min, a, b))
        assert (lcm == wa + wb) == coprime
        for x, y, wx, wy in ((a, b, wa, wb), (b, a, wb, wa)):
            assert packing.divides(wx, wy) == fp._divides(x, y)
            seen.add((fp._divides(x, y), coprime))
    assert len(seen) == 4


def test_spair_in_the_heap_matches_oracle_s_polynomial():
    # the kernel forms an S-pair as the first step of its reduction; drained
    # against no reducers it must be the S-polynomial of Polynomial arithmetic.
    # Odd primes and non-monic inputs matter: at p = 2 a flipped sign is unseen
    rng = random.Random(29)
    checked = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(1, 4)
        R = fp.ring_new(p, [f"x{i}" for i in range(n)])
        w = tuple(rng.randint(1, 4) for _ in range(n))
        orders = [fp.lex(), fp.grevlex(), fp.weight_order(w, "lex"), fp.weight_order(w, "grevlex")]
        if n > 1:
            base = rng.choice([fp.lex(), fp.grevlex(), fp.weight_order(w[1:], "lex")])
            orders.append(fp.EliminationOrder(base))
        for order in orders:
            f = random_polynomial(rng, R, 4, max_terms=5, nonzero=True)
            g = random_polynomial(rng, R, 4, max_terms=5, nonzero=True)
            packing = gb._packing(order, n, gb._WIDTH)
            ra, rb = (gb._reducer(gb._to_terms(h, packing), p) for h in (f, g))
            lcm = packing.pack(tuple(map(max, packing.unpack(ra[0]), packing.unpack(rb[0]))))
            r = gb._reduce(*gb._spair(ra, rb, lcm, p), [], p, packing)
            assert r == sorted(r)
            s = oracle.s_polynomial(f, g, order)
            assert gb._from_terms(R, r, packing) == s
            checked += p > 2 and bool(s)
    assert checked > 200


def test_normal_form_examples(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    assert gb.normal_form(R.parse("x^2"), [R.parse("x^2 - y")], o) == R.parse("y")
    assert gb.normal_form(R.zero(), [R.parse("x")], o).is_zero
    with pytest.raises(fp.ZeroPolynomialError):
        gb.normal_form(R.parse("x"), [R.zero()], o)


def test_normal_form_monomial_ideal_membership():
    R = fp.ring_new(5, ["x1", "x2", "x3"])
    G = [R.parse("x1*x3"), R.parse("x1*x2"), R.parse("x2*x3")]
    assert gb.normal_form(R.parse("x1*x2*x3"), G, fp.lex()).is_zero


def test_normal_form_result_fully_reduced(ring_xy5):
    R = ring_xy5
    o = fp.lex()
    G = [R.parse("x^2 - y"), R.parse("x*y - 1")]
    rng = random.Random(3)
    for _ in range(100):
        f = random_polynomial(rng, R, 5)
        r = gb.normal_form(f, G, o)
        lms = [g.leading_monomial(o) for g in G]
        for m in r.support():
            assert not any(lm.divides(m) for lm in lms)
        # idempotence
        assert gb.normal_form(r, G, o) == r
        # f - r is in the ideal
        assert gb.member(f - r, gb.ideal(R, G), o)


def test_reduced_gb_derived_example(ring_xy5):
    # frozen via the degree-truncated linear-algebra oracle at degree 6
    R = ring_xy5
    o = fp.lex()
    I = gb.ideal(R, [R.parse("x^2 - y"), R.parse("x*y - 1")])
    G = gb.reduced_gb(I, o)
    assert [g.text(o) for g in G.elements] == ["y^3 + 4", "x + 4*y^2"]
    assert gb.member(R.parse("x - y^2"), I, o)
    assert not gb.member(R.one(), I, o)


def test_reduced_gb_already_reduced():
    R = fp.ring_new(5, ["x", "y"])
    I = gb.ideal(R, [R.parse("x^2"), R.parse("x*y")])
    G = gb.reduced_gb(I, fp.lex())
    assert set(g.text(fp.lex()) for g in G.elements) == {"x^2", "x*y"}


def test_reduced_gb_paper_minors(ring5):
    I = deformed_minors_ideal(ring5)
    M = gb.initial_ideal(I, fp.lex())
    assert [m.text() for m in M.generators] == ["x2*x3", "x1*x3", "x1*x2"]


def test_initial_ideal_principal_and_monomial():
    R = fp.ring_new(5, ["x1", "x2", "x3", "x4"])
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    assert [m.text() for m in gb.initial_ideal(I, fp.lex()).generators] == ["x1*x4"]
    J = gb.ideal(R, [R.parse("x1*x2"), R.parse("x1*x2*x3"), R.parse("x3*x4")])
    got = gb.initial_ideal(J, fp.lex())
    assert [m.text() for m in got.generators] == ["x3*x4", "x1*x2"]


def test_member_examples():
    R = fp.ring_new(5, ["x", "y"])
    I = gb.ideal(R, [R.parse("x^2 - y"), R.parse("x*y - 1")])
    for g in I.generators:
        assert gb.member(g, I, fp.lex())
    assert not gb.member(R.one(), gb.ideal(R, [R.parse("x")]), fp.lex())
    assert gb.member(R.zero(), gb.ideal(R, []), fp.lex())
    assert not gb.member(R.one(), gb.ideal(R, []), fp.lex())


def test_member_of_a_monomial_ideal_matches_normal_form():
    # single-term generators decide membership by divisibility, without the
    # reduced basis: the kernel is not entered and nothing is cached; half
    # the candidates are combinations of the generators, some of them with
    # one more random term
    rng = random.Random(1717)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        R = fp.ring_new(rng.choice([2, 3]), [f"x{i}" for i in range(n)])
        o = random_order(rng, n)
        I = random_monomial_ideal(rng, R)
        f = random_polynomial(rng, R, 4, max_terms=4)
        if I.generators and rng.random() < 0.5:
            f = R.zero()
            for g in I.generators:
                f = f + g * random_polynomial(rng, R, 2, max_terms=2)
            if rng.random() < 0.3:
                f = f + random_polynomial(rng, R, 4, max_terms=1)
        got = gb.member(f, I, o)
        assert I._cached_gb(o) is None
        G = gb.reduced_gb(gb.ideal(R, I.generators), o)
        expected = not f or (bool(G.elements) and not gb.normal_form(f, G.elements, o))
        assert got == expected
        verdicts[got] += 1
    assert min(verdicts.values()) >= 60, verdicts


def test_member_builds_the_kernel_form_of_a_basis_once(monkeypatch):
    # a basis made by reduced_gb keeps the kernel form of its run, and
    # bracket_power (here I^[p]) maps that form to its own, so member converts
    # only f from the first call on; a basis wrapped by presentation_from_gb
    # converts its elements on first use only
    converted = []
    to_terms = gb._to_terms
    monkeypatch.setattr(gb, "_to_terms", lambda f, nkey: converted.append(f) or to_terms(f, nkey))
    rng = random.Random(29)
    R = fp.ring_new(3, ["x", "y", "z"])
    o = fp.grevlex()
    I = gb.ideal(R, [R.parse("x^2 - y*z"), R.parse("x*y - z^2 + x")])
    G = gb.reduced_gb(I, o)
    P = ops.bracket_power(I, 1)
    H = P._cached_gb(o)
    # the mapped form is the one packing G^[p] afresh would build
    packing, reducers = H._kernel
    assert reducers == [gb._reducer(to_terms(g, packing), R.p) for g in H.elements]
    W = gb.presentation_from_gb(R, G.elements, o)
    K = W._cached_gb(o)
    assert K._kernel is None and K.elements == G.elements
    carriers = [g * random_polynomial(rng, R, 2, max_terms=3) for g in G.elements + H.elements]
    carriers += [random_polynomial(rng, R, 6, max_terms=4) for _ in range(20)]
    nonzero = sum(1 for f in carriers if f)
    for ideal_, basis, first in ((I, G, 0), (P, H, 0), (W, K, len(K))):
        for built in (first, 0):
            del converted[:]
            got = [gb.member(f, ideal_, o) for f in carriers]
            assert len(converted) == built + nonzero
            assert got == [not gb.normal_form(f, basis.elements, o) for f in carriers]
            assert True in got and False in got
        assert basis.leading_monomials() == tuple(g.leading_monomial(o) for g in basis.elements)


def test_member_rejects_a_polynomial_from_another_ring():
    R = fp.ring_new(3, ["x0", "x1"])
    o = fp.lex()
    monomial = gb.ideal(R, [R.parse("x0^2"), R.parse("x1")])
    binomial = gb.ideal(R, [R.parse("x0^2 + x1")])
    for other in (fp.ring_new(3, ["y0", "y1", "y2"]), fp.ring_new(5, ["x0", "x1"])):
        f = other.variable(1)
        for I in (monomial, binomial):
            with pytest.raises(fp.RingMismatchError):
                gb.member(f, I, o)
        with pytest.raises(fp.RingMismatchError):
            gb.normal_form(f, binomial.generators, o)
        with pytest.raises(fp.RingMismatchError):
            gb.MonomialIdeal(R, (R.monomial((2, 0)),)).contains_polynomial(f)
    # an equal ring built separately is the same ring
    assert gb.member(fp.ring_new(3, ["x0", "x1"]).parse("x0^3"), monomial, o)


def test_zero_ideal_gb_empty():
    R = fp.ring_new(5, ["x"])
    assert gb.reduced_gb(gb.ideal(R, []), fp.lex()).elements == ()
    assert gb.initial_ideal(gb.ideal(R, []), fp.lex()).is_zero


def _selection_cases():
    """Ideals whose runs reach each pair criterion and the active-set pruning."""
    R3 = fp.ring_new(3, ["x", "y", "z"])
    R5 = fp.ring_new(5, ["x", "y", "z"])
    f, g, h = R5.parse("x^2*y - z^2"), R5.parse("y^2 - x*z"), R5.parse("x*z^2 - y*z")
    problem = cli.parse_problem((FIXTURES / "deformed_minors.prob").read_text())
    return [
        (R3, [R3.parse("x^2*y - z^2"), R3.parse("y^2 - x*z"), R3.parse("x*z^2 - y*z")]),
        # duplicate and scalar-multiple generators
        (R5, [f, g, 2 * f, f, 3 * g, h]),
        # the last leading monomial divides the earlier ones
        (R5, [R5.parse("x^3*y + z"), R5.parse("x^2*y^2 - z^2"), R5.parse("x*y - z")]),
        # the third generator's two new pairs share the lcm x*y*z
        (R3, [R3.parse("x*y - 1"), R3.parse("x*z - 1"), R3.parse("y*z - 1")]),
        # coprime leading monomials x^2 and y^2
        (R5, [R5.parse("x^2 - y"), R5.parse("y^2 - z"), R5.parse("x*z^2 - 1")]),
        (problem.ring, list(problem.ideals["I"].generators)),
    ]


def test_gb_determinism_under_randomized_selection():
    # the reduced basis is unique, so scrambling pair selection changes nothing
    rng = random.Random(99)
    cases = [
        (R, gens, o, gb.reduced_gb(gb.ideal(R, gens), o))
        for R, gens in _selection_cases()
        for o in [fp.grevlex(), fp.lex()]
    ]
    for R, gens, o, reference in cases:
        for _ in range(6):
            noise = {}

            def pair_noise(pair, noise=noise):
                if pair not in noise:
                    noise[pair] = rng.random()
                return noise[pair]

            again = gb.reduced_gb(gb.ideal(R, gens), o, _pair_noise=pair_noise)
            assert again.elements == reference.elements
            texts = [g.text(o) for g in again.elements]
            assert texts == [g.text(o) for g in reference.elements]


def test_presentation_from_gb_matches_reduced_gb():
    # a padded basis (scalar multiples, multiples m*g, unreduced tails) of an
    # ideal minimalizes and tail-reduces to its reduced basis
    for R, gens in _selection_cases():
        x = R.variable(0)
        for o in [fp.grevlex(), fp.lex()]:
            G = list(gb.reduced_gb(gb.ideal(R, gens), o).elements)
            # g_i + g_(i-1) keeps the leading monomial of g_i but not its tail
            padded = [a + b for a, b in zip(G[1:], G)]
            padded += [3 * g for g in G] + [x * g for g in G] + G
            for elements in (padded, padded[::-1]):
                pres = gb.presentation_from_gb(R, elements, o)
                assert pres.generators == tuple(G)
                assert gb.reduced_gb(pres, o).elements == tuple(G)


def test_monomial_ideal_basis_matches_buchberger_randomized(monkeypatch):
    # single-term generators skip Buchberger; the redundant binomial
    # c_i*m_i + c_j*m_j lies in the ideal and forces the pair path
    runs = []
    kernel = gb._buchberger

    def counting(*args, **kwargs):
        runs.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(gb, "_buchberger", counting)
    rng = random.Random(8)
    checked = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        R = fp.ring_new(p, [f"x{i}" for i in range(n)])
        o = rng.choice([fp.lex(), fp.grevlex(), fp.weight_order(
            tuple(rng.randint(1, 3) for _ in range(n)), rng.choice(["lex", "grevlex"])
        )])
        gens = []
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            gens.append(R.polynomial({e: rng.randint(1, p - 1)}))
        # a multiple of an earlier generator, so minimalization has work
        gens.append(gens[0] * R.variable(rng.randrange(n)))
        rng.shuffle(gens)
        i, j = rng.sample(range(len(gens)), 2)
        binomial = gens[i] + gens[j]
        if len(binomial.terms_dict()) < 2:
            continue
        del runs[:]
        got = gb.reduced_gb(gb.ideal(R, gens), o)
        assert runs == []
        reference = gb.reduced_gb(gb.ideal(R, gens + [binomial]), o)
        assert runs == [1]
        assert got.elements == reference.elements
        checked += 1
    assert checked > 100


def _record_widths(monkeypatch, start=None):
    """Record the field width of every packing the kernel asks for; start runs at ``start`` bits when given."""
    if start is not None:
        monkeypatch.setattr(gb, "_WIDTH", start)
    widths = []
    packing = gb._packing
    monkeypatch.setattr(gb, "_packing", lambda order, n, width: widths.append(width) or packing(order, n, width))
    return widths


@pytest.mark.parametrize(
    "fixture, pairs, elimination_pairs, start",
    [
        pytest.param(fixture, pairs, elimination_pairs, start, id=fixture + ("" if start == 16 else f"-{start}bit"))
        for fixture, pairs, elimination_pairs in [("minors_2x3.prob", 84, 82), ("pentagon_edge.prob", 1684, 1664)]
        for start in (16, 64)
    ],
)
def test_fsplit_pairs_reduced_pinned(fixture, pairs, elimination_pairs, start, monkeypatch):
    # deterministic regression signal for the pair criteria: S-pairs that
    # survive the criteria and are reduced, summed over every kernel run of
    # what the fsplit command computes.  The criteria read exponent words,
    # so the count is the same whichever width the runs start at
    widths = _record_widths(monkeypatch, start)
    pf = cli.parse_problem((FIXTURES / fixture).read_text())
    I = pf.ideal(None)[1]
    with gb.Budget() as budget:
        criteria.fsplit_certificate(I, pf.order)
    assert budget.pairs == pairs
    # the Fedder colon first reads the reduced basis of I to test for a
    # complete intersection; the elimination route after it starts from the
    # p-th powers of that basis
    with gb.Budget() as alone:
        gb.reduced_gb(gb.ideal(I.ring, I.generators), pf.order)
    assert pairs - alone.pairs == elimination_pairs
    assert set(widths) == {start}


def _quadratic_criterion_m(new, guards):
    """Reference for criteria M and F, pair against pair: a pair goes when another new pair still alive has an lcm dividing its own."""
    alive = [True] * len(new)
    lcms = [w for w, _, _ in new]
    for a, (w, _, known) in enumerate(new):
        if known:
            continue
        w |= guards
        for b, w_b in enumerate(lcms):
            if (w - w_b) & guards == guards and b != a and alive[b]:
                alive[a] = False
                break
    return sorted((w, g) for (w, g, known), ok in zip(new, alive) if ok and not known)


@pytest.mark.parametrize("width", [16, 64])
def test_minimal_lcm_pairs_match_the_quadratic_criterion(width):
    # new pairs (w, g, known) in active order, with small exponents so that
    # lcms repeat and divide one another often, and some pairs known
    rng = random.Random(2024 + width)
    queued = dropped = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        packing = gb._packing(random_order(rng, n), n, width)
        top = rng.choice([1, 2, 3])
        new = []
        for g in sorted(rng.sample(range(40), rng.randint(0, 12))):
            e = tuple(rng.randint(0, top) for _ in range(n))
            new.append((packing.pack(e) & packing.low, g, rng.random() < 0.15))
        got = gb._minimal_lcm_pairs(new, packing.guards)
        assert sorted(got) == _quadratic_criterion_m(new, packing.guards)
        queued += len(got)
        dropped += len(new) - len(got)
    assert queued > 500 and dropped > 1000


def test_gb_spolys_reduce_to_zero():
    # full pairwise certificate of correctness on several fixtures
    cases = []
    R = fp.ring_new(5, ["x", "y"])
    cases.append((R, [R.parse("x^2 - y"), R.parse("x*y - 1")]))
    R2 = fp.ring_new(2, ["x", "y", "z"])
    cases.append((R2, [R2.parse("x*y + z"), R2.parse("y*z + x"), R2.parse("x^2 + y^2 + z^2")]))
    R3 = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    cases.append((R3, deformed_minors_ideal(R3).generators))
    for ring, gens in cases:
        for order in [fp.lex(), fp.grevlex()]:
            G = gb.reduced_gb(gb.ideal(ring, gens), order)
            for i in range(len(G.elements)):
                for j in range(i + 1, len(G.elements)):
                    s = oracle.s_polynomial(G.elements[i], G.elements[j], order)
                    if s:
                        assert gb.normal_form(s, G.elements, order).is_zero
            # every original generator reduces to zero
            for g in gens:
                assert gb.normal_form(g, G.elements, order).is_zero


def test_reduced_gb_is_reduced_and_sorted():
    R = fp.ring_new(3, ["x", "y", "z"])
    o = fp.grevlex()
    I = gb.ideal(R, [R.parse("x^2 + y*z"), R.parse("x*y + z^2"), R.parse("x + y + z")])
    G = gb.reduced_gb(I, o)
    lms = G.leading_monomials()
    for i, g in enumerate(G.elements):
        assert g.leading_coefficient(o) == 1
        for j, lm in enumerate(lms):
            if i == j:
                continue
            for m in g.support():
                assert not lm.divides(m)
    keys = [o.key(m.exponents) for m in lms]
    assert keys == sorted(keys)


def test_gb_cache_hit_and_consistency():
    R = fp.ring_new(5, ["x", "y"])
    I = gb.ideal(R, [R.parse("x^2 - y")])
    a = gb.reduced_gb(I, fp.lex())
    assert gb.reduced_gb(I, fp.lex()) is a
    # cached basis generates the same ideal: generators have normal form 0
    for g in I.generators:
        assert gb.normal_form(g, a.elements, fp.lex()).is_zero


def test_kernel_keeps_the_exponent_cap():
    # under lex, (x - y^k, x^2 - y) has the basis element y^(2k) + 2*y over
    # F_3: for k = 2^29 it lies within MAX_EXPONENT and its text parses back;
    # for k = 1,500,000,000 the run stops when it installs y^(2k), after the
    # same single pair
    R = fp.ring_new(3, ["x", "y"])
    k = 2**29
    with gb.Budget() as budget:
        G = gb.reduced_gb(gb.ideal(R, [R.parse(f"x - y^{k}"), R.parse("x^2 - y")]), fp.lex())
    assert [g.text(fp.lex()) for g in G] == [f"y^{2 * k} + 2*y", f"x + 2*y^{k}"]
    assert [R.parse(g.text()) for g in G] == list(G.elements) and budget.pairs == 1
    I = gb.ideal(R, [R.parse("x - y^1500000000"), R.parse("x^2 - y")])
    with gb.Budget() as budget, pytest.raises(fp.ExponentOverflowError, match="^exponent 3000000000 exceeds"):
        gb.reduced_gb(I, fp.lex())
    assert budget.pairs == 1 and I._cached_gb(fp.lex()) is None


def test_reduced_gb_checks_the_cap_on_its_result():
    # under lex, tail reduction alone carries z - x^3 to z - y^(3k): no new
    # leading monomial passes MAX_EXPONENT, the result does.  An elimination
    # drops the elements that contain t unreduced, so the same pair with
    # t for z, under the elimination order, leaves x - y^k alone
    R = fp.ring_new(3, ["z", "x", "y"])
    gens = [R.parse("z - x^3"), R.parse("x - y^1000000000")]
    I = gb.ideal(R, gens)
    with pytest.raises(fp.ExponentOverflowError, match="^exponent 3000000000 exceeds"):
        gb.reduced_gb(I, fp.lex())
    assert I._cached_gb(fp.lex()) is None
    # the generators are a basis already (coprime leading monomials z and x),
    # and presentation_from_gb's tail reduction passes the cap the same way
    with pytest.raises(fp.ExponentOverflowError, match="^exponent 3000000000 exceeds"):
        gb.presentation_from_gb(R, gens, fp.lex())
    ext = fp.ring_new(3, ["x", "y"]).extend()
    gens = [ext.parse("t - x^3"), ext.parse("x - y^1000000000")]
    with pytest.raises(fp.ExponentOverflowError, match="^exponent 3000000000 exceeds"):
        gb.reduced_gb(gb.ideal(ext, gens), fp.EliminationOrder(fp.lex()))
    assert [g.text(fp.lex()) for g in gb._eliminate(gens, [None, None], fp.lex())] == ["x + 2*y^1000000000"]


def test_eliminate_is_the_t_free_part_of_the_elimination_basis():
    # _eliminate drops the elements whose leading monomial contains t before
    # it reduces the rest; the t-free elements of the reduced basis under the
    # elimination order are the same set.  Half the cases enter two reduced
    # bases as blocks, times t and 1 - t, as intersect does
    rng = random.Random(3030)
    dropped = 0
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{i}" for i in range(n)])
        ext = R.extend()
        o = random_order(rng, n)
        if rng.random() < 0.5:
            gens = [g for g in (random_polynomial(rng, ext, 2, max_terms=3) for _ in range(rng.randint(1, 3))) if g]
            blocks = [None] * len(gens)
        else:
            t = ext.variable(n)
            gens, blocks = [], []
            for label, factor in enumerate((t, ext.one() - t)):
                G = gb.reduced_gb(gb.ideal(R, [random_polynomial(rng, R, 2, max_terms=3) for _ in range(2)]), o)
                gens += [factor * ops.embed(g, ext) for g in G]
                blocks += [label] * len(G)
        if not gens:
            continue
        elim = fp.EliminationOrder(o)
        E = gb.reduced_gb(gb.ideal(ext, gens), elim).elements
        kept = [g for g in E if not g.leading_monomial(elim).exponents[-1]]
        expected = tuple(R.polynomial({e[:-1]: c for e, c in g.terms_dict().items()}) for g in kept)
        assert gb._eliminate(gens, blocks, o) == expected
        dropped += 0 < len(kept) < len(E)
    assert dropped > 20


def test_a_term_past_the_fields_raises_the_cap_error():
    # under lex, x*y^(2^62) less y^(2^62)*(x - y^(2^62)) is y^(2^63): the
    # reduction forms it with the guard bit of its 64-bit field set.  Built
    # with the trusted constructor, as no parsed input reaches 2^62
    R = fp.ring_new(3, ["x", "y"])
    f = fp.Polynomial(R, {(1, 2**62): 1})
    g = fp.Polynomial(R, {(1, 0): 1, (0, 2**62): 2})
    with pytest.raises(fp.ExponentOverflowError, match=f"^exponent {2**63} exceeds MAX_EXPONENT$"):
        gb.normal_form(f, [g], fp.lex())


def test_a_run_restarts_once_at_64_bits_and_charges_its_pairs_once(monkeypatch):
    # under lex, (x - y^200, x^200) has inputs of degree 200, below 2^15, so
    # its run starts at 16-bit fields; its one pair forms y^40000, which sets
    # a guard bit there, and the run restarts from its inputs at 64 bits
    R = fp.ring_new(3, ["x", "y"])
    o = fp.lex()
    gens = [R.parse("x - y^200"), R.parse("x^200")]
    expected = (R.parse("y^40000"), R.parse("x - y^200"))
    for start, used in [(16, [16, 64]), (64, [64])]:
        widths = _record_widths(monkeypatch, start)
        with gb.Budget() as budget:
            budget.pairs = 5
            G = gb.reduced_gb(gb.ideal(R, gens), o)
        assert G.elements == expected and G._kernel[0].width == 64
        assert widths == used and budget.pairs == 6


def test_every_kernel_entry_restarts_at_64_bits(monkeypatch):
    # each entry starts at 16-bit fields on inputs of degree 200 and forms
    # y^40000 from x^200 by x - y^200 under lex; the reference is division
    # by Polynomial arithmetic.  A kept 16-bit basis is rebuilt at 64 bits
    # once a division by it restarts, or at once for an f past the fields
    R = fp.ring_new(3, ["z", "x", "y"])
    o = fp.lex()
    h = R.parse("x - y^200")
    x200 = R.parse("x^200")
    widths = _record_widths(monkeypatch)
    assert gb.normal_form(x200, [h], o) == naive_normal_form(x200, [h], o) == R.parse("y^40000")
    assert widths == [16, 64]
    del widths[:]
    assert gb._quotient(x200, h, o) is None and widths == [16, 64]
    del widths[:]
    # z - x^200 tail-reduces to z - y^40000
    P = gb.presentation_from_gb(R, [R.parse("z - x^200"), h], o)
    assert P.generators == (h, R.parse("z - y^40000")) and widths == [16, 64]
    for f, inside in [(x200, False), (x200 - R.parse("y^40000"), True), (R.parse("z*y^40000 - z*x^200"), True)]:
        # the pair of x - y^200 and x*y - y^201 reduces to zero at 16 bits
        I = gb.ideal(R, [h, R.parse("x*y - y^201")])
        G = gb.reduced_gb(I, o)
        assert G.elements == (h,) and G._kernel[0].width == 16
        del widths[:]
        assert gb.member(f, I, o) is inside is (not naive_normal_form(f, [h], o))
        assert widths == [64] and G._kernel[0].width == 64
        # a division by the 64-bit form needs no further packing
        assert gb.member(R.parse("x*y^9 - y^209"), I, o) and widths == [64]
    # a basis with no kept form packs at 64 bits on first use when its own
    # degree passes the narrow fields, whatever f asks for
    J = gb.ideal(R, [R.parse("x - y^70000")])
    for order, lm in [(fp.grevlex(), "y^70000"), (o, "x")]:
        del widths[:]
        G = gb.reduced_gb(J, order)
        assert G.leading_monomials() == (R.parse(lm).leading_monomial(order),) and widths == [64]
    assert not gb.member(R.parse("z*x"), J, o) and gb.member(R.parse("z*x - z*y^70000"), J, o)


def test_bracket_kernel_maps_a_narrow_form_only_while_it_fits(monkeypatch):
    # G = (x - y^200) is kept at 16 bits; G^[81] has degree 16,200 and keeps
    # the mapped form, G^[243] has degree 48,600, past 2^15, and packs afresh
    # at 64 bits on first use
    R = fp.ring_new(3, ["x", "y"])
    o = fp.lex()
    I = gb.ideal(R, [R.parse("x - y^200"), R.parse("x*y - y^201")])
    assert gb.reduced_gb(I, o)._kernel[0].width == 16
    widths = _record_widths(monkeypatch)
    for e, mapped in [(4, True), (5, False)]:
        P = ops.bracket_power(I, e)
        H = P._cached_gb(o)
        assert (H._kernel is not None) is mapped
        if mapped:
            packing, reducers = H._kernel
            assert packing.width == 16
            assert reducers == [gb._reducer(gb._to_terms(g, packing), R.p) for g in H.elements]
        del widths[:]
        q = 3**e
        for f in [R.parse(f"x^{q} - y^{200 * q}"), R.parse(f"x^{q}*y + y"), R.parse(f"x^{2 * q}*y - x^{q}*y^{200 * q + 1}")]:
            assert gb.member(f, P, o) is (not naive_normal_form(f, H.elements, o))
        assert widths == ([] if mapped else [64]) and H._kernel[0].width == (16 if mapped else 64)


def test_budget_exceeded_is_distinct_error(ring5):
    I = deformed_minors_ideal(ring5)
    with pytest.raises(gb.ResourceLimitError), gb.Budget(max_pairs=1):
        gb.reduced_gb(I, fp.lex())


def test_runs_in_one_budget_block_share_its_count(ring5, monkeypatch):
    # each lex run of the deformed minors reduces 2 S-pairs; fresh
    # presentations, so the second call is not a cache hit
    with gb.Budget(4) as budget:
        for _ in range(2):
            gb.reduced_gb(deformed_minors_ideal(ring5), fp.lex())
    assert budget.pairs == 4
    with pytest.raises(gb.ResourceLimitError, match="pair budget of 3 exceeded"):
        with gb.Budget(3) as budget:
            for _ in range(2):
                gb.reduced_gb(deformed_minors_ideal(ring5), fp.lex())
    assert budget.pairs == 4
    # outside any block every run gets a default budget of its own: with the
    # default shrunk to one run's pairs, two runs still pass
    monkeypatch.setattr(gb, "Budget", functools.partial(gb.Budget, max_pairs=2))
    for _ in range(2):
        gb.reduced_gb(deformed_minors_ideal(ring5), fp.lex())


def test_budget_counts_only_and_reenters(ring5):
    # max_pairs is the one constructor argument; a budget compares by identity
    with pytest.raises(TypeError):
        gb.Budget(500, 400)
    assert gb.Budget() != gb.Budget() and len({gb.Budget(), gb.Budget()}) == 2
    # entering the active budget again nests cleanly and keeps one count
    budget = gb.Budget()
    with budget:
        with budget:
            gb.reduced_gb(deformed_minors_ideal(ring5), fp.lex())
        assert gb._ACTIVE_BUDGET.get() is budget
        gb.reduced_gb(deformed_minors_ideal(ring5), fp.lex())
    assert gb._ACTIVE_BUDGET.get() is None and budget.pairs == 4


def naive_normal_form(f, basis, order):
    """Reference division: plain Polynomial arithmetic, same reducer order."""
    remainder = f.ring.zero()
    work = f
    lts = [(g, g.leading_term(order)) for g in basis]
    while work:
        lm, lc = work.leading_term(order)
        for g, (glm, glc) in lts:
            if glm.divides(lm):
                shift = lm.divide(glm)
                c = lc * pow(glc, -1, f.ring.p)
                work = work - g.multiply_monomial(shift, c)
                break
        else:
            piece = f.ring.polynomial({lm.exponents: lc})
            remainder = remainder + piece
            work = work - piece
    return remainder


def test_normal_form_matches_naive_division():
    rng = random.Random(271828)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{i}" for i in range(n)])
        order = rng.choice([fp.lex(), fp.grevlex()])
        basis = [random_polynomial(rng, R, 3, max_terms=3) for _ in range(rng.randint(1, 3))]
        basis = [g for g in basis if g]
        if not basis:
            continue
        f = random_polynomial(rng, R, 5, max_terms=5)
        assert gb.normal_form(f, basis, order) == naive_normal_form(f, basis, order)


def test_gb_over_larger_prime_matches_oracle():
    R = fp.ring_new(31, ["x", "y"])
    o = fp.lex()
    gens = [R.parse("x^2 - 7*y"), R.parse("x*y - 13")]
    B = gb.reduced_gb(gb.ideal(R, gens), o)
    res = oracle.stable_gb(R, gens, o, 6, 12)
    assert res is not None and list(B.elements) == res[0]
    # inverses over F_31 exercised by the monic normalization
    assert all(g.leading_coefficient(o) == 1 for g in B.elements)


def test_gb_cache_safe_under_concurrent_readers():
    # cache fill is idempotent: many threads asking for the same basis all
    # get the identical (unique) answer
    from concurrent.futures import ThreadPoolExecutor

    R = fp.ring_new(3, ["x", "y", "z"])
    o = fp.grevlex()
    I = gb.ideal(R, [R.parse("x^2*y - z^2"), R.parse("y^2 - x*z"), R.parse("x*z^2 - y*z")])
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: gb.reduced_gb(I, o).elements, range(16)))
    assert all(r == results[0] for r in results)


def test_oracle_equivalence_random_sample():
    # small, fast version of the acceptance sweep
    rng = random.Random(11)
    agreements = 0
    for _ in range(60):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{i}" for i in range(n)])
        order = rng.choice([fp.lex(), fp.grevlex()])
        gens = [random_polynomial(rng, R, 3, max_terms=3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        res = oracle.stable_gb(R, gens, order, 6, 14)
        if res is None:
            continue
        cand, _ = res
        B = gb.reduced_gb(gb.ideal(R, gens), order)
        assert list(B.elements) == cand
        agreements += 1
    assert agreements >= 40
