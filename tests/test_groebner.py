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
            r = gb._reduce(*gb._spair(ra, rb, lcm, p), [], p, packing.guards)
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
        assert I._gb_cache == {}
        G = gb.reduced_gb(gb.ideal(R, I.generators), o)
        expected = not f or (bool(G.elements) and not gb.normal_form(f, G.elements, o))
        assert got == expected
        verdicts[got] += 1
    assert min(verdicts.values()) >= 60, verdicts


def test_member_builds_the_kernel_form_of_a_basis_once(monkeypatch):
    # a basis converts its elements to kernel form on first use only, whether
    # reduced_gb made it or bracket_power (here I^[p]); every later member
    # call converts just f
    converted = []
    to_terms = gb._to_terms
    monkeypatch.setattr(gb, "_to_terms", lambda f, nkey: converted.append(f) or to_terms(f, nkey))
    rng = random.Random(29)
    R = fp.ring_new(3, ["x", "y", "z"])
    o = fp.grevlex()
    I = gb.ideal(R, [R.parse("x^2 - y*z"), R.parse("x*y - z^2 + x")])
    G = gb.reduced_gb(I, o)
    P = ops.bracket_power(I, 1)
    H = P._gb_cache[o]
    carriers = [g * random_polynomial(rng, R, 2, max_terms=3) for g in G.elements + H.elements]
    carriers += [random_polynomial(rng, R, 6, max_terms=4) for _ in range(20)]
    nonzero = sum(1 for f in carriers if f)
    for ideal_, basis in ((I, G), (P, H)):
        assert basis._kernel is None
        for built in (len(basis), 0):
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
    for R, gens in _selection_cases():
        for o in [fp.grevlex(), fp.lex()]:
            reference = gb.reduced_gb(gb.ideal(R, gens), o)
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


@pytest.mark.parametrize(
    "fixture, pairs, elimination_pairs",
    [("minors_2x3.prob", 84, 82), ("pentagon_edge.prob", 1684, 1664)],
    ids=["minors_2x3.prob", "pentagon_edge.prob"],
)
def test_fsplit_pairs_reduced_pinned(fixture, pairs, elimination_pairs):
    # deterministic regression signal for the pair criteria: S-pairs that
    # survive the criteria and are reduced, summed over every kernel run of
    # what the fsplit command computes
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
    assert budget.pairs == 1 and fp.lex() not in I._gb_cache


def test_reduced_gb_checks_the_cap_on_its_result():
    # under lex, tail reduction alone carries z - x^3 to z - y^(3k): no new
    # leading monomial passes MAX_EXPONENT, the result does.  An elimination
    # (any _blocks) may carry such a tail and drop it, so its result is not
    # checked
    R = fp.ring_new(3, ["z", "x", "y"])
    gens = [R.parse("z - x^3"), R.parse("x - y^1000000000")]
    I = gb.ideal(R, gens)
    with pytest.raises(fp.ExponentOverflowError, match="^exponent 3000000000 exceeds"):
        gb.reduced_gb(I, fp.lex())
    assert fp.lex() not in I._gb_cache
    G = gb.reduced_gb(gb.ideal(R, gens), fp.lex(), _blocks=[None, None])
    assert [g.text(fp.lex()) for g in G] == ["x + 2*y^1000000000", "z + 2*y^3000000000"]


def _narrow_fields(monkeypatch):
    """Start every run at 16-bit exponent fields; returns the widths packed at, in order."""
    monkeypatch.setattr(gb, "_WIDTH", 16)
    widths = []
    packing = gb._packing
    monkeypatch.setattr(gb, "_packing", lambda order, n, width: widths.append(width) or packing(order, n, width))
    return widths


def test_a_run_widens_its_fields_and_charges_its_pairs_once(monkeypatch):
    # under lex, (x - y^a, x^2 - y) has the reduced basis (y^(2a) - y, x - y^a)
    # after one pair.  With a just below the initial field limit 2^15, y^(2a)
    # passes it in the run, which restarts at twice the width
    R = fp.ring_new(3, ["x", "y"])
    widths = _narrow_fields(monkeypatch)
    for a, used in [(2, [16]), (2**15 - 1, [16, 32])]:
        del widths[:]
        with gb.Budget() as budget:
            G = gb.reduced_gb(gb.ideal(R, [R.parse(f"x - y^{a}"), R.parse("x^2 - y")]), fp.lex())
        assert G.elements == (R.parse(f"y^{2 * a} - y"), R.parse(f"x - y^{a}"))
        assert widths == used and budget.pairs == 1


def test_a_run_widens_twice_before_the_cap_stops_it(monkeypatch):
    # x - y^(2^30) needs 32-bit fields; the run's y^(2^31) needs 64 and, as a
    # new leading monomial past MAX_EXPONENT, stops the run after the same
    # single pair
    R = fp.ring_new(3, ["x", "y"])
    widths = _narrow_fields(monkeypatch)
    with gb.Budget() as budget, pytest.raises(fp.ExponentOverflowError, match=f"^exponent {2**31} exceeds"):
        gb.reduced_gb(gb.ideal(R, [R.parse(f"x - y^{2**30}"), R.parse("x^2 - y")]), fp.lex())
    assert widths == [16, 32, 64] and budget.pairs == 1


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
