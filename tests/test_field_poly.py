import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit import field_poly as fp
from frobsplit import ideal_ops as ops

import oracle
from conftest import random_polynomial


# -- ring construction ---------------------------------------------------------


def test_ring_new_validates_primality():
    fp.ring_new(2, ["x"])
    fp.ring_new(5, [f"x{i}" for i in range(1, 6)])
    with pytest.raises(fp.FieldPolyError):
        fp.ring_new(4, ["x"])
    with pytest.raises(fp.FieldPolyError):
        fp.ring_new(1, ["x"])


def test_ring_new_rejects_oversized_modulus():
    with pytest.raises(fp.FieldPolyError):
        fp.ring_new(10**25 + 13, ["x"])


def test_ring_new_rejects_duplicates_and_empty():
    with pytest.raises(fp.FieldPolyError):
        fp.ring_new(2, ["x", "x"])
    with pytest.raises(fp.FieldPolyError):
        fp.ring_new(2, [])
    with pytest.raises(fp.FieldPolyError):
        fp.ring_new(2, ["3bad"])


def test_ring_extend_picks_fresh_name():
    R = fp.ring_new(2, ["t", "x"])
    ext = R.extend()
    assert ext.names == ("t", "x", "t0")
    assert ext.base == R


# -- monomials -------------------------------------------------------------------


def test_monomial_squarefree():
    R = fp.ring_new(2, ["x1", "x2", "x3"])
    assert R.monomial((1, 1, 1)).is_squarefree()
    assert not R.monomial((2, 0, 0)).is_squarefree()
    assert R.monomial((0, 0, 0)).is_squarefree()  # the empty product


def test_monomial_divide_and_lcm():
    R = fp.ring_new(2, ["x", "y"])
    a, b = R.monomial((2, 1)), R.monomial((1, 0))
    assert b.divides(a)
    assert a.divide(b).exponents == (1, 1)
    assert a.lcm(R.monomial((0, 3))).exponents == (2, 3)
    with pytest.raises(fp.FieldPolyError):
        b.divide(a)
    # one ring check with one message for monomials and polynomials; an equal
    # ring built separately is the same ring
    S, T = fp.ring_new(2, ["x", "y"]), fp.ring_new(3, ["x", "y"])
    assert (a * S.monomial((1, 1))).exponents == (3, 2) and b.divides(S.monomial((1, 0)))
    c, f = T.monomial((1, 0)), R.parse("x + y")
    for op in (lambda: a * c, lambda: b.divides(c), lambda: a.lcm(c), lambda: c.divide(b),
               lambda: f + T.parse("x"), lambda: f - T.parse("x"), lambda: f * T.parse("x")):
        with pytest.raises(fp.RingMismatchError, match="^operands from different rings$"):
            op()


def test_exponent_overflow_rejected():
    R = fp.ring_new(2, ["x"])
    with pytest.raises(fp.ExponentOverflowError):
        R.monomial((fp.MAX_EXPONENT + 1,))


@pytest.mark.parametrize(
    "exps, error",
    [
        ((1,), fp.FieldPolyError),  # wrong length
        ((1, 2, 3), fp.FieldPolyError),
        ((-1, 0), fp.FieldPolyError),
        ((1.0, 0), fp.FieldPolyError),
        (("1", 0), fp.FieldPolyError),
        ((0, fp.MAX_EXPONENT + 1), fp.ExponentOverflowError),
    ],
)
def test_ring_entry_points_reject_bad_exponents(exps, error):
    R = fp.ring_new(5, ["x", "y"])
    with pytest.raises(error):
        R.polynomial({(0, 0): 1, exps: 1})
    with pytest.raises(error):
        R.monomial(exps)


@pytest.mark.parametrize("coeff", [1.5, "1", 2.0])
def test_ring_polynomial_rejects_non_int_coefficients(coeff):
    R = fp.ring_new(5, ["x", "y"])
    with pytest.raises(fp.FieldPolyError, match="invalid coefficient"):
        R.polynomial({(1, 0): coeff})
    with pytest.raises(fp.FieldPolyError, match="invalid coefficient"):
        R.constant(coeff)


def test_exponent_growth_overflow_rejected():
    R = fp.ring_new(2, ["x", "y"])
    top = R.polynomial({(fp.MAX_EXPONENT, 0): 1})
    with pytest.raises(fp.ExponentOverflowError):
        top * R.variable(0)
    with pytest.raises(fp.ExponentOverflowError):
        R.polynomial({(2**30, 0): 1}) ** 2
    with pytest.raises(fp.ExponentOverflowError):
        top.multiply_monomial(R.monomial((1, 0)))
    with pytest.raises(fp.ExponentOverflowError):
        R.monomial((fp.MAX_EXPONENT, 0)) * R.monomial((1, 0))
    with pytest.raises(fp.ExponentOverflowError):
        R.parse("x^2147483647*x")
    # the cap applies per variable, and reaching it exactly is allowed
    assert (top * R.variable(1)).terms_dict() == {(fp.MAX_EXPONENT, 1): 1}
    assert top.multiply_monomial(R.monomial((0, 5))).terms_dict() == {(fp.MAX_EXPONENT, 5): 1}
    assert R.parse("x^2147483647") == top


# -- monomial orders --------------------------------------------------------------


def test_lex_basic():
    assert fp.lex().key((1, 0)) > fp.lex().key((0, 1))


def test_grevlex_degree_two_enumeration():
    # oracle: sort the six degree-2 monomials in three variables directly by
    # the definition (degree first; ties: rightmost nonzero difference < 0)
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    got = sorted(monos, key=fp.grevlex().key, reverse=True)
    assert got == oracle.sorted_descending(monos, fp.grevlex())
    assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    # in particular x2^2 > x1*x3
    assert fp.grevlex().key((0, 2, 0)) > fp.grevlex().key((1, 0, 1))


def test_weight_order_tiebreak():
    # both monomials have weighted degree 12; the grevlex tiebreak decides
    w = (6, 24, 6, 3, 1)
    R = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    order = fp.weight_order(w, "grevlex")
    a = R.monomial((0, 0, 0, 4, 0))  # x4^4
    b = R.monomial((1, 0, 1, 0, 0))  # x1*x3
    assert a.weighted_degree(w) == b.weighted_degree(w) == 12
    # degree 4 beats degree 2 under grevlex
    assert order.key(a.exponents) > order.key(b.exponents)


def test_weight_order_requires_positive_weights():
    with pytest.raises(fp.FieldPolyError):
        fp.weight_order((1, 0), "lex")
    with pytest.raises(fp.FieldPolyError):
        fp.MonomialOrder("weight", (1, 2), None)


def test_weight_key_rejects_length_mismatch():
    with pytest.raises(fp.FieldPolyError):
        fp.weight_order((1, 1), "lex").key((1, 0, 0))


def test_order_text_roundtrip():
    for order in [fp.lex(), fp.grevlex(), fp.weight_order((6, 24, 6, 3, 1), "grevlex")]:
        assert fp.parse_order(order.text()) == order


ORDERS3 = [fp.lex(), fp.grevlex(), fp.weight_order((2, 5, 3), "lex"), fp.weight_order((7, 1, 1), "grevlex")]


def test_compare_is_strict_total_multiplicative_order():
    # >= 10^4 random triples across several orders
    rng = random.Random(20260811)
    one = (0, 0, 0)

    def cmp(order, a, b):
        ka, kb = order.key(a), order.key(b)
        return (ka > kb) - (ka < kb)

    for order in ORDERS3:
        for _ in range(2600):
            a, b, c = (tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(3))
            # antisymmetry, and equal keys exactly on equal monomials
            ab, ba = cmp(order, a, b), cmp(order, b, a)
            assert ab == -ba
            assert (ab == 0) == (a == b)
            # transitivity
            if ab == 1 and cmp(order, b, c) == 1:
                assert cmp(order, a, c) == 1
            # multiplicativity
            assert cmp(order, tuple(map(add, a, c)), tuple(map(add, b, c))) == ab
            # 1 is minimal
            if a != one:
                assert cmp(order, a, one) == 1


# -- polynomials -------------------------------------------------------------------


def test_polynomial_equality_is_order_independent():
    R = fp.ring_new(5, ["x", "y"])
    f = R.polynomial({(1, 0): 1, (0, 1): 2})
    g = R.polynomial({(0, 1): 2, (1, 0): 1})
    assert f == g and hash(f) == hash(g)


def test_zero_coefficients_never_stored():
    R = fp.ring_new(5, ["x"])
    f = R.polynomial({(1,): 5, (0,): 3})
    assert f.terms_dict() == {(0,): 3}
    assert (f - f).is_zero

    # every sparse sum of the library against a naive dict sum, with g = h - f
    # forcing cancellation against the terms of f
    def naive(p, terms):
        out = {}
        for e, c in terms:
            out[e] = out.get(e, 0) + c
        return {e: c % p for e, c in out.items() if c % p}

    rng = random.Random(15)
    cancelled = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        ring = fp.ring_new(p, ["x", "y", "z"])
        f = random_polynomial(rng, ring, 3, max_terms=6)
        g = random_polynomial(rng, ring, 3, max_terms=6) - f
        F, G = f.terms_dict().items(), g.terms_dict().items()
        value = rng.randrange(p)
        ext = ring.extend()
        H = ext.polynomial({**{e + (0,): c for e, c in F}, **{e + (1,): c for e, c in G}})
        cases = [
            (f + g, naive(p, [*F, *G])),
            (f - g, naive(p, [*F, *((e, -c) for e, c in G)])),
            (f * g, naive(p, [(tuple(map(add, a, b)), c * d) for a, c in F for b, d in G])),
            (f.substitute(1, value), naive(p, [((e[0], 0, e[2]), c * value ** e[1]) for e, c in F])),
            (ring.parse(f"({f}) + ({g})"), naive(p, [*F, *G])),
            (ops.dehomogenize(H), naive(p, [(e[:-1], c) for e, c in H.terms_dict().items()])),
        ]
        for got, want in cases:
            assert got.terms_dict() == want
            assert all(0 < c < p for c in got.terms_dict().values())
        cancelled += len(f + g) < len(F) + len(G)
    assert cancelled > 100


def test_leading_term_examples():
    R = fp.ring_new(5, ["x1", "x2", "x3", "x4"])
    f = R.parse("x1*x4 - x2*x3")
    lm, lc = f.leading_term(fp.lex())
    assert lm.exponents == (1, 0, 0, 1)
    assert lc == 1
    # constants have the empty monomial
    c = fp.ring_new(5, ["x"]).parse("3")
    assert c.leading_term(fp.lex()) == (fp.ring_new(5, ["x"]).monomial((0,)), 3)
    with pytest.raises(fp.ZeroPolynomialError):
        fp.ring_new(5, ["x"]).zero().leading_term(fp.lex())


def test_leading_term_against_order_definition():
    # the leading monomial is greater than every other term by the textbook
    # definition of each order, including the lex shortcut of largest tuple
    rng = random.Random(41)
    R = fp.ring_new(5, ["x", "y", "z", "t"])
    orders = [
        fp.lex(),
        fp.grevlex(),
        fp.weight_order((3, 1, 2, 1), "lex"),
        fp.weight_order((1, 2, 2, 3), "grevlex"),
        fp.EliminationOrder(fp.lex()),
        fp.EliminationOrder(fp.grevlex()),
    ]
    for _ in range(200):
        f = random_polynomial(rng, R, 5, max_terms=12, nonzero=True)
        for order in orders:
            lm, lc = f.leading_term(order)
            terms = f.terms_dict()
            assert lc == terms[lm.exponents]
            assert all(oracle.order_greater(order, lm.exponents, e) for e in terms if e != lm.exponents)


def test_leading_term_never_low_weight_term():
    R = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    f = R.parse("x4^4 + x4^2*x5^3 - x1*x3")
    order = fp.weight_order((6, 24, 6, 3, 1), "grevlex")
    lm, _ = f.leading_term(order)
    assert lm.exponents != (0, 0, 0, 2, 3)  # weighted degree 9 < 12
    assert lm.weighted_degree((6, 24, 6, 3, 1)) == 12


def test_initial_w_examples():
    R = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    f = R.parse("x4^4 + x4^2*x5^3 - x1*x3")
    w = (6, 24, 6, 3, 1)
    assert f.initial_w(w) == R.parse("x4^4 - x1*x3")
    # weighted-homogeneous polynomials are their own initial form
    g = R.parse("x4^4 - x1*x3")
    assert g.initial_w(w) == g
    R2 = fp.ring_new(5, ["x", "y"])
    assert R2.parse("x^2 + y").initial_w((1, 1)) == R2.parse("x^2")
    assert f.weighted_degree(w) == 12 and R2.parse("x^2 + y").weighted_degree((1, 3)) == 3
    with pytest.raises(fp.ZeroPolynomialError):
        R2.zero().initial_w((1, 1))
    # a weight vector of the wrong length is an error, never truncated
    R3 = fp.ring_new(5, ["x", "y", "z"])
    for method in (fp.Polynomial.initial_w, fp.Polynomial.weighted_degree):
        with pytest.raises(fp.FieldPolyError):
            method(R3.parse("x^2*y + z"), (1, 2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_initial_w_is_multiplicative(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    R = fp.ring_new(p, [f"x{i}" for i in range(n)])
    w = tuple(data.draw(st.integers(1, 6)) for _ in range(n))
    exps = st.tuples(*([st.integers(0, 3)] * n))
    polys = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4)
    f = R.polynomial(data.draw(polys))
    g = R.polynomial(data.draw(polys))
    if not f or not g:
        return
    assert (f * g).initial_w(w) == f.initial_w(w) * g.initial_w(w)


def test_leading_term_of_weight_order_matches_initial_form():
    rng = random.Random(7)
    R = fp.ring_new(5, ["x", "y", "z"])
    w = (3, 1, 2)
    order = fp.weight_order(w, "grevlex")
    tie = fp.grevlex()
    for _ in range(300):
        coeffs = {
            tuple(rng.randint(0, 4) for _ in range(3)): rng.randint(1, 4)
            for _ in range(rng.randint(1, 5))
        }
        f = R.polynomial(coeffs)
        if not f:
            continue
        assert f.leading_term(order) == f.initial_w(w).leading_term(tie)


# -- parsing and printing -----------------------------------------------------------


def test_parse_print_roundtrip():
    R = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    order = fp.lex()
    for text in [
        "x4^4 + x4^2*x5^3 - x1*x3",
        "x1*x4 - x2*x3",
        "3",
        "0",
        "-x1 + 2",
        "x1^7",
    ]:
        f = R.parse(text)
        assert R.parse(f.text(order)) == f


def test_parse_reduces_large_coefficients():
    R = fp.ring_new(5, ["x"])
    assert R.parse("7*x") == R.parse("2*x")
    assert R.parse("5*x").is_zero
    assert R.parse("-x") == R.parse("4*x")


def test_parse_errors_carry_positions():
    R = fp.ring_new(5, ["x"])
    with pytest.raises(fp.ParseError) as err:
        R.parse("x + yy")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(fp.ParseError):
        R.parse("x +")
    with pytest.raises(fp.ParseError):
        R.parse("x ^ x")
    with pytest.raises(fp.ParseError):
        R.parse("(x")


def test_canonical_text_parses_back():
    orders = [
        fp.lex(),
        fp.grevlex(),
        fp.weight_order((3, 1, 2, 1), "lex"),
        fp.weight_order((1, 2, 1, 5), "grevlex"),
    ]
    for p in (2, 3, 5, 32003):
        rng = random.Random(p)
        R = fp.ring_new(p, ["x", "y", "z", "w"])
        for _ in range(40):
            f = random_polynomial(rng, R, 6, max_terms=12)
            for order in orders:
                assert R.parse(f.text(order)) == f


def test_parsing_canonical_text_multiplies_no_polynomials(monkeypatch):
    R = fp.ring_new(32003, [f"x{i}" for i in range(1, 7)])
    rng = random.Random(2000)
    coeffs = {}
    while len(coeffs) < 2000:
        coeffs[tuple(rng.randint(0, 5) for _ in range(6))] = rng.randint(1, 32002)
    f = R.polynomial(coeffs)
    calls = []
    mul = fp.Polynomial.__mul__
    monkeypatch.setattr(fp.Polynomial, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert R.parse(f.text()) == f
    assert calls == []


# Operands of the differential test: known and unknown variables, coefficients
# below and above p, and exponents at and just past MAX_EXPONENT (2^31 - 1).
_ATOMS = ("x", "y", "0", "2", "7", "12", "98765432109876543210")
_EXPONENTS = ("0", "1", "2", "5", "1073741824", "2147483647", "2147483648", "4294967296")
# Tokens a mutation inserts: every operator, an unknown variable, whitespace,
# a comment, and characters outside the grammar.
_NOISE = ("(", ")", "^", "-", "+", "*", ";", ",", "=", "w", "3", "2147483648",
          " ", "\t", "\n", "# note\n", "$", "\u00e9")


def _random_expression(rng, depth=0) -> list[str]:
    toks = ["-"] if rng.random() < 0.3 else []
    for k in range(rng.randint(1, 3)):
        if k:
            toks.append(rng.choice("+-"))
        for j in range(rng.randint(1, 3)):
            if j:
                toks.append("*")
            if depth < 3 and rng.random() < 0.2:
                toks += ["(", *_random_expression(rng, depth + 1), ")"]
                if rng.random() < 0.3:
                    toks += ["^", rng.choice("0123")]
            else:
                toks.append(rng.choice(_ATOMS))
                if rng.random() < 0.3:
                    toks += ["^", rng.choice(_EXPONENTS)]
    return toks


def _random_parser_input(rng) -> str:
    toks = _random_expression(rng)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        i = rng.randrange(len(toks) + 1)
        action = rng.random()
        if action < 0.4:
            toks.insert(i, rng.choice(_NOISE))
        elif i < len(toks) and action < 0.7:
            del toks[i]
        elif i < len(toks):
            toks[i] = rng.choice(_NOISE)
    # a parenthesised base takes only small exponents, or both parsers would
    # expand a huge power before reaching MAX_EXPONENT
    solid = []
    for i, t in enumerate(toks):
        if t.isdigit() and len(solid) >= 2 and [toks[j] for j in solid[-2:]] == [")", "^"]:
            toks[i] = t = "3" if int(t) > 3 else t
        if t.strip() and not t.startswith("#"):
            solid.append(i)
    text = toks[0] if toks else ""
    for a, b in zip(toks, toks[1:]):
        text += (" " if a[-1].isalnum() and b[0].isalnum() else "") + b
    return text


def _parse_outcome(parse, ring, text):
    try:
        return parse(ring, text)
    except fp.ExponentOverflowError:
        return fp.ExponentOverflowError  # the exponent the message names may differ
    except fp.FieldPolyError as exc:
        return type(exc), str(exc)


def test_parser_agrees_with_reference_parser():
    rng = random.Random(9)
    for p in (2, 5, 32003):
        R = fp.ring_new(p, ["x", "y"])
        for _ in range(2000):
            text = _random_parser_input(rng)
            expected = _parse_outcome(oracle.parse_polynomial, R, text)
            assert _parse_outcome(fp.RingContext.parse, R, text) == expected, text


def test_parens_and_products():
    R = fp.ring_new(7, ["x", "y"])
    assert R.parse("(x + y)*(x - y)") == R.parse("x^2 - y^2")
    assert R.parse("x*(y + 3)^2") == R.parse("x*y^2 + 6*x*y + 2*x")


def test_pow_matches_repeated_multiplication():
    R = fp.ring_new(3, ["x", "y"])
    f = R.parse("x + 2*y")
    acc = R.one()
    for k in range(6):
        assert f**k == acc
        acc = acc * f


def test_substitute():
    R = fp.ring_new(5, ["x", "y"])
    f = R.parse("x^2*y + 3*y + x")
    assert f.substitute(1, 0) == R.parse("x")
    assert f.substitute(1, 1) == R.parse("x^2 + x + 3")
