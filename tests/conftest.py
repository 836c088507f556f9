import sys
from pathlib import Path

import pytest

from frobsplit import field_poly as fp
from frobsplit import groebner as gb

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
DOCS = REPO / "docs"


@pytest.fixture
def ring_xy2():
    return fp.ring_new(2, ["x", "y"])


@pytest.fixture
def ring_xy5():
    return fp.ring_new(5, ["x", "y"])


@pytest.fixture
def ring5():
    """p = 5 in five variables, as in the deformed-minors fixture."""
    return fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])


def deformed_minors_ideal(ring):
    return gb.ideal(
        ring,
        [
            ring.parse("x4^4 + x4^2*x5^3 - x1*x3"),
            ring.parse("x3^4*x4^2 + x3^4*x5^3 - x2*x4^2 - x2*x5^3 - x1*x2"),
            ring.parse("x3^5 - x2*x3 - x2*x4^2"),
        ],
    )


def minors_2x3(p=2):
    ring = fp.ring_new(p, ["x11", "x12", "x13", "x21", "x22", "x23"])
    I = gb.ideal(
        ring,
        [
            ring.parse("x11*x22 - x12*x21"),
            ring.parse("x11*x23 - x13*x21"),
            ring.parse("x12*x23 - x13*x22"),
        ],
    )
    return ring, I


def pentagon_ideal():
    ring = fp.ring_new(2, [f"x{i}" for i in range(1, 6)] + [f"y{i}" for i in range(1, 6)])
    gens = [ring.parse(f"x{i}*y{i + 1} - x{i + 1}*y{i}") for i in range(1, 5)]
    gens.append(ring.parse("x5*y1 - x1*y5"))
    return ring, gb.ideal(ring, gens)


def random_polynomial(rng, ring, max_degree, max_terms=5, nonzero=False):
    """Seeded random sparse polynomial with total degree <= max_degree."""
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, max_terms)):
            e = [0] * ring.n
            budget = rng.randint(0, max_degree)
            for _ in range(budget):
                e[rng.randrange(ring.n)] += 1
            coeffs[tuple(e)] = rng.randint(1, ring.p - 1)
        f = ring.polynomial(coeffs)
        if f or not nonzero:
            return f


def random_order(rng, n):
    """lex, grevlex, or a random weight order with either tiebreak."""
    weights = tuple(rng.randint(1, 3) for _ in range(n))
    return rng.choice([fp.lex(), fp.grevlex(), fp.weight_order(weights, rng.choice(["lex", "grevlex"]))])


def random_monomial_ideal(rng, ring):
    """The zero ideal, a unit ideal (c), or one to four single terms with any coefficients."""
    kind = rng.random()
    if kind < 0.08:
        return gb.ideal(ring, [])
    if kind < 0.16:
        return gb.ideal(ring, [ring.constant(rng.randint(1, ring.p - 1))])
    gens = []
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 3) for _ in range(ring.n))
        gens.append(ring.polynomial({e: rng.randint(1, ring.p - 1)}))
    return gb.ideal(ring, gens)
