"""Independent oracles for the test suite.

The degree-truncated linear-algebra Groebner oracle validates Buchberger
output by a completely different route: build the Macaulay matrix of all
monomial multiples of the generators up to a stated total degree, row-reduce
it over F_p, and read the basis off the reduced row echelon form.  Columns
are sorted descending under the monomial order by ``order_greater``, so row
pivots are leading monomials; the rows whose pivots are minimal under
divisibility are the reduced Groebner basis elements of degree at most the
truncation bound (RREF has already cleared every other pivot monomial from
their tails).

The truncation is exact once the bound dominates the degrees that the
completed basis needs; ``stable_gb`` grows the bound until the extracted
basis agrees at two consecutive degrees.

``order_greater`` compares two monomials by the textbook definition of each
order, without the library's key vectors, so a fault in ``sort_key`` cannot
hide in both the kernel and the Macaulay oracle.

``monomial_ideal_intersection_lcm`` checks monomial-ideal intersection
against the pairwise-lcm formula.

``s_polynomial`` forms the S-pair combination from ``Polynomial``
arithmetic alone, so Buchberger-criterion checks on a computed basis do not
run through the kernel that computed it.

``parse_polynomial`` is the reference polynomial parser: a recursive-descent
parser that builds every atom as a ``Polynomial`` and combines them with ring
arithmetic (``**``, ``*``, ``+``, ``-``), over its own tokenizer.  The
library's parser must agree with it on every input, result and error alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations_with_replacement

import numpy as np

from frobsplit.field_poly import (
    MAX_NESTING,
    EliminationOrder,
    FieldPolyError,
    ParseError,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
)
from frobsplit.groebner import MonomialIdeal


def order_greater(order, a: tuple, b: tuple) -> bool:
    """Whether x^a > x^b, by the definition of the order.

    lex: the first differing exponent is larger.  grevlex: the total degree
    is larger, or on a tie the last differing exponent is smaller.  weight:
    the weighted degree is larger, or on a tie the tiebreak order decides.
    elimination: the last exponent is larger, or on a tie the base order
    decides on the other variables.
    """
    if a == b:
        return False
    if isinstance(order, EliminationOrder):
        if a[-1] != b[-1]:
            return a[-1] > b[-1]
        return order_greater(order.base, a[:-1], b[:-1])
    kind = order.kind
    if kind == "weight":
        wa, wb = (sum(w * e for w, e in zip(order.weight, m)) for m in (a, b))
        if wa != wb:
            return wa > wb
        kind = order.tiebreak
    diff = [x - y for x, y in zip(a, b)]
    if kind == "lex":
        return next(d for d in diff if d) > 0
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    return next(d for d in reversed(diff) if d) < 0


def sorted_descending(monomials, order) -> list:
    """Exponent tuples sorted from largest to smallest by :func:`order_greater`."""
    return sorted(monomials, key=cmp_to_key(lambda a, b: -1 if order_greater(order, a, b) else int(a != b)))


def monomials_up_to(n: int, degree: int):
    """All exponent tuples in n variables of total degree <= degree."""
    out = [(0,) * n]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _rref_mod_p(A: np.ndarray, p: int):
    """In-place reduced row echelon form over F_p; returns (rows, pivot columns)."""
    A = A % p
    nrows, ncols = A.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), -1, p)
        if inv != 1:
            A[r] = (A[r] * inv) % p
        hits = np.nonzero(A[:, c])[0]
        hits = hits[hits != r]
        if hits.size:
            A[hits] = (A[hits] - np.outer(A[hits, c], A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


class MacaulayBasis:
    """RREF of the multiples of a generating set up to a fixed total degree."""

    def __init__(self, ring: RingContext, generators, order, max_degree: int):
        self.ring = ring
        self.order = order
        self.max_degree = max_degree
        n = ring.n
        cols = sorted_descending(monomials_up_to(n, max_degree), order)
        self.columns = cols
        self.col_index = {e: i for i, e in enumerate(cols)}
        rows = []
        seen = set()
        for g in generators:
            if not g:
                continue
            terms = g.terms_dict()
            dg = g.degree()
            for mu in monomials_up_to(n, max_degree - dg):
                row = np.zeros(len(cols), dtype=np.int64)
                for e, c in terms.items():
                    shifted = tuple(a + b for a, b in zip(e, mu))
                    row[self.col_index[shifted]] = c
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        if rows:
            matrix, pivots = _rref_mod_p(np.array(rows, dtype=np.int64), ring.p)
        else:
            matrix, pivots = np.zeros((0, len(cols)), dtype=np.int64), []
        self.matrix = matrix
        self.pivot_columns = pivots
        self.pivot_exponents = [cols[c] for c in pivots]

    def row_polynomial(self, i: int) -> Polynomial:
        row = self.matrix[i]
        coeffs = {self.columns[j]: int(row[j]) for j in np.nonzero(row)[0]}
        return self.ring.polynomial(coeffs)

    def staircase(self) -> list[tuple]:
        """Pivot exponents minimal under divisibility (candidate lead monomials)."""
        minimal = []
        for e in sorted(self.pivot_exponents, key=sum):
            if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
                minimal.append(e)
        minimal.sort()
        return minimal

    def reduced_gb_candidate(self) -> list[Polynomial]:
        """Rows whose pivots are divisibility-minimal, sorted ascending by pivot."""
        minimal = set(self.staircase())
        # pivot columns increase down the rows, so pivots descend in the order
        return [
            self.row_polynomial(i)
            for i, e in reversed(list(enumerate(self.pivot_exponents)))
            if e in minimal
        ]

    def contains(self, f: Polynomial) -> bool:
        """Vector-space membership of f in the row space (degree permitting)."""
        if not f:
            return True
        if f.degree() > self.max_degree:
            raise ValueError("polynomial degree exceeds the truncation bound")
        p = self.ring.p
        vec = np.zeros(len(self.columns), dtype=np.int64)
        for e, c in f.terms_dict().items():
            vec[self.col_index[e]] = c
        for i, c in enumerate(self.pivot_columns):
            if vec[c]:
                vec = (vec - vec[c] * self.matrix[i]) % p
        return not vec.any()


def macaulay_gb(ring: RingContext, generators, order, max_degree: int) -> list[Polynomial]:
    """Reduced-basis candidate extracted from the Macaulay matrix at one degree."""
    return MacaulayBasis(ring, generators, order, max_degree).reduced_gb_candidate()


def stable_gb(ring: RingContext, generators, order, start_degree: int, max_degree: int):
    """Grow the truncation degree until the extracted basis repeats.

    Returns (basis, degree) on stabilization, None if the cap is hit first.
    """
    prev = None
    for d in range(start_degree, max_degree + 1):
        cur = macaulay_gb(ring, generators, order, d)
        if prev is not None and prev == cur:
            return cur, d
        prev = cur
    return None


def monomial_ideal_intersection_lcm(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    """Monomial-ideal intersection by pairwise lcms of the generators."""
    if A.ring != B.ring:
        raise FieldPolyError("ideals from different rings")
    gens = [a.lcm(b) for a in A.generators for b in B.generators]
    return MonomialIdeal(A.ring, tuple(gens))


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """The S-pair combination of f and g that cancels their leading terms."""
    if not f or not g:
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    (mf, cf), (mg, cg) = f.leading_term(order), g.leading_term(order)
    lcm = mf.lcm(mg)
    p = f.ring.p
    return f.multiply_monomial(lcm.divide(mf), pow(cf, -1, p)) - g.multiply_monomial(
        lcm.divide(mg), pow(cg, -1, p)
    )


# -- reference polynomial parser ---------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int" or the operator character itself
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-+*^();:=,]|#[^\n]*|[ \t\r]+|\n")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if lexeme == "\n":
            line += 1
            col = 1
        elif lexeme[0] in " \t\r" or lexeme[0] == "#":
            col += len(lexeme)
        else:
            if lexeme[0].isdigit():
                kind = "int"
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                kind = "ident"
            else:
                kind = lexeme
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column + len(last.value))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.column)
        return tok


def parse_polynomial_stream(ring: RingContext, ts: TokenStream) -> Polynomial:
    """Parse one polynomial expression from a token stream.

    Stops before any token that cannot continue the expression (e.g. ``;`` or
    ``,``), which lets problem-file parsing reuse this routine.  Parentheses
    nest at most ``MAX_NESTING`` deep.
    """
    depth = 0

    def parse_atom() -> Polynomial:
        nonlocal depth
        tok = ts.next()
        if tok.kind == "int":
            return ring.constant(int(tok.value))
        if tok.kind == "ident":
            if tok.value not in ring.names:
                raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.column)
            return ring.variable(ring.names.index(tok.value))
        if tok.kind == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column)
            depth += 1
            f = parse_expr()
            ts.expect(")")
            depth -= 1
            return f
        raise ParseError(f"expected a term, found {tok.value!r}", tok.line, tok.column)

    def parse_factor() -> Polynomial:
        base = parse_atom()
        tok = ts.peek()
        if tok is not None and tok.kind == "^":
            ts.next()
            exp = ts.expect("int")
            return base ** int(exp.value)
        return base

    def parse_term() -> Polynomial:
        f = parse_factor()
        while True:
            tok = ts.peek()
            if tok is not None and tok.kind == "*":
                ts.next()
                f = f * parse_factor()
            else:
                return f

    def parse_expr() -> Polynomial:
        tok = ts.peek()
        negate = False
        if tok is not None and tok.kind == "-":
            ts.next()
            negate = True
        f = parse_term()
        if negate:
            f = -f
        while True:
            tok = ts.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return f
            ts.next()
            g = parse_term()
            f = f + g if tok.kind == "+" else f - g

    return parse_expr()


def parse_polynomial(ring: RingContext, text: str) -> Polynomial:
    """Parse a whole polynomial text, as ``RingContext.parse`` does."""
    ts = TokenStream(tokenize(text))
    f = parse_polynomial_stream(ring, ts)
    tok = ts.peek()
    if tok is not None:
        raise ParseError(f"unexpected {tok.value!r} after polynomial", tok.line, tok.column)
    return f
