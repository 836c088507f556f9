"""Independent oracles for the test suite.

The degree-truncated linear-algebra Groebner oracle validates Buchberger
output by a completely different route: build the Macaulay matrix of all
monomial multiples of the generators up to a stated total degree, row-reduce
it over F_p, and read the basis off the reduced row echelon form.  Columns
are sorted descending under the monomial order, so row pivots are leading
monomials; the rows whose pivots are minimal under divisibility are the
reduced Groebner basis elements of degree at most the truncation bound (RREF
has already cleared every other pivot monomial from their tails).

The truncation is exact once the bound dominates the degrees that the
completed basis needs; ``stable_gb`` grows the bound until the extracted
basis agrees at two consecutive degrees.

``monomial_ideal_intersection_lcm`` checks monomial-ideal intersection
against the pairwise-lcm formula.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from frobsplit.field_poly import FieldPolyError, Polynomial, RingContext
from frobsplit.groebner import MonomialIdeal


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
        cols = sorted(monomials_up_to(n, max_degree), key=order.key, reverse=True)
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
        """Rows whose pivots are divisibility-minimal, sorted ascending."""
        minimal = set(self.staircase())
        polys = [
            self.row_polynomial(i)
            for i, e in enumerate(self.pivot_exponents)
            if e in minimal
        ]
        polys.sort(key=lambda f: self.order.key(f.leading_monomial(self.order).exponents))
        return polys

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
