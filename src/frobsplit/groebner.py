"""Buchberger engine: reduced Groebner bases, normal forms, initial ideals.

The public operations work on :class:`~frobsplit.field_poly.Polynomial`
values; internally polynomials are flattened to lists of ``(key, exponents,
coefficient)`` triples sorted descending, where ``key`` is the order's
additive key vector.  Division keeps the active terms in a dict plus a lazy
max-heap of keys, so each reduction step costs one heap pop plus one shifted
merge of the reducer tail.

Pairs are filtered when they are created, by the installation of Gebauer
and Moeller: each new element drops the queued pairs it makes redundant
(criterion B), keeps one new pair per minimal lcm and none whose leading
monomials are coprime (criteria M and F), and retires every element whose
leading monomial it divides.  Every pair that survives to be popped is
reduced; pairs are popped by the normal strategy (minimal lcm degree, then
lcm key).  The output is the unique reduced Groebner basis, so the result is
independent of the selection strategy; a private hook lets tests randomize
selection to check exactly that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import le

from .field_poly import (
    FieldPolyError,
    Monomial,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
)

DEFAULT_MAX_PAIRS = 10**6


class ResourceLimitError(RuntimeError):
    """The configured pair budget was exhausted (not a math failure)."""

    def __init__(self, message: str, pairs_processed: int):
        super().__init__(message)
        self.pairs_processed = pairs_processed


@dataclass(frozen=True)
class Budget:
    """Caps on Buchberger work: the number of S-pairs one run may reduce."""

    max_pairs: int = DEFAULT_MAX_PAIRS


DEFAULT_BUDGET = Budget()


# -- kernel -------------------------------------------------------------------
# A kernel polynomial is a list of (key, exp, coeff) sorted descending by key.


def _to_terms(f: Polynomial, keyf):
    terms = [(keyf(e), e, c) for e, c in f.terms_dict().items()]
    terms.sort(reverse=True)
    return terms


def _from_terms(ring: RingContext, terms) -> Polynomial:
    return Polynomial(ring, {e: c for _, e, c in terms})


def _monic_terms(terms, p):
    lc = terms[0][2]
    if lc == 1:
        return terms
    inv = pow(lc, -1, p)
    return [(k, e, (c * inv) % p) for k, e, c in terms]


def _neg_key(key):
    return tuple(-x for x in key)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _mask(exps) -> int:
    m = 0
    for i, e in enumerate(exps):
        if e:
            m |= 1 << i
    return m


class _Reducer:
    """A monic basis element preprocessed for division."""

    __slots__ = ("lm", "lm_key", "mask", "tail")

    def __init__(self, terms, p):
        terms = _monic_terms(terms, p)
        self.lm_key, self.lm, _ = terms[0]
        self.mask = _mask(self.lm)
        self.tail = terms[1:]


def _reduce(terms, reducers, p):
    """Full normal form of a kernel polynomial against a reducer list.

    Scans reducers in list order for the first whose leading monomial divides
    the current maximal term; terms with no divisor move to the remainder.
    """
    coeffs: dict[tuple, int] = {}
    heap: list[tuple[tuple, tuple]] = []
    for k, e, c in terms:
        coeffs[e] = c
        heap.append((_neg_key(k), e))
    heapq.heapify(heap)
    remainder = []
    while heap:
        nk, e = heapq.heappop(heap)
        c = coeffs.pop(e, 0)
        if not c:
            continue
        emask = _mask(e)
        hit = None
        for red in reducers:
            if red.mask & ~emask:
                continue
            lm = red.lm
            ok = True
            for a, b in zip(lm, e):
                if a > b:
                    ok = False
                    break
            if ok:
                hit = red
                break
        if hit is None:
            remainder.append((_neg_key(nk), e, c))
            continue
        shift = tuple(a - b for a, b in zip(e, hit.lm))
        shift_key = tuple(a - b for a, b in zip(_neg_key(nk), hit.lm_key))
        for tk, te, tc in hit.tail:
            ne = tuple(a + b for a, b in zip(te, shift))
            if ne in coeffs:
                v = (coeffs[ne] - c * tc) % p
                if v:
                    coeffs[ne] = v
                else:
                    del coeffs[ne]
            else:
                v = (-c * tc) % p
                if v:
                    coeffs[ne] = v
                    nk2 = tuple(-(a + b) for a, b in zip(tk, shift_key))
                    heapq.heappush(heap, (nk2, ne))
    return remainder


def _spoly_terms(fa, fb, p, keyf):
    """S-pair combination of two monic kernel polynomials."""
    _, ea, ca = fa[0]
    _, eb, cb = fb[0]
    lcm = _lcm(ea, eb)
    da = tuple(l - a for l, a in zip(lcm, ea))
    db = tuple(l - b for l, b in zip(lcm, eb))
    inv_a = pow(ca, -1, p)
    inv_b = pow(cb, -1, p)
    acc: dict[tuple, int] = {}
    for _, e, c in fa:
        ne = tuple(a + b for a, b in zip(e, da))
        v = (acc.get(ne, 0) + c * inv_a) % p
        if v:
            acc[ne] = v
        else:
            acc.pop(ne, None)
    for _, e, c in fb:
        ne = tuple(a + b for a, b in zip(e, db))
        v = (acc.get(ne, 0) - c * inv_b) % p
        if v:
            acc[ne] = v
        else:
            acc.pop(ne, None)
    terms = [(keyf(e), e, c) for e, c in acc.items()]
    terms.sort(reverse=True)
    return terms


def _buchberger(inputs, keyf, p, budget: Budget, pair_noise=None):
    """Run Buchberger to completion; returns a fully reduced basis (kernel form).

    Pairs are installed by the Gebauer-Moeller update, so every pair left in
    the queue is reduced when popped.  ``pair_noise`` is a test-only hook: a
    callable mapping a pair to an extra leading component of its selection
    key, used to scramble the strategy and exercise the uniqueness of the
    reduced basis.
    """
    basis = []
    reducers = []
    active = []
    heap = []

    def install(terms):
        """Add one element and update the pair queue and the active set."""
        nonlocal heap, active
        h = len(basis)
        terms = _monic_terms(terms, p)
        basis.append(terms)
        red = _Reducer(terms, p)
        reducers.append(red)
        lh, mh = red.lm, red.mask
        # criterion B: drop a queued (i, j) when lm(h) divides lcm(i, j) and
        # both lcm(i, h) and lcm(j, h) properly divide it
        kept = []
        for pair in heap:
            _, i, j, lcm, mask = pair
            if (
                mh & ~mask
                or not _divides(lh, lcm)
                or _lcm(reducers[i].lm, lh) == lcm
                or _lcm(reducers[j].lm, lh) == lcm
            ):
                kept.append(pair)
        if len(kept) < len(heap):
            heap = kept
            heapq.heapify(heap)
        # criteria M and F on the new pairs (g, h), as in Gebauer and
        # Moeller: a pair goes when another surviving new pair's lcm divides
        # its own; a coprime pair is never dropped here, so it still removes
        # the pairs it covers, and is itself dropped afterwards
        new = []
        for g in active:
            rg = reducers[g]
            new.append((_lcm(rg.lm, lh), rg.mask | mh, g, not rg.mask & mh))
        alive = [True] * len(new)
        for a, (lcm, mask, _, coprime) in enumerate(new):
            if coprime:
                continue
            for b, (lcm_b, mask_b, _, _) in enumerate(new):
                if b != a and alive[b] and not mask_b & ~mask and _divides(lcm_b, lcm):
                    alive[a] = False
                    break
        for (lcm, mask, g, coprime), ok in zip(new, alive):
            if ok and not coprime:
                sel = (sum(lcm), keyf(lcm), g, h)
                if pair_noise is not None:
                    sel = (pair_noise((g, h)),) + sel
                heapq.heappush(heap, (sel, g, h, lcm, mask))
        # an element whose leading monomial lm(h) divides is no longer needed
        # as a reducer or as a partner of later pairs
        active = [
            g for g in active if mh & ~reducers[g].mask or not _divides(lh, reducers[g].lm)
        ]
        active.append(h)

    for terms in inputs:
        if terms:
            install(terms)

    processed = 0
    while heap:
        _, i, j, _, _ = heapq.heappop(heap)
        processed += 1
        if processed > budget.max_pairs:
            raise ResourceLimitError(
                f"pair budget of {budget.max_pairs} exceeded", processed
            )
        s = _spoly_terms(basis[i], basis[j], p, keyf)
        r = _reduce(s, [reducers[g] for g in active], p)
        if r:
            install(r)

    return _autoreduce([basis[g] for g in active], p), processed


def _autoreduce(basis, p):
    """Minimalize and tail-reduce a Groebner basis; sort ascending by lm.

    One reducer list serves every element: a leading monomial divides no
    smaller term, so an element's own reducer never fires on its tail.
    """
    lms = [(t[0][1], _mask(t[0][1])) for t in basis]
    keep = [
        _monic_terms(basis[i], p)
        for i, (lm, mask) in enumerate(lms)
        if not any(
            j != i and not mo & ~mask and _divides(lo, lm) and (lo != lm or j < i)
            for j, (lo, mo) in enumerate(lms)
        )
    ]
    reducers = [_Reducer(t, p) for t in keep]
    reduced = [t[:1] + _reduce(t[1:], reducers, p) for t in keep]
    reduced.sort(key=lambda t: t[0][0])
    return reduced


# -- public types -------------------------------------------------------------


@dataclass(frozen=True)
class ReducedGB:
    """The unique reduced Groebner basis of an ideal for a fixed order.

    Elements are monic, mutually fully reduced, and sorted by leading
    monomial ascending.
    """

    ring: RingContext
    order: object
    elements: tuple[Polynomial, ...]

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held by its minimal generating set.

    Generators are minimalized at construction and sorted by exponent tuple;
    an empty generator list is the zero ideal.
    """

    ring: RingContext
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        gens = sorted(set(m.exponents for m in self.generators))
        minimal = []
        for e in gens:
            if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
                minimal = [f for f in minimal if not all(a <= b for a, b in zip(e, f))]
                minimal.append(e)
        minimal.sort()
        object.__setattr__(
            self, "generators", tuple(Monomial(self.ring, e) for e in minimal)
        )

    @property
    def is_proper(self) -> bool:
        return all(not m.is_one() for m in self.generators)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains_monomial(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.generators)

    def contains_polynomial(self, f: Polynomial) -> bool:
        """True iff every term of f lies in the ideal."""
        gens = [g.exponents for g in self.generators]
        for e in f.terms_dict():
            if not any(all(a <= b for a, b in zip(g, e)) for g in gens):
                return False
        return True

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)


@dataclass
class IdealPresentation:
    """An ideal given by generators, with reduced Groebner bases cached per order.

    Zero generators are dropped at construction.  The cache fill is
    idempotent (the reduced basis is unique), so concurrent readers are safe.
    The same dict caches ideals derived per order under ``(name, order)``
    keys, such as the Fedder colon.
    ``provenance`` carries operation metadata (saturation exponents, symbolic
    power witnesses) and does not affect equality.
    """

    ring: RingContext
    generators: tuple[Polynomial, ...]
    provenance: dict = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    _gb_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if g.ring != self.ring:
                raise FieldPolyError("generator from a different ring")
            if g:
                gens.append(g)
        self.generators = tuple(gens)

    @property
    def is_zero(self) -> bool:
        return not self.generators


def ideal(ring: RingContext, generators) -> IdealPresentation:
    return IdealPresentation(ring, tuple(generators))


# -- public operations ---------------------------------------------------------


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """Standard S-pair combination cancelling the two leading terms."""
    if not f or not g:
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    if f.ring != g.ring:
        raise FieldPolyError("polynomials from different rings")
    p = f.ring.p
    keyf = order.key
    terms = _spoly_terms(_to_terms(f, keyf), _to_terms(g, keyf), p, keyf)
    return _from_terms(f.ring, terms)


def normal_form(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of multivariate division of f by the listed polynomials."""
    basis = list(basis)
    for g in basis:
        if not g:
            raise ZeroPolynomialError("cannot divide by the zero polynomial")
    if not f:
        return f
    p = f.ring.p
    keyf = order.key
    reducers = [_Reducer(_to_terms(g, keyf), p) for g in basis]
    r = _reduce(_to_terms(f, keyf), reducers, p)
    return _from_terms(f.ring, r)


def reduced_gb(
    I: IdealPresentation,
    order,
    budget: Budget | None = None,
    _pair_noise=None,
) -> ReducedGB:
    """Unique reduced Groebner basis of the ideal; cached per order."""
    cached = I._gb_cache.get(order)
    if cached is not None and _pair_noise is None:
        return cached
    budget = budget or DEFAULT_BUDGET
    p = I.ring.p
    keyf = order.key
    inputs = [_to_terms(g, keyf) for g in I.generators]
    basis, _ = _buchberger(inputs, keyf, p, budget, pair_noise=_pair_noise)
    gb = ReducedGB(I.ring, order, tuple(_from_terms(I.ring, t) for t in basis))
    if _pair_noise is None:
        I._gb_cache.setdefault(order, gb)
    return gb


def presentation_from_gb(ring: RingContext, elements, order) -> IdealPresentation:
    """Wrap polynomials already known to form a Groebner basis.

    Minimalizes and tail-reduces without pair processing (sound because the
    input is a basis), then caches the reduced result.  Callers are
    responsible for the basis property; the test suite re-checks it on
    fixtures via the S-pair criterion.
    """
    p = ring.p
    keyf = order.key
    terms = [_to_terms(g, keyf) for g in elements if g]
    basis = _autoreduce(terms, p)
    gb = ReducedGB(ring, order, tuple(_from_terms(ring, t) for t in basis))
    pres = IdealPresentation(ring, gb.elements)
    pres._gb_cache[order] = gb
    return pres


def initial_ideal(I: IdealPresentation, order, budget: Budget | None = None) -> MonomialIdeal:
    """Monomial ideal of leading monomials, with its minimal generating set."""
    gb = reduced_gb(I, order, budget)
    return MonomialIdeal(I.ring, tuple(gb.leading_monomials()))


def member(f: Polynomial, I: IdealPresentation, order, budget: Budget | None = None) -> bool:
    """Ideal membership via normal form against the reduced basis."""
    if not f:
        return True
    gb = reduced_gb(I, order, budget)
    if not gb.elements:
        return False
    return not normal_form(f, gb.elements, order)


def ideals_equal(
    A: IdealPresentation, B: IdealPresentation, order, budget: Budget | None = None
) -> bool:
    """Equality of ideals through their unique reduced bases."""
    if A.ring != B.ring:
        raise FieldPolyError("ideals from different rings")
    return reduced_gb(A, order, budget).elements == reduced_gb(B, order, budget).elements
