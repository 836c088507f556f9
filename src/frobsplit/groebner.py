"""Buchberger engine: reduced Groebner bases, normal forms, initial ideals.

The public operations work on :class:`~frobsplit.field_poly.Polynomial`
values; internally polynomials are flattened to lists of ``(nkey, exponents,
coefficient)`` triples sorted ascending, where ``nkey`` is the order's
``sort_key``, its negated additive key vector: the leading term comes first,
and a shifted term's key is a sum.  Division keeps the active terms in a
dict plus a lazy min-heap of keys, so each reduction step costs one heap pop
plus one shifted merge of the reducer tail.  An S-pair is the first step of
its own reduction: the shifted tail of one element seeds the heap and the
other element is subtracted from it like any reducer.

Pairs are filtered when they are created, by the installation of Gebauer
and Moeller: each new element drops the queued pairs it makes redundant
(criterion B), keeps one new pair per minimal lcm and none whose leading
monomials are coprime (criteria M and F), and retires every element whose
leading monomial it divides.  Every pair that survives to be popped is
reduced; pairs are popped by the sugar strategy of Giovini, Mora, Niesi,
Robbiano and Traverso (minimal sugar, then lcm degree, then lcm key): an
input's sugar is its total degree, a pair's is the larger of its two halves'
sugar shifted to the lcm, and a new element keeps the sugar of its pair, so
an inhomogeneous input (such as an elimination's ``t*f`` and ``(1-t)*g``)
is worked through as if it were homogenized.  An elimination may also mark
inputs that already form a Groebner basis (times one common factor); the
pairs inside such a block have a standard representation and are never
queued (see docs/notes.md, "Known bases in an elimination").  The output is
the unique reduced Groebner basis, so the result is independent of the
selection strategy; a private hook lets tests randomize selection to check
exactly that.  An ideal generated by single terms forms no pairs: its
minimal generators, made monic, are its reduced basis, and :func:`member`
decides membership in it by divisibility, term by term, without that basis.

A run raises ExponentOverflowError when a new element's leading monomial
passes ``MAX_EXPONENT``, the cap of the polynomials it works on.

Every popped pair is charged to the active :class:`Budget`.  Inside
``with Budget(n):`` all runs in the block draw from one count, so a chain of
runs (a colon per generator, a saturation, a certificate and its replay) is
bounded as a whole; a run outside any block gets a fresh ``Budget()``.
"""

from __future__ import annotations

import heapq
from contextvars import ContextVar
from dataclasses import dataclass, field
from operator import add, neg, sub

from .field_poly import (
    FieldPolyError,
    Monomial,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
    _check_growth,
    _divides,
    _lcm,
    _same_ring,
)

DEFAULT_MAX_PAIRS = 10**6


class ResourceLimitError(RuntimeError):
    """The configured pair budget was exhausted (not a math failure).

    ``pairs_processed`` is the count of S-pairs charged to the active
    :class:`Budget` when it ran out: the total over every run in the block,
    not the pairs of the one run that failed.
    """

    def __init__(self, message: str, pairs_processed: int):
        super().__init__(message)
        self.pairs_processed = pairs_processed


@dataclass(eq=False)
class Budget:
    """A cap on the S-pairs Buchberger runs may reduce, and the count so far.

    As a context manager it is the active budget of the block: every run in
    the block charges its popped pairs to ``pairs`` and fails once the total
    exceeds ``max_pairs``.  Only ``max_pairs`` is a constructor argument; a
    budget compares by identity, and may be entered again inside its own block.
    """

    max_pairs: int = DEFAULT_MAX_PAIRS
    pairs: int = field(default=0, init=False)
    _tokens: list = field(default_factory=list, init=False, repr=False)

    def __enter__(self) -> "Budget":
        self._tokens.append(_ACTIVE_BUDGET.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_BUDGET.reset(self._tokens.pop())


_ACTIVE_BUDGET: ContextVar[Budget | None] = ContextVar("frobsplit_budget", default=None)


# -- kernel -------------------------------------------------------------------
# A kernel polynomial is a list of (nkey, exp, coeff) sorted ascending by nkey.


def _to_terms(f: Polynomial, nkey):
    return sorted([(nkey(e), e, c) for e, c in f.terms_dict().items()])


def _from_terms(ring: RingContext, terms) -> Polynomial:
    return Polynomial(ring, {e: c for _, e, c in terms})


def _in_monomial_ideal(exps, gens) -> bool:
    """Whether each exponent tuple in ``exps`` is a multiple of one in ``gens``.

    A polynomial lies in a monomial ideal iff each of its terms does, and a
    term does iff a generator divides it (see docs/notes.md).
    """
    return all(any(_divides(g, e) for g in gens) for e in exps)


def _term_exponents(I) -> list | None:
    """The exponent tuples of the generators of I when each is a single term."""
    exps = []
    for g in I.generators:
        if len(g) != 1:
            return None
        exps += g.terms_dict()
    return exps


def _mask(exps) -> int:
    m = 0
    for i, e in enumerate(exps):
        if e:
            m |= 1 << i
    return m


class _Reducer:
    """A basis element made monic and preprocessed for division."""

    __slots__ = ("lm", "lm_nkey", "mask", "tail")

    def __init__(self, terms, p):
        self.lm_nkey, self.lm, lc = terms[0]
        self.mask = _mask(self.lm)
        self.tail = terms[1:]
        if lc != 1:
            inv = pow(lc, -1, p)
            self.tail = [(k, e, (c * inv) % p) for k, e, c in self.tail]


def _heap(terms):
    """The active terms of a division: exponent -> coefficient, and a min-heap.

    An S-pair's active terms come from :func:`_spair`, its first step instead.
    """
    # sorted ascending, the terms are already in heap order
    return {e: c for _, e, c in terms}, [(k, e) for k, e, _ in terms]


def _spair(ra, rb, p, nkey):
    """The S-polynomial of two reducers, as the active terms of its reduction.

    The tail of ``ra`` shifted to the lcm seeds the heap (a shift keeps it
    sorted); subtracting the shifted ``rb`` is the first reduction step.
    """
    lcm = _lcm(ra.lm, rb.lm)
    nk = nkey(lcm)
    shift = tuple(map(sub, lcm, ra.lm))
    shift_key = tuple(map(sub, nk, ra.lm_nkey))
    coeffs, heap = _heap(
        [(tuple(map(add, k, shift_key)), tuple(map(add, e, shift)), c) for k, e, c in ra.tail]
    )
    _subtract(coeffs, heap, rb, lcm, nk, 1, p)
    return coeffs, heap


def _reduce(coeffs, heap, reducers, p):
    """Full normal form of the active terms against a reducer list.

    The active terms come from :func:`_heap`, or from :func:`_spair`, which
    makes an S-pair the first step of its reduction.  Scans reducers in list
    order for the first whose leading monomial divides the current maximal
    term; terms with no divisor move to the remainder.
    """
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
            remainder.append((nk, e, c))
            continue
        _subtract(coeffs, heap, hit, e, nk, c, p)
    return remainder


def _divide(coeffs, heap, red, p):
    """Exact quotient of the active terms by one reducer, or None.

    The heap pass of :func:`_reduce` with a single reducer: the leading
    monomial of ``red`` must divide every maximal term the pass meets, else
    the division leaves a remainder.  The quotient is by the monic reducer,
    in kernel form.
    """
    quotient = []
    while heap:
        nk, e = heapq.heappop(heap)
        c = coeffs.pop(e, 0)
        if not c:
            continue
        if red.mask & ~_mask(e) or not _divides(red.lm, e):
            return None
        quotient.append(_subtract(coeffs, heap, red, e, nk, c, p))
    return quotient


def _subtract(coeffs, heap, red, e, nk, c, p):
    """Cancel the term ``c * x^e`` (kernel key ``nk``) with a multiple of ``red``.

    Merges the shifted reducer tail into the active terms and returns the
    multiplier ``(nkey, exponents, c)``.
    """
    shift = tuple(map(sub, e, red.lm))
    shift_key = tuple(map(sub, nk, red.lm_nkey))
    for tk, te, tc in red.tail:
        ne = tuple(map(add, te, shift))
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
                heapq.heappush(heap, (tuple(map(add, tk, shift_key)), ne))
    return shift_key, shift, c


def _buchberger(inputs, nkey, p, pair_noise=None, blocks=None):
    """Run Buchberger to completion; returns a fully reduced basis (kernel form).

    Pairs are installed by the Gebauer-Moeller update, so every pair left in
    the queue is reduced when popped, and each is charged to the active
    budget.  Pairs are selected by sugar, then lcm degree, then lcm key.
    ``blocks`` labels the inputs: inputs sharing a label other than None form
    a Groebner basis, times one common factor, so a pair inside a block has a
    standard representation and is treated like a coprime pair: never queued,
    but kept to drop the pairs it covers.  ``pair_noise`` is a test-only hook:
    a callable mapping a pair to an extra leading component of its selection
    key, used to scramble the strategy and exercise the uniqueness of the
    reduced basis.
    """
    budget = _ACTIVE_BUDGET.get() or Budget()
    reducers = []
    # per element: its block label, and its sugar minus the degree of its lm
    labels = []
    spare = []
    active = []
    heap = []

    def install(terms, sugar, label=None):
        """Add one element and update the pair queue and the active set."""
        nonlocal heap, active
        h = len(reducers)
        red = _Reducer(terms, p)
        reducers.append(red)
        labels.append(label)
        lh, mh = red.lm, red.mask
        spare_h = sugar - sum(lh)
        spare.append(spare_h)
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
        # its own; a pair with a known standard representation (coprime
        # leading monomials, or both ends in one block) is never dropped
        # here, so it still removes the pairs it covers, and is itself
        # dropped afterwards
        new = []
        for g in active:
            rg = reducers[g]
            known = not rg.mask & mh or (label is not None and labels[g] == label)
            new.append((_lcm(rg.lm, lh), rg.mask | mh, g, known))
        alive = [True] * len(new)
        for a, (lcm, mask, _, known) in enumerate(new):
            if known:
                continue
            for b, (lcm_b, mask_b, _, _) in enumerate(new):
                if b != a and alive[b] and not mask_b & ~mask and _divides(lcm_b, lcm):
                    alive[a] = False
                    break
        for (lcm, mask, g, known), ok in zip(new, alive):
            if ok and not known:
                degree = sum(lcm)
                # the sugar of S(g, h): the larger sugar of its two halves
                sel = (max(spare[g], spare_h) + degree, degree, tuple(map(neg, nkey(lcm))), g, h)
                if pair_noise is not None:
                    sel = (pair_noise((g, h)),) + sel
                heapq.heappush(heap, (sel, g, h, lcm, mask))
        # an element whose leading monomial lm(h) divides is no longer needed
        # as a reducer or as a partner of later pairs
        active = [
            g for g in active if mh & ~reducers[g].mask or not _divides(lh, reducers[g].lm)
        ]
        active.append(h)

    # an input's sugar is its total degree
    for terms, label in zip(inputs, blocks or [None] * len(inputs)):
        if terms:
            install(terms, max(sum(e) for _, e, _ in terms), label)

    while heap:
        _, i, j, lcm, _ = heapq.heappop(heap)
        budget.pairs += 1
        if budget.pairs > budget.max_pairs:
            raise ResourceLimitError(f"pair budget of {budget.max_pairs} exceeded", budget.pairs)
        r = _reduce(*_spair(reducers[i], reducers[j], p, nkey), [reducers[g] for g in active], p)
        if r:
            # the cap holds for every new leading monomial, one check per
            # element; tail terms are not checked, as an elimination may
            # carry them past the cap and drop them again
            _check_growth([r[0][1]])
            # a new element inherits the sugar of its pair
            install(r, max(spare[i], spare[j]) + sum(lcm))

    return _autoreduce([reducers[g] for g in active], p)


def _autoreduce(reducers, p):
    """Minimalize and tail-reduce a Groebner basis; sort ascending by lm.

    Takes the basis as reducers and returns monic kernel polynomials.  The
    kept reducers serve every element: a leading monomial divides no smaller
    term, so an element's own reducer never fires on its tail.
    """
    keep = [
        r
        for i, r in enumerate(reducers)
        if not any(
            j != i and not o.mask & ~r.mask and _divides(o.lm, r.lm) and (o.lm != r.lm or j < i)
            for j, o in enumerate(reducers)
        )
    ]
    reduced = [[(r.lm_nkey, r.lm, 1)] + _reduce(*_heap(r.tail), keep, p) for r in keep]
    reduced.sort(key=lambda t: t[0][0], reverse=True)
    return reduced


# -- public types -------------------------------------------------------------


@dataclass(frozen=True)
class ReducedGB:
    """The unique reduced Groebner basis of an ideal for a fixed order.

    Elements are monic, mutually fully reduced, and sorted by leading
    monomial ascending.  Their kernel form, the elements as division
    reducers for this order, is built on first use, once per basis, and
    serves :func:`member` and :meth:`leading_monomials`.
    """

    ring: RingContext
    order: object
    elements: tuple[Polynomial, ...]
    _kernel: list = field(default=None, init=False, compare=False, repr=False)

    def _reducers(self) -> list:
        if self._kernel is None:
            nkey = self.order.sort_key(self.ring.n)
            kernel = [_Reducer(_to_terms(g, nkey), self.ring.p) for g in self.elements]
            object.__setattr__(self, "_kernel", kernel)
        return self._kernel

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(self.ring, r.lm) for r in self._reducers())

    def presentation(self) -> "IdealPresentation":
        """The ideal generated by these elements, with this basis pre-cached."""
        pres = IdealPresentation(self.ring, self.elements)
        pres._gb_cache[self.order] = self
        return pres

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
        # a proper divisor precedes its multiples in lexicographic order, so
        # scanning in that order, a tuple is minimal iff no kept one divides it
        minimal = []
        for e in sorted(set(m.exponents for m in self.generators)):
            if not any(_divides(f, e) for f in minimal):
                minimal.append(e)
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
        _same_ring(self.ring, m.ring)
        return any(_divides(g.exponents, m.exponents) for g in self.generators)

    def contains_polynomial(self, f: Polynomial) -> bool:
        """True iff every term of f lies in the ideal."""
        _same_ring(self.ring, f.ring)
        return _in_monomial_ideal(f.terms_dict(), [g.exponents for g in self.generators])

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


def normal_form(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of multivariate division of f by the listed polynomials."""
    basis = list(basis)
    for g in basis:
        if not g:
            raise ZeroPolynomialError("cannot divide by the zero polynomial")
        _same_ring(f.ring, g.ring)
    if not f:
        return f
    p = f.ring.p
    nkey = order.sort_key(f.ring.n)
    reducers = [_Reducer(_to_terms(g, nkey), p) for g in basis]
    r = _reduce(*_heap(_to_terms(f, nkey)), reducers, p)
    return _from_terms(f.ring, r)


def reduced_gb(I: IdealPresentation, order, *, _pair_noise=None, _blocks=None) -> ReducedGB:
    """Unique reduced Groebner basis of the ideal; cached per order.

    ``_blocks`` is private to the elimination in ``ideal_ops``: labels
    parallel to the generators, where generators sharing a label other than
    None are a Groebner basis times one common factor (see ``_buchberger``).
    """
    cached = I._gb_cache.get(order)
    if cached is not None and _pair_noise is None:
        return cached
    p = I.ring.p
    nkey = order.sort_key(I.ring.n)
    inputs = [_to_terms(g, nkey) for g in I.generators]
    if all(len(t) == 1 for t in inputs):
        # a monomial ideal's minimal generators are its reduced basis
        basis = _autoreduce([_Reducer(t, p) for t in inputs], p)
    else:
        basis = _buchberger(inputs, nkey, p, pair_noise=_pair_noise, blocks=_blocks)
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
    nkey = order.sort_key(ring.n)
    reducers = [_Reducer(_to_terms(g, nkey), ring.p) for g in elements if g]
    basis = _autoreduce(reducers, ring.p)
    return ReducedGB(ring, order, tuple(_from_terms(ring, t) for t in basis)).presentation()


def _quotient(g: Polynomial, f: Polynomial, order) -> Polynomial | None:
    """g / f when the nonzero f divides g, else None."""
    _same_ring(f.ring, g.ring)
    p = g.ring.p
    nkey = order.sort_key(g.ring.n)
    f_terms = _to_terms(f, nkey)
    q = _divide(*_heap(_to_terms(g, nkey)), _Reducer(f_terms, p), p)
    if q is None:
        return None
    # the kernel divided by the monic f / lc(f)
    inv = pow(f_terms[0][2], -1, p)
    return Polynomial(g.ring, {e: (c * inv) % p for _, e, c in q})


def initial_ideal(I: IdealPresentation, order) -> MonomialIdeal:
    """Monomial ideal of leading monomials, with its minimal generating set."""
    gb = reduced_gb(I, order)
    return MonomialIdeal(I.ring, tuple(gb.leading_monomials()))


def member(f: Polynomial, I: IdealPresentation, order) -> bool:
    """Whether f lies in I.

    By divisibility, term by term, when every generator of I is a single
    term; otherwise by division by the kernel form of the reduced basis.
    """
    _same_ring(f.ring, I.ring)
    if not f:
        return True
    monomials = _term_exponents(I)
    if monomials is not None:
        return _in_monomial_ideal(f.terms_dict(), monomials)
    reducers = reduced_gb(I, order)._reducers()
    return not _reduce(*_heap(_to_terms(f, order.sort_key(f.ring.n))), reducers, f.ring.p)


def ideals_equal(A: IdealPresentation, B: IdealPresentation, order) -> bool:
    """Equality of ideals through their unique reduced bases."""
    _same_ring(A.ring, B.ring)
    return reduced_gb(A, order).elements == reduced_gb(B, order).elements
