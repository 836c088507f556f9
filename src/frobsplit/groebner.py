"""Buchberger engine: reduced Groebner bases, normal forms, initial ideals.

The public operations work on :class:`~frobsplit.field_poly.Polynomial`
values; internally a polynomial is a list of ``(x, coefficient)`` pairs
sorted ascending, where ``x`` is its packed monomial (Monagan and Pearce):
one integer holding the order's additive ``sort_key`` vector in biased
fields, above one field per exponent whose top bit is a guard bit.  Integer
order is the order's ``sort_key`` order, so the leading term comes first; a
shift is one addition; and a leading monomial divides a term iff
subtracting it from the term with every guard bit set clears none of them.
Exponents are unpacked only at the boundary: results, leading monomials,
the cap check on each new element, and the lcm of each queued pair (see
docs/notes.md, "Packed monomials").  Division keeps the active terms in a
dict plus a lazy min-heap of packed monomials, so each reduction step costs
one heap pop plus one shifted merge of the reducer tail.  An S-pair is the
first step of its own reduction: the shifted tail of one element seeds the
heap and the other element is subtracted from it like any reducer.

Each kernel run chooses its exponent-field width from its inputs: 16 bits
when every input's total degree is below ``2^15``, else 64, which holds
every exponent within ``MAX_EXPONENT``.  Every term a run forms fits its
field, at worst with the guard bit set, and each term is tested when it
leaves the heap.  A set guard bit at 16 bits restarts the run once, from its
inputs, at 64 bits, and the pairs it popped are not charged twice; at 64
bits it is an exponent of at least ``2^63`` and raises
ExponentOverflowError (see docs/notes.md, "Field width").  A basis made by
a run keeps that run's kernel form.

Pairs are filtered when they are created, by the installation of Gebauer
and Moeller, on the exponent words of leading monomials: the lcm of two is
one borrow-mask select and they are coprime iff it is their sum.  Each new
element drops the queued pairs it makes redundant (criterion B), keeps one
new pair per minimal lcm and none whose leading monomials are coprime
(criteria M and F; scanned by ascending lcm word, which refines
divisibility, each is tested only against the minimal lcms kept so far),
and retires every element whose leading monomial it divides.  Every pair
that survives to be popped is reduced; pairs are popped by the sugar
strategy of Giovini, Mora, Niesi, Robbiano and Traverso (minimal sugar,
then lcm degree, then lcm key): an input's sugar is its total degree, a
pair's is the larger of its two halves' sugar shifted to the lcm, and a new
element keeps the sugar of its pair, so an inhomogeneous input (such as an
elimination's ``t*f`` and ``(1-t)*g``) is worked through as if it were
homogenized.  An elimination may also mark
inputs that already form a Groebner basis (times one common factor); the
pairs inside such a block have a standard representation and are never
queued (see docs/notes.md, "Known bases in an elimination"), and it
minimalizes and tail-reduces only the elements free of ``t``.  The output
is the unique reduced Groebner basis, so the result is independent of the
selection strategy; a private hook lets tests randomize selection to check
exactly that.  An ideal generated by single terms forms no pairs: its
minimal generators, made monic, are its reduced basis, and :func:`member`
decides membership in it by divisibility, term by term, without that basis.
Nor does a principal ideal: its generator, made monic, is its basis.

A run raises ExponentOverflowError when a new element's leading monomial
passes ``MAX_EXPONENT``, the cap of the polynomials it works on; and
:func:`reduced_gb`, :func:`normal_form` and :func:`presentation_from_gb` do
when an element of their result does.  An elimination drops the elements
containing ``t`` unreduced, unchecked, and leaves the check of the rest to
its caller.

Every popped pair is charged to the active :class:`Budget`.  Inside
``with Budget(n):`` all runs in the block draw from one count, so a chain of
runs (a colon per generator, a saturation, a certificate and its replay) is
bounded as a whole; a run outside any block gets a fresh ``Budget()``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache
from struct import Struct

from .field_poly import (
    EliminationOrder,
    FieldPolyError,
    Monomial,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
    _check_growth,
    _divides,
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
# A kernel polynomial is a list of (x, coeff) sorted ascending by x, where x is
# the packed monomial of a _Packing: the leading term comes first.

# bits per exponent field a run starts from when every input's total degree is
# below 2^(_WIDTH - 1); otherwise, and on the one restart, fields are 64 bits
# wide, which hold every exponent within MAX_EXPONENT below the guard bit.
# Narrow fields make every heap compare, dict hash and shift cheaper: certify
# takes about 14% less CPU than at 64 bits; see docs/notes.md, "Field width"
_WIDTH = 16


class _Widen(Exception):
    """A term of a run set a guard bit of narrow fields; the run restarts at 64 bits."""


class _Packing:
    """The monomials of one order on n variables as integers, ``width`` bits per exponent.

    ``pack(e)`` is ``zero + sum(e_i * units[i])``.  At the top it holds the
    order's ``sort_key`` vector, most significant component first, one biased
    field per component; below, one ``width``-bit field per exponent, whose
    top bit (in ``guards``) is clear while the exponent is below
    ``2^(width - 1)``.  So integers sort like the order's ``sort_key``, a
    product is a sum less ``zero``, and a shift is one addition (see
    docs/notes.md, "Packed monomials").
    """

    __slots__ = ("width", "zero", "units", "guards", "low", "unpack", "pack", "lcm", "divides")

    def __init__(self, order, n, width):
        sort_key = order.sort_key(n)
        unit_keys = [sort_key(tuple(int(i == j) for j in range(n))) for i in range(n)]
        self.width = width
        offsets = range(0, n * width, width)
        self.guards = sum(1 << (s + width - 1) for s in offsets)
        self.units = [1 << s for s in offsets]
        self.zero = 0
        shift = n * width
        for column in reversed(list(zip(*unit_keys))):
            # |component| < bound * 2^width while every exponent field holds
            bound = sum(map(abs, column))
            self.zero += bound << (shift + width)
            self.units = [u + (k << shift) for u, k in zip(self.units, column)]
            shift += width + 1 + bound.bit_length()
        # ``unpack(x)`` reads the exponent fields back with one struct of
        # unsigned 16- or 64-bit integers off the low bytes of x
        nbytes = (shift + 7) // 8
        fields = Struct(f"<{n}{'H' if width == 16 else 'Q'}{nbytes - n * width // 8}x")
        self.unpack = lambda x: fields.unpack(x.to_bytes(nbytes, "little"))
        # ``pack(e)`` written out for the n variables, as a lambda of integer
        # literals: about twice as fast as summing a map of products
        body = "".join(f" + e[{i}] * {u}" for i, u in enumerate(self.units))
        self.pack = eval(f"lambda e: {self.zero}{body}")
        # on exponent words ``x & low``: the lcm takes, field by field, a where
        # (a | G) - b keeps the guard bit (a_i >= b_i), else b; a | b iff no
        # field of (b | G) - a borrows from its guard bit
        guards, top, fill = self.guards, width - 1, (1 << width) - 1
        self.low = (1 << n * width) - 1
        self.lcm = lambda a, b: b ^ ((a ^ b) & ((((a | guards) - b) & guards) >> top) * fill)
        self.divides = lambda a, b: ((b | guards) - a) & guards == guards


@lru_cache(maxsize=64)
def _packing(order, n, width) -> _Packing:
    return _Packing(order, n, width)


def _fitted(degree, run):
    """``run(width)``: at ``_WIDTH`` bits when ``degree`` is below that field's guard bit, else at 64.

    ``degree`` bounds every exponent of the run's inputs.  A run that sets a
    guard bit of the narrow fields raises :class:`_Widen` and runs once more,
    from its inputs, at 64 bits.
    """
    if degree >> (_WIDTH - 1) == 0:
        try:
            return run(_WIDTH)
        except _Widen:
            pass
    return run(64)


def _past_fields(x, packing):
    """A term with a set guard bit left the heap: restart at 64 bits, or raise the cap error there."""
    if packing.width < 64:
        raise _Widen
    # a set guard bit of a 64-bit field is an exponent of at least 2^63
    _check_growth([packing.unpack(x)])


def _max_degree(polys) -> int:
    """The largest total degree among the nonzero polynomials, which bounds every exponent; 0 when none."""
    return max((max(map(sum, g._coeffs)) for g in polys if g), default=0)


def _to_terms(f: Polynomial, packing):
    """f in kernel form; the caller's packing has every exponent of f below its guard bits."""
    coeffs = f._coeffs
    return sorted(zip(map(packing.pack, coeffs), coeffs.values()))


def _check_cap(elements) -> None:
    """Raise ExponentOverflowError when an exponent of one of the polynomials passes MAX_EXPONENT."""
    for g in elements:
        _check_growth(g._coeffs)


def _from_terms(ring: RingContext, terms, packing) -> Polynomial:
    unpack = packing.unpack
    return Polynomial(ring, {unpack(x): c for x, c in terms})


def _in_monomial_ideal(exps, gens) -> bool:
    """Whether each exponent tuple in ``exps`` is a multiple of one in ``gens``.

    A polynomial lies in a monomial ideal iff each of its terms does, and a
    term does iff a generator divides it (see docs/notes.md).
    """
    return all(any(_divides(g, e) for g in gens) for e in exps)


def _term_exponents(polys) -> list | None:
    """The exponent tuples of the polynomials when each is a single term."""
    exps = []
    for g in polys:
        if len(g) != 1:
            return None
        exps += g._coeffs
    return exps


def _minimal(exps) -> list:
    """The minimal exponent tuples among ``exps``, in lexicographic order.

    A proper divisor precedes its multiples in lexicographic order, so
    scanning in that order, a tuple is minimal iff no kept one divides it.
    """
    minimal = []
    for e in sorted(set(exps)):
        if not any(_divides(f, e) for f in minimal):
            minimal.append(e)
    return minimal


def _monomial_basis(ring: RingContext, exps, order) -> tuple:
    """The reduced basis of the monomial ideal on ``exps``: its minimal generators, monic, ascending."""
    minimal = sorted(_minimal(exps), key=order.sort_key(ring.n), reverse=True)
    return tuple(Polynomial(ring, {e: 1}) for e in minimal)


def _reducer(terms, p) -> tuple:
    """A basis element made monic, as its packed leading monomial and its tail."""
    (x, lc), tail = terms[0], terms[1:]
    if lc != 1:
        inv = pow(lc, -1, p)
        tail = [(t, (c * inv) % p) for t, c in tail]
    return x, tail


def _heap(terms):
    """The active terms of a division: packed monomial -> coefficient, and a min-heap.

    An S-pair's active terms come from :func:`_spair`, its first step instead.
    """
    # sorted ascending, the terms are already in heap order
    return dict(terms), [x for x, _ in terms]


def _spair(ra, rb, lcm, p):
    """The S-polynomial of two reducers, as the active terms of its reduction.

    ``lcm`` is the packed lcm of their leading monomials.  The tail of ``ra``
    shifted to it seeds the heap (a shift keeps it sorted); subtracting the
    shifted ``rb`` is the first reduction step.
    """
    (xa, tail_a), (xb, tail_b) = ra, rb
    shift = lcm - xa
    heap = [x + shift for x, _ in tail_a]
    coeffs = dict(zip(heap, [c for _, c in tail_a]))
    _subtract(coeffs, heap, tail_b, lcm - xb, p - 1, p)
    return coeffs, heap


def _reduce(coeffs, heap, reducers, p, packing):
    """Full normal form of the active terms against a reducer list.

    The active terms come from :func:`_heap`, or from :func:`_spair`, which
    makes an S-pair the first step of its reduction.  Scans reducers in list
    order for the first whose leading monomial divides the current maximal
    term; terms with no divisor move to the remainder.  A term that sets a
    guard bit raises :class:`_Widen` at narrow fields and
    ExponentOverflowError at 64 bits.
    """
    guards = packing.guards
    remainder = []
    while heap:
        x = heappop(heap)
        c = coeffs.pop(x, 0)
        if not c:
            continue
        if x & guards:
            _past_fields(x, packing)
        # lm | x iff no field of (x | guards) - lm borrows from its guard bit
        xg = x | guards
        for lm, tail in reducers:
            if (xg - lm) & guards == guards:
                _subtract(coeffs, heap, tail, x - lm, p - c, p)
                break
        else:
            remainder.append((x, c))
    return remainder


def _divide(coeffs, heap, red, p, packing):
    """Exact quotient of the active terms by one reducer, or None.

    The heap pass of :func:`_reduce` with a single reducer: the leading
    monomial of ``red`` must divide every maximal term the pass meets, else
    the division leaves a remainder.  The quotient is by the monic reducer,
    as ``(shift, coefficient)`` pairs, each shift a packed monomial less
    ``zero``.
    """
    guards = packing.guards
    quotient = []
    lm, tail = red
    while heap:
        x = heappop(heap)
        c = coeffs.pop(x, 0)
        if not c:
            continue
        if x & guards:
            _past_fields(x, packing)
        if ((x | guards) - lm) & guards != guards:
            return None
        _subtract(coeffs, heap, tail, x - lm, p - c, p)
        quotient.append((x - lm, c))
    return quotient


def _subtract(coeffs, heap, tail, shift, m, p):
    """Add ``m`` times the reducer tail ``tail``, shifted by ``shift``, to the active terms.

    With ``m = -c``, this cancels the term ``c * x`` against the reducer whose
    leading monomial is ``x`` less ``shift``.
    """
    for tx, tc in tail:
        nx = tx + shift
        v = coeffs.get(nx)
        if v is None:
            # m and tc are nonzero mod the prime p, so their product is too
            coeffs[nx] = m * tc % p
            heappush(heap, nx)
        else:
            v = (v + m * tc) % p
            if v:
                coeffs[nx] = v
            else:
                del coeffs[nx]


def _minimal_lcm_pairs(new, guards) -> list:
    """The new pairs that criteria M and F queue, as ``(lcm word, g)``.

    ``new`` lists each new pair ``(g, h)`` as ``(w, g, known)`` in active
    order: ``w`` its lcm word, ``known`` whether it has a known standard
    representation.  A pair is queued iff no new pair's lcm properly divides
    its own, no pair with its lcm is known, and it is the last with that lcm.
    A proper divisor has a smaller word (docs/notes.md, "Pair criteria on
    exponent words"), so scanning by ascending word, an lcm needs testing
    only against the minimal ones kept so far.
    """
    queued = []
    minimal = []
    known = False
    new = sorted(new)
    for k, (w, g, known_g) in enumerate(new, 1):
        known = known or known_g
        if k < len(new) and new[k][0] == w:
            continue  # a later pair has this lcm
        wg = w | guards
        for m in minimal:
            if (wg - m) & guards == guards:
                break
        else:
            minimal.append(w)
            if not known:
                queued.append((w, g))
        known = False
    return queued


def _buchberger(inputs, sugars, packing, p, budget, pair_noise=None, blocks=None):
    """Run Buchberger to completion; returns a Groebner basis as reducers, not reduced.

    ``sugars`` are the inputs' total degrees.  Pairs are installed by the
    Gebauer-Moeller update, so every pair left in the queue is reduced when
    popped, and each is charged to ``budget``.  Pairs are selected by sugar,
    then lcm degree, then lcm in the order.  ``blocks`` labels the inputs:
    inputs sharing a label other than None form a Groebner basis, times one
    common factor, so a pair inside a block has a standard representation and
    is treated like a coprime pair: never queued, but kept to drop the pairs
    it covers.  ``pair_noise`` is a test-only hook: a callable mapping a pair
    to an extra leading component of its selection key, used to scramble the
    strategy and exercise the uniqueness of the reduced basis.
    """
    pack, unpack, guards, low, lcm = packing.pack, packing.unpack, packing.guards, packing.low, packing.lcm
    reducers = []
    # per element: the exponent word of its leading monomial, its block
    # label, and its sugar minus the degree of its leading monomial
    words = []
    labels = []
    spare = []
    active = []
    heap = []

    def install(red, spare_h, label=None):
        """Add one element and update the pair queue and the active set."""
        nonlocal heap, active
        h = len(reducers)
        wh = red[0] & low
        reducers.append(red)
        words.append(wh)
        labels.append(label)
        spare.append(spare_h)
        # criterion B: drop a queued (i, j) when lm(h) divides lcm(i, j) and both
        # lcm(i, h) and lcm(j, h) properly divide it (packing.divides, written out)
        kept = []
        for pair in heap:
            _, i, j, w, _, _ = pair
            if ((w | guards) - wh) & guards != guards or lcm(words[i], wh) == w or lcm(words[j], wh) == w:
                kept.append(pair)
        if len(kept) < len(heap):
            heap = kept
            heapify(heap)
        # criteria M and F on the new pairs (g, h); a pair with a known
        # standard representation has coprime leading monomials (lcm =
        # product) or both ends in one block
        new = []
        for g in active:
            w = lcm(words[g], wh)
            new.append((w, g, w == words[g] + wh or (label is not None and labels[g] == label)))
        for w, g in _minimal_lcm_pairs(new, guards):
            e = unpack(w)
            degree = sum(e)
            x = pack(e)
            # the sugar of S(g, h): the larger sugar of its two halves;
            # a larger packed lcm is a smaller one in the order
            sugar = max(spare[g], spare_h) + degree
            sel = (sugar, degree, -x, g, h)
            if pair_noise is not None:
                sel = (pair_noise((g, h)),) + sel
            heappush(heap, (sel, g, h, w, x, sugar))
        # an element whose leading monomial lm(h) divides is no longer needed
        # as a reducer or as a partner of later pairs
        active = [g for g in active if ((words[g] | guards) - wh) & guards != guards]
        active.append(h)

    for terms, sugar, label in zip(inputs, sugars, blocks or [None] * len(inputs)):
        if terms:
            red = _reducer(terms, p)
            install(red, sugar - sum(unpack(red[0])), label)

    while heap:
        _, i, j, _, x, sugar = heappop(heap)
        budget.pairs += 1
        if budget.pairs > budget.max_pairs:
            raise ResourceLimitError(f"pair budget of {budget.max_pairs} exceeded", budget.pairs)
        r = _reduce(*_spair(reducers[i], reducers[j], x, p), [reducers[g] for g in active], p, packing)
        if r:
            lm = unpack(r[0][0])
            # the cap holds for every new leading monomial, one check per
            # element; tail terms are not checked, as an elimination may
            # carry them past the cap and drop them again
            _check_growth([lm])
            # a new element inherits the sugar of its pair
            install(_reducer(r, p), sugar - sum(lm))

    return [reducers[g] for g in active]


def _autoreduce(reducers, p, packing):
    """Minimalize and tail-reduce a Groebner basis given as reducers.

    Returns monic reducers sorted ascending by leading monomial.  Leading
    monomials are compared as exponent words.  The kept reducers serve every
    element: a leading monomial divides no smaller term, so an element's own
    reducer never fires on its tail.
    """
    divides = packing.divides
    words = [x & packing.low for x, _ in reducers]
    keep = [
        r
        for i, (r, w) in enumerate(zip(reducers, words))
        if not any(j != i and divides(o, w) and (o != w or j < i) for j, o in enumerate(words))
    ]
    reduced = [(x, _reduce(*_heap(tail), keep, p, packing)) for x, tail in keep]
    reduced.sort(key=lambda r: r[0], reverse=True)
    return reduced


def _from_reducers(ring: RingContext, reducers, packing) -> tuple:
    """Monic polynomials from their reducers."""
    return tuple(_from_terms(ring, [(x, 1), *tail], packing) for x, tail in reducers)


def _completion(gens, order, p, pair_noise=None, blocks=None, eliminate=False):
    """The packing and the reduced basis, as reducers, of the ideal of ``gens``.

    With ``eliminate``, the run is under an elimination order for the last
    variable ``t``, and the elements whose leading monomial contains ``t``
    are dropped before the rest is reduced: a ``t``-free monomial is
    divisible only by ``t``-free ones, so they need no other reducer (see
    docs/notes.md, "Colon and intersection bases").
    """
    n = gens[0].ring.n
    sugars = [g.degree() for g in gens]
    budget = _ACTIVE_BUDGET.get() or Budget()
    start = budget.pairs

    def run(width):
        # a run restarted at 64 bits charges its pairs once
        budget.pairs = start
        packing = _packing(order, n, width)
        inputs = [_to_terms(g, packing) for g in gens]
        basis = _buchberger(inputs, sugars, packing, p, budget, pair_noise, blocks)
        if eliminate:
            t = packing.low ^ (packing.low >> width)
            basis = [r for r in basis if not r[0] & t]
        return packing, _autoreduce(basis, p, packing)

    return _fitted(max(sugars), run)


def _pairless_basis(ring: RingContext, elements, order) -> tuple | None:
    """The reduced basis of the ideal of ``elements`` when it needs no pair, else None.

    A monomial ideal's minimal generators, or a single element, made monic
    (a leading monomial divides no smaller term).
    """
    monomials = _term_exponents(elements)
    if monomials is not None:
        return _monomial_basis(ring, monomials, order)
    if len(elements) == 1:
        g = elements[0]
        return (g.scale(pow(g.leading_coefficient(order), -1, ring.p)),)
    return None


# -- public types -------------------------------------------------------------


@dataclass(frozen=True)
class ReducedGB:
    """The unique reduced Groebner basis of an ideal for a fixed order.

    Elements are monic, mutually fully reduced, and sorted by leading
    monomial ascending.  Their kernel form, the packing and the elements as
    division reducers for this order, is kept from the run that made the
    basis, or mapped from that of the basis it is a bracket power of, or
    else built on first use; it serves :func:`member` and
    :meth:`leading_monomials`.  A narrow form is rebuilt at 64 bits, once,
    when a division by it needs them.
    """

    ring: RingContext
    order: object
    elements: tuple[Polynomial, ...]
    _kernel: tuple = field(default=None, compare=False, repr=False)

    def _reducers(self, width) -> tuple:
        """The packing and the kernel form, at least ``width`` bits wide: kept, or built and kept."""
        kernel = self._kernel
        if kernel is None or kernel[0].width < width:
            if _max_degree(self.elements) >> (width - 1):
                width = 64
            packing = _packing(self.order, self.ring.n, width)
            kernel = packing, [_reducer(_to_terms(g, packing), self.ring.p) for g in self.elements]
            object.__setattr__(self, "_kernel", kernel)
        return kernel

    def _bracket_kernel(self, q) -> tuple | None:
        """The kernel form of ``G^[q]``, mapped from a kept one whose fields hold it.

        The caller has checked every exponent of ``G^[q]`` against the cap,
        which 64-bit fields hold; narrow ones hold it while ``q*deg(G)``
        stays below their guard bit.
        """
        if self._kernel is None:
            return None  # G^[q] packs on first use
        packing, reducers = self._kernel
        if packing.width < 64 and (q * _max_degree(self.elements)) >> (packing.width - 1):
            return None
        # packing is linear: X(q*e) = X(0) + q*(X(e) - X(0))
        base = (1 - q) * packing.zero
        return packing, [(base + q * x, [(base + q * y, c) for y, c in tail]) for x, tail in reducers]

    def leading_monomials(self) -> tuple[Monomial, ...]:
        packing, reducers = self._reducers(_WIDTH)
        return tuple(Monomial(self.ring, packing.unpack(x)) for x, _ in reducers)

    def presentation(self) -> "IdealPresentation":
        """The ideal generated by these elements, with this basis pre-cached."""
        pres = IdealPresentation(self.ring, self.elements)
        pres._store_gb(self)
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
        minimal = _minimal(m.exponents for m in self.generators)
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

    def _cached_gb(self, order) -> ReducedGB | None:
        """The cached reduced basis for ``order``, if any."""
        return self._gb_cache.get(order)

    def _store_gb(self, gb: ReducedGB) -> None:
        """Cache ``gb`` for its order, unless a basis is cached for it already."""
        self._gb_cache.setdefault(gb.order, gb)

    def _cached_gbs(self) -> list[ReducedGB]:
        """Every cached reduced basis, one per order."""
        return list(self._gb_cache.values())


def ideal(ring: RingContext, generators) -> IdealPresentation:
    return IdealPresentation(ring, tuple(generators))


# -- public operations ---------------------------------------------------------


def normal_form(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of multivariate division of f by the listed polynomials.

    Raises ExponentOverflowError when the remainder passes ``MAX_EXPONENT``.
    """
    basis = list(basis)
    for g in basis:
        if not g:
            raise ZeroPolynomialError("cannot divide by the zero polynomial")
        _same_ring(f.ring, g.ring)
    if not f:
        return f
    p = f.ring.p

    def run(width):
        packing = _packing(order, f.ring.n, width)
        reducers = [_reducer(_to_terms(g, packing), p) for g in basis]
        return _from_terms(f.ring, _reduce(*_heap(_to_terms(f, packing)), reducers, p, packing), packing)

    r = _fitted(_max_degree([f, *basis]), run)
    _check_cap([r])
    return r


def reduced_gb(I: IdealPresentation, order, *, _pair_noise=None) -> ReducedGB:
    """Unique reduced Groebner basis of the ideal; cached per order.

    Raises ExponentOverflowError when an element passes ``MAX_EXPONENT``.
    """
    cached = I._cached_gb(order)
    if cached is not None and _pair_noise is None:
        return cached
    ring = I.ring
    elements = _pairless_basis(ring, I.generators, order)
    kernel = None
    if elements is None:
        kernel = _completion(I.generators, order, ring.p, _pair_noise)
        elements = _from_reducers(ring, kernel[1], kernel[0])
    _check_cap(elements)
    gb = ReducedGB(ring, order, elements, kernel)
    if _pair_noise is None:
        I._store_gb(gb)
    return gb


def _eliminate(gens, blocks, order) -> tuple[Polynomial, ...]:
    """The reduced basis of ``(gens) ∩ S`` for ``order``, for ``gens`` in ``S[t]``.

    ``t`` is the last variable of the ring of ``gens`` and ``S`` its base
    ring; ``blocks`` labels the inputs as in :func:`_buchberger`.  Elements
    containing ``t`` are dropped unreduced; no element is checked against
    the cap.
    """
    ring = gens[0].ring.base
    packing, basis = _completion(gens, EliminationOrder(order), ring.p, blocks=blocks, eliminate=True)
    unpack = packing.unpack
    return tuple(Polynomial(ring, {unpack(x)[:-1]: c for x, c in [(x, 1), *tail]}) for x, tail in basis)


def presentation_from_gb(ring: RingContext, elements, order) -> IdealPresentation:
    """Wrap polynomials already known to form a Groebner basis.

    Minimalizes and tail-reduces without pair processing (sound because the
    input is a basis), then caches the reduced result.  Callers are
    responsible for the basis property; the test suite re-checks it on
    fixtures via the S-pair criterion.  Raises ExponentOverflowError when
    an element of the result passes ``MAX_EXPONENT``.
    """
    elements = [g for g in elements if g]
    basis = _pairless_basis(ring, elements, order)
    if basis is None:

        def run(width):
            packing = _packing(order, ring.n, width)
            reducers = [_reducer(_to_terms(g, packing), ring.p) for g in elements]
            return _from_reducers(ring, _autoreduce(reducers, ring.p, packing), packing)

        basis = _fitted(_max_degree(elements), run)
    _check_cap(basis)
    return ReducedGB(ring, order, basis).presentation()


def _quotient(g: Polynomial, f: Polynomial, order) -> Polynomial | None:
    """g / f when the nonzero f divides g, else None."""
    _same_ring(f.ring, g.ring)
    p = g.ring.p

    def run(width):
        packing = _packing(order, g.ring.n, width)
        f_terms = _to_terms(f, packing)
        q = _divide(*_heap(_to_terms(g, packing)), _reducer(f_terms, p), p, packing)
        if q is None:
            return None
        # the kernel divided by the monic f / lc(f)
        inv = pow(f_terms[0][1], -1, p)
        return _from_terms(g.ring, [(s + packing.zero, (c * inv) % p) for s, c in q], packing)

    return _fitted(_max_degree([f, g]), run)


def initial_ideal(I: IdealPresentation, order) -> MonomialIdeal:
    """Monomial ideal of leading monomials, with its minimal generating set."""
    gb = reduced_gb(I, order)
    return MonomialIdeal(I.ring, tuple(gb.leading_monomials()))


def member(f: Polynomial, I: IdealPresentation, order) -> bool:
    """Whether f lies in I.

    By divisibility, term by term, when every generator of I is a single
    term; otherwise by division by the kernel form of the reduced basis,
    rebuilt at 64 bits when ``f`` or the division needs them.
    """
    _same_ring(f.ring, I.ring)
    if not f:
        return True
    monomials = _term_exponents(I.generators)
    if monomials is not None:
        return _in_monomial_ideal(f.terms_dict(), monomials)
    G = reduced_gb(I, order)

    def run(width):
        packing, reducers = G._reducers(width)
        return not _reduce(*_heap(_to_terms(f, packing)), reducers, f.ring.p, packing)

    return _fitted(max(map(sum, f._coeffs)), run)


def ideals_equal(A: IdealPresentation, B: IdealPresentation, order) -> bool:
    """Equality of ideals through their unique reduced bases."""
    _same_ring(A.ring, B.ring)
    return reduced_gb(A, order).elements == reduced_gb(B, order).elements
