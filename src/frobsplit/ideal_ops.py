"""Ideal-level algebra on top of the Buchberger engine.

Ideals generated by single terms stay out of the kernel: ``A ∩ B`` of two
monomial ideals is generated by the pairwise lcms of their generators, and
``I : m`` for a monomial ideal and a term m by ``a / gcd(a, m)`` over the
generators a of I.  ``(1) ∩ B`` is ``B``.  Other intersections are computed
by eliminating an auxiliary variable from ``t*A + (1-t)*B``; the auxiliary
variable is appended internally and never appears in results, and the
``t``-free part of the reduced elimination basis is kept as the reduced
basis of ``A ∩ B``.  An input that caches its reduced basis enters as that
basis, and the kernel forms no pair inside it.  Intersections of several
ideals go pairwise in a balanced tree.  Colons divide the generators of
``I ∩ (f)`` exactly by ``f``; that quotient set is again a Groebner basis,
so colon and intersection results come back with their reduced basis
pre-cached, each element checked against ``MAX_EXPONENT``; the ``I ∩ (f)``
inside a colon is not checked, as only its quotients leave.  A principal colon ``(h) : f`` with ``f``
dividing ``h`` is ``(h/f)``, and ``I : f`` with ``f`` in ``I`` is ``(1)``;
both skip the intersection.  A bracket power ``I^[q]`` inherits the reduced
bases cached on ``I``, raised to the ``q``-th power.  Saturation iterates the
colon until the reduced bases agree and records the stabilization exponent
in the result's provenance.

Weight homogenization follows the ideal-level construction: first a Groebner
basis under the weight order (homogenizing raw generators is not enough),
then each basis element is homogenized with a fresh last variable of degree
one.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import sub

from .field_poly import (
    MAX_EXPONENT,
    ExponentOverflowError,
    FieldPolyError,
    Monomial,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
    _accumulate,
    _check_growth,
    _lcm,
    _same_ring,
    _weighted_degree,
    order_for_weight_refinement,
    validate_weights,
)
from .groebner import (
    IdealPresentation,
    MonomialIdeal,
    ReducedGB,
    _check_cap,
    _eliminate,
    _quotient,
    _term_exponents,
    ideals_equal,
    member,
    presentation_from_gb,
    reduced_gb,
)


class WitnessInPrimeError(FieldPolyError):
    """The symbolic-power witness lies inside the prime it must avoid."""


class ImproperIdealError(FieldPolyError):
    """Operation requires a proper ideal."""


# -- ring plumbing -------------------------------------------------------------


def embed(f: Polynomial, ext: RingContext) -> Polynomial:
    """View a base-ring polynomial inside a one-variable extension."""
    return Polynomial(ext, {e + (0,): c for e, c in f.terms_dict().items()})


# -- intersection, colon, saturation -------------------------------------------


def _is_unit(I: IdealPresentation, order) -> bool:
    """Whether I shows that it is (1): a constant generator, or a cached basis (1)."""
    known = I._cached_gb(order)
    if known is not None and len(known) == 1 and known.elements[0].degree() == 0:
        return True
    return any(g.degree() == 0 for g in I.generators)


def _monomials(ring: RingContext, exps, order) -> IdealPresentation:
    """The monomial ideal on the given exponent tuples, with its reduced basis."""
    return presentation_from_gb(ring, [Polynomial(ring, {e: 1}) for e in exps], order)


def intersect(A: IdealPresentation, B: IdealPresentation, order) -> IdealPresentation:
    """The reduced basis of A ∩ B, as generators with the basis cached.

    ``(1) ∩ B = B``; two monomial ideals meet in the pairwise lcms of their
    generators; otherwise an auxiliary variable is eliminated.  Raises
    ExponentOverflowError when an element passes ``MAX_EXPONENT``.
    """
    _same_ring(A.ring, B.ring)
    ring = A.ring
    if A.is_zero or B.is_zero:
        return IdealPresentation(ring, ())
    if _is_unit(A, order):
        return reduced_gb(B, order).presentation()
    if _is_unit(B, order):
        return reduced_gb(A, order).presentation()
    mono_a, mono_b = _term_exponents(A.generators), _term_exponents(B.generators)
    if mono_a is not None and mono_b is not None:
        # (a) ∩ (b) = (lcm(a, b)), summed over the generators
        return _monomials(ring, [_lcm(a, b) for a in mono_a for b in mono_b], order)
    meet = _eliminated_meet(A, B, order)
    _check_cap(meet.generators)
    return meet


def _eliminated_meet(A: IdealPresentation, B: IdealPresentation, order) -> IdealPresentation:
    """A ∩ B by eliminating t from ``t*A + (1-t)*B``; its elements may pass ``MAX_EXPONENT``."""
    ring = A.ring
    ext = ring.extend()
    t = ext.variable(ext.n - 1)
    gens, blocks = [], []
    for label, (X, factor) in enumerate(((A, t), (B, ext.one() - t))):
        # a cached reduced basis G of X stands in for its generators: factor * G
        # is a Groebner basis, so the kernel forms no pair inside it
        known = X._cached_gb(order)
        basis = X.generators if known is None else known.elements
        gens += [factor * embed(g, ext) for g in basis]
        blocks += [None if known is None else label] * len(basis)
    return ReducedGB(ring, order, _eliminate(gens, blocks, order)).presentation()


def intersect_all(ideals, order) -> IdealPresentation:
    """The intersection of a nonempty list of ideals, pairwise in a balanced tree.

    Intersecting neighbours round by round keeps both inputs of each
    elimination small, where a left fold feeds one ever larger basis into
    every step.
    """
    ideals = list(ideals)
    while len(ideals) > 1:
        paired = [intersect(A, B, order) for A, B in zip(ideals[::2], ideals[1::2])]
        ideals = paired + ideals[len(paired) * 2:]
    return ideals[0]


def exact_divide(g: Polynomial, f: Polynomial, order) -> Polynomial:
    """Quotient g / f in the polynomial ring; raises unless f divides g."""
    if not f:
        raise ZeroPolynomialError("division by the zero polynomial")
    quotient = _quotient(g, f, order)
    if quotient is None:
        raise FieldPolyError("inexact polynomial division")
    return quotient


def colon(I: IdealPresentation, f: Polynomial, order) -> IdealPresentation:
    """The colon ideal I : f = { g : g*f in I }."""
    if not f:
        raise ZeroPolynomialError("colon by the zero polynomial")
    ring = I.ring
    _same_ring(ring, f.ring)
    if f.degree() == 0:
        return IdealPresentation(ring, I.generators)
    if I.is_zero:
        return IdealPresentation(ring, ())
    monomials = _term_exponents(I.generators)
    if monomials is not None and len(f) == 1:
        # (a) : m = (a / gcd(a, m)), summed over the generators
        (m,) = f.terms_dict()
        return _monomials(ring, [tuple(map(sub, a, map(min, a, m))) for a in monomials], order)
    if len(I.generators) == 1:
        # (h) : f = (h / f) when f divides h, since S is a domain
        quotient = _quotient(I.generators[0], f, order)
        if quotient is not None:
            return presentation_from_gb(ring, [quotient], order)
    # the reduced basis of I decides f ∈ I, where I : f = (1), and is what
    # the intersection below starts from
    if member(f, I, order):
        return presentation_from_gb(ring, [ring.one()], order)
    # neither I nor (f) is (1) or a monomial ideal with the other, so this is
    # the elimination of intersect; I ∩ (f) may pass the cap where I : f does not
    meet = _eliminated_meet(I, IdealPresentation(ring, (f,)), order)
    divided = [exact_divide(g, f, order) for g in meet.generators]
    # quotients of a Groebner basis of I ∩ (f) by f form a Groebner basis of I : f
    return presentation_from_gb(ring, divided, order)


def colon_ideal(I: IdealPresentation, J: IdealPresentation, order) -> IdealPresentation:
    """I : J as the intersection of the colons by the generators of J."""
    if J.is_zero:
        raise ZeroPolynomialError("colon by the zero ideal")
    return intersect_all([colon(I, g, order) for g in J.generators], order)


def saturate(I: IdealPresentation, f: Polynomial, order) -> IdealPresentation:
    """I : f^infinity, iterating the colon until the reduced bases agree."""
    if not f:
        raise ZeroPolynomialError("saturation by the zero polynomial")
    current = IdealPresentation(I.ring, I.generators)
    exponent = 0
    while True:
        nxt = colon(current, f, order)
        if ideals_equal(nxt, current, order):
            break
        current = nxt
        exponent += 1
    current.provenance = {"saturation_exponent": exponent}
    return current


# -- powers ---------------------------------------------------------------------


def power(I: IdealPresentation, m: int) -> IdealPresentation:
    """Ordinary power: all m-fold products of generators, deduplicated."""
    if m < 1:
        raise FieldPolyError("power exponent must be >= 1")
    if m == 1 or I.is_zero:
        return IdealPresentation(I.ring, I.generators)
    seen = set()
    gens = []
    for combo in combinations_with_replacement(I.generators, m):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        if prod and prod not in seen:
            seen.add(prod)
            gens.append(prod)
    return IdealPresentation(I.ring, tuple(gens))


def frobenius_power_poly(f: Polynomial, e: int) -> Polynomial:
    """f^(p^e) by Frobenius: scale exponents, coefficients are fixed by x -> x^p."""
    p = f.ring.p
    q = p**e
    out = {tuple(a * q for a in exp): c for exp, c in f.terms_dict().items()}
    _check_growth(out)
    return Polynomial(f.ring, out)


def _bracket_basis(G: ReducedGB, e: int) -> ReducedGB:
    """``G^[q]`` for ``q = p^e``, the reduced basis of ``I^[q]`` when G is that of I.

    No pair is formed (see docs/notes.md); raises ExponentOverflowError when
    an element passes the cap, and otherwise keeps G's kernel form, mapped.
    """
    elements = tuple(frobenius_power_poly(g, e) for g in G)
    return ReducedGB(G.ring, G.order, elements, G._bracket_kernel(G.ring.p**e))


def bracket_power(I: IdealPresentation, e: int) -> IdealPresentation:
    """Frobenius bracket power: the ideal of p^e-th powers of the generators."""
    if e < 1:
        raise FieldPolyError("bracket power exponent must be >= 1")
    # p >= 2, so p^e overflows from e = 31 on: bound e before forming p**e
    p = I.ring.p
    if e >= MAX_EXPONENT.bit_length() or p**e > MAX_EXPONENT:
        raise ExponentOverflowError(f"bracket power {p}^{e} exceeds MAX_EXPONENT")
    result = IdealPresentation(I.ring, tuple(frobenius_power_poly(g, e) for g in I.generators))
    for G in I._cached_gbs():
        try:
            result._store_gb(_bracket_basis(G, e))
        except ExponentOverflowError:
            continue  # a basis element can pass the cap where no generator does
    return result


def symbolic_power_prime(P: IdealPresentation, m: int, witness: Polynomial, order) -> IdealPresentation:
    """m-th symbolic power of a prime, as saturation of P^m at a witness off P.

    The caller asserts P prime and chooses the witness; the witness is
    verified to lie outside P and is recorded in the result's provenance.
    """
    if not witness:
        raise WitnessInPrimeError("the zero polynomial cannot witness a symbolic power")
    if member(witness, P, order):
        raise WitnessInPrimeError(
            f"witness {witness.text(order)} lies in the prime it must avoid"
        )
    result = saturate(power(P, m), witness, order)
    result.provenance = dict(result.provenance or {})
    result.provenance.update({"symbolic_power": m, "witness": witness.text(order)})
    return result


# -- weight homogenization --------------------------------------------------------


def homogenize_w(I: IdealPresentation, weights, order) -> IdealPresentation:
    """Weight homogenization of I in a ring extended by a degree-1 variable.

    Computes a Groebner basis of I under the weight order refined by the
    caller's order, then homogenizes each basis element; homogenizing only
    the raw generators would miss elements of the homogenized ideal.
    """
    weights = validate_weights(I.ring, weights)
    gb = reduced_gb(I, order_for_weight_refinement(weights, order))
    ext = I.ring.extend()
    gens = []
    for g in gb.elements:
        coeffs = g.terms_dict()
        degrees = {e: _weighted_degree(weights, e) for e in coeffs}
        d = max(degrees.values())
        terms = {e + (d - de,): coeffs[e] for e, de in degrees.items()}
        _check_growth(terms)
        gens.append(Polynomial(ext, terms))
    return IdealPresentation(ext, tuple(gens))


def _set_last(ring: RingContext, polys, value: int, what: str) -> tuple[Polynomial, ...]:
    """The polys of an extended ring with the last variable set to value (0 or 1), in the base ring."""
    base = ring.base
    if base is None:
        raise FieldPolyError(f"{what} does not live in an extended ring")
    out = []
    for F in polys:
        terms = ((e[:-1], c) for e, c in F.terms_dict().items() if value or not e[-1])
        out.append(Polynomial(base, _accumulate({}, terms, base.p)))
    return tuple(out)


def dehomogenize(F: Polynomial) -> Polynomial:
    """Set the homogenizing (last) variable to 1 and return to the base ring."""
    return _set_last(F.ring, (F,), 1, "polynomial")[0]


def dehomogenize_ideal(H: IdealPresentation) -> IdealPresentation:
    return IdealPresentation(H.ring.base, _set_last(H.ring, H.generators, 1, "ideal"))


def is_weight_homogeneous(F: Polynomial, weights) -> bool:
    """Homogeneity for the extended weight vector (weights, 1)."""
    if len(weights) != F.ring.n - 1:
        raise FieldPolyError("weights must cover all but the homogenizing variable")
    wext = tuple(weights) + (1,)
    return len({_weighted_degree(wext, e) for e in F.terms_dict()}) <= 1


def fiber_at_zero(H: IdealPresentation) -> IdealPresentation:
    """Special fiber: substitute 0 for the homogenizing variable."""
    return IdealPresentation(H.ring.base, _set_last(H.ring, H.generators, 0, "ideal"))


def initial_forms_ideal(I: IdealPresentation, weights, order) -> IdealPresentation:
    """Ideal generated by the weight initial forms of a weight-order basis (weights already checked)."""
    gb = reduced_gb(I, order_for_weight_refinement(weights, order))
    return IdealPresentation(I.ring, tuple(g.initial_w(weights) for g in gb.elements))


# -- monomial-ideal combinatorics ---------------------------------------------


def monomial_dimension(M: MonomialIdeal) -> int:
    """Krull dimension of S/M for a proper monomial ideal M.

    Equals n minus the size of a minimum set of variables meeting every
    generator's support; computed by memoized cover search.
    """
    if not M.is_proper:
        raise ImproperIdealError("dimension of the unit ideal is undefined")
    n = M.ring.n
    supports = frozenset(
        frozenset(g.support()) for g in M.generators
    )
    memo: dict[frozenset, int] = {}

    def cover(supps: frozenset) -> int:
        if not supps:
            return 0
        got = memo.get(supps)
        if got is not None:
            return got
        pivot = min(supps, key=lambda s: (len(s), sorted(s)))
        best = None
        for x in sorted(pivot):
            rest = frozenset(s for s in supps if x not in s)
            c = 1 + cover(rest)
            if best is None or c < best:
                best = c
        memo[supps] = best
        return best

    return n - cover(supports)


def bracket_of_variables(ring: RingContext) -> MonomialIdeal:
    """The monomial ideal (x_1^p, ..., x_n^p)."""
    gens = []
    for i in range(ring.n):
        exp = [0] * ring.n
        exp[i] = ring.p
        gens.append(Monomial(ring, tuple(exp)))
    return MonomialIdeal(ring, tuple(gens))
