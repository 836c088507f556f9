"""Ideal-level algebra on top of the Buchberger engine.

Intersections are computed by eliminating an auxiliary variable from
``t*A + (1-t)*B``; the auxiliary variable is appended internally and never
appears in results, and the ``t``-free part of the reduced elimination basis
is kept as the reduced basis of ``A ∩ B``.  An input that caches its reduced
basis enters as that basis, and the kernel forms no pair inside it.
Intersections of several ideals go pairwise in a balanced tree.  Colons
divide the generators of ``I ∩ (f)`` exactly by ``f``; that quotient set is
again a Groebner basis, so colon and intersection results come back with
their reduced basis pre-cached.  A principal colon ``(h) : f`` with ``f``
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

from .field_poly import (
    MAX_EXPONENT,
    EliminationOrder,
    ExponentOverflowError,
    FieldPolyError,
    Monomial,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
    _accumulate,
    _check_growth,
    order_for_weight_refinement,
    validate_weights,
)
from .groebner import (
    IdealPresentation,
    MonomialIdeal,
    ReducedGB,
    _quotient,
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


def intersect(A: IdealPresentation, B: IdealPresentation, order) -> IdealPresentation:
    """Generators of A ∩ B by elimination of an auxiliary variable."""
    if A.ring != B.ring:
        raise FieldPolyError("ideals from different rings")
    ring = A.ring
    if A.is_zero or B.is_zero:
        return IdealPresentation(ring, ())
    ext = ring.extend()
    t = ext.variable(ext.n - 1)
    gens, blocks = [], []
    for label, (X, factor) in enumerate(((A, t), (B, ext.one() - t))):
        # a cached reduced basis G of X stands in for its generators: factor * G
        # is a Groebner basis, so the kernel forms no pair inside it
        known = X._gb_cache.get(order)
        basis = X.generators if known is None else known.elements
        gens += [factor * embed(g, ext) for g in basis]
        blocks += [None if known is None else label] * len(basis)
    elim = EliminationOrder(order)
    gb = reduced_gb(IdealPresentation(ext, tuple(gens)), elim, _blocks=blocks)
    # the t-free part of a reduced elimination basis is the reduced basis of
    # the intersection for the base order; an element is t-free iff its
    # leading monomial is, so in the ascending basis those elements come first
    kept = []
    for g in gb.elements:
        terms = g.terms_dict()
        if any(e[-1] for e in terms):
            break
        kept.append(Polynomial(ring, {e[:-1]: c for e, c in terms.items()}))
    return ReducedGB(ring, order, tuple(kept)).presentation()


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
    if f.degree() == 0:
        return IdealPresentation(ring, I.generators)
    if I.is_zero:
        return IdealPresentation(ring, ())
    if len(I.generators) == 1:
        # (h) : f = (h / f) when f divides h, since S is a domain
        quotient = _quotient(I.generators[0], f, order)
        if quotient is not None:
            return presentation_from_gb(ring, [quotient], order)
    # the reduced basis of I decides f ∈ I, where I : f = (1), and is what
    # the intersection below starts from
    if member(f, I, order):
        return presentation_from_gb(ring, [ring.one()], order)
    meet = intersect(I, IdealPresentation(ring, (f,)), order)
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
        if reduced_gb(nxt, order).elements == reduced_gb(current, order).elements:
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


def bracket_power(I: IdealPresentation, e: int) -> IdealPresentation:
    """Frobenius bracket power: the ideal of p^e-th powers of the generators."""
    if e < 1:
        raise FieldPolyError("bracket power exponent must be >= 1")
    # p >= 2, so p^e overflows from e = 31 on: bound e before forming p**e
    p = I.ring.p
    if e >= MAX_EXPONENT.bit_length() or p**e > MAX_EXPONENT:
        raise ExponentOverflowError(f"bracket power {p}^{e} exceeds MAX_EXPONENT")
    result = IdealPresentation(I.ring, tuple(frobenius_power_poly(g, e) for g in I.generators))
    # G^[q] is the reduced basis of I^[q] for every order that I has a
    # reduced basis G for (see docs/notes.md)
    for G in list(I._gb_cache.values()):
        if isinstance(G, ReducedGB):
            try:
                powers = tuple(frobenius_power_poly(g, e) for g in G)
            except ExponentOverflowError:
                continue  # a basis element can pass the cap where no generator does
            result._gb_cache[G.order] = ReducedGB(I.ring, G.order, powers)
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
    worder = order_for_weight_refinement(weights, order)
    gb = reduced_gb(I, worder)
    ext = I.ring.extend()
    gens = []
    for g in gb.elements:
        d = g.weighted_degree(weights)
        terms = {}
        for e, c in g.terms_dict().items():
            wdeg = sum(w * a for w, a in zip(weights, e))
            terms[e + (d - wdeg,)] = c
        _check_growth(terms)
        gens.append(Polynomial(ext, terms))
    hom = IdealPresentation(ext, tuple(gens))
    hom.provenance = {"weights": weights, "homogenizing_variable": ext.names[-1]}
    return hom


def dehomogenize(F: Polynomial) -> Polynomial:
    """Set the homogenizing (last) variable to 1 and return to the base ring."""
    ring = F.ring
    if ring.base is None:
        raise FieldPolyError("polynomial does not live in an extended ring")
    terms = ((e[:-1], c) for e, c in F.terms_dict().items())
    return Polynomial(ring.base, _accumulate({}, terms, ring.p))


def dehomogenize_ideal(H: IdealPresentation) -> IdealPresentation:
    base = H.ring.base
    if base is None:
        raise FieldPolyError("ideal does not live in an extended ring")
    return IdealPresentation(base, tuple(dehomogenize(F) for F in H.generators))


def is_weight_homogeneous(F: Polynomial, weights) -> bool:
    """Homogeneity for the extended weight vector (weights, 1)."""
    ring = F.ring
    if len(weights) != ring.n - 1:
        raise FieldPolyError("weights must cover all but the homogenizing variable")
    wext = tuple(weights) + (1,)
    degs = {sum(w * a for w, a in zip(wext, e)) for e in F.terms_dict()}
    return len(degs) <= 1


def fiber_at_zero(H: IdealPresentation) -> IdealPresentation:
    """Special fiber: substitute 0 for the homogenizing variable."""
    base = H.ring.base
    if base is None:
        raise FieldPolyError("ideal does not live in an extended ring")
    gens = []
    for F in H.generators:
        kept = {e[:-1]: c for e, c in F.terms_dict().items() if e[-1] == 0}
        g = Polynomial(base, kept)
        if g:
            gens.append(g)
    return IdealPresentation(base, tuple(gens))


def initial_forms_ideal(I: IdealPresentation, weights, order) -> IdealPresentation:
    """Ideal generated by the weight initial forms of a weight-order basis."""
    weights = validate_weights(I.ring, weights)
    worder = order_for_weight_refinement(weights, order)
    gb = reduced_gb(I, worder)
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
