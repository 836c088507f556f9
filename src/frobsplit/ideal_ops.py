"""Ideal-level algebra on top of the Buchberger engine.

Intersections are computed by eliminating an auxiliary variable from
``t*A + (1-t)*B``; the auxiliary variable is appended internally and never
appears in results.  Colons divide the generators of ``I ∩ (f)`` exactly by
``f``; that quotient set is again a Groebner basis, so colon and intersection
results come back with their reduced basis pre-cached.  Saturation iterates
the colon until the reduced bases agree and records the stabilization
exponent in the result's provenance.

Weight homogenization follows the ideal-level construction: first a Groebner
basis under the weight order (homogenizing raw generators is not enough),
then each basis element is homogenized with a fresh last variable of degree
one.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .field_poly import (
    EliminationOrder,
    FieldPolyError,
    Monomial,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
    order_for_weight_refinement,
    validate_weights,
)
from .groebner import (
    Budget,
    IdealPresentation,
    MonomialIdeal,
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
    return ext.polynomial({e + (0,): c for e, c in f.terms_dict().items()})


def project_last(f: Polynomial, base: RingContext) -> Polynomial:
    """Drop the last variable; every term must be free of it."""
    out = {}
    for e, c in f.terms_dict().items():
        if e[-1] != 0:
            raise FieldPolyError("polynomial involves the variable being dropped")
        out[e[:-1]] = c
    return base.polynomial(out)


def _aux_ring(ring: RingContext) -> RingContext:
    name = "t_aux"
    k = 0
    while name in ring.names:
        name = f"t_aux{k}"
        k += 1
    return ring.extend(name)


# -- intersection, colon, saturation -------------------------------------------


def intersect(
    A: IdealPresentation, B: IdealPresentation, order, budget: Budget | None = None
) -> IdealPresentation:
    """Generators of A ∩ B by elimination of an auxiliary variable."""
    if A.ring != B.ring:
        raise FieldPolyError("ideals from different rings")
    ring = A.ring
    if A.is_zero or B.is_zero:
        return IdealPresentation(ring, ())
    ext = _aux_ring(ring)
    t = ext.variable(ext.n - 1)
    one_minus_t = ext.one() - t
    gens = [t * embed(a, ext) for a in A.generators]
    gens += [one_minus_t * embed(b, ext) for b in B.generators]
    elim = EliminationOrder(order)
    gb = reduced_gb(IdealPresentation(ext, tuple(gens)), elim, budget)
    kept = [
        project_last(g, ring)
        for g in gb.elements
        if g.leading_monomial(elim).exponents[-1] == 0
    ]
    # the t-free part of a reduced elimination basis is the reduced basis of
    # the intersection for the base order
    return presentation_from_gb(ring, kept, order)


def exact_divide(g: Polynomial, f: Polynomial, order) -> Polynomial:
    """Quotient g / f in the polynomial ring; raises unless f divides g."""
    if not f:
        raise ZeroPolynomialError("division by the zero polynomial")
    ring = g.ring
    p = ring.p
    lt_f = f.leading_term(order)
    inv_lc = pow(lt_f.coefficient.value, -1, p)
    quotient = ring.zero()
    rest = g
    while rest:
        lt_r = rest.leading_term(order)
        if not lt_f.monomial.divides(lt_r.monomial):
            raise FieldPolyError("inexact polynomial division")
        shift = lt_r.monomial.divide(lt_f.monomial)
        c = (lt_r.coefficient.value * inv_lc) % p
        q = ring.polynomial({shift.exponents: c})
        quotient = quotient + q
        rest = rest - f.multiply_monomial(shift, c)
    return quotient


def colon(
    I: IdealPresentation, f: Polynomial, order, budget: Budget | None = None
) -> IdealPresentation:
    """The colon ideal I : f = { g : g*f in I }."""
    if not f:
        raise ZeroPolynomialError("colon by the zero polynomial")
    ring = I.ring
    if f.degree() == 0:
        return IdealPresentation(ring, I.generators)
    if I.is_zero:
        return IdealPresentation(ring, ())
    meet = intersect(I, IdealPresentation(ring, (f,)), order, budget)
    divided = [exact_divide(g, f, order) for g in meet.generators]
    # quotients of a Groebner basis of I ∩ (f) by f form a Groebner basis of I : f
    return presentation_from_gb(ring, divided, order)


def colon_ideal(
    I: IdealPresentation, J: IdealPresentation, order, budget: Budget | None = None
) -> IdealPresentation:
    """I : J as the intersection of the colons by the generators of J."""
    if J.is_zero:
        raise ZeroPolynomialError("colon by the zero ideal")
    result = None
    for g in J.generators:
        piece = colon(I, g, order, budget)
        result = piece if result is None else intersect(result, piece, order, budget)
    return result


def saturate(
    I: IdealPresentation, f: Polynomial, order, budget: Budget | None = None
) -> IdealPresentation:
    """I : f^infinity, iterating the colon until the reduced bases agree."""
    if not f:
        raise ZeroPolynomialError("saturation by the zero polynomial")
    current = IdealPresentation(I.ring, I.generators)
    exponent = 0
    while True:
        nxt = colon(current, f, order, budget)
        if reduced_gb(nxt, order, budget).elements == reduced_gb(current, order, budget).elements:
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
    return f.ring.polynomial({tuple(a * q for a in exp): c for exp, c in f.terms_dict().items()})


def bracket_power(I: IdealPresentation, e: int) -> IdealPresentation:
    """Frobenius bracket power: the ideal of p^e-th powers of the generators."""
    if e < 1:
        raise FieldPolyError("bracket power exponent must be >= 1")
    return IdealPresentation(I.ring, tuple(frobenius_power_poly(g, e) for g in I.generators))


def symbolic_power_prime(
    P: IdealPresentation,
    m: int,
    witness: Polynomial,
    order,
    budget: Budget | None = None,
) -> IdealPresentation:
    """m-th symbolic power of a prime, as saturation of P^m at a witness off P.

    The caller asserts P prime and chooses the witness; the witness is
    verified to lie outside P and is recorded in the result's provenance.
    """
    if not witness:
        raise WitnessInPrimeError("the zero polynomial cannot witness a symbolic power")
    if member(witness, P, order, budget):
        raise WitnessInPrimeError(
            f"witness {witness.text(order)} lies in the prime it must avoid"
        )
    result = saturate(power(P, m), witness, order, budget)
    result.provenance = dict(result.provenance or {})
    result.provenance.update({"symbolic_power": m, "witness": witness.text(order)})
    return result


# -- weight homogenization --------------------------------------------------------


def homogenize_w(
    I: IdealPresentation, weights, order, budget: Budget | None = None
) -> IdealPresentation:
    """Weight homogenization of I in a ring extended by a degree-1 variable.

    Computes a Groebner basis of I under the weight order refined by the
    caller's order, then homogenizes each basis element; homogenizing only
    the raw generators would miss elements of the homogenized ideal.
    """
    weights = validate_weights(I.ring, weights)
    worder = order_for_weight_refinement(weights, order)
    gb = reduced_gb(I, worder, budget)
    ext = I.ring.extend()
    gens = []
    for g in gb.elements:
        d = g.weighted_degree(weights)
        terms = {}
        for e, c in g.terms_dict().items():
            wdeg = sum(w * a for w, a in zip(weights, e))
            terms[e + (d - wdeg,)] = c
        gens.append(ext.polynomial(terms))
    hom = IdealPresentation(ext, tuple(gens))
    hom.provenance = {"weights": weights, "homogenizing_variable": ext.names[-1]}
    return hom


def dehomogenize(F: Polynomial) -> Polynomial:
    """Set the homogenizing (last) variable to 1 and return to the base ring."""
    ring = F.ring
    if ring.base is None:
        raise FieldPolyError("polynomial does not live in an extended ring")
    out: dict[tuple, int] = {}
    p = ring.p
    for e, c in F.terms_dict().items():
        ne = e[:-1]
        v = (out.get(ne, 0) + c) % p
        if v:
            out[ne] = v
        else:
            out.pop(ne, None)
    return ring.base.polynomial(out)


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
        g = base.polynomial(kept)
        if g:
            gens.append(g)
    return IdealPresentation(base, tuple(gens))


def initial_forms_ideal(
    I: IdealPresentation, weights, order, budget: Budget | None = None
) -> IdealPresentation:
    """Ideal generated by the weight initial forms of a weight-order basis."""
    weights = validate_weights(I.ring, weights)
    worder = order_for_weight_refinement(weights, order)
    gb = reduced_gb(I, worder, budget)
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


def monomial_ideal_intersection_lcm(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    """Independent oracle for monomial-ideal intersection: pairwise lcms."""
    if A.ring != B.ring:
        raise FieldPolyError("ideals from different rings")
    gens = [a.lcm(b) for a in A.generators for b in B.generators]
    return MonomialIdeal(A.ring, tuple(gens))


def bracket_of_variables(ring: RingContext, e: int = 1) -> MonomialIdeal:
    """The monomial ideal (x_1^(p^e), ..., x_n^(p^e))."""
    q = ring.p**e
    gens = []
    for i in range(ring.n):
        exp = [0] * ring.n
        exp[i] = q
        gens.append(Monomial(ring, tuple(exp)))
    return MonomialIdeal(ring, tuple(gens))
