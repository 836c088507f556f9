"""Frobenius splitting operators on F_p[x_1, ..., x_n].

``F_*S`` is free over S on the monomials with exponents below p.  The trace
map is the S-linear dual of the top basis monomial ``x_1^(p-1)...x_n^(p-1)``:
a term ``c * x^a`` survives iff every exponent is congruent to p-1 mod p, and
then maps to ``c * x^((a - (p-1))/p)`` (p-th roots fix F_p, so coefficients
are untouched).  Every S-linear map ``F_*S -> S`` is ``f * trace`` for a
unique carrier f, which makes splitting questions polynomial arithmetic:

* ``f * trace`` splits Frobenius iff trace(f) = 1, equivalently the two
  support conditions checked by :func:`is_splitting`;
* ``(f * trace)(I) ⊆ I`` iff f lies in the Fedder colon ``I^[p] : I``,
  that is, iff ``f * g ∈ I^[p]`` for every generator g of I, which
  :func:`fedder_membership` decides by division by ``G^[p]``, the p-th
  powers of the reduced basis G of I, without forming the colon;
* the colon itself, :func:`fedder_colon`, is ``I^[p] + (g_1...g_k)^(p-1)``
  when the leading monomials of the reduced basis ``g_1, ..., g_k`` have
  pairwise disjoint supports (a complete intersection), and is built by
  elimination otherwise;
* an ideal is compatible with a splitting iff the images of the coset
  representatives ``x^a * g`` (a below p, g a generator) all lie in it, which
  :func:`compatible_check` reads off one product ``f * g`` per generator,
  with memberships in I rather than in ``I^[p]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field_poly import ExponentOverflowError, FieldPolyError, Monomial, Polynomial, RingContext, _same_ring
from .groebner import IdealPresentation, member, presentation_from_gb, reduced_gb
from .ideal_ops import _bracket_basis, bracket_of_variables, bracket_power, colon_ideal, frobenius_power_poly

def trace(g: Polynomial) -> Polynomial:
    """Project onto the dual of the top basis monomial of F_*S over S."""
    p = g.ring.p
    # a surviving exponent a is p-1 mod p, so (a - (p-1)) / p is a // p; that
    # map is one-to-one on the surviving terms, so no two of them merge
    kept = {tuple(a // p for a in e): c for e, c in g.terms_dict().items() if all(a % p == p - 1 for a in e)}
    return Polynomial(g.ring, kept)


def star_apply(f: Polynomial, g: Polynomial) -> Polynomial:
    """The map f * trace evaluated at g, i.e. trace(f * g)."""
    return trace(f * g)


def top_monomial(ring: RingContext) -> Monomial:
    """The monomial x_1^(p-1) ... x_n^(p-1)."""
    return Monomial(ring, (ring.p - 1,) * ring.n)


def standard_splitting_carrier(ring: RingContext) -> Polynomial:
    """Carrier of the standard splitting, the top monomial itself."""
    return Polynomial(ring, {top_monomial(ring).exponents: 1})


@dataclass(frozen=True)
class SplittingCheck:
    """Verdict of :func:`is_splitting` with the offending monomial, if any."""

    ok: bool
    violation: Monomial | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def is_splitting(f: Polynomial) -> SplittingCheck:
    """Decide whether f * trace splits Frobenius, that is, whether trace(f) = 1.

    The trace maps the terms of f whose exponents are all p-1 mod p one to
    one onto the terms of trace(f), the top monomial onto 1.  So the two
    support conditions are: the top monomial occurs in f with coefficient 1,
    and no other such term occurs.  The violation named is the first other
    such term in f's term order, else the top monomial.
    """
    ring, p = f.ring, f.ring.p
    t = trace(f)
    other = next((b for b in t.terms_dict() if any(b)), None)
    if other is not None:
        return SplittingCheck(
            False,
            Monomial(ring, tuple(p * b + p - 1 for b in other)),
            "monomial with all exponents = -1 mod p other than the top monomial",
        )
    c = t.constant_term()
    if c != 1:
        return SplittingCheck(False, top_monomial(ring), f"top monomial has coefficient {c}, expected 1")
    return SplittingCheck(True)


def fedder_colon(I: IdealPresentation, order) -> IdealPresentation:
    """The colon ideal I^[p] : I.

    When the leading monomials of the reduced basis ``g_1, ..., g_k`` of I
    have pairwise disjoint supports, it is a regular sequence and Fedder's
    lemma gives the colon as ``(g_1^p, ..., g_k^p) + ((g_1...g_k)^(p-1))``;
    this covers the zero, unit and principal ideals (see docs/notes.md).
    Otherwise, or when that form passes the exponent cap, the colon is built
    by elimination.
    """
    ring = I.ring
    G = reduced_gb(I, order)
    # each variable in at most one leading monomial
    if all(sum(map(bool, column)) <= 1 for column in zip(*(m.exponents for m in G.leading_monomials()))):
        try:
            product = ring.one()
            for g in G:
                product = product * g
            h = product ** (ring.p - 1)
            if len(G) <= 1:
                # g^p = g * h, so the monic h alone is the reduced basis
                return presentation_from_gb(ring, [h], order)
            return IdealPresentation(ring, tuple(frobenius_power_poly(g, 1) for g in G) + (h,))
        except ExponentOverflowError:
            pass  # a product can pass the cap where the colon's basis does not
    return colon_ideal(bracket_power(I, 1), I, order)


def fedder_membership(f: Polynomial, I: IdealPresentation, order) -> bool:
    """Whether (f * trace)(I) ⊆ I, that is, whether f lies in I^[p] : I.

    Tested as ``f * g ∈ I^[p]`` for each generator g of I, by division by
    ``G^[p]``, the p-th powers of the reduced basis G of I, which is the
    reduced basis of I^[p] (see docs/notes.md).  When a product or an element
    of ``G^[p]`` passes the exponent cap, membership in :func:`fedder_colon`
    decides instead.
    """
    _same_ring(f.ring, I.ring)
    try:
        power = _bracket_basis(reduced_gb(I, order), 1).presentation()
        return all(member(f * g, power, order) for g in I.generators)
    except ExponentOverflowError:
        return member(f, fedder_colon(I, order), order)


def compatible_check(f: Polynomial, J: IdealPresentation, order) -> bool:
    """Direct test that (f * trace)(J) ⊆ J on the module generators of J.

    As a submodule of F_*S, J is spanned over S by ``x^a * g`` for exponent
    vectors a below p and generators g.  A term ``c * x^e`` of ``f * g``
    survives ``trace(x^a * .)`` only for ``a = -1 - e (mod p)``, as
    ``c * x^(e // p)``, so the terms bucketed by ``e mod p`` are exactly the
    nonzero images (see docs/notes.md).  Kept independent of the Fedder colon.
    """
    _same_ring(f.ring, J.ring)
    ring = J.ring
    p = ring.p
    for g in J.generators:
        images: dict[tuple, dict[tuple, int]] = {}
        for e, c in (f * g).terms_dict().items():
            residue = tuple(x % p for x in e)
            images.setdefault(residue, {})[tuple(x // p for x in e)] = c
        # residues descending are the cosets a = p-1-residue ascending, so a
        # failing check stops at the same coset as the per-coset definition
        for residue in sorted(images, reverse=True):
            if not member(Polynomial(ring, images[residue]), J, order):
                return False
    return True


@dataclass(frozen=True)
class FSplitOutcome:
    """Result of the graded Fedder test at the irrelevant maximal ideal."""

    split: bool
    witness: Polynomial | None
    colon: IdealPresentation

    def __bool__(self):
        return self.split


def fsplit_graded_test(I: IdealPresentation, order) -> FSplitOutcome:
    """Graded Fedder criterion: S/I is F-split iff I^[p] : I ⊄ (x_1, ..., x_n)^[p].

    Requires I ⊆ (x_1, ..., x_n).  On success the witness is a reduced-basis
    element of the colon with a term outside the bracket of the variables.
    """
    ring = I.ring
    for g in I.generators:
        if g.constant_term():
            raise FieldPolyError("the ideal must be contained in (x_1, ..., x_n)")
    C = fedder_colon(I, order)
    mbr = bracket_of_variables(ring)
    for g in reduced_gb(C, order).elements:
        if not mbr.contains_polynomial(g):
            return FSplitOutcome(True, g, C)
    return FSplitOutcome(False, None, C)
