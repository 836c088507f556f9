import frobsplit

# The package's public names, spelled out so that adding or removing one shows
# up as a diff here (and in README's "Library use" and CHANGES.md).
PUBLIC = [
    # field_poly
    "EliminationOrder", "ExponentOverflowError", "FieldPolyError", "Monomial",
    "MonomialOrder", "ParseError", "Polynomial", "RingContext", "RingMismatchError",
    "ZeroPolynomialError",
    "grevlex", "lex", "parse_order", "ring_new", "weight_order",
    # groebner
    "Budget", "DEFAULT_MAX_PAIRS", "IdealPresentation", "MonomialIdeal", "ReducedGB",
    "ResourceLimitError",
    "ideal", "ideals_equal", "initial_ideal", "member", "normal_form", "reduced_gb",
    # ideal_ops
    "WitnessInPrimeError",
    "bracket_power", "colon", "colon_ideal", "dehomogenize", "homogenize_w", "intersect",
    "monomial_dimension", "power", "saturate", "symbolic_power_prime",
    # frobenius
    "compatible_check", "fedder_membership", "fsplit_graded_test", "is_splitting",
    "star_apply", "trace",
    # criteria
    "Certificate", "InconsistentInputError", "NotFound", "SoundnessError",
    "charp_certificate", "deformation_fibers", "fsplit_certificate", "replay",
    "symb_certificate", "verify_certificate",
    # the submodules themselves
    "criteria", "field_poly", "frobenius", "groebner", "ideal_ops",
]


def test_public_names_are_pinned():
    assert sorted(frobsplit.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == len(set(PUBLIC))
    for name in PUBLIC:
        assert hasattr(frobsplit, name), name
