import copy
import json
import random
from itertools import combinations, product

import pytest

from frobsplit import criteria as cr
from frobsplit import field_poly as fp
from frobsplit import frobenius as fr
from frobsplit import groebner as gb
from frobsplit import ideal_ops as ops

from conftest import DOCS, deformed_minors_ideal, minors_2x3, pentagon_ideal


# -- CharP ------------------------------------------------------------------------


def test_charp_certificate_2x2(ring5):
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    o = fp.lex()
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    cert = cr.charp_certificate(I, o)
    assert isinstance(cert, cr.Certificate) and cert.kind == "CharP"
    assert cert.data["witness"]["leading_monomial"] == "x1*x4"
    assert cert.data["conclusion"]["initial_generators"] == ["x1*x4"]
    assert cr.verify_certificate(cert)


def test_charp_producer_holds_its_certificate_to_its_steps(monkeypatch):
    # the producer replays its steps before emitting: a squarefree_initial
    # step that does not hold stops it, naming the step
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    real = cr._REPLAY["squarefree_initial"]
    monkeypatch.setitem(cr._REPLAY, "squarefree_initial", lambda ctx, a: {**real(ctx, a), "all_squarefree": False})
    with pytest.raises(cr.SoundnessError, match="^CharP step 3 squarefree_initial "):
        cr.charp_certificate(I, fp.lex())


def test_charp_notfound_documented_non_example():
    # I = (x^2) at p = 2: the colon is (x^2), whose generator does not divide x
    R = fp.ring_new(2, ["x"])
    res = cr.charp_certificate(gb.ideal(R, [R.parse("x^2")]), fp.lex())
    assert isinstance(res, cr.NotFound)
    assert res.details["initial_generators"] == ["x^2"]
    assert res.details["target"] == "x"
    assert not res


def test_charp_certificate_2x3_minors():
    ring, I = minors_2x3(p=2)
    o = fp.lex()
    cert = cr.charp_certificate(I, o)
    assert isinstance(cert, cr.Certificate)
    assert sorted(cert.data["conclusion"]["initial_generators"]) == [
        "x11*x22",
        "x11*x23",
        "x12*x23",
    ]
    assert cr.verify_certificate(cert)


def test_charp_2x3_witness_by_hand_cofactors():
    # engine-independent justification of the 2x3 success: with
    # f = x13*x21*d12*d23, explicit cofactor identities (char 2) show
    # f * d_ij is a multiple of a squared minor for every generator, so
    # f lies in I^[2] : I, and its lex lead is the squarefree top monomial
    ring, I = minors_2x3(p=2)
    o = fp.lex()
    d12, d13, d23 = I.generators
    x11, x12, x13 = (ring.variable(i) for i in range(3))
    x21 = ring.variable(3)
    f = x13 * x21 * d12 * d23
    # straightening relation: x11*d23 + x12*d13 + x13*d12 = 0
    assert (x11 * d23 + x12 * d13 + x13 * d12).is_zero
    # cofactor identities, pure polynomial arithmetic
    assert f * d12 == (x13 * x21 * d23) * d12 * d12
    assert f * d23 == (x13 * x21 * d12) * d23 * d23
    assert f * d13 == x11 * x21 * d13 * d23 * d23 + x12 * x21 * d23 * d13 * d13
    # hence f is in the bracket colon, with the top monomial as lex lead
    assert f.leading_monomial(o).exponents == (1,) * 6
    assert fr.fedder_membership(f, I, o)


def test_symb_2x3_witness_product_of_minors():
    # the product of the two diagonal minors lies in P^2 by construction
    # and its lex lead is the squarefree monomial the pipeline finds
    ring, P = minors_2x3(p=2)
    o = fp.lex()
    d12, _, d23 = P.generators
    prod = d12 * d23
    assert gb.member(prod, ops.power(P, 2), o)
    assert prod.leading_monomial(o).text() == "x11*x12*x22*x23"
    assert prod.leading_monomial(o).is_squarefree()


def test_charp_one_sided_on_squarefree_fixture(ring5):
    # the sufficient condition fails here although in(I) IS squarefree:
    # NotFound must never be read as a negative verdict
    I = deformed_minors_ideal(ring5)
    res = cr.charp_certificate(I, fp.lex())
    assert isinstance(res, cr.NotFound)
    assert gb.initial_ideal(I, fp.lex()).is_squarefree()


def test_charp_certificate_under_weight_order():
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    order = fp.weight_order((5, 3, 3, 2), "lex")
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    cert = cr.charp_certificate(I, order)
    assert isinstance(cert, cr.Certificate)
    assert cert.data["order"] == "weight(5,3,3,2; tie=lex)"
    assert cr.verify_certificate(cert)


def test_charp_rejects_zero_ideal():
    R = fp.ring_new(2, ["x"])
    with pytest.raises(fp.FieldPolyError):
        cr.charp_certificate(gb.ideal(R, []), fp.lex())


# -- Symb -------------------------------------------------------------------------


def test_symb_certificate_principal_prime():
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    o = fp.lex()
    P = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    cert = cr.symb_certificate([(P, R.parse("x1"))], o)
    assert isinstance(cert, cr.Certificate) and cert.kind == "Symb"
    assert cert.data["witness"]["height"] == 1
    assert cert.data["conclusion"]["initial_generators"] == ["x1*x4"]
    assert cr.verify_certificate(cert)


def test_symb_certificate_2x3_minors():
    ring, P = minors_2x3(p=2)
    o = fp.lex()
    cert = cr.symb_certificate([(P, ring.parse("x11"))], o)
    assert isinstance(cert, cr.Certificate)
    assert cert.data["witness"]["height"] == 2
    lm = cert.data["witness"]["leading_monomial"]
    assert ring.parse(lm).leading_monomial(o).is_squarefree()
    assert cr.verify_certificate(cert)


def test_symb_certificate_two_primes_intersection():
    # I = (x) ∩ (y) = (xy): heights 1, certificate through the intersection
    R = fp.ring_new(2, ["x", "y"])
    o = fp.lex()
    Px = gb.ideal(R, [R.parse("x")])
    Py = gb.ideal(R, [R.parse("y")])
    cert = cr.symb_certificate([(Px, R.parse("y")), (Py, R.parse("x"))], o)
    assert isinstance(cert, cr.Certificate)
    assert cert.data["conclusion"]["initial_generators"] == ["x*y"]
    assert cr.verify_certificate(cert)


def test_symb_rejects_witness_in_prime():
    R = fp.ring_new(2, ["x", "y"])
    P = gb.ideal(R, [R.parse("x")])
    with pytest.raises(cr.InconsistentInputError):
        cr.symb_certificate([(P, R.parse("x*y"))], fp.lex())


def test_symb_flags_false_primality_assertion():
    # (x^2) passed off as a prime: the h-pipeline "succeeds" (x^2 = x*x has a
    # squarefree... it does not; craft an ideal where the condition holds but
    # the conclusion fails): use (x*y, x^2) which is not prime; its "symbolic
    # power" saturation strips the embedded component and the final check
    # sees a non-squarefree initial ideal
    R = fp.ring_new(2, ["x", "y"])
    o = fp.lex()
    fake_prime = gb.ideal(R, [R.parse("x^2"), R.parse("x*y")])
    with pytest.raises(cr.InconsistentInputError):
        cr.symb_certificate([(fake_prime, R.parse("y"))], o)


def test_symb_notfound_when_no_squarefree_lead():
    R = fp.ring_new(2, ["x", "y"])
    o = fp.lex()
    P = gb.ideal(R, [R.parse("x^2 + x*y + y^2")])  # irreducible over F_2
    res = cr.symb_certificate([(P, R.parse("x"))], o)
    assert isinstance(res, cr.NotFound)


def test_symb_runs_full_conclusion_check_even_for_h1():
    # the run must check every reduced-basis lead of the intersection, not
    # just the witness: verified here by replaying the recorded final step
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    o = fp.lex()
    P = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    cert = cr.symb_certificate([(P, R.parse("x1"))], o)
    final = cert.data["steps"][-1]
    assert final["op"] == "squarefree_initial"
    assert final["expect"]["all_squarefree"] is True


@pytest.mark.parametrize("order", ["lex", "grevlex", "weight(1,1,1,1; tie=grevlex)"])
def test_symb_certificate_lists_initial_generators_as_replay_does(order):
    # the producer records each prime's initial generators by the replay
    # operation, in reduced-basis order; outside lex that differs from the
    # order of the exponent tuples
    R = fp.ring_new(3, ["x", "y", "z", "w"])
    order = fp.parse_order(order)
    P = gb.ideal(R, [R.parse("x - w"), R.parse("y*z - w^2")])
    cert = cr.symb_certificate([(P, R.parse("y"))], order)
    leads = [m.text() for m in gb.reduced_gb(P, order).leading_monomials()]
    assert cert.data["steps"][1]["expect"]["monomials"] == leads
    assert cr.replay(cert).failed is None


# -- squarefree-element lemma ------------------------------------------------------


def test_monomial_ideal_squarefree_lemma_brute_force():
    # a monomial ideal contains a squarefree monomial iff some minimal
    # generator is squarefree; exhaustive over n <= 4, exponents <= 2
    for n in range(1, 5):
        R = fp.ring_new(2, [f"x{i}" for i in range(n)])
        monos = [e for e in product(range(3), repeat=n) if any(e)]
        squarefree = [e for e in product(range(2), repeat=n)]
        rng = random.Random(n)
        pool = list(combinations(monos, 1))
        for size in (2, 3):
            if len(monos) >= size:
                pool += [tuple(rng.sample(monos, size)) for _ in range(60)]
        for gens in pool:
            M = gb.MonomialIdeal(R, tuple(R.monomial(e) for e in gens))
            contains_sqf = any(
                M.contains_monomial(R.monomial(e)) for e in squarefree
            )
            min_gen_sqf = any(g.is_squarefree() for g in M.generators)
            assert contains_sqf == min_gen_sqf


# -- Deformation -------------------------------------------------------------------


def test_deformation_fibers_simple(ring_xy5):
    R = ring_xy5
    cert = cr.deformation_fibers(gb.ideal(R, [R.parse("x^2 - y")]), (1, 1), fp.lex())
    assert cert.kind == "Deformation"
    assert cert.data["conclusion"]["special_fiber"] == ["x^2"]
    assert cr.verify_certificate(cert)


def test_deformation_producer_holds_its_certificate_to_its_steps(ring_xy5, monkeypatch):
    R = ring_xy5
    monkeypatch.setattr(cr, "fiber_at_zero", lambda H: gb.ideal(H.ring.base, [H.ring.base.one()]))
    with pytest.raises(cr.SoundnessError, match="^Deformation step 3 fiber_zero "):
        cr.deformation_fibers(gb.ideal(R, [R.parse("x^2 - y")]), (1, 1), fp.lex())


def test_deformation_fibers_weight_homogeneous_input(ring_xy5):
    R = ring_xy5
    I = gb.ideal(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
    cert = cr.deformation_fibers(I, (1, 1), fp.lex())
    # both fibers coincide with I itself
    special = gb.ideal(R, [R.parse(t) for t in cert.data["conclusion"]["special_fiber"]])
    assert gb.ideals_equal(special, I, fp.lex())
    assert cr.verify_certificate(cert)


def test_deformation_fibers_under_a_weight_order(ring_xy5):
    # H lies in the ring extended by t, where weight(1,2; tie=lex) is read as
    # weight(1,2,1; tie=lex)
    R = ring_xy5
    cert = cr.deformation_fibers(gb.ideal(R, [R.parse("x^2 - y")]), (1, 1), fp.weight_order((1, 2), "lex"))
    assert cert.data["ideals"]["H"]["generators"] == ["4*y*t + x^2"]
    assert cr.verify_certificate(cert)


def test_deformation_fibers_paper_weights(ring5):
    I = deformed_minors_ideal(ring5)
    w = (6, 24, 6, 3, 1)
    cert = cr.deformation_fibers(I, w, fp.lex())
    degenerate = gb.ideal(
        ring5,
        [
            ring5.parse("x4^4 - x1*x3"),
            ring5.parse("x3^4*x4^2 - x2*x4^2 - x1*x2"),
            ring5.parse("x3^5 - x2*x3 - x2*x4^2"),
        ],
    )
    special = gb.ideal(ring5, [ring5.parse(t) for t in cert.data["conclusion"]["special_fiber"]])
    assert gb.ideals_equal(special, degenerate, fp.lex())


# -- FSplit -----------------------------------------------------------------------


def test_fsplit_certificate_roundtrip():
    R = fp.ring_new(2, ["x", "y"])
    cert = cr.fsplit_certificate(gb.ideal(R, [R.parse("x*y")]), fp.lex())
    assert cert.data["conclusion"]["f_split"] is True
    assert cert.data["witness"]["poly"] == "x*y"
    assert cr.verify_certificate(cert)
    neg = cr.fsplit_certificate(gb.ideal(R, [R.parse("x^2 - y^3")]), fp.grevlex())
    assert neg.data["conclusion"]["f_split"] is False
    assert cr.verify_certificate(neg)


# -- serialization and replay -------------------------------------------------------


def test_certificate_json_roundtrip_and_digests():
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    cert = cr.charp_certificate(I, fp.lex())
    text = cert.to_json()
    again = cr.Certificate.from_json(text)
    assert again == cert
    assert again.to_json() == text
    assert set(again.data["digests"]) == {"I"}
    assert all(len(d) == 64 for d in again.data["digests"].values())
    assert again.data["library_version"]


def test_replay_reports_identical_pass_fail():
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    for cert in [
        cr.charp_certificate(I, fp.lex()),
        cr.symb_certificate([(I, R.parse("x1"))], fp.lex()),
        cr.fsplit_certificate(I, fp.lex()),
    ]:
        report = cr.replay(cert)
        assert report.ok
        assert all(s.recorded_ok == s.recomputed_ok for s in report.steps)


def test_replay_detects_tampering():
    R = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    I = gb.ideal(R, [R.parse("x1*x4 - x2*x3")])
    cert = cr.charp_certificate(I, fp.lex())
    data = json.loads(cert.to_json())
    # forge the witness leading monomial
    data["steps"][1]["expect"]["monomial"] = "x2*x3"
    assert not cr.verify_certificate(cr.Certificate(data))
    # forge a generator, and its digest, so that recomputation diverges
    data2 = json.loads(cert.to_json())
    data2["ideals"]["I"]["generators"] = ["x1"]
    data2["digests"]["I"] = cr._digest(data2["order"], data2["ideals"]["I"])
    assert not cr.verify_certificate(cr.Certificate(data2))


def test_replay_rejects_unknown_step():
    R = fp.ring_new(2, ["x"])
    data = {
        "kind": "CharP",
        "library_version": "0",
        "ring": {"p": 2, "vars": ["x"]},
        "order": "lex",
        "ideals": {},
        "digests": {},
        "witness": {},
        "steps": [{"op": "bogus", "args": {}, "expect": {}, "ok": True}],
        "conclusion": {},
    }
    with pytest.raises(fp.FieldPolyError):
        cr.replay(cr.Certificate(data))


def test_soundness_harness_zero_failures_on_corpus(ring5):
    # every certificate the corpus produces must pass its conclusion check;
    # a SoundnessError anywhere here is a library bug
    corpus = []
    R22 = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    corpus.append((gb.ideal(R22, [R22.parse("x1*x4 - x2*x3")]), fp.lex()))
    ring23, I23 = minors_2x3(p=2)
    corpus.append((I23, fp.lex()))
    corpus.append((deformed_minors_ideal(ring5), fp.lex()))
    R4 = fp.ring_new(5, ["x", "y", "z", "t"])
    corpus.append((gb.ideal(R4, [R4.parse("t*x^3 + t*y^3 + t*z^3 + x*y*z")]), fp.grevlex()))
    hits = 0
    for I, order in corpus:
        res = cr.charp_certificate(I, order)
        if isinstance(res, cr.Certificate):
            hits += 1
            assert all(
                fp.ring_new(I.ring.p, I.ring.names).parse(t).leading_monomial(order).is_squarefree()
                for t in res.data["conclusion"]["initial_generators"]
            )
    assert hits >= 2


# -- tamper corpus ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tamper_corpus():
    """One small certificate of each kind, FSplit with both verdicts, as JSON data."""
    R4 = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    R2 = fp.ring_new(2, ["x", "y"])
    R5 = fp.ring_new(5, ["x", "y"])
    x, y = R2.parse("x"), R2.parse("y")
    certs = {
        "CharP": cr.charp_certificate(gb.ideal(R4, [R4.parse("x1*x4 - x2*x3")]), fp.lex()),
        "Symb": cr.symb_certificate([(gb.ideal(R2, [x]), y), (gb.ideal(R2, [y]), x)], fp.lex()),
        "Deformation": cr.deformation_fibers(gb.ideal(R5, [R5.parse("x^2 - y")]), (1, 1), fp.lex()),
        "FSplit": cr.fsplit_certificate(gb.ideal(R2, [R2.parse("x*y")]), fp.lex()),
        "FSplit-not": cr.fsplit_certificate(gb.ideal(R2, [R2.parse("x^2 - y^3")]), fp.grevlex()),
    }
    return {name: json.loads(cert.to_json()) for name, cert in certs.items()}


def _failure(data):
    """The obligation replay names as failed (None if verified), or the error it raises."""
    try:
        report = cr.replay(data)
    except fp.FieldPolyError as exc:
        return f"error: {exc}"
    assert report.ok is (report.failed is None)
    return report.failed


def _edit(value):
    """A different value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    return value[:-1] if value else ["x"]


def _mutants(data):
    """(label, mutant, the failure replay must name, or None for any failure or error)."""
    steps = data["steps"]

    def mutant(change):
        forged = copy.deepcopy(data)
        change(forged)
        return forged

    for i, step in enumerate(steps):
        dropped = f"step {i} {steps[i + 1]['op']}" if i + 1 < len(steps) else f"missing step {step['op']}"
        yield f"drop step {i}", mutant(lambda d: d["steps"].pop(i)), dropped
        if i + 1 < len(steps) and steps[i + 1] != step:
            swapped = mutant(lambda d: d["steps"].insert(i, d["steps"].pop(i + 1)))
            yield f"swap steps {i}, {i + 1}", swapped, f"step {i} {steps[i + 1]['op']}"
        for key, value in step["expect"].items():
            edited = mutant(lambda d: d["steps"][i]["expect"].update({key: _edit(value)}))
            yield f"edit step {i} expect {key}", edited, f"step {i} {step['op']}"
    for key, value in data["conclusion"].items():
        edited = mutant(lambda d: d["conclusion"].update({key: _edit(value)}))
        yield f"edit conclusion {key}", edited, "conclusion"
    for name in data["digests"]:
        yield f"zero digest {name}", mutant(lambda d: d["digests"].update({name: "0" * 64})), f"digest {name}"
    for name, entry in data["ideals"].items():
        # another ideal under an honest digest: a recomputation must tell
        altered = {**entry, "generators": entry["generators"][1:]}
        digest = cr._digest(data["order"], altered)
        yield f"alter ideal {name}", mutant(
            lambda d: (d["ideals"].update({name: altered}), d["digests"].update({name: digest}))
        ), None
    for kind in [*cr._KINDS, "Other"]:
        if kind != data["kind"]:
            yield f"relabel {kind}", mutant(lambda d: d.update(kind=kind)), None
    if "poly" in data["witness"]:
        poly = data["witness"]["poly"]
        i = next(i for i, s in enumerate(steps) if poly in s["args"].values())
        edited = mutant(lambda d: d["witness"].update(poly=_edit(poly)))
        yield "edit witness poly", edited, f"step {i} {steps[i]['op']}"
    unknown = "error: malformed certificate: certificate has unknown field 'extra'"
    yield "unknown top-level key", mutant(lambda d: d.update(extra=1)), unknown


@pytest.mark.parametrize("name", ["CharP", "Symb", "Deformation", "FSplit", "FSplit-not"])
def test_every_tampered_certificate_fails_naming_its_obligation(tamper_corpus, name):
    data = tamper_corpus[name]
    assert _failure(data) is None
    mutants = list(_mutants(data))
    assert len(mutants) > 3 * len(data["steps"])
    for label, forged, named in mutants:
        failure = _failure(forged)
        assert failure, label
        if named is not None:
            assert failure == named, label


def test_named_forgeries_fail_naming_their_obligation(tamper_corpus):
    charp = tamper_corpus["CharP"]
    forgeries = [
        (charp, lambda d: d.update(steps=[]), "missing step fedder_multiplier"),
        (charp, lambda d: d.update(steps=[s for s in d["steps"] if s["op"] == "divides"]), "step 0 divides"),
        (charp, lambda d: d.update(kind="FSplit"), "step 0 fedder_multiplier"),
        (charp, lambda d: d["digests"].update(I="0" * 64), "digest I"),
        (charp, lambda d: d["conclusion"].update(initial_generators=["x1^2"]), "conclusion"),
        (charp, lambda d: d["witness"].update(poly="x1"), "step 0 fedder_multiplier"),
        (charp, lambda d: d["steps"].reverse(), "step 0 squarefree_initial"),
        # a value a producer leaves open cannot be left open in a recorded certificate
        (charp, lambda d: d["steps"][3]["expect"].update(monomials=None), "step 3 squarefree_initial"),
    ]
    # an F-split verdict forged onto a certificate of the opposite one: the
    # pentagon edge ideal, and a cusp
    ring, I = pentagon_ideal()
    for cert in (cr.fsplit_certificate(I, fp.grevlex()).data, tamper_corpus["FSplit-not"]):
        assert cert["conclusion"]["f_split"] is False
        forgeries.append((
            cert,
            lambda d: (d["conclusion"].update(f_split=True), d["steps"].pop()),
            "missing step contained_in_variable_bracket",
        ))
    for data, forge, named in forgeries:
        forged = copy.deepcopy(data)
        forge(forged)
        assert not cr.verify_certificate(forged)
        assert _failure(forged) == named


def _rewitness(data, f):
    """The CharP certificate ``data`` with the witness f, recorded consistently:
    every step that names the witness or its leading monomial is rewritten."""
    order = fp.parse_order(data["order"])
    poly, lm = f.text(order), f.leading_monomial(order).text()
    forged = copy.deepcopy(data)
    forged["witness"].update(poly=poly, leading_monomial=lm)
    for step in forged["steps"]:
        if "poly" in step["args"]:
            step["args"]["poly"] = poly
        if step["op"] == "leading_monomial":
            step["expect"]["monomial"] = lm
        elif step["op"] == "divides":
            step["args"]["divisor"] = lm
    return forged


def test_forged_charp_witness_fails_at_its_obligation(tamper_corpus):
    # the witness f = x1*x4 + x2*x3 generates I = I^[2] : I.  f + x2 keeps the
    # leading monomial but leaves the colon; x1*f stays in the colon, but its
    # leading monomial x1^2*x4 does not divide the top monomial x1*x2*x3*x4
    data = tamper_corpus["CharP"]
    R = fp.ring_new(2, data["ring"]["vars"])
    order = fp.lex()
    I = gb.ideal(R, [R.parse(t) for t in data["ideals"]["I"]["generators"]])
    f, g, x1 = R.parse(data["witness"]["poly"]), R.parse("x2"), R.parse("x1")
    assert _failure(_rewitness(data, f)) is None
    assert not fr.fedder_membership(g, I, order)
    assert (f + g).leading_monomial(order) == f.leading_monomial(order)
    assert _failure(_rewitness(data, f + g)) == "step 0 fedder_multiplier"
    assert fr.fedder_membership(x1 * f, I, order)
    assert _failure(_rewitness(data, x1 * f)) == "step 2 divides"


def test_charp_replay_forms_no_colon(monkeypatch, tamper_corpus):
    # the witness is checked by f * g ∈ I^[p] for each generator g: no Fedder
    # colon, no colon by elimination
    certs = [tamper_corpus["CharP"], cr.charp_certificate(minors_2x3(p=2)[1], fp.lex()).data]

    def no_colon(*args):
        raise AssertionError("a colon was formed")

    for module, name in ((cr, "fedder_colon"), (fr, "fedder_colon"), (fr, "colon_ideal"), (ops, "colon_ideal")):
        monkeypatch.setattr(module, name, no_colon)
    for data in certs:
        assert data["steps"][0]["op"] == "fedder_multiplier"
        assert _failure(data) is None


def test_recorded_target_matches_by_text_or_through_the_fallback(monkeypatch):
    # an honest target is recorded as its own reduced basis and matches it by
    # text; a permuted or non-reduced generating set of the same ideal
    # verifies through ideals_equal (so does C[1:]: over F_2 the first element
    # y^3*z^2 is y*(x^4 + y^2*z^2) + x*(x^3*y + x*y^2*z) + z*(x^2*y^2)), and
    # a larger ideal does not verify
    R = fp.ring_new(2, ["x", "y", "z"])
    data = cr.fsplit_certificate(gb.ideal(R, [R.parse("x^2 + y*z"), R.parse("x*y")]), fp.lex()).data
    C = data["ideals"]["C"]["generators"]
    assert len(C) == 5 and any("+" in g for g in C)
    calls, real = [], cr.ideals_equal
    monkeypatch.setattr(cr, "ideals_equal", lambda *a: calls.append(a) or real(*a))

    def recorded(gens):
        forged = copy.deepcopy(data)
        forged["ideals"]["C"]["generators"] = gens
        forged["digests"]["C"] = cr._digest(forged["order"], forged["ideals"]["C"])
        return forged

    assert _failure(recorded(C)) is None and not calls
    for gens in (C[::-1], [f"{C[0]} + {C[1]}"] + C[1:], C + [C[0]], C[1:]):
        calls.clear()
        assert _failure(recorded(gens)) is None and len(calls) == 1, gens
    assert _failure(recorded(C + ["x*y"])) == "step 0 bracket_colon"


def test_forged_symb_height_is_malformed_before_any_step(monkeypatch):
    # the witness height, the note and both symbolic powers raised to h > n,
    # the recorded heights left honest: no prime has that height, and P^h is
    # far outside the pair budget, so replay rejects it before any step runs
    R = fp.ring_new(3, ["x", "y", "z"])
    x, y, z = (R.parse(v) for v in "xyz")
    data = cr.symb_certificate([(gb.ideal(R, [x, z]), y), (gb.ideal(R, [y, z]), x)], fp.lex()).data
    assert _failure(data) is None

    def no_symbolic_power(*args):
        raise AssertionError("a symbolic power was computed")

    monkeypatch.setattr(cr, "symbolic_power_prime", no_symbolic_power)
    for h in (0, 4, 400):
        forged = copy.deepcopy(data)
        forged["witness"]["height"] = h
        for step in forged["steps"]:
            if step["op"] == "note" and step["args"]["text"].startswith("h = "):
                step["args"]["text"] = f"h = max of the heights = {h}"
            elif step["op"] == "symbolic_power":
                step["args"]["m"] = h
        assert _failure(forged) == f"error: malformed certificate: a Symb height lies in 1..3, got {h}"


def test_certificate_table_agrees_with_schema_and_replayer(tamper_corpus):
    schema = json.loads((DOCS / "output.schema.json").read_text())
    assert schema["definitions"]["certificate"]["properties"]["kind"]["enum"] == list(cr._KINDS)
    emitted = {step["op"] for data in tamper_corpus.values() for step in data["steps"]}
    assert emitted == set(cr._REPLAY)
