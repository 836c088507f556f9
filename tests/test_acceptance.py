"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints one ``ACCEPTANCE Cnn PASS`` line (visible with ``pytest -s``)
and enforces the stated runtime cap.  All expectations are exact; there are
no tolerances anywhere.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product

import pytest

from frobsplit import cli
from frobsplit import criteria as cr
from frobsplit import field_poly as fp
from frobsplit import frobenius as fr
from frobsplit import groebner as gb
from frobsplit import ideal_ops as ops

import oracle
from conftest import FIXTURES, deformed_minors_ideal, minors_2x3, pentagon_ideal, random_polynomial


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def pentagon():
    return pentagon_ideal()


def test_criterion_01_deformed_minors_initial_ideal():
    ring = fp.ring_new(5, ["x1", "x2", "x3", "x4", "x5"])
    I = deformed_minors_ideal(ring)
    t0 = time.perf_counter()
    M = gb.initial_ideal(I, fp.lex())
    elapsed = time.perf_counter() - t0
    got = sorted(m.text() for m in M.generators)
    assert got == ["x1*x2", "x1*x3", "x2*x3"]
    assert elapsed < 1.0
    report("C01", f"in(I) = (x1*x2, x1*x3, x2*x3) exactly, {elapsed:.3f}s < 1s")


def test_criterion_02_weighted_deformation_fibers(ring5):
    I = deformed_minors_ideal(ring5)
    w = (6, 24, 6, 3, 1)
    t0 = time.perf_counter()
    cert = cr.deformation_fibers(I, w, fp.lex())
    H = ops.homogenize_w(I, w, fp.lex())
    fiber0 = ops.fiber_at_zero(H)
    degenerate = gb.ideal(
        ring5,
        [
            ring5.parse("x4^4 - x1*x3"),
            ring5.parse("x3^4*x4^2 - x2*x4^2 - x1*x2"),
            ring5.parse("x3^5 - x2*x3 - x2*x4^2"),
        ],
    )
    same = gb.ideals_equal(fiber0, degenerate, fp.lex())
    elapsed = time.perf_counter() - t0
    assert cert.kind == "Deformation"
    assert all(step["ok"] for step in cert.data["steps"])
    assert same
    assert elapsed < 5.0
    report("C02", f"fiber certificate passed; t=0 fiber equals the degenerate minors, {elapsed:.2f}s < 5s")


def test_criterion_03_pentagon_not_f_split(pentagon):
    ring, I = pentagon
    o = fp.grevlex()
    t0 = time.perf_counter()
    outcome = fr.fsplit_graded_test(I, o)
    elapsed = time.perf_counter() - t0
    assert not outcome.split
    # the verdict means exactly: I^[2] : I is contained in the bracket of
    # the variables
    mbr = ops.bracket_of_variables(ring)
    for g in gb.reduced_gb(outcome.colon, o).elements:
        assert mbr.contains_polynomial(g)
    assert elapsed < 600.0
    report("C03", f"pentagon edge ideal not F-split (colon inside m^[2]), {elapsed:.1f}s < 600s")


def test_criterion_04_initial_form_trace_disjunction():
    rng = random.Random(20260811)
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        g = random_polynomial(rng, R, 6, max_terms=6, nonzero=True)
        w = tuple(rng.randint(1, 9) for _ in range(n))
        lhs = fr.trace(g.initial_w(w))
        checked += 1
        if lhs.is_zero:
            continue
        tg = fr.trace(g)
        if tg.is_zero or lhs != tg.initial_w(w):
            violations += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 1000 and violations == 0
    assert elapsed < 30.0
    report("C04", f"{checked} random (g, w): zero violations of the trace disjunction, {elapsed:.1f}s < 30s")


def test_criterion_05_standard_splitting_exhaustive():
    t0 = time.perf_counter()
    total = 0
    exceptions = 0
    for p in (2, 3):
        for n in (1, 2, 3):
            R = fp.ring_new(p, [f"x{i}" for i in range(n)])
            theta = fr.standard_splitting_carrier(R)
            o = fp.lex()
            monos = [e for e in product(range(4), repeat=n) if any(e)]
            for k in (1, 2, 3):
                for gens in combinations(monos, k):
                    J = gb.ideal(R, [R.polynomial({e: 1}) for e in gens])
                    squarefree = gb.MonomialIdeal(
                        R, tuple(R.monomial(e) for e in gens)
                    ).is_squarefree()
                    if fr.compatible_check(theta, J, o) != squarefree:
                        exceptions += 1
                    total += 1
    elapsed = time.perf_counter() - t0
    assert exceptions == 0
    assert elapsed < 60.0
    report("C05", f"{total} monomial ideals: compatible iff squarefree, zero exceptions, {elapsed:.1f}s < 60s")


def test_criterion_06_fedder_equivalence():
    rng = random.Random(77)
    checked = 0
    disagreements = 0
    while checked < 200:
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{k}" for k in range(n)])
        o = fp.grevlex()
        gens = [random_polynomial(rng, R, 2, max_terms=2) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        J = gb.ideal(R, gens)
        f = random_polynomial(rng, R, p + 1, max_terms=3)
        if fr.compatible_check(f, J, o) != fr.fedder_membership(f, J, o):
            disagreements += 1
        checked += 1
    assert disagreements == 0
    report("C06", f"{checked} random instances: enumeration and colon routes agree, zero disagreements")


def test_criterion_07_charp_soundness_across_corpus(pentagon, ring5):
    # the two required successes
    R22 = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    det = gb.ideal(R22, [R22.parse("x1*x4 - x2*x3")])
    ring23, I23 = minors_2x3(p=2)
    required = [(det, fp.lex()), (I23, fp.lex())]
    for I, order in required:
        res = cr.charp_certificate(I, order)
        assert isinstance(res, cr.Certificate)
    # full corpus: every success must carry a verified squarefree conclusion
    ring_p, I_p = pentagon
    R4 = fp.ring_new(5, ["x", "y", "z", "t"])
    cubic = gb.ideal(R4, [R4.parse("t*x^3 + t*y^3 + t*z^3 + x*y*z")])
    corpus = required + [
        (deformed_minors_ideal(ring5), fp.lex()),
        (cubic, fp.grevlex()),
        (I_p, fp.grevlex()),
    ]
    successes = 0
    failing_hits = 0
    for I, order in corpus:
        try:
            res = cr.charp_certificate(I, order)
        except cr.SoundnessError:
            failing_hits += 1
            continue
        if isinstance(res, cr.Certificate):
            successes += 1
            # independent conclusion re-check
            M = gb.initial_ideal(I, order)
            assert M.is_squarefree()
            assert sorted(res.data["conclusion"]["initial_generators"]) == sorted(
                m.text() for m in M.generators
            )
    assert successes >= 2 and failing_hits == 0
    report(
        "C07",
        f"{successes} certificate successes over {len(corpus)} corpus runs, "
        "zero sufficient-condition hits with failing conclusion",
    )


def test_criterion_08_symbolic_power_pipeline():
    ring23, P = minors_2x3(p=2)
    o = fp.lex()
    cert = cr.symb_certificate([(P, ring23.parse("x11"))], o)
    assert isinstance(cert, cr.Certificate)
    assert cert.data["witness"]["height"] == 2
    assert cert.data["witness"]["prime_witnesses"]["P1"] == "x11"
    assert all(step["ok"] for step in cert.data["steps"])
    R22 = fp.ring_new(2, ["x1", "x2", "x3", "x4"])
    det = gb.ideal(R22, [R22.parse("x1*x4 - x2*x3")])
    cert1 = cr.symb_certificate([(det, R22.parse("x1"))], o)
    assert isinstance(cert1, cr.Certificate)
    assert cert1.data["witness"]["height"] == 1
    report("C08", "symbolic-power certificates found: 2x3 minors at h=2 (witness x11) and principal prime at h=1")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(4242)
    matched = 0
    attempted = 0
    while matched < 200 and attempted < 500:
        attempted += 1
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        R = fp.ring_new(p, [f"x{i}" for i in range(n)])
        order = rng.choice([fp.lex(), fp.grevlex()])
        gens = [random_polynomial(rng, R, 3, max_terms=3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        res = oracle.stable_gb(R, gens, order, 6, 14)
        if res is None:
            continue
        cand, _ = res
        B = gb.reduced_gb(gb.ideal(R, gens), order)
        assert list(B.elements) == cand
        matched += 1
    assert matched >= 200
    report("C09", f"Buchberger output equals the Macaulay-matrix oracle on {matched} random ideals")


def _run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue()


def _corpus(tmp_path):
    fx = lambda name: str(FIXTURES / name)
    cert_out = str(tmp_path / "cert_2x3.json")
    runs = [
        (["gb", fx("minors_2x2.prob")], 0),
        (["gb", fx("deformed_minors.prob"), "--json"], 0),
        (["gb", fx("pentagon_edge.prob")], 0),
        (["gb", fx("cubic_family.prob"), "--json"], 0),
        (["nf", fx("minors_2x2.prob"), "--poly", "x1*x4", "--json"], 0),
        (["initial", fx("deformed_minors.prob"), "--json"], 0),
        (["initial", fx("pentagon_edge.prob")], 0),
        (["member", fx("minors_2x2.prob"), "--poly", "x1*x4 - x2*x3", "--json"], 0),
        (["member", fx("minors_2x2.prob"), "--poly", "x1"], 1),
        (["intersect", fx("coordinate_planes.prob"), "--json"], 0),
        (["colon", fx("coordinate_planes.prob"), "--ideal", "A", "--by", "x", "--json"], 0),
        (["colon", fx("coordinate_planes.prob"), "--ideal", "A", "--by-ideal", "B", "--json"], 0),
        (["saturate", fx("coordinate_planes.prob"), "--ideal", "A", "--by", "y", "--json"], 0),
        (["power", fx("minors_2x2.prob"), "-m", "2", "--json"], 0),
        (["bracket-power", fx("minors_2x2.prob"), "-e", "1", "--json"], 0),
        (["symbolic", fx("minors_2x3.prob"), "-m", "2", "--json"], 0),
        (["homogenize", fx("deformed_minors.prob"), "--json"], 0),
        (["fibers", fx("deformed_minors.prob"), "--json"], 0),
        (["dim", fx("minors_2x3.prob"), "--json"], 0),
        (["trace", fx("minors_2x2.prob"), "--poly", "x1*x2*x3*x4", "--json"], 0),
        (["star", fx("minors_2x2.prob"), "--poly", "x1*x2*x3*x4", "--on", "x1^2", "--json"], 0),
        (["is-splitting", fx("minors_2x2.prob"), "--poly", "x1*x2*x3*x4", "--json"], 0),
        (["is-splitting", fx("minors_2x2.prob"), "--poly", "x1", "--json"], 1),
        (["fedder", fx("minors_2x2.prob"), "--poly", "x1*x4 - x2*x3", "--json"], 0),
        (["compatible", fx("minors_2x2.prob"), "--poly", "x1*x4 - x2*x3", "--json"], 0),
        (["fsplit", fx("minors_2x3.prob"), "--json"], 0),
        (["fsplit", fx("pentagon_edge.prob"), "--json"], 1),
        (["charp-cert", fx("minors_2x2.prob"), "--json"], 0),
        (["charp-cert", fx("minors_2x3.prob"), "--out", cert_out, "--json"], 0),
        (["charp-cert", fx("deformed_minors.prob"), "--json"], 1),
        (["charp-cert", fx("cubic_family.prob"), "--json"], 1),
        (["charp-cert", fx("pentagon_edge.prob"), "--json"], 1),
        (["symb-cert", fx("minors_2x3.prob"), "--json"], 0),
        (["symb-cert", fx("coordinate_planes.prob"), "--json"], 0),
        (["verify-cert", cert_out, "--json"], 0),
        (["gb", fx("minors_2x2.prob"), "--budget-pairs", "1000000", "--json"], 0),
    ]
    return runs


def test_criterion_10_cli_determinism(tmp_path):
    import jsonschema

    from conftest import DOCS

    schema = json.loads((DOCS / "output.schema.json").read_text())
    runs = _corpus(tmp_path)
    first = []
    certs1 = {}
    for args, expected in runs:
        code, out = _run_cli(args)
        assert code == expected, f"{args} exited {code}, expected {expected}"
        if "--json" in args:
            jsonschema.validate(json.loads(out), schema)
        first.append(out)
    cert_file = tmp_path / "cert_2x3.json"
    certs1["cert"] = cert_file.read_bytes()
    second = []
    for args, expected in runs:
        code, out = _run_cli(args)
        assert code == expected
        second.append(out)
    assert first == second
    assert cert_file.read_bytes() == certs1["cert"]
    covered = {args[0] for args, _ in runs}
    assert covered == set(cli.SUBCOMMANDS)
    report(
        "C10",
        f"{len(runs)} CLI invocations covering all {len(covered)} subcommands "
        "ran twice with byte-identical stdout",
    )
