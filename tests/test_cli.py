import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit import cli
from frobsplit import field_poly as fp

from conftest import DOCS, FIXTURES, REPO

SCHEMA = json.loads((DOCS / "output.schema.json").read_text())


def test_shipped_schema_is_a_valid_draft7_schema():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def run_json(args):
    code, out, _ = run_cli(args + ["--json"])
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def run_python(*args):
    """Run a fresh interpreter with ``args``, the package importable from ``src``."""
    path = [str(REPO / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# -- problem files -----------------------------------------------------------------


def test_parse_problem_minimal():
    pf = cli.parse_problem(
        "ring: p=5; vars=x1,x2,x3,x4,x5\norder: lex\nideal I: x1*x4 - x2*x3;\n"
    )
    assert pf.ring.p == 5 and pf.ring.n == 5
    assert pf.order == fp.lex()
    assert list(pf.ideals) == ["I"]
    assert len(pf.ideals["I"].generators) == 1


def test_parse_problem_weight_order():
    pf = cli.parse_problem(
        "ring: p=5; vars=a,b,c,d,e\norder: weight(6,24,6,3,1; tie=grevlex)\nideal J: a;"
    )
    assert pf.order == fp.weight_order((6, 24, 6, 3, 1), "grevlex")


def test_parse_problem_fixture_has_three_minors():
    pf = cli.parse_problem((FIXTURES / "deformed_minors.prob").read_text())
    assert len(pf.ideals["I"].generators) == 3
    assert pf.weights == (6, 24, 6, 3, 1)


def test_problem_roundtrip_structural_equality():
    for name in [
        "deformed_minors.prob",
        "minors_2x2.prob",
        "minors_2x3.prob",
        "pentagon_edge.prob",
        "cubic_family.prob",
    ]:
        pf = cli.parse_problem((FIXTURES / name).read_text())
        again = cli.parse_problem(cli.problem_text(pf))
        assert again == pf
        assert cli.problem_text(again) == cli.problem_text(pf)


def test_problem_roundtrip_weight_order_and_witness():
    text = (
        "ring: p=5; vars=a,b\norder: weight(2,3; tie=lex)\nweight: 2,3\n"
        "ideal I: a^2 - b;\nwitness I: b;\n"
    )
    pf = cli.parse_problem(text)
    assert cli.parse_problem(cli.problem_text(pf)) == pf


def test_parser_never_crashes_on_garbage():
    import random as _random

    rng = _random.Random(5150)
    alphabet = "px=;,:vars+-*^()0123456789 abcdefg\n#_"
    for _ in range(400):
        blob = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        try:
            cli.parse_problem(blob)
        except fp.FieldPolyError:
            pass  # syntax and input-validation errors are the only failure modes


def test_parse_problem_reduces_large_coefficients():
    pf = cli.parse_problem("ring: p=5; vars=x\nideal I: 7*x;")
    assert pf.ideals["I"].generators[0] == pf.ring.parse("2*x")


def test_parse_problem_errors():
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ideal I: x;")  # ring must come first
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ring: p=4; vars=x")  # not prime
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ring: p=5; vars=x\nideal I: y;")  # unknown variable
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ring: p=5; vars=x\nwitness J: x;")  # undeclared ideal
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ring: p=5; vars=x\nring: p=5; vars=y\n")
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ring: p=5; vars=x\norder: lex\norder: grevlex\n")
    with pytest.raises(fp.ParseError):
        cli.parse_problem("ring: p=5; vars=x\nweight: 1\nweight: 2\n")
    for text, message in (
        ("ring: p=5; vars=x\nideal I: x;\nideal I: x^2;", "duplicate ideal 'I' (line 3, column 1)"),
        ("ring: p=5; vars=x\norder: revlex", "unknown order 'revlex' (line 2, column 8)"),
        ("ring: p=5; vars=x\norder: weight(1; tie=revlex)", "tiebreak must be lex or grevlex (line 2, column 22)"),
        ("ring: q=5; vars=x", "expected 'p=' (line 1, column 7)"),
    ):
        with pytest.raises(fp.ParseError) as exc:
            cli.parse_problem(text)
        assert str(exc.value) == message


# -- subcommands --------------------------------------------------------------------


F2X2 = str(FIXTURES / "minors_2x2.prob")
F2X3 = str(FIXTURES / "minors_2x3.prob")
FDEF = str(FIXTURES / "deformed_minors.prob")


def test_gb_and_initial_json():
    code, payload = run_json(["gb", F2X2])
    assert code == 0 and payload["result"]["basis"] == ["x1*x4 + x2*x3"]
    code, payload = run_json(["initial", FDEF])
    assert code == 0
    assert payload["result"]["generators"] == ["x2*x3", "x1*x3", "x1*x2"]
    assert payload["result"]["squarefree"] is True


def test_nf_member_exit_codes():
    code, payload = run_json(["nf", F2X2, "--poly", "x1*x4"])
    assert code == 0 and payload["result"]["normal_form"] == "x2*x3"
    code, payload = run_json(["member", F2X2, "--poly", "x1*x4 - x2*x3"])
    assert code == 0 and payload["result"]["member"] is True
    code, payload = run_json(["member", F2X2, "--poly", "x1"])
    assert code == 1 and payload["result"]["member"] is False


def test_ideal_algebra_commands(tmp_path):
    prob = tmp_path / "two.prob"
    prob.write_text(
        "ring: p=5; vars=x,y\norder: lex\nideal A: x^2, x*y;\nideal B: y^2;\n"
    )
    code, payload = run_json(["intersect", str(prob)])
    assert code == 0 and payload["result"]["generators"] == ["x*y^2"]
    code, payload = run_json(["colon", str(prob), "--ideal", "A", "--by", "x"])
    assert code == 0 and payload["result"]["generators"] == ["y", "x"]
    code, payload = run_json(["saturate", str(prob), "--ideal", "A", "--by", "x"])
    assert code == 0 and payload["result"]["saturation_exponent"] == 2
    code, payload = run_json(["power", str(prob), "--ideal", "B", "-m", "2"])
    assert code == 0 and payload["result"]["generators"] == ["y^4"]
    code, payload = run_json(["bracket-power", str(prob), "--ideal", "A", "-e", "1"])
    assert code == 0 and payload["result"]["generators"] == ["x^10", "x^5*y^5"]
    code, payload = run_json(["dim", str(prob), "--ideal", "A"])
    assert code == 0 and payload["result"]["dimension"] == 1


def test_symbolic_command_uses_file_witness():
    code, payload = run_json(["symbolic", F2X3, "-m", "2"])
    assert code == 0
    assert payload["result"]["witness"] == "x11"
    assert payload["result"]["saturation_exponent"] == 0
    # --witness overrides the file's witness; one inside the prime is an input error
    code, payload = run_json(["symbolic", F2X3, "-m", "2", "--witness", "x13"])
    assert code == 0 and payload["result"]["witness"] == "x13"
    code, payload = run_json(["symbolic", F2X3, "-m", "2", "--witness", "x11*x22 + x12*x21"])
    assert code == 2 and payload["error"]["type"] == "WitnessInPrimeError"


def test_homogenize_and_fibers():
    code, payload = run_json(["homogenize", FDEF])
    assert code == 0 and payload["result"]["variables"][-1] == "t"
    code, payload = run_json(["fibers", FDEF])
    assert code == 0
    cert = payload["result"]["certificate"]
    assert cert["kind"] == "Deformation"


def test_homogenize_and_fibers_under_a_weight_order(tmp_path):
    # the homogenized ideal lives in the ring extended by t, where
    # weight(1,2; tie=lex) is read as weight(1,2,1; tie=lex)
    prob = tmp_path / "weight.prob"
    prob.write_text("ring: p=5; vars=x,y\norder: weight(1,2; tie=lex)\nweight: 1,1\nideal I: x^2 - y;\n")
    plain = tmp_path / "plain.prob"
    plain.write_text("ring: p=5; vars=x,y\nweight: 1,1\nideal I: x^2 - y;\n")
    for args in ([str(prob)], [str(plain), "--order", "weight(1,2; tie=lex)"]):
        code, payload = run_json(["homogenize", *args])
        assert code == 0 and payload["result"]["generators"] == ["4*y*t + x^2"]
        cert = tmp_path / "fibers.json"
        code, payload = run_json(["fibers", *args, "--verify", "--out", str(cert)])
        assert code == 0 and payload["result"]["verified"] is True
        code, payload = run_json(["verify-cert", str(cert)])
        assert code == 0 and payload["result"]["verified"] is True


def test_frobenius_commands():
    code, payload = run_json(["trace", F2X2, "--poly", "x1*x2*x3*x4"])
    assert code == 0 and payload["result"]["trace"] == "1"
    code, payload = run_json(
        ["star", F2X2, "--poly", "x1*x2*x3*x4", "--on", "x1^2"]
    )
    assert code == 0 and payload["result"]["value"] == "x1"
    code, payload = run_json(["is-splitting", F2X2, "--poly", "x1*x2*x3*x4"])
    assert code == 0 and payload["result"]["splitting"] is True
    code, payload = run_json(["is-splitting", F2X2, "--poly", "x1"])
    assert code == 1 and payload["result"]["splitting"] is False
    code, payload = run_json(["fedder", F2X2, "--poly", "x1*x4 - x2*x3"])
    assert code == 0 and payload["result"]["member"] is True
    # the standard carrier is only compatible with squarefree monomial
    # ideals, and the determinant ideal is not monomial
    code, payload = run_json(["compatible", F2X2, "--poly", "x1*x2*x3*x4"])
    assert code == 1 and payload["result"]["compatible"] is False
    code, payload = run_json(["compatible", F2X2, "--poly", "x1*x4 - x2*x3"])
    assert code == 0 and payload["result"]["compatible"] is True


def test_certificate_commands_and_verify(tmp_path):
    out = tmp_path / "cert.json"
    code, payload = run_json(["charp-cert", F2X3, "--out", str(out), "--verify"])
    assert code == 0
    assert payload["result"]["verified"] is True
    cert = json.loads(out.read_text())
    assert cert["kind"] == "CharP"
    code, payload = run_json(["verify-cert", str(out)])
    assert code == 0 and payload["result"]["verified"] is True
    # tampered certificates fail with exit 1
    cert["steps"][2]["expect"]["divides"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, payload = run_json(["verify-cert", str(bad)])
    assert code == 1 and payload["result"]["verified"] is False


def test_verify_cert_names_the_failed_obligation(tmp_path):
    cert = tmp_path / "cert.json"
    run_cli(["charp-cert", F2X2, "--out", str(cert)])
    code, payload = run_json(["verify-cert", str(cert)])
    assert code == 0 and "failed" not in payload["result"]
    assert "failed obligation" not in run_cli(["verify-cert", str(cert)])[1]
    data = json.loads(cert.read_text())
    data["steps"][2]["expect"]["divides"] = False
    cert.write_text(json.dumps(data))
    code, payload = run_json(["verify-cert", str(cert)])
    assert code == 1 and payload["result"]["failed"] == "step 2 divides"
    code, out, _ = run_cli(["verify-cert", str(cert)])
    assert code == 1 and "\nfailed obligation: step 2 divides\nverified: False\n" in out


def test_usage_errors_under_json_print_an_envelope():
    for args, message in (
        (["nf", F2X2], "the following arguments are required: --poly"),
        (["gb", F2X2, "-m", "3"], "unrecognized arguments: -m 3"),
        (["gb", F2X2, "--budget-pairs", "abc"], "argument --budget-pairs: invalid int value: 'abc'"),
    ):
        code, payload = run_json(args)
        assert code == 2 and payload["command"] == args[0]
        assert payload["error"] == {"type": "UsageError", "message": message}
        # without --json, argparse reports them as always: usage on stderr, exit 2
        with pytest.raises(SystemExit) as exit_, redirect_stderr(io.StringIO()) as err:
            cli.main(args)
        assert exit_.value.code == 2 and err.getvalue().startswith("usage: frobsplit ")


def test_symb_cert_command():
    code, payload = run_json(["symb-cert", F2X3])
    assert code == 0
    assert payload["result"]["certificate"]["kind"] == "Symb"
    code, payload = run_json(["symb-cert", F2X3, "--witness", "x23", "--verify"])
    assert code == 0 and payload["result"]["verified"] is True
    assert payload["result"]["certificate"]["witness"]["prime_witnesses"] == {"P1": "x23"}
    code, payload = run_json(["symb-cert", F2X3, "--witness", "x11*x22 + x12*x21"])
    assert code == 2 and payload["error"]["type"] == "InconsistentInputError"
    assert payload["error"]["message"] == "witness for P1 lies inside the prime it must avoid"


@pytest.mark.parametrize("order", ["grevlex", "weight(1,1,1,1; tie=grevlex)"])
def test_symb_cert_verifies_outside_lex(tmp_path, order):
    # each prime's initial generators are recorded in reduced-basis order,
    # which replay reproduces under every order
    prob = tmp_path / "prime.prob"
    prob.write_text("ring: p=3; vars=x,y,z,w\nideal P: x - w, y*z - w^2;\nwitness P: y;\n")
    code, payload = run_json(["symb-cert", str(prob), "--order", order, "--verify"])
    assert code == 0 and payload["result"]["verified"] is True
    code, out, _ = run_cli(["symb-cert", str(prob), "--order", order, "--verify"])
    assert code == 0 and "verified by replay: True" in out


def test_fsplit_command_json():
    code, payload = run_json(["fsplit", F2X3])
    assert code == 0
    assert payload["result"]["certificate"]["conclusion"]["f_split"] is True


def test_verify_cert_accepts_every_certificate_kind(tmp_path):
    jobs = [
        (["charp-cert", F2X2], "charp.json"),
        (["symb-cert", F2X3], "symb.json"),
        (["fibers", FDEF], "fibers.json"),
        (["fsplit", F2X3], "fsplit.json"),
    ]
    for args, name in jobs:
        out = tmp_path / name
        code, _ = run_json(args + ["--out", str(out)])
        assert code == 0
        code, payload = run_json(["verify-cert", str(out)])
        assert code == 0 and payload["result"]["verified"] is True


def test_zero_ideal_has_the_unit_fedder_colon(tmp_path):
    # (0)^[p] : (0) = (1), so fedder agrees with compatible; the fsplit
    # certificate (witness 1, colon (1)) keeps its bytes and now replays
    prob = tmp_path / "zero.prob"
    prob.write_text("ring: p=3; vars=x,y\nideal I: 0;\n")
    for command, key in (("fedder", "member"), ("compatible", "compatible")):
        code, payload = run_json([command, str(prob), "--poly", "x*y"])
        assert code == 0 and payload["result"][key] is True
    cert = tmp_path / "cert.json"
    assert run_json(["fsplit", str(prob), "--out", str(cert)])[0] == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
        "058b2de374c6c37c97c9b69de16506e6816003336ea379e2ce9599151c22d5d5"
    )
    code, payload = run_json(["verify-cert", str(cert)])
    assert code == 0 and payload["result"]["verified"] is True
    code, payload = run_json(["charp-cert", str(prob)])
    assert code == 2 and payload["error"] == {
        "type": "FieldPolyError", "message": "the zero ideal is not an admissible CharP input"
    }


def test_fedder_colon_closed_forms_through_the_cli(tmp_path, monkeypatch):
    # (x - y*z, y^2 - z) has a reduced basis with disjoint leading supports
    # under lex, a complete intersection whose Fedder colon is closed: neither
    # the commands nor the replay eliminate.  x*(y, z) has a common factor and
    # (x*y - y*z, x^2) is a complete intersection only by its height; both
    # take elimination, with the verdicts of their closed forms
    from frobsplit import frobenius

    def no_elimination(*args):
        raise AssertionError("the Fedder colon took the elimination route")

    cases = [
        ("lex", "x - y*z, y^2 - z", "(x - y*z)^2*(y^2 - z)^2", True, True),
        ("lex", "x*y, x*z", "x^2*y^2*z^2", True, False),
        ("grevlex", "x*y - y*z, x^2", "x^4*(x*y - y*z)^2", False, False),
    ]
    for order, gens, member, split, closed in cases:
        with monkeypatch.context() as patch:
            if closed:
                patch.setattr(frobenius, "colon_ideal", no_elimination)
            prob = tmp_path / "I.prob"
            prob.write_text(f"ring: p=3; vars=x,y,z\norder: {order}\nideal I: {gens};\n")
            for poly, expected in ((member, True), ("x*y*z", False)):
                for command, key in (("fedder", "member"), ("compatible", "compatible")):
                    code, payload = run_json([command, str(prob), "--poly", poly])
                    assert (code, payload["result"][key]) == (0 if expected else 1, expected)
            cert = tmp_path / "cert.json"
            code, payload = run_json(["fsplit", str(prob), "--out", str(cert)])
            assert code == (0 if split else 1)
            assert payload["result"]["certificate"]["conclusion"]["f_split"] is split
            code, payload = run_json(["verify-cert", str(cert)])
            assert code == 0 and payload["result"]["verified"] is True


def test_commands_form_the_fedder_colon_at_most_once_per_presentation(tmp_path, monkeypatch):
    # fedder_colon keeps no memo, so no command may form the colon of one
    # presentation twice: fsplit and charp-cert, with and without --verify,
    # and verify-cert of their certificates
    from frobsplit import criteria, frobenius

    calls, original = [], frobenius.fedder_colon

    def counted(I, order):
        calls.append((I, order))
        return original(I, order)

    monkeypatch.setattr(frobenius, "fedder_colon", counted)
    monkeypatch.setattr(criteria, "fedder_colon", counted)
    not_split = tmp_path / "not_split.prob"
    not_split.write_text("ring: p=3; vars=x,y,z\norder: grevlex\nideal I: x*y - y*z, x^2;\n")
    cert = tmp_path / "cert.json"
    formed = []
    for prob in (FIXTURES / "minors_2x3.prob", not_split):
        for command in ("fsplit", "charp-cert"):
            for verify in ([], ["--verify"]):
                cert.unlink(missing_ok=True)
                for args in ([command, str(prob), "--out", str(cert)] + verify, ["verify-cert", str(cert)]):
                    if args[0] == "verify-cert" and not cert.exists():
                        continue
                    del calls[:]
                    assert run_json(args)[0] in (0, 1)
                    # the calls hold their presentations, so no two share an id
                    keys = [(id(I), order) for I, order in calls]
                    assert len(keys) == len(set(keys)), args
                    formed.append((args[0], len(calls)))
    # every producer forms the colon, and so does the replay of an FSplit certificate
    assert all(n for command, n in formed if command != "verify-cert")
    assert ("verify-cert", 1) in formed


def test_charp_cert_notfound_exit_one(tmp_path):
    prob = tmp_path / "sq.prob"
    prob.write_text("ring: p=2; vars=x\norder: lex\nideal I: x^2;\n")
    code, payload = run_json(["charp-cert", str(prob)])
    assert code == 1
    assert payload["result"]["not_found"]["reason"]


def test_gb_past_the_cap_by_tail_reduction_exits_2(tmp_path):
    # no new leading monomial passes MAX_EXPONENT, the reduced basis does
    prob = tmp_path / "tail.prob"
    prob.write_text("ring: p=3; vars=z,x,y\norder: lex\nideal I: z - x^3, x - y^1000000000;\n")
    code, payload = run_json(["gb", str(prob)])
    assert code == 2 and payload["error"] == {
        "type": "ExponentOverflowError", "message": "exponent 3000000000 exceeds MAX_EXPONENT"
    }


def test_error_exit_codes(tmp_path):
    code, out, err = run_cli(["gb", str(tmp_path / "missing.prob")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.prob"
    bad.write_text("ring: p=4; vars=x\n")
    code, payload = run_json(["gb", str(bad)])
    assert code == 2 and payload["error"]["type"] == "ParseError"
    code, payload = run_json(["gb", FDEF, "--budget-pairs", "1"])
    assert code == 3 and payload["error"]["type"] == "ResourceLimitError"
    code, payload = run_json(["nf", F2X2, "--poly", "x1^2147483647*x1"])
    assert code == 2 and payload["error"]["type"] == "ExponentOverflowError"
    # ... and so is a reduced basis past the cap, from generators within it
    bad.write_text("ring: p=3; vars=x,y\norder: lex\nideal I: x - y^1500000000, x^2 - y;\n")
    code, payload = run_json(["gb", str(bad)])
    assert code == 2 and payload["error"] == {
        "type": "ExponentOverflowError", "message": "exponent 3000000000 exceeds MAX_EXPONENT"
    }
    # weight vectors that do not fit name the flag, or the position in the file
    for weight in ("a,b,c,d,e", "1,0,1,1,1"):
        code, payload = run_json(["homogenize", FDEF, "--weight", weight])
        assert code == 2 and payload["error"]["type"] == "InputError"
        assert payload["error"]["message"] == f"--weight expects comma-separated positive integers, got {weight!r}"
    empty = tmp_path / "empty.prob"
    empty.write_text("ring: p=5; vars=a\n")
    code, payload = run_json(["gb", str(empty)])
    assert code == 2 and payload["error"]["type"] == "InputError"
    assert payload["error"]["message"] == "the problem file declares no ideals"
    code, payload = run_json(["gb", FDEF, "--order", "weight(1,2,3,4; tie=lex)"])
    assert code == 2 and payload["error"]["type"] == "InputError"
    assert payload["error"]["message"].startswith("--order: ")
    short = tmp_path / "short.prob"
    short.write_text("ring: p=5; vars=a,b,c\norder: weight(1,1; tie=lex)\nideal I: a*b;\n")
    code, payload = run_json(["gb", str(short)])
    assert code == 2 and payload["error"]["type"] == "ParseError"
    assert payload["error"]["message"].endswith("(line 2, column 8)")
    # a weight line of the wrong length or with a zero, and a witness for an
    # undeclared ideal, are reported at their statement's first token
    for line, message in (
        ("weight: 1,2", "weight vector length does not match the ring"),
        ("weight: 0,1,1", "weights must be strictly positive integers"),
        ("witness J: a;", "witness for undeclared ideal 'J'"),
    ):
        short.write_text(f"ring: p=5; vars=a,b,c\nideal I: a*b;\n  {line}\n")
        code, payload = run_json(["homogenize", str(short)])
        assert code == 2 and payload["error"]["type"] == "ParseError"
        assert payload["error"]["message"] == f"{message} (line 3, column 3)"
    # a witness before its ideal, or a second one for the same ideal, is
    # reported at its own first token when it is read
    for text, message in (
        ("  witness I: a;\nideal I: a*b;\n", "witness for undeclared ideal 'I' (line 2, column 3)"),
        ("ideal I: a*b; witness I: a;\n  witness I: b;\n", "duplicate witness for ideal 'I' (line 3, column 3)"),
    ):
        short.write_text(f"ring: p=5; vars=a,b,c\n{text}")
        code, payload = run_json(["homogenize", str(short)])
        assert code == 2 and payload["error"]["type"] == "ParseError"
        assert payload["error"]["message"] == message
    # integer literals too long for the interpreter to convert are a syntax
    # error at the literal: a coefficient, an exponent, a modulus
    digits = "7" * 5000
    short.write_text(f"ring: p={digits}; vars=a\n")
    for args, where in (
        (["nf", F2X2, "--poly", digits], "line 1, column 1"),
        (["nf", F2X2, "--poly", f"x2 + x1^{digits}"], "line 1, column 9"),
        (["gb", str(short)], "line 1, column 9"),
    ):
        code, payload = run_json(args)
        assert code == 2 and payload["error"]["type"] == "ParseError"
        assert payload["error"]["message"] == f"integer literal too long (5000 digits) ({where})"
    # ... and in an --order weight, which names the flag
    code, payload = run_json(["gb", F2X2, "--order", f"weight({digits},1,1,1; tie=lex)"])
    assert code == 2 and payload["error"]["type"] == "InputError"
    assert payload["error"]["message"] == "--order: weight too long (5000 digits)"
    # malformed certificate files: no fields, not an object, a step lacking an argument, too deep
    cert = tmp_path / "cert.json"
    assert run_cli(["charp-cert", F2X2, "--out", str(cert)])[0] == 0
    cert_text = cert.read_text()
    lacking = json.loads(cert_text)
    del lacking["steps"][0]["args"]["ideal"]
    for text in ("{}", "[1]", json.dumps(lacking)):
        cert.write_text(text)
        code, payload = run_json(["verify-cert", str(cert)])
        assert code == 2 and payload["error"]["type"] == "FieldPolyError"
    # too deep to decode, or an integer too long to convert
    assert '"p": 2,' in cert_text and '"order": "lex"' in cert_text
    long_p = cert_text.replace('"p": 2,', f'"p": {digits},', 1)
    for text in ("[" * 100000 + "]" * 100000, f"[{digits}]", long_p):
        cert.write_text(text)
        code, payload = run_json(["verify-cert", str(cert)])
        assert code == 2 and payload["error"]["type"] == "InputError"
        assert payload["error"]["message"].startswith("invalid certificate JSON")
    # an order weight too long to convert is a malformed certificate
    cert.write_text(cert_text.replace('"order": "lex"', f'"order": "weight({digits},1,1,1; tie=lex)"', 1))
    code, payload = run_json(["verify-cert", str(cert)])
    assert code == 2 and payload["error"]["type"] == "FieldPolyError"
    assert payload["error"]["message"] == "weight too long (5000 digits)"


def test_monomial_ideal_reduces_no_pairs(tmp_path):
    # a monomial ideal's reduced basis takes no S-pair, so a pair budget of 1 suffices
    mono = tmp_path / "mono.prob"
    mono.write_text("ring: p=5; vars=x,y,z\nideal I: x^2*y, x*y^2, y*z^3, x*z;\n")
    code, payload = run_json(["gb", str(mono), "--budget-pairs", "1"])
    assert code == 0
    assert payload["result"]["basis"] == ["x*z", "x*y^2", "x^2*y", "y*z^3"]


def test_pair_budget_bounds_the_whole_command(tmp_path):
    # pentagon fsplit reduces 1,684 S-pairs over 10 kernel runs, at most 508 in one
    pentagon = str(FIXTURES / "pentagon_edge.prob")
    code, payload = run_json(["fsplit", pentagon, "--budget-pairs", "1683"])
    assert code == 3 and payload["error"] == {
        "type": "ResourceLimitError", "message": "pair budget of 1683 exceeded"
    }
    assert run_json(["fsplit", pentagon, "--budget-pairs", "1684"])[0] == 1
    # charp-cert reduces 84 pairs and the replay of its certificate 2, for
    # the reduced basis of I (the witness is checked by multiplication, with
    # no colon); --verify draws both from one budget
    cert = str(tmp_path / "cert.json")
    assert run_json(["charp-cert", F2X3, "--budget-pairs", "85", "--out", cert])[0] == 0
    assert run_json(["verify-cert", cert, "--budget-pairs", "85"])[0] == 0
    code, payload = run_json(["charp-cert", F2X3, "--verify", "--budget-pairs", "85"])
    assert code == 3 and payload["error"]["type"] == "ResourceLimitError"
    code, payload = run_json(["charp-cert", F2X3, "--verify", "--budget-pairs", "86"])
    assert code == 0 and payload["result"]["verified"] is True


def test_bracket_power_exponent_is_bounded_before_any_power(tmp_path):
    # p^e past MAX_EXPONENT is refused before p**e or a scaled exponent is
    # formed, also for the zero and unit ideals, whose label would format it
    prob = tmp_path / "units.prob"
    prob.write_text("ring: p=2; vars=x\nideal Z: 0;\nideal U: 1;\n")
    for args in ([F2X2], [str(prob), "--ideal", "Z"], [str(prob), "--ideal", "U"]):
        start = time.perf_counter()
        code, payload = run_json(["bracket-power", *args, "-e", "1000000"])
        assert time.perf_counter() - start < 1
        assert code == 2 and payload["error"] == {
            "type": "ExponentOverflowError", "message": "bracket power 2^1000000 exceeds MAX_EXPONENT"
        }
    # 2^30 is the largest power of two within the cap
    code, payload = run_json(["bracket-power", F2X2, "-e", "30"])
    assert code == 0 and payload["result"]["generators"] == ["x1^1073741824*x4^1073741824 + x2^1073741824*x3^1073741824"]
    assert run_json(["bracket-power", F2X2, "-e", "31"])[0] == 2


def test_unexpected_exceptions_get_an_envelope(monkeypatch):
    _, *entry = cli._COMMANDS["gb"]
    for exc, code, kind, message in (
        (KeyError("k"), 2, "InternalError", "KeyError: 'k'"),
        (MemoryError(), 3, "MemoryError", ""),
        (RecursionError("too deep"), 3, "RecursionError", "too deep"),
    ):
        def handler(ctx, exc=exc):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "gb", (handler, *entry))
        got, payload = run_json(["gb", F2X2])
        assert got == code and payload["error"] == {"type": kind, "message": message}
    code, stdout, stderr = run_cli(["gb", F2X2])
    assert code == 3 and stdout == "" and stderr == "error: too deep\n"
    monkeypatch.setitem(cli._COMMANDS, "gb", (lambda ctx: 1 / 0, *entry))
    code, stdout, stderr = run_cli(["gb", F2X2])
    assert code == 2 and stdout == "" and "Traceback" in stderr
    assert stderr.endswith("error: ZeroDivisionError: division by zero\n")

    def interrupted(ctx):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "gb", (interrupted, *entry))
    with pytest.raises(KeyboardInterrupt):
        run_cli(["gb", F2X2, "--json"])


def test_order_override_flag():
    code, payload = run_json(["initial", F2X2, "--order", "grevlex"])
    assert code == 0 and payload["result"]["generators"] == ["x2*x3"]


def test_budget_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "1")
    code, payload = run_json(["gb", FDEF])
    assert code == 3
    monkeypatch.delenv(cli.BUDGET_ENV_VAR)
    code, payload = run_json(["gb", FDEF])
    assert code == 0


def test_budget_must_be_a_positive_integer(monkeypatch):
    for value in ("0", "-1"):
        code, payload = run_json(["gb", F2X2, "--budget-pairs", value])
        assert code == 2 and payload["error"]["type"] == "InputError"
        assert "--budget-pairs must be a positive integer" in payload["error"]["message"]
    for value in ("0", "-1", "abc"):
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, value)
        code, payload = run_json(["gb", F2X2])
        assert code == 2 and payload["error"]["type"] == "InputError"
        assert f"{cli.BUDGET_ENV_VAR} must be a positive integer" in payload["error"]["message"]


def test_unwritable_certificate_path_is_an_input_error(tmp_path):
    out = str(tmp_path / "missing" / "cert.json")
    code, payload = run_json(["charp-cert", F2X2, "--out", out])
    assert code == 2 and payload["error"]["type"] == "InputError"
    assert "cannot write certificate file" in payload["error"]["message"]
    code, stdout, stderr = run_cli(["charp-cert", F2X2, "--out", out])
    assert code == 2 and stdout == "" and stderr.startswith("error: cannot write certificate file")


def test_console_script_subprocess():
    # one end-to-end spawn to check packaging and argv handling
    proc = subprocess.run(
        [sys.executable, "-m", "frobsplit.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_cli_double_run_byte_identical():
    args = [
        ["gb", FDEF, "--json"],
        ["initial", FDEF],
        ["fibers", FDEF, "--json"],
        ["charp-cert", F2X3, "--json"],
        ["symb-cert", F2X3, "--json"],
    ]
    for a in args:
        code1, out1, _ = run_cli(list(a))
        code2, out2, _ = run_cli(list(a))
        assert (code1, out1) == (code2, out2)


def test_no_unclosed_files_in_dev_mode(tmp_path):
    cert = tmp_path / "cert.json"
    for argv in (["gb", F2X2], ["charp-cert", F2X2, "--out", str(cert)], ["verify-cert", str(cert)]):
        proc = run_python("-X", "dev", "-W", "error::ResourceWarning", "-m", "frobsplit.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


def test_cli_import_does_not_load_numpy():
    # every submodule of the package, not only the CLI, stays free of numpy
    code = (
        "import importlib, pkgutil, sys, frobsplit\n"
        "for m in pkgutil.iter_modules(frobsplit.__path__, 'frobsplit.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('frobsplit.')), 'numpy' in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.stdout.endswith(" False\n"), proc.stderr
    assert "'frobsplit.cli'" in proc.stdout and "'frobsplit.frobenius'" in proc.stdout


def test_deep_nesting_is_a_parse_error(tmp_path):
    depth = fp.MAX_NESTING
    code, _ = run_json(["trace", F2X2, "--poly", "(" * depth + "x1" + ")" * depth])
    assert code == 0
    deep = "(" * 5000 + "x1" + ")" * 5000
    prob = tmp_path / "deep.prob"
    prob.write_text(f"ring: p=5; vars=x1\nideal I: {deep};\n")
    # the offending "(" is the first one past the cap: line 2 of the file,
    # column 1 of the --poly text
    for args, where in (
        (["gb", str(prob)], f"line 2, column {len('ideal I: ') + depth + 1}"),
        (["trace", F2X2, "--poly", deep], f"line 1, column {depth + 1}"),
    ):
        code, out, err = run_cli(args)
        assert code == 2 and out == "" and where in err
        code, payload = run_json(args)
        assert code == 2 and payload["error"]["type"] == "ParseError"


def test_subcommand_registries_agree():
    assert tuple(SCHEMA["properties"]["command"]["enum"]) == cli.SUBCOMMANDS
    readme = (REPO / "README.md").read_text()
    listing = readme.split("Subcommands: ", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([a-z-]+)`", listing)) == cli.SUBCOMMANDS


# -- the CLI contract --------------------------------------------------------------

SOUP = ("ring", "order", "weight", "ideal", "witness", "p", "vars", "tie", "lex", "grevlex", "I", "J", "x", "y",
        "0", "1", "2", "3", "5", ":", ";", ",", "=", "(", ")", "+", "-", "*", "^", "#", "\n")


@st.composite
def problem_files(draw):
    """A well-formed problem over p in {2, 3, 5}, n <= 3, exponents <= 3, and
    strategies for the flags whose values live in its ring."""
    p, n = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 3))
    names = ("x", "y", "z")[:n]
    weights = st.lists(st.integers(1, 3), min_size=n, max_size=n).map(lambda w: ",".join(map(str, w)))
    orders = st.one_of(st.sampled_from(("lex", "grevlex")), st.builds(
        "weight({}; tie={})".format, weights, st.sampled_from(("lex", "grevlex"))))
    # two terms and two generators at most: the pair budget does not bound
    # the time a lex basis of larger ones can take
    term = st.tuples(st.integers(1, p - 1), st.lists(st.integers(0, 3), min_size=n, max_size=n))
    poly = st.lists(term, min_size=1, max_size=2).map(lambda terms: " + ".join(
        "*".join([str(c)] + [f"{v}^{e}" for v, e in zip(names, es) if e]) for c, es in terms))
    lines = [f"ring: p={p}; vars={','.join(names)}", f"order: {draw(orders)}", f"weight: {draw(weights)}"]
    for name in draw(st.sampled_from((["I"], ["I", "J"]))):
        lines.append(f"ideal {name}: {', '.join(draw(st.lists(poly, min_size=1, max_size=2)))};")
        if draw(st.booleans()):
            lines.append(f"witness {name}: {draw(poly)};")
    flags = {"--order": orders, "--weight": st.one_of(weights, st.just("1,0")),
             "poly": st.one_of(poly, st.sampled_from(("0", "1", "x + y")))}
    return "\n".join(lines) + "\n", flags


def token_soup():
    soup = st.lists(st.sampled_from(SOUP), max_size=30).map(" ".join)
    return st.tuples(soup, st.just({"poly": soup}))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_command_line_ends_in_a_documented_exit_code(tmp_path_factory, data):
    # any command on a well-formed problem or on token soup: exit 0-3, one
    # envelope that passes the schema under --json, never an internal error,
    # and every certificate emitted under --verify replays
    work = tmp_path_factory.getbasetemp() / "contract"
    work.mkdir(exist_ok=True)
    text, flags = data.draw(st.one_of(problem_files(), token_soup()))
    prob, cert = work / "problem.prob", work / "cert.json"
    prob.write_text(text)
    command = data.draw(st.sampled_from(cli.SUBCOMMANDS))
    if command == "verify-cert":
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            made = cli.main(["fsplit", str(prob), "--out", str(cert), "--budget-pairs", "500"]) in (0, 1)
        if not made:
            cert.write_text(text)
    flags = {
        **flags, "problem": st.just(str(prob)), "certificate": st.just(str(cert)), "--out": st.just(str(cert)),
        "--budget-pairs": st.integers(1, 500).map(str), "-m": st.integers(0, 2).map(str),
        "-e": st.integers(0, 2).map(str), "--ideal": st.sampled_from(("I", "J", "K")),
        "--by-ideal": st.sampled_from(("I", "J")), "--ideals": st.sampled_from(("I", "J", "I,J", "I,K")),
    }
    argv = [command]
    for flag, options in cli._COMMANDS[command][2]:
        if options.get("action") == "store_true":
            argv += [flag] if data.draw(st.booleans()) else []
        elif not flag.startswith("-"):
            argv.append(data.draw(flags[flag]))
        elif flag == "--budget-pairs" or options.get("required") or data.draw(st.integers(0, 3)) == 0:
            argv += [flag, data.draw(flags.get(flag, flags["poly"]))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error without --json
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--json" in argv:
        envelope = json.loads(out.getvalue())
        jsonschema.validate(envelope, SCHEMA)
        assert envelope.get("error", {}).get("type") != "InternalError", argv
        result = envelope.get("result", {})
        assert "certificate" not in result or "--verify" not in argv or result["verified"] is True, argv
    else:
        assert "verified by replay: False" not in out.getvalue(), argv
