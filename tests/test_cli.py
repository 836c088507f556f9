import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest

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


def test_homogenize_and_fibers():
    code, payload = run_json(["homogenize", FDEF])
    assert code == 0 and payload["result"]["variables"][-1] == "t"
    code, payload = run_json(["fibers", FDEF])
    assert code == 0
    cert = payload["result"]["certificate"]
    assert cert["kind"] == "Deformation"


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
    cert["steps"][4]["expect"]["divides"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, payload = run_json(["verify-cert", str(bad)])
    assert code == 1 and payload["result"]["verified"] is False


def test_symb_cert_command():
    code, payload = run_json(["symb-cert", F2X3])
    assert code == 0
    assert payload["result"]["certificate"]["kind"] == "Symb"


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


def test_charp_cert_notfound_exit_one(tmp_path):
    prob = tmp_path / "sq.prob"
    prob.write_text("ring: p=2; vars=x\norder: lex\nideal I: x^2;\n")
    code, payload = run_json(["charp-cert", str(prob)])
    assert code == 1
    assert payload["result"]["not_found"]["reason"]


def test_error_exit_codes(tmp_path):
    code, out, err = run_cli(["gb", str(tmp_path / "missing.prob")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.prob"
    bad.write_text("ring: p=4; vars=x\n")
    code, payload = run_json(["gb", str(bad)])
    assert code == 2 and payload["error"]["type"] == "ParseError"
    code, payload = run_json(["gb", FDEF, "--budget-pairs", "1"])
    assert code == 3 and payload["error"]["type"] == "ResourceLimitError"


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
    proc = run_python("-c", "import sys, frobsplit.cli; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


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
