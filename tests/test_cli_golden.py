"""Byte-identity of CLI output against digests recorded from an earlier release.

C10 checks that two runs of the same code agree; this test checks that the
code still prints what it printed when ``cli_golden.json`` was written.  Each
record is one invocation: its exit code and the SHA-256 of its stdout and
stderr, with the temporary directory replaced by ``<tmp>`` and the fixtures
directory by ``<fixtures>``.  The corpus is every C10 invocation, with and
without ``--json``, plus the error paths and zero-ideal edge cases below.

Regenerate the digests (only when an output change is intended) with
``PYTHONPATH=src:tests python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from frobsplit import cli

from conftest import FIXTURES
from test_acceptance import _corpus

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def _edge_cases(tmp: Path) -> list[list[str]]:
    fx = lambda name: str(FIXTURES / name)
    bad_ring = tmp / "bad_ring.prob"
    bad_ring.write_text("ring: p=4; vars=x\n")
    zero = str(tmp / "zero.prob")
    Path(zero).write_text("ring: p=5; vars=x,y\nideal Z: 0;\nideal A: x;\n")
    bad_json = tmp / "bad.json"
    bad_json.write_text("{not json")
    return [
        ["gb", str(tmp / "missing.prob")],
        ["gb", str(bad_ring)],
        ["gb", fx("deformed_minors.prob"), "--budget-pairs", "1"],
        ["gb", fx("minors_2x2.prob"), "--ideal", "nope"],
        ["colon", fx("coordinate_planes.prob"), "--ideal", "A"],
        ["intersect", fx("coordinate_planes.prob"), "--ideals", "A,B,A"],
        ["intersect", fx("minors_2x2.prob")],
        ["nf", fx("minors_2x2.prob"), "--poly", "x1 +"],
        ["homogenize", fx("minors_2x2.prob")],
        ["fibers", fx("deformed_minors.prob"), "--weight", "1,2"],
        ["symbolic", fx("cubic_family.prob"), "-m", "2"],
        ["symb-cert", fx("cubic_family.prob")],
        ["verify-cert", str(tmp / "missing.json")],
        ["verify-cert", str(bad_json)],
        ["nf", fx("minors_2x2.prob")],
        ["gb", zero],
        ["initial", zero],
        ["nf", zero, "--poly", "x"],
        ["intersect", zero],
        ["colon", zero, "--by", "x"],
        ["power", zero, "-m", "2"],
        ["homogenize", zero, "--weight", "1,1"],
    ]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def capture(tmp: Path) -> list[dict]:
    """Run the whole corpus in ``tmp`` and return one record per invocation."""

    def scrub(text: str) -> str:
        return text.replace(str(tmp), "<tmp>").replace(str(FIXTURES), "<fixtures>")

    def digest(text: str) -> str:
        return hashlib.sha256(scrub(text).encode()).hexdigest()

    runs = []
    for args, _ in _corpus(tmp):
        plain = [a for a in args if a != "--json"]
        runs += [plain, plain + ["--json"]]
    for args in _edge_cases(tmp):
        runs += [args, args + ["--json"]]
    records = []
    for argv in runs:
        code, out, err = _run(argv)
        records.append(
            {"argv": scrub(" ".join(argv)), "exit_code": code, "stdout": digest(out), "stderr": digest(err)}
        )
    cert = (tmp / "cert_2x3.json").read_text()
    records.append({"argv": "<certificate written by charp-cert --out>", "file": digest(cert)})
    return records


def test_cli_output_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    expected = json.loads(GOLDEN.read_text())
    got = capture(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, want["argv"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop(cli.BUDGET_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as d:
        records = capture(Path(d))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(records)} records to {GOLDEN}\n")
