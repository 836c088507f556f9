"""Command-line frontend.

Problem files declare a ring, an order, named ideals, and optional witnesses
and weight vectors (grammar in ``docs/problem_grammar.ebnf``).  Subcommands
dispatch to the library and print a human-readable report, or a JSON envelope
with ``--json``; certificates can be written to a file with ``--out`` and
re-verified with ``verify-cert``.

Exit codes: 0 success / certificate found / true verdict; 1 not-found or
false verdict; 2 input error; 3 resource budget exceeded.  Output is
byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field

from ._version import __version__
from .field_poly import (
    FieldPolyError,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingContext,
    TokenStream,
    grevlex,
    parse_order,
    parse_polynomial_stream,
    tokenize,
    weight_order,
)
from .groebner import (
    Budget,
    DEFAULT_MAX_PAIRS,
    IdealPresentation,
    ResourceLimitError,
    initial_ideal,
    member,
    normal_form,
    reduced_gb,
)
from . import criteria, frobenius, ideal_ops

BUDGET_ENV_VAR = "FROBSPLIT_BUDGET_PAIRS"


class InputError(FieldPolyError):
    """Problem-level input error (unknown ideal, missing witness, ...)."""


# -- problem files ---------------------------------------------------------------


@dataclass
class ProblemFile:
    """Parsed problem: ring, order, named ideals, optional witnesses/weights."""

    ring: RingContext
    order: MonomialOrder
    ideals: dict = dc_field(default_factory=dict)      # name -> IdealPresentation
    witnesses: dict = dc_field(default_factory=dict)   # ideal name -> Polynomial
    weights: tuple | None = None

    def ideal(self, name: str | None) -> tuple[str, IdealPresentation]:
        if not self.ideals:
            raise InputError("the problem file declares no ideals")
        if name is None:
            name = next(iter(self.ideals))
        elif name not in self.ideals:
            raise InputError(f"unknown ideal {name!r}")
        return name, self.ideals[name]


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; raises ParseError with positions on bad syntax."""
    ts = TokenStream(tokenize(text))
    ring: RingContext | None = None
    order: MonomialOrder | None = None
    weights: tuple | None = None
    ideals: dict[str, IdealPresentation] = {}
    witnesses: dict[str, Polynomial] = {}

    def need_ring(tok) -> RingContext:
        if ring is None:
            raise ParseError("the ring must be declared first", tok.line, tok.column)
        return ring

    def setting(key: str) -> None:
        kw = ts.expect("ident")
        if kw.value != key:
            raise ParseError(f"expected '{key}='", kw.line, kw.column)
        ts.expect("=")

    def comma_list(item) -> list:
        items = [item()]
        while ts.peek() is not None and ts.peek().kind == ",":
            ts.next()
            items.append(item())
        return items

    def integer() -> int:
        return int(ts.expect("int").value)

    while True:
        tok = ts.peek()
        if tok is None:
            break
        if tok.kind != "ident":
            raise ParseError(f"expected a statement, found {tok.value!r}", tok.line, tok.column)
        ts.next()
        if tok.value == "ring":
            if ring is not None:
                raise ParseError("duplicate ring declaration", tok.line, tok.column)
            ts.expect(":")
            setting("p")
            p = integer()
            ts.expect(";")
            setting("vars")
            names = comma_list(lambda: ts.expect("ident").value)
            try:
                ring = RingContext(p, tuple(names))
            except FieldPolyError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
        elif tok.value == "order":
            if order is not None:
                raise ParseError("duplicate order declaration", tok.line, tok.column)
            ts.expect(":")
            kind = ts.expect("ident")
            if kind.value in ("lex", "grevlex"):
                order = MonomialOrder(kind.value)
            elif kind.value == "weight":
                ts.expect("(")
                ws = comma_list(integer)
                ts.expect(";")
                setting("tie")
                tie = ts.expect("ident")
                if tie.value not in ("lex", "grevlex"):
                    raise ParseError("tiebreak must be lex or grevlex", tie.line, tie.column)
                ts.expect(")")
                try:
                    order = weight_order(tuple(ws), tie.value)
                except FieldPolyError as exc:
                    raise ParseError(str(exc), kind.line, kind.column) from None
            else:
                raise ParseError(f"unknown order {kind.value!r}", kind.line, kind.column)
        elif tok.value == "weight":
            if weights is not None:
                raise ParseError("duplicate weight declaration", tok.line, tok.column)
            ts.expect(":")
            weights = tuple(comma_list(integer))
        elif tok.value == "ideal":
            r = need_ring(tok)
            name = ts.expect("ident").value
            if name in ideals:
                raise ParseError(f"duplicate ideal {name!r}", tok.line, tok.column)
            ts.expect(":")
            gens = comma_list(lambda: parse_polynomial_stream(r, ts))
            ts.expect(";")
            ideals[name] = IdealPresentation(r, tuple(gens))
        elif tok.value == "witness":
            r = need_ring(tok)
            name = ts.expect("ident").value
            ts.expect(":")
            witnesses[name] = parse_polynomial_stream(r, ts)
            ts.expect(";")
        else:
            raise ParseError(f"unknown statement {tok.value!r}", tok.line, tok.column)

    if ring is None:
        raise ParseError("no ring declaration", 1, 1)
    if order is None:
        order = grevlex()
    for name in witnesses:
        if name not in ideals:
            raise ParseError(f"witness for undeclared ideal {name!r}", 1, 1)
    if weights is not None and len(weights) != ring.n:
        raise ParseError("weight vector length does not match the ring", 1, 1)
    return ProblemFile(ring, order, ideals, witnesses, weights)


def problem_text(pf: ProblemFile) -> str:
    """Canonical rendering; parse(problem_text(pf)) == pf."""
    lines = [
        f"ring: p={pf.ring.p}; vars={','.join(pf.ring.names)}",
        f"order: {pf.order.text()}",
    ]
    if pf.weights is not None:
        lines.append(f"weight: {','.join(map(str, pf.weights))}")
    for name, I in pf.ideals.items():
        gens = ", ".join(g.text(pf.order) for g in I.generators)
        lines.append(f"ideal {name}: {gens};")
    for name, w in pf.witnesses.items():
        lines.append(f"witness {name}: {w.text(pf.order)};")
    return "\n".join(lines) + "\n"


# -- dispatch -------------------------------------------------------------------
# Handlers reach the library through module attributes (``criteria.x``) or
# this module's imported names, looked up at call time: the benchmark traces
# the library by rebinding those names, which a stored reference would bypass.


@dataclass
class Outcome:
    exit_code: int
    human: str
    result: dict


@dataclass
class Context:
    """One invocation's inputs, resolved before the handler runs."""

    args: argparse.Namespace
    budget: Budget
    problem: ProblemFile | None = None  # None for verify-cert
    name: str | None = None  # the --ideal name and its ideal, for commands that take it
    ideal: IdealPresentation | None = None
    poly: Polynomial | None = None  # the parsed --poly, for commands that take it

    @property
    def order(self) -> MonomialOrder:
        return self.problem.order


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None


def _context(args) -> Context:
    """Resolve what the handlers share; input errors surface in the order below."""
    pairs = args.budget_pairs
    if pairs is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        pairs = int(env) if env else DEFAULT_MAX_PAIRS
    ctx = Context(args, Budget(max_pairs=pairs))
    if "problem" not in args:
        return ctx
    pf = ctx.problem = parse_problem(_read(args.problem, "problem"))
    if args.order:
        pf.order = parse_order(args.order)
    if "weight" in args and args.weight:
        pf.weights = tuple(int(x) for x in args.weight.split(","))
        if len(pf.weights) != pf.ring.n:
            raise InputError("weight vector length does not match the ring")
    if "ideal" in args:
        ctx.name, ctx.ideal = pf.ideal(args.ideal)
    if "weight" in args and pf.weights is None:
        raise InputError("no weight vector: add a 'weight:' line or pass --weight")
    if "poly" in args:
        ctx.poly = pf.ring.parse(args.poly)
    return ctx


def _witness(ctx: Context, name: str) -> Polynomial:
    if ctx.args.witness:
        return ctx.problem.ring.parse(ctx.args.witness)
    if name in ctx.problem.witnesses:
        return ctx.problem.witnesses[name]
    raise InputError(f"no witness for ideal {name!r}: add a witness line or pass --witness")


# -- renderers: generator listing, boolean verdict, certificate outcome ----------


def _listing(ctx: Context, head: str, R: IdealPresentation, result: dict, **after) -> Outcome:
    """Generator listing; the ``after`` fields follow ``generators`` in the result."""
    gens = [g.text(ctx.order) for g in R.generators]
    result.update(generators=gens, **after)
    return Outcome(0, head + "\n" + "\n".join(f"  {t}" for t in gens), result)


def _verdict(claim: str, ok: bool, result: dict, detail: str = "") -> Outcome:
    return Outcome(0 if ok else 1, f"{claim}: {ok}{detail}", result)


def _certificate(ctx: Context, res, fields: dict, headline: str, exit_code: int = 0) -> Outcome:
    if isinstance(res, criteria.NotFound):
        human = f"no certificate: {res.reason}\n  details: {json.dumps(res.details)}"
        return Outcome(1, human, {**fields, "not_found": asdict(res)})
    out = ctx.args.out
    verified = criteria.verify_certificate(res, ctx.budget) if ctx.args.verify else None
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(res.to_json())
    result = {"certificate": res.data, **fields}
    lines = [headline, f"certificate kind: {res.kind}"]
    lines += [f"  {key}: {val}" for key, val in res.conclusion.items()]
    if verified is not None:
        result["verified"] = verified
        lines.append(f"verified by replay: {verified}")
    if out:
        lines.append(f"certificate written to {out}")
    return Outcome(exit_code, "\n".join(lines), result)


def cmd_gb(ctx: Context) -> Outcome:
    o = ctx.order
    basis = [g.text(o) for g in reduced_gb(ctx.ideal, o, ctx.budget).elements]
    human = [f"reduced Groebner basis of {ctx.name} ({len(basis)} elements, order {o.text()}):"]
    human += [f"  {t}" for t in basis]
    return Outcome(0, "\n".join(human), {"ideal": ctx.name, "order": o.text(), "basis": basis})


def cmd_nf(ctx: Context) -> Outcome:
    f, o = ctx.poly, ctx.order
    gb = reduced_gb(ctx.ideal, o, ctx.budget)
    r = normal_form(f, gb.elements, o) if gb.elements else f
    result = {"ideal": ctx.name, "poly": f.text(o), "normal_form": r.text(o)}
    return Outcome(0, f"normal form of {f.text(o)} modulo {ctx.name}: {r.text(o)}", result)


def cmd_initial(ctx: Context) -> Outcome:
    M = initial_ideal(ctx.ideal, ctx.order, ctx.budget)
    gens = [m.text() for m in M.generators]
    sqf = M.is_squarefree()
    human = [f"initial ideal of {ctx.name} (order {ctx.order.text()}):"]
    human += [f"  {t}" for t in gens] + [f"squarefree: {sqf}"]
    return Outcome(0, "\n".join(human), {"ideal": ctx.name, "generators": gens, "squarefree": sqf})


def cmd_member(ctx: Context) -> Outcome:
    ok = member(ctx.poly, ctx.ideal, ctx.order, ctx.budget)
    f = ctx.poly.text(ctx.order)
    return _verdict(f"{f} in {ctx.name}", ok, {"ideal": ctx.name, "poly": f, "member": ok})


def cmd_intersect(ctx: Context) -> Outcome:
    spec = ctx.args.ideals
    names = spec.split(",") if spec else list(ctx.problem.ideals)[:2]
    if len(names) != 2:
        raise InputError("--ideals expects two comma-separated names" if spec
                         else "need two ideals in the problem file")
    (na, A), (nb, B) = [ctx.problem.ideal(n.strip()) for n in names]
    R = ideal_ops.intersect(A, B, ctx.order, ctx.budget)
    return _listing(ctx, f"{na} ∩ {nb}:", R, {"ideals": [na, nb]})


def cmd_colon(ctx: Context) -> Outcome:
    args, o = ctx.args, ctx.order
    if args.by_ideal:
        by, J = ctx.problem.ideal(args.by_ideal)
        R = ideal_ops.colon_ideal(ctx.ideal, J, o, ctx.budget)
    elif args.by:
        f = ctx.problem.ring.parse(args.by)
        R = ideal_ops.colon(ctx.ideal, f, o, ctx.budget)
        by = f.text(o)
    else:
        raise InputError("colon needs --by POLY or --by-ideal NAME")
    return _listing(ctx, f"{ctx.name} : {by}", R, {"ideal": ctx.name, "by": by})


def cmd_saturate(ctx: Context) -> Outcome:
    o = ctx.order
    f = ctx.problem.ring.parse(ctx.args.by)
    R = ideal_ops.saturate(ctx.ideal, f, o, ctx.budget)
    k = R.provenance["saturation_exponent"]
    head = f"{ctx.name} : ({f.text(o)})^inf  [stabilized after {k} colon steps]"
    return _listing(ctx, head, R, {"ideal": ctx.name, "by": f.text(o)}, saturation_exponent=k)


def cmd_power(ctx: Context) -> Outcome:
    m = ctx.args.m
    return _listing(ctx, f"{ctx.name}^{m}:", ideal_ops.power(ctx.ideal, m), {"ideal": ctx.name, "m": m})


def cmd_bracket_power(ctx: Context) -> Outcome:
    e = ctx.args.e
    R = ideal_ops.bracket_power(ctx.ideal, e)
    return _listing(ctx, f"{ctx.name}^[{ctx.problem.ring.p ** e}]:", R, {"ideal": ctx.name, "e": e})


def cmd_symbolic(ctx: Context) -> Outcome:
    m, o = ctx.args.m, ctx.order
    g = _witness(ctx, ctx.name)
    R = ideal_ops.symbolic_power_prime(ctx.ideal, m, g, o, ctx.budget)
    head = f"{ctx.name}^({m}) relative to witness {g.text(o)}:"
    fields = {"ideal": ctx.name, "m": m, "witness": g.text(o)}
    return _listing(ctx, head, R, fields, saturation_exponent=R.provenance["saturation_exponent"])


def cmd_homogenize(ctx: Context) -> Outcome:
    w = ctx.problem.weights
    H = ideal_ops.homogenize_w(ctx.ideal, w, ctx.order, ctx.budget)
    head = f"weight homogenization of {ctx.name} (weights {','.join(map(str, w))}, "
    head += f"new variable {H.ring.names[-1]}):"
    fields = {"ideal": ctx.name, "weights": list(w), "variables": list(H.ring.names)}
    return _listing(ctx, head, H, fields)


def cmd_fibers(ctx: Context) -> Outcome:
    cert = criteria.deformation_fibers(ctx.ideal, ctx.problem.weights, ctx.order, ctx.budget)
    headline = f"deformation fibers of {ctx.name}: both checks passed"
    return _certificate(ctx, cert, {"ideal": ctx.name}, headline)


def cmd_dim(ctx: Context) -> Outcome:
    M = initial_ideal(ctx.ideal, ctx.order, ctx.budget)
    dim = ideal_ops.monomial_dimension(M)
    height = ctx.problem.ring.n - dim
    gens = [m.text() for m in M.generators]
    result = {"ideal": ctx.name, "initial_generators": gens, "dimension": dim, "height": height}
    return Outcome(0, f"dim S/in({ctx.name}) = {dim}, height = {height}", result)


def cmd_trace(ctx: Context) -> Outcome:
    g, o = ctx.poly, ctx.order
    t = frobenius.trace(g)
    return Outcome(0, f"trace({g.text(o)}) = {t.text(o)}", {"poly": g.text(o), "trace": t.text(o)})


def cmd_star(ctx: Context) -> Outcome:
    f, o = ctx.poly, ctx.order
    g = ctx.problem.ring.parse(ctx.args.on)
    v = frobenius.star_apply(f, g)
    result = {"carrier": f.text(o), "arg": g.text(o), "value": v.text(o)}
    return Outcome(0, f"({f.text(o)} * trace)({g.text(o)}) = {v.text(o)}", result)


def cmd_is_splitting(ctx: Context) -> Outcome:
    f, o = ctx.poly, ctx.order
    chk = frobenius.is_splitting(f)
    violation = chk.violation.text() if chk.violation else None
    result = {"poly": f.text(o), "splitting": chk.ok, "violation": violation, "reason": chk.reason}
    detail = "" if chk.ok else f"\n  violation: {violation} ({chk.reason})"
    return _verdict(f"{f.text(o)} * trace is an F-splitting", chk.ok, result, detail)


def cmd_fedder(ctx: Context) -> Outcome:
    ok = frobenius.fedder_membership(ctx.poly, ctx.ideal, ctx.order, ctx.budget)
    f, name = ctx.poly.text(ctx.order), ctx.name
    return _verdict(f"{f} in {name}^[p] : {name}", ok, {"ideal": name, "poly": f, "member": ok})


def cmd_compatible(ctx: Context) -> Outcome:
    ok = frobenius.compatible_check(ctx.poly, ctx.ideal, ctx.order, ctx.budget)
    f, name = ctx.poly.text(ctx.order), ctx.name
    return _verdict(f"({f} * trace)({name}) ⊆ {name}", ok, {"ideal": name, "poly": f, "compatible": ok})


def cmd_fsplit(ctx: Context) -> Outcome:
    cert = criteria.fsplit_certificate(ctx.ideal, ctx.order, ctx.budget)
    split = cert.conclusion["f_split"]
    headline = f"S/{ctx.name} F-split: {split}"
    return _certificate(ctx, cert, {"ideal": ctx.name}, headline, 0 if split else 1)


def cmd_charp_cert(ctx: Context) -> Outcome:
    res = criteria.charp_certificate(ctx.ideal, ctx.order, ctx.budget)
    return _certificate(ctx, res, {"ideal": ctx.name}, f"certificate found for {ctx.name}")


def cmd_symb_cert(ctx: Context) -> Outcome:
    pf, spec = ctx.problem, ctx.args.ideals
    names = [n.strip() for n in spec.split(",")] if spec else list(pf.ideals)
    primes = [(pf.ideal(n)[1], _witness(ctx, n)) for n in names]
    res = criteria.symb_certificate(primes, ctx.order, ctx.budget)
    headline = f"certificate found for intersection of {', '.join(names)}"
    return _certificate(ctx, res, {"ideals": names}, headline)


def cmd_verify_cert(ctx: Context) -> Outcome:
    text = _read(ctx.args.certificate, "certificate")
    try:
        cert = criteria.Certificate.from_json(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid certificate JSON: {exc}") from None
    report = criteria.replay(cert, ctx.budget)
    steps = [
        {"index": s.index, "op": s.op, "recorded_ok": s.recorded_ok, "recomputed_ok": s.recomputed_ok}
        for s in report.steps
    ]
    human = [f"certificate kind: {cert.kind}", f"steps replayed: {len(steps)}"]
    for s in report.steps:
        mark = "ok" if (s.consistent and s.recomputed_ok) else "MISMATCH"
        human.append(f"  [{s.index}] {s.op}: {mark}")
    human.append("verified")  # the verdict line, completed by _verdict
    result = {"kind": cert.kind, "verified": report.ok, "steps": steps}
    return _verdict("\n".join(human), report.ok, result)


# -- the command table ------------------------------------------------------------
# name -> (handler, help, flags); a flag is (name, add_argument options).  The
# table's order is the order of SUBCOMMANDS, of the help listing and of the
# schema's command enum.

_COMMON = (
    ("--json", dict(action="store_true", help="emit a JSON envelope")),
    ("--budget-pairs", dict(type=int, help=f"Buchberger pair budget (default {DEFAULT_MAX_PAIRS}, "
                            f"or ${BUDGET_ENV_VAR})")),
)
_PROBLEM = (
    ("problem", dict(help="problem file")),
    ("--order", dict(help="override the order (lex, grevlex, weight(...; tie=...))")),
    *_COMMON,
)
_CERT = (
    ("--out", dict(help="write the certificate JSON to this file")),
    ("--verify", dict(action="store_true", help="replay the certificate before reporting")),
)
_IDEAL = ("--ideal", dict(help="ideal name (default: first in file)"))
_POLY = ("--poly", dict(required=True))
_M = ("-m", dict(type=int, required=True))
_WEIGHT = ("--weight", dict(help="comma-separated weights"))
_BY = ("--by", dict(help="colon by this polynomial"))
_BY_IDEAL = ("--by-ideal", dict(help="colon by this ideal"))
_BY_POLY = ("--by", dict(required=True))
_E = ("-e", dict(type=int, default=1))
_PAIR = ("--ideals", dict(help="two comma-separated ideal names"))
_PRIMES = ("--ideals", dict(help="comma-separated prime names (default: all)"))
_OVERRIDE = ("--witness", dict(help="witness override (single-prime runs)"))
_CARRIER = ("--poly", dict(required=True, help="carrier polynomial"))
_ON = ("--on", dict(required=True, help="argument polynomial"))

_COMMANDS = {
    "gb": (cmd_gb, "reduced Groebner basis", (*_PROBLEM, _IDEAL)),
    "nf": (cmd_nf, "normal form of a polynomial", (*_PROBLEM, _IDEAL, _POLY)),
    "initial": (cmd_initial, "initial ideal (minimal monomial generators)", (*_PROBLEM, _IDEAL)),
    "member": (cmd_member, "ideal membership", (*_PROBLEM, _IDEAL, _POLY)),
    "intersect": (cmd_intersect, "intersection of two ideals", (*_PROBLEM, _PAIR)),
    "colon": (cmd_colon, "colon by a polynomial or an ideal", (*_PROBLEM, _IDEAL, _BY, _BY_IDEAL)),
    "saturate": (cmd_saturate, "saturation by a polynomial", (*_PROBLEM, _IDEAL, _BY_POLY)),
    "power": (cmd_power, "ordinary ideal power", (*_PROBLEM, _IDEAL, _M)),
    "bracket-power": (cmd_bracket_power, "Frobenius bracket power I^[p^e]", (*_PROBLEM, _IDEAL, _E)),
    "symbolic": (cmd_symbolic, "symbolic power of a prime (witness-relative)",
                 (*_PROBLEM, _IDEAL, _M, ("--witness", {}))),
    "homogenize": (cmd_homogenize, "weight homogenization", (*_PROBLEM, _IDEAL, _WEIGHT)),
    "fibers": (cmd_fibers, "deformation fiber certificate", (*_PROBLEM, _IDEAL, *_CERT, _WEIGHT)),
    "dim": (cmd_dim, "dimension/height via the initial ideal", (*_PROBLEM, _IDEAL)),
    "trace": (cmd_trace, "trace map of a polynomial", (*_PROBLEM, _POLY)),
    "star": (cmd_star, "apply carrier * trace to a polynomial", (*_PROBLEM, _CARRIER, _ON)),
    "is-splitting": (cmd_is_splitting, "check the two splitting conditions", (*_PROBLEM, _POLY)),
    "fedder": (cmd_fedder, "membership in the Fedder colon I^[p] : I", (*_PROBLEM, _IDEAL, _POLY)),
    "compatible": (cmd_compatible, "direct compatibility check by coset enumeration",
                   (*_PROBLEM, _IDEAL, _POLY)),
    "fsplit": (cmd_fsplit, "graded Fedder test for F-splitness of S/I", (*_PROBLEM, _IDEAL, *_CERT)),
    "charp-cert": (cmd_charp_cert, "squarefree-initial-ideal certificate via the Fedder colon",
                   (*_PROBLEM, _IDEAL, *_CERT)),
    "symb-cert": (cmd_symb_cert, "squarefree-initial-ideal certificate via symbolic powers",
                  (*_PROBLEM, *_CERT, _PRIMES, _OVERRIDE)),
    "verify-cert": (cmd_verify_cert, "replay a certificate's verification log",
                    (("certificate", dict(help="certificate JSON file")), *_COMMON)),
}

SUBCOMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobsplit",
        description="Groebner bases over prime fields and Frobenius-splitting "
        "certificates for squarefree initial ideals.",
    )
    parser.add_argument("--version", action="version", version=f"frobsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            sp.add_argument(flag, **options)
    return parser


def _emit(args, code: int, body: dict, human: str, stream) -> int:
    if args.json:
        envelope = {"command": args.command, "ok": code == 0, "exit_code": code, **body}
        sys.stdout.write(json.dumps(envelope, indent=2) + "\n")
    else:
        stream.write(human + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        outcome = handler(_context(args))
    except ResourceLimitError as exc:
        code, error = 3, exc
    except (FieldPolyError, criteria.InconsistentInputError, ValueError) as exc:
        code, error = 2, exc
    else:
        return _emit(args, outcome.exit_code, {"result": outcome.result}, outcome.human, sys.stdout)
    body = {"error": {"type": type(error).__name__, "message": str(error)}}
    return _emit(args, code, body, f"error: {error}", sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
