"""Certificate pipelines for squarefree initial ideals.

Four producers and a replayer:

* :func:`charp_certificate` looks for a reduced-basis element f of the
  Fedder colon ``I^[p] : I`` whose leading monomial divides the top monomial
  ``x_1^(p-1)...x_n^(p-1)``; such an element certifies that the initial ideal
  of I is squarefree.  The certificate records I alone: replay checks
  ``f * g ∈ I^[p]`` for every generator g of I, which is ``f ∈ I^[p] : I``,
  without forming the colon.
* :func:`symb_certificate` takes a radical ideal presented as primes with
  witnesses, forms the h-th symbolic power (h the maximal height, read off
  initial-ideal dimensions), and looks for a squarefree leading monomial in
  its reduced basis; success certifies that the initial ideal of the
  intersection is squarefree.
* :func:`deformation_fibers` certifies the two fibers of the weight
  homogenization: the special fiber is the weight-initial ideal, the general
  fiber is I itself.
* :func:`fsplit_certificate` records the graded Fedder test verdict.

A certificate is a JSON-ready record: ring, order, named ideals in canonical
text, a witness, an ordered verification log of typed steps, and the
conclusion.  One table, ``_KINDS``, gives each kind's steps and conclusion;
the producers emit them from it and :func:`replay` holds a certificate to it,
so no trust in the producer is required.  A producer holds its certificate to
the same steps before emitting it, by the function replay uses, and raises
SoundnessError naming the first step that fails; only the steps that hold by
construction are skipped.  The symbolic pipeline first checks the caller's
primality assertion: a failed conclusion there is an InconsistentInputError.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ._version import __version__
from .field_poly import (
    FieldPolyError,
    Monomial,
    RingContext,
    _extended_order,
    order_for_weight_refinement,
    parse_order,
    validate_weights,
)
from .groebner import (
    IdealPresentation,
    ideals_equal,
    initial_ideal,
    member,
    reduced_gb,
)
from .ideal_ops import (
    bracket_of_variables,
    dehomogenize_ideal,
    fiber_at_zero,
    homogenize_w,
    initial_forms_ideal,
    intersect_all,
    is_weight_homogeneous,
    monomial_dimension,
    symbolic_power_prime,
)
from .frobenius import fedder_colon, fedder_membership, fsplit_graded_test, top_monomial

FIELD_NOTE = (
    "computed over the prime field; reduced Groebner bases do not change "
    "under field extension, so the conclusion holds over any field of this "
    "characteristic"
)


class SoundnessError(RuntimeError):
    """A producer's own certificate failed one of its steps (a defect, not bad input)."""


class InconsistentInputError(FieldPolyError):
    """A caller assertion (primality of an input ideal) was contradicted."""


@dataclass(frozen=True)
class NotFound:
    """The sufficient condition did not hold; not a negative verdict."""

    reason: str
    details: dict

    def __bool__(self):
        return False


class Certificate:
    """A re-verifiable record of one criterion application."""

    def __init__(self, data: dict):
        self.data = data

    @property
    def kind(self) -> str:
        return self.data["kind"]

    @property
    def conclusion(self) -> dict:
        return self.data["conclusion"]

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, Certificate) and self.data == other.data

    def __bool__(self):
        return True


# -- construction helpers -------------------------------------------------------


def _digest(order_text: str, entry: dict) -> str:
    blob = json.dumps({"order": order_text, "ideal": entry}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _step(op: str, args: dict, expect: dict) -> dict:
    return {"op": op, "args": args, "expect": expect, "ok": True}


def _certificate(kind, ring, order, ideals: dict, witness: dict) -> Certificate:
    """Record the named ideals (one outside ``ring`` lies in the extended ring) and
    the witness, emit the kind's obligations as the steps, and derive the rest.

    Before the certificate is emitted, each step goes through :func:`_replay_step`
    on the producer's own ideals, which carry their cached bases: that fills the
    expected values the obligation leaves open and checks the others, and a
    step that fails raises SoundnessError.  Skipped are the steps that hold by
    construction: those that define a recorded ideal (``_DEFINING``) and those
    about the witness polynomial (``_WITNESS_ARGS``).
    """
    ctx = _ReplayContext(ring, order, ideals)
    data = {
        "kind": kind,
        "library_version": __version__,
        "ring": {"p": ring.p, "vars": list(ring.names)},
        "order": order.text(),
        "ideals": {},
        "digests": {},
        "witness": witness,
        "steps": [],
        "conclusion": {},
    }
    for name, J in ideals.items():
        where = "base" if J.ring == ring else "extended"
        if where == "extended":
            data["extended_ring"] = {"vars": list(J.ring.names)}
        entry = {"ring": where, "generators": [g.text(ctx.order_on(J.ring)) for g in J.generators]}
        data["ideals"][name] = entry
        data["digests"][name] = _digest(data["order"], entry)
    _, _, table = _KINDS[kind]
    obligations, outcome = table(ring, witness)
    for i, (op, args, expect) in enumerate(obligations):
        step = _step(op, args, expect)
        if op not in _DEFINING and not _WITNESS_ARGS & args.keys() and not _replay_step(ctx, step):
            raise SoundnessError(f"{kind} step {i} {op} does not hold for the certificate being produced")
        data["steps"].append(step)
    data.update(outcome(data["steps"], ctx.basis))
    return Certificate(data)


# -- the obligation table -----------------------------------------------------------
# For each kind, a function of the ring and the witness alone gives the
# obligations, rows (op, args, expect) in step order, and the outcome: the
# top-level fields (witness, conclusion, ...) as they follow from the steps
# once replay has confirmed their results, and from ``basis(name)``, the
# reduced basis of a named ideal in canonical text.  An expected value of
# _RESULT is left open: the producer records what the step's replay
# operation computes on its ideals, replay recomputes it.  _RESULT equals no
# JSON value, so no recorded certificate can leave a value open.

_RESULT = object()
_DEFINING = {"bracket_colon", "symbolic_power", "intersection", "weight_gb", "initial_forms", "homogenize"}
_WITNESS_ARGS = {"poly", "monomial", "divisor"}


def _charp(ring, w):
    poly, lm, top = w["poly"], w["leading_monomial"], top_monomial(ring).text()
    obligations = [
        ("fedder_multiplier", {"poly": poly, "ideal": "I"}, {"multiplier": True}),
        ("leading_monomial", {"poly": poly}, {"monomial": lm}),
        ("divides", {"divisor": lm, "multiple": top}, {"divides": True}),
        ("squarefree_initial", {"ideal": "I"}, {"monomials": _RESULT, "all_squarefree": True}),
    ]
    return obligations, lambda steps, basis: {
        "witness": {**w, "target": top},
        "conclusion": {
            "claim": "the initial ideal of I is generated by squarefree monomials",
            "initial_generators": steps[-1]["expect"]["monomials"],
            "field_note": FIELD_NOTE,
        },
    }


def _symb(ring, w):
    primes, h, poly, lm = w["prime_witnesses"], w["height"], w["poly"], w["leading_monomial"]
    names = [f"P{i + 1}" for i in range(len(primes))]
    if not names or list(primes) != names:
        raise FieldPolyError("a Symb certificate names its primes P1, ..., Pk (k >= 1)")
    if not 1 <= h <= ring.n:  # no prime has a larger height
        raise FieldPolyError(f"malformed certificate: a Symb height lies in 1..{ring.n}, got {h}")
    obligations = []
    for name, g in primes.items():
        obligations += [
            ("membership", {"poly": g, "ideal": name}, {"member": False}),
            ("initial_generators", {"ideal": name}, {"monomials": _RESULT}),
            ("monomial_dimension", {"ideal": name}, {"dimension": _RESULT, "height": _RESULT}),
        ]
    obligations.append(("note", {"text": f"h = max of the heights = {h}"}, {}))
    for name, g in primes.items():
        symb = {"ideal_equal": f"{name}_symb"}
        obligations.append(("symbolic_power", {"ideal": name, "m": h, "witness": g}, symb))
    obligations += [
        ("intersection", {"ideals": [f"{name}_symb" for name in names]}, {"ideal_equal": "I_symb"}),
        ("note", {"text": "a monomial ideal contains a squarefree monomial iff one of its minimal "
                  "generators is squarefree"}, {}),
        ("membership", {"poly": poly, "ideal": "I_symb"}, {"member": True}),
        ("leading_monomial", {"poly": poly}, {"monomial": lm}),
        ("squarefree_monomial", {"monomial": lm}, {"squarefree": True}),
        ("intersection", {"ideals": names}, {"ideal_equal": "I"}),
        ("squarefree_initial", {"ideal": "I"}, {"monomials": _RESULT, "all_squarefree": True}),
    ]

    def outcome(steps, basis):
        height = max(s["expect"]["height"] for s in steps if s["op"] == "monomial_dimension")
        return {
            "witness": {**w, "height": height},
            "conclusion": {
                "claim": "the initial ideal of the intersection of the given primes "
                "is generated by squarefree monomials",
                "initial_generators": steps[-1]["expect"]["monomials"],
                "height": height,
                "field_note": FIELD_NOTE,
            },
        }

    return obligations, outcome


def _deformation(ring, w):
    weights = list(validate_weights(ring, w["weights"]))
    obligations = [
        ("weight_gb", {"ideal": "I", "weights": weights}, {"ideal_equal": "W"}),
        ("initial_forms", {"ideal": "I", "weights": weights}, {"ideal_equal": "InW"}),
        ("homogenize", {"ideal": "I", "weights": weights}, {"ideal_equal": "H"}),
        ("fiber_zero", {"ideal": "H"}, {"ideal_equal": "InW"}),
        ("dehomogenize", {"ideal": "H"}, {"ideal_equal": "I"}),
        ("w_homogeneous", {"ideal": "H", "weights": weights}, {"homogeneous": True}),
    ]
    return obligations, lambda steps, basis: {
        "conclusion": {
            "claim": "the homogenized ideal defines a one-parameter family whose "
            "special fiber is the weight-initial ideal and whose general fiber "
            "is I",
            "special_fiber": basis("InW"),
        },
        "weights": weights,
    }


def _fsplit(ring, w):
    split = "poly" in w
    obligations = [("bracket_colon", {"ideal": "I"}, {"ideal_equal": "C"})]
    if split:
        obligations += [
            ("membership", {"poly": w["poly"], "ideal": "C"}, {"member": True}),
            ("outside_variable_bracket", {"poly": w["poly"]}, {"outside": True}),
        ]
    else:
        obligations.append(("contained_in_variable_bracket", {"ideal": "C"}, {"contained": True}))
    return obligations, lambda steps, basis: {
        "witness": {"poly": w["poly"]} if split else {},
        "conclusion": {
            "f_split": split,
            "claim": "the quotient by I is F-split" if split else "the quotient by I is not "
            "F-split: the Fedder colon lies inside the bracket of the variables",
        },
    }


# kind -> (witness shape, further top-level fields, the function giving the
# obligations and the outcome); shapes as for _check_shape.
_KINDS = {
    "CharP": ({"poly": str, "leading_monomial": str, "target": str}, {}, _charp),
    "Symb": (
        {"poly": str, "leading_monomial": str, "height": int, "prime_witnesses": {str: str}}, {}, _symb
    ),
    "Deformation": ({"weights": [int]}, {"extended_ring": {"vars": [str]}, "weights": [int]}, _deformation),
    "FSplit": ({str: str}, {}, _fsplit),
}
_FIELDS = {
    "kind": str,
    "library_version": str,
    "ring": {"p": int, "vars": [str]},
    "order": str,
    "ideals": {str: {"ring": str, "generators": [str]}},
    "digests": {str: str},
    "steps": [{"op": str, "args": dict, "expect": dict, "ok": bool}],
    "conclusion": dict,
}


# -- producers -------------------------------------------------------------------


def charp_certificate(I: IdealPresentation, order) -> Certificate | NotFound:
    """Squarefree-initial-ideal certificate through the Fedder colon."""
    ring = I.ring
    if I.is_zero:
        raise FieldPolyError("the zero ideal is not an admissible CharP input")
    top = top_monomial(ring)
    gbC = reduced_gb(fedder_colon(I, order), order)
    hit = next((g for g in gbC.elements if g.leading_monomial(order).divides(top)), None)
    if hit is None:
        return NotFound(
            "no minimal generator of the initial ideal of I^[p] : I divides the top monomial",
            {"initial_generators": [m.text() for m in gbC.leading_monomials()], "target": top.text()},
        )
    witness = {"poly": hit.text(order), "leading_monomial": hit.leading_monomial(order).text()}
    return _certificate("CharP", ring, order, {"I": I}, witness)


def symb_certificate(primes, order) -> Certificate | NotFound:
    """Squarefree-initial-ideal certificate through symbolic powers.

    ``primes`` is a sequence of (prime presentation, witness) pairs; the
    caller asserts primality, witnesses are verified to avoid their primes.
    """
    primes = list(primes)
    if not primes:
        raise FieldPolyError("at least one prime is required")
    ring = primes[0][0].ring
    for P, _ in primes:
        if P.ring != ring:
            raise FieldPolyError("primes from different rings")
        if P.is_zero:
            raise FieldPolyError("the zero ideal is not an admissible prime input")

    names = [f"P{i + 1}" for i in range(len(primes))]
    for name, (P, g) in zip(names, primes):
        if member(g, P, order):
            raise InconsistentInputError(
                f"witness for {name} lies inside the prime it must avoid"
            )
    h = max(ring.n - monomial_dimension(initial_ideal(P, order)) for P, _ in primes)

    symbolic_powers = [symbolic_power_prime(P, h, g, order) for P, g in primes]
    gb_ih = reduced_gb(intersect_all(symbolic_powers, order), order)
    hit = next((f for f in gb_ih.elements if f.leading_monomial(order).is_squarefree()), None)
    if hit is None:
        return NotFound(
            "no reduced-basis element of the symbolic power has a squarefree leading monomial",
            {"height": h, "leading_monomials": [m.text() for m in gb_ih.leading_monomials()]},
        )

    rad = reduced_gb(intersect_all([P for P, _ in primes], order), order).presentation()
    if not initial_ideal(rad, order).is_squarefree():
        raise InconsistentInputError(
            "the symbolic-power condition held but the initial ideal of the "
            "intersection is not squarefree; some input ideal is not prime"
        )

    ideals = {name: P for name, (P, _) in zip(names, primes)}
    for name, Q in zip(names, symbolic_powers):
        ideals[f"{name}_symb"] = reduced_gb(Q, order).presentation()
    ideals["I_symb"] = gb_ih.presentation()
    ideals["I"] = rad
    witness = {
        "poly": hit.text(order),
        "leading_monomial": hit.leading_monomial(order).text(),
        "height": h,
        "prime_witnesses": {name: g.text(order) for name, (P, g) in zip(names, primes)},
    }
    return _certificate("Symb", ring, order, ideals, witness)


def deformation_fibers(I: IdealPresentation, weights, order) -> Certificate:
    """Certificate that the weight homogenization has the two expected fibers."""
    ring = I.ring
    weights = validate_weights(ring, weights)
    gb_w = reduced_gb(I, order_for_weight_refinement(weights, order))
    H = homogenize_w(I, weights, order)
    in_w = initial_forms_ideal(I, weights, order)
    ideals = {"I": I, "W": gb_w.presentation(), "InW": in_w, "H": H}
    return _certificate("Deformation", ring, order, ideals, {"weights": list(weights)})


def fsplit_certificate(I: IdealPresentation, order) -> Certificate:
    """Certificate for the graded Fedder test (either verdict)."""
    test = fsplit_graded_test(I, order)
    ideals = {"I": I, "C": reduced_gb(test.colon, order).presentation()}
    witness = {"poly": test.witness.text(order)} if test.split else {}
    return _certificate("FSplit", I.ring, order, ideals, witness)


# -- replay -----------------------------------------------------------------------


@dataclass
class StepReplay:
    index: int
    op: str
    recorded_ok: bool
    recomputed_ok: bool


@dataclass
class VerificationReport:
    ok: bool
    steps: list
    failed: str | None = None  # the first obligation that does not hold

    def __bool__(self):
        return self.ok


def _check_shape(value, shape, where: str) -> None:
    """Raise FieldPolyError unless ``value`` has ``shape``: a JSON type, ``[item]``
    for a list, ``{str: item}`` for an object with any keys, or an object's keys
    and their shapes."""
    kind = shape if isinstance(shape, type) else type(shape)
    if type(value) is not kind:
        raise FieldPolyError(f"malformed certificate: {where} must be of type {kind.__name__}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{where}[{i}]")
    elif isinstance(shape, dict):
        if str not in shape and value.keys() != shape.keys():
            key = min(value.keys() ^ shape.keys())
            what = "lacks" if key in shape else "has unknown"
            raise FieldPolyError(f"malformed certificate: {where} {what} field {key!r}")
        for key, item in value.items():
            _check_shape(item, shape[str] if str in shape else shape[key], f"{where}.{key}")


def _validate(data):
    """Check the certificate's structure; return its kind's table function."""
    _check_shape(data, dict, "certificate")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FieldPolyError(f"unknown certificate kind {kind!r}")
    witness, fields, table = _KINDS[kind]
    _check_shape(data, {**_FIELDS, "witness": witness, **fields}, "certificate")
    for step in data["steps"]:
        if step["op"] not in _REPLAY:
            raise FieldPolyError(f"unknown certificate step {step['op']!r}")
    return table


def _deviation(steps: list, obligations: list) -> str | None:
    """Name the first recorded step that is not the obligation in its place."""
    for i, (op, args, expect) in enumerate(obligations):
        if i == len(steps):
            return f"missing step {op}"
        step, recorded = steps[i], steps[i]["expect"]
        if step["op"] == op and (step["args"].keys(), recorded.keys()) != (args.keys(), expect.keys()):
            raise FieldPolyError(
                f"malformed certificate: step {i} {op} takes args {sorted(args)}, expect {sorted(expect)}"
            )
        want = _step(op, args, {key: recorded.get(key) if v is _RESULT else v for key, v in expect.items()})
        if json.dumps(step, sort_keys=True) != json.dumps(want, sort_keys=True):
            return f"step {i} {step['op']}"
    if len(steps) > len(obligations):
        return f"step {len(obligations)} {steps[len(obligations)]['op']}"
    return None


class _ReplayContext:
    """The ring, the order and the named ideals the replay operations run on."""

    def __init__(self, ring: RingContext, order, ideals: dict):
        self.ring, self.order, self.ideals = ring, order, ideals

    @classmethod
    def parse(cls, data: dict) -> "_ReplayContext":
        """The context a certificate records, parsed from its canonical text."""
        base = RingContext(data["ring"]["p"], tuple(data["ring"]["vars"]))
        rings = {"base": base}
        ext = data.get("extended_ring")
        if ext is not None:
            names = tuple(ext["vars"])
            if names[:-1] != base.names:
                raise FieldPolyError("extended ring does not extend the base ring")
            rings["extended"] = base.extend(names[-1])
        ideals = {}
        for name, entry in data["ideals"].items():
            ring = rings.get(entry["ring"])
            if ring is None:
                raise FieldPolyError(f"ideal {name!r} lies in an unknown ring {entry['ring']!r}")
            gens = tuple(ring.parse(text) for text in entry["generators"])
            ideals[name] = IdealPresentation(ring, gens)
        return cls(base, parse_order(data["order"]), ideals)

    def order_on(self, ring: RingContext):
        """The order on the base ring, or its extension to the extended ring."""
        return self.order if ring == self.ring else _extended_order(self.order)

    def ideal(self, name: str) -> IdealPresentation:
        try:
            return self.ideals[name]
        except KeyError:
            raise FieldPolyError(f"certificate references unknown ideal {name!r}") from None

    def gb(self, name: str):
        return reduced_gb(self.ideal(name), self.order)

    def basis(self, name: str) -> list[str]:
        return [g.text(self.order) for g in self.gb(name).elements]

    def monomial(self, text: str) -> Monomial:
        f = self.ring.parse(text)
        terms = f.terms_dict()
        if len(terms) != 1 or list(terms.values()) != [1]:
            raise FieldPolyError(f"{text!r} is not a monomial")
        return Monomial(self.ring, next(iter(terms)))


def _squarefree_initial(ctx: _ReplayContext, a: dict) -> dict:
    leads = ctx.gb(a["ideal"]).leading_monomials()
    return {"monomials": [m.text() for m in leads], "all_squarefree": all(m.is_squarefree() for m in leads)}


def _monomial_dimension(ctx: _ReplayContext, a: dict) -> dict:
    dim = monomial_dimension(initial_ideal(ctx.ideal(a["ideal"]), ctx.order))
    return {"dimension": dim, "height": ctx.ring.n - dim}


# op -> recomputation from (context, args): an ideal, checked equal to the one
# ``expect["ideal_equal"]`` names, or the expected values themselves.  Library
# functions are looked up when called, so rebinding a module name reaches them.
_REPLAY = {
    "note": lambda ctx, a: {},
    "bracket_colon": lambda ctx, a: fedder_colon(ctx.ideal(a["ideal"]), ctx.order),
    "fedder_multiplier": lambda ctx, a: {
        "multiplier": fedder_membership(ctx.ring.parse(a["poly"]), ctx.ideal(a["ideal"]), ctx.order)
    },
    "initial_generators": lambda ctx, a: {"monomials": _squarefree_initial(ctx, a)["monomials"]},
    "membership": lambda ctx, a: {
        "member": member(ctx.ring.parse(a["poly"]), ctx.ideal(a["ideal"]), ctx.order)
    },
    "leading_monomial": lambda ctx, a: {
        "monomial": ctx.ring.parse(a["poly"]).leading_monomial(ctx.order).text()
    },
    "divides": lambda ctx, a: {"divides": ctx.monomial(a["divisor"]).divides(ctx.monomial(a["multiple"]))},
    "squarefree_monomial": lambda ctx, a: {"squarefree": ctx.monomial(a["monomial"]).is_squarefree()},
    "squarefree_initial": _squarefree_initial,
    "monomial_dimension": _monomial_dimension,
    "symbolic_power": lambda ctx, a: symbolic_power_prime(
        ctx.ideal(a["ideal"]), a["m"], ctx.ring.parse(a["witness"]), ctx.order
    ),
    "intersection": lambda ctx, a: intersect_all([ctx.ideal(n) for n in a["ideals"]], ctx.order),
    "weight_gb": lambda ctx, a: reduced_gb(
        ctx.ideal(a["ideal"]), order_for_weight_refinement(tuple(a["weights"]), ctx.order)
    ).presentation(),
    "initial_forms": lambda ctx, a: initial_forms_ideal(
        ctx.ideal(a["ideal"]), tuple(a["weights"]), ctx.order
    ),
    "homogenize": lambda ctx, a: homogenize_w(ctx.ideal(a["ideal"]), tuple(a["weights"]), ctx.order),
    "fiber_zero": lambda ctx, a: fiber_at_zero(ctx.ideal(a["ideal"])),
    "dehomogenize": lambda ctx, a: dehomogenize_ideal(ctx.ideal(a["ideal"])),
    "w_homogeneous": lambda ctx, a: {
        "homogeneous": all(
            is_weight_homogeneous(F, tuple(a["weights"])) for F in ctx.ideal(a["ideal"]).generators
        )
    },
    "outside_variable_bracket": lambda ctx, a: {
        "outside": not bracket_of_variables(ctx.ring).contains_polynomial(ctx.ring.parse(a["poly"]))
    },
    "contained_in_variable_bracket": lambda ctx, a: {
        "contained": all(
            bracket_of_variables(ctx.ring).contains_polynomial(g) for g in ctx.ideal(a["ideal"]).generators
        )
    },
}


def _replay_step(ctx: _ReplayContext, step: dict) -> bool:
    """Whether the step recomputes to its expected values, after filling the open ones."""
    got = _REPLAY[step["op"]](ctx, step["args"])
    expect = step["expect"]
    if not isinstance(got, IdealPresentation):
        expect.update({key: got[key] for key, want in expect.items() if want is _RESULT})
        return got == expect
    name = expect["ideal_equal"]
    target = ctx.ideal(name)
    if got.ring != target.ring:
        return False
    basis = reduced_gb(got, ctx.order_on(got.ring))
    if basis.elements == target.generators:
        # the target is recorded as this reduced basis; later steps reuse it
        ctx.ideals[name] = basis.presentation()
        return True
    return ideals_equal(got, target, basis.order)


def replay(cert: Certificate | dict) -> VerificationReport:
    """Hold the certificate to its kind's obligations; ``failed`` names the first miss.

    The recorded steps must be the obligations, the digests must match the
    ideals, every step must recompute to its recorded result (the steps are
    replayed only if the first two hold), and the witness and conclusion must
    follow from the results.  A malformed certificate raises FieldPolyError.
    """
    data = cert.data if isinstance(cert, Certificate) else cert
    table = _validate(data)
    ctx = _ReplayContext.parse(data)
    obligations, outcome = table(ctx.ring, data["witness"])
    ideals, digests = data["ideals"], data["digests"]
    failed = _deviation(data["steps"], obligations) or next(
        (f"digest {name}" for name in {**ideals, **digests}
         if digests.get(name) != _digest(data["order"], ideals.get(name))),
        None,
    )
    steps = []  # every recorded "ok" is true by now: the obligations fix it
    if failed is None:
        for i, step in enumerate(data["steps"]):
            steps.append(StepReplay(i, step["op"], step["ok"], _replay_step(ctx, step)))
        failed = next((f"step {s.index} {s.op}" for s in steps if not s.recomputed_ok), None)
    if failed is None:
        derived = outcome(data["steps"], ctx.basis)
        failed = next((key for key, value in derived.items() if data[key] != value), None)
    return VerificationReport(failed is None, steps, failed)


def verify_certificate(cert: Certificate | dict) -> bool:
    return replay(cert).ok
