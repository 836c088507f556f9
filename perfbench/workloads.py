"""Seeded job generators and output checks for the three workloads.

A workload is an endless sequence of *rotations*.  A rotation is a fixed list
of slots (family, shape, characteristic, command); for the CLI workloads the
seed draws what leaves a slot's cost unchanged: variable names, coefficient
scalings of the variables and the coefficients of deformation terms.  Every
job therefore gets its own problem text, parsed into a fresh
``RingContext`` and fresh ``IdealPresentation``s, so a process-wide cache
cannot make a repeat free, while the cost mix of a rotation stays the same
from seed to seed (relabelling a graph's vertices changes the cost of its
binomial edge ideal up to threefold).  Sweep instances are random in their
exponents and coefficients too: thousands of them per run average out.

Expected outcomes come from mathematics, never from the program:

* the pentagon is not F-split (``fsplit`` exits 1), generic 2x3 minors are
  (``fsplit`` exits 0);
* an intersection of coordinate primes passes the symbolic-power criterion
  iff all primes have the same height (a squarefree monomial lies in
  ``P^h`` for ``P = (x_i : i in S)`` iff its support contains ``h`` elements
  of ``S``);
* ``compatible_check(theta, J)`` for the standard splitting ``theta`` and a
  monomial ideal ``J`` holds iff ``J`` is squarefree;
* ``compatible_check(f, J)`` equals ``fedder_membership(f, J)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

STEM_LETTERS = "abcdefghjkmnqrsuvwz"

# Labelled graphs for binomial edge ideals.
GRAPHS = {
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "paw4": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "diamond4": (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    "path5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "fork5": (5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
    "triangletail5": (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
}
PENTAGON = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@dataclass
class Job:
    """One unit of work: a CLI invocation or one library-level sweep instance.

    ``files`` maps a file name to its text; the runner writes them into its
    work directory and substitutes ``{name}`` placeholders in ``argv`` with
    their paths.  ``expect`` is the set of exit codes that count as correct.
    """

    slot: str
    argv: list = field(default_factory=list)
    files: dict = field(default_factory=dict)
    expect: frozenset = frozenset({0})
    cert_out: bool = False
    payload: tuple = ()


class _Names:
    """Distinct seeded variable-name stems within one rotation."""

    def __init__(self, rng: random.Random, rotation: int):
        self.rng = rng
        self.rotation = rotation
        self.used: set[str] = set()

    def stem(self) -> str:
        while True:
            s = self.rng.choice(STEM_LETTERS) + self.rng.choice(STEM_LETTERS)
            if s not in self.used:
                self.used.add(s)
                return f"{s}{self.rotation}"


def _ring_line(p: int, names) -> str:
    return f"ring: p={p}; vars={','.join(names)}\n"


def _coef(c: int) -> str:
    return "" if c == 1 else f"{c}*"


def _bei_problem(rng, names: _Names, p: int, shape) -> str:
    """Binomial edge ideal of a graph with seeded names and variable scalings."""
    n, edges = shape
    stem = names.stem()
    xs = [f"{stem}x{i + 1}" for i in range(n)]
    ys = [f"{stem}y{i + 1}" for i in range(n)]
    a = [rng.randint(1, p - 1) for _ in range(n)]
    b = [rng.randint(1, p - 1) for _ in range(n)]
    gens = []
    for i, j in edges:
        gens.append(
            f"{_coef(a[i] * b[j] % p)}{xs[i]}*{ys[j]} - {_coef(a[j] * b[i] % p)}{xs[j]}*{ys[i]}"
        )
    return _ring_line(p, xs + ys) + "order: grevlex\nideal I: " + ", ".join(gens) + ";\n"


def _minors_problem(rng, names: _Names, p: int, deform: str | None, witness: bool = False) -> str:
    """2-minors of a 2x3 matrix with scaled entries, optionally deformed.

    ``deform="a"`` adds ``c * m22^2`` to the top-left corner and
    ``d * m12^2`` to the bottom-right one; ``deform="b"`` adds ``c * m21^2``
    to the top-right corner and ``d * m13^2`` to the bottom-left one.
    """
    stem = names.stem()
    m = [[f"{stem}m{r}{c}" for c in (1, 2, 3)] for r in (1, 2)]
    ent = [[f"{_coef(rng.randint(1, p - 1))}{m[r][c]}" for c in range(3)] for r in range(2)]
    c1, c2 = rng.randint(1, p - 1), rng.randint(1, p - 1)
    weights = None
    if deform == "a":
        ent[0][0] = f"{ent[0][0]} + {_coef(c1)}{m[1][1]}^2"
        ent[1][2] = f"{ent[1][2]} + {_coef(c2)}{m[0][1]}^2"
        weights = (2, 1, 1, 1, 1, 3)
    elif deform == "b":
        ent[0][2] = f"{ent[0][2]} + {_coef(c1)}{m[1][0]}^2"
        ent[1][0] = f"{ent[1][0]} + {_coef(c2)}{m[0][2]}^2"
        weights = (1, 1, 3, 3, 1, 1)
    gens = [
        f"({ent[0][i]})*({ent[1][j]}) - ({ent[0][j]})*({ent[1][i]})"
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    text = _ring_line(p, m[0] + m[1]) + "order: lex\n"
    if weights:
        text += f"weight: {','.join(map(str, weights))}\n"
    text += "ideal P: " + ", ".join(gens) + ";\n"
    if witness:
        text += f"witness P: {m[0][0]};\n"
    return text


def _coordinate_problem(names: _Names, p: int, n: int, heights) -> str:
    """Coordinate primes of the given heights on consecutive variables (cyclically),
    each with the first variable outside it as witness."""
    stem = names.stem()
    zs = [f"{stem}z{i + 1}" for i in range(n)]
    text = _ring_line(p, zs) + "order: lex\n"
    start = 0
    for k, h in enumerate(heights):
        support = [(start + i) % n for i in range(h)]
        start += h
        witness = next(i for i in range(n) if i not in support)
        text += f"ideal P{k + 1}: " + ", ".join(zs[i] for i in sorted(support)) + ";\n"
        text += f"witness P{k + 1}: {zs[witness]};\n"
    return text


def _cli_job(slot, cmd, text, expect, cert_out=False):
    argv = [cmd, "{problem}", "--json"]
    if cert_out:
        argv += ["--out", "{cert}"]
    return Job(slot, argv, {"problem": text}, frozenset(expect), cert_out)


# -- certify --------------------------------------------------------------------

# (family, command, p, shape/heights, expected exit codes)
# The pentagon anchor (2-3 s, the largest job) runs once per run, in rotation 0.
CERTIFY_ANCHOR = ("pentagon", "fsplit", 2, None, {1})
CERTIFY_SLOTS = [
    ("minors", "fsplit", 2, None, {0}),
    ("minors", "fsplit", 3, None, {0}),
    ("minors", "fsplit", 5, None, {0}),
    ("minors", "charp-cert", 2, None, {0, 1}),
    ("minors", "charp-cert", 3, None, {0, 1}),
    ("minors", "charp-cert", 5, None, {0, 1}),
    ("deformed_a", "charp-cert", 2, None, {0, 1}),
    ("deformed_a", "charp-cert", 3, None, {0, 1}),
    ("deformed_b", "charp-cert", 2, None, {0, 1}),
    ("deformed_a", "fsplit", 2, None, {0, 1}),
    ("deformed_b", "fsplit", 2, None, {0, 1}),
    ("deformed_b", "fsplit", 3, None, {0, 1}),
    ("deformed_a", "fibers", 2, None, {0}),
    ("deformed_b", "fibers", 2, None, {0}),
    ("deformed_a", "fibers", 3, None, {0}),
    ("deformed_b", "fibers", 3, None, {0}),
    ("deformed_a", "fibers", 5, None, {0}),
    ("deformed_b", "fibers", 5, None, {0}),
    ("coords", "symb-cert", 2, (1, 1, 1), {0}),
    ("coords", "symb-cert", 2, (2, 2), {0}),
    ("coords", "symb-cert", 2, (3, 3), {0}),
    ("coords", "symb-cert", 2, (2, 1), {1}),
    ("coords", "symb-cert", 3, (2, 2, 2), {0}),
    ("coords", "symb-cert", 3, (3, 3), {0}),
    ("coords", "symb-cert", 3, (3, 2, 1), {1}),
    ("coords", "symb-cert", 3, (1, 1), {0}),
    ("coords", "symb-cert", 3, (2, 2), {0}),
    ("bei", "fsplit", 2, "path4", {0, 1}),
    ("bei", "charp-cert", 2, "star4", {0, 1}),
    ("bei", "fsplit", 2, "paw4", {0, 1}),
    ("bei", "charp-cert", 2, "cycle4", {0, 1}),
    ("bei", "fsplit", 2, "cycle4", {0, 1}),
    ("bei", "fsplit", 2, "diamond4", {0, 1}),
    ("bei", "charp-cert", 2, "path5", {0, 1}),
    ("bei", "fsplit", 2, "fork5", {0, 1}),
    ("bei", "charp-cert", 2, "triangletail5", {0, 1}),
    ("bei", "fsplit", 3, "path4", {0, 1}),
    ("bei", "charp-cert", 3, "star4", {0, 1}),
    ("bei", "fsplit", 3, "paw4", {0, 1}),
    ("bei", "charp-cert", 3, "path4", {0, 1}),
]


def _certify_problem(rng, names, family, p, shape):
    if family == "pentagon":
        return _bei_problem(rng, names, p, PENTAGON)
    if family == "bei":
        return _bei_problem(rng, names, p, GRAPHS[shape])
    if family == "minors":
        return _minors_problem(rng, names, p, None)
    if family in ("deformed_a", "deformed_b"):
        return _minors_problem(rng, names, p, family[-1])
    if family == "coords":
        return _coordinate_problem(names, p, 5, shape)
    raise ValueError(family)


def _rotation_rng(seed: int, workload: str, rotation: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rotation}")


def certify_rotation(seed: int, rotation: int) -> list[Job]:
    rng = _rotation_rng(seed, "certify", rotation)
    names = _Names(rng, rotation)
    jobs = []
    slots = [CERTIFY_ANCHOR] + CERTIFY_SLOTS if rotation == 0 else CERTIFY_SLOTS
    for family, cmd, p, shape, expect in slots:
        text = _certify_problem(rng, names, family, p, shape)
        jobs.append(_cli_job(_slot_name(family, cmd, p, shape), cmd, text, expect, cert_out=True))
    return jobs


def _slot_name(family, cmd, p, shape) -> str:
    if isinstance(shape, tuple):
        shape = "h" + "-".join(map(str, shape))
    return "/".join(x for x in (cmd, family, shape, f"p{p}") if x)


# -- verify ---------------------------------------------------------------------

# (family, producing command, p, shape/heights); each slot yields one
# certificate, so every producer here must succeed on its family.
VERIFY_SLOTS = [
    ("minors", "charp-cert", 2, None),
    ("minors", "charp-cert", 3, None),
    ("minors", "charp-cert", 5, None),
    ("minors", "fsplit", 2, None),
    ("minors", "fsplit", 3, None),
    ("minors", "fsplit", 5, None),
    ("minors_witness", "symb-cert", 2, None),
    ("minors_witness", "symb-cert", 3, None),
    ("minors_witness", "symb-cert", 5, None),
    ("deformed_a", "fibers", 2, None),
    ("deformed_a", "fibers", 3, None),
    ("deformed_a", "fibers", 5, None),
    ("deformed_b", "fibers", 2, None),
    ("deformed_b", "fibers", 3, None),
    ("deformed_b", "fibers", 5, None),
    ("deformed_b", "fsplit", 2, None),
    ("deformed_b", "fsplit", 3, None),
    ("coords", "symb-cert", 2, (1, 1, 1)),
    ("coords", "symb-cert", 2, (2, 2)),
    ("coords", "symb-cert", 2, (2, 2, 2)),
    ("coords", "symb-cert", 2, (3, 3)),
    ("coords", "symb-cert", 3, (2, 2, 2)),
    ("coords", "symb-cert", 3, (3, 3)),
    ("coords", "symb-cert", 3, (1, 1)),
    ("bei", "fsplit", 2, "path4"),
    ("bei", "fsplit", 2, "star4"),
    ("bei", "fsplit", 2, "paw4"),
    ("bei", "fsplit", 2, "diamond4"),
    ("bei", "fsplit", 2, "path5"),
    ("bei", "fsplit", 2, "triangletail5"),
    ("bei", "fsplit", 3, "path4"),
    ("bei", "fsplit", 3, "star4"),
    ("bei", "fsplit", 3, "paw4"),
    ("coords", "symb-cert", 2, (1, 1)),
    ("coords", "symb-cert", 3, (2, 2)),
    ("coords", "symb-cert", 3, (1, 1, 1)),
    ("coords", "symb-cert", 2, (2, 2)),
    ("coords", "symb-cert", 3, (1, 1)),
    ("minors_witness", "symb-cert", 2, None),
    ("deformed_a", "fibers", 2, None),
    ("deformed_a", "fibers", 3, None),
    ("deformed_a", "fibers", 5, None),
    ("deformed_b", "fibers", 2, None),
    ("deformed_b", "fibers", 3, None),
    ("deformed_b", "fibers", 5, None),
]


def verify_producers(seed: int, rotation: int) -> list[Job]:
    """Certificate-producing jobs whose ``--out`` files the verify jobs replay."""
    rng = _rotation_rng(seed, "verify", rotation)
    names = _Names(rng, rotation)
    jobs = []
    for family, cmd, p, shape in VERIFY_SLOTS:
        if family == "minors_witness":
            text = _minors_problem(rng, names, p, None, witness=True)
        else:
            text = _certify_problem(rng, names, family, p, shape)
        jobs.append(_cli_job(_slot_name(family, cmd, p, shape), cmd, text, {0}, cert_out=True))
    return jobs


def verify_job(producer: Job, cert_text: str) -> Job:
    slot = "verify:" + producer.slot
    return Job(slot, ["verify-cert", "{cert}", "--json"], {"cert": cert_text}, frozenset({0}))


# -- sweep ----------------------------------------------------------------------

# (kind, p, n): "mono" checks compatible_check(theta, J) == J squarefree for a
# random monomial ideal with 1-3 generators; "fedder" checks
# compatible_check(f, J) == fedder_membership(f, J) for a random trinomial f
# of degree <= p + 1 and J generated by random polynomials of degree <= 2.
# The generators' shapes (numbers of terms) are fixed per repeat in
# FEDDER_SHAPES: the costliest instances set the p99.9 tail, and with random
# shapes their share, and with it the tail, moved from seed to seed.
SWEEP_SLOTS = [
    (kind, p, n)
    for kind in ("mono", "fedder")
    for p in (2, 3)
    for n in (1, 2, 3, 4)
    if not (kind == "fedder" and p == 3 and n == 4)
]
FEDDER_SHAPES = ((2, 2), (2, 1), (2,), (2,))
SWEEP_REPEAT = len(FEDDER_SHAPES)


def _random_poly_terms(rng, n, p, max_degree, terms):
    """``terms`` distinct random monomials of degree <= max_degree, nonzero coefficients."""
    coeffs = {}
    while len(coeffs) < terms:
        e = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(n)] += 1
        coeffs[tuple(e)] = rng.randint(1, p - 1)
    return coeffs


def sweep_rotation(seed: int, rotation: int) -> list[Job]:
    rng = _rotation_rng(seed, "sweep", rotation)
    jobs = []
    for shape in FEDDER_SHAPES:
        for kind, p, n in SWEEP_SLOTS:
            if kind == "mono":
                monos = [e for e in product(range(4), repeat=n) if any(e)]
                picked = rng.sample(monos, rng.randint(1, min(3, len(monos))))
                payload = (kind, p, n, [{e: 1} for e in picked], None)
            else:
                gens = [_random_poly_terms(rng, n, p, 2, terms) for terms in shape]
                payload = (kind, p, n, gens, _random_poly_terms(rng, n, p, p + 1, 3))
            jobs.append(Job(f"{kind}/p{p}/n{n}", payload=payload))
    return jobs


def _divides(d, e):
    return all(a <= b for a, b in zip(d, e))


def run_sweep_instance(lib, payload):
    """Run one sweep instance on freshly built objects; returns ``(verdicts, J, order)``."""
    kind, p, n, gens, f = payload
    ring = lib.field_poly.ring_new(p, [f"x{i}" for i in range(n)])
    order = lib.field_poly.grevlex() if kind == "fedder" else lib.field_poly.lex()
    J = lib.groebner.ideal(ring, [ring.polynomial(g) for g in gens])
    if kind == "mono":
        theta = lib.frobenius.standard_splitting_carrier(ring)
        return (lib.frobenius.compatible_check(theta, J, order),), J, order
    carrier = ring.polynomial(f)
    direct = lib.frobenius.compatible_check(carrier, J, order)
    return (direct, lib.frobenius.fedder_membership(carrier, J, order)), J, order


def sweep_verdicts_ok(payload, verdicts) -> bool:
    """Whether an instance's verdicts agree with the theorem it checks."""
    kind, _, _, gens, _ = payload
    if kind == "fedder":
        return verdicts[0] == verdicts[1]
    exps = [e for g in gens for e in g]
    minimal = [e for e in exps if not any(d != e and _divides(d, e) for d in exps)]
    return verdicts[0] == all(max(e) <= 1 for e in minimal)


def sweep_digest_text(lib, verdicts, J, order) -> str:
    """Canonical text of an instance's outcome: verdicts plus the colon basis."""
    parts = [repr(verdicts)]
    if len(verdicts) == 2:
        C = lib.frobenius.fedder_colon(J, order)
        parts += [g.text(order) for g in lib.groebner.reduced_gb(C, order).elements]
    return "\n".join(parts)


WORKLOADS = ("certify", "verify", "sweep")
