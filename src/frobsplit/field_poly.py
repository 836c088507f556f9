"""Exact arithmetic over prime fields and sparse multivariate polynomials.

A ring ``F_p[x_1, ..., x_n]`` is a :class:`RingContext` fixing the prime
characteristic and the variable names.  Monomials are dense exponent tuples,
polynomials are immutable maps from exponent tuples to nonzero residues in
``[1, p)``.  Everything is a value: objects never mutate after construction,
so they are safe to share across threads.

Monomial orders (lex, grevlex, weight vector with tiebreak) compare monomials
through *additive integer key vectors*: ``key(m * m') == key(m) + key(m')``
componentwise, and lexicographic comparison of keys realises the order.  The
Buchberger kernel relies on this to sort and shift terms with plain tuple
arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

LT, EQ, GT = -1, 0, 1

# Bracket powers scale exponents by p^e; beyond this the build fails loudly
# instead of silently producing huge objects.  The modulus shares the cap so
# primality stays a cheap deterministic check.
MAX_EXPONENT = 2**31 - 1
MAX_MODULUS = 2**31 - 1
# The polynomial parser recurses once per open parenthesis (four frames per
# level); deeper input is rejected with a ParseError well before Python's
# recursion limit would turn it into a crash.
MAX_NESTING = 100


class FieldPolyError(ValueError):
    """Invalid ring, monomial or polynomial input."""


class RingMismatchError(FieldPolyError):
    """Operands belong to different rings."""


class ZeroPolynomialError(FieldPolyError):
    """Operation undefined for the zero polynomial."""


class ExponentOverflowError(FieldPolyError):
    """An exponent exceeded MAX_EXPONENT."""


class ParseError(FieldPolyError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def is_prime(p: int) -> bool:
    """Deterministic primality test by trial division (desk-scale moduli)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class RingContext:
    """The polynomial ring F_p[names].

    ``base`` links a ring created by :meth:`extend` back to the ring it
    extends (the new variable is always appended last); it does not take part
    in equality, so independently constructed rings with the same modulus and
    names are interchangeable.
    """

    p: int
    names: tuple[str, ...]
    base: "RingContext | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if self.p > MAX_MODULUS:
            raise FieldPolyError(f"characteristic {self.p} exceeds MAX_MODULUS")
        if not is_prime(self.p):
            raise FieldPolyError(f"characteristic {self.p} is not prime")
        if not self.names:
            raise FieldPolyError("a ring needs at least one variable")
        seen = set()
        for name in self.names:
            if not _IDENT_RE.match(name):
                raise FieldPolyError(f"invalid variable name {name!r}")
            if name in seen:
                raise FieldPolyError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FieldPolyError(f"unknown variable {name!r}") from None

    def element(self, value: int) -> "PrimeFieldElement":
        return PrimeFieldElement(self, value % self.p)

    def monomial(self, exponents) -> "Monomial":
        return Monomial(self, tuple(exponents))

    def monomial_one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)

    def polynomial(self, coeffs) -> "Polynomial":
        """Build a polynomial from an exponent-tuple -> integer mapping."""
        return Polynomial(self, coeffs)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.n: 1})

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.n: c})

    def variable(self, i: int) -> "Polynomial":
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def parse(self, text: str) -> "Polynomial":
        """Parse ``+ - * ^`` polynomial syntax; coefficients reduce mod p."""
        ts = TokenStream(tokenize(text))
        f = parse_polynomial_stream(self, ts)
        tok = ts.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.value!r} after polynomial", tok.line, tok.column)
        return f

    def extend(self, name: str | None = None) -> "RingContext":
        """Append one fresh variable (used for homogenization/elimination)."""
        if name is None:
            name = "t"
            k = 0
            while name in self.names:
                name = f"t{k}"
                k += 1
        elif name in self.names:
            raise FieldPolyError(f"variable {name!r} already in ring")
        return RingContext(self.p, self.names + (name,), base=self)


def ring_new(p: int, var_names) -> RingContext:
    """Create the ring F_p[var_names]; rejects non-prime p and duplicate names."""
    return RingContext(p, tuple(var_names))


@dataclass(frozen=True)
class PrimeFieldElement:
    """A residue in F_p; the modulus lives on the ring context."""

    ring: RingContext
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.ring.p)

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.ring.p != self.ring.p:
                raise RingMismatchError("elements of different prime fields")
            return other.value
        if isinstance(other, int):
            return other % self.ring.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.ring, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.ring, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.ring, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.ring, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return PrimeFieldElement(self.ring, self.value * pow(v, -1, self.ring.p))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PrimeFieldElement(self.ring, pow(self.value, k, self.ring.p))

    def __neg__(self):
        return PrimeFieldElement(self.ring, -self.value)

    def inverse(self) -> "PrimeFieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return PrimeFieldElement(self.ring, pow(self.value, -1, self.ring.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)


def _check_exponents(ring: RingContext, exponents: tuple) -> None:
    if len(exponents) != ring.n:
        raise FieldPolyError(
            f"exponent vector of length {len(exponents)} in a ring with {ring.n} variables"
        )
    for e in exponents:
        if not isinstance(e, int) or e < 0:
            raise FieldPolyError(f"invalid exponent {e!r}")
        if e > MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent {e} exceeds MAX_EXPONENT")


@dataclass(frozen=True)
class Monomial:
    """A power product, stored as a dense exponent tuple."""

    ring: RingContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        _check_exponents(self.ring, self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def weighted_degree(self, weights) -> int:
        if len(weights) != len(self.exponents):
            raise FieldPolyError("weight vector length does not match ring")
        return sum(w * e for w, e in zip(weights, self.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.ring != other.ring:
            raise RingMismatchError("monomials from different rings")
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("monomials from different rings")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        if not other.divides(self):
            raise FieldPolyError(f"{other} does not divide {self}")
        return Monomial(self.ring, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        if self.ring != other.ring:
            raise RingMismatchError("monomials from different rings")
        return Monomial(self.ring, tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def text(self) -> str:
        return monomial_text(self.ring, self.exponents)

    __str__ = text


def is_squarefree(m: Monomial) -> bool:
    """True iff every exponent of the monomial is at most 1."""
    return m.is_squarefree()


def monomial_text(ring: RingContext, exponents) -> str:
    parts = []
    for name, e in zip(ring.names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Term:
    """A monomial together with its nonzero coefficient."""

    monomial: Monomial
    coefficient: PrimeFieldElement


class Polynomial:
    """Immutable sparse polynomial with F_p coefficients.

    Internally a dict from exponent tuple to residue in ``[1, p)``; zero
    coefficients are never stored and the zero polynomial has no terms.
    Equality is term-set equality, independent of any monomial order.
    """

    __slots__ = ("ring", "_coeffs", "_hash")

    def __init__(self, ring: RingContext, coeffs):
        p = ring.p
        clean: dict[tuple, int] = {}
        for exps, c in dict(coeffs).items():
            exps = tuple(exps)
            _check_exponents(ring, exps)
            c = c % p
            if c:
                clean[exps] = c
        self.ring = ring
        self._coeffs = clean
        self._hash = None

    # -- interrogation ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def __len__(self):
        return len(self._coeffs)

    def terms_dict(self) -> dict[tuple, int]:
        """Copy of the exponent-tuple -> residue map."""
        return dict(self._coeffs)

    def support(self) -> tuple[Monomial, ...]:
        return tuple(
            Monomial(self.ring, e) for e in sorted(self._coeffs.keys())
        )

    def coefficient(self, m: Monomial) -> PrimeFieldElement:
        return PrimeFieldElement(self.ring, self._coeffs.get(m.exponents, 0))

    def constant_term(self) -> int:
        return self._coeffs.get((0,) * self.ring.n, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(sum(e) for e in self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def _same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_ring(other)
        p = self.ring.p
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._same_ring(other)
        p = self.ring.p
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            v = (out.get(e, 0) - c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {e: p - c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, PrimeFieldElement):
            return self.scale(other.value)
        self._same_ring(other)
        p = self.ring.p
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = (out.get(e, 0) + ca * cb) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, PrimeFieldElement)):
            return self.__mul__(other)
        return NotImplemented

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, {e: (c * v) % p for e, v in self._coeffs.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise FieldPolyError("negative polynomial power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def multiply_monomial(self, m: Monomial, c: int = 1) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        me = m.exponents
        return Polynomial(
            self.ring,
            {tuple(a + b for a, b in zip(e, me)): (v * c) % p for e, v in self._coeffs.items()},
        )

    def substitute(self, i: int, value: int) -> "Polynomial":
        """Substitute variable i by a field constant (stays in the same ring)."""
        p = self.ring.p
        value %= p
        out: dict[tuple, int] = {}
        for e, c in self._coeffs.items():
            scale = pow(value, e[i], p) if e[i] else 1
            ne = e[:i] + (0,) + e[i + 1 :]
            v = (out.get(ne, 0) + c * scale) % p
            if v:
                out[ne] = v
            else:
                out.pop(ne, None)
        return Polynomial(self.ring, out)

    # -- order-dependent views ----------------------------------------------

    def leading_term(self, order) -> Term:
        if not self._coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        key = order.key
        e = max(self._coeffs, key=key)
        return Term(Monomial(self.ring, e), PrimeFieldElement(self.ring, self._coeffs[e]))

    def leading_monomial(self, order) -> Monomial:
        return self.leading_term(order).monomial

    def leading_coefficient(self, order) -> PrimeFieldElement:
        return self.leading_term(order).coefficient

    def monic(self, order) -> "Polynomial":
        lc = self.leading_term(order).coefficient.value
        if lc == 1:
            return self
        return self.scale(pow(lc, -1, self.ring.p))

    def initial_w(self, weights) -> "Polynomial":
        """Sum of the terms of maximal weighted degree."""
        if not self._coeffs:
            raise ZeroPolynomialError("the zero polynomial has no initial form")
        validate_weights(self.ring, weights)
        best = None
        picked: dict[tuple, int] = {}
        for e, c in self._coeffs.items():
            d = sum(w * x for w, x in zip(weights, e))
            if best is None or d > best:
                best = d
                picked = {e: c}
            elif d == best:
                picked[e] = c
        return Polynomial(self.ring, picked)

    def weighted_degree(self, weights) -> int:
        if not self._coeffs:
            raise ZeroPolynomialError("the zero polynomial has no weighted degree")
        return max(sum(w * x for w, x in zip(weights, e)) for e in self._coeffs)

    def text(self, order=None) -> str:
        """Canonical text: terms descending under the order, coefficients in [1, p)."""
        if not self._coeffs:
            return "0"
        if order is None:
            order = grevlex()
        parts = []
        for e in sorted(self._coeffs, key=order.key, reverse=True):
            c = self._coeffs[e]
            mono = monomial_text(self.ring, e)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    __str__ = text

    def __repr__(self):
        return f"Polynomial({self.text()!r})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._coeffs == other._coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.p, self.ring.names, frozenset(self._coeffs.items())))
        return self._hash


# -- monomial orders --------------------------------------------------------


def validate_weights(ring: RingContext, weights) -> tuple[int, ...]:
    weights = tuple(weights)
    if len(weights) != ring.n:
        raise FieldPolyError("weight vector length does not match ring")
    if any((not isinstance(w, int)) or w <= 0 for w in weights):
        raise FieldPolyError("weights must be strictly positive integers")
    return weights


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a strictly positive weight vector with a tiebreak.

    ``key`` maps an exponent tuple to an integer tuple whose lexicographic
    comparison realises the order; keys are additive in the exponents.
    """

    kind: str
    weight: tuple[int, ...] | None = None
    tiebreak: str | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "weight"):
            raise FieldPolyError(f"unknown order kind {self.kind!r}")
        if self.kind == "weight":
            if self.weight is None:
                raise FieldPolyError("weight order needs a weight vector")
            object.__setattr__(self, "weight", tuple(self.weight))
            if any((not isinstance(w, int)) or w <= 0 for w in self.weight):
                raise FieldPolyError("weights must be strictly positive integers")
            if self.tiebreak not in ("lex", "grevlex"):
                raise FieldPolyError("weight order needs a lex or grevlex tiebreak")
        else:
            if self.weight is not None or self.tiebreak is not None:
                raise FieldPolyError(f"{self.kind} order takes no weight/tiebreak")

    def key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        kind = self.kind
        if kind == "lex":
            return exps
        if kind == "grevlex":
            return (sum(exps),) + tuple(-e for e in reversed(exps))
        w = self.weight
        if len(w) != len(exps):
            raise FieldPolyError("weight vector length does not match exponents")
        s = 0
        for wi, ei in zip(w, exps):
            s += wi * ei
        if self.tiebreak == "lex":
            return (s,) + exps
        return (s, sum(exps)) + tuple(-e for e in reversed(exps))

    def compare(self, a: Monomial, b: Monomial) -> int:
        """LT, EQ or GT for a versus b."""
        if a.ring != b.ring:
            raise RingMismatchError("monomials from different rings")
        ka, kb = self.key(a.exponents), self.key(b.exponents)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def text(self) -> str:
        if self.kind == "weight":
            return f"weight({','.join(map(str, self.weight))}; tie={self.tiebreak})"
        return self.kind


@dataclass(frozen=True)
class EliminationOrder:
    """Block order with the last ring variable infinitely larger than the rest.

    Used internally to eliminate an auxiliary variable; polynomials free of
    that variable are exactly those whose leading monomial is free of it.
    """

    base: MonomialOrder

    def key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        return (exps[-1],) + self.base.key(exps[:-1])

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a.exponents), self.key(b.exponents)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def text(self) -> str:
        return f"eliminate-last({self.base.text()})"


def lex() -> MonomialOrder:
    return MonomialOrder("lex")


def grevlex() -> MonomialOrder:
    return MonomialOrder("grevlex")


def weight_order(weights, tiebreak: str = "grevlex") -> MonomialOrder:
    return MonomialOrder("weight", tuple(weights), tiebreak)


def compare(order, a: Monomial, b: Monomial) -> int:
    """Total-order comparison of two monomials; returns LT, EQ or GT."""
    return order.compare(a, b)


def leading_term(f: Polynomial, order) -> Term:
    """Maximal term of a nonzero polynomial under the order."""
    return f.leading_term(order)


def initial_w(f: Polynomial, weights) -> Polynomial:
    """Sum of the terms of f with maximal weighted degree."""
    return f.initial_w(weights)


def order_for_weight_refinement(weights, order) -> MonomialOrder:
    """Weight order refining the given order's tiebreak discipline.

    The tiebreak is the order itself when it is lex/grevlex, and its own
    tiebreak when it is already a weight order.
    """
    if isinstance(order, MonomialOrder) and order.kind == "weight":
        tie = order.tiebreak
    elif isinstance(order, MonomialOrder):
        tie = order.kind
    else:
        raise FieldPolyError("cannot derive a tiebreak from this order")
    return weight_order(weights, tie)


_ORDER_TEXT_RE = re.compile(
    r"\s*weight\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*;\s*tie\s*=\s*(lex|grevlex)\s*\)\s*\Z"
)


def parse_order(text: str) -> MonomialOrder:
    """Inverse of ``MonomialOrder.text``."""
    s = text.strip()
    if s == "lex":
        return lex()
    if s == "grevlex":
        return grevlex()
    m = _ORDER_TEXT_RE.match(s)
    if m:
        weights = tuple(int(x) for x in m.group(1).split(","))
        return weight_order(weights, m.group(2))
    raise FieldPolyError(f"cannot parse monomial order {text!r}")


# -- tokenizer and polynomial parser -----------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int" or the operator character itself
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-+*^();:=,]|#[^\n]*|[ \t\r]+|\n")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if lexeme == "\n":
            line += 1
            col = 1
        elif lexeme[0] in " \t\r" or lexeme[0] == "#":
            col += len(lexeme)
        else:
            if lexeme[0].isdigit():
                kind = "int"
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                kind = "ident"
            else:
                kind = lexeme
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column + len(last.value))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.column)
        return tok


def parse_polynomial_stream(ring: RingContext, ts: TokenStream) -> Polynomial:
    """Parse one polynomial expression from a token stream.

    Stops before any token that cannot continue the expression (e.g. ``;`` or
    ``,``), which lets problem-file parsing reuse this routine.  Parentheses
    nest at most ``MAX_NESTING`` deep.
    """
    depth = 0

    def parse_atom() -> Polynomial:
        nonlocal depth
        tok = ts.next()
        if tok.kind == "int":
            return ring.constant(int(tok.value))
        if tok.kind == "ident":
            if tok.value not in ring.names:
                raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.column)
            return ring.variable(ring.names.index(tok.value))
        if tok.kind == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column)
            depth += 1
            f = parse_expr()
            ts.expect(")")
            depth -= 1
            return f
        raise ParseError(f"expected a term, found {tok.value!r}", tok.line, tok.column)

    def parse_factor() -> Polynomial:
        base = parse_atom()
        tok = ts.peek()
        if tok is not None and tok.kind == "^":
            ts.next()
            exp = ts.expect("int")
            return base ** int(exp.value)
        return base

    def parse_term() -> Polynomial:
        f = parse_factor()
        while True:
            tok = ts.peek()
            if tok is not None and tok.kind == "*":
                ts.next()
                f = f * parse_factor()
            else:
                return f

    def parse_expr() -> Polynomial:
        tok = ts.peek()
        negate = False
        if tok is not None and tok.kind == "-":
            ts.next()
            negate = True
        f = parse_term()
        if negate:
            f = -f
        while True:
            tok = ts.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return f
            ts.next()
            g = parse_term()
            f = f + g if tok.kind == "+" else f - g

    return parse_expr()
