"""Exact arithmetic over prime fields and sparse multivariate polynomials.

A ring ``F_p[x_1, ..., x_n]`` is a :class:`RingContext` fixing the prime
characteristic and the variable names.  Monomials are dense exponent tuples,
polynomials are immutable maps from exponent tuples to nonzero residues in
``[1, p)``; scalars are plain ``int`` residues.  Everything is a value:
objects never mutate after construction, so they are safe to share across
threads.  Outside input is checked once, by ``RingContext.polynomial`` and
``RingContext.monomial``; the library builds everything else through the
unchecked constructors, guarding only against exponent overflow where
exponents grow.

Each monomial order (lex, grevlex, weight vector with tiebreak, elimination)
writes its key once, as ``sort_key(n)``: an *additive* integer key vector,
``sort_key(m * m') == sort_key(m) + sort_key(m')`` componentwise, ascending
in descending order; the public ``key`` is its negation.  The Buchberger
kernel relies on this to pack each monomial, key and exponents, into one
integer, which it sorts and shifts with integer arithmetic.
Every sparse sum of terms mod p goes through :func:`_accumulate`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import add, le, mul, neg, sub
from typing import NamedTuple

# Bracket powers scale exponents by p^e; beyond this the build fails loudly
# instead of silently producing huge objects.  The modulus shares the cap so
# primality stays a cheap deterministic check.
MAX_EXPONENT = 2**31 - 1
MAX_MODULUS = 2**31 - 1
# The polynomial parser recurses once per open parenthesis (two frames per
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

    def monomial(self, exponents) -> "Monomial":
        """Build a monomial from an exponent sequence, checking every exponent."""
        exponents = tuple(exponents)
        _check_exponents(self, exponents)
        return Monomial(self, exponents)

    def polynomial(self, coeffs) -> "Polynomial":
        """Build a polynomial from an exponent-tuple -> integer mapping.

        With :meth:`monomial`, the only place where outside input is checked:
        exponents are validated, coefficients must be ``int`` and are reduced
        mod p.
        """
        p = self.p
        clean: dict[tuple, int] = {}
        for exps, c in dict(coeffs).items():
            exps = tuple(exps)
            _check_exponents(self, exps)
            if not isinstance(c, int):
                raise FieldPolyError(f"invalid coefficient {c!r}")
            c = c % p
            if c:
                clean[exps] = c
        return Polynomial(self, clean)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.n: 1})

    def constant(self, c: int) -> "Polynomial":
        return self.polynomial({(0,) * self.n: c})

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


def _accumulate(out: dict, terms, p: int) -> dict:
    """Add ``(exponents, coefficient)`` pairs into ``out`` mod p; no zero entry is kept."""
    for e, c in terms:
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _weighted_degree(weights, exponents) -> int:
    return sum(map(mul, weights, exponents))


def _same_ring(a: RingContext, b: RingContext) -> None:
    # identity first: operands almost always share one ring object
    if a is not b and a != b:
        raise RingMismatchError("operands from different rings")


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _check_growth(exponent_tuples) -> None:
    """Overflow guard for the operations that grow exponents."""
    top = max(map(max, exponent_tuples), default=0)
    if top > MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent {top} exceeds MAX_EXPONENT")


@dataclass(frozen=True)
class Monomial:
    """A power product, stored as a dense exponent tuple (trusted: see RingContext.monomial)."""

    ring: RingContext
    exponents: tuple[int, ...]

    def degree(self) -> int:
        return sum(self.exponents)

    def weighted_degree(self, weights) -> int:
        if len(weights) != len(self.exponents):
            raise FieldPolyError("weight vector length does not match the ring")
        return _weighted_degree(weights, self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _same_ring(self.ring, other.ring)
        exps = tuple(map(add, self.exponents, other.exponents))
        _check_growth((exps,))
        return Monomial(self.ring, exps)

    def divides(self, other: "Monomial") -> bool:
        _same_ring(self.ring, other.ring)
        return _divides(self.exponents, other.exponents)

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        if not other.divides(self):
            raise FieldPolyError(f"{other} does not divide {self}")
        return Monomial(self.ring, tuple(map(sub, self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        _same_ring(self.ring, other.ring)
        return Monomial(self.ring, _lcm(self.exponents, other.exponents))

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def text(self) -> str:
        return monomial_text(self.ring, self.exponents)

    __str__ = text


def monomial_text(ring: RingContext, exponents) -> str:
    parts = []
    for name, e in zip(ring.names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable sparse polynomial with F_p coefficients.

    Internally a dict from exponent tuple to residue in ``[1, p)``; zero
    coefficients are never stored and the zero polynomial has no terms.
    Equality is term-set equality, independent of any monomial order.

    The constructor trusts its input and keeps ``coeffs``, a fresh dict of
    exactly that form with exponents in ``[0, MAX_EXPONENT]``; outside input
    goes through ``RingContext.polynomial``.
    """

    __slots__ = ("ring", "_coeffs", "_hash")

    def __init__(self, ring: RingContext, coeffs: dict[tuple, int]):
        self.ring = ring
        self._coeffs = coeffs
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

    def constant_term(self) -> int:
        return self._coeffs.get((0,) * self.ring.n, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(sum(e) for e in self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _same_ring(self.ring, other.ring)
        return Polynomial(self.ring, _accumulate(dict(self._coeffs), other._coeffs.items(), self.ring.p))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        _same_ring(self.ring, other.ring)
        negated = zip(other._coeffs, map(neg, other._coeffs.values()))
        return Polynomial(self.ring, _accumulate(dict(self._coeffs), negated, self.ring.p))

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {e: p - c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        _same_ring(self.ring, other.ring)
        p = self.ring.p
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, int] = {}
        for ea, ca in a.items():
            _accumulate(out, ((tuple(map(add, ea, eb)), ca * cb) for eb, cb in b.items()), p)
        _check_growth(out)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, int):
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
        out = {tuple(a + b for a, b in zip(e, me)): (v * c) % p for e, v in self._coeffs.items()}
        _check_growth(out)
        return Polynomial(self.ring, out)

    def substitute(self, i: int, value: int) -> "Polynomial":
        """Substitute variable i by a field constant (stays in the same ring)."""
        p = self.ring.p
        terms = ((e[:i] + (0,) + e[i + 1 :], c * pow(value, e[i], p)) for e, c in self._coeffs.items())
        return Polynomial(self.ring, _accumulate({}, terms, p))

    # -- order-dependent views ----------------------------------------------

    def leading_term(self, order) -> tuple[Monomial, int]:
        """The maximal monomial under the order and its coefficient."""
        if not self._coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        e = order._greatest(self._coeffs, self.ring.n)
        return Monomial(self.ring, e), self._coeffs[e]

    def leading_monomial(self, order) -> Monomial:
        return self.leading_term(order)[0]

    def leading_coefficient(self, order) -> int:
        return self.leading_term(order)[1]

    def initial_w(self, weights) -> "Polynomial":
        """Sum of the terms of maximal weighted degree."""
        if not self._coeffs:
            raise ZeroPolynomialError("the zero polynomial has no initial form")
        validate_weights(self.ring, weights)
        degrees = {e: _weighted_degree(weights, e) for e in self._coeffs}
        top = max(degrees.values())
        return Polynomial(self.ring, {e: c for e, c in self._coeffs.items() if degrees[e] == top})

    def weighted_degree(self, weights) -> int:
        if not self._coeffs:
            raise ZeroPolynomialError("the zero polynomial has no weighted degree")
        if len(weights) != self.ring.n:
            raise FieldPolyError("weight vector length does not match the ring")
        return max(_weighted_degree(weights, e) for e in self._coeffs)

    def text(self, order=None) -> str:
        """Canonical text: terms descending under the order, coefficients in [1, p)."""
        if not self._coeffs:
            return "0"
        if order is None:
            order = grevlex()
        parts = []
        for e in sorted(self._coeffs, key=order.sort_key(self.ring.n)):
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
        raise FieldPolyError("weight vector length does not match the ring")
    return weight_order(weights).weight  # the order checks that the weights are positive integers


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a strictly positive weight vector with a tiebreak.

    ``key`` maps an exponent tuple to an integer tuple whose lexicographic
    comparison realises the order; it is the negation of :meth:`sort_key`.
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

    def sort_key(self, n: int):
        """``e -> -key(e)`` on exponent tuples of length n: ascending is descending in the order."""
        if self.kind == "lex":
            return lambda e: tuple(map(neg, e))
        if self.kind == "grevlex":
            return lambda e: (-sum(e),) + e[::-1]
        w = self.weight
        if len(w) != n:
            raise FieldPolyError("weight vector length does not match exponents")
        if self.tiebreak == "lex":
            return lambda e: (-sum(map(mul, w, e)),) + tuple(map(neg, e))
        return lambda e: (-sum(map(mul, w, e)), -sum(e)) + e[::-1]

    def key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, self.sort_key(len(exps))(exps)))

    def _greatest(self, exps, n: int) -> tuple[int, ...]:
        """The greatest of the exponent tuples ``exps``, each of length n.

        Under lex that is the largest tuple, found without building keys.
        """
        if self.kind == "lex":
            return max(exps)
        return min(exps, key=self.sort_key(n))

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

    def sort_key(self, n: int):
        """``e -> -key(e)`` on exponent tuples of length n: ascending is descending in the order."""
        base = self.base.sort_key(n - 1)
        return lambda e: (-e[-1],) + base(e[:-1])

    key = MonomialOrder.key

    def _greatest(self, exps, n: int) -> tuple[int, ...]:
        return min(exps, key=self.sort_key(n))


def lex() -> MonomialOrder:
    return MonomialOrder("lex")


def grevlex() -> MonomialOrder:
    return MonomialOrder("grevlex")


def weight_order(weights, tiebreak: str = "grevlex") -> MonomialOrder:
    return MonomialOrder("weight", tuple(weights), tiebreak)


def order_for_weight_refinement(weights, order) -> MonomialOrder:
    """The weight order with the order's tiebreak: its own for a weight order, else the order."""
    if not isinstance(order, MonomialOrder):
        raise FieldPolyError("cannot derive a tiebreak from this order")
    return weight_order(weights, order.tiebreak or order.kind)


def _extended_order(order: MonomialOrder) -> MonomialOrder:
    """The order on the ring extended by a last variable t: ``weight(w; tie)`` becomes
    ``weight(w, 1; tie)``, the weight t has in weight homogenization; lex and grevlex stay."""
    if order.kind != "weight":
        return order
    return weight_order(order.weight + (1,), order.tiebreak)


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
        digits = [x.strip() for x in m.group(1).split(",")]
        try:
            weights = tuple(map(int, digits))
        except ValueError:  # longer than the interpreter's integer-string limit
            raise FieldPolyError(f"weight too long ({max(map(len, digits))} digits)") from None
        return weight_order(weights, m.group(2))
    raise FieldPolyError(f"cannot parse monomial order {text!r}")


# -- tokenizer and polynomial parser -----------------------------------------


class Token(NamedTuple):
    kind: str  # "ident", "int" or the operator character itself
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[-+*^();:=,])"
    r"|(?P<newline>\n)|(?P<blank>#[^\n]*|[ \t\r]+)|(?P<bad>.)"
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        value = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, m.start() - line_start + 1)
        tokens.append(Token(value if kind == "op" else kind, value, line, m.start() - line_start + 1))
    return tokens


def int_value(tok: Token) -> int:
    """The value of an integer literal; one too long to convert is a ParseError at it."""
    try:
        return int(tok.value)
    except ValueError:  # longer than the interpreter's integer-string limit
        raise ParseError(f"integer literal too long ({len(tok.value)} digits)", tok.line, tok.column) from None


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

    Each term is one coefficient and one exponent list, added into one dict
    per expression; only parenthesised factors use ``Polynomial`` arithmetic.
    Results and errors are those of left-to-right ring arithmetic (see
    "Parsing" in ``docs/notes.md``).
    """
    p, n = ring.p, ring.n
    index = {name: i for i, name in enumerate(ring.names)}
    depth = 0

    def power() -> int:
        tok = ts.peek()
        if tok is not None and tok.kind == "^":
            ts.next()
            return int_value(ts.expect("int"))
        return 1

    def parse_term() -> tuple[int, list, Polynomial | None]:
        """Coefficient, exponent list and product of the parenthesised factors (or None)."""
        nonlocal depth
        c, e, P, top = 1, [0] * n, None, [0] * n  # top: P's highest exponent per variable
        while True:
            tok = ts.next()
            live = c and (P is None or P)  # no zero factor so far
            if tok.kind == "int":
                c = c * pow(int_value(tok), power(), p) % p
            elif tok.kind == "ident":
                i = index.get(tok.value)
                if i is None:
                    raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.column)
                k = power()
                if k > MAX_EXPONENT:
                    raise ExponentOverflowError(f"exponent {k} exceeds MAX_EXPONENT")
                e[i] += k
                if live and e[i] + top[i] > MAX_EXPONENT:
                    raise ExponentOverflowError(f"exponent {e[i] + top[i]} exceeds MAX_EXPONENT")
            elif tok.kind == "(":
                if depth == MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column)
                depth += 1
                sub = parse_expr()
                ts.expect(")")
                depth -= 1
                k = power()
                sub = sub if k == 1 else sub**k
                if live:
                    P = sub if P is None else P * sub
                    if P:
                        top = [max(col) for col in zip(*P._coeffs)]
                        _check_growth((map(int.__add__, e, top),))
            else:
                raise ParseError(f"expected a term, found {tok.value!r}", tok.line, tok.column)
            tok = ts.peek()
            if tok is None or tok.kind != "*":
                return c, e, P
            ts.next()

    def parse_expr() -> Polynomial:
        acc: dict[tuple, int] = {}
        sign = 1
        tok = ts.peek()
        if tok is not None and tok.kind == "-":
            ts.next()
            sign = -1
        while True:
            c, e, P = parse_term()
            if P is None:
                terms = ((tuple(e), c),) if c else ()
            else:
                terms = P.multiply_monomial(Monomial(ring, tuple(e)), c)._coeffs.items()
            _accumulate(acc, ((m, sign * v) for m, v in terms), p)
            tok = ts.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return Polynomial(ring, acc)
            ts.next()
            sign = 1 if tok.kind == "+" else -1

    return parse_expr()
