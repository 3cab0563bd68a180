"""Text grammars: bundle lists, scalar/module expressions, gradings.

Every canonical printed form round-trips through these parsers.

* Bundle lists:   ``"O(3) + 2*xO(-1)"`` (counts optional).
* Expressions:    sums/products/powers over the scalar tokens
  ``g, kappa, e, xi, tau(i^2k), tau(1)`` and the module generators
  ``z0, z1, cw, cxw``, with integer coefficients and parentheses.
  Negative powers are only meaningful on ``e`` (paired with ``kappa``)
  and on the zeta generators (the divided classes), and the parser
  enforces exactly that.
* Gradings:       ``"m*W1 + a + b*s"`` with zero terms omitted.
"""

from __future__ import annotations

import operator
import re

from . import hscalar
from .euler import LineBundle
from .grading import PiBDegree
from .hscalar import HElement
from .projmod import ModuleElement, ProjSpace, is_divided, mod_mul, raw_monomial


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|\^|\*|\+|\-|\(|\))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


GEN_NAMES = ("z0", "z1", "cw", "cxw")


def _power(base, k: int, one, mul=operator.mul, divided=lambda value: False):
    """``base^k`` for k >= 0 by repeated squaring.

    Every product formed has ``base`` itself or a square of it as its right
    factor, and such a factor is used only while it is not ``divided``; so
    the result is defined exactly when the linear loop ``one * base * ... *
    base`` is (a module product needs one factor free of divided monomials).
    A divided base raises at its first square, as ``base * base`` does; once
    a square comes out divided, the rest of the exponent is multiplied in one
    copy of the last undivided square at a time."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            square = mul(base, base)
            if divided(square):
                for _ in range(2 * k):
                    out = mul(out, base)
                return out
            base = square
    return out


def _has_divided(value: ModuleElement) -> bool:
    return any(is_divided(m) for m in value.terms)


class _Term:
    """Multiplicative accumulator: coeff * scalar * e^j * kappa^c * gens."""

    __slots__ = ("coeff", "scal", "e_exp", "kappa", "gens")

    def __init__(self, coeff=1, scal=None, e_exp=0, kappa=0, gens=None):
        self.coeff = coeff
        self.scal = hscalar.one() if scal is None else scal
        self.e_exp = e_exp
        self.kappa = kappa
        self.gens = dict(gens) if gens else {}

    def mul(self, other: "_Term") -> "_Term":
        gens = dict(self.gens)
        for k, v in other.gens.items():
            gens[k] = gens.get(k, 0) + v
        return _Term(
            self.coeff * other.coeff,
            self.scal * other.scal,
            self.e_exp + other.e_exp,
            self.kappa + other.kappa,
            gens,
        )

    def pow(self, k: int) -> "_Term":
        if k >= 0:
            return _Term(
                self.coeff**k,
                _power(self.scal, k, hscalar.one()),
                self.e_exp * k,
                self.kappa * k,
                {name: exp * k for name, exp in self.gens.items()} if k else None,
            )
        # negative powers: only pure e or pure generator terms
        if self.coeff == 1 and self.scal == 1 and self.kappa == 0:
            if not self.gens and self.e_exp:
                return _Term(e_exp=self.e_exp * k)
            if not self.e_exp and len(self.gens) == 1:
                ((name, exp),) = self.gens.items()
                return _Term(gens={name: exp * k})
        raise ParseError("negative exponent only allowed on e, z0 or z1")

    def scalar_value(self) -> HElement:
        base = self.scal * self.coeff
        if self.kappa == 0:
            if self.e_exp < 0:
                raise ParseError("e^-m is only an element together with kappa")
            if self.e_exp > 0:
                base = base * hscalar.e(self.e_exp)
            return base
        extra = 2 ** (self.kappa - 1)  # kappa^c = 2^(c-1) * kappa
        return base * extra * hscalar.e_power_kappa(self.e_exp)

    def module_value(self, sp: ProjSpace | None) -> ModuleElement:
        if sp is None:
            raise ParseError("module generators need a projective-space context")
        s = self.gens.get("z0", 0)
        t = self.gens.get("z1", 0)
        a = self.gens.get("cw", 0)
        b = self.gens.get("cxw", 0)
        if a < 0 or b < 0:
            raise ParseError("cw and cxw exponents must be nonnegative")
        try:
            mono = raw_monomial(sp, s, t, a, b)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        scalar = _Term(self.coeff, self.scal, self.e_exp, self.kappa).scalar_value()
        return mono.scale(scalar)


def _materialize(value, sp):
    if isinstance(value, _Term):
        if value.gens:
            return value.module_value(sp)
        return value.scalar_value()
    return value


def _as_module(value, sp) -> ModuleElement:
    if isinstance(value, ModuleElement):
        return value
    if sp is None:
        raise ParseError("module expression needs a projective-space context")
    return ModuleElement.unit(sp).scale(value)


class _ExprParser:
    def __init__(self, tokens: list[str], sp: ProjSpace | None):
        self.tokens = tokens
        self.pos = 0
        self.sp = sp

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = self._add(value, rhs, negate=(op == "-"))
        return value

    def term(self):
        value = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                value = self._mul(value, self.factor())
            elif nxt is not None and (nxt[0].isdigit() or nxt[0].isalpha() or nxt == "("):
                # juxtaposition is not part of the grammar
                raise ParseError(f"missing operator before {nxt!r}")
            else:
                return value

    def factor(self):
        if self.peek() == "-":
            self.take()
            return self._mul(_Term(coeff=-1), self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        value = self.primary()
        if self.peek() == "^":
            self.take()
            k = self.signed_int()
            value = self._pow(value, k)
        return value

    def signed_int(self) -> int:
        sign = 1
        if self.peek() in ("-", "+"):
            sign = -1 if self.take() == "-" else 1
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected integer exponent, found {tok!r}")
        return sign * int(tok)

    def primary(self):
        tok = self.take()
        if tok.isdigit():
            return _Term(coeff=int(tok))
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        if tok == "g":
            return _Term(scal=hscalar.g())
        if tok == "kappa":
            return _Term(kappa=1)
        if tok == "e":
            return _Term(e_exp=1)
        if tok == "xi":
            return _Term(scal=hscalar.xi(1))
        if tok == "tau":
            return _Term(scal=self.tau_call())
        if tok in GEN_NAMES:
            return _Term(gens={tok: 1})
        raise ParseError(f"unknown token {tok!r}")

    def tau_call(self) -> HElement:
        self.take("(")
        tok = self.take()
        if tok == "1":
            self.take(")")
            return hscalar.tau_iota(0)
        if tok != "i":
            raise ParseError(f"expected i^2k or 1 inside tau(...), found {tok!r}")
        self.take("^")
        k = self.signed_int()
        self.take(")")
        if k % 2:
            raise ParseError(f"tau argument must be an even power of i, got i^{k}")
        return hscalar.tau_iota(k // 2)

    # combination rules over the three value kinds

    def _mul(self, a, b):
        if isinstance(a, _Term) and isinstance(b, _Term):
            return a.mul(b)
        # fold a plain scalar into the term so that generator exponents of
        # divided monomials keep accumulating across it
        if isinstance(a, _Term) or isinstance(b, _Term):
            term, other = (a, b) if isinstance(a, _Term) else (b, a)
            other_v = _materialize(other, self.sp)
            if isinstance(other_v, HElement):
                return _Term(
                    term.coeff, term.scal * other_v, term.e_exp, term.kappa, term.gens
                )
            return mod_mul(other_v, _as_module(_materialize(term, self.sp), self.sp))
        av = _materialize(a, self.sp)
        bv = _materialize(b, self.sp)
        if isinstance(av, HElement) and isinstance(bv, HElement):
            return av * bv
        am = _as_module(av, self.sp)
        bm = _as_module(bv, self.sp)
        return mod_mul(am, bm)

    def _pow(self, a, k: int):
        if isinstance(a, _Term):
            return a.pow(k)
        if k < 0:
            raise ParseError("negative exponent on a compound expression")
        value = _materialize(a, self.sp)
        if isinstance(value, HElement):
            return _power(value, k, HElement.from_int(1))
        return _power(value, k, ModuleElement.unit(value.sp), mod_mul, _has_divided)

    def _add(self, a, b, negate: bool):
        av = _materialize(a, self.sp)
        bv = _materialize(b, self.sp)
        if isinstance(av, ModuleElement) or isinstance(bv, ModuleElement):
            av, bv = _as_module(av, self.sp), _as_module(bv, self.sp)
        try:
            return av - bv if negate else av + bv
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def parse_scalar(text: str) -> HElement:
    """Parse a point-ring scalar; module generators are rejected.

    >>> print(parse_scalar("2 - g"))
    2 - g
    """
    value = _ExprParser(_tokenize(text), None).parse()
    result = _materialize(value, None)
    if isinstance(result, ModuleElement):
        raise ParseError("module element where a scalar was expected")
    return result


def parse_module_element(text: str, sp: ProjSpace) -> ModuleElement:
    """Parse a module expression over X(p, q); scalars embed as multiples
    of the unit basis element."""
    value = _ExprParser(_tokenize(text), sp).parse()
    return _as_module(_materialize(value, sp), sp)


_BUNDLE_RE = re.compile(
    r"\s*(?:(\d+)\s*\*\s*)?(x?O)\s*\(\s*(-?\d+)\s*\)\s*$"
)
# one bundle term: everything up to a "+" outside parentheses
_CHUNK_RE = re.compile(r"(?:[^+(]|\([^)]*\)?)*")


def parse_bundle_terms(text: str) -> list[tuple[LineBundle, int]]:
    """Parse a bundle list: ``term (+ term)*`` with ``term = [count*]atom``
    and ``atom = O(d) | xO(d)``, into (bundle, count) pairs.  Nothing is
    repeated, so a huge count costs no memory.

    >>> [(str(L), count) for L, count in parse_bundle_terms("4*xO(2) + O(1)")]
    [('xO(2)', 4), ('O(1)', 1)]
    """
    if not text.strip():
        raise ParseError("empty bundle list")
    terms = []
    pos = 0
    while pos <= len(text):
        chunk = _CHUNK_RE.match(text, pos).group()
        pos += len(chunk) + 1  # past the "+" that ends the chunk
        m = _BUNDLE_RE.match(chunk)
        if not m:
            raise ParseError(f"bad bundle term {chunk.strip()!r} in {text!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise ParseError(f"bundle count must be positive in {chunk.strip()!r}")
        terms.append((LineBundle(m.group(2) == "xO", int(m.group(3))), count))
    return terms


def parse_bundles(text: str) -> list[LineBundle]:
    """The bundle list of ``parse_bundle_terms``, each term repeated.

    >>> [str(L) for L in parse_bundles("4*xO(2)")]
    ['xO(2)', 'xO(2)', 'xO(2)', 'xO(2)']
    """
    return [L for L, count in parse_bundle_terms(text) for _ in range(count)]


def parse_grading(text: str) -> PiBDegree:
    """Parse ``m*W1 + a + b*s`` (any subset of terms, in any order)."""
    tokens = _tokenize(text)
    pos = 0
    m = a = b = 0
    if not tokens:
        raise ParseError("empty grading")

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of grading")
        tok = tokens[pos]
        pos += 1
        return tok

    first = True
    while pos < len(tokens):
        sign = 1
        tok = take()
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            tok = take()
        elif not first:
            raise ParseError(f"expected + or - before {tok!r}")
        first = False
        coeff = None
        if tok.isdigit():
            coeff = sign * int(tok)
            if pos < len(tokens) and tokens[pos] == "*":
                pos += 1
                tok = take()
            else:
                a += coeff
                continue
        else:
            coeff = sign
        if tok == "W1":
            m += coeff
        elif tok == "s":
            b += coeff
        else:
            raise ParseError(f"unknown grading token {tok!r}")
    return PiBDegree(m, a, b)
