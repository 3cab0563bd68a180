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

An expression is tokenized in one scan: one regex match finds the longest
prefix made of tokens (trailing whitespace allowed), and one ``findall``
takes them.  A parsed value is one of two kinds.  A ``_Term`` is a
multiplicative accumulator: the coefficient and the scalar multiply, and
the exponents of e, xi, kappa and the module generators add, so ``xi^300``
is the exponent 300, not a chain of squarings, and a scalar sum is a term
whose scalar is that sum, so generator exponents keep accumulating across
it.  The scalar ``coeff * e^j * xi^n`` is one constructor, and a generator
monomial is one ``raw_monomial``.  A ``ModuleElement`` is what a sum with
generators in it makes, and so is any product with it (one ``mod_mul``) or
power of it.

Bundle lists and gradings are scanned one term at a time, each term by one
regex match.
"""

from __future__ import annotations

import re

from . import hscalar
from .euler import LineBundle
from .grading import PiBDegree
from .hscalar import HElement
from .projmod import ModuleElement, ProjSpace, is_divided, mod_mul, raw_monomial


class ParseError(ValueError):
    pass


_TOKEN = r"\d+|[A-Za-z][A-Za-z0-9]*|[\^*+\-()]"
_TOKEN_RE = re.compile(_TOKEN)
# the longest prefix that is a run of tokens, with trailing whitespace
_TOKENS_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, scanned once; a character that starts no
    token is named, with its position."""
    end = _TOKENS_RE.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r} at {end} in {text!r}")
    return _TOKEN_RE.findall(text)


GEN_NAMES = ("z0", "z1", "cw", "cxw")
_NEEDS_SPACE = "module generators need a projective-space context"


def _power(base, k: int, one):
    """``base^k`` for k >= 0 by repeated squaring.

    Every product formed has ``base`` itself or a square of it as its right
    factor, and such a factor is used only while it has no divided monomial;
    so the result is defined exactly when the linear loop ``one * base * ...
    * base`` is (a module product needs one factor free of divided
    monomials).  A divided base raises at its first square, as ``base *
    base`` does; once a square comes out divided, the rest of the exponent
    is multiplied in one copy of the last undivided square at a time."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            square = base * base
            if isinstance(square, ModuleElement) and any(map(is_divided, square.terms)):
                for _ in range(2 * k):
                    out = out * base
                return out
            base = square
    return out


def _times(x, y):
    """The product of two scalars, either of which may be None (the unit)."""
    if x is None:
        return y
    return x if y is None else x * y


class _Term:
    """Multiplicative accumulator: coeff * scal * e^j * xi^n * kappa^c * gens.

    ``scal`` is None for the unit, so only a real scalar (g, tau(...) or a
    scalar sum) is ever multiplied; the exponents of e, xi, kappa and
    the generators add up as integers.  ``gens`` is never changed in place.
    """

    __slots__ = ("coeff", "scal", "e_exp", "xi_exp", "kappa", "gens")

    def __init__(self, coeff=1, scal=None, e_exp=0, xi_exp=0, kappa=0, gens=None):
        self.coeff = coeff
        self.scal = scal
        self.e_exp = e_exp
        self.xi_exp = xi_exp
        self.kappa = kappa
        self.gens = gens or {}

    def mul(self, other: "_Term") -> "_Term":
        gens = self.gens
        if other.gens:
            gens = dict(gens)
            for k, v in other.gens.items():
                gens[k] = gens.get(k, 0) + v
        return _Term(
            self.coeff * other.coeff,
            _times(self.scal, other.scal),
            self.e_exp + other.e_exp,
            self.xi_exp + other.xi_exp,
            self.kappa + other.kappa,
            gens,
        )

    def pow(self, k: int) -> "_Term":
        if k >= 0:
            return _Term(
                self.coeff**k,
                None if self.scal is None else _power(self.scal, k, HElement.from_int(1)),
                self.e_exp * k,
                self.xi_exp * k,
                self.kappa * k,
                {name: exp * k for name, exp in self.gens.items()} if k else None,
            )
        # negative powers: only pure e or pure generator terms
        if (self.coeff == 1 and self.xi_exp == 0 and self.kappa == 0
                and (self.scal is None or self.scal == 1)):
            if not self.gens and self.e_exp:
                return _Term(e_exp=self.e_exp * k)
            if not self.e_exp and len(self.gens) == 1:
                ((name, exp),) = self.gens.items()
                return _Term(gens={name: exp * k})
        raise ParseError("negative exponent only allowed on e, z0 or z1")

    def scalar_value(self) -> HElement:
        if self.kappa == 0:
            if self.e_exp < 0:
                raise ParseError("e^-m is only an element together with kappa")
            base = HElement(self.e_exp, self.xi_exp, self.coeff)  # coeff*e^j*xi^n
        else:
            extra = 2 ** (self.kappa - 1)  # kappa^c = 2^(c-1) * kappa
            base = hscalar.e_power_kappa(self.e_exp) * (self.coeff * extra)
            if self.xi_exp:
                base = base * hscalar.xi(self.xi_exp)
        return _times(self.scal, base)

    def module_value(self, sp: ProjSpace | None) -> ModuleElement:
        if sp is None:
            raise ParseError(_NEEDS_SPACE)
        s = self.gens.get("z0", 0)
        t = self.gens.get("z1", 0)
        a = self.gens.get("cw", 0)
        b = self.gens.get("cxw", 0)
        try:
            mono = raw_monomial(sp, s, t, a, b)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        return mono.scale(self.scalar_value())


def _as_module(value, sp) -> ModuleElement:
    """``value`` over ``sp``: a term with generators is its monomial, any
    other term a multiple of the unit."""
    if not isinstance(value, _Term):
        return value
    if value.gens:
        return value.module_value(sp)
    scalar = value.scalar_value()  # its own refusal before the missing space
    if sp is None:
        raise ParseError(_NEEDS_SPACE)
    return ModuleElement.unit(sp).scale(scalar)


class _ExprParser:
    def __init__(self, tokens: list[str], sp: ProjSpace | None):
        self.tokens = tokens + [None]  # the end sentinel, never taken
        self.pos = 0
        self.sp = sp

    def peek(self):
        return self.tokens[self.pos]

    def take(self, expected=None):
        tok = self.tokens[self.pos]
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
            return _Term(xi_exp=1)
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

    # combination rules over the two value kinds

    def _mul(self, a, b):
        if isinstance(a, _Term) and isinstance(b, _Term):
            return a.mul(b)
        return mod_mul(_as_module(a, self.sp), _as_module(b, self.sp))

    def _pow(self, a, k: int):
        if isinstance(a, _Term):
            return a.pow(k)
        if k < 0:
            raise ParseError("negative exponent on a compound expression")
        return _power(a, k, ModuleElement.unit(a.sp))

    def _add(self, a, b, negate: bool):
        scalar = (isinstance(a, _Term) and isinstance(b, _Term)
                  and not (a.gens or b.gens))
        if scalar:
            a, b = a.scalar_value(), b.scalar_value()
        else:
            a, b = _as_module(a, self.sp), _as_module(b, self.sp)
        try:
            value = a - b if negate else a + b
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        return _Term(scal=value) if scalar else value


def parse_scalar(text: str) -> HElement:
    """Parse a point-ring scalar; module generators are rejected.

    >>> print(parse_scalar("2 - g"))
    2 - g
    """
    # without a space no module element is ever made, so the value is a term
    term = _ExprParser(_tokenize(text), None).parse()
    if term.gens:
        raise ParseError(_NEEDS_SPACE)
    return term.scalar_value()


def parse_module_element(text: str, sp: ProjSpace) -> ModuleElement:
    """Parse a module expression over X(p, q); scalars embed as multiples
    of the unit basis element."""
    return _as_module(_ExprParser(_tokenize(text), sp).parse(), sp)


# one bundle term, then the "+" that ends it or the end of the text
_TERM_RE = re.compile(
    r"\s*((?:(\d+)\s*\*\s*)?(x?O)\s*\(\s*(-?\d+)\s*\))\s*(\+|\Z)"
)
# everything up to a "+" outside parentheses: the bad term that an error quotes
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
    pos, more = 0, True
    while more:
        m = _TERM_RE.match(text, pos)
        if not m:
            chunk = _CHUNK_RE.match(text, pos).group()
            raise ParseError(f"bad bundle term {chunk.strip()!r} in {text!r}")
        term, count, kind, d, more = m.groups()
        count = int(count) if count else 1
        if count < 1:
            raise ParseError(f"bundle count must be positive in {term!r}")
        terms.append((LineBundle(kind == "xO", int(d)), count))
        pos = m.end()
    return terms


def parse_bundles(text: str) -> list[LineBundle]:
    """The bundle list of ``parse_bundle_terms``, each term repeated.

    >>> [str(L) for L in parse_bundles("4*xO(2)")]
    ['xO(2)', 'xO(2)', 'xO(2)', 'xO(2)']
    """
    return [L for L, count in parse_bundle_terms(text) for _ in range(count)]


# one signed term of a grading: an integer, W1 or s, or an integer times W1 or s
_GRADING_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+)(?:\s*\*\s*(W1|s)\b)?|(W1|s)\b)\s*"
)


def parse_grading(text: str) -> PiBDegree:
    """Parse ``m*W1 + a + b*s`` (any subset of terms, in any order).

    >>> parse_grading("W1 - 3*s + 2 + W1")
    PiBDegree(m=2, a=2, b=-3)
    """
    if not text.strip():
        raise ParseError("empty grading")
    totals = {"W1": 0, None: 0, "s": 0}
    pos = 0
    while pos < len(text):
        term = _GRADING_TERM_RE.match(text, pos)
        if not term or (pos and not term[1]):  # every later term has its sign
            raise ParseError(f"bad grading term at {pos} in {text!r}")
        sign, coeff, gen = term[1], term[2], term[3] or term[4]
        totals[gen] += (-1 if sign == "-" else 1) * int(coeff or 1)
        pos = term.end()
    return PiBDegree(totals["W1"], totals[None], totals["s"])
