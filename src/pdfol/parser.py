"""Recursive-descent parser and canonical printer for 1-form expressions.

Grammar, whitespace-insensitive::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('+' | '-')* power
    power   := atom ('^' INTEGER)?
    atom    := NUMBER | IDENT | 'd' '(' expr ')' | '(' expr ')'

NUMBER is a nonnegative rational literal ("5", "1/2"); float mode also
accepts decimal and scientific literals.  A leading sign is a unary
operator, so "-5" and "+ -5*x" both parse.  IDENT is a variable (x, y),
a differential (dx, dy), or the declared parameter name.

Every subexpression is a triple (function, dx-coefficient,
dy-coefficient).  Products of two differentials and powers of a
differential are rejected; d(P) of a function expands to its exact
differential P_x dx + P_y dy.  The printer emits one monomial per term
in graded order, and printing a parsed expression reparses to the same
form, so the printed text is a canonical name for the input.
"""

import math
import re
from dataclasses import dataclass

from .errors import InputError, MathError
from .forms import OneForm2
from .rings import ComplexApprox, ParamPolyRing, RationalExact, rational
from .series import Series2

VARIABLES = ("x", "y")

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise InputError("syntax error at offset %d: unexpected "
                             "character %r" % (pos, text[pos]))
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        tokens.append(Token(match.lastgroup, match.group(), match.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


def _ring_for_mode(mode: str, precision=None):
    if mode == "exact":
        return RationalExact()
    if mode == "float":
        return ComplexApprox(64 if precision is None else precision)
    if mode.startswith("param:"):
        name = mode[len("param:"):]
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise InputError("parameter name %r is not an identifier" % name)
        if name in ("x", "y", "dx", "dy", "d"):
            raise InputError("parameter name %r shadows a reserved symbol"
                             % name)
        return ParamPolyRing(name)
    raise InputError("unknown mode %r; expected exact, float, or param:NAME"
                     % mode)


class _Parser:
    """One-pass evaluator over the token stream.

    Values are triples (f, a, b) of Series2: the function part and the
    two differential coefficients.
    """

    def __init__(self, text, ring, order):
        self.text = text
        self.ring = ring
        self.order = order
        self.tokens = tokenize(text)
        self.at = 0

    def peek(self):
        return self.tokens[self.at]

    def advance(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def fail(self, tok, what):
        shown = "end of input" if tok.kind == "end" else repr(tok.text)
        raise InputError("syntax error at offset %d: expected %s, found %s"
                         % (tok.pos, what, shown))

    def expect(self, text):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            self.fail(tok, "'%s'" % text)
        return tok

    # series constructors

    def scalar(self, value):
        return Series2.monomial(self.ring, VARIABLES, self.order, (0, 0),
                                value)

    def zero(self):
        return Series2.zero(self.ring, VARIABLES, self.order)

    def number(self, tok):
        text = tok.text
        if "/" in text:
            head, den = text.split("/")
            if "." in head or "e" in head.lower():
                self.fail(tok, "a rational or decimal literal")
            if int(den) == 0:
                raise InputError("zero denominator at offset %d" % tok.pos)
            return self.ring.from_rational(rational(int(head), int(den)))
        if "." in text or "e" in text.lower():
            value = float(text)
            if not math.isfinite(value):
                raise InputError("decimal literal %r at offset %d is not a "
                                 "finite double" % (text, tok.pos))
            try:
                return self.ring.coerce(value)
            except MathError:
                raise InputError("decimal literal %r at offset %d needs "
                                 "float mode" % (text, tok.pos)) from None
        return self.ring.from_rational(rational(int(text)))

    # value algebra

    def is_form(self, value):
        return not (value[1].is_zero() and value[2].is_zero())

    def mul(self, u, v, pos):
        if self.is_form(u) and self.is_form(v):
            raise InputError("cannot multiply two 1-forms at offset %d" % pos)
        if self.is_form(u):
            u, v = v, u
        return (u[0] * v[0], u[0] * v[1], u[0] * v[2])

    # grammar rules

    def expr(self):
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            if op.text == "-":
                rhs = tuple(-s for s in rhs)
            value = tuple(a + b for a, b in zip(value, rhs))
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            star = self.advance()
            value = self.mul(value, self.factor(), star.pos)
        return value

    def factor(self):
        negate = False
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.advance().text == "-":
                negate = not negate
        value = self.power()
        if negate:
            value = tuple(-s for s in value)
        return value

    def power(self):
        value = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            tok = self.advance()
            if tok.kind != "num" or not tok.text.isdigit():
                self.fail(tok, "a nonnegative integer exponent")
            if self.is_form(value):
                raise InputError("cannot exponentiate a 1-form at offset %d"
                                 % caret.pos)
            n = int(tok.text)
            acc = value[0] if n else self.scalar(1)
            for _ in range(n - 1):
                if acc.is_zero():  # stays the same empty series
                    break
                acc = acc * value[0]
            value = (acc, self.zero(), self.zero())
        return value

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return (self.scalar(self.number(tok)), self.zero(), self.zero())
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "ident":
            return self.symbol(tok)
        self.fail(tok, "a number, symbol, or '('")

    def symbol(self, tok):
        name = tok.text
        if name == "x":
            return (Series2.monomial(self.ring, VARIABLES, self.order,
                                     (1, 0)), self.zero(), self.zero())
        if name == "y":
            return (Series2.monomial(self.ring, VARIABLES, self.order,
                                     (0, 1)), self.zero(), self.zero())
        if name == "dx":
            return (self.zero(), self.scalar(1), self.zero())
        if name == "dy":
            return (self.zero(), self.zero(), self.scalar(1))
        if name == "d":
            self.expect("(")
            self.order += 1  # the derivative drops it again
            inner = self.expr()
            self.order -= 1
            self.expect(")")
            if self.is_form(inner):
                raise InputError("d(...) of a 1-form at offset %d" % tok.pos)
            return (self.zero(), inner[0].derive(0), inner[0].derive(1))
        value = self.ring.symbol(name)
        if value is not None:
            return (self.scalar(value), self.zero(), self.zero())
        raise InputError("unknown symbol %r at offset %d" % (name, tok.pos))

    def run(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, "an operator or end of input")
        if not value[0].is_zero():
            raise InputError("expression has a function part; expected "
                             "a 1-form")
        if value[1].is_zero() and value[2].is_zero():
            raise InputError("zero form")
        return OneForm2(value[1], value[2])


@dataclass(frozen=True)
class InputExpression:
    """A parsed 1-form together with the parse context.

    Equality ignores the source text: two inputs are the same expression
    when they name the same form under the same mode and order.
    """

    source: str
    form: OneForm2
    mode: str
    order: int

    def canonical(self) -> str:
        return print_form(self.form)

    def __eq__(self, other):
        if not isinstance(other, InputExpression):
            return NotImplemented
        return (self.mode == other.mode and self.order == other.order
                and self.form.a == other.form.a
                and self.form.b == other.form.b)


def parse_expr(text: str, mode: str = "exact", order: int = 24,
               precision=None) -> InputExpression:
    ring = _ring_for_mode(mode, precision)
    try:
        form = _Parser(text, ring, order).run()
    except RecursionError:
        raise InputError("expression nests too deeply") from None
    return InputExpression(text, form, mode, order)


# ---------------------------------------------------------------- printing


def _terms(series, suffix):
    out = []
    for key in sorted(series.coeffs, key=lambda k: (k[0] + k[1], -k[0])):
        neg, coeff = series.ring.signed_text(series.coeffs[key])
        parts = [] if coeff is None else [coeff]
        for name, power in zip(VARIABLES, key):
            if power == 1:
                parts.append(name)
            elif power:
                parts.append("%s^%d" % (name, power))
        parts.append(suffix)
        out.append((neg, "*".join(parts)))
    return out

def print_form(form: OneForm2) -> str:
    """Canonical text: graded monomials, dx terms before dy terms."""
    pieces = _terms(form.a, "dx") + _terms(form.b, "dy")
    if not pieces:
        raise InputError("zero form")
    neg, text = pieces[0]
    rendered = ["-%s" % text if neg else text]
    for neg, text in pieces[1:]:
        rendered.append("- %s" % text if neg else "+ %s" % text)
    return " ".join(rendered)
