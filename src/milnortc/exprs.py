"""Factor-expression DSL: parser, printer, and evaluation.

Grammar (whitespace insensitive, single-token lookahead):

    expr := term ('+' term)*
    term := pow ('*' pow)*
    pow  := atom ('^' uint)?
    atom := gen | '(' expr ')' | '1'
    gen  := name position            e.g. a1, b2, x3, alpha1
          | name '.' factor '.' position   e.g. x.2.1  (product rings)

Every number is written in ASCII digits.  Each generator is checked as it
is read: its position must lie in 1..arity and, given a presentation, its
name must be one of the ring's.

``parse -> print -> parse`` is the identity on the AST.
"""

from __future__ import annotations

import re

from .errors import ExprSyntaxError
from .f2algebra import Element, Presentation, generator, multiply, power, unit
from .record import Record
from .tensorpower import inject, tensor_power


class Gen(Record):
    __slots__ = ("name", "position")


class Unit(Record):
    __slots__ = ()


class Sum(Record):
    __slots__ = ("terms",)


class Prod(Record):
    __slots__ = ("factors",)


class Pow(Record):
    __slots__ = ("base", "exponent")


# digits are ASCII only: \d would also match other scripts' digits
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<gen>[a-z]+(?:\.[0-9]+\.)?[0-9]+)|(?P<int>[0-9]+)|(?P<op>[+*^()]))"
)
_GEN_RE = re.compile(r"([a-z]+)(?:\.([0-9]+)\.)?([0-9]+)")


def _tokenize(text: str):
    # lazy, so that the first error in reading order is the one reported
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if not mo or mo.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            # name the character after the spaces the pattern skips
            pos = len(text) - len(rest)
            raise ExprSyntaxError(f"unexpected character {rest[0]!r}", pos)
        if mo.group("gen"):
            yield ("gen", mo.group("gen"), pos)
        elif mo.group("int"):
            yield ("int", mo.group("int"), pos)
        else:
            yield (mo.group("op"), mo.group("op"), pos)
        pos = mo.end()
    yield ("end", "", len(text))


class _Parser:
    def __init__(self, text, arity: int, presentation: Presentation | None):
        self.tokens = _tokenize(text)
        self.tok = next(self.tokens)
        self.arity, self.presentation = arity, presentation

    def take(self, kind=None):
        tok = self.tok
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1] or 'end'!r}", tok[2])
        self.tok = next(self.tokens)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.tok
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        terms = [self.term()]
        while self.tok[0] == "+":
            self.take("+")
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self):
        factors = [self.pow()]
        while self.tok[0] == "*":
            self.take("*")
            factors.append(self.pow())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def pow(self):
        base = self.atom()
        if self.tok[0] == "^":
            self.take("^")
            tok = self.take("int")
            return Pow(base, int(tok[1]))
        return base

    def atom(self):
        tok = self.tok
        if tok[0] == "gen":
            name, factor, position = _GEN_RE.fullmatch(tok[1]).groups()
            if factor is not None:
                name = f"{name}.{int(factor)}"
            node = Gen(name, int(position))
            if not 1 <= node.position <= self.arity:
                raise ValueError(
                    f"position {node.position} out of range 1..{self.arity} in {to_string(node)!r}"
                )
            if self.presentation is not None:
                _resolve_gen(self.presentation, node.name)
            self.take()
            return node
        if tok[0] == "int":
            if tok[1] == "1":
                self.take()
                return Unit()
            raise ExprSyntaxError(f"unexpected number {tok[1]!r}", tok[2])
        if tok[0] == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok[1] or 'end'!r}", tok[2])


def to_string(node) -> str:
    """Canonical printer; round-trips through :func:`parse_factor_expr`."""
    if isinstance(node, Gen):
        if "." in node.name:
            base, factor = node.name.split(".")
            return f"{base}.{factor}.{node.position}"
        return f"{node.name}{node.position}"
    if isinstance(node, Unit):
        return "1"
    if isinstance(node, Sum):
        return "+".join(_wrap(t, (Sum,)) for t in node.terms)
    if isinstance(node, Prod):
        return "*".join(_wrap(f, (Sum, Prod)) for f in node.factors)
    if isinstance(node, Pow):
        return f"{_wrap(node.base, (Sum, Prod, Pow))}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node, kinds) -> str:
    text = to_string(node)
    return f"({text})" if isinstance(node, kinds) else text


def sum_text(name: str, i: int, j: int) -> str:
    """The factor text of g_i + g_j for the generator g called name, in
    parentheses: ``(a1+a2)``, or ``(x.1.1+x.1.2)`` in a product ring."""
    return _wrap(Sum((Gen(name, i), Gen(name, j))), (Sum,))


def _resolve_gen(P: Presentation, name: str) -> str:
    if name in P.gen_names:
        return name
    # alpha is an accepted alias for the truncated-ring generator
    if name == "alpha" and "x" in P.gen_names:
        return "x"
    raise ValueError(f"unknown generator {name!r}; have {P.gen_names}")


def parse_factor_expr(text: str, arity: int, presentation: Presentation | None = None):
    """Parse a factor expression into its AST, checking each generator."""
    return _Parser(text, arity, presentation).parse()


def evaluate(node, P: Presentation, n: int) -> Element:
    """Evaluate an expression AST in the n-fold tensor power of P."""
    if isinstance(node, Gen):
        return inject(P, n, node.position, generator(P, _resolve_gen(P, node.name)))
    if isinstance(node, Unit):
        return unit(tensor_power(P, n))
    if isinstance(node, Sum):
        acc = evaluate(node.terms[0], P, n)
        for t in node.terms[1:]:
            acc = acc + evaluate(t, P, n)
        return acc
    if isinstance(node, Prod):
        acc = evaluate(node.factors[0], P, n)
        for f in node.factors[1:]:
            acc = multiply(acc, evaluate(f, P, n))
        return acc
    if isinstance(node, Pow):
        return power(evaluate(node.base, P, n), node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_text(text: str, P: Presentation, n: int) -> Element:
    return evaluate(parse_factor_expr(text, n, P), P, n)
