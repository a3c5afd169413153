"""Elements and their arithmetic, factor expressions and the tensor-power
elements they denote, and the certificate records that hold them.

An :class:`Element` is an immutable mod-2 sum of basic monomials of a
:class:`~milnortc.f2algebra.Presentation` or of a tensor power of one;
:func:`multiply`, :func:`power`, :func:`unit` and :func:`zero` serve both.

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

An expression is evaluated in the n-fold Künneth tensor power of a
presentation: :func:`tensor_power` gives it as an algebra that
:class:`Element` and its arithmetic accept.  Its monomials are n-tuples
of basic monomials of the base presentation, and its basis is never
enumerated whole.  Its products are not memoised: a
pair of tensor monomials is multiplied in the base ring only in the slots
where the sparser operand is not the unit, which for a certificate factor
(a sum of classes injected in one or two slots) is one or two of the n
slots.  The diagonal map evaluates a tensor monomial to the product of its
components in the base ring.

A :class:`Certificate` lists such expressions as factors with
multiplicities; :func:`milnortc.cuplength.verify_certificate` checks it and
returns a :class:`VerificationReport`.  None of this is on the exact
oracle's path, so a ``cup`` command never runs this module.
"""

import re
from itertools import product as iproduct

from .errors import ExprSyntaxError
from .f2algebra import Presentation
from .record import Record
from .spaces import _family


# --- elements and their arithmetic -------------------------------------------


class Element(Record):
    """Mod-2 sum of basic monomials of one algebra: a presentation or a
    tensor power of one."""

    __slots__ = ("algebra", "support")

    def _check(self):
        for mono in self.support:
            if not self.algebra.is_basic(mono):
                raise ValueError(f"non-basic monomial in support: {mono}")

    @classmethod
    def computed(cls, algebra, support: frozenset) -> "Element":
        """An element whose support the engine computed from basic
        monomials, so it is not checked again."""
        el = object.__new__(cls)
        object.__setattr__(el, "algebra", algebra)
        object.__setattr__(el, "support", support)
        return el

    @property
    def is_zero(self) -> bool:
        return not self.support

    @property
    def degree(self):
        """Common degree of the support, or None if zero/inhomogeneous."""
        degs = {self.algebra.monomial_degree(m) for m in self.support}
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other: "Element") -> "Element":
        _check_same(self, other)
        return Element.computed(self.algebra, self.support ^ other.support)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __repr__(self):
        terms = map(self.algebra.format_monomial, sorted(self.support))
        return "Element(" + (" + ".join(terms) or "0") + ")"


def _check_same(x: Element, y: Element):
    if x.algebra is not y.algebra:
        raise ValueError("elements belong to different algebras")


def zero(A) -> Element:
    return Element.computed(A, frozenset())


def unit(A) -> Element:
    """The multiplicative unit."""
    return Element.computed(A, frozenset((A.one,)))


def generator(P: Presentation, name: str) -> Element:
    if name not in P.gen_names:
        raise ValueError(f"unknown generator {name!r}; have {P.gen_names}")
    idx = P.gen_names.index(name)
    exps = tuple(1 if k == idx else 0 for k in range(P.ngens))
    return Element(P, P.reduce(exps))


def multiply(x: Element, y: Element) -> Element:
    _check_same(x, y)
    A = x.algebra
    return Element.computed(A, frozenset(A.mul_supports(x.support, y.support)))


def power(x: Element, e: int) -> Element:
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if e == 0:
        return unit(x.algebra)
    # start from the first power of x taken, never from the unit
    result = None
    while e:
        if e & 1:
            result = x if result is None else multiply(result, x)
        e >>= 1
        if e:
            x = multiply(x, x)
    return result


# --- factor expressions ------------------------------------------------------


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
    r"\s*(?:(?P<gen>(?P<name>[a-z]+)(?:\.(?P<factor>[0-9]+)\.)?(?P<position>[0-9]+))"
    r"|(?P<int>[0-9]+)|(?P<op>[+*^()]))"
)
# a generator's name and factor before a digit of another script, or nothing
_NAME_BEFORE_DIGIT_RE = re.compile(r"(?:[a-z]+(?:\.[0-9]*\.?)?(?=\d)(?![0-9]))?")


def _tokenize(text: str):
    # lazy, so that the first error in reading order is the one reported.
    # A token is (kind, text, offset); a generator's also holds the texts of
    # its name, factor (None outside a product ring) and position
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if not mo or mo.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            # name the character after the spaces the pattern skips, or a
            # digit of another script after a generator's name
            pos = len(text) - len(rest) + _NAME_BEFORE_DIGIT_RE.match(rest).end()
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if mo.group("gen"):
            yield ("gen", mo.group("gen"), pos, mo.group("name", "factor", "position"))
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
            name, factor, position = tok[3]
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


# --- elements of tensor powers -----------------------------------------------

_POWER_CACHE: dict = {}


class TensorPower:
    """The n-fold tensor power of a base presentation.

    Construct via :func:`tensor_power`, which interns instances so equal
    (presentation, n) pairs share one object.
    """

    def __init__(self, base: Presentation, n: int):
        self.base = base
        self.n = n
        self.one = (base.one,) * n

    def monomial_degree(self, tup) -> int:
        return sum(self.base.monomial_degree(c) for c in tup)

    def is_basic(self, tup) -> bool:
        return (
            isinstance(tup, tuple)
            and len(tup) == self.n
            and all(self.base.is_basic(c) for c in tup)
        )

    def format_monomial(self, tup) -> str:
        return "(" + "⊗".join(map(self.base.format_monomial, tup)) + ")"

    def mul_supports(self, xs, ys) -> set:
        """Product of two supports.  A pair of tensor monomials multiplies
        in the base ring only in the slots where the sparser side (the one
        with more unit slots per monomial) is not the unit; every other
        slot keeps the other side's monomial, since the unit times m is m.
        Each slot product is looked up once per value it meets, and the
        tensor of the slot supports is expanded only over the slots whose
        product has several terms."""
        P, one = self.base, self.base.one
        if sum(mu.count(one) for mu in xs) * len(ys) < sum(
            mv.count(one) for mv in ys
        ) * len(xs):
            xs, ys = ys, xs
        mono_mul = P.mono_mul
        out: set = set()
        for mu in xs:
            # (slot, factor, its products by the values met in that slot)
            slots = [(k, c, {}) for k, c in enumerate(mu) if c != one]
            for mv in ys:
                prod = list(mv)
                multi = []
                for k, c, seen in slots:
                    sup = seen.get(mv[k])
                    if sup is None:
                        sup = seen[mv[k]] = mono_mul(c, mv[k])
                    if len(sup) == 1:
                        (prod[k],) = sup
                    elif sup:
                        multi.append((k, sup))
                    else:
                        break
                else:
                    if not multi:
                        out ^= {tuple(prod)}
                        continue
                    ks = [k for k, _ in multi]
                    for terms in iproduct(*(sup for _, sup in multi)):
                        for k, c in zip(ks, terms):
                            prod[k] = c
                        out ^= {tuple(prod)}
        return out


def tensor_power(P: Presentation, n: int) -> TensorPower:
    """The interned n-fold tensor power of P."""
    T = _POWER_CACHE.get((P, n))
    if T is None:
        T = _POWER_CACHE[(P, n)] = TensorPower(P, n)
    return T


def inject(P: Presentation, n: int, i: int, x: Element) -> Element:
    """Image of x under the i-th projection pullback: units in all other slots."""
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    if x.algebra is not P:
        raise ValueError("element is not over the given presentation")
    support = frozenset(
        tuple(mono if k == i - 1 else P.one for k in range(n)) for mono in x.support
    )
    return Element.computed(tensor_power(P, n), support)


def diagonal_eval(u: Element) -> Element:
    """Ring homomorphism replacing each tensor monomial by the product of
    its components in the base ring."""
    P = u.algebra.base
    out: set = set()
    for tup in u.support:
        total = tuple(sum(col) for col in zip(*tup))
        out ^= P.reduce(total)
    return Element(P, frozenset(out))


# --- certificate records -----------------------------------------------------


def is_zero_divisor(u: Element) -> bool:
    """True iff u lies in the kernel of the diagonal map."""
    return diagonal_eval(u).is_zero


class Certificate(Record):
    """A claimed cup-length witness: factors with multiplicities, checked
    in the ring of space, a space descriptor.  Construction is the one
    check of its fields, and admits exactly what a certificate file holds,
    so every record the writer writes reads back equal."""

    __slots__ = (
        "space",
        "n",
        "factors",  # ((expression string, multiplicity), ...)
        "claimed_cup",
        "note",
        "cat_witness",
    )
    _defaults = {"note": None, "cat_witness": False}

    @property
    def claimed_tc_lower(self) -> int:
        return self.claimed_cup + 1

    def _check(self):
        _family(self.space)
        # nothing is coerced, and a bool is not an int
        for field, kind in (("n", int), ("claimed_cup", int), ("cat_witness", bool)):
            value = getattr(self, field)
            if type(value) is not kind:
                raise ValueError(f"{field} must be of type {kind.__name__}, got {value!r}")
        if not (self.note is None or type(self.note) is str):
            raise ValueError(f"note must be None or of type str, got {self.note!r}")
        if self.n < 1:
            raise ValueError("arity must be >= 1")
        if type(self.factors) is not tuple:
            raise ValueError(f"factors must be of type tuple, got {self.factors!r}")
        for f in self.factors:
            if type(f) is not tuple or tuple(map(type, f)) != (str, int) or f[1] < 1:
                raise ValueError(f"factor {f!r} is not a (str, positive int) pair")
        total = sum(mult for _, mult in self.factors)
        if total != self.claimed_cup:
            raise ValueError(
                f"total factor count {total} != claimed cup {self.claimed_cup}"
            )


class FactorCheck(Record):
    __slots__ = ("expression", "is_zero_divisor", "degree")


class VerificationReport(Record):
    __slots__ = (
        "per_factor",
        "product_nonzero",
        "verified_cup",
        "verdict",  # Verified | FactorNotZeroDivisor | ProductVanishes
    )

    @property
    def verified_tc_lower(self) -> int | None:
        return None if self.verified_cup is None else self.verified_cup + 1


def _slots(el: Element) -> set:
    """The slots in which some monomial of the tensor element el is not
    the unit."""
    one, support = el.algebra.base.one, el.support
    return {k for k in range(el.algebra.n) if any(m[k] != one for m in support)}


class SearchFailure(Record):
    """A certificate family gave no certificate: its product vanishes."""

    __slots__ = ("reason",)
