"""Space descriptors: Milnor manifolds, projective spaces, and products.

Canonical string forms (used in certificate files and CLI flags):
``rh:4,3`` and ``ch:4,3`` for real/complex Milnor manifolds with (r, s),
``rp:2`` / ``cp:2`` for projective spaces, and ``prod:rp3,rp2`` for
products (factors written compactly, e.g. ``rh4.3``, ``rp3``).  Numbers
are written in ASCII digits, with no leading zero and no ``-0``, and
family prefixes in lower case, with no space around the text, so that
:func:`parse_space` accepts exactly the texts that :func:`format_space`
writes.

Each family states its mod-2 cohomology ring as ``generators``: one
``(name, degree, bound, terms)`` per generator g, meaning ``g^bound =
sum(terms)``, where each term keeps g below its bound and raises only
generators before g, so that the rewriting of :mod:`milnortc.f2algebra`
ends.  A product concatenates its factors' generators.  The dimension is
read off the same data, and the descriptor's check of its fields is the
only one: :func:`cohomology_of` builds one ring per descriptor and keys it
by the descriptor.  Parsing, formatting and :func:`cohomology_of` read the
one ``_FAMILIES`` table, from prefix to class.
"""

from .f2algebra import _PRESENTATION_CACHE, Presentation
from .record import Record


class _Ring:
    # the top degree: each generator one below its bound
    __slots__ = ()

    @property
    def dimension(self) -> int:
        return sum((bound - 1) * degree for _, degree, bound, _ in self.generators)


class _Milnor(_Ring):
    # fields (r, s): a^(s+1) = 0 and b^r = a b^(r-1) + ... + a^s b^(r-s)
    __slots__ = ()

    def _check(self):
        if (type(self.r), type(self.s)) != (int, int):
            raise ValueError("r and s must be integers")
        if not 0 <= self.s <= self.r or self.r < 1:
            raise ValueError(
                "Milnor manifold requires r >= 1 and 0 <= s <= r, "
                f"got r={self.r}, s={self.s}"
            )

    @property
    def generators(self) -> tuple:
        d, r, s = self.gen_degree, self.r, self.s
        b_terms = tuple((k, r - k) for k in range(1, s + 1))
        return ("a", d, s + 1, ()), ("b", d, r, b_terms)


class _Proj(_Ring):
    # field m: x^(m+1) = 0
    __slots__ = ()

    def _check(self):
        if type(self.m) is not int:
            raise ValueError("m must be an integer")
        if self.m < 0:
            raise ValueError("projective space dimension must be >= 0")

    @property
    def generators(self) -> tuple:
        return (("x", self.gen_degree, self.m + 1, ()),)


class RealMilnor(_Milnor, Record):
    __slots__ = ("r", "s")
    family, gen_degree = "rh", 1


class ComplexMilnor(_Milnor, Record):
    __slots__ = ("r", "s")
    family, gen_degree = "ch", 2


class RealProj(_Proj, Record):
    __slots__ = ("m",)
    family, gen_degree = "rp", 1


class ComplexProj(_Proj, Record):
    __slots__ = ("m",)
    family, gen_degree = "cp", 2


class ProductSpace(_Ring, Record):
    __slots__ = ("factors",)
    family = "prod"

    def _check(self):
        if type(self.factors) is not tuple:
            raise ValueError(f"factors must be of type tuple, got {self.factors!r}")
        if not self.factors:
            raise ValueError("product space needs at least one factor")
        if ProductSpace in map(_family, self.factors):
            raise ValueError("a product factor may not be a product")

    @property
    def generators(self) -> tuple:
        # the idx-th factor's g is g.idx, its terms padded with zeros
        parts = [f.generators for f in self.factors]
        gens = []
        for idx, part in enumerate(parts):
            left = (0,) * sum(map(len, parts[:idx]))
            right = (0,) * sum(map(len, parts[idx + 1 :]))
            gens += [(f"{g}.{idx + 1}", d, bound, tuple(left + t + right for t in terms))
                     for g, d, bound, terms in part]
        return tuple(gens)


_FAMILIES = {
    cls.family: cls
    for cls in (RealMilnor, ComplexMilnor, RealProj, ComplexProj, ProductSpace)
}


def _family(space):
    """The descriptor class of space, which must be one of _FAMILIES."""
    cls = type(space)
    if _FAMILIES.get(getattr(cls, "family", None)) is not cls:
        raise ValueError(f"unknown space descriptor: {space!r}")
    return cls


def cohomology_of(space) -> Presentation:
    """Mod-2 cohomology ring of the space, built once per descriptor."""
    _family(space)
    P = _PRESENTATION_CACHE.get(space)
    if P is None:
        P = _PRESENTATION_CACHE[space] = Presentation(space)
    return P


def _is_digits(text: str) -> bool:
    # int() alone also reads "4_3", "+2", spaces and other scripts' digits
    return text.isascii() and text.isdigit()


def _parse_factor(text: str):
    # format_space writes the factor rh:4,3 as rh4.3; this reads it back.
    # A product is refused too: its factors here would be bare numbers
    head = text.rstrip("0123456789.")
    try:
        cls, values = _read(f"{head}:{text[len(head):].replace('.', ',')}")
    except ValueError:
        raise ValueError(f"cannot parse product factor {text!r}") from None
    return cls(*values)


def _read(text: str) -> tuple:
    """The descriptor class of the space text and the values of its
    fields, which that class checks; a product's fields are its factors."""
    if ":" not in text:
        raise ValueError(f"cannot parse space {text!r}")
    head, _, rest = text.partition(":")
    cls = _FAMILIES.get(head)
    if cls is None:
        raise ValueError(f"unknown space family {head!r}")
    if cls is ProductSpace:
        return cls, (tuple(map(_parse_factor, rest.split(","))),)
    # a wrong count of fields, or a field that is no number at all, gets
    # the family's form; one that int() reads gets the digit rule below
    expected = f"expected '{head}:{','.join(cls.__slots__)}', got {text!r}"
    parts = rest.split(",")
    if len(parts) != len(cls.__slots__):
        raise ValueError(expected)
    try:
        values = tuple(map(int, parts))
    except ValueError:
        raise ValueError(expected) from None
    if not all(_is_digits(p.removeprefix("-")) for p in parts):
        raise ValueError(f"numbers must be written in ASCII digits, got {text!r}")
    # as format_space writes them, so that the text names one descriptor;
    # a negative field is left to the descriptor's check
    if any(str(v) != p for v, p in zip(values, parts)):
        raise ValueError(
            f"numbers must be written with no leading zero and no -0, got {text!r}"
        )
    return cls, values


def parse_space(text: str):
    """Parse the space string form, as written: nothing is stripped or
    lower-cased, so ``' RH:5,3'`` is refused."""
    cls, values = _read(text)
    return cls(*values)


def format_space(space) -> str:
    if _family(space) is ProductSpace:
        # factors compactly: rh:4,3 -> rh4.3, rp:3 -> rp3
        inner = (format_space(f).replace(":", "").replace(",", ".") for f in space.factors)
        return "prod:" + ",".join(inner)
    return f"{space.family}:" + ",".join(map(str, space._values()))
