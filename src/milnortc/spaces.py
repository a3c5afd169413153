"""Space descriptors: Milnor manifolds, projective spaces, and products.

Canonical string forms (used in certificate files and CLI flags):
``rh:4,3`` and ``ch:4,3`` for real/complex Milnor manifolds with (r, s),
``rp:2`` / ``cp:2`` for projective spaces, and ``prod:rp3,rp2`` for
products (factors written compactly, e.g. ``rh4.3``, ``rp3``).

Each descriptor class carries its family prefix, its ring kind and
(products aside) its generator degree; two mixins check the fields and
give the dimension.  That check is the only one: :func:`cohomology_of`
builds one ring per descriptor and keys it by the descriptor.  Parsing,
formatting and :func:`cohomology_of` read the one ``_FAMILIES`` table,
from prefix to class.
"""

from __future__ import annotations

import re

from .f2algebra import _PRESENTATION_CACHE, Presentation
from .record import Record


class _Milnor:
    # fields (r, s): a^(s+1) = 0 and b^r = a b^(r-1) + ... + a^s b^(r-s)
    __slots__ = ()
    kind = "milnor"

    def _check(self):
        if (type(self.r), type(self.s)) != (int, int):
            raise ValueError("r and s must be integers")
        if not 0 <= self.s <= self.r or self.r < 1:
            raise ValueError(
                "Milnor manifold requires r >= 1 and 0 <= s <= r, "
                f"got r={self.r}, s={self.s}"
            )

    @property
    def dimension(self) -> int:
        return self.gen_degree * (self.r + self.s - 1)


class _Proj:
    # field m: x^(m+1) = 0
    __slots__ = ()
    kind = "truncated"

    def _check(self):
        if type(self.m) is not int:
            raise ValueError("m must be an integer")
        if self.m < 0:
            raise ValueError("projective space dimension must be >= 0")

    @property
    def dimension(self) -> int:
        return self.gen_degree * self.m


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


class ProductSpace(Record):
    __slots__ = ("factors",)
    family, kind = "prod", "product"

    def _check(self):
        if type(self.factors) is not tuple:
            raise ValueError(f"factors must be of type tuple, got {self.factors!r}")
        if not self.factors:
            raise ValueError("product space needs at least one factor")
        if ProductSpace in map(_family, self.factors):
            raise ValueError("a product factor may not be a product")

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)


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
    cls = _family(space)
    P = _PRESENTATION_CACHE.get(space)
    if P is None:
        factors = tuple(map(cohomology_of, space.factors)) if cls is ProductSpace else ()
        P = _PRESENTATION_CACHE[space] = Presentation(space, factors)
    return P


# a product factor: the family prefix, then its fields joined by "."
_FACTOR_RE = re.compile(r"^([a-z]+)(\d+(?:\.\d+)*)$")


def _parse_factor(text: str):
    mo = _FACTOR_RE.match(text)
    cls = _FAMILIES.get(mo.group(1)) if mo else None
    values = mo.group(2).split(".") if mo else ()
    if cls in (None, ProductSpace) or len(values) != len(cls.__slots__):
        raise ValueError(f"cannot parse product factor {text!r}")
    return cls(*map(int, values))


def parse_space(text: str):
    """Parse the canonical space string form."""
    text = text.strip().lower()
    if ":" not in text:
        raise ValueError(f"cannot parse space {text!r}")
    head, _, rest = text.partition(":")
    cls = _FAMILIES.get(head)
    if cls is None:
        raise ValueError(f"unknown space family {head!r}")
    if cls is ProductSpace:
        return ProductSpace(tuple(_parse_factor(p) for p in rest.split(",")))
    # a one-field family reads the whole rest as its number
    parts = rest.split(",") if len(cls.__slots__) > 1 else [rest]
    if len(parts) != len(cls.__slots__):
        raise ValueError(f"expected '{head}:{','.join(cls.__slots__)}', got {text!r}")
    return cls(*map(int, parts))


def format_space(space) -> str:
    if _family(space) is ProductSpace:
        # factors compactly: rh:4,3 -> rh4.3, rp:3 -> rp3
        inner = (format_space(f).replace(":", "").replace(",", ".") for f in space.factors)
        return "prod:" + ",".join(inner)
    return f"{space.family}:" + ",".join(map(str, space._values()))
