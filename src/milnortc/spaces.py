"""Space descriptors: Milnor manifolds, projective spaces, and products.

Canonical string forms (used in certificate files and CLI flags):
``rh:4,3`` and ``ch:4,3`` for real/complex Milnor manifolds with (r, s),
``rp:2`` / ``cp:2`` for projective spaces, and ``prod:rp3,rp2`` for
products (factors written compactly, e.g. ``rh4.3``, ``rp3``).
"""

from __future__ import annotations

import re

from .f2algebra import Presentation, make_presentation
from .record import Record


class RealMilnor(Record):
    __slots__ = ("r", "s")

    def _check(self):
        _check_rs(self.r, self.s)

    @property
    def dimension(self) -> int:
        return self.r + self.s - 1


class ComplexMilnor(Record):
    __slots__ = ("r", "s")

    def _check(self):
        _check_rs(self.r, self.s)

    @property
    def dimension(self) -> int:
        return 2 * (self.r + self.s - 1)


class RealProj(Record):
    __slots__ = ("m",)

    def _check(self):
        if self.m < 0:
            raise ValueError("projective space dimension must be >= 0")

    @property
    def dimension(self) -> int:
        return self.m


class ComplexProj(Record):
    __slots__ = ("m",)

    def _check(self):
        if self.m < 0:
            raise ValueError("projective space dimension must be >= 0")

    @property
    def dimension(self) -> int:
        return 2 * self.m


class ProductSpace(Record):
    __slots__ = ("factors",)

    def _check(self):
        if not self.factors:
            raise ValueError("product space needs at least one factor")

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)


def _check_rs(r, s):
    if not (isinstance(r, int) and isinstance(s, int)):
        raise ValueError("r and s must be integers")
    if not 0 <= s <= r or r < 1:
        raise ValueError(
            f"Milnor manifold requires r >= 1 and 0 <= s <= r, got r={r}, s={s}"
        )


def cohomology_of(space) -> Presentation:
    """Mod-2 cohomology presentation of the space."""
    if isinstance(space, RealMilnor):
        return make_presentation(kind="milnor", s=space.s, r=space.r, gen_degree=1)
    if isinstance(space, ComplexMilnor):
        return make_presentation(kind="milnor", s=space.s, r=space.r, gen_degree=2)
    if isinstance(space, RealProj):
        return make_presentation(kind="truncated", m=space.m, gen_degree=1)
    if isinstance(space, ComplexProj):
        return make_presentation(kind="truncated", m=space.m, gen_degree=2)
    if isinstance(space, ProductSpace):
        return make_presentation(
            kind="product", factors=[cohomology_of(f) for f in space.factors]
        )
    raise ValueError(f"unknown space descriptor: {space!r}")


_FACTOR_RE = re.compile(r"^(rh|ch)(\d+)\.(\d+)$|^(rp|cp)(\d+)$")


def _parse_factor(text: str):
    mo = _FACTOR_RE.match(text)
    if not mo:
        raise ValueError(f"cannot parse product factor {text!r}")
    if mo.group(1):
        cls = RealMilnor if mo.group(1) == "rh" else ComplexMilnor
        return cls(int(mo.group(2)), int(mo.group(3)))
    cls = RealProj if mo.group(4) == "rp" else ComplexProj
    return cls(int(mo.group(5)))


def parse_space(text: str):
    """Parse the canonical space string form."""
    text = text.strip().lower()
    if ":" not in text:
        raise ValueError(f"cannot parse space {text!r}")
    head, _, rest = text.partition(":")
    if head in ("rh", "ch"):
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected '{head}:r,s', got {text!r}")
        r, s = int(parts[0]), int(parts[1])
        return (RealMilnor if head == "rh" else ComplexMilnor)(r, s)
    if head in ("rp", "cp"):
        m = int(rest)
        return (RealProj if head == "rp" else ComplexProj)(m)
    if head == "prod":
        return ProductSpace(tuple(_parse_factor(p) for p in rest.split(",")))
    raise ValueError(f"unknown space family {head!r}")


def format_space(space) -> str:
    if isinstance(space, RealMilnor):
        return f"rh:{space.r},{space.s}"
    if isinstance(space, ComplexMilnor):
        return f"ch:{space.r},{space.s}"
    if isinstance(space, RealProj):
        return f"rp:{space.m}"
    if isinstance(space, ComplexProj):
        return f"cp:{space.m}"
    if isinstance(space, ProductSpace):
        # factors compactly: rh:4,3 -> rh4.3, rp:3 -> rp3
        inner = (format_space(f).replace(":", "").replace(",", ".") for f in space.factors)
        return "prod:" + ",".join(inner)
    raise ValueError(f"unknown space descriptor: {space!r}")
