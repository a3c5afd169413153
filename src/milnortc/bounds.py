"""Bound assembly: free-action predicates and cat / TC / equivariant-TC
interval reports with per-rule provenance.

Every trace entry is tagged ``machine-verified`` (backed by a verified
certificate, the exact oracle's witness included) or ``claimed`` (a
closed-form bound taken from the literature).  The two are never merged: a
report carries both the overall lower bound and the best machine-verified
one.  Every number of a report is read off its trace rows.  A source asked
for that gave nothing, such as the oracle refused by its slice cap, shows as
a ``skipped`` row whose value is None and whose source is the reason; it
bounds nothing.
"""

from __future__ import annotations

import enum

from .certgen import cert_cat_topclass, certificates_for
from .cuplength import Certificate, cup_witness, verify_certificate
from .errors import NoFreeActionError, ResourceLimitError
from .record import Record
from .spaces import (
    ComplexMilnor,
    RealMilnor,
    RealProj,
    cohomology_of,
    format_space,
    parse_space,
)
from .tensorpower import DEFAULT_MAX_SLICE


class FreeAction(enum.Enum):
    YES = "yes"
    NO = "no"
    OUT_OF_HYPOTHESIS = "out-of-hypothesis"


class Group(Record):
    __slots__ = ("name", "dim")


Z2 = Group("z2", 0)
CIRCLE = Group("s1", 1)

_GROUPS = {"z2": Z2, "s1": CIRCLE}


def resolve_group(group) -> Group:
    if isinstance(group, Group):
        return group
    try:
        return _GROUPS[str(group).lower()]
    except KeyError:
        raise ValueError(f"unknown group {group!r}; expected z2 or s1") from None


class RuleTrace(Record):
    __slots__ = (
        "rule",
        "source",
        "bound",  # "lower" | "upper"
        "value",
        "status",  # "machine-verified" | "claimed" | "skipped"
    )


class BoundReport(Record):
    __slots__ = (
        "space",
        "quantity",  # "cat" | "tc" | "eqtc"
        "n",
        "lower",
        "upper",
        "group",
        "verified_lower",
        "trace",
    )
    _defaults = {"group": None, "verified_lower": None, "trace": ()}

    @property
    def inconsistent(self) -> bool:
        return self.lower > self.upper


def _as_space(space):
    return parse_space(space) if isinstance(space, str) else space


def _report(space, quantity: str, n: int, trace: list) -> BoundReport:
    """The interval read off the trace: the largest lower row (1 when there
    is none), the smallest upper row, and the largest machine-verified
    lower row.  None entries, certificates that did not verify, are
    dropped; skipped rows are kept but bound nothing."""
    trace = tuple(t for t in trace if t is not None)
    rows = [t for t in trace if t.status != "skipped"]
    return BoundReport(
        space=format_space(space),
        quantity=quantity,
        n=n,
        lower=max((t.value for t in rows if t.bound == "lower"), default=1),
        upper=min(t.value for t in rows if t.bound == "upper"),
        verified_lower=max(
            (
                t.value
                for t in rows
                if t.bound == "lower" and t.status == "machine-verified"
            ),
            default=None,
        ),
        trace=trace,
    )


def _verified_row(cert, rule: str, source: str) -> RuleTrace | None:
    """The machine-verified lower row of a certificate, checked in the ring
    of the space it names, or None when it does not verify."""
    report = verify_certificate(cert)
    if report.verdict != "Verified":
        return None
    return RuleTrace(rule, source, "lower", report.verified_cup + 1, "machine-verified")


def _dimension_row(space, n: int) -> RuleTrace:
    return RuleTrace(
        "dimension-upper",
        "dimension of the n-fold power plus one",
        "upper",
        n * space.dimension + 1,
        "claimed",
    )


def _floor_power_of_two(x: int) -> int:
    """The largest power of two at most x >= 1."""
    return 1 << (x.bit_length() - 1)


# --- free-action predicates --------------------------------------------------


def admits_free_involution(r: int, s: int) -> FreeAction:
    """Free involution characterization: within 1 < s < r and
    r != 2 (mod 4), a free involution exists iff r and s are both odd."""
    if not (1 < s < r) or r % 4 == 2:
        return FreeAction.OUT_OF_HYPOTHESIS
    return FreeAction.YES if (r % 2 == 1 and s % 2 == 1) else FreeAction.NO


def admits_free_circle(r: int, s: int) -> FreeAction:
    """Free circle action on the real Milnor manifold iff r and s are odd,
    within 1 <= s <= r; s = 0 is outside the characterization."""
    if not 0 <= s <= r:
        raise ValueError(f"requires 0 <= s <= r, got r={r}, s={s}")
    if s == 0:
        return FreeAction.OUT_OF_HYPOTHESIS
    return FreeAction.YES if (r % 2 == 1 and s % 2 == 1) else FreeAction.NO


# --- category ----------------------------------------------------------------


def cat_bounds(space, n: int) -> BoundReport:
    """Category of the n-fold power: top-class witness below, dimension above."""
    space = _as_space(space)
    if n < 1:
        raise ValueError("n must be >= 1")
    trace = [
        _dimension_row(space, n),
        _verified_row(
            cert_cat_topclass(space, n),
            "top-class-witness",
            "verified nonzero product of generator top powers",
        ),
    ]
    return _report(space, "cat", n, trace)


# --- higher topological complexity -------------------------------------------


def _monotonicity_rules(space, n: int):
    """Closed-form lower bounds via containment of smaller rings; claimed."""
    rules = []
    if isinstance(space, (RealMilnor, ComplexMilnor)):
        r, s = space.r, space.s
        # u >= 2^t1 + 1 and v >= 2^t2 with t1, t2 >= 1
        pairs = [
            n * (_floor_power_of_two(u - 1) + _floor_power_of_two(v)) - 1
            for u, v in ((s, r), (r, s))
            if u >= 3 and v >= 2
        ]
        if pairs:
            rules.append(
                (
                    "power-of-two-pair-monotonicity",
                    "zero-divisor length of the largest embedded power-of-two ring",
                    max(pairs),
                )
            )
        if r >= 2:
            rules.append(
                (
                    "power-of-two-r-monotonicity",
                    "zero-divisor length of the embedded ring with r a power of two",
                    n * (_floor_power_of_two(r) + s - 1) - s + 2,
                )
            )
    elif isinstance(space, RealProj) and space.m >= 1:
        rules.append(
            (
                "projective-monotonicity",
                "zero-divisor length of the embedded power-of-two projective ring",
                n * _floor_power_of_two(space.m),
            )
        )
    return rules


def tc_bounds(
    space,
    n: int,
    *,
    use_oracle: bool = False,
    use_certs: bool = True,
    use_monotonicity: bool = True,
    max_slice: int = DEFAULT_MAX_SLICE,
) -> BoundReport:
    """Interval for the n-th topological complexity.

    Lower bound sources (max over the enabled ones): verified generated
    certificates, the exact ideal-power oracle (its witness verified like
    any certificate), the verified category of the (n-1)-st power, and the
    claimed closed-form monotonicity rules.  Upper bound sources (min):
    dimension, category of the n-th power, and the free circle action
    improvement.  A failing source never blocks the others; an oracle
    refused by max_slice gives a skipped row, and an oracle witness that
    does not verify is a fault and raises RuntimeError.
    """
    space = _as_space(space)
    if n < 2:
        raise ValueError("n must be >= 2")
    dim = space.dimension
    trace = []

    if use_certs:
        source = "verified zero-divisor certificate"
        for rule, cert in certificates_for(space, n):
            trace.append(_verified_row(cert, rule, source))
        trace.append(
            _verified_row(
                cert_cat_topclass(space, n - 1),
                "category-of-lower-power",
                "verified category of the (n-1)-st power",
            )
        )

    if use_oracle:
        try:
            factors = cup_witness(cohomology_of(space), n, max_slice=max_slice)
        except ResourceLimitError as exc:
            trace.append(
                RuleTrace("ideal-power-oracle", str(exc), "lower", None, "skipped")
            )
        else:
            value = sum(mult for _, mult in factors)
            cert = Certificate(format_space(space), n, factors, value, value + 1)
            row = _verified_row(
                cert,
                "ideal-power-oracle",
                "exact mod-2 zero-divisor cup-length plus one",
            )
            if row is None:
                raise RuntimeError(f"the oracle's witness {factors!r} does not verify")
            trace.append(row)

    if use_monotonicity:
        for rule, source, val in _monotonicity_rules(space, n):
            trace.append(RuleTrace(rule, source, "lower", val, "claimed"))

    trace.append(_dimension_row(space, n))
    trace.append(
        RuleTrace(
            "category-of-power-upper",
            "category of the n-th power dominates",
            "upper",
            n * dim + 1,
            "claimed",
        )
    )
    if isinstance(space, RealMilnor):
        if admits_free_circle(space.r, space.s) is FreeAction.YES:
            trace.append(
                RuleTrace(
                    "free-circle-upper",
                    "free circle action improves the dimension bound",
                    "upper",
                    n * dim,
                    "claimed",
                )
            )
    return _report(space, "tc", n, trace)


# --- equivariant -------------------------------------------------------------


def eqtc_bounds(space, group, n: int, **options) -> BoundReport:
    """Interval for the n-th equivariant topological complexity of a free
    action: ordinary TC from below, orbit-space dimension from above.  The
    options are those of :func:`tc_bounds`."""
    space = _as_space(space)
    group = resolve_group(group)
    if n < 2:
        raise ValueError("n must be >= 2")
    if group is Z2:
        if not isinstance(space, (RealMilnor, ComplexMilnor)):
            raise NoFreeActionError(
                "free involutions are characterized for Milnor manifolds only"
            )
        status = admits_free_involution(space.r, space.s)
        if status is not FreeAction.YES:
            raise NoFreeActionError(
                f"no free involution available for {format_space(space)}: "
                f"predicate returned {status.value} "
                "(requires 1 < s < r, r != 2 mod 4, and r, s both odd)"
            )
    elif group is CIRCLE:
        if not isinstance(space, RealMilnor):
            raise NoFreeActionError(
                "free circle actions are characterized for real Milnor manifolds only"
            )
        status = admits_free_circle(space.r, space.s)
        if status is not FreeAction.YES:
            raise NoFreeActionError(
                f"no free circle action on {format_space(space)}: "
                f"predicate returned {status.value} "
                "(requires 1 <= s <= r and r, s both odd)"
            )
    else:
        raise ValueError(f"unsupported group {group!r}")

    tc = tc_bounds(space, n, **options)
    upper = n * space.dimension - group.dim + 1
    # the orbit bound alone is the upper end: the TC_n upper rows inherited
    # from the trace do not bound the equivariant complexity
    return tc.replace(
        quantity="eqtc",
        group=group.name,
        upper=upper,
        trace=tc.trace
        + (
            RuleTrace(
                "equivariant-dominates-ordinary",
                "ordinary complexity is a lower bound for the equivariant one",
                "lower",
                tc.lower,
                "claimed",
            ),
            RuleTrace(
                "free-action-orbit-dimension",
                "orbit-space dimension bound for a free action",
                "upper",
                upper,
                "claimed",
            ),
        ),
    )
