"""Bound assembly: free-action predicates and cat / TC / equivariant-TC
interval reports with per-rule provenance.

Every trace entry is tagged ``machine-verified`` (backed by a verified
certificate, the exact oracle's witness included) or ``claimed`` (a
closed-form bound taken from the literature).  The two are never merged: a
report carries both the overall lower bound and the best machine-verified
one.  A report stores only its rows, and every number of it is read off
them.  An equivariant report holds the lower rows of TC_n, which bound it
too, and the orbit-dimension row as its only upper row.  A source asked
for that gave nothing, such as the oracle refused by its row budget, shows
as a ``skipped`` row whose value is None and whose source is the reason.
Spaces are descriptors of :mod:`milnortc.spaces` and groups are
:class:`Group` records; a report, which is output, holds the space's text.
:func:`emit_report` and :func:`emit_table` write reports as md, csv or
json text, the same bytes for the same reports; only the csv and json
writers import their standard modules.
"""

import enum

from .certgen import cert_cat_topclass, certificates_for
from .cuplength import cup_witness, verify_certificate
from .errors import NoFreeActionError, ResourceLimitError
from .exprs import Certificate
from .record import Record
from .spaces import ComplexMilnor, RealMilnor, RealProj, _family, cohomology_of, format_space


class FreeAction(enum.Enum):
    YES = "yes"
    NO = "no"
    OUT_OF_HYPOTHESIS = "out-of-hypothesis"


class Group(Record):
    __slots__ = ("name", "dim")


Z2 = Group("z2", 0)
CIRCLE = Group("s1", 1)

_GROUPS = {"z2": Z2, "s1": CIRCLE}


def resolve_group(name: str) -> Group:
    """The group called name, as the CLI's --group writes it."""
    try:
        return _GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; expected z2 or s1") from None


class RuleTrace(Record):
    __slots__ = (
        "rule",
        "source",
        "bound",  # "lower" | "upper"
        "value",
        "status",  # "machine-verified" | "claimed" | "skipped"
    )


class BoundReport(Record):
    """The interval of quantity ("cat", "tc" or "eqtc") and the trace rows it
    is read off: ``lower`` is the largest lower row (1 when there is none),
    ``upper`` the smallest upper row and ``verified_lower`` the largest
    machine-verified lower row.  Skipped rows bound nothing."""

    __slots__ = ("space", "quantity", "n", "group", "trace")
    _defaults = {"group": None, "trace": ()}

    def _ends(self, bound: str, statuses=("machine-verified", "claimed")) -> list:
        return [
            t.value for t in self.trace if t.bound == bound and t.status in statuses
        ]

    @property
    def lower(self) -> int:
        return max(self._ends("lower"), default=1)

    @property
    def upper(self) -> int:
        return min(self._ends("upper"))

    @property
    def verified_lower(self) -> int | None:
        return max(self._ends("lower", ("machine-verified",)), default=None)

    @property
    def inconsistent(self) -> bool:
        return self.lower > self.upper


def _report(space, quantity: str, n: int, trace: list, group=None) -> BoundReport:
    """The report of trace, without its None entries (failed certificates)."""
    trace = tuple(t for t in trace if t is not None)
    return BoundReport(format_space(space), quantity, n, group, trace)


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


# group -> the spaces its predicate characterizes, the predicate, and the
# wording of a refusal: the action, those spaces and the predicate's
# hypotheses.  tc_bounds' circle row and eqtc_bounds' refusal both read it
_FREE_ACTIONS = {
    Z2: ((RealMilnor, ComplexMilnor), admits_free_involution, "free involution",
         "Milnor manifolds", "1 < s < r, r != 2 mod 4, and r, s both odd"),
    CIRCLE: ((RealMilnor,), admits_free_circle, "free circle action",
             "real Milnor manifolds", "1 <= s <= r and r, s both odd"),
}


def _free_action_refusal(space, group: Group) -> str | None:
    """None when group is known to act freely on space, else why not."""
    try:
        kinds, predicate, action, where, hypotheses = _FREE_ACTIONS[group]
    except KeyError:
        raise ValueError(f"unsupported group {group!r}") from None
    if not isinstance(space, kinds):
        return f"{action}s are characterized for {where} only"
    status = predicate(space.r, space.s)
    if status is not FreeAction.YES:
        return (
            f"no {action} on {format_space(space)}: predicate returned "
            f"{status.value} (requires {hypotheses})"
        )
    return None


# --- category ----------------------------------------------------------------


def cat_bounds(space, n: int) -> BoundReport:
    """Category of the n-fold power: top-class witness below, dimension above."""
    _family(space)
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
    """Closed-form lower bounds via containment of smaller rings; claimed.
    The r-monotonicity rule needs s >= 1: at s = 0 the ring is that of
    RP^(r-1), where for r = 2^t it would claim n(r - 1) + 2, above the
    dimension upper bound n(r - 1) + 1."""
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
        if r >= 2 and s >= 1:
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
) -> BoundReport:
    """Interval for the n-th topological complexity.

    Lower bound sources (max over the enabled ones): verified generated
    certificates, the exact ideal-power oracle (its witness verified like
    any certificate), the verified category of the (n-1)-st power, and the
    claimed closed-form monotonicity rules.  Upper bound sources (min):
    dimension, category of the n-th power, and the free circle action
    improvement.  A failing source never blocks the others; an oracle
    run past its row budget (:data:`milnortc.slotchain.BUDGET`) gives a
    skipped row, and an oracle witness that does not verify is a fault and
    raises RuntimeError.  The budget bounds the oracle run only: the
    witness is then verified by multiplying it out, at a cost it does not
    bound.
    """
    _family(space)
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
            factors = cup_witness(cohomology_of(space), n)
        except ResourceLimitError as exc:
            trace.append(
                RuleTrace("ideal-power-oracle", str(exc), "lower", None, "skipped")
            )
        else:
            value = sum(mult for _, mult in factors)
            cert = Certificate(space, n, factors, value)
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
    if _free_action_refusal(space, CIRCLE) is None:
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


def eqtc_bounds(space, group: Group, n: int, **options) -> BoundReport:
    """Interval for the n-th equivariant topological complexity of a free
    action.  TC_{G,n} >= TC_n (Bayeh and Sarkar, J. Homotopy Relat. Struct.
    2020), so every lower row of the TC_n report bounds it too and is kept
    with its own status.  The upper rows of TC_n do not bound it: the
    orbit-space dimension n * dim - dim G + 1 is its only upper row.  The
    options are those of :func:`tc_bounds`."""
    _family(space)
    if n < 2:
        raise ValueError("n must be >= 2")
    refusal = _free_action_refusal(space, group)
    if refusal is not None:
        raise NoFreeActionError(refusal)
    trace = [t for t in tc_bounds(space, n, **options).trace if t.bound == "lower"]
    trace.append(
        RuleTrace(
            "free-action-orbit-dimension",
            "orbit-space dimension bound for a free action",
            "upper",
            n * space.dimension - group.dim + 1,
            "claimed",
        )
    )
    return _report(space, "eqtc", n, trace, group.name)


# --- report text -------------------------------------------------------------

_QUANTITY_LABEL = {"cat": "cat", "tc": "TC", "eqtc": "TC_G"}


def _json_text(doc) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _report_dict(report: BoundReport) -> dict:
    return {
        "space": report.space,
        "quantity": report.quantity,
        "n": report.n,
        "group": report.group,
        "lower": report.lower,
        "upper": report.upper,
        "verifiedLower": report.verified_lower,
        "inconsistent": report.inconsistent,
        # a row's keys are its record's fields, in slot order
        "trace": [dict(zip(t.__slots__, t._values())) for t in report.trace],
    }


_MAIN_HEADER = "| space | n | quantity | lower | upper |\n|---|---|---|---|---|"
_TRACE_HEADER = "| rule | bound | value | status |\n|---|---|---|---|"
_CSV_HEADER = ("space", "n", "quantity", "group", "lower", "upper",
               "rule", "bound", "value", "status")


def _main_row(report: BoundReport) -> str:
    label = _QUANTITY_LABEL[report.quantity]
    return f"| {report.space} | {report.n} | {label} | {report.lower} | {report.upper} |"


def _csv_text(reports) -> str:
    """The header and one row per trace entry, quoted where a field holds
    a comma (space strings such as rh:5,3 do)."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in reports:
        label = _QUANTITY_LABEL[r.quantity]
        base = [r.space, r.n, label, r.group or "", r.lower, r.upper]
        writer.writerows(base + [t.rule, t.bound, t.value, t.status] for t in r.trace)
    return out.getvalue()


def emit_report(report: BoundReport, fmt: str = "md") -> str:
    if fmt == "md":
        lines = [_MAIN_HEADER, _main_row(report), "", _TRACE_HEADER]
        for t in report.trace:
            lines.append(f"| {t.rule} | {t.bound} | {t.value} | {t.status} |")
        if report.inconsistent:
            lines += ["", "**inconsistent: lower exceeds upper**"]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text([report])
    if fmt == "json":
        return _json_text(_report_dict(report))
    raise ValueError(f"unknown format {fmt!r}")


def emit_table(reports, fmt: str = "md") -> str:
    reports = sorted(reports, key=lambda r: (r.space, r.n, r.quantity))
    if fmt == "md":
        lines = [_MAIN_HEADER] + [_main_row(r) for r in reports]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text(reports)
    if fmt == "json":
        return _json_text([_report_dict(r) for r in reports])
    raise ValueError(f"unknown format {fmt!r}")
