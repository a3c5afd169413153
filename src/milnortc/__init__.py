"""Exact mod-2 bounds on LS-category and higher (equivariant) topological
complexity of Milnor manifolds and projective spaces."""

from .bounds import (
    CIRCLE,
    Z2,
    BoundReport,
    FreeAction,
    Group,
    RuleTrace,
    admits_free_circle,
    admits_free_involution,
    cat_bounds,
    eqtc_bounds,
    tc_bounds,
)
from .certgen import cert_case1, cert_case2, cert_cat_topclass, cert_proj, cert_r2t
from .cuplength import (
    Certificate,
    SearchFailure,
    VerificationReport,
    cup_exact,
    cup_witness,
    is_zero_divisor,
    verify_certificate,
)
from .errors import ExprSyntaxError, NoFreeActionError, ResourceLimitError
from .exprs import evaluate_text, parse_factor_expr, to_string
from .f2algebra import Element, Presentation, binom_mod2, generator, make_presentation
from .spaces import (
    ComplexMilnor,
    ComplexProj,
    ProductSpace,
    RealMilnor,
    RealProj,
    cohomology_of,
    format_space,
    parse_space,
)
from .tensorpower import diagonal_eval, inject, tensor_power

__version__ = "1.0.0"

__all__ = [
    "BoundReport",
    "CIRCLE",
    "Certificate",
    "ComplexMilnor",
    "ComplexProj",
    "Element",
    "ExprSyntaxError",
    "FreeAction",
    "Group",
    "NoFreeActionError",
    "Presentation",
    "ProductSpace",
    "RealMilnor",
    "RealProj",
    "ResourceLimitError",
    "RuleTrace",
    "SearchFailure",
    "VerificationReport",
    "Z2",
    "admits_free_circle",
    "admits_free_involution",
    "binom_mod2",
    "cat_bounds",
    "cert_case1",
    "cert_case2",
    "cert_cat_topclass",
    "cert_proj",
    "cert_r2t",
    "cohomology_of",
    "cup_exact",
    "cup_witness",
    "diagonal_eval",
    "eqtc_bounds",
    "evaluate_text",
    "format_space",
    "generator",
    "inject",
    "is_zero_divisor",
    "make_presentation",
    "parse_factor_expr",
    "parse_space",
    "tc_bounds",
    "tensor_power",
    "to_string",
    "verify_certificate",
]
