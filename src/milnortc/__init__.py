"""Exact mod-2 bounds on LS-category and higher (equivariant) topological
complexity of Milnor manifolds and projective spaces.

Importing the package runs none of its layers.  Every submodule but
``cli`` is registered in ``sys.modules``, and bound as an attribute of the
package, through :class:`importlib.util.LazyLoader`: it runs on the first
access to one of its attributes, a ``from .x import y`` of it included.
So a CLI command runs only the modules it calls, which matters when no
bytecode is cached and every module that runs is compiled first, and
``import milnortc.cli`` runs only ``errors``.  The exact oracle is
``cuplength``, its cache and witnesses, and ``slotchain``, its program,
with ``gf2`` the echelon forms of its states.  ``cup`` runs nothing else
but the ring layers below them and ``cli``, which holds ``cup``'s body and
names each other command's body and its module.  Elements and their
arithmetic, factor expressions, the elements of tensor powers and the
certificate records are in ``exprs``, which only the commands that build
or check a certificate run; the check is in ``cuplength``, which reaches
``slotchain`` only when it runs the oracle, so ``verify`` never runs it.
``tensorpower`` is empty, and no command runs it.  ``bounds`` builds the
bound reports and writes their text, and ``commands`` holds the bodies
of ``bounds`` and ``table`` and the ``--help`` text.  ``certfile``, the
certificate-file reader and writer, the ``verify`` report and the bodies
of ``verify`` and ``gen-cert``, serves only the CLI: those two commands
run it, and ``cup``, ``bounds`` and ``table`` do not.  ``gen-cert`` runs
``cuplength`` only for its ``case2`` method, whose certificate it checks.
No module imports ``__future__``, and an annotation that names a lazily
run layer is quoted, so that defining a function never runs another
layer.

That every layer is in ``sys.modules`` after ``import milnortc.cli`` is a
contract: the benchmark's tracer (``perfbench/tracer.py``) looks each
layer up there, and reading its namespace runs it.  ``cli`` itself is
left to the normal import, so that ``python -m milnortc.cli`` does not
find a module of that name already registered, which makes runpy warn.

The public names below resolve from their submodules on first use (PEP
562), and ``__all__`` lists them.
"""

import importlib.util
import sys

__version__ = "1.0.0"

# every submodule but cli
_LAYERS = ("record", "errors", "gf2", "f2algebra", "tensorpower", "spaces",
           "exprs", "slotchain", "cuplength", "certgen", "bounds", "certfile",
           "commands")

# submodule -> the public names it defines
_PUBLIC = {
    "bounds": ("CIRCLE", "Z2", "BoundReport", "FreeAction", "Group", "RuleTrace",
               "admits_free_circle", "admits_free_involution", "cat_bounds",
               "eqtc_bounds", "tc_bounds"),
    "certgen": ("cert_case1", "cert_case2", "cert_cat_topclass", "cert_proj",
                "cert_r2t"),
    "cuplength": ("cup_exact", "cup_witness", "verify_certificate"),
    "errors": ("ExprSyntaxError", "NoFreeActionError", "ResourceLimitError"),
    "exprs": ("Certificate", "Element", "SearchFailure", "VerificationReport",
              "diagonal_eval", "evaluate_text", "generator", "inject",
              "is_zero_divisor", "parse_factor_expr", "tensor_power", "to_string"),
    "f2algebra": ("Presentation",),
    "spaces": ("ComplexMilnor", "ComplexProj", "ProductSpace", "RealMilnor",
               "RealProj", "cohomology_of", "format_space", "parse_space"),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_EXPORTS)


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAYERS:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)
