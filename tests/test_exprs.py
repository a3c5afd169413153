import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnortc.errors import ExprSyntaxError
from milnortc.exprs import (
    Gen,
    Pow,
    Prod,
    Sum,
    Unit,
    evaluate_text,
    inject,
    parse_factor_expr,
    sum_text,
    to_string,
)
from milnortc.f2algebra import generator, power
from reference import ring


def test_grammar_examples():
    assert parse_factor_expr("(a1+a2)^3", 2) == Pow(Sum((Gen("a", 1), Gen("a", 2))), 3)
    assert parse_factor_expr("b2^7*(a1+a3)", 3) == Prod(
        (Pow(Gen("b", 2), 7), Sum((Gen("a", 1), Gen("a", 3))))
    )
    assert parse_factor_expr("1", 2) == Unit()
    assert parse_factor_expr(" a1 + b2 ", 2) == Sum((Gen("a", 1), Gen("b", 2)))


def test_sum_text_parses_back_for_every_generator_name():
    # the certificate families and the oracle's witness write their factors
    # through this one printer; a product-ring name keeps its factor index
    assert sum_text("a", 1, 2) == "(a1+a2)"
    assert sum_text("x.1", 1, 3) == "(x.1.1+x.1.3)"
    for name in ("a", "b", "x", "x.1", "x.12"):
        text = sum_text(name, 2, 3)
        assert parse_factor_expr(text, 3) == Sum((Gen(name, 2), Gen(name, 3))), text


def test_position_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        parse_factor_expr("a0", 2)
    with pytest.raises(ValueError, match="out of range"):
        parse_factor_expr("a3", 2)
    # the generator comes before the syntax error, so it is the one
    # reported, also when the error is a character the tokenizer refuses
    for text in ("a3+)", "a3$"):
        with pytest.raises(ValueError, match="position 3 out of range"):
            parse_factor_expr(text, 2)


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_factor_expr("a1++a2", 2)
    assert exc.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse_factor_expr("(a1+a2", 2)
    with pytest.raises(ExprSyntaxError):
        parse_factor_expr("a1)", 2)
    with pytest.raises(ExprSyntaxError):
        parse_factor_expr("2*a1", 2)


# the position is that of the character, after any spaces before it
# a name with no position is named by its first letter
@pytest.mark.parametrize(
    "text, char, position", [("a1 & a2", "&", 3), ("$", "$", 0), ("a1+ab+a2", "a", 3)]
)
def test_unexpected_character_is_refused_at_its_position(text, char, position):
    message = f"unexpected character {char!r} (at position {position})"
    with pytest.raises(ExprSyntaxError, match=f"^{re.escape(message)}$") as exc:
        parse_factor_expr(text, 2)
    assert exc.value.position == position


# numbers are ASCII digits: int() and \\d also read other scripts' digits.
# The digit is named, also where it follows a generator's name
@pytest.mark.parametrize(
    "text, char, position",
    [("(a\uff11+a\uff12)^\uff13", "\uff11", 2), ("a1^\uff13", "\uff13", 3),
     ("x.\u0661.1", "\u0661", 2), ("a\u0661", "\u0661", 1), ("a\uff11", "\uff11", 1),
     ("x.2\u0661", "\u0661", 3)],
)
def test_non_ascii_digits_are_refused(text, char, position):
    message = f"unexpected character {char!r} (at position {position})"
    with pytest.raises(ExprSyntaxError, match=f"^{re.escape(message)}$"):
        parse_factor_expr(text, 2)


def test_unknown_generator_rejected():
    P = ring("rp:2")
    with pytest.raises(ValueError, match="unknown generator"):
        parse_factor_expr("b1", 2, P)


def test_alpha_alias():
    P = ring("rp:2")
    assert evaluate_text("alpha1+alpha2", P, 2) == evaluate_text("x1+x2", P, 2)


def test_product_ring_generators():
    P = ring("prod:rp3,rp2")
    node = parse_factor_expr("x.2.1+x.2.2", 2, P)
    assert node == Sum((Gen("x.2", 1), Gen("x.2", 2)))
    assert to_string(node) == "x.2.1+x.2.2"
    el = evaluate_text("x.1.1^3*x.2.1^2", P, 2)
    assert not el.is_zero
    assert evaluate_text("x.1.1^4", P, 2).is_zero


def test_evaluation_char2():
    P = ring("rp:2")
    x = generator(P, "x")
    # (x1+x2)^2 = x1^2 + x2^2 in characteristic 2
    got = evaluate_text("(x1+x2)^2", P, 2)
    want = inject(P, 2, 1, x * x) + inject(P, 2, 2, x * x)
    assert got == want
    assert evaluate_text("x1^0", P, 2) == evaluate_text("1", P, 2)
    # (x1+x2)^3 survives via the cross terms; the fourth power dies
    assert not power(evaluate_text("x1+x2", P, 2), 3).is_zero
    assert power(evaluate_text("x1+x2", P, 2), 4).is_zero


# -- round-trip fuzzing -------------------------------------------------------

_gen = st.builds(
    Gen,
    st.sampled_from(["a", "b", "x", "x.1", "x.2"]),
    st.integers(min_value=1, max_value=3),
)


def _exprs(children):
    return st.one_of(
        st.builds(Sum, st.tuples(children, children)),
        st.builds(Prod, st.tuples(children, children)),
        st.builds(Pow, children, st.integers(min_value=0, max_value=9)),
    )


_ast = st.recursive(st.one_of(_gen, st.just(Unit())), _exprs, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_ast)
def test_parse_print_parse_identity(node):
    text = to_string(node)
    assert parse_factor_expr(text, 3) == node
    assert to_string(parse_factor_expr(text, 3)) == text
