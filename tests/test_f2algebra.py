import math
import random
import re

import pytest

from milnortc.f2algebra import (
    Element,
    binom_mod2,
    generator,
    make_presentation,
    multiply,
    poincare_series,
    power,
    unit,
    zero,
)
from reference import normal_form


def milnor(s, r, gen_degree=1):
    return make_presentation(kind="milnor", s=s, r=r, gen_degree=gen_degree)


def truncated(m, gen_degree=1):
    return make_presentation(kind="truncated", m=m, gen_degree=gen_degree)


@pytest.mark.parametrize("s,r", [(0, 1), (1, 2), (2, 4), (3, 4), (4, 8)])
def test_basis_size(s, r):
    assert len(milnor(s, r).basis) == (s + 1) * r


def test_zero_ring():
    P = milnor(0, 0)
    assert P.basis == ()
    assert unit(P).is_zero


def test_element_rejects_non_basic_monomial():
    P = milnor(1, 2)
    with pytest.raises(ValueError, match="non-basic"):
        Element(P, frozenset({(2, 0)}))  # a^2 = 0 when s = 1


@pytest.mark.parametrize("s,r", [(1, 2), (2, 3), (3, 4), (2, 4)])
def test_relation_reduces_to_zero(s, r):
    P = milnor(s, r)
    a, b = generator(P, "a"), generator(P, "b")
    rel = power(b, r)
    for k in range(1, s + 1):
        rel = rel + multiply(power(a, k), power(b, r - k))
    assert rel.is_zero
    # and the truncation relation
    assert power(a, s + 1).is_zero
    assert not power(a, s).is_zero


@pytest.mark.parametrize("s,r", [(0, 1), (1, 2), (3, 4), (2, 5), (4, 8)])
def test_poincare_palindrome(s, r):
    series = poincare_series(milnor(s, r))
    assert series == series[::-1]
    assert sum(series) == (s + 1) * r


def test_top_degree_one_dimensional():
    P = milnor(3, 4)
    assert P.top_degree == 6
    assert poincare_series(P)[-1] == 1


def test_normal_form_idempotent_on_basis():
    P = milnor(3, 5)
    for exps in P.basis:
        el = normal_form(P, exps)
        assert el.support == frozenset({exps})


def test_normal_form_rewrites():
    # b^2 = ab in the (s, r) = (1, 2) ring
    P = milnor(1, 2)
    assert normal_form(P, (0, 2)).support == frozenset({(1, 1)})
    # a^2 = 0 there
    assert normal_form(P, (2, 0)).is_zero


def test_truncated_ring():
    P = truncated(4)
    x = generator(P, "x")
    assert not power(x, 4).is_zero
    assert power(x, 5).is_zero
    assert poincare_series(P) == [1, 1, 1, 1, 1]


def test_gen_degree_two_grading():
    P = milnor(2, 3, gen_degree=2)
    a = generator(P, "a")
    assert a.degree == 2
    assert P.top_degree == 2 * (2 + 3 - 1)


def test_product_presentation():
    P1, P2 = truncated(3), truncated(2)
    P = make_presentation(kind="product", factors=[P1, P2])
    assert len(P.basis) == 4 * 3
    assert P.top_degree == 5
    x1 = generator(P, "x.1")
    x2 = generator(P, "x.2")
    assert power(x1, 4).is_zero
    assert not multiply(power(x1, 3), power(x2, 2)).is_zero
    with pytest.raises(ValueError, match="list of presentations"):
        make_presentation(kind="product", factors=[{"kind": "truncated", "m": 2}])


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(kind="milnor", s=1, r=2, gen_degree=3), "gen_degree must be 1 or 2, got 3"),
        (dict(kind="milnor", s=-1, r=2), "milnor presentation needs integers s, r >= 0"),
        (dict(kind="milnor", s=1, r=2.0), "milnor presentation needs integers s, r >= 0"),
        (dict(kind="milnor", s=3, r=2), "milnor presentation requires s <= r, got s=3, r=2"),
        (dict(kind="truncated", m=-1), "truncated presentation needs an integer m >= 0"),
        (dict(kind="product", factors=[]), "product presentation needs a list of presentations"),
        (dict(kind="sphere"), "unknown presentation kind: 'sphere'"),
    ],
    ids=["gen-degree", "milnor-negative", "milnor-float", "milnor-s-above-r",
         "truncated-negative", "product-empty", "unknown-kind"],
)
def test_make_presentation_refuses_bad_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_presentation(**fields)


def test_presentations_are_interned():
    assert milnor(2, 3) is milnor(2, 3)
    assert milnor(2, 3) is not milnor(2, 3, gen_degree=2)
    P = make_presentation(kind="product", factors=[truncated(3), truncated(2)])
    assert P is make_presentation(kind="product", factors=(truncated(3), truncated(2)))
    assert P.cache_key == ("product", ("truncated", 3, 1), ("truncated", 2, 1))


def test_algebra_laws_random():
    P = milnor(2, 4)
    rng = random.Random(7)

    def rand_el():
        picks = rng.sample(P.basis, rng.randint(0, 4))
        el = zero(P)
        for exps in picks:
            el = el + Element(P, frozenset({exps}))
        return el

    for _ in range(60):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert multiply(x, y) == multiply(y, x)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)
        assert x + x == zero(P)
        assert multiply(x, unit(P)) == x


def test_power_matches_repeated_multiply():
    P = milnor(3, 4)
    el = generator(P, "a") + generator(P, "b")
    acc = unit(P)
    for e in range(9):
        assert power(el, e) == acc
        acc = multiply(acc, el)


def test_binom_mod2_against_pascal():
    for n in range(65):
        for k in range(n + 1):
            assert binom_mod2(n, k) == math.comb(n, k) % 2
    assert binom_mod2(4, 7) == 0


def test_unknown_generator_and_negative_exponent_are_refused():
    P = milnor(1, 2)
    with pytest.raises(ValueError, match=re.escape("unknown generator 'x'; have ('a', 'b')")):
        generator(P, "x")
    with pytest.raises(ValueError, match="^exponent must be non-negative$"):
        power(generator(P, "a"), -1)


@pytest.mark.parametrize("n, k", [(-1, 0), (3, -1), (-2, -2)])
def test_binom_mod2_refuses_negative_arguments(n, k):
    with pytest.raises(ValueError, match="^binom_mod2 requires non-negative arguments$"):
        binom_mod2(n, k)


def test_binom_mod2_mersenne_rows_all_odd():
    for i in range(7):
        n = 2**i - 1
        assert all(binom_mod2(n, j) == 1 for j in range(n + 1))
