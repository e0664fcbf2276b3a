import hashlib
import random
from fractions import Fraction

import pytest

from mvsr.errors import NegationOfTop
from mvsr.jsonio import canonical_dumps
from mvsr.tropical import (TOP, TROP_ONE, TROP_ZERO, Trop, TropicalUSemifield,
                           sample_trop, trop, trop_join, trop_leq, trop_meet,
                           trop_neg, trop_prod, trop_sum, tropical_law_report)


def test_constructor_normalizes_to_fraction():
    assert trop(3).value == Fraction(3)
    assert trop(Fraction(1, 2)) == Trop(Fraction(1, 2))
    assert trop(None) is TOP
    assert trop(TOP).is_top


def test_neutral_elements():
    assert TROP_ZERO.is_top
    assert TROP_ONE.value == 0
    a = trop(Fraction(-7, 3))
    assert trop_sum(a, TROP_ZERO) == a
    assert trop_prod(a, TROP_ONE) == a


def test_sum_is_min_product_is_plus():
    a, b = trop(Fraction(1, 3)), trop(Fraction(1, 2))
    assert trop_sum(a, b) == a
    assert trop_prod(a, b) == trop(Fraction(5, 6))
    assert trop_prod(a, TOP).is_top


def test_order_and_lattice():
    a, b = trop(-1), trop(4)
    assert trop_leq(a, b)
    assert trop_leq(b, TOP)
    assert not trop_leq(TOP, b)
    assert trop_meet(a, b) == a
    assert trop_join(a, b) == b


def test_meet_join_exact_on_equal_values():
    # equal fractions in different representations still compare equal
    a = trop(Fraction(2, 4))
    b = trop(Fraction(1, 2))
    assert trop_meet(a, b) == a == b


def test_negation_inverts():
    a = trop(Fraction(5, 7))
    assert trop_prod(a, trop_neg(a)) == TROP_ONE


def test_negation_of_top_raises():
    with pytest.raises(NegationOfTop):
        trop_neg(TOP)


def test_unit_must_be_positive():
    TropicalUSemifield(Fraction(1, 3))
    with pytest.raises(ValueError):
        TropicalUSemifield(Fraction(0))
    with pytest.raises(ValueError):
        TropicalUSemifield(Fraction(-1))


def test_sampler_respects_nonnegative_flag():
    rng = random.Random(5)
    for _ in range(500):
        v = sample_trop(rng, nonnegative=True)
        assert v.is_top or v.value >= 0


def test_law_report_clean():
    report = tropical_law_report(samples=2000, seed=11)
    assert report["ok"]
    assert not any(report["failures"].values())


def test_law_report_deterministic():
    assert tropical_law_report(samples=500, seed=3) == \
        tropical_law_report(samples=500, seed=3)


@pytest.mark.parametrize("samples", [0, -5])
def test_law_report_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"samples={samples} must be at "
                                         f"least 1"):
        tropical_law_report(samples=samples)


def test_law_report_is_pinned():
    """The reports at seeds 0 to 9, pinned by digest."""
    reports = [tropical_law_report(samples=200, seed=seed)
               for seed in range(10)]
    assert hashlib.sha1(canonical_dumps(reports).encode()).hexdigest() == \
        "40000ad95c2689d85f71711489e248d7b7f9dcaa"
