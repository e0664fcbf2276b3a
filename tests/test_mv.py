from fractions import Fraction

import pytest

from mvsr.errors import (ChainTooShort, MalformedTable, NotAHom, NotAnIdeal,
                         TooManyVariables)
from mvsr.mv import (MvAlgebra, MvHom, boolean_center, check_mv_axioms,
                     congruence_from_ideal, distance, equation_holds, gamma,
                     gamma_chain, gamma_property_report, ideal_from_congruence,
                     ideals, is_ideal, lattice_report, leq_equivalence_check,
                     lukasiewicz_chain, mv_product, mv_semiring_negation_check,
                     parse_term, quotient, reduct_vee_odot, reduct_wedge_oplus,
                     star_reduct_isomorphism)
from mvsr.semiring import check_semiring_axioms
from mvsr.tropical import TOP, TropicalUSemifield, trop


@pytest.fixture
def chain3():
    return lukasiewicz_chain(3)


@pytest.fixture
def square():
    l2 = lukasiewicz_chain(2)
    return mv_product(l2, l2)


def test_chain_labels_are_fractions():
    a = lukasiewicz_chain(4)
    assert a.labels == ("0", "1/3", "2/3", "1")
    assert a.one == 3


def test_chain_needs_two_elements():
    with pytest.raises(ChainTooShort):
        lukasiewicz_chain(1)


@pytest.mark.parametrize("k", range(2, 7))
def test_chain_axioms(k):
    assert check_mv_axioms(lukasiewicz_chain(k)).valid


def test_product_axioms(square):
    assert check_mv_axioms(square).valid
    mixed = mv_product(lukasiewicz_chain(2), lukasiewicz_chain(3))
    assert check_mv_axioms(mixed).valid


def test_broken_involution_yields_named_failure(chain3):
    broken = MvAlgebra(3, chain3.oplus, (0, 1, 2), 0)
    report = check_mv_axioms(broken)
    assert not report.valid
    assert "top-absorbing" in {law.name for law in report.failures()}


def test_derived_operations(chain3):
    # times is truncated subtraction shifted by the top
    assert chain3.times(1, 1) == 0
    assert chain3.times(2, 1) == 1
    assert chain3.join(1, 2) == 2
    assert chain3.meet(1, 2) == 1
    assert chain3.leq(0, 1) and not chain3.leq(2, 1)


def test_lattice_report(chain3, square):
    assert lattice_report(chain3).valid
    assert lattice_report(square).valid


def test_order_characterizations_consistent(square):
    """All four descriptions of the natural order agree on every pair."""
    for a in (lukasiewicz_chain(5), square):
        for x in range(a.size):
            for y in range(a.size):
                res = leq_equivalence_check(a, x, y)
                assert res.internally_consistent
                assert res.holds == a.leq(x, y)
                if res.holds:
                    assert res.witness_z is not None


def test_reducts_are_semirings(chain3, square):
    for a in (chain3, square):
        assert check_semiring_axioms(reduct_vee_odot(a)).valid
        assert check_semiring_axioms(reduct_wedge_oplus(a)).valid


def test_reduct_neutrals_swap(chain3):
    vo = reduct_vee_odot(chain3)
    wo = reduct_wedge_oplus(chain3)
    assert vo.zero == chain3.zero and vo.one == chain3.one
    assert wo.zero == chain3.one and wo.one == chain3.zero


def test_star_is_reduct_isomorphism(chain3, square):
    for a in (chain3, square):
        iso = star_reduct_isomorphism(a)
        assert iso.is_bijective()
        assert iso.mapping == a.star


def test_negation_check_recovers_the_algebra(chain3):
    res = mv_semiring_negation_check(reduct_vee_odot(chain3), chain3.star)
    assert res.is_mv_semiring
    assert res.recovered.oplus == chain3.oplus
    assert res.recovered_report.valid


def test_negation_check_rejects_identity_star(chain3):
    res = mv_semiring_negation_check(reduct_vee_odot(chain3), (0, 1, 2))
    assert not res.is_mv_semiring
    assert res.recovered is None
    assert not (res.condition_i.ok and res.condition_ii.ok)


def test_distance_is_symmetric_difference(chain3):
    assert distance(chain3, 0, 2) == 2
    assert distance(chain3, 1, 1) == 0
    assert distance(chain3, 1, 2) == 1


def test_ideals_frozen(chain3, square):
    assert ideals(chain3) == ((0,), (0, 1, 2))
    assert ideals(square) == ((0,), (0, 1), (0, 2), (0, 1, 2, 3))
    assert is_ideal(square, (0, 1))
    assert not is_ideal(square, (0, 3))


def test_ideal_congruence_round_trip(square):
    for ideal in ideals(square):
        blocks = congruence_from_ideal(square, ideal)
        assert ideal_from_congruence(square, blocks) == ideal


def test_congruence_rejects_non_ideal(square):
    with pytest.raises(NotAnIdeal):
        congruence_from_ideal(square, (0, 3))


def test_quotient_square_by_line(square):
    q = quotient(square, (0, 1))
    assert q.algebra.size == 2
    assert check_mv_axioms(q.algebra).valid
    q.hom.validate()
    assert q.hom.mapping == (0, 0, 1, 1)
    assert q.classes == ((0, 1), (2, 3))


def test_quotient_by_whole_algebra_is_trivial(square):
    q = quotient(square, (0, 1, 2, 3))
    assert q.algebra.size == 1


def test_hom_validation(chain3):
    ident = MvHom(chain3, chain3, (0, 1, 2))
    ident.validate()
    with pytest.raises(NotAHom):
        MvHom(chain3, chain3, (0, 0, 2)).validate()
    with pytest.raises(MalformedTable):
        MvHom(chain3, chain3, (0, 1))


@pytest.mark.parametrize("zero", [1.0, True], ids=["float", "bool"])
def test_zero_index_must_be_an_exact_integer(zero):
    with pytest.raises(MalformedTable):
        MvAlgebra(2, ((0, 1), (1, 1)), (1, 0), zero)


def test_boolean_center(chain3, square):
    assert boolean_center(chain3).elements == (0, 2)
    center = boolean_center(square)
    assert center.elements == (0, 1, 2, 3)
    assert check_mv_axioms(center.algebra).valid


def test_equation_language(chain3):
    assert parse_term("(vee x y)") == parse_term("(oplus (odot x (star y)) y)")
    res = equation_holds(chain3, "(oplus x y)", "(oplus y x)")
    assert res.holds
    res = equation_holds(chain3, "(oplus x x)", "x")
    assert not res.holds
    assert res.counterexample == {"x": 1}


def test_equation_distributivity(square):
    res = equation_holds(square, "(odot x (vee y z))",
                         "(vee (odot x y) (odot x z))")
    assert res.holds


def test_equation_variable_guard(chain3):
    with pytest.raises(TooManyVariables):
        equation_holds(chain3, "(oplus a (oplus b (oplus c (oplus d e))))",
                       "0")


def test_gamma_clamps(chain3):
    f = TropicalUSemifield(Fraction(1))
    assert gamma(f, trop(Fraction(-3, 2))) == 0
    assert gamma(f, trop(Fraction(1, 3))) == Fraction(1, 3)
    assert gamma(f, trop(7)) == 1
    assert gamma(f, TOP) == 1


def test_gamma_report_clean():
    report = gamma_property_report(TropicalUSemifield(Fraction(1)),
                                   samples=2000, seed=9)
    assert report["ok"]
    assert report["meet_failures"] == 0
    assert report["truncated_sum_failures"] == 0
    # the sum law is only claimed on the nonnegative cone and the report
    # must disclose both the restriction and the mixed-sign counterexample
    assert report["sum_domain"] == "nonnegative"
    assert report["mixed_sign_sum_breaks"] is True


@pytest.mark.parametrize("k", [1, 2, 4])
def test_gamma_chain_matches_standard_chain(k):
    alg, cert = gamma_chain(k)
    want = lukasiewicz_chain(k + 1)
    assert alg.core() == want.core()
    assert cert["ok"]


def test_gamma_chain_rejects_zero():
    with pytest.raises(ChainTooShort):
        gamma_chain(0)


@pytest.mark.parametrize("samples", [0, -3])
def test_gamma_chain_needs_a_sample(samples):
    with pytest.raises(ValueError):
        gamma_chain(1, samples)
