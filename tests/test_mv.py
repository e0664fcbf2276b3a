import json
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mvsr import mv
from mvsr.cli import main
from mvsr.errors import (ChainTooShort, EnumGuard, MalformedTable, NotAHom,
                         NotAnIdeal, SizeGuard, TooManyVariables)
from mvsr.mv import (MvAlgebra, MvHom, boolean_center, check_mv_axioms,
                     congruence_from_ideal, distance, equation_holds, gamma,
                     gamma_chain, gamma_property_report, ideal_from_congruence,
                     ideals, is_ideal, lattice_report, leq_equivalence_check,
                     lukasiewicz_chain, mv_product, mv_semiring_negation_check,
                     parse_term, quotient, reduct_vee_odot, reduct_wedge_oplus,
                     star_reduct_isomorphism)
from mvsr.semimodule import quotient_module_from_ideal
from mvsr.semiring import check_semiring_axioms
from mvsr.tropical import (DEN_LCM, TOP, Trop, TropicalUSemifield,
                           sample_trop, scaled_sampler, trop, trop_meet,
                           trop_prod)

import corpus
from closed_scans import ideals_by_scan, is_ideal_by_loop


@pytest.fixture
def chain3():
    return lukasiewicz_chain(3)


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


def _products():
    l2, l3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
    return (mv_product(l2, l3), mv_product(l3, l3),
            mv_product(mv_product(l2, l2), l2))


def test_ideals_match_the_scan_on_chains_and_products():
    for a in [lukasiewicz_chain(k) for k in range(2, 7)] + list(_products()):
        assert ideals(a) == ideals_by_scan(a)
    assert len(ideals(_products()[2])) == 8


def test_ideals_match_the_scan_on_lawless_tables():
    """The ideal closure reads only the sum and the order the tables
    define, so its fixed points are the subsets is_ideal accepts on any
    tables, and the sweep finds the scan's ideals."""
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = MvAlgebra(n, corpus.drawn_table(rng, n, n, n),
                      corpus.drawn_table(rng, 1, n, n)[0], rng.randrange(n))
        assert ideals(a) == ideals_by_scan(a)


def test_is_ideal_matches_the_loop_on_every_subset():
    """is_ideal, which reads the ideals' closure, gives the verdict of the
    loop it replaced on every subset of 300 seeded lawless tables of
    sizes 1 to 5, of the chains c2 to c6, of c2 x c3 and of c2 x c2 x c2."""
    rng = random.Random(30)
    tables = []
    for _ in range(300):
        n = rng.randint(1, 5)
        tables.append(MvAlgebra(n, corpus.drawn_table(rng, n, n, n),
                                corpus.drawn_table(rng, 1, n, n)[0],
                                rng.randrange(n)))
    tables += [lukasiewicz_chain(k) for k in range(2, 7)]
    tables += [_products()[0], _products()[2]]
    verdicts = Counter()
    for a in tables:
        for mask in range(2 ** a.size):
            subset = [x for x in range(a.size) if mask >> x & 1]
            verdict = is_ideal(a, subset)
            assert verdict == is_ideal_by_loop(a, subset), (a, subset)
            verdicts[verdict, a.zero in subset] += 1
    assert min(verdicts[True, True], verdicts[False, True]) >= 300, verdicts


def test_ideals_of_a_long_product_take_the_sweep():
    """c11 x c2 has 22 elements, so the scan would test 2^22 subsets; its
    ideals are the products of the ideals of its factors."""
    a = mv_product(lukasiewicz_chain(11), lukasiewicz_chain(2))
    assert ideals(a) == ((0,), (0, 1), tuple(range(0, 22, 2)),
                         tuple(range(22)))


def test_ideals_guard_counts_the_closures_run(chain3):
    """The sweep takes on three closures, one per element, for each ideal
    it finds: the 3-chain's two ideals cost six."""
    with pytest.raises(EnumGuard,
                       match="^closures run for ideals: 6 exceeds "
                             "max_enum=5$"):
        ideals(chain3, max_enum=5)
    assert ideals(chain3, max_enum=6) == ((0,), (0, 1, 2))


def test_ideals_of_a_chain_past_the_subset_count():
    """The 24-chain has 2^24 subsets, past the default max_enum, but only
    its two ideals are swept: 48 closures."""
    assert ideals(lukasiewicz_chain(24)) == ((0,), tuple(range(24)))


def test_ideal_congruence_round_trip(square):
    for ideal in ideals(square):
        blocks = congruence_from_ideal(square, ideal)
        assert ideal_from_congruence(square, blocks) == ideal


def test_congruence_rejects_non_ideal(square):
    with pytest.raises(NotAnIdeal):
        congruence_from_ideal(square, (0, 3))


@pytest.mark.parametrize("ideal,message", [
    ((0, 7), "ideal table entry 7 out of range 0..2"),
    ((0, 1.5), "ideal entry 1.5 is not an integer"),
    # once read as the last element, and refused as "not an ideal"
    ((0, -1), "ideal table entry -1 out of range 0..2"),
    ((0, True), "ideal entry True is not an integer"),
    # not a sequence; it ended in a TypeError
    (5, "ideal must be a sequence of indices"),
])
def test_every_ideal_route_refuses_a_bad_member(chain3, ideal, message):
    routes = (is_ideal, congruence_from_ideal, quotient,
              quotient_module_from_ideal)
    for route in routes:
        with pytest.raises(MalformedTable, match=f"^{message}$"):
            route(chain3, ideal)


@pytest.mark.parametrize("route,members,message", [
    (congruence_from_ideal, (0, [1]), "ideal entry \\[1\\] is not an integer"),
    (ideal_from_congruence, ((0, "a"), (1, 2)),
     "partition block entry 'a' is not an integer"),
    (ideal_from_congruence, ((0, 1.0), (2,)),
     "partition block entry 1.0 is not an integer"),
    (ideal_from_congruence, ((0, True), (2,)),
     "partition block entry True is not an integer"),
    (ideal_from_congruence, 7, "partition must be a sequence of blocks"),
    (ideal_from_congruence, (0, 1, 2),
     "partition block must be a sequence of indices"),
])
def test_congruence_routes_check_members_before_reading_them(
        chain3, route, members, message):
    """An unhashable, unorderable or non-integer member, or a partition
    that is not a sequence of sequences, is refused as malformed before
    any set, sort or tuple index reads it."""
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        route(chain3, members)


@pytest.mark.parametrize("route,x,y,message", [
    (distance, 7, 0, "element index 7 out of range 0..2"),
    # once read as the last element, and d(2, 0) = 2 returned
    (distance, -1, 0, "element index -1 out of range 0..2"),
    (distance, 0, 1.0, "element entry 1.0 is not an integer"),
    (leq_equivalence_check, 5, 0, "element index 5 out of range 0..2"),
    (leq_equivalence_check, 0, True, "element entry True is not an integer"),
])
def test_element_arguments_are_checked_first(chain3, route, x, y, message):
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        route(chain3, x, y)


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


def _truncated_chain_by_fractions(k):
    """The truncation of (1/k)Z at u = 1 built by rational arithmetic:
    the values i/k, their truncated sums, complements and labels."""
    values = [Fraction(i, k) for i in range(k + 1)]
    index = {v: i for i, v in enumerate(values)}
    oplus = tuple(tuple(index[min(x + y, 1)] for y in values)
                  for x in values)
    star = tuple(index[1 - x] for x in values)
    return MvAlgebra(k + 1, oplus, star, 0, tuple(map(str, values)))


@pytest.mark.parametrize("k", [1, 2, 4, 200])
def test_gamma_chain_matches_standard_chain(k):
    alg, cert = gamma_chain(k)
    for want in (lukasiewicz_chain(k + 1), _truncated_chain_by_fractions(k)):
        assert alg.core() == want.core()
        assert alg.labels == want.labels
    assert cert["ok"]


def test_gamma_chain_rejects_zero():
    with pytest.raises(ChainTooShort):
        gamma_chain(0)


@pytest.mark.parametrize("samples", [0, -3])
def test_gamma_chain_needs_a_sample(samples):
    with pytest.raises(ValueError):
        gamma_chain(1, samples)


def test_gamma_chain_checks_its_carrier_before_building():
    start = time.perf_counter()
    with pytest.raises(SizeGuard,
                       match="chain carrier: 4097 exceeds max_carrier=4096"):
        gamma_chain(4096)
    with pytest.raises(SizeGuard):
        gamma_chain(3, max_carrier=3)
    assert time.perf_counter() - start < 0.5


# ----- truncation: the Fraction loop is the oracle of the scaled checks ------

def _gamma_failures(f, samples, draw_meet, draw_sum):
    """Meet and truncated-sum failures of gamma over the samples, in exact
    Fractions; each sample draws a meet pair, then a sum pair."""
    meet_fails = sum_fails = 0
    for _ in range(samples):
        a, b = draw_meet(), draw_meet()
        if gamma(f, trop_meet(a, b)) != min(gamma(f, a), gamma(f, b)):
            meet_fails += 1
        a, b = draw_sum(), draw_sum()
        if gamma(f, trop_prod(a, b)) != min(gamma(f, a) + gamma(f, b), f.u):
            sum_fails += 1
    return meet_fails, sum_fails


def _report_oracle(u, samples, seed):
    """gamma_property_report's failure counts from sample_trop draws, and
    the state of its generator after them."""
    rng = random.Random(seed)
    counts = _gamma_failures(TropicalUSemifield(u), samples,
                             lambda: sample_trop(rng),
                             lambda: sample_trop(rng, nonnegative=True))
    return counts, rng.getstate()


def _chain_draw(rng, k, low):
    """One draw in (1/k)Z as gamma_chain makes it: Top, or i/k for i in
    low..3k."""
    if rng.random() < 0.05:
        return TOP
    return Trop(Fraction(rng.randint(low, 3 * k), k))


def _chain_oracle(k, samples, seed):
    """gamma_chain's failure counts from draws in (1/k)Z, and the state of
    its generator after them."""
    rng = random.Random(seed)
    counts = _gamma_failures(TropicalUSemifield(Fraction(1)), samples,
                             lambda: _chain_draw(rng, k, -3 * k),
                             lambda: _chain_draw(rng, k, 0))
    return counts, rng.getstate()


def _counts(report):
    return report["meet_failures"], report["truncated_sum_failures"]


@pytest.fixture
def last_rng_state(monkeypatch):
    """The state of the last generator mvsr.mv made, read after a call;
    None if it made none."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(mv, "random", SimpleNamespace(Random=Recording))
    return lambda: made[-1].getstate() if made else None


UNITS = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(2, 3),
         Fraction(10 ** 4299)]
UNIT_IDS = ["1", "1/2", "3", "2/3", "1e4299"]


@pytest.mark.parametrize("u", UNITS, ids=UNIT_IDS)
def test_scaled_samples_match_the_fraction_oracle(u, last_rng_state):
    for seed in range(50):
        report = gamma_property_report(TropicalUSemifield(u), 40, seed)
        counts, state = _report_oracle(u, 40, seed)
        assert _counts(report) == counts
        assert last_rng_state() == state


@pytest.mark.parametrize("k", range(1, 8))
def test_gamma_chain_samples_match_the_fraction_oracle(k, last_rng_state):
    for seed in range(50):
        _, cert = gamma_chain(k, 40, seed)
        counts, state = _chain_oracle(k, 40, seed)
        assert _counts(cert) == counts
        assert last_rng_state() == state


# The failure counts above are 0 for a correct clamp, so a draw off by one
# would pass them; these compare the draws themselves, value by value.

def _assert_same_draws(seed, make_draw, oracle_draw, scale):
    """1,000 draws of make_draw(rng) equal scale times oracle_draw(rng)'s,
    Top as None, from two generators seeded alike, which end alike."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    draw = make_draw(rng)
    for _ in range(1000):
        got, want = draw(), oracle_draw(oracle_rng)
        if want.is_top:
            assert got is None
        else:
            assert type(got) is int and got == scale * want.value
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("nonnegative", [False, True])
@pytest.mark.parametrize("u", UNITS, ids=UNIT_IDS)
def test_each_scaled_draw_is_sample_trops_draw_scaled(u, nonnegative):
    for seed in range(50):
        _assert_same_draws(
            seed, lambda rng: scaled_sampler(rng, u.denominator, nonnegative),
            lambda rng: sample_trop(rng, nonnegative), DEN_LCM * u.denominator)


@pytest.mark.parametrize("nonnegative", [False, True])
@pytest.mark.parametrize("k", range(1, 8))
def test_each_chain_draw_is_the_oracles_draw(k, nonnegative):
    low = 0 if nonnegative else -3 * k
    for seed in range(50):
        _assert_same_draws(seed, lambda rng: mv._chain_sampler(rng, k, low),
                           lambda rng: _chain_draw(rng, k, low), k)


@pytest.mark.parametrize("u", UNITS, ids=UNIT_IDS)
def test_gamma_is_the_clamp_on_the_grid(u):
    f = TropicalUSemifield(u)
    for x in mv._GRID:
        value = TOP if x is None else trop(x * u / 2)
        assert gamma(f, value) == mv._clamp(x, mv._GRID_UNIT) * u / 2


def test_gamma_report_refuses_samples_past_max_enum(last_rng_state):
    with pytest.raises(EnumGuard,
                       match="truncation samples: 11 exceeds max_enum=10"):
        gamma_property_report(TropicalUSemifield(Fraction(1)), 11, 0,
                              max_enum=10)
    assert last_rng_state() is None


def test_gamma_samples_stream_in_bounded_memory():
    f = TropicalUSemifield(Fraction(1))

    def peak(samples):
        tracemalloc.start()
        try:
            gamma_property_report(f, samples, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) <= 2 * peak(2000)


# Clamps that break a law. The meet law holds for every monotone map, so
# only the non-monotone one breaks it; the others break the sum law.
BROKEN_CLAMPS = {
    "upper-bound-2u":
        lambda x, top: top if x is None else min(max(x, 0), 2 * top),
    "breakpoint-2u/3":
        lambda x, top: top if x is None else min(max(x, 0),
                                                  Fraction(2 * top, 3)),
    "top-to-half-u":
        lambda x, top: Fraction(top, 2) if x is None else min(max(x, 0), top),
    "non-monotone":
        lambda x, top: top if x is None else min(abs(x), top),
}


@pytest.mark.parametrize("name", BROKEN_CLAMPS)
def test_the_grid_catches_a_broken_clamp(name, monkeypatch, last_rng_state,
                                         capsys):
    monkeypatch.setattr(mv, "_clamp", BROKEN_CLAMPS[name])
    sampled = 0
    for u in UNITS:
        for seed in range(5):
            report = gamma_property_report(TropicalUSemifield(u), 100, seed)
            assert report["grid_failures"] > 0
            assert not report["ok"]
            counts, state = _report_oracle(u, 100, seed)
            assert _counts(report) == counts
            assert last_rng_state() == state
            sampled += sum(counts)
    for k in range(1, 8):
        _, cert = gamma_chain(k, 100, k)
        assert cert["grid_failures"] > 0
        assert not cert["ok"]
        assert _counts(cert) == _chain_oracle(k, 100, k)[0]
    assert sampled > 0
    assert main(["gamma", "--samples", "50"]) == 2
    assert json.loads(capsys.readouterr().out)["ok"] is False
