import itertools
import random
import sys

import numpy as np
import pytest

import mvsr.semimodule
import mvsr.semiring
from mvsr.errors import EnumGuard, MalformedTable, NotAHom, ScalarMismatch
from mvsr.mv import (lukasiewicz_chain, reduct_vee_odot, reduct_wedge_oplus,
                     star_reduct_isomorphism)
from mvsr.semimodule import (FiniteSemimodule, FreeSemimodule,
                             SemimoduleHom,
                             _derivation, _first_broken_law,
                             additive_monoid_module,
                             check_semimodule,
                             compose_module_homs, end_semiring,
                             endmv_check, free_semimodule,
                             free_universal_property, generate, hom_set,
                             is_strong, minimal_generating_set,
                             module_over_self, quotient_module_from_ideal,
                             restrict_scalars, trivial_module, xi_embedding)
from mvsr.semiring import (FiniteSemiring, boolean_semiring,
                           check_semiring_axioms, opposite_semiring,
                           same_scalars)
from mvsr.tensor import (_commutative_monoid_tables, _monoid_homs,
                         as_module, enumerate_modules, full_embedding_check,
                         tensor_product)

import corpus
from capped import run_capped
from folds import hom_rows_by_product
from law_loops import module_hom_broken_by_loop


def diamond(scalars, middle_row):
    """Four-point lattice 0 < p, q < t over the three-element chain scalars.

    The middle scalar's action row is the experiment knob; the zero and one
    rows are forced."""
    action = ((0, 0, 0, 0), tuple(middle_row), (0, 1, 2, 3))
    return FiniteSemimodule(scalars=scalars, size=4, add=corpus.DIAMOND,
                            zero=0, action=action,
                            labels=("0", "p", "q", "t"))


def test_module_over_self_valid(three):
    m = module_over_self(three)
    assert check_semimodule(three, m).valid


def test_trivial_module_valid(three):
    assert check_semimodule(three, trivial_module(three)).valid


def test_law_names(three):
    report = check_semimodule(three, module_over_self(three))
    assert [law.name for law in report.laws] == [
        "add-associative", "add-commutative", "add-identity",
        "action-associative", "action-additive", "scalar-additive",
        "action-unital", "action-zero", "add-idempotent"]


def test_diamond_with_constant_middle_is_valid(three):
    assert check_semimodule(three, diamond(three, (0, 0, 0, 0))).valid


def test_bad_middle_row_fails_exactly_scalar_additive(three):
    """Sending p above itself breaks (a+b)x = ax + bx and nothing else."""
    report = check_semimodule(three, diamond(three, (0, 2, 0, 2)))
    failed = report.failures()
    assert [law.name for law in failed] == ["scalar-additive"]
    assert failed[0].witness == (1, 2, 1)


def _module_candidates(s, size_bound):
    """Every candidate action enumerate_modules weighs over s up to the
    bound, as a module: for each idempotent addition table, the zero and
    one rows forced and every other row drawn from End(M, +)."""
    out = []
    free = [c for c in range(s.size) if c not in (s.zero, s.one)]
    for size in range(1, size_bound + 1):
        for add in _commutative_monoid_tables(size, True, 10**6):
            endos = _monoid_homs(add, 0, size, add, 0)
            for rows in itertools.product(endos, repeat=len(free)):
                action = [None] * s.size
                action[s.zero] = (0,) * size
                action[s.one] = tuple(range(size))
                for c, row in zip(free, rows):
                    action[c] = row
                out.append(FiniteSemimodule(s, size, add, 0, tuple(action)))
    return out


def test_law_check_stops_at_the_first_broken_law(boolean, three,
                                                 monkeypatch):
    """_first_broken_law(s, m) is None agrees with the full report on
    every candidate enumerate_modules weighs over B up to 4 and C3 up to
    4, on the diamonds with every middle row, on the lawless join
    semilattices, on two tables whose addition breaks the laws and on
    three that each break one action law alone."""
    tried = [(s, m) for s in (boolean, three)
             for m in _module_candidates(s, 4)]
    assert len(enumerate_modules(boolean, 4)) == 13
    assert len(enumerate_modules(three, 4)) == 33
    assert len(tried) == 13 + 183
    for s in (boolean, three):
        assert enumerate_modules(s, 4) == tuple(
            m for t, m in tried if t is s and check_semimodule(s, m).valid)
    tables = tried + [(three, diamond(three, row))
                      for row in itertools.product(range(4), repeat=4)]
    tables += [(boolean, m) for m in _diamonds_with_every_unit_row(boolean)]
    tables += [(boolean, m) for m in corpus.lawless_modules()]
    chain = ((0, 1), (1, 1))
    single = [(boolean, FiniteSemimodule(boolean, 2, chain, 0, action))
              for action in (((0, 1), (0, 1)), ((0, 0), (0, 0)))]
    single += [(three, FiniteSemimodule(three, 2, chain, 0,
                                        ((0, 0), (0, 1), (0, 1))))]
    assert [[law.name for law in check_semimodule(s, m).failures()]
            for s, m in single] == [["action-zero"], ["action-unital"],
                                    ["action-associative"]]
    tables += single
    verdicts = [check_semimodule(s, m).valid for s, m in tables]
    assert [_first_broken_law(s, m) is None for s, m in tables] == verdicts
    assert 0 < sum(verdicts) < len(tables)

    monkeypatch.setattr(mvsr.semimodule, "is_additively_idempotent",
                        lambda s: pytest.fail("checked past a broken law"))
    assert _first_broken_law(three, diamond(three, (0, 2, 0, 2))) is not None
    with pytest.raises(ScalarMismatch):
        _first_broken_law(boolean, module_over_self(three))


def test_action_row_count_checked(boolean):
    with pytest.raises(MalformedTable):
        FiniteSemimodule(scalars=boolean, size=2, add=((0, 1), (1, 1)),
                         zero=0, action=((0, 0),))


@pytest.mark.parametrize("zero", [1.0, True], ids=["float", "bool"])
def test_zero_index_must_be_an_exact_integer(boolean, zero):
    with pytest.raises(MalformedTable):
        FiniteSemimodule(scalars=boolean, size=2, add=((0, 1), (1, 1)),
                         zero=zero, action=((0, 0), (0, 1)))


def test_free_module_indexing(three):
    f = free_semimodule(three, ["x", "y"])
    assert f.size == 9
    for i in range(f.size):
        assert f.index(f.vector(i)) == i
    assert [f.vector(b) for b in f.basis] == [(2, 0), (0, 2)]
    assert check_semimodule(three, f).valid


@pytest.mark.parametrize("call,message", [
    (lambda f: f.index([5]), "vector table entry 5 out of range 0..1"),
    (lambda f: f.index([0, 1]), "vector table must have 1 entries"),
    (lambda f: f.index([1.5]), "vector entry 1.5 is not an integer"),
    (lambda f: f.vector(5), "vector index 5 out of range 0..1"),
])
def test_free_module_indexing_refuses_what_is_not_in_the_carrier(
        boolean, call, message):
    f = free_semimodule(boolean, ["x"])
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        call(f)


def test_free_module_guard(three):
    from mvsr.errors import SizeGuard
    with pytest.raises(SizeGuard):
        free_semimodule(three, list("abcdefgh"), max_carrier=100)


def _free_semimodule_by_dict(s, points):
    """The free module built vector by vector, each sum and multiple
    looked up in a dict from coefficient tuples to indices."""
    pts = tuple(str(p) for p in points)
    vecs = list(itertools.product(range(s.size), repeat=len(pts)))
    index = {v: i for i, v in enumerate(vecs)}
    add = tuple(tuple(index[tuple(s.add[a][b] for a, b in zip(u, v))]
                      for v in vecs) for u in vecs)
    action = tuple(tuple(index[tuple(s.mul[a][c] for c in v)] for v in vecs)
                   for a in range(s.size))
    if len(pts) == 1:
        labels = tuple(s.label(v[0]) for v in vecs)
    else:
        labels = tuple("(" + ",".join(s.label(c) for c in v) + ")"
                       for v in vecs)
    return FreeSemimodule(scalars=s, size=len(vecs), add=add,
                          zero=index[(s.zero,) * len(pts)], action=action,
                          labels=labels, points=pts)


def _lawless_scalars():
    """As scalars, the additions of corpus.lawless_modules: xor on two
    elements, with 1 + 1 = 0, and the three-chain with 2 + 1 = 0, each
    with the chain's product; and corpus.lawless_semiring."""
    return [corpus.two_element_field(),
            FiniteSemiring(3, ((0, 1, 2), (1, 1, 2), (2, 0, 2)),
                           ((0, 0, 0), (0, 1, 1), (0, 1, 2)), 0, 2),
            corpus.lawless_semiring()]


def test_free_module_matches_the_dict_build(boolean):
    """Equal tables, zero, labels, points and basis on B, c2 to c5 and
    c2 x c2 and on the lawless tables, on zero to three points."""
    scalars = [boolean] + [corpus.chain(k) for k in range(2, 6)]
    scalars += [corpus.square()]
    for s in scalars + _lawless_scalars():
        for count in range(4):
            points = [f"p{i}" for i in range(count)]
            got = free_semimodule(s, points)
            want = _free_semimodule_by_dict(s, points)
            assert got == want
            assert got.basis == want.basis


def test_generate_and_minimal_generators(three):
    m = module_over_self(three)
    sub = generate(m, (1,))
    assert sub.members == (0, 1)
    assert minimal_generating_set(m) == (2,)
    assert minimal_generating_set(sub) == (1,)
    assert minimal_generating_set(trivial_module(three)) == ()


@pytest.mark.parametrize("gens", [(5,), (1.0,), (True,), ("1",), 5])
def test_generate_refuses_generators_that_are_no_elements(three, gens):
    """(5,) ended in an IndexError, and (1.0,) and a bare 5 in a
    TypeError."""
    with pytest.raises(MalformedTable, match="^generators "):
        generate(module_over_self(three), gens)


def _minimal_generating_set_by_restart(m):
    """Greedy removal, rescanning from the start after each removal."""
    cur = [x for x in range(m.size) if x != m.zero]
    changed = True
    while changed:
        changed = False
        for i, x in enumerate(cur):
            rest = cur[:i] + cur[i + 1:]
            if x in generate(m, rest).members:
                cur = rest
                changed = True
                break
    return tuple(cur)


def test_minimal_generators_match_the_restarting_scan(boolean, three):
    square, four, z3 = corpus.square(), corpus.chain(4), corpus.z3()
    modules = list(enumerate_modules(boolean, 5))
    modules += enumerate_modules(three, 4) + enumerate_modules(square, 3)
    for s in (three, four, square):
        modules += corpus.row_spaces(s)
    for s, names in ((boolean, "xyz"), (three, "xy"), (square, "xy"),
                     (z3, "xy")):
        modules += [free_semimodule(s, names[:k])
                    for k in range(len(names) + 1)]
    modules += [module_over_self(z3), trivial_module(z3)]
    assert len(modules) == 346
    for m in modules:
        assert minimal_generating_set(m) == \
            _minimal_generating_set_by_restart(m)


def test_hom_set_of_self_module(boolean):
    m = module_over_self(boolean)
    hs = hom_set(m, m)
    assert [h.mapping for h in hs] == [(0, 0), (0, 1)]
    assert hs.monoid_report().valid
    assert hs.zero_index == 0


def test_hom_lattice_to_module(three):
    m = module_over_self(three)
    hs = hom_set(m, m)
    mod = hs.to_module()
    assert check_semimodule(three, mod).valid
    assert mod.size == len(hs)


def test_hom_set_scalar_mismatch(boolean, three):
    with pytest.raises(ScalarMismatch):
        hom_set(module_over_self(boolean), module_over_self(three))


def test_hom_set_guard(three):
    f = free_semimodule(three, ["x", "y"])
    with pytest.raises(EnumGuard):
        hom_set(f, f, max_enum=10)


def test_hom_tables_are_guarded_before_the_gather(boolean):
    """16 homs of the free module on two points over B pass a max_enum of
    1000, but their sums and products gather 16 * 16 * 4 images."""
    f = free_semimodule(boolean, ["x", "y"])
    homs = hom_set(f, f, max_enum=1000)
    assert len(homs) == 16
    with pytest.raises(EnumGuard, match=r"^hom sums: 1024 exceeds "
                       r"max_enum=1000$"):
        homs.add_table
    with pytest.raises(EnumGuard, match=r"^hom products: 1024 exceeds "
                       r"max_enum=1000$"):
        end_semiring(f, max_enum=1000)
    assert end_semiring(f, max_enum=1024).semiring.size == 16


def test_end_of_the_free_module_on_four_points_is_refused():
    """End of the free module on four points over B has 65536 homs, and
    its tables would gather about 550 GB: in a child process under a 3 GB
    address-space cap, both gathers are refused with a guard first."""
    lines, peak_mb = run_capped(
        "from mvsr.errors import GuardBreach\n"
        "from mvsr.semimodule import end_semiring, free_semimodule, hom_set\n"
        "from mvsr.semiring import boolean_semiring\n"
        "m = free_semimodule(boolean_semiring(), list('abcd'))\n"
        "for build in (lambda: end_semiring(m),\n"
        "              lambda: hom_set(m, m).add_table):\n"
        "    try:\n"
        "        build()\n"
        "    except GuardBreach as e:\n"
        "        print(type(e).__name__, e)\n",
        3 << 30)
    assert lines == [
        "EnumGuard hom products: 68719476736 exceeds max_enum=10000000",
        "EnumGuard hom sums: 68719476736 exceeds max_enum=10000000"]
    assert peak_mb < 500


def test_hom_validate_and_compose(three):
    m = module_over_self(three)
    ident = SemimoduleHom(m, m, (0, 1, 2)).validate()
    zero = SemimoduleHom(m, m, (0, 0, 0)).validate()
    assert compose_module_homs(ident, zero).mapping == (0, 0, 0)
    with pytest.raises(NotAHom):
        SemimoduleHom(m, m, (0, 2, 2)).validate()


def test_compose_refuses_a_middle_module_with_another_action(three):
    """Over c3, the middle scalar may act as zero on the carrier and
    addition of c3 itself; that module is lawful, but no identity passes
    through it from c3."""
    m = module_over_self(three)
    m2 = FiniteSemimodule(three, 3, m.add, m.zero,
                          (m.action[0], (0, 0, 0), m.action[2]))
    assert check_semimodule(three, m2).valid
    ident, ident2 = (SemimoduleHom(x, x, (0, 1, 2)).validate()
                     for x in (m, m2))
    with pytest.raises(ScalarMismatch, match="middle modules disagree"):
        compose_module_homs(ident2, ident)
    with pytest.raises(ScalarMismatch, match="middle modules disagree"):
        compose_module_homs(ident, ident2)
    copy = FiniteSemimodule(three, 3, m.add, m.zero, m.action)
    assert compose_module_homs(
        SemimoduleHom(copy, copy, (0, 1, 2)), ident).mapping == (0, 1, 2)


@pytest.mark.parametrize("mapping,message", [
    ((1, 1, 2), "zero not preserved"),
    ((0, 2, 1), "addition not preserved at (1, 2)"),
    ((0, 0, 2), "action not preserved at (1, 2)"),
])
def test_hom_validate_names_the_first_broken_law(three, mapping, message):
    m = module_over_self(three)
    with pytest.raises(NotAHom) as err:
        SemimoduleHom(m, m, mapping).validate()
    assert str(err.value) == message


def test_hom_across_scalars_is_refused(boolean, three):
    """A map between modules over other scalars is refused with
    ScalarMismatch in both directions, before any table is read: the
    3-chain's reduct into B once raised IndexError, and B into the 3-chain
    compared the actions of unrelated scalars."""
    over_three, over_b = module_over_self(three), module_over_self(boolean)
    for m, n, img in ((over_three, over_b, (0, 1, 1)),
                      (over_b, over_three, (0, 1)),
                      (over_b, over_three, (0, 2))):
        with pytest.raises(ScalarMismatch, match="^module hom needs a "
                           "common scalar semiring$"):
            SemimoduleHom(m, n, img).validate()


def _iter_homs_by_assignment(m, n):
    """Every hom m -> n, one generator assignment at a time: each candidate
    is extended along the derivation order and checked cell by cell."""
    gens = minimal_generating_set(m)
    order, deriv = _derivation(m.add, m.zero, m.action, gens)
    img = [0] * m.size
    for assign in itertools.product(range(n.size), repeat=len(gens)):
        for x in order:
            d = deriv[x]
            if d[0] == "zero":
                img[x] = n.zero
            elif d[0] == "gen":
                img[x] = assign[d[1]]
            elif d[0] == "add":
                img[x] = n.add[img[d[1]]][img[d[2]]]
            else:
                img[x] = n.action[d[1]][img[d[2]]]
        if module_hom_broken_by_loop(SemimoduleHom(m, n, tuple(img))) \
                is None:
            yield tuple(img)


def _homs_match_the_assignment_scan(pairs):
    """The rows of each hom set, and the homs it yields, are the scan's."""
    kept = 0
    for m, n in pairs:
        expected = tuple(_iter_homs_by_assignment(m, n))
        hs = hom_set(m, n)
        assert tuple(map(tuple, hs.rows.tolist())) == expected
        assert tuple(h.mapping for h in hs) == expected
        kept += len(expected)
    return kept


def test_iter_homs_matches_the_assignment_scan(boolean, three):
    pairs = []
    for s, bound in ((boolean, 4), (three, 3)):
        modules = enumerate_modules(s, bound)
        pairs += [(m, n) for m in modules for n in modules]
    assert len(pairs) == 13 ** 2 + 6 ** 2
    assert _homs_match_the_assignment_scan(pairs) > len(pairs)


def test_iter_homs_matches_the_assignment_scan_on_restrictions():
    pairs = []
    for h in corpus.scalar_maps():
        restricted = [restrict_scalars(h, mb)
                      for mb in enumerate_modules(h.target, 4)]
        pairs += [(m, n) for m in restricted for n in restricted]
    assert len(pairs) == 4 * 13 ** 2 + 33 ** 2
    _homs_match_the_assignment_scan(pairs)


def _exact(table):
    """Whether a stored table is a tuple of tuples of Python ints."""
    return type(table) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row)
        for row in table)


def test_trusted_modules_are_the_checked_ones(monkeypatch, boolean):
    """Each module that FiniteSemimodule._trusted stores, at its three
    sites, restrict_scalars, scalar_structures and enumerate_modules, is
    the module the full check builds from the same tables, stored as
    tuples of Python ints, and every result is unchanged when the full
    check runs instead: full_embedding_check at size bound 4 on the five
    onto maps of the change-of-scalars benchmark, enumerate_modules on B
    up to 5 and on both 3-chain reducts up to 4, and as_module on the 88
    tensor pairs of B's modules up to 4 elements with at most 12 pairs."""
    c3 = lukasiewicz_chain(3)

    def results():
        out = [full_embedding_check(h, size_bound=4)
               for h in corpus.scalar_maps()]
        out += [enumerate_modules(boolean, 5)]
        out += [enumerate_modules(r(c3), 4)
                for r in (reduct_vee_odot, reduct_wedge_oplus)]
        pairs = corpus.tensor_pairs()
        assert len(pairs) == 88
        out += [as_module(tensor_product(m, n)) for m, n in pairs]
        return out

    expected = results()
    trusted = FiniteSemimodule._trusted.__func__

    def checked(cls, scalars, size, add, zero, action, labels=None):
        fast = trusted(cls, scalars, size, add, zero, action, labels)
        full = cls(scalars, size, add, zero, action, labels)
        assert fast == full and _exact(fast.add) and _exact(fast.action)
        assert type(fast.zero) is int
        assert labels is None or all(type(x) is str for x in labels)
        caller = sys._getframe(1)
        while caller.f_code.co_name not in sites:
            caller = caller.f_back
        sites[caller.f_code.co_name] += 1
        return full

    sites = dict.fromkeys(("restrict_scalars", "scalar_structures",
                           "enumerate_modules"), 0)
    monkeypatch.setattr(FiniteSemimodule, "_trusted", classmethod(checked))
    assert results() == expected
    assert min(sites.values()) >= 89, sites


def _rows_match_the_product(pairs):
    """Each hom set's rows are the product oracle's, in order; returns how
    many hom sets were empty."""
    empty = 0
    for m, n in pairs:
        want = np.concatenate(list(hom_rows_by_product(m, n)))
        got = hom_set(m, n).rows
        assert got.shape == want.shape == (len(want), m.size)
        assert (got == want).all()
        empty += not len(got)
    return empty


def test_hom_set_rows_match_the_product(boolean, three):
    """Every pair of modules over B of size at most 4 and over the 3-chain
    reduct of size at most 3, and every pair of the benchmark's cli
    modules over a common scalar semiring."""
    pairs = []
    for s, bound in ((boolean, 4), (three, 3)):
        modules = enumerate_modules(s, bound)
        pairs += [(m, n) for m in modules for n in modules]
    on_b = [free_semimodule(boolean, "xy")]
    on_b += [corpus.lattice_module(boolean, below) for below in (
        [[], [0], [1]], [[], [0], [1], [0], [2, 3]],
        [[], [0], [0], [0], [1, 2, 3]])]
    on_c3 = [module_over_self(three), free_semimodule(three, "xy"),
             generate(module_over_self(three), (1,))]
    pairs += [(m, n) for family in (on_b, on_c3)
              for m in family for n in family]
    assert len(pairs) == 13 ** 2 + 6 ** 2 + 4 ** 2 + 3 ** 2
    assert _rows_match_the_product(pairs) == 0


def test_hom_set_rows_match_the_product_on_lawless_modules(boolean, three):
    """200 seeded lawless modules over B and the 3-chain reduct, paired
    with each other both ways and with a lawful module; some have no hom,
    and their hom set keeps the shape (0, |source|)."""
    rng = random.Random(20104)
    lawful = {s: enumerate_modules(s, 3) for s in (boolean, three)}
    pairs = []
    for _ in range(100):
        s = rng.choice((boolean, three))
        m, n = corpus.drawn_module(rng, s, 4), corpus.drawn_module(rng, s, 4)
        other = rng.choice(lawful[s])
        pairs += [(m, n), (n, m), (m, other), (other, n)]
    assert _rows_match_the_product(pairs) > 0


def _derivation_by_rows(plan):
    """A plan's derivation in its order, each move step naming the row it
    moves by rather than its index among the plan's rows."""
    return [(x, (step[0], plan.action[step[1]], step[2])
             if step[0] == "act" else step) for x, step in plan.deriv.items()]


def test_hom_search_plans_over_the_rows_some_map_can_fail(boolean, three):
    """_hom_search plans the source over the rows _moving_rows keeps: a row
    that acts as the identity on both modules, or sends both to their
    zeros, is no check. Every row of two lawful modules over B is dropped,
    and some over the 3-chain reduct are. A plan over the kept rows has
    the generators and the derivation of the plan over every row, and the
    hom sets are the product's, on lawful modules over both, on the
    lawless ones and on targets where a row is neither."""
    lawful = {s: enumerate_modules(s, 3) for s in (boolean, three)}
    pairs = [(m, n) for s in (boolean, three) for m in lawful[s]
             for n in lawful[s]]
    some = corpus.lawless_modules() + list(lawful[boolean][:4])
    pairs += [(m, n) for m in some for n in some]
    # scalar 0 acts as the identity on the target, and as zero on the free
    # module; scalar 0 acts as the identity on the source and as zero on B
    stuck = FiniteSemimodule(boolean, 2, ((0, 1), (1, 1)), 0,
                             ((0, 1), (0, 1)))
    free = free_semimodule(boolean, "x")
    pairs += [(free, stuck), (stuck, free)]
    dropped = kept = 0
    for m, n in pairs:
        rows, shift = mvsr.semimodule._moving_rows(m.action, n.action,
                                                   (m.zero, n.zero))
        assert len(rows) == len(shift)
        plan = mvsr.semimodule._schedule(m.add, m.zero, rows)
        full = mvsr.semimodule._schedule(m.add, m.zero, m.action)
        assert plan.gens == full.gens
        assert _derivation_by_rows(plan) == _derivation_by_rows(full)
        dropped += m.scalars.size - len(rows)
        kept += len(rows)
    assert all(not mvsr.semimodule._moving_rows(
        m.action, n.action, (m.zero, n.zero))[0]
        for m in lawful[boolean] for n in lawful[boolean])
    assert dropped > 0 and kept > 0
    assert _rows_match_the_product(pairs) == 0
    assert hom_set(free, stuck).rows.tolist() == [[0, 0]]
    assert hom_set(stuck, free).rows.tolist() == [[0, 0]]


def test_assignment_chunks_stay_within_their_rows(monkeypatch):
    for size, count, rows in itertools.product((1, 2, 3, 5), (0, 1, 2, 4),
                                               (1, 2, 7, 25, 1000)):
        monkeypatch.setattr(mvsr.semiring, "_CHUNK_ELEMENTS", rows)
        chunks = list(mvsr.semimodule._assignments(size, count, 1))
        assert all(1 <= len(c) <= rows for c in chunks)
        assert [tuple(r) for c in chunks for r in c.tolist()] == \
            list(itertools.product(range(size), repeat=count))


def test_assignments_refuse_indices_past_int64(monkeypatch):
    """2^63 tuples would need the index 2^63, one past int64."""
    monkeypatch.setattr(mvsr.semiring, "_CHUNK_ELEMENTS", 4)
    assert next(mvsr.semimodule._assignments(2, 62, 1)).tolist() == \
        [[0] * 62, [0] * 61 + [1], [0] * 60 + [1, 0], [0] * 60 + [1, 1]]
    with pytest.raises(EnumGuard, match=r"^tuples: 9223372036854775808 "
                       r"exceeds int64 max=9223372036854775807$"):
        next(mvsr.semimodule._assignments(2, 63, 1))


@pytest.mark.parametrize("budget", [1, 40, 100, 333])
def test_iter_homs_across_chunk_edges(boolean, three, monkeypatch, budget):
    # a budget of 1 makes one row per chunk; the others cut the candidate
    # lists at sizes that do not divide them
    monkeypatch.setattr(mvsr.semiring, "_CHUNK_ELEMENTS", budget)
    modules = list(enumerate_modules(boolean, 4)[-4:])
    modules += [free_semimodule(boolean, "xyz"),
                free_semimodule(three, "xy"), diamond(three, (0, 0, 2, 2))]
    pairs = [(m, n) for m in modules for n in modules
             if same_scalars(m.scalars, n.scalars)]
    assert _homs_match_the_assignment_scan(pairs) > len(pairs)
    f = free_semimodule(three, "x")
    assert free_universal_property(f, diamond(three, (0, 1, 2, 3))) == \
        _free_universal_property_by_scan(f, diamond(three, (0, 1, 2, 3)))


def test_broken_law_matches_the_cell_scan(boolean, three):
    pairs = [(m, n) for m in enumerate_modules(boolean, 3)
             for n in enumerate_modules(boolean, 3)]
    pairs += [(module_over_self(three), diamond(three, row))
              for row in ((0, 1, 2, 3), (0, 0, 2, 2), (0, 1, 1, 3))]
    pairs += [(diamond(three, (0, 0, 2, 2)), module_over_self(three))]
    broken = set()
    for m, n in pairs:
        for img in itertools.product(range(n.size), repeat=m.size):
            h = SemimoduleHom(m, n, img)
            expected = module_hom_broken_by_loop(h)
            assert h._broken == expected
            broken.add(expected and expected.split()[0])
    assert broken == {"zero", "addition", "action", None}


def _end_products_by_composition(hs):
    """The products of End as composition loops over a mapping dict: hom j
    after hom i (applying the left factor first), and the classical hom i
    after hom j."""
    pos = {h.mapping: i for i, h in enumerate(hs)}
    homs = [h.mapping for h in hs]
    diagrammatic = tuple(tuple(pos[tuple(fj[v] for v in fi)] for fj in homs)
                         for fi in homs)
    classical = tuple(tuple(pos[tuple(fi[v] for v in fj)] for fj in homs)
                      for fi in homs)
    return diagrammatic, classical


def test_end_semiring_orders_are_opposite(three):
    m = module_over_self(three)
    end = end_semiring(m)
    diagrammatic, classical = _end_products_by_composition(hom_set(m, m))
    assert end.semiring.mul == diagrammatic
    assert opposite_semiring(end.semiring).mul == classical
    assert check_semiring_axioms(end.semiring).valid
    assert check_semiring_axioms(opposite_semiring(end.semiring)).valid


def _hom_tables_by_dict(hs):
    """The zero, sum table, pointwise action and labels of a hom set, each
    entry looked up in a dict of mappings."""
    n = hs.target
    pos = {h.mapping: i for i, h in enumerate(hs)}
    zero = pos[(n.zero,) * hs.source.size]
    add = tuple(tuple(pos[tuple(n.add[a][b] for a, b in zip(fi.mapping,
                                                            fj.mapping))]
                      for fj in hs) for fi in hs)
    action = tuple(tuple(pos[tuple(n.action[a][v] for v in h.mapping)]
                         for h in hs) for a in range(n.scalars.size))
    labels = tuple(",".join(map(str, h.mapping)) for h in hs)
    return zero, add, action, labels


@pytest.mark.parametrize("scalars,bound", [
    (boolean_semiring, 4), (lambda: corpus.chain(3), 3),
    (corpus.square, 3)], ids=["boolean", "three-chain", "square"])
def test_hom_tables_match_the_mapping_dict(scalars, bound):
    """On every ordered pair of modules, the zero, sums, pointwise action
    and End product of the hom set are the dict lookups'."""
    modules = enumerate_modules(scalars(), bound)
    for m in modules:
        for n in modules:
            hs = hom_set(m, n)
            zero, add, action, labels = _hom_tables_by_dict(hs)
            assert (hs.zero_index, hs.add_table) == (zero, add)
            mod = hs.to_module()
            assert (mod.zero, mod.add, mod.action, mod.labels) == \
                (zero, add, action, labels)
        end = end_semiring(m)
        assert end.semiring.mul == \
            _end_products_by_composition(hom_set(m, m))[0]


def test_positions_are_exact_past_int64_codes(boolean):
    """A hom out of B^6 has 64 images, so a base-2 code of its row would
    pass int64; the lookup still finds every hom, in any batch shape, and
    no map that differs from a hom at the top element."""
    hs = hom_set(free_semimodule(boolean, "abcdef"), module_over_self(boolean))
    assert hs.rows.shape == (64, 64)
    assert hs.positions(hs.rows[::-1]).tolist() == list(range(63, -1, -1))
    assert hs.positions(hs.rows.reshape(8, 8, 64)).tolist() == \
        [list(range(i, i + 8)) for i in range(0, 64, 8)]
    moved = hs.rows.copy()
    moved[:, 63] ^= 1
    assert (hs.positions(moved) == -1).all()


def test_xi_embedding_frozen_sizes(boolean, three):
    xb = xi_embedding(boolean)
    assert xb.end.semiring.size == 2
    x3 = xi_embedding(three)
    assert x3.end.semiring.size == 6
    for xi in (xb, x3):
        assert xi.injective
        assert xi.unit_witness


def test_xi_on_the_other_reduct():
    from mvsr.mv import reduct_wedge_oplus
    s = reduct_wedge_oplus(lukasiewicz_chain(4))
    xi = xi_embedding(s)
    assert xi.injective and xi.unit_witness


def test_strongness_of_self_module(three):
    alg = lukasiewicz_chain(3)
    res = is_strong(alg, module_over_self(three))
    assert res.strong and bool(res)
    assert res.witness is None


def nonstrong_pair():
    """The three-point lower interval of the five-chain: scalars 0, 1, 2 all
    act as zero but their negations act differently."""
    alg = lukasiewicz_chain(5)
    scal = reduct_vee_odot(alg)
    m = generate(module_over_self(scal), (2,))
    return alg, m


def test_nonstrong_interval():
    alg, m = nonstrong_pair()
    assert m.size == 3
    res = is_strong(alg, m)
    assert not res.strong
    a, b, x = res.witness
    assert m.action[a] == m.action[b]
    assert m.action[alg.star[a]][x] != m.action[alg.star[b]][x]


def test_endmv_agrees_with_strongness():
    alg, m = nonstrong_pair()
    res = endmv_check(alg, m)
    assert not res.well_defined
    assert res.conflict is not None
    ok = endmv_check(lukasiewicz_chain(3),
                     module_over_self(corpus.chain(3)))
    assert ok.well_defined and ok.image_valid
    assert ok.image_algebra.size == 3


def test_quotient_module_strong():
    square = corpus.c2xc2()
    res = quotient_module_from_ideal(square, (0, 1))
    assert res.module.size == 2
    assert check_semimodule(res.module.scalars, res.module).valid
    assert res.strongness.strong


def test_restrict_scalars_along_star_involution():
    alg = lukasiewicz_chain(3)
    iso = star_reduct_isomorphism(alg)
    from mvsr.mv import reduct_wedge_oplus
    n = module_over_self(reduct_wedge_oplus(alg))
    pulled = restrict_scalars(iso, n)
    assert check_semimodule(reduct_vee_odot(alg), pulled).valid
    # scalar a now acts the way its negation used to
    assert pulled.action == tuple(n.action[alg.star[a]] for a in range(3))


def test_additive_monoid_module(three):
    m = additive_monoid_module(three)
    assert m.scalars.size == 2
    assert check_semimodule(m.scalars, m).valid


def test_free_universal_property(boolean, three):
    f2 = free_semimodule(boolean, ["x", "y"])
    assert free_universal_property(f2, module_over_self(boolean))["ok"]
    f1 = free_semimodule(three, ["x"])
    out = free_universal_property(f1, module_over_self(three))
    assert out["ok"]
    assert out["maps"] == 3


def _free_universal_property_by_scan(f, m):
    """For each point map, its linear-combination extension must be a hom,
    and the only hom agreeing with the map on the basis, found by
    rescanning the whole hom-set."""
    npts = len(f.points)
    homs = hom_set(f, m)
    existence = uniqueness = 0
    for imgs in itertools.product(range(m.size), repeat=npts):
        built = tuple(m.sum(m.act(c, imgs[j])
                            for j, c in enumerate(f.vector(i)))
                      for i in range(f.size))
        try:
            SemimoduleHom(f, m, built).validate()
        except NotAHom:
            existence += 1
            continue
        matches = [h for h in homs
                   if all(h(f.basis[j]) == imgs[j] for j in range(npts))]
        if len(matches) != 1 or matches[0].mapping != built:
            uniqueness += 1
    return {"maps": m.size ** npts, "existence_failures": existence,
            "uniqueness_failures": uniqueness,
            "ok": existence == 0 and uniqueness == 0}


def _diamonds_with_every_unit_row(s):
    """The diamond with every unit row over s: most break the unit law, so
    the extension of a point map can be a hom that disagrees with the map
    on the basis."""
    for row in itertools.product(range(4), repeat=4):
        action = [(0, 0, 0, 0)] * s.size
        action[s.one] = row
        yield FiniteSemimodule(scalars=s, size=4, add=corpus.DIAMOND, zero=0,
                               action=tuple(action))


def test_free_universal_property_matches_the_scan(boolean, three):
    targets = [(boolean, m) for m in enumerate_modules(boolean, 4)]
    targets += [(boolean, m) for m in _diamonds_with_every_unit_row(boolean)]
    targets += [(three, module_over_self(three)),
                (three, diamond(three, (0, 1, 2, 3))),
                (three, diamond(three, (0, 0, 2, 2)))]
    failing = 0
    for s, m in targets:
        for points in (["x"], ["x", "y"]):
            f = free_semimodule(s, points)
            got = free_universal_property(f, m)
            assert got == _free_universal_property_by_scan(f, m)
            failing += got["uniqueness_failures"] > 0
    assert failing > 0
