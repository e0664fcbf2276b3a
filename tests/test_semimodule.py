import itertools

import pytest

import mvsr.semimodule
import mvsr.tensor
from mvsr.errors import (EnumGuard, IllDefinedAction, MalformedTable,
                         NotAHom, ScalarMismatch)
from mvsr.mv import (lukasiewicz_chain, mv_product, quotient, reduct_vee_odot,
                     star_reduct_isomorphism)
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom, _broken_law,
                             _derivation_order, _module_laws_hold,
                             additive_monoid_module,
                             check_semimodule,
                             compose_module_homs, end_semiring,
                             endmv_check, free_semimodule,
                             free_universal_property, generate, hom_set,
                             is_strong, iter_homs, minimal_generating_set,
                             module_over_self, quotient_module_from_ideal,
                             restrict_scalars, trivial_module, xi_embedding)
from mvsr.matrix import idempotent_matrices
from mvsr.projective import row_space
from mvsr.semiring import (FiniteSemiring, SemiringHom, boolean_semiring,
                           check_semiring_axioms, same_scalars)
from mvsr.tensor import enumerate_modules


@pytest.fixture
def boolean():
    return boolean_semiring()


@pytest.fixture
def three():
    return reduct_vee_odot(lukasiewicz_chain(3))


def diamond(scalars, middle_row):
    """Four-point lattice 0 < p, q < t over the three-element chain scalars.

    The middle scalar's action row is the experiment knob; the zero and one
    rows are forced."""
    add = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    action = ((0, 0, 0, 0), tuple(middle_row), (0, 1, 2, 3))
    return FiniteSemimodule(scalars=scalars, size=4, add=add, zero=0,
                            action=action, labels=("0", "p", "q", "t"))


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


def test_law_check_stops_at_the_first_broken_law(boolean, three,
                                                 monkeypatch):
    """_module_laws_hold agrees with the full report on every candidate
    enumerate_modules tries over B up to 4 and C3 up to 4, on the diamonds
    with every middle row, on the lawless join semilattices, on two tables
    whose addition breaks the laws and on three that each break one action
    law alone."""
    tried = []

    def record(s, m):
        tried.append((s, m))
        return _module_laws_hold(s, m)

    monkeypatch.setattr(mvsr.tensor, "_module_laws_hold", record)
    assert len(enumerate_modules(boolean, 4)) == 13
    assert len(enumerate_modules(three, 4)) == 33
    assert len(tried) == 13 + 183
    tables = tried + [(three, diamond(three, row))
                      for row in itertools.product(range(4), repeat=4)]
    tables += [(boolean, m) for m in _lawless_targets(boolean)]
    tables += [(boolean, FiniteSemimodule(boolean, 2, ((0, 1), (1, 0)), 0,
                                          ((0, 0), (0, 1)))),
               (boolean, FiniteSemimodule(boolean, 3,
                                          ((0, 1, 2), (1, 1, 2), (2, 0, 2)),
                                          0, ((0, 0, 0), (0, 1, 2))))]
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
    assert [_module_laws_hold(s, m) for s, m in tables] == verdicts
    assert 0 < sum(verdicts) < len(tables)

    monkeypatch.setattr(mvsr.semimodule, "is_additively_idempotent",
                        lambda s: pytest.fail("checked past a broken law"))
    assert not _module_laws_hold(three, diamond(three, (0, 2, 0, 2)))
    with pytest.raises(ScalarMismatch):
        _module_laws_hold(boolean, module_over_self(three))


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


def test_free_module_guard(three):
    from mvsr.errors import SizeGuard
    with pytest.raises(SizeGuard):
        free_semimodule(three, list("abcdefgh"), max_carrier=100)


def test_generate_and_minimal_generators(three):
    m = module_over_self(three)
    sub = generate(m, (1,))
    assert sub.members == (0, 1)
    assert minimal_generating_set(m) == (2,)
    assert minimal_generating_set(sub) == (1,)
    assert minimal_generating_set(trivial_module(three)) == ()


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
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    four = reduct_vee_odot(lukasiewicz_chain(4))
    z3 = FiniteSemiring(3, tuple(tuple((a + b) % 3 for b in range(3))
                                 for a in range(3)),
                        tuple(tuple(a * b % 3 for b in range(3))
                              for a in range(3)), 0, 1)
    modules = list(enumerate_modules(boolean, 5))
    modules += enumerate_modules(three, 4) + enumerate_modules(square, 3)
    for s in (three, four, square):
        for n in (1, 2):
            for u in idempotent_matrices(s, n):
                modules.append(row_space(u))
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


def test_hom_validate_and_compose(three):
    m = module_over_self(three)
    ident = SemimoduleHom(m, m, (0, 1, 2)).validate()
    zero = SemimoduleHom(m, m, (0, 0, 0)).validate()
    assert compose_module_homs(ident, zero).mapping == (0, 0, 0)
    with pytest.raises(NotAHom):
        SemimoduleHom(m, m, (0, 2, 2)).validate()


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


def _broken_law_by_loop(m, n, img):
    """The first hom law img breaks, scanning zero, then addition at every
    (x, y), then the action at every (a, x), one cell at a time."""
    if img[m.zero] != n.zero:
        return ("zero",)
    for x in range(m.size):
        for y in range(m.size):
            if img[m.add[x][y]] != n.add[img[x]][img[y]]:
                return ("add", x, y)
    for a in range(m.scalars.size):
        for x in range(m.size):
            if img[m.action[a][x]] != n.action[a][img[x]]:
                return ("act", a, x)
    return None


def _iter_homs_by_assignment(m, n):
    """Every hom m -> n, one generator assignment at a time: each candidate
    is extended along the derivation order and checked cell by cell."""
    gens = minimal_generating_set(m)
    order, deriv = _derivation_order(m, gens)
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
        if _broken_law_by_loop(m, n, img) is None:
            yield tuple(img)


def _scalar_maps():
    """The five onto scalar maps of the change-of-scalars benchmark: both
    projections of c2 x c2 onto c2, c2 x c2 onto its quotient by (0, 1), and
    the projections of c2 x c3 onto c3 and onto c2."""
    c2, c3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
    square, wide = mv_product(c2, c2), mv_product(c2, c3)
    sq, wd = reduct_vee_odot(square), reduct_vee_odot(wide)
    boolean, chain3 = reduct_vee_odot(c2), reduct_vee_odot(c3)
    toward = quotient(square, (0, 1))
    return (SemiringHom(sq, boolean, (0, 0, 1, 1)),
            SemiringHom(sq, boolean, (0, 1, 0, 1)),
            SemiringHom(sq, reduct_vee_odot(toward.algebra),
                        toward.hom.mapping),
            SemiringHom(wd, chain3, (0, 1, 2, 0, 1, 2)),
            SemiringHom(wd, boolean, (0, 0, 0, 1, 1, 1)))


def _homs_match_the_assignment_scan(pairs):
    kept = 0
    for m, n in pairs:
        expected = tuple(_iter_homs_by_assignment(m, n))
        assert tuple(h.mapping for h in iter_homs(m, n)) == expected
        assert tuple(h.mapping for h in hom_set(m, n)) == expected
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
    for h in _scalar_maps():
        restricted = [restrict_scalars(h, mb)
                      for mb in enumerate_modules(h.target, 4)]
        pairs += [(m, n) for m in restricted for n in restricted]
    assert len(pairs) == 4 * 13 ** 2 + 33 ** 2
    _homs_match_the_assignment_scan(pairs)


def test_assignment_chunks_stay_within_their_rows():
    for size, count, rows in itertools.product((1, 2, 3, 5), (0, 1, 2, 4),
                                               (1, 2, 7, 25, 1000)):
        chunks = list(mvsr.semimodule._assignments(size, count, rows))
        assert all(1 <= len(c) <= rows for c in chunks)
        assert [tuple(r) for c in chunks for r in c.tolist()] == \
            list(itertools.product(range(size), repeat=count))


@pytest.mark.parametrize("budget", [1, 40, 100, 333])
def test_iter_homs_across_chunk_edges(boolean, three, monkeypatch, budget):
    # a budget of 1 makes one row per chunk; the others cut the candidate
    # lists at sizes that do not divide them
    monkeypatch.setattr(mvsr.semimodule, "_CHUNK_ELEMENTS", budget)
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
            expected = _broken_law_by_loop(m, n, img)
            assert _broken_law(m, n, img) == expected
            broken.add(expected[0] if expected else None)
    assert broken == {"zero", "add", "act", None}


def test_end_semiring_orders_are_opposite(three):
    m = module_over_self(three)
    diag = end_semiring(m, order="diagrammatic")
    classic = end_semiring(m, order="classical")
    assert check_semiring_axioms(diag.semiring).valid
    assert check_semiring_axioms(classic.semiring).valid
    k = diag.semiring.size
    assert all(diag.semiring.mul[i][j] == classic.semiring.mul[j][i]
               for i in range(k) for j in range(k))
    with pytest.raises(ValueError):
        end_semiring(m, order="sideways")


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
                     module_over_self(reduct_vee_odot(lukasiewicz_chain(3))))
    assert ok.well_defined and ok.image_valid
    assert ok.image_algebra.size == 3


def test_quotient_module_strong():
    square = mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))
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


def _lawless_targets(s):
    """The join semilattice 0 < p, q < t with every unit row over s: most
    break the unit law, so the extension of a point map can be a hom that
    disagrees with the map on the basis."""
    add = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    for row in itertools.product(range(4), repeat=4):
        action = [(0, 0, 0, 0)] * s.size
        action[s.one] = row
        yield FiniteSemimodule(scalars=s, size=4, add=add, zero=0,
                               action=tuple(action))


def test_free_universal_property_matches_the_scan(boolean, three):
    targets = [(boolean, m) for m in enumerate_modules(boolean, 4)]
    targets += [(boolean, m) for m in _lawless_targets(boolean)]
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
