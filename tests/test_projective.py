import random

import numpy as np
import pytest

from mvsr import projective, semiring
from mvsr.config import MAX_CARRIER
from mvsr.errors import (EnumGuard, NotAHom, NotCyclic, ScalarMismatch,
                         SizeGuard)
from mvsr.matrix import (SemiringMatrix, _idempotent_stack,
                         idempotent_matrices, mat_identity, mat_zero)
from mvsr.mv import lukasiewicz_chain, reduct_vee_odot
from mvsr.projective import (ProjectivePresentation, all_subsemimodules,
                             are_isomorphic, block_diag, canonical_form,
                             cyclic_mv_trichotomy, direct_sum,
                             is_projective_matrix_criterion,
                             is_projective_retract_oracle, row_space)
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom, Subsemimodule,
                             check_semimodule, free_semimodule, generate,
                             hom_set, minimal_generating_set,
                             module_over_self, trivial_module)
from mvsr.semiring import boolean_semiring, is_additively_idempotent
from mvsr.tensor import enumerate_modules

import corpus
from capped import run_capped
from closed_scans import subsemimodules_by_scan
from folds import is_idempotent_by_loop


def test_row_space_of_identity_is_free(boolean):
    free = free_semimodule(boolean, ["0", "1"])
    rs = row_space(mat_identity(boolean, 2))
    assert rs.size == free.size
    assert are_isomorphic(rs, free) is not None


def test_row_space_of_zero_is_trivial(boolean):
    assert row_space(mat_zero(boolean, 2, 2)).size == 1


def test_row_space_matches_the_span_in_the_free_module(three):
    """Same members, tables, zero and labels on every idempotent of the
    three-chain up to size 3, the empty matrix included."""
    for n in range(4):
        for u in idempotent_matrices(three, n):
            assert row_space(u) == corpus.row_space_in_the_free_module(u)


def test_row_space_matches_the_span_over_arbitrary_tables():
    """Seeded random three-element tables, most of them lawless: the span
    is still the least set of vectors closed under sums taken in both
    orders and under every scalar."""
    rng = random.Random(0)
    for _ in range(60):
        s = corpus.drawn_semiring(rng, 3)
        for _ in range(10):
            rows, cols = rng.randrange(4), rng.randrange(4)
            u = SemiringMatrix(s, rows, cols,
                               corpus.drawn_table(rng, rows, cols, 3))
            assert row_space(u) == corpus.row_space_in_the_free_module(u)


def _row_tables_by_weights(u, members):
    """The (add, action, zero) tables and the labels of the span with these
    members, from place values and coordinates of u's own."""
    s = u.scalars
    weights = s.size ** np.arange(u.cols - 1, -1, -1, dtype=np.int64)
    vecs = members[:, None] // weights % s.size
    scalars = np.arange(s.size)[:, None, None]
    add = np.searchsorted(members,
                          s.np_add[vecs[:, None], vecs[None]] @ weights)
    action = np.searchsorted(members, s.np_mul[scalars, vecs[None]] @ weights)
    zero = int(np.searchsorted(members, s.zero * int(weights.sum())))
    if u.cols == 1:
        labels = tuple(s.label(v[0]) for v in vecs.tolist())
    else:
        labels = tuple("(" + ",".join(s.label(c) for c in v) + ")"
                       for v in vecs.tolist())
    return add, action, zero, labels


def test_row_space_matches_the_tables_by_weights():
    """The row space and the tables _table_form reads are those of u's own
    place values, on every idempotent of size at most 2 over c2 to c7 and
    c2 x c2."""
    scalars = [corpus.chain(k) for k in range(2, 8)]
    for s in scalars + [corpus.square()]:
        for n in range(3):
            for u in idempotent_matrices(s, n):
                members = projective._row_span(u, MAX_CARRIER)
                add, action, zero, labels = _row_tables_by_weights(u, members)
                got = projective._vector_tables(s, u.cols, members)
                assert np.array_equal(got[0], add)
                assert np.array_equal(got[1], action)
                assert got[2] == zero
                assert row_space(u) == Subsemimodule(
                    scalars=s, size=len(members),
                    add=tuple(map(tuple, add.tolist())), zero=zero,
                    action=tuple(map(tuple, action.tolist())),
                    labels=labels, members=tuple(members.tolist()))


def test_row_space_guard(three):
    with pytest.raises(SizeGuard, match=r"^free module carrier: 6561 "
                       r"exceeds max_carrier=100$"):
        row_space(mat_identity(three, 8), max_carrier=100)


def _assert_sweep_is_the_closure(s, us):
    got = projective._row_spans(s, us, MAX_CARRIER)
    want = corpus.spans_by_closure(s, us)
    assert len(got) == len(want) == len(us)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_sweep_matches_the_closure_on_every_idempotent():
    """Every idempotent of c2 to c7 at n <= 2, and of c2 to c4 and c2 x c2
    at n = 3, each size as one stack."""
    chains = {k: corpus.chain(k) for k in range(2, 8)}
    cases = [(s, n) for s in chains.values() for n in (1, 2)]
    cases += [(chains[k], 3) for k in (2, 3, 4)] + [(corpus.square(), 3)]
    counted = 0
    for s, n in cases:
        us = _idempotent_stack(s, n, 10 ** 7)
        _assert_sweep_is_the_closure(s, us)
        counted += len(us)
    assert counted == 23484


def test_sweep_matches_the_closure_without_idempotent_addition():
    """The two-element field and Z/3 keep the laws, so they take the sweep
    though they have no canonical forms."""
    for s in (corpus.two_element_field(), corpus.z3()):
        assert projective._lawful(s) and not projective._has_forms(s)
        for n in (1, 2, 3):
            _assert_sweep_is_the_closure(s, _idempotent_stack(s, n, 10 ** 7))


def test_sweep_matches_the_closure_on_every_shape(monkeypatch):
    """Seeded random stacks of up to 5 x 3 matrices, not idempotent, tall
    ones included, over lawful scalars, with chunks of one matrix and of a
    few coefficient vectors."""
    rng = random.Random(1)
    scalars = [boolean_semiring(), corpus.chain(3),
               corpus.square(), corpus.two_element_field(), corpus.z3()]
    for chunk in (semiring._CHUNK_ELEMENTS, 5):
        monkeypatch.setattr(semiring, "_CHUNK_ELEMENTS", chunk)
        for _ in range(40):
            s = rng.choice(scalars)
            shape = (rng.randrange(4), rng.randrange(6), rng.randrange(4))
            us = np.array([rng.randrange(s.size)
                           for _ in range(int(np.prod(shape)))],
                          dtype=np.int64).reshape(shape)
            _assert_sweep_is_the_closure(s, us)


def test_sweep_guard_comes_first(three):
    with pytest.raises(SizeGuard, match=r"^free module carrier: 6561 "
                       r"exceeds max_carrier=100$"):
        projective._row_spans(three, np.zeros((0, 8, 8), dtype=np.int64),
                              100)


def test_lawless_scalars_take_the_closure(monkeypatch):
    """Seeded random lawless tables never reach the sweep, and their row
    spaces are still the spans in the free module."""
    def refuse(*args):
        raise AssertionError("the sweep ran over lawless scalars")

    monkeypatch.setattr(projective, "_row_spans", refuse)
    rng = random.Random(2)
    tried = 0
    while tried < 20:
        s = corpus.drawn_semiring(rng, 3)
        if projective._lawful(s):
            continue
        tried += 1
        for n in (1, 2):
            u = SemiringMatrix(s, n, n, corpus.drawn_table(rng, n, n, 3))
            assert row_space(u) == corpus.row_space_in_the_free_module(u)


def test_row_space_of_the_12_by_12_identity_in_bounded_memory():
    """The 4096 members of the span of the 12 x 12 identity over B, under
    a 3 GB address-space cap in a child process: the closure asked for more
    than the cap; the sweep peaks near 300 MB."""
    lines, peak_mb = run_capped(
        "from mvsr.matrix import mat_identity\n"
        "from mvsr.projective import row_space\n"
        "from mvsr.semiring import boolean_semiring\n"
        "print(row_space(mat_identity(boolean_semiring(), 12)).size)\n",
        3 << 30)
    assert lines == ["4096"]
    assert peak_mb < 1024


def test_closure_sums_in_blocks():
    """The closure on the 10 x 10 identity over B, in a child process
    under a 3 GB cap: its sums are taken a block at a time, so it peaks
    near 40 MB, where one array of every pair took about 240 MB."""
    lines, peak_mb = run_capped(
        "from mvsr.matrix import mat_identity\n"
        "from mvsr.projective import _row_span\n"
        "from mvsr.semiring import boolean_semiring\n"
        "print(len(_row_span(mat_identity(boolean_semiring(), 10), 4096)))\n",
        3 << 30)
    assert lines == ["1024"]
    assert peak_mb < 120


def test_self_module_is_projective(three):
    m = module_over_self(three)
    retr = is_projective_retract_oracle(m)
    pres = is_projective_matrix_criterion(m)
    assert retr is not None and pres is not None
    pi, mu = retr.pi.mapping, retr.mu.mapping
    assert all(pi[mu[x]] == x for x in range(m.size))
    pres.iso.validate()


def test_trivial_module_is_projective(three):
    m = trivial_module(three)
    assert is_projective_retract_oracle(m) is not None
    assert is_projective_matrix_criterion(m) is not None


def test_five_chain_interval_not_projective():
    """The lower three-point interval of the five-chain is cyclic but
    admits neither a section nor an idempotent presentation."""
    scal = corpus.chain(5)
    interval = generate(module_over_self(scal), (2,))
    assert interval.size == 3
    assert is_projective_retract_oracle(interval, n=2) is None
    assert is_projective_matrix_criterion(interval, n=2) is None


def test_deciders_agree_on_all_idempotent_row_spaces(boolean):
    for u in idempotent_matrices(boolean, 2):
        m = row_space(u)
        retr = is_projective_retract_oracle(m, n=2)
        pres = is_projective_matrix_criterion(m, n=2)
        assert retr is not None and pres is not None


def test_are_isomorphic_returns_validated_hom(three):
    m = module_over_self(three)
    h = are_isomorphic(m, m)
    assert h is not None
    h.validate()
    sub = generate(m, (1,))
    assert are_isomorphic(m, sub) is None


def _are_isomorphic_by_hom_set(m, n):
    """Every hom m -> n first, then the first bijective one whose inverse
    validates as a hom n -> m."""
    if m.size != n.size:
        return None
    for h in hom_set(m, n):
        if len(set(h.mapping)) != m.size:
            continue
        inverse = [0] * n.size
        for x, v in enumerate(h.mapping):
            inverse[v] = x
        try:
            SemimoduleHom(n, m, tuple(inverse)).validate()
        except NotAHom:
            continue
        return h
    return None


def _boolean_modules():
    return enumerate_modules(boolean_semiring(), 4)


def _retract_by_hom_set(m, n):
    """Every hom into the canonical cover first, then the first section."""
    gens = minimal_generating_set(m)
    free, pi = projective._cover(m, gens + (m.zero,) * (n - len(gens)),
                                 MAX_CARRIER)
    for mu in hom_set(m, free):
        if all(pi.mapping[mu.mapping[x]] == x for x in range(m.size)):
            return mu
    return None


@pytest.mark.parametrize("family", [
    _boolean_modules, lambda: corpus.row_spaces(corpus.chain(3)),
], ids=["boolean-modules", "three-chain-row-spaces"])
def test_iter_homs_and_are_isomorphic_match_the_hom_set(family):
    """On every ordered pair of the family, the homs a hom set yields are
    its rows, and are_isomorphic returns the hom the full hom-set search
    returns; on every module, the retract oracle returns the section the
    full search returns. The row spaces are the traffic of k0 on the
    three-chain."""
    modules = family()
    isomorphic = 0
    for m in modules:
        for n in modules:
            hs = hom_set(m, n)
            assert tuple(h.mapping for h in hs) == \
                tuple(map(tuple, hs.rows.tolist()))
            got = are_isomorphic(m, n)
            want = _are_isomorphic_by_hom_set(m, n)
            assert (got and got.mapping) == (want and want.mapping)
            isomorphic += got is not None
    assert isomorphic > len(modules)
    sections = 0
    for m in modules:
        n = max(2, len(minimal_generating_set(m)))
        got = is_projective_retract_oracle(m, n)
        want = _retract_by_hom_set(m, n)
        assert (got and got.mu.mapping) == (want and want.mapping)
        sections += got is not None
    assert sections > 0


def test_are_isomorphic_checks_the_scalars_before_the_sizes(boolean, three):
    """Modules over different scalars raise whether or not their sizes
    match."""
    four = corpus.chain(4)
    with pytest.raises(ScalarMismatch):
        are_isomorphic(module_over_self(three), module_over_self(boolean))
    with pytest.raises(ScalarMismatch):
        are_isomorphic(free_semimodule(boolean, ["x", "y"]),
                       module_over_self(four))
    with pytest.raises(ScalarMismatch):
        are_isomorphic(module_over_self(four), module_over_self(boolean))


@pytest.mark.parametrize("family", [
    lambda: enumerate_modules(boolean_semiring(), 5),
    lambda: corpus.row_spaces(corpus.chain(3)),
    lambda: corpus.row_spaces(corpus.chain(4)),
    lambda: corpus.row_spaces(corpus.square()),
], ids=["boolean-modules-5", "three-chain-row-spaces",
        "four-chain-row-spaces", "square-row-spaces"])
def test_canonical_forms_partition_like_are_isomorphic(family):
    """Equal forms exactly when isomorphic: each module is isomorphic to
    the first module with its form, and no two of those representatives
    are isomorphic. Seeded relabellings keep the form."""
    rng = random.Random(0)
    modules = family()
    reps = {}
    for m in modules:
        form = canonical_form(m)
        rep = reps.setdefault(form, m)
        assert are_isomorphic(rep, m) is not None
        perm = list(range(m.size))
        rng.shuffle(perm)
        relabelled = corpus.relabelled(m, perm)
        assert are_isomorphic(m, relabelled) is not None
        assert canonical_form(relabelled) == form
    reps = list(reps.values())
    for i, m in enumerate(reps):
        for n in reps[i + 1:]:
            assert are_isomorphic(m, n) is None
    assert len(reps) < len(modules)


def test_canonical_form_guard(boolean):
    """The four basis vectors of the free module on four points share one
    colour, so the form tries 4! orderings."""
    free = free_semimodule(boolean, list("abcd"))
    assert canonical_form(free, max_enum=24)
    with pytest.raises(EnumGuard, match=r"^canonical form orderings: 24 "
                       r"exceeds max_enum=23$"):
        canonical_form(free, max_enum=23)


def test_canonical_form_codes_past_64_join_irreducibles():
    """The 70-chain acting on itself has 69 join-irreducibles, so its codes
    need more than 64 bits; they stay distinct and survive relabelling."""
    m = module_over_self(corpus.chain(70))
    form = canonical_form(m)
    assert len(set(form[0])) == m.size
    perm = list(range(m.size))
    random.Random(0).shuffle(perm)
    assert canonical_form(corpus.relabelled(m, perm)) == form


def test_direct_sum_structure_maps(boolean):
    m = module_over_self(boolean)
    ds = direct_sum(m, m)
    assert ds.module.size == 4
    assert check_semimodule(boolean, ds.module).valid
    for x in range(m.size):
        assert ds.project_left.mapping[ds.inject_left.mapping[x]] == x
        assert ds.project_right.mapping[ds.inject_right.mapping[x]] == x


def _direct_sum_tables_by_loop(m, n):
    """The add and action tables of m + n, pair (x, y) at x * |n| + y."""
    def idx(x, y):
        return x * n.size + y
    add = tuple(tuple(idx(m.add[x][p], n.add[y][q])
                      for p in range(m.size) for q in range(n.size))
                for x in range(m.size) for y in range(n.size))
    action = tuple(tuple(idx(m.action[a][x], n.action[a][y])
                         for x in range(m.size) for y in range(n.size))
                   for a in range(m.scalars.size))
    return add, action


def test_direct_sum_tables_match_the_loop(boolean, three):
    """On every pair of B-modules of at most three elements and of c3's
    cyclic submodules."""
    self_mod = module_over_self(three)
    for modules in (enumerate_modules(boolean, 3),
                    [generate(self_mod, (x,)) for x in range(three.size)]):
        for m in modules:
            for n in modules:
                ds = direct_sum(m, n).module
                assert (ds.add, ds.action) == _direct_sum_tables_by_loop(m, n)


def test_direct_sum_scalar_mismatch(boolean, three):
    with pytest.raises(ScalarMismatch):
        direct_sum(module_over_self(boolean), module_over_self(three))


def test_direct_sum_with_trivial_is_identity(three):
    m = module_over_self(three)
    ds = direct_sum(m, trivial_module(three))
    assert are_isomorphic(ds.module, m) is not None


def test_block_diag_preserves_idempotence(boolean):
    mats = idempotent_matrices(boolean, 2)
    u, v = mats[3], mats[7]
    w = block_diag(u, v)
    assert w.rows == 4 and w.cols == 4
    assert is_idempotent_by_loop(w)


def test_sum_of_projectives_is_projective(boolean):
    m = module_over_self(boolean)
    ds = direct_sum(m, m)
    assert is_projective_matrix_criterion(ds.module, n=2) is not None
    assert is_projective_retract_oracle(ds.module, n=2) is not None


def test_all_subsemimodules_of_three_chain(three):
    subs = all_subsemimodules(module_over_self(three))
    assert subs == ((0,), (0, 1), (0, 1, 2))


def test_subsemimodules_match_the_scan_on_small_modules(boolean):
    modules = enumerate_modules(boolean, 4)
    assert len(modules) == 13
    for m in modules:
        assert all_subsemimodules(m) == subsemimodules_by_scan(m)
    free3 = free_semimodule(boolean, ("a", "b", "c"))
    subs = all_subsemimodules(free3)
    assert len(subs) == 61 and subs == subsemimodules_by_scan(free3)


def test_subsemimodules_match_the_scan_on_lawless_modules():
    """The span closure is a closure on any tables, so the sweep finds
    the scan's sets on modules that break every law too."""
    rng = random.Random(25)
    for _ in range(300):
        k, n = rng.randint(1, 3), rng.randint(1, 6)
        s = corpus.drawn_semiring(rng, k)
        m = FiniteSemimodule(scalars=s, size=n,
                             add=corpus.drawn_table(rng, n, n, n),
                             zero=rng.randrange(n),
                             action=corpus.drawn_table(rng, k, n, n))
        assert all_subsemimodules(m) == subsemimodules_by_scan(m)


def test_subsemimodules_guard_counts_the_closures_run(boolean):
    """The sweep takes on |M| closures for each subsemimodule it finds:
    61 of them on eight elements cost 488, one past a bound just under."""
    free3 = free_semimodule(boolean, ("a", "b", "c"))
    with pytest.raises(EnumGuard,
                       match="^closures run for subsemimodules: 488 "
                             "exceeds max_enum=487$"):
        all_subsemimodules(free3, max_enum=487)
    assert len(all_subsemimodules(free3, max_enum=488)) == 61


@pytest.mark.parametrize("k", [18, 20])
def test_subsemimodules_of_a_long_chain_are_its_down_sets(k):
    """Over the k-chain acting on itself by product, a subsemimodule that
    holds x holds every a * x, which is everything below x: the k down-sets,
    where the scan would close 2^k subsets."""
    self_mod = module_over_self(corpus.chain(k))
    assert all_subsemimodules(self_mod) == tuple(tuple(range(j + 1))
                                                 for j in range(k))


def test_trichotomy_on_the_boolean_square():
    square = corpus.c2xc2()
    scal = reduct_vee_odot(square)
    self_mod = module_over_self(scal)
    for a in range(square.size):
        cyc = generate(self_mod, (a,))
        res = cyclic_mv_trichotomy(square, cyc)
        assert res.consistent
        assert res.projective
        assert res.idempotent is not None
        assert res.idempotent_sets_agree
        res.b_iso.validate()
        if res.c_iso is not None:
            res.c_iso.validate()


def test_trichotomy_complement_splits_the_algebra():
    square = corpus.c2xc2()
    scal = reduct_vee_odot(square)
    m = generate(module_over_self(scal), (2,))
    res = cyclic_mv_trichotomy(square, m)
    assert res.idempotent == 2
    assert res.complement is not None
    assert res.c_iso is not None
    # the splitting map is a bijection from the algebra onto the biproduct
    assert len(set(res.c_iso.mapping)) == square.size


def test_trichotomy_bounds_the_complement_search(three, monkeypatch):
    """The two-point chain with the middle scalar acting as zero has no
    idempotent route, so a complement is looked for among the 3-chain's
    subsemimodules, under the trichotomy's own max_enum."""
    m = FiniteSemimodule(three, 2, ((0, 1), (1, 1)), 0,
                         ((0, 0), (0, 0), (0, 1)))
    bounds = []
    sweep = projective.all_subsemimodules
    monkeypatch.setattr(projective, "all_subsemimodules",
                        lambda m, max_enum: bounds.append(max_enum)
                        or sweep(m, max_enum))
    res = cyclic_mv_trichotomy(lukasiewicz_chain(3), m, max_enum=12345)
    assert bounds == [12345]
    assert not res.projective and res.c_iso is None and res.consistent


def test_trichotomy_needs_cyclic(boolean):
    m = module_over_self(boolean)
    ds = direct_sum(m, m).module
    with pytest.raises(NotCyclic):
        cyclic_mv_trichotomy(lukasiewicz_chain(2), ds)


def test_trichotomy_scalar_mismatch(three):
    with pytest.raises(ScalarMismatch):
        cyclic_mv_trichotomy(lukasiewicz_chain(2), module_over_self(three))


def _matrix_criterion_by_row_space(m, n):
    """The decider with a row space and an isomorphism search for every
    idempotent in entry order."""
    for u in idempotent_matrices(m.scalars, n):
        rs = row_space(u)
        iso = are_isomorphic(rs, m)
        if iso is not None:
            return ProjectivePresentation(m.scalars, n, u, rs, iso)
    return None


def _decider_cases():
    """(module, n): the row space of every idempotent of size 1 and 2
    over c2, c3, c4 and c2 x c2, over the two-element field and over Z/3,
    each at n = 1 and 2, and the two lawless tables."""
    scalars = [corpus.chain(k) for k in (2, 3, 4)]
    scalars += [corpus.square(), corpus.two_element_field(), corpus.z3()]
    cases = [(m, n) for s in scalars for m in corpus.row_spaces(s)
             for n in (1, 2)]
    return cases + [(m, n) for m in corpus.lawless_modules() for n in (1, 2)]


def test_matrix_criterion_matches_the_row_space_loop():
    """Equal presentations (matrix, row space and isomorphism), or None on
    both sides, against a row space and an isomorphism search for every
    idempotent: 430 cases over c2, c3, c4 and c2 x c2, 52 over the field
    and Z/3, which take the scan, and 4 on the lawless tables."""
    cases = _decider_cases()
    assert len(cases) == 486
    found = 0
    for m, n in cases:
        got = is_projective_matrix_criterion(m, n)
        assert got == _matrix_criterion_by_row_space(m, n)
        found += got is not None
    assert 0 < found < len(cases)


def test_matrix_criterion_finds_the_same_matrix_among_every_idempotent(
        monkeypatch):
    """The first match among the orbit minima is the first among every
    idempotent, on every module the deciders are tested on, while fewer
    matrices are swept."""
    three = corpus.chain(3)
    boolean = boolean_semiring()
    cases = _decider_cases() + [
        (module_over_self(three), 1), (trivial_module(three), 0),
        (direct_sum(module_over_self(boolean),
                    module_over_self(boolean)).module, 2)]
    projective._idempotents.cache_clear()
    got = [is_projective_matrix_criterion(m, n) for m, n in cases]
    swept = sum(len(projective._idempotents(m.scalars, n, 10 ** 7))
                for m, n in cases)
    monkeypatch.setattr(projective, "_orbit_minima", lambda s, us: us)
    projective._idempotents.cache_clear()
    try:
        assert got == [is_projective_matrix_criterion(m, n)
                       for m, n in cases]
        assert swept < sum(len(projective._idempotents(m.scalars, n,
                                                       10 ** 7))
                           for m, n in cases)
    finally:
        projective._idempotents.cache_clear()


def test_matrix_criterion_builds_one_row_space(monkeypatch):
    """Over scalars with canonical forms a call builds at most one row
    space and makes at most one isomorphism search: the witness for the
    idempotent found."""
    calls = {"row_space": 0, "are_isomorphic": 0}

    def counted(name):
        inner = getattr(projective, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    cases = [(m, n) for m, n in _decider_cases()
             if is_additively_idempotent(m.scalars)]
    assert len(cases) == 434
    for name in calls:
        monkeypatch.setattr(projective, name, counted(name))
    for m, n in cases:
        calls.update(row_space=0, are_isomorphic=0)
        found = is_projective_matrix_criterion(m, n) is not None
        assert calls == {"row_space": found, "are_isomorphic": found}


def test_matrix_criterion_takes_forms_only_at_the_module_size(boolean,
                                                               monkeypatch):
    """At n = 1 every span over the boolean semiring has at most two
    elements, so the free module on four points, whose form would try 4!
    orderings (test_canonical_form_guard), is refused under max_enum 23
    without a form, its own or a span's."""
    forms = []
    table_form = projective._table_form
    monkeypatch.setattr(projective, "_table_form",
                        lambda *args: forms.append(1) or table_form(*args))
    free = free_semimodule(boolean, list("abcd"))
    assert is_projective_matrix_criterion(free, 1, max_enum=23) is None
    assert not forms
