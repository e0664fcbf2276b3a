import random

import pytest

from mvsr import projective
from mvsr.errors import (EnumGuard, NotAHom, NotCyclic, ScalarMismatch,
                         SizeGuard)
from mvsr.matrix import (SemiringMatrix, idempotent_matrices, mat_identity,
                         mat_zero)
from mvsr.mv import lukasiewicz_chain, mv_product, reduct_vee_odot
from mvsr.projective import (ProjectivePresentation, all_subsemimodules,
                             are_isomorphic, block_diag, canonical_form,
                             cyclic_mv_trichotomy, direct_sum,
                             is_projective_matrix_criterion,
                             is_projective_retract_oracle, row_space)
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom,
                             check_semimodule, free_semimodule, generate,
                             hom_set, iter_homs, module_over_self,
                             trivial_module)
from mvsr.semiring import (FiniteSemiring, boolean_semiring,
                           is_additively_idempotent)
from mvsr.tensor import enumerate_modules


@pytest.fixture
def boolean():
    return boolean_semiring()


@pytest.fixture
def three():
    return reduct_vee_odot(lukasiewicz_chain(3))


def test_row_space_of_identity_is_free(boolean):
    free = free_semimodule(boolean, ["0", "1"])
    rs = row_space(mat_identity(boolean, 2))
    assert rs.size == free.size
    assert are_isomorphic(rs, free) is not None


def test_row_space_of_zero_is_trivial(boolean):
    assert row_space(mat_zero(boolean, 2, 2)).size == 1


def _row_space_in_the_free_module(u):
    """The whole free module on u.cols points, then the span of the rows."""
    free = free_semimodule(u.scalars, [str(j) for j in range(u.cols)])
    return generate(free, [free.index(row) for row in u.entries])


def test_row_space_matches_the_span_in_the_free_module(three):
    """Same members, tables, zero and labels on every idempotent of the
    three-chain up to size 3, the empty matrix included."""
    for n in range(4):
        for u in idempotent_matrices(three, n):
            assert row_space(u) == _row_space_in_the_free_module(u)


def test_row_space_matches_the_span_over_arbitrary_tables():
    """Seeded random three-element tables, most of them lawless: the span
    is still the least set of vectors closed under sums taken in both
    orders and under every scalar."""
    rng = random.Random(0)
    for _ in range(60):
        s = FiniteSemiring(3, *(tuple(tuple(rng.randrange(3) for _ in "abc")
                                      for _ in "abc") for _ in "+*"),
                           rng.randrange(3), rng.randrange(3))
        for _ in range(10):
            rows, cols = rng.randrange(4), rng.randrange(4)
            u = SemiringMatrix(s, rows, cols, tuple(
                tuple(rng.randrange(3) for _ in range(cols))
                for _ in range(rows)))
            assert row_space(u) == _row_space_in_the_free_module(u)


def test_row_space_guard(three):
    with pytest.raises(SizeGuard, match=r"^free module carrier: 6561 "
                       r"exceeds max_carrier=100$"):
        row_space(mat_identity(three, 8), max_carrier=100)


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
    scal = reduct_vee_odot(lukasiewicz_chain(5))
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


def _three_chain_row_spaces():
    three = reduct_vee_odot(lukasiewicz_chain(3))
    return [row_space(u) for n in (1, 2)
            for u in idempotent_matrices(three, n)]


@pytest.mark.parametrize("family", [_boolean_modules, _three_chain_row_spaces],
                         ids=["boolean-modules", "three-chain-row-spaces"])
def test_iter_homs_and_are_isomorphic_match_the_hom_set(family):
    """On every ordered pair of the family, are_isomorphic returns the
    hom the full hom-set search returns. The row spaces are the traffic of
    k0 on the three-chain."""
    modules = family()
    isomorphic = 0
    for m in modules:
        for n in modules:
            assert tuple(iter_homs(m, n)) == hom_set(m, n).homs
            got = are_isomorphic(m, n)
            want = _are_isomorphic_by_hom_set(m, n)
            assert (got and got.mapping) == (want and want.mapping)
            isomorphic += got is not None
    assert isomorphic > len(modules)


def test_are_isomorphic_checks_the_scalars_before_the_sizes(boolean, three):
    """Modules over different scalars raise whether or not their sizes
    match."""
    four = reduct_vee_odot(lukasiewicz_chain(4))
    with pytest.raises(ScalarMismatch):
        are_isomorphic(module_over_self(three), module_over_self(boolean))
    with pytest.raises(ScalarMismatch):
        are_isomorphic(free_semimodule(boolean, ["x", "y"]),
                       module_over_self(four))
    with pytest.raises(ScalarMismatch):
        are_isomorphic(module_over_self(four), module_over_self(boolean))


def _relabelled(m, perm):
    """m carried along the bijection x -> perm[x]."""
    inv = [0] * m.size
    for x, p in enumerate(perm):
        inv[p] = x
    add = tuple(tuple(perm[m.add[inv[p]][inv[q]]] for q in range(m.size))
                for p in range(m.size))
    action = tuple(tuple(perm[row[inv[p]]] for p in range(m.size))
                   for row in m.action)
    return FiniteSemimodule(m.scalars, m.size, add, perm[m.zero], action)


def _square():
    return reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                      lukasiewicz_chain(2)))


def _row_spaces(s):
    return [row_space(u) for n in (1, 2) for u in idempotent_matrices(s, n)]


@pytest.mark.parametrize("family", [
    lambda: enumerate_modules(boolean_semiring(), 5),
    lambda: _row_spaces(reduct_vee_odot(lukasiewicz_chain(3))),
    lambda: _row_spaces(reduct_vee_odot(lukasiewicz_chain(4))),
    lambda: _row_spaces(_square()),
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
        relabelled = _relabelled(m, perm)
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
    m = module_over_self(reduct_vee_odot(lukasiewicz_chain(70)))
    form = canonical_form(m)
    assert len(set(form[0])) == m.size
    perm = list(range(m.size))
    random.Random(0).shuffle(perm)
    assert canonical_form(_relabelled(m, perm)) == form


def test_direct_sum_structure_maps(boolean):
    m = module_over_self(boolean)
    ds = direct_sum(m, m)
    assert ds.module.size == 4
    assert check_semimodule(boolean, ds.module).valid
    for x in range(m.size):
        assert ds.project_left.mapping[ds.inject_left.mapping[x]] == x
        assert ds.project_right.mapping[ds.inject_right.mapping[x]] == x


def test_direct_sum_scalar_mismatch(boolean, three):
    with pytest.raises(ScalarMismatch):
        direct_sum(module_over_self(boolean), module_over_self(three))


def test_direct_sum_with_trivial_is_identity(three):
    m = module_over_self(three)
    ds = direct_sum(m, trivial_module(three))
    assert are_isomorphic(ds.module, m) is not None


def test_block_diag_preserves_idempotence(boolean):
    mats = idempotent_matrices(boolean, 2)
    from mvsr.matrix import is_mult_idempotent
    u, v = mats[3], mats[7]
    w = block_diag(u, v)
    assert w.rows == 4 and w.cols == 4
    assert is_mult_idempotent(w)


def test_sum_of_projectives_is_projective(boolean):
    m = module_over_self(boolean)
    ds = direct_sum(m, m)
    assert is_projective_matrix_criterion(ds.module, n=2) is not None
    assert is_projective_retract_oracle(ds.module, n=2) is not None


def test_all_subsemimodules_of_three_chain(three):
    subs = all_subsemimodules(module_over_self(three))
    assert subs == ((0,), (0, 1), (0, 1, 2))


def test_trichotomy_on_the_boolean_square():
    square = mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))
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
    square = mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))
    scal = reduct_vee_odot(square)
    m = generate(module_over_self(scal), (2,))
    res = cyclic_mv_trichotomy(square, m)
    assert res.idempotent == 2
    assert res.complement is not None
    assert res.c_iso is not None
    # the splitting map is a bijection from the algebra onto the biproduct
    assert len(set(res.c_iso.mapping)) == square.size


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


def _two_element_field():
    return FiniteSemiring(2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)


def _z3():
    return FiniteSemiring(3, tuple(tuple((a + b) % 3 for b in range(3))
                                   for a in range(3)),
                          tuple(tuple(a * b % 3 for b in range(3))
                                for a in range(3)), 0, 1)


def _lawless_tables():
    """x + x = 0 with 1 + 1 = 1 on two elements, and the three-chain with
    2 + 1 = 0, over the boolean semiring."""
    boolean = boolean_semiring()
    return [FiniteSemimodule(boolean, 2, ((0, 1), (1, 0)), 0,
                             ((0, 0), (0, 1))),
            FiniteSemimodule(boolean, 3, ((0, 1, 2), (1, 1, 2), (2, 0, 2)),
                             0, ((0, 0, 0), (0, 1, 2)))]


def _decider_cases():
    """(module, n): the row space of every idempotent of size 1 and 2
    over c2, c3, c4 and c2 x c2, over the two-element field and over Z/3,
    each at n = 1 and 2, and the two lawless tables."""
    scalars = [reduct_vee_odot(lukasiewicz_chain(k)) for k in (2, 3, 4)]
    scalars += [_square(), _two_element_field(), _z3()]
    cases = [(m, n) for s in scalars for m in _row_spaces(s) for n in (1, 2)]
    return cases + [(m, n) for m in _lawless_tables() for n in (1, 2)]


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
