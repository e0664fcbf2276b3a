import hashlib
import itertools

import pytest

from mvsr import grothendieck, projective
from mvsr.errors import EnumGuard, ScalarMismatch, ToolkitError
from mvsr.grothendieck import (AbelianGroupSNF, ProjClassMonoid,
                               compose_group_homs, completion_from_triples,
                               enumerate_projective_classes,
                               grothendieck_completion, k0_of_hom, k0_report,
                               k0_stability, zero_pad)
from mvsr.jsonio import canonical_dumps
from mvsr.matrix import idempotent_matrices, mat_identity
from mvsr.mv import MvHom, lukasiewicz_chain, mv_product, reduct_vee_odot
from mvsr.projective import (ProjectivePresentation, are_isomorphic,
                             block_diag, canonical_form, row_space)
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom,
                             free_semimodule, generate, module_over_self,
                             trivial_module)
from mvsr.semiring import (FiniteSemiring, boolean_semiring,
                           check_semiring_axioms, is_additively_idempotent)


@pytest.fixture
def boolean():
    return boolean_semiring()


@pytest.fixture
def square():
    return mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))


def test_zero_pad_keeps_row_space(boolean):
    u = mat_identity(boolean, 1)
    padded = zero_pad(u, 3)
    assert padded.rows == padded.cols == 3
    assert are_isomorphic(row_space(u), row_space(padded)) is not None


def test_two_classes_at_bound_one(boolean):
    p = enumerate_projective_classes(boolean, 1)
    assert len(p.classes) == 2
    assert p.trivial_index == 0
    # the trivial class absorbs nothing and the free class adds past the bound
    assert p.sum_relations == ((0, 0, 0), (0, 1, 1), (1, 0, 1))


def test_class_counts_frozen(boolean):
    three = reduct_vee_odot(lukasiewicz_chain(3))
    assert len(enumerate_projective_classes(boolean, 2).classes) == 4
    assert len(enumerate_projective_classes(three, 2).classes) == 7


def test_class_of_finds_isomorphic_module(boolean):
    p = enumerate_projective_classes(boolean, 1)
    assert p.class_of(trivial_module(boolean)) == 0
    assert p.class_of(module_over_self(boolean)) == 1


def test_class_of_refuses_other_scalars(boolean):
    """A module over other scalars raises, whatever its size, with
    canonical forms and with the scan alike."""
    three = reduct_vee_odot(lukasiewicz_chain(3))
    four = reduct_vee_odot(lukasiewicz_chain(4))
    p = enumerate_projective_classes(boolean, 2)
    with pytest.raises(ScalarMismatch):
        p.class_of(module_over_self(three))
    with pytest.raises(ScalarMismatch):
        p.class_of(module_over_self(four))
    field = enumerate_projective_classes(_two_element_field(), 1)
    with pytest.raises(ScalarMismatch):
        field.class_of(module_over_self(boolean))


def test_class_of_a_lawless_table_is_none(boolean):
    """Every class is a module, so a table that breaks the module laws
    matches none, as the scan finds: x + x = 0 with 1 + 1 = 1 on two
    elements, and the three-chain with 2 + 1 = 0, whose order, and so
    whose canonical form, is the chain's."""
    p = enumerate_projective_classes(boolean, 2)
    xor = FiniteSemimodule(boolean, 2, ((0, 1), (1, 0)), 0,
                           ((0, 0), (0, 1)))
    chain = FiniteSemimodule(boolean, 3, ((0, 1, 2), (1, 1, 2), (2, 0, 2)),
                             0, ((0, 0, 0), (0, 1, 2)))
    for table in (xor, chain):
        assert p.class_of(table) is None
        assert _first_isomorphic(p.classes, table, 10 ** 7) is None


def _first_isomorphic(classes, m, max_enum):
    """Index of the first stored class whose module is isomorphic to m."""
    return next((i for i, cls in enumerate(classes)
                 if are_isomorphic(cls.module, m, max_enum) is not None), None)


def _row_space_in_the_free_module(u, max_carrier):
    free = free_semimodule(u.scalars, [str(j) for j in range(u.cols)],
                           max_carrier)
    return generate(free, [free.index(row) for row in u.entries])


def _enumerate_by_scan(s, n_max=2, max_enum=10 ** 7, max_carrier=4096):
    """The classes by a scan of are_isomorphic over every stored class, on
    row spaces taken inside the whole free module."""
    classes = []
    for n in range(1, n_max + 1):
        for u in idempotent_matrices(s, n, max_enum):
            rs = _row_space_in_the_free_module(u, max_carrier)
            if _first_isomorphic(classes, rs, max_enum) is not None:
                continue
            classes.append(ProjectivePresentation(
                s, n, u, rs, SemimoduleHom(rs, rs, tuple(range(rs.size)))))
    trivial = next(i for i, c in enumerate(classes) if c.module.size == 1)
    relations = set()
    for j in range(len(classes)):
        relations.add((trivial, j, j))
        relations.add((j, trivial, j))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if ci.n + cj.n > n_max:
                continue
            rs = _row_space_in_the_free_module(block_diag(ci.u, cj.u),
                                               max_carrier)
            relations.add((i, j, _first_isomorphic(classes, rs, max_enum)))
    return ProjClassMonoid(s, n_max, tuple(classes), tuple(sorted(relations)))


def _relabelled(s, perm):
    """s carried along the bijection a -> perm[a]."""
    inv = {p: a for a, p in enumerate(perm)}
    add = [[perm[s.add[inv[p]][inv[q]]] for q in range(s.size)]
           for p in range(s.size)]
    mul = [[perm[s.mul[inv[p]][inv[q]]] for q in range(s.size)]
           for p in range(s.size)]
    return FiniteSemiring(s.size, add, mul, perm[s.zero], perm[s.one])


def _square_tables():
    """The twelve labelled tables of the four-element boolean algebra."""
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    tables = {}
    for perm in itertools.permutations(range(4)):
        t = _relabelled(square, perm)
        tables.setdefault(t.core(), t)
    return list(tables.values())


def _two_element_field():
    return FiniteSemiring(2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)


def _report_by_scan(s, n_max, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(grothendieck, "enumerate_projective_classes",
                      _enumerate_by_scan)
        return canonical_dumps(k0_report(s, n_max))


@pytest.mark.parametrize("n_max", [1, 2])
def test_k0_report_matches_the_scan(n_max, monkeypatch):
    """Byte-identical reports on the 2- to 5-chains and on all twelve
    labelled tables of the four-element boolean algebra."""
    scalars = [reduct_vee_odot(lukasiewicz_chain(k)) for k in range(2, 6)]
    scalars += _square_tables()
    assert len(scalars) == 16
    for s in scalars:
        assert (canonical_dumps(k0_report(s, n_max))
                == _report_by_scan(s, n_max, monkeypatch))


def test_k0_report_scans_scalars_without_idempotent_addition(monkeypatch):
    """Over the two-element field no canonical form applies; the report is
    the scan's."""
    field = _two_element_field()
    for n_max in (1, 2, 3):
        assert (canonical_dumps(k0_report(field, n_max))
                == _report_by_scan(field, n_max, monkeypatch))
    assert enumerate_projective_classes(field, 1)._index.forms is None
    assert enumerate_projective_classes(boolean_semiring(), 1)._index.forms


def _z3():
    return FiniteSemiring(3, tuple(tuple((a + b) % 3 for b in range(3))
                                   for a in range(3)),
                          tuple(tuple(a * b % 3 for b in range(3))
                                for a in range(3)), 0, 1)


def _lawless():
    """The table the CLI refuses for want of a trivial class."""
    return FiniteSemiring(3, ((0, 2, 2), (1, 1, 0), (0, 2, 0)),
                          ((0, 0, 0), (2, 2, 2), (1, 2, 2)), 1, 2)


def _classes_by_row_space(s, n_max, max_enum, max_carrier):
    """Every idempotent's row space, built and classed one at a time, by
    canonical form over the scalars that have forms and by a scan of
    are_isomorphic over the others."""
    forms = ({} if is_additively_idempotent(s)
             and check_semiring_axioms(s).valid else None)
    classes = []

    def find(m):
        if forms is None:
            return _first_isomorphic(classes, m, max_enum)
        return forms.get(canonical_form(m, max_enum))

    for n in range(1, n_max + 1):
        for u in idempotent_matrices(s, n, max_enum):
            rs = row_space(u, max_carrier)
            if find(rs) is not None:
                continue
            if forms is not None:
                forms[canonical_form(rs, max_enum)] = len(classes)
            classes.append(ProjectivePresentation(
                s, n, u, rs, SemimoduleHom(rs, rs, tuple(range(rs.size)))))
    return classes, find


def _enumerate_by_row_space(s, n_max=2, max_enum=10 ** 7, max_carrier=4096):
    """The classes and relations with a row space built for every
    idempotent and every block sum, none of them looked up by its span."""
    classes, find = _classes_by_row_space(s, n_max, max_enum, max_carrier)
    trivial = grothendieck._trivial_index(classes)
    relations = set()
    for j in range(len(classes)):
        relations.add((trivial, j, j))
        relations.add((j, trivial, j))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if ci.n + cj.n <= n_max:
                rs = row_space(block_diag(ci.u, cj.u), max_carrier)
                relations.add((i, j, find(rs)))
    return ProjClassMonoid(s, n_max, tuple(classes), tuple(sorted(relations)))


def _oracle_cases():
    chains = [reduct_vee_odot(lukasiewicz_chain(k)) for k in range(2, 8)]
    cases = [(s, n) for s in chains + _square_tables() for n in (1, 2)]
    cases += [(s, n) for s in (_two_element_field(), _z3()) for n in (1, 2, 3)]
    return cases


def test_span_index_matches_the_row_space_loop():
    """Equal classes (matrices, sizes, modules, isos) and equal relations
    on the 2- to 7-chains and the twelve labelled four-element boolean
    tables at n_max 1 and 2, and over the two-element field and Z/3,
    which take the scan, at n_max 1 to 3."""
    cases = _oracle_cases()
    assert len(cases) == 42
    for s, n_max in cases:
        got = enumerate_projective_classes(s, n_max)
        want = _enumerate_by_row_space(s, n_max)
        assert got.classes == want.classes
        assert got.sum_relations == want.sum_relations


def test_span_index_matches_the_row_space_loop_on_a_lawless_table():
    """Over the CLI's lawless table the index stores the same classes as
    the loop, and both refuse it with the same message."""
    s = _lawless()
    assert not check_semiring_axioms(s).valid
    index = projective._ClassIndex(s)
    stored = []
    for n in (1, 2):
        for u in idempotent_matrices(s, n, 10 ** 7):
            found = index.find_row_space(u, 10 ** 7, 4096, store=True)
            if found == len(stored):
                rs = index.modules[-1]
                stored.append(ProjectivePresentation(
                    s, n, u, rs, SemimoduleHom(rs, rs, tuple(range(rs.size)))))
    classes, _ = _classes_by_row_space(s, 2, 10 ** 7, 4096)
    assert index.forms is None and stored == classes
    with pytest.raises(ToolkitError) as got:
        enumerate_projective_classes(s, 2)
    with pytest.raises(ToolkitError) as want:
        _enumerate_by_row_space(s, 2)
    assert str(got.value) == str(want.value)


def test_a_block_sum_in_no_class_is_refused():
    """The three-chain reduct with 0 * 1 = 1/2 has a trivial class, but the
    block sum of its class 1 with itself spans a module in no class."""
    c3 = reduct_vee_odot(lukasiewicz_chain(3))
    mul = [list(row) for row in c3.mul]
    mul[0][2] = 1
    s = FiniteSemiring(3, c3.add, mul, c3.zero, c3.one)
    with pytest.raises(ToolkitError, match="^a block sum is in no class"):
        enumerate_projective_classes(s, 2)


def _span_key(u):
    return u.cols, row_space(u).members


@pytest.mark.parametrize("scalars", [
    lambda: reduct_vee_odot(lukasiewicz_chain(4)),
    lambda: _square_tables()[5],
], ids=["c4", "c2xc2"])
def test_each_span_is_classed_once(scalars, monkeypatch):
    """A form per distinct span of the idempotents plus one per new span
    of the block sums, and a row space only for each class."""
    s = scalars()
    p = enumerate_projective_classes(s, 2)
    spans = {_span_key(u) for n in (1, 2) for u in idempotent_matrices(s, n)}
    block_spans = {_span_key(block_diag(ci.u, cj.u))
                   for ci in p.classes for cj in p.classes
                   if ci.n + cj.n <= 2}
    calls = {"_table_form": 0, "row_space": 0}

    def counted(name):
        inner = getattr(projective, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(projective, name, counted(name))
    again = enumerate_projective_classes(s, 2)
    assert again == p
    assert len(spans) < sum(len(idempotent_matrices(s, n)) for n in (1, 2))
    assert calls == {"_table_form": len(spans | block_spans),
                     "row_space": len(p.classes)}


def test_k0_report_bytes_at_n_max_3():
    """The c3 report past the benchmark's size, pinned by digest."""
    text = canonical_dumps(k0_report(lukasiewicz_chain(3), 3))
    assert (hashlib.sha1(text.encode()).hexdigest()
            == "131d289e43e4457131084fd79e65512ecaca98f0")


def test_enumeration_guard(boolean):
    with pytest.raises(EnumGuard):
        enumerate_projective_classes(boolean, 3, max_enum=100)


def test_completion_idempotent_generator_is_trivial():
    res = completion_from_triples(1, [(0, 0, 0)])
    assert res.group.is_trivial
    assert res.images == ((),)


def test_completion_free_generator_is_the_integers():
    res = completion_from_triples(1, [])
    assert res.group == AbelianGroupSNF(1, ())
    assert not res.group.is_trivial


def test_completion_relation_span():
    # two generators glued by g0 + g0 = g1
    res = completion_from_triples(2, [(0, 0, 1)])
    assert res.group.rank == 1
    assert res.in_relation_span((2, -1))
    assert not res.in_relation_span((1, 0))


def test_completion_with_torsion():
    # g0+g0 = g1 and g1+g0 = g0 force 2*g0 = 0
    res = completion_from_triples(2, [(0, 0, 1), (1, 0, 0)])
    assert res.group.rank == 0
    assert res.group.torsion == (2,)


def test_groups_frozen(boolean):
    three = reduct_vee_odot(lukasiewicz_chain(3))
    g2 = grothendieck_completion(enumerate_projective_classes(boolean, 2))
    assert g2.group == AbelianGroupSNF(2, ())
    g3 = grothendieck_completion(enumerate_projective_classes(three, 2))
    assert g3.group == AbelianGroupSNF(5, ())


def test_k0_identity_is_identity_matrix(boolean):
    l2 = lukasiewicz_chain(2)
    ident = MvHom(l2, l2, (0, 1))
    res = k0_of_hom(ident, 1)
    assert res.matrix == ((1, 0), (0, 1))
    assert res.class_map == (0, 1)
    assert res.relations_respected


def test_k0_functor_law(square):
    l2 = lukasiewicz_chain(2)
    diag = MvHom(l2, square, (0, 3))
    proj = MvHom(square, l2, (0, 0, 1, 1))
    diag.validate(), proj.validate()
    k_diag = k0_of_hom(diag, 1)
    k_proj = k0_of_hom(proj, 1)
    assert k_diag.relations_respected and k_proj.relations_respected
    composite = compose_group_homs(k_proj, k_diag)
    ident = k0_of_hom(MvHom(l2, l2, (0, 1)), 1)
    assert composite == ident.matrix


@pytest.mark.parametrize("source,target,mapping,class_map", [
    ("c2", "c3", (0, 2), (0, 1, 2, 4)),
    ("c2", "c2xc2", (0, 3), (0, 3, 12, 15)),
    ("c2xc2", "c2", (0, 0, 1, 1),
     (0, 0, 1, 1, 0, 1, 0, 1, 2, 2, 3, 3, 2, 2, 3, 3)),
    ("c2xc2", "c2", (0, 1, 0, 1),
     (0, 1, 0, 1, 2, 2, 3, 3, 0, 1, 0, 1, 2, 3, 2, 3)),
    ("c3", "c3", (0, 1, 2), (0, 1, 2, 3, 4, 5, 6)),
], ids=["c2-into-c3", "diagonal", "first-projection", "second-projection",
        "c3-identity"])
def test_k0_of_hom_at_n_max_2(source, target, mapping, class_map):
    """The class maps at n_max 2, with every sum relation respected."""
    algebras = {"c2": lukasiewicz_chain(2), "c3": lukasiewicz_chain(3),
                "c2xc2": mv_product(lukasiewicz_chain(2),
                                    lukasiewicz_chain(2))}
    res = k0_of_hom(MvHom(algebras[source], algebras[target], mapping), 2)
    assert res.class_map == class_map
    assert res.relations_respected


@pytest.mark.parametrize("side", ["source_monoid", "target_monoid"])
@pytest.mark.parametrize("scalars", [
    lambda: reduct_vee_odot(lukasiewicz_chain(3)),
    lambda: _relabelled(boolean_semiring(), (1, 0)),
], ids=["three-chain", "swapped-boolean"])
def test_k0_of_hom_refuses_monoids_over_other_scalars(side, scalars):
    """A class monoid over the three-chain, or over the boolean tables with
    0 and 1 swapped, does not fit the identity on the two-chain on either
    side; the monoid over its own scalars does."""
    ident = MvHom(lukasiewicz_chain(2), lukasiewicz_chain(2), (0, 1))
    with pytest.raises(ScalarMismatch):
        k0_of_hom(ident, 1, **{side: enumerate_projective_classes(
            scalars(), 1)})
    own = enumerate_projective_classes(boolean_semiring(), 1)
    assert k0_of_hom(ident, 1, **{side: own}).class_map == (0, 1)


def test_k0_diagonal_sends_free_to_free(square):
    l2 = lukasiewicz_chain(2)
    diag = MvHom(l2, square, (0, 3))
    res = k0_of_hom(diag, 1)
    sizes = [res.target.classes[j].module.size for j in res.class_map]
    assert sizes == [1, 4]


def test_k0_report_schema(boolean):
    report = k0_report(boolean, 1)
    assert set(report) == {"scalars", "n_max", "classes", "relations",
                           "group", "truncated"}
    assert report["truncated"] is True
    assert report["n_max"] == 1
    assert report["group"] == {"rank": 1, "torsion": []}
    assert [c["size"] for c in report["classes"]] == [1, 1]
    for c in report["classes"]:
        assert set(c) == {"size", "matrix", "module_size"}


def test_k0_report_accepts_mv_algebra(square):
    report = k0_report(square, 1)
    assert report["group"]["rank"] == len(report["classes"]) - 1


def test_stability_is_reported_not_claimed(boolean):
    res = k0_stability(boolean, bounds=(1, 2))
    assert res["bounds"] == [1, 2]
    assert res["class_counts"] == [2, 4]
    assert res["stable"] is False
    three = reduct_vee_odot(lukasiewicz_chain(3))
    res3 = k0_stability(three, bounds=(1, 2))
    assert [g["rank"] for g in res3["groups"]] == [1, 5]
    assert res3["stable"] is False


def test_k0_validates_the_hom_first():
    l2 = lukasiewicz_chain(2)
    from mvsr.errors import NotAHom
    with pytest.raises(NotAHom):
        k0_of_hom(MvHom(l2, l2, (0, 0)), 1)
