import collections
import hashlib
import itertools
import random
import re

import pytest

import corpus
from folds import block_diag_by_loop
from mvsr import grothendieck, matrix, projective, semimodule
from mvsr.errors import (EnumGuard, MalformedTable, ScalarMismatch,
                         ToolkitError)
from mvsr.grothendieck import (AbelianGroupSNF, ProjClassMonoid,
                               compose_group_homs, completion_from_triples,
                               enumerate_projective_classes,
                               grothendieck_completion, k0_of_hom, k0_report,
                               k0_stability, zero_pad)
from mvsr.jsonio import canonical_dumps
from mvsr.matrix import (SemiringMatrix, _idempotent_stack,
                         idempotent_matrices, mat_identity)
from mvsr.mv import MvHom, lukasiewicz_chain
from mvsr.projective import (ProjectivePresentation, are_isomorphic,
                             block_diag, canonical_form, row_space)
from mvsr.semimodule import SemimoduleHom, module_over_self, trivial_module
from mvsr.semiring import (FiniteSemiring, boolean_semiring,
                           check_semiring_axioms, is_additively_idempotent)
from mvsr.snf import smith_normal_form


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
    three = corpus.chain(3)
    assert len(enumerate_projective_classes(boolean, 2).classes) == 4
    assert len(enumerate_projective_classes(three, 2).classes) == 7


def test_class_of_finds_isomorphic_module(boolean):
    p = enumerate_projective_classes(boolean, 1)
    assert p.class_of(trivial_module(boolean)) == 0
    assert p.class_of(module_over_self(boolean)) == 1


def test_class_of_refuses_other_scalars(boolean):
    """A module over other scalars raises, whatever its size, with
    canonical forms and with the scan alike."""
    three = corpus.chain(3)
    four = corpus.chain(4)
    p = enumerate_projective_classes(boolean, 2)
    with pytest.raises(ScalarMismatch):
        p.class_of(module_over_self(three))
    with pytest.raises(ScalarMismatch):
        p.class_of(module_over_self(four))
    field = enumerate_projective_classes(corpus.two_element_field(), 1)
    with pytest.raises(ScalarMismatch):
        field.class_of(module_over_self(boolean))


def test_class_of_a_lawless_table_is_none(boolean):
    """Every class is a module, so a table that breaks the module laws
    matches none, as the scan finds: x + x = 0 with 1 + 1 = 1 on two
    elements, and the three-chain with 2 + 1 = 0, whose order, and so
    whose canonical form, is the chain's."""
    p = enumerate_projective_classes(boolean, 2)
    for table in corpus.lawless_modules():
        assert p.class_of(table) is None
        assert _first_isomorphic(p.classes, table, 10 ** 7) is None


def _first_isomorphic(classes, m, max_enum):
    """Index of the first stored class whose module is isomorphic to m."""
    return next((i for i, cls in enumerate(classes)
                 if are_isomorphic(cls.module, m, max_enum) is not None), None)


def _block_sum_by_loop(u, v):
    """The block sum of u and v built by the Python loop."""
    return SemiringMatrix(u.scalars, u.rows + v.rows, u.cols + v.cols,
                          block_diag_by_loop(u, v))


def _enumerate_by_scan(s, n_max=2, max_enum=10 ** 7, max_carrier=4096):
    """The classes by a scan of are_isomorphic over every stored class, on
    row spaces taken inside the whole free module."""
    classes = []
    for n in range(1, n_max + 1):
        for u in idempotent_matrices(s, n, max_enum):
            rs = corpus.row_space_in_the_free_module(u, max_carrier)
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
            rs = corpus.row_space_in_the_free_module(
                _block_sum_by_loop(ci.u, cj.u), max_carrier)
            relations.add((i, j, _first_isomorphic(classes, rs, max_enum)))
    return ProjClassMonoid(s, n_max, tuple(classes), tuple(sorted(relations)))


def _square_tables():
    """The twelve labelled tables of the four-element boolean algebra."""
    square = corpus.square()
    tables = {}
    for perm in itertools.permutations(range(4)):
        t = corpus.relabelled(square, perm)
        tables.setdefault(t.core(), t)
    return list(tables.values())


def _report_by_scan(s, n_max, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(grothendieck, "enumerate_projective_classes",
                      _enumerate_by_scan)
        return canonical_dumps(k0_report(s, n_max))


@pytest.mark.parametrize("n_max", [1, 2])
def test_k0_report_matches_the_scan(n_max, monkeypatch):
    """Byte-identical reports on the 2- to 5-chains and on all twelve
    labelled tables of the four-element boolean algebra."""
    scalars = [corpus.chain(k) for k in range(2, 6)]
    scalars += _square_tables()
    assert len(scalars) == 16
    for s in scalars:
        assert (canonical_dumps(k0_report(s, n_max))
                == _report_by_scan(s, n_max, monkeypatch))


def test_k0_report_scans_scalars_without_idempotent_addition(monkeypatch):
    """Over the two-element field no canonical form applies; the report is
    the scan's."""
    field = corpus.two_element_field()
    for n_max in (1, 2, 3):
        assert (canonical_dumps(k0_report(field, n_max))
                == _report_by_scan(field, n_max, monkeypatch))
    assert enumerate_projective_classes(field, 1)._index.forms is None
    assert enumerate_projective_classes(boolean_semiring(), 1)._index.forms


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
    trivial = grothendieck._trivial_index([c.module.size for c in classes])
    relations = set()
    for j in range(len(classes)):
        relations.add((trivial, j, j))
        relations.add((j, trivial, j))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if ci.n + cj.n <= n_max:
                rs = row_space(_block_sum_by_loop(ci.u, cj.u), max_carrier)
                relations.add((i, j, find(rs)))
    return ProjClassMonoid(s, n_max, tuple(classes), tuple(sorted(relations)))


def _oracle_cases():
    chains = [corpus.chain(k) for k in range(2, 8)]
    cases = [(s, n) for s in chains + _square_tables() for n in (1, 2)]
    cases += [(s, n) for s in (corpus.two_element_field(), corpus.z3())
              for n in (1, 2, 3)]
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
    s = corpus.lawless_semiring()
    assert not check_semiring_axioms(s).valid
    index = projective._ClassIndex(s)
    stored = []
    for n in (1, 2):
        for u in idempotent_matrices(s, n, 10 ** 7):
            found = next(index.find_row_spaces(u.np_entries[None], 10 ** 7,
                                               4096, store=True))
            if found == len(stored):
                rs = index.module(found)
                stored.append(ProjectivePresentation(
                    s, n, u, rs, SemimoduleHom(rs, rs, tuple(range(rs.size)))))
    classes, _ = _classes_by_row_space(s, 2, 10 ** 7, 4096)
    assert index.forms is None and stored == classes
    with pytest.raises(ToolkitError) as got:
        enumerate_projective_classes(s, 2)
    with pytest.raises(ToolkitError) as want:
        _enumerate_by_row_space(s, 2)
    assert str(got.value) == str(want.value)


def _half_product():
    """The three-chain reduct with 0 * 1 = 1/2."""
    c3 = corpus.chain(3)
    mul = [list(row) for row in c3.mul]
    mul[0][2] = 1
    return FiniteSemiring(3, c3.add, mul, c3.zero, c3.one)


def test_a_block_sum_in_no_class_is_refused():
    """The three-chain reduct with 0 * 1 = 1/2 has a trivial class, but the
    block sum of its class 1 with itself spans a module in no class."""
    s = _half_product()
    with pytest.raises(ToolkitError, match="^a block sum is in no class"):
        enumerate_projective_classes(s, 2)


def test_lawless_scalars_reach_the_refusal_through_the_closure(monkeypatch):
    """The table above and the CLI's lawless table break the laws, so their
    spans come from the closure alone, and each gets its refusal."""
    def refuse(*args):
        raise AssertionError("the sweep ran over lawless scalars")

    monkeypatch.setattr(projective, "_row_spans", refuse)
    with pytest.raises(ToolkitError, match="^a block sum is in no class"):
        enumerate_projective_classes(_half_product(), 2)
    with pytest.raises(ToolkitError, match="^no trivial projective class"):
        enumerate_projective_classes(corpus.lawless_semiring(), 2)


def _random_tables(seed, count):
    """count three-element tables with zero 0 neutral for the sum and
    absorbing for the product, one 1, and every other sum and product
    drawn at random, so that the zero matrix spans a trivial class while
    most other laws fail."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        add = [[a if b == 0 else b if a == 0 else rng.randrange(3)
                for b in range(3)] for a in range(3)]
        mul = [[0 if 0 in (a, b) else rng.randrange(3) for b in range(3)]
               for a in range(3)]
        tables.append(FiniteSemiring(3, add, mul, 0, 1))
    return tables


def _lawless_cases():
    """The two lawless tables above and eight random ones, at n_max 1
    and 2."""
    tables = [corpus.lawless_semiring(), _half_product()]
    return [(s, n) for s in tables + _random_tables(3, 8) for n in (1, 2)]


def _outcome(s, n_max):
    """The classes, relations and group, or the refusal's message."""
    try:
        p = enumerate_projective_classes(s, n_max)
    except ToolkitError as refusal:
        return str(refusal)
    return p.classes, p.sum_relations, grothendieck_completion(p).group


def test_orbit_minima_give_the_classes_of_every_idempotent(monkeypatch):
    """Sweeping every idempotent gives the same classes, relations and
    group, or the same refusal, as sweeping the orbit minima: on c2 to c4
    and c2 x c2 at n_max 1 to 3, on the field and Z/3, which take the
    scan, and on lawless tables, where a conjugate of an idempotent need
    not be idempotent, at n_max 1 and 2."""
    lawful = [corpus.chain(k) for k in (2, 3, 4)]
    lawful += [_square_tables()[5], corpus.two_element_field(), corpus.z3()]
    cases = [(s, n) for s in lawful for n in (1, 2, 3)] + _lawless_cases()
    got = [_outcome(s, n) for s, n in cases]
    monkeypatch.setattr(grothendieck, "_orbit_minima", lambda s, us: us)
    assert got == [_outcome(s, n) for s, n in cases]
    assert any(isinstance(o, str) for o in got)
    assert sum(not isinstance(o, str) for o in got) > len(lawful) * 3


def _conjugates(u):
    """P u P^T for every permutation matrix P, as entry tuples."""
    n = len(u)
    return {tuple(u[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in itertools.permutations(range(n))}


def test_orbit_minima_match_the_conjugate_loop():
    """A matrix is dropped exactly when a strictly smaller conjugate is in
    the stack: on c3 and c2 x c2 up to n = 3 and on the lawless tables up
    to n = 2, where some idempotent is kept although it has a smaller
    conjugate, since no smaller conjugate is idempotent. On c3 at n = 3,
    1266 idempotents leave 240 orbit minima."""
    cases = [(s, n) for s in (corpus.chain(3),
                              _square_tables()[5]) for n in (1, 2, 3)]
    cases += _lawless_cases()
    kept_for_outside = 0
    for s, n in cases:
        stack = _idempotent_stack(s, n, 10 ** 7)
        codes = {tuple(u.reshape(-1).tolist()) for u in stack}
        want = []
        for u in stack.tolist():
            own = tuple(itertools.chain(*u))
            smaller = {c for c in _conjugates(u) if c < own}
            if not smaller & codes:
                want.append(u)
                kept_for_outside += bool(smaller)
        assert projective._orbit_minima(s, stack).tolist() == want
    assert kept_for_outside
    c3 = corpus.chain(3)
    stack = _idempotent_stack(c3, 3, 10 ** 7)
    assert len(stack) == 1266
    assert len(projective._orbit_minima(c3, stack)) == 240


def _span_key(u):
    return u.cols, row_space(u).members


@pytest.mark.parametrize("scalars", [
    lambda: corpus.chain(4),
    lambda: _square_tables()[5],
], ids=["c4", "c2xc2"])
def test_each_span_is_classed_once(scalars, monkeypatch):
    """A form per distinct span of the orbit minima and of the block sums
    whose module size another distinct span shares, since isomorphic
    modules have equal sizes (on c4, 41 of the 42 spans; the minima are 17
    spans, where all the idempotents would give 25), no row space while
    the classes are found, one sweep per size (the idempotents of sizes 1
    and 2 and the block sums of size 2), and the closure never. The row
    spaces are built when the classes are read, one per class."""
    s = scalars()
    p = enumerate_projective_classes(s, 2)
    minima = [SemiringMatrix(s, n, n, u) for n in (1, 2)
              for u in projective._orbit_minima(
                  s, _idempotent_stack(s, n, 10 ** 7)).tolist()]
    spans = {_span_key(u) for u in minima}
    block_spans = {_span_key(block_diag(ci.u, cj.u))
                   for ci in p.classes for cj in p.classes
                   if ci.n + cj.n <= 2}
    calls = {"_table_form": 0, "_row_space_of": 0, "_row_spans": 0,
             "_row_span": 0}

    def counted(name):
        inner = getattr(projective, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(projective, name, counted(name))
    again = enumerate_projective_classes(s, 2)
    sizes = collections.Counter(len(members)
                                for _, members in spans | block_spans)
    shared = [key for key in spans | block_spans if sizes[len(key[1])] > 1]
    assert len(spans) < len(minima) < sum(len(idempotent_matrices(s, n))
                                          for n in (1, 2))
    assert 0 < len(shared) < len(spans | block_spans)
    assert calls == {"_table_form": len(shared), "_row_space_of": 0,
                     "_row_spans": 3, "_row_span": 0}
    assert again == p
    assert calls["_row_space_of"] == len(p.classes)


def test_a_span_whose_form_could_breach_the_guard_takes_it_at_once():
    """Over c4 the identity's row space, the free module on two points,
    has its join-irreducibles in three cells of two: 8 orderings. No class
    shares its size, yet with max_enum 7 its first lookup is refused, as a
    form taken for every new span is; with 8 it is stored with its form,
    and with the default bound with none."""
    c4 = corpus.chain(4)
    u = mat_identity(c4, 2)
    with pytest.raises(EnumGuard, match="^canonical form orderings: 8 "):
        next(projective._ClassIndex(c4).find_row_spaces(
            u.np_entries[None], 7, 4096, store=True))
    index = projective._ClassIndex(c4)
    assert next(index.find_row_spaces(u.np_entries[None], 8, 4096,
                                      store=True)) == 0
    assert list(index.forms[16].values()) == [0]
    index = projective._ClassIndex(c4)
    assert next(index.find_row_spaces(u.np_entries[None], 10 ** 7, 4096,
                                      store=True)) == 0
    assert index.forms == {16: None}


@pytest.mark.parametrize("algebra", [
    lambda: lukasiewicz_chain(4),
    corpus.c2xc2,
], ids=["c4", "c2xc2"])
def test_k0_report_builds_no_module(algebra, monkeypatch):
    """The report reads each class's matrix and module size alone: no row
    space, label or presentation check runs, and the bytes are the scan's."""
    want = _report_by_scan(algebra(), 2, monkeypatch)

    def refuse(*args):
        raise AssertionError("the report built a module or a presentation")

    for module, name in ((projective, "_row_space_of"),
                         (projective, "_vector_labels"),
                         (semimodule, "_vector_labels"),
                         (projective, "is_mult_idempotent"),
                         (grothendieck, "is_mult_idempotent"),
                         (matrix, "is_mult_idempotent")):
        monkeypatch.setattr(module, name, refuse)
    assert canonical_dumps(k0_report(algebra(), 2)) == want


def test_classes_read_after_the_lookups_match_the_row_space_loop():
    """The sizes and matrices read before any module is built, and the
    presentations built when p.classes is read after every lookup, equal
    the loop's on the 42 oracle cases; over the CLI's lawless table, the
    classes that the index stores before the refusal equal the loop's when
    they are read after the last lookup."""
    for s, n_max in _oracle_cases():
        p = enumerate_projective_classes(s, n_max)
        want = _enumerate_by_row_space(s, n_max)
        assert p.classes.module_sizes == tuple(c.module.size
                                               for c in want.classes)
        assert ([u.tolist() for u in p.classes.matrices]
                == [list(map(list, c.u.entries)) for c in want.classes])
        assert tuple(p.classes) == tuple(want.classes)
        assert p.classes[-1] is p.classes[-1]
    s = corpus.lawless_semiring()
    index = projective._ClassIndex(s)
    mats = []
    for n in (1, 2):
        for u in idempotent_matrices(s, n, 10 ** 7):
            if next(index.find_row_spaces(u.np_entries[None], 10 ** 7, 4096,
                                          store=True)) == len(mats):
                mats.append(u.np_entries)
    classes, _ = _classes_by_row_space(s, 2, 10 ** 7, 4096)
    assert list(grothendieck.ProjectiveClasses(index, mats)) == classes


def test_n_max_must_be_an_integer_of_at_least_one(boolean):
    """A bool, a float, a string or a bound below 1 is refused with
    ValueError before any guard, even a guard set to refuse everything,
    by enumerate_projective_classes, k0_report and each bound of
    k0_stability, which also refuses an empty tuple of bounds and, where a
    bare 3 raised TypeError, bounds that are not an iterable."""
    for bad in (True, False, 1.5, 2.0, "2", None, 0, -1):
        with pytest.raises(ValueError, match="^n_max="):
            enumerate_projective_classes(boolean, bad, max_enum=0)
        with pytest.raises(ValueError, match="^n_max="):
            k0_report(boolean, bad, max_enum=0)
        with pytest.raises(ValueError, match="^n_max="):
            k0_stability(boolean, (1, bad), max_enum=0)
    with pytest.raises(ValueError, match="^k0_stability needs at least one"):
        k0_stability(boolean, ())
    for bad in (3, 2.5, None):
        with pytest.raises(ValueError, match="^bounds=.* must be an iterable"):
            k0_stability(boolean, bad, max_enum=0)
    with pytest.raises(EnumGuard):
        enumerate_projective_classes(boolean, 1, max_enum=0)


def test_k0_report_bytes_at_n_max_3():
    """The c3 and c2 x c2 reports past the benchmark's size, pinned by
    digest."""
    text = canonical_dumps(k0_report(lukasiewicz_chain(3), 3))
    assert (hashlib.sha1(text.encode()).hexdigest()
            == "131d289e43e4457131084fd79e65512ecaca98f0")
    square = corpus.c2xc2()
    text = canonical_dumps(k0_report(square, 3))
    assert (hashlib.sha1(text.encode()).hexdigest()
            == "2c1097c9738fb91f28061c965a4c419bbb07128f")


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


def _completion_by_dense_snf(n, triples):
    """The group, images, relation rows and Smith normal form of the
    completion, all read off the dense relation matrix."""
    rows = []
    for (i, j, k) in triples:
        row = [0] * n
        row[i] += 1
        row[j] += 1
        row[k] -= 1
        rows.append(tuple(row))
    rows = tuple(rows) or ((0,) * n,)
    snf = smith_normal_form(rows)
    factors = snf.invariant_factors
    group = AbelianGroupSNF(n - len(factors),
                            tuple(d for d in factors if d > 1))
    images = tuple(
        tuple([y[j] % factors[j] for j in range(len(factors))
               if factors[j] > 1] + [y[j] for j in range(len(factors), n)])
        for y in snf.v)
    return group, images, rows, snf


def _completion_cases():
    """(generators, triples): no relation, no generator, repeated triples
    and (0, 0, 0), then 80 seeded sets of up to twelve random triples on
    up to seven generators."""
    cases = [(0, []), (1, []), (3, []), (1, [(0, 0, 0)]),
             (2, [(0, 0, 0)] * 3), (2, [(0, 1, 1), (0, 1, 1)]),
             (3, [(0, 0, 1), (1, 0, 0), (0, 0, 1), (2, 2, 2)]),
             (2, [(0, 0, 1), (0, 0, 1), (1, 0, 0), (1, 0, 0)])]
    rng = random.Random(20010)
    for _ in range(80):
        n = rng.randint(1, 7)
        cases.append((n, [tuple(rng.randrange(n) for _ in range(3))
                          for _ in range(rng.randint(0, 12))]))
    return cases


def _counting_dense_forms(monkeypatch):
    """The row counts of the matrices grothendieck hands to
    smith_normal_form from now on."""
    calls = []
    monkeypatch.setattr(grothendieck, "smith_normal_form",
                        lambda rows: calls.append(len(rows))
                        or smith_normal_form(rows))
    return calls


def test_pivot_group_matches_the_dense_snf(monkeypatch):
    """The group from the unit pivots and the residual's form is the dense
    form's on every case, some with torsion and some leaving a residual;
    the relation rows, the form and the images, built when first read,
    are the dense ones."""
    calls = _counting_dense_forms(monkeypatch)
    torsion = residual = 0
    for n, triples in _completion_cases():
        del calls[:]
        res = completion_from_triples(n, triples)
        residual += len(calls)
        group, images, rows, snf = _completion_by_dense_snf(n, triples)
        assert res.group == group
        assert (res.relation_rows, res.snf, res.images) == (rows, snf, images)
        torsion += bool(group.torsion)
    assert torsion >= 3 and residual >= 3


def test_pivot_group_matches_the_dense_snf_on_the_k0_cases(monkeypatch):
    """The same group as the dense form on every class monoid of the
    oracle cases, of c3 and c2 x c2 at n_max 3 and of the lawless tables
    that have one; on the benchmark's scalars, the 2- to 7-chains and
    c2 x c2 at n_max 2, every relation settles on a unit pivot, so
    neither k0_report nor k0_stability takes a dense form."""
    cases = _oracle_cases() + [(corpus.chain(3), 3),
                               (_square_tables()[0], 3)]
    cases += [(s, n) for s, n in _lawless_cases()
              if not isinstance(_outcome(s, n), str)]
    for s, n in cases:
        p = enumerate_projective_classes(s, n)
        assert (grothendieck_completion(p).group
                == _completion_by_dense_snf(len(p.classes),
                                            p.sum_relations)[0])
    calls = _counting_dense_forms(monkeypatch)
    for s in [corpus.chain(k) for k in range(2, 8)] + _square_tables():
        k0_report(s, 2)
        k0_stability(s, (1, 2))
    assert calls == []


@pytest.mark.parametrize("triples,message", [
    ([(0, 0, 2)], "relation triples table entry 2 out of range 0..1"),
    ([(0, -1, 1)], "relation triples table entry -1 out of range 0..1"),
    ([(0, 1)], "relation triples table must be 1x3"),
])
def test_completion_refuses_a_triple_outside_the_generators(triples,
                                                            message):
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        completion_from_triples(2, triples)


def test_torsion_entries_are_read_as_counts():
    """Each torsion entry is an integer of at least 2, stored in a tuple:
    a float entry once passed or failed the divisibility test in its
    place, and a list of entries was stored as given, unhashable."""
    with pytest.raises(ValueError, match=r"^torsion entry=5\.0 must be an "
                                         r"integer$"):
        AbelianGroupSNF(0, (2, 5.0))
    with pytest.raises(ValueError, match="^torsion entry=1 must be at "
                                         "least 2$"):
        AbelianGroupSNF(0, (1, 2))
    with pytest.raises(ValueError, match="^torsion must form a "
                                         "divisibility chain$"):
        AbelianGroupSNF(0, (2, 5))
    group = AbelianGroupSNF(1, [2, 4])
    assert group.torsion == (2, 4)
    assert hash(group) == hash(AbelianGroupSNF(1, (2, 4)))


@pytest.mark.parametrize("torsion", [3, None, "ab", b"\x02",
                                     bytearray(b"\x02")],
                         ids=["int", "None", "str", "bytes", "bytearray"])
def test_torsion_that_is_no_sequence_of_counts_is_refused(torsion):
    """A bare count or None once raised a bare TypeError, a str named its
    first character as the entry, and bytes were read as their byte
    values: bytes([2]) was accepted as the torsion (2,)."""
    with pytest.raises(ValueError, match=f"^torsion={re.escape(repr(torsion))}"
                                         f" must be an iterable of torsion "
                                         f"entries$"):
        AbelianGroupSNF(0, torsion)


def test_groups_frozen(boolean):
    three = corpus.chain(3)
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
                "c2xc2": corpus.c2xc2()}
    res = k0_of_hom(MvHom(algebras[source], algebras[target], mapping), 2)
    assert res.class_map == class_map
    assert res.relations_respected


@pytest.mark.parametrize("side", ["source_monoid", "target_monoid"])
@pytest.mark.parametrize("scalars", [
    lambda: corpus.chain(3),
    lambda: corpus.relabelled(boolean_semiring(), (1, 0)),
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
    three = corpus.chain(3)
    res3 = k0_stability(three, bounds=(1, 2))
    assert [g["rank"] for g in res3["groups"]] == [1, 5]
    assert res3["stable"] is False


def test_k0_validates_the_hom_first():
    l2 = lukasiewicz_chain(2)
    from mvsr.errors import NotAHom
    with pytest.raises(NotAHom):
        k0_of_hom(MvHom(l2, l2, (0, 0)), 1)
