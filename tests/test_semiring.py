import functools
import itertools
import operator
import random
from collections import Counter

import numpy as np
import pytest

import corpus
from closed_scans import (closed_sets_from_scratch, implication_closure,
                          step_in_congruence_order)
from law_loops import (module_hom_broken_by_loop, module_report_by_loops,
                       mv_hom_broken_by_loop, mv_report_by_loops,
                       semiring_hom_broken_by_loop, semiring_report_by_loops)
from mvsr import semiring
from mvsr.errors import MalformedTable, NotAHom
from mvsr.matrix import SemiringMatrix, eta, idempotent_matrices
from mvsr.mv import (MvAlgebra, MvHom, check_mv_axioms, lukasiewicz_chain,
                     reduct_vee_odot, reduct_wedge_oplus)
from mvsr.projective import row_space
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom,
                             _first_broken_law, check_semimodule,
                             free_semimodule,
                             free_universal_property, module_over_self)
from mvsr.semiring import (AxiomReport, FiniteSemiring, SemiringHom,
                           boolean_semiring, check_semiring_axioms,
                           compose_homs, is_additively_idempotent,
                           natural_order, opposite_semiring, same_scalars)
from mvsr.tensor import congruence_closure, enumerate_modules


def test_boolean_semiring_is_valid(boolean):
    report = check_semiring_axioms(boolean)
    assert report.valid
    assert all(law.witness is None for law in report.laws)


def test_boolean_tables(boolean):
    assert boolean.plus(1, 0) == 1
    assert boolean.times(1, 0) == 0
    assert boolean.sum([]) == boolean.zero
    assert boolean.sum([0, 1, 0]) == 1


def test_report_dict_shape(boolean):
    d = check_semiring_axioms(boolean).to_dict()
    assert d["structure"] == "semiring"
    assert d["valid"] is True
    assert {law["name"] for law in d["laws"]} == {
        "add-associative", "add-commutative", "add-identity",
        "mul-associative", "mul-identity", "distributive-left",
        "distributive-right", "zero-absorbing"}


def test_broken_distributivity_is_witnessed():
    # and-or swapped on one cell of the product table
    add = ((0, 1), (1, 1))
    mul = ((0, 0), (1, 1))
    s = FiniteSemiring(2, add, mul, 0, 1, ("0", "1"))
    report = check_semiring_axioms(s)
    assert not report.valid
    assert {law.name: law.witness for law in report.failures()} == {
        "mul-identity": (1, 0), "zero-absorbing": (1, 0)}
    # max on the 4-chain with a product that breaks both distributive laws
    mul = ((0, 0, 0, 1), (0, 0, 2, 1), (0, 0, 1, 2), (0, 1, 2, 3))
    s = FiniteSemiring(4, np.maximum.outer(range(4), range(4)), mul, 0, 3)
    assert {law.name: law.witness
            for law in check_semiring_axioms(s).failures()} == {
        "mul-associative": (0, 0, 3), "mul-identity": (0, 3),
        "distributive-left": (1, 2, 3), "distributive-right": (1, 2, 2),
        "zero-absorbing": (0, 3)}


def test_ragged_table_rejected():
    with pytest.raises(MalformedTable):
        FiniteSemiring(2, ((0, 1), (1,)), ((0, 0), (0, 1)), 0, 1, None)


def test_out_of_range_entry_rejected():
    with pytest.raises(MalformedTable):
        FiniteSemiring(2, ((0, 1), (1, 5)), ((0, 0), (0, 1)), 0, 1, None)


def test_natural_order_boolean(boolean):
    leq = natural_order(boolean)
    assert leq[0][1] and not leq[1][0]
    assert leq[0][0] and leq[1][1]


def test_additive_idempotence(boolean):
    assert is_additively_idempotent(boolean)
    # mod-2 addition is not idempotent
    assert not is_additively_idempotent(corpus.two_element_field())


def test_opposite_of_commutative_is_equal(boolean):
    opp = opposite_semiring(boolean)
    assert opp.mul == boolean.mul
    assert check_semiring_axioms(opp).valid


def test_opposite_transposes_the_product():
    """On a table whose product does not commute, and that breaks the
    laws, the opposite product is the transpose, entry by entry."""
    s = corpus.lawless_semiring()
    opp = opposite_semiring(s)
    assert opp.mul == tuple(tuple(s.mul[b][a] for b in range(3))
                            for a in range(3))
    assert opp.mul != s.mul and opp.add == s.add


def test_hom_validate_and_compose(boolean):
    ident = SemiringHom(boolean, boolean, (0, 1))
    ident.validate()
    assert ident.is_bijective()
    twice = compose_homs(ident, ident)
    assert twice.mapping == (0, 1)
    bad = SemiringHom(boolean, boolean, (1, 0))
    with pytest.raises(NotAHom):
        bad.validate()


def test_hom_rejects_wrong_length(boolean):
    with pytest.raises(MalformedTable):
        SemiringHom(boolean, boolean, (0, 1, 0))


def test_report_failures_empty_when_valid(boolean):
    report = check_semiring_axioms(boolean)
    assert isinstance(report, AxiomReport)
    assert report.failures() == ()


# ----- every public constructor refuses bad entries ------------------------------

_B = boolean_semiring()
_C3 = lukasiewicz_chain(3)
_B_SELF = module_over_self(_B)

# Each constructor with one of its index fields left open, the field's name
# and a valid value for it: a table (list of rows) or a map (one row).
_CONSTRUCTORS = {
    "FiniteSemiring": (lambda t: FiniteSemiring(2, t, _B.mul, 0, 1), "add",
                       [[0, 1], [1, 1]]),
    "MvAlgebra": (lambda t: MvAlgebra(3, t, _C3.star, 0), "oplus",
                  [list(row) for row in _C3.oplus]),
    "FiniteSemimodule": (lambda t: FiniteSemimodule(_B, 2, _B.add, 0, t),
                         "action", [[0, 0], [0, 1]]),
    "SemiringMatrix": (lambda t: SemiringMatrix(_B, 2, 2, t), "entries",
                       [[0, 1], [1, 0]]),
    "SemimoduleHom": (lambda t: SemimoduleHom(_B_SELF, _B_SELF, t),
                      "mapping", [0, 1]),
    "SemiringHom": (lambda t: SemiringHom(_B, _B, t), "mapping", [0, 1]),
    "MvHom": (lambda t: MvHom(_C3, _C3, t), "mapping", [0, 1, 2]),
}


def _with_first(value, entry):
    """value with its first entry replaced."""
    if isinstance(value[0], list):
        return [[entry] + value[0][1:]] + value[1:]
    return [entry] + value[1:]


def _short(value):
    """value with the last entry of its first row dropped."""
    if isinstance(value[0], list):
        return [value[0][:-1]] + value[1:]
    return value[:-1]


_BAD_INPUTS = {
    "bool": lambda v: _with_first(v, True),
    "float": lambda v: _with_first(v, 1.0),
    "str": lambda v: _with_first(v, "1"),
    "none": lambda v: _with_first(v, None),
    "out-of-range": lambda v: _with_first(v, 7),
    "short-row": _short,
    "float-array": lambda v: np.array(v, dtype=float),
    "bool-array": lambda v: np.array(v, dtype=bool),
    "wrong-shape-array": lambda v: np.array(v)[..., :-1],
    "out-of-range-array": lambda v: np.array(_with_first(v, 7)),
}


@pytest.mark.parametrize("bad", _BAD_INPUTS)
@pytest.mark.parametrize("name", _CONSTRUCTORS)
def test_constructors_refuse_bad_entries(name, bad):
    build, _, good = _CONSTRUCTORS[name]
    with pytest.raises(MalformedTable):
        build(_BAD_INPUTS[bad](good))


@pytest.mark.parametrize("name", _CONSTRUCTORS)
def test_constructors_store_the_same_tuples_from_arrays(name):
    """An integer array of any width gives the tuples its nested list
    gives, of Python ints."""
    build, field, good = _CONSTRUCTORS[name]
    want = getattr(build(good), field)
    for dtype in (np.int64, np.int8, np.uint16):
        got = getattr(build(np.array(good, dtype=dtype)), field)
        assert got == want
        rows = got if isinstance(got[0], tuple) else (got,)
        assert all(type(x) is int for row in rows for x in row)


def test_array_tables_share_one_int_per_index():
    """A table built from an array holds one int object per index, so a
    large carrier does not pay one object per entry."""
    n = 300
    add = np.maximum.outer(np.arange(n), np.arange(n))
    m = FiniteSemimodule(_B, n, add, 0, np.stack([np.zeros(n, int),
                                                  np.arange(n)]))
    assert m.add[n - 1][0] is m.add[0][n - 1] is m.add[n - 1][n - 2]
    assert m.add == tuple(tuple(max(x, y) for y in range(n))
                          for x in range(n))


@pytest.mark.parametrize("zero", [True, 2, -1, 1.0, [0], np.array([0]),
                                  np.array(0.0)],
                         ids=["bool", "out-of-range", "negative", "float",
                              "list", "array", "float-array"])
def test_index_fields_refuse_bad_indices(zero):
    with pytest.raises(MalformedTable):
        FiniteSemiring(2, _B.add, _B.mul, zero, 1)


def _perturbed(rng, table, bound):
    """table as lists, with one to three cells set to random values below
    bound, or unchanged half the time."""
    rows = [list(row) for row in table]
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            row = rows[rng.randrange(len(rows))]
            row[rng.randrange(len(row))] = rng.randrange(bound)
    return rows


@pytest.mark.parametrize("budget", [None, 5])
def test_law_reports_match_the_loops(monkeypatch, budget):
    """check_semiring_axioms, check_semimodule and check_mv_axioms report
    what the per-row loops and inline block scans they replace report, on
    1,600 seeded tables of each kind, over 1,000 of them lawless; a budget
    of 5 elements puts every block scan across block edges."""
    if budget is not None:
        monkeypatch.setattr(semiring, "_CHUNK_ELEMENTS", budget)
    rng = random.Random(23)
    algebras, rings = corpus.law_algebras()
    modules = [module_over_self(s) for s in rings]
    modules += [free_semimodule(rings[i], ["p", "q"]) for i in (0, 2)]
    broken = Counter()
    for _ in range(1600):
        s = rng.choice(rings)
        s = FiniteSemiring(s.size, _perturbed(rng, s.add, s.size),
                           _perturbed(rng, s.mul, s.size), s.zero, s.one)
        report = check_semiring_axioms(s).to_dict()
        assert report == semiring_report_by_loops(s)

        m = rng.choice(modules)
        m = FiniteSemimodule(m.scalars, m.size,
                             _perturbed(rng, m.add, m.size), m.zero,
                             _perturbed(rng, m.action, m.size))
        module_report = check_semimodule(m.scalars, m).to_dict()
        assert module_report == module_report_by_loops(m.scalars, m)

        a = rng.choice(algebras)
        a = MvAlgebra(a.size, _perturbed(rng, a.oplus, a.size),
                      _perturbed(rng, [a.star], a.size)[0], a.zero)
        mv_report = check_mv_axioms(a).to_dict()
        assert mv_report == mv_report_by_loops(a)
        for kind, r in (("semiring", report), ("module", module_report),
                        ("mv", mv_report)):
            broken.update((kind, law["name"]) for law in r["laws"]
                          if not law["ok"])
            broken[kind] += not r["valid"]
    changed = [("semiring", "add-associative"),
               ("semiring", "mul-associative"),
               ("semiring", "distributive-left"),
               ("semiring", "distributive-right"),
               ("semiring", "zero-absorbing"),
               ("module", "add-associative"),
               ("module", "action-associative"),
               ("module", "action-additive"), ("module", "action-zero"),
               ("mv", "oplus-associative"), ("mv", "exchange")]
    assert min(broken[law] for law in changed) >= 100, broken
    assert min(broken[kind] for kind in ("semiring", "module", "mv")) \
        >= 1000, broken


def test_blocks_cover_the_range_in_order(monkeypatch):
    """Each block holds at most budget // per_item items and at least one,
    and the blocks are range(count) in order."""
    for budget, count, per_item in itertools.product(
            (1, 5, 40, 1 << 18), (0, 1, 7, 100), (0, 1, 3, 64)):
        monkeypatch.setattr(semiring, "_CHUNK_ELEMENTS", budget)
        blocks = list(semiring._blocks(count, per_item))
        assert [i for b in blocks for i in range(count)[b]] == \
            list(range(count))
        assert all(1 <= b.stop - b.start <= max(1, budget // max(1, per_item))
                   for b in blocks)


# 0 + 0 = 1, so zero is no additive identity
_LAWLESS = FiniteSemiring(3, ((1, 0, 2), (0, 0, 1), (2, 1, 2)),
                          ((0, 0, 0), (0, 1, 2), (0, 2, 1)), 0, 1)


def _every_sweep():
    """What each sweep that semiring._blocks cuts returns on small inputs,
    seeded: idempotent matrices, eta, free module tables, row spaces,
    module enumeration, the free universal property, module hom messages
    and the reports of lawless module tables."""
    rng = random.Random(32)
    b, three = boolean_semiring(), corpus.chain(3)
    out = {"idempotents": [idempotent_matrices(s, n)
                           for s, top in ((b, 3), (three, 2), (_LAWLESS, 2))
                           for n in range(top + 1)]}
    certified = eta(three, 2)
    out["eta"] = (certified.hom.mapping, certified.counts,
                  certified.bijective)
    frees = [free_semimodule(s, points) for s in (b, three, _LAWLESS)
             for points in ("x", "xy", "xyz")]
    out["free modules"] = [(f.add, f.action, f.zero) for f in frees]
    out["row spaces"] = [row_space(SemiringMatrix(s, rows, cols, [
        [rng.randrange(s.size) for _ in range(cols)] for _ in range(rows)]))
        for s in (b, three, _LAWLESS) for rows in (1, 2, 4)
        for cols in (1, 2, 3)]
    chains = [r(lukasiewicz_chain(3))
              for r in (reduct_vee_odot, reduct_wedge_oplus)]
    modules = {s: enumerate_modules(s, 4) for s in chains}
    out["modules"] = list(modules.values())
    drawn = [module_over_self(three), *modules[three][-6:]]
    for _ in range(100):
        m = rng.choice(frees + drawn[:7])
        drawn.append(FiniteSemimodule(m.scalars, m.size,
                                      _perturbed(rng, m.add, m.size), m.zero,
                                      _perturbed(rng, m.action, m.size)))
    out["module reports"] = [check_semimodule(m.scalars, m).to_dict()
                             for m in drawn]
    out["free universal"] = [
        free_universal_property(f, m) for f in frees[3:5] for m in drawn
        if same_scalars(m.scalars, three) and m.size <= 4]
    out["hom messages"] = []
    for _ in range(300):
        m = rng.choice(drawn)
        n = rng.choice([x for x in drawn
                        if same_scalars(x.scalars, m.scalars)
                        and x.size <= 9])
        img = [rng.randrange(n.size) for _ in range(m.size)]
        if rng.random() < 0.8:
            img[m.zero] = n.zero
        out["hom messages"].append(SemimoduleHom(m, n, img)._broken)
    return out


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_one_budget_splits_every_sweep(monkeypatch, budget):
    """A budget patched on semiring._CHUNK_ELEMENTS alone, down to one
    item a block, gives every sweep's answer at the default budget."""
    expected = _every_sweep()
    monkeypatch.setattr(semiring, "_CHUNK_ELEMENTS", budget)
    assert _every_sweep() == expected


def _mv_homs():
    """MV homs (source, target, mapping): each identity, the Boolean
    chain into each chain, the 3-chain into the 5-chain and the
    projections of c2 x c2 and c2 x c3 onto their factors."""
    algebras, _ = corpus.law_algebras()
    c = dict(zip(range(2, 6), algebras))
    c22, c23 = algebras[4:]
    homs = [(a, a, tuple(range(a.size))) for a in (*c.values(), c22, c23)]
    homs += [(c[2], c[k], (0, k - 1)) for k in range(3, 6)]
    homs += [(c[3], c[5], (0, 2, 4)), (c22, c[2], (0, 0, 1, 1)),
             (c22, c[2], (0, 1, 0, 1)), (c23, c[2], (0, 0, 0, 1, 1, 1)),
             (c23, c[3], (0, 1, 2, 0, 1, 2))]
    return homs


def _broken_message(h):
    """The message validate raises on h, or None when it returns h."""
    try:
        assert h.validate() is h
    except NotAHom as e:
        return str(e)
    return None


@pytest.mark.parametrize("budget", [None, 5])
def test_hom_checks_match_the_loops(monkeypatch, budget):
    """SemiringHom.validate and MvHom.validate raise the message of the
    (a, b) loops they replace, or pass where they pass, on 3,000 seeded
    maps of each kind: an MV hom, or a reduct of one, or the involution
    between the two reducts, with its source, its target and its map each
    perturbed half the time, so that most tables are lawless. An
    endomorphism's target is, half the time, the perturbed source itself
    and else a table of its own. A budget of 5 elements scans one source
    row a block."""
    if budget is not None:
        monkeypatch.setattr(semiring, "_CHUNK_ELEMENTS", budget)
    rng = random.Random(30)
    homs = _mv_homs()
    rings = [(r(a), r(b), m) if a is not b else (r(a),) * 2 + (m,)
             for a, b, m in homs
             for r in (reduct_vee_odot, reduct_wedge_oplus)]
    rings += [(reduct_vee_odot(a), reduct_wedge_oplus(a), a.star)
              for a, b, _ in homs if a is b]
    seen = Counter()
    for _ in range(3000):
        s0, t, m = rng.choice(rings)
        s = FiniteSemiring(s0.size, _perturbed(rng, s0.add, s0.size),
                           _perturbed(rng, s0.mul, s0.size), s0.zero, s0.one)
        if s0 is t and rng.random() < 0.5:
            t = s
        else:
            t = FiniteSemiring(t.size, _perturbed(rng, t.add, t.size),
                               _perturbed(rng, t.mul, t.size), t.zero, t.one)
        seen["semiring", "same target"] += t is s
        h = SemiringHom(s, t, _perturbed(rng, [m], t.size)[0])
        message = _broken_message(h)
        assert message == semiring_hom_broken_by_loop(h)
        seen["semiring", message and message.split(" ")[0]] += 1

        a0, b, m = rng.choice(homs)
        a = MvAlgebra(a0.size, _perturbed(rng, a0.oplus, a0.size),
                      _perturbed(rng, [a0.star], a0.size)[0], a0.zero)
        if a0 is b and rng.random() < 0.5:
            b = a
        else:
            b = MvAlgebra(b.size, _perturbed(rng, b.oplus, b.size),
                          _perturbed(rng, [b.star], b.size)[0], b.zero)
        seen["mv", "same target"] += b is a
        h = MvHom(a, b, _perturbed(rng, [m], b.size)[0])
        message = _broken_message(h)
        assert message == mv_hom_broken_by_loop(h)
        seen["mv", message and message.split(" ")[0]] += 1
    kinds = [("semiring", k) for k in ("zero", "one", "addition",
                                       "multiplication", None, "same target")]
    kinds += [("mv", k) for k in ("zero", "involution", "sum", None,
                                  "same target")]
    assert min(seen[k] for k in kinds) >= 100, seen


# ----- one size policy: Python below the bound, numpy past it -------------------

# The size constant at 0 sends every law and hom scan, and every array
# check, to numpy; past every table, to Python.
_SIDES = {"numpy": 0, "python": 1 << 40}

# The three lawless tables of CI's "verify reports of lawless tables".
_CI_CHAIN3 = FiniteSemiring(3, [[max(a, b) for b in range(3)]
                                for a in range(3)],
                            [[max(0, a + b - 2) for b in range(3)]
                             for a in range(3)], 0, 2)
_CI_LAWLESS = (
    FiniteSemiring(4, [[max(a, b) for b in range(4)] for a in range(4)],
                   [[0, 0, 0, 1], [0, 0, 2, 1], [0, 0, 1, 2], [0, 1, 2, 3]],
                   0, 3),
    FiniteSemimodule(_CI_CHAIN3, 3, _CI_CHAIN3.add, 0,
                     [[0, 0, 1], [0, 2, 1], [0, 1, 2]]),
    MvAlgebra(4, [[0, 1, 2, 3], [1, 2, 3, 3], [2, 3, 3, 2], [3, 3, 2, 0]],
              [3, 2, 1, 0], 0))


def _policy_family():
    """Seeded semirings, modules, MV-algebras and maps of each hom class,
    lawful and lawless: the chains of two to five elements and c2 x c2 and
    c2 x c3 with their reducts, modules over themselves, free modules on
    two and three points, the modules over B up to three elements, the
    lawless 3-element table, CI's three lawless tables, and 200 perturbed
    copies of each kind, with perturbed maps between them."""
    rng = random.Random(33)
    algebras, rings = corpus.law_algebras()
    modules = [module_over_self(s) for s in rings + [_LAWLESS]]
    modules += [free_semimodule(rings[i], points) for i in (0, 2)
                for points in ("pq", "pqr")]
    modules += list(enumerate_modules(rings[0], 3))
    rings += [_LAWLESS, _CI_LAWLESS[0]]
    modules.append(_CI_LAWLESS[1])
    algebras.append(_CI_LAWLESS[2])
    for _ in range(200):
        s = rng.choice(rings)
        rings.append(FiniteSemiring(s.size, _perturbed(rng, s.add, s.size),
                                    _perturbed(rng, s.mul, s.size), s.zero,
                                    s.one))
        m = rng.choice(modules)
        modules.append(FiniteSemimodule(
            m.scalars, m.size, _perturbed(rng, m.add, m.size), m.zero,
            _perturbed(rng, m.action, m.size)))
        a = rng.choice(algebras)
        algebras.append(MvAlgebra(a.size, _perturbed(rng, a.oplus, a.size),
                                  _perturbed(rng, [a.star], a.size)[0],
                                  a.zero))
    homs = []
    for _ in range(600):
        s, t = rng.choice(rings), rng.choice(rings)
        if rng.random() < 0.5:
            t = s
        img = [rng.randrange(t.size) if rng.random() < 0.2 else x % t.size
               for x in range(s.size)]
        if rng.random() < 0.8:
            img[s.zero], img[s.one] = t.zero, t.one
        homs.append(SemiringHom(s, t, img))
        a, b = rng.choice(algebras), rng.choice(algebras)
        if rng.random() < 0.5:
            b = a
        homs.append(MvHom(a, b, [rng.randrange(b.size) if
                                 rng.random() < 0.2 else x % b.size
                                 for x in range(a.size)]))
        m = rng.choice(modules)
        n = m if rng.random() < 0.5 else rng.choice(
            [x for x in modules if same_scalars(x.scalars, m.scalars)])
        img = [rng.randrange(n.size) if rng.random() < 0.2 else x % n.size
               for x in range(m.size)]
        if rng.random() < 0.8:
            img[m.zero] = n.zero
        homs.append(SemimoduleHom(m, n, img))
    return rings, modules, algebras, homs


def _first_broken_by_loops(s, m):
    report = module_report_by_loops(s, m)
    return next((law["name"] for law in report["laws"] if not law["ok"]),
                None)


_HOM_LOOPS = {SemiringHom: semiring_hom_broken_by_loop,
              MvHom: mv_hom_broken_by_loop,
              SemimoduleHom: module_hom_broken_by_loop}


@pytest.mark.parametrize("side", _SIDES)
def test_both_sides_of_the_size_policy_agree(monkeypatch, side):
    """With the size constant at 0 and past every table, the reports of
    check_semiring_axioms, check_semimodule and check_mv_axioms, the law
    _first_broken_law names and the message of each hom class's _broken
    are the loops', on every table of _policy_family, most of them
    lawless; so both sides give the same bytes."""
    monkeypatch.setattr(semiring, "_SMALL_ENTRIES", _SIDES[side])
    rings, modules, algebras, homs = _policy_family()
    broken = Counter()
    for s in rings:
        report = check_semiring_axioms(s).to_dict()
        assert report == semiring_report_by_loops(s)
        broken["semiring"] += not report["valid"]
    for m in modules:
        report = check_semimodule(m.scalars, m).to_dict()
        assert report == module_report_by_loops(m.scalars, m)
        assert _first_broken_law(m.scalars, m) == \
            _first_broken_by_loops(m.scalars, m)
        broken["module"] += not report["valid"]
    for a in algebras:
        report = check_mv_axioms(a).to_dict()
        assert report == mv_report_by_loops(a)
        broken["mv"] += not report["valid"]
    for h in homs:
        message = h._broken
        assert message == _HOM_LOOPS[type(h)](h)
        broken[type(h).__name__, message and message.split(" ")[0]] += 1
    assert min(broken[k] for k in ("semiring", "module", "mv")) >= 100, \
        broken
    kinds = [("SemiringHom", k) for k in ("zero", "one", "addition",
                                          "multiplication", None)]
    kinds += [("MvHom", k) for k in ("zero", "involution", "sum", None)]
    kinds += [("SemimoduleHom", k) for k in ("zero", "addition", "action",
                                             None)]
    assert min(broken[k] for k in kinds) >= 10, broken


def test_the_size_policy_splits_the_scans_by_entries(monkeypatch):
    """A scan runs in Python up to the bound and in numpy past it: the
    associativity of the 5-chain's sum reads 125 entries and takes the
    Python side at a bound of 125 and numpy at 124."""
    t = corpus.chain(5).add
    calls = Counter()
    real = semiring._first_in_blocks

    def counted(*args):
        calls["numpy"] += 1
        return real(*args)

    monkeypatch.setattr(semiring, "_first_in_blocks", counted)
    for bound, side in ((125, 0), (124, 1)):
        monkeypatch.setattr(semiring, "_SMALL_ENTRIES", bound)
        calls.clear()
        assert semiring._first_assoc_failure(t, t) is None
        assert calls["numpy"] == side


_ARRAYS = {
    "table": (lambda a: FiniteSemimodule(_B, 3, a, 0,
                                         ((0, 0, 0), (0, 1, 2))),
              np.maximum.outer(np.arange(3), np.arange(3))),
    "map": (lambda a: SemiringHom(_B, _B, a), np.arange(2)),
    "index": (lambda a: FiniteSemiring(2, _B.add, _B.mul, a, 1),
              np.array(0)),
}


def _ints(value):
    """Every entry of a stored field, flattened."""
    if isinstance(value, tuple):
        return [x for v in value for x in _ints(v)]
    return [value]


def _array_outcome(build, values):
    """The stored field, and whether its entries are all Python ints; or
    the message of the MalformedTable raised."""
    try:
        obj = build(values)
    except MalformedTable as e:
        return "MalformedTable", str(e)
    field = obj.add if isinstance(obj, FiniteSemimodule) else \
        obj.mapping if isinstance(obj, SemiringHom) else obj.zero
    return field, all(type(x) is int for x in _ints(field))


def test_array_checks_agree_on_both_sides(monkeypatch):
    """An integer array is read by _array_grid the same on both sides of
    the size constant: the same tuples of Python ints, and on a bad array
    the same MalformedTable naming the first bad entry in row-major
    order, for every dtype of each field and a bad entry in each place."""
    outcomes = {}
    for side, entries in _SIDES.items():
        monkeypatch.setattr(semiring, "_SMALL_ENTRIES", entries)
        got = []
        for name, (build, good) in _ARRAYS.items():
            for dtype in (np.int8, np.int64, np.uint16, np.uint64, float,
                          bool):
                got.append(_array_outcome(build, good.astype(dtype)))
            got.append(_array_outcome(build, good[..., :-1]
                                      if good.ndim else good[None]))
            for flat in range(good.size):
                for bad in (-1, 7, 300):
                    values = good.copy()
                    values.flat[flat] = bad
                    values.flat[-1 - flat] = 9
                    got.append(_array_outcome(build, values))
        outcomes[side] = got
    assert outcomes["numpy"] == outcomes["python"]
    assert sum(o[0] == "MalformedTable" for o in outcomes["python"]) >= 40
    assert sum(o[1] is True for o in outcomes["python"]) >= 12


def test_closed_set_sweep_reaches_every_closed_set_in_order():
    """With nothing implied every subset is closed, found in breadth first
    order from the empty set, and a step is a union; with element 0 in
    start the closed sets are those that hold it."""
    closed, step = semiring._closed_sets(3, 0, lambda i, mask: 0)
    assert closed == [0, 1, 2, 4, 3, 5, 6, 7]
    assert all(closed[step[k][i]] == c | 1 << i
               for k, c in enumerate(closed) for i in range(3))
    closed, step = semiring._closed_sets(3, 1, lambda i, mask: 0)
    assert closed == [1, 3, 5, 7]
    assert step[0] == [0, 1, 2]


def _random_rules(rng, width, empty_premises):
    rules = []
    for _ in range(rng.randint(0, 2 * width + 2)):
        sizes = range(0 if empty_premises else 1, 4)
        premise = sum({1 << rng.randrange(width)
                       for _ in range(rng.choice(sizes))}) if width else 0
        conclusion = sum({1 << rng.randrange(width)
                          for _ in range(rng.randint(1, 2))}) if width else 0
        rules.append((premise, conclusion))
    return rules


def test_the_sweep_matches_closing_every_join_from_scratch():
    """Random implications on widths 0 to 10, with premises of 0 to 3
    bits: growing each join from the member it adds finds the closed sets,
    in order, and the step table that closing every join from scratch
    finds, and so does the tensor congruence on the pairs (u, u | v)."""
    rng = random.Random(29)
    for trial in range(400):
        width, empty_premises = trial % 11, trial % 2 == 0
        rules = _random_rules(rng, width, empty_premises)
        by_bit = [[(u, v) for u, v in rules if u >> i & 1]
                  for i in range(width)]
        start = functools.reduce(operator.or_,
                                 (v for u, v in rules if not u), 0)

        def implied(i, mask):
            forced = 0
            for u, v in by_bit[i]:
                if mask & u == u:
                    forced |= v
            return forced

        oracle = closed_sets_from_scratch(width, implication_closure(rules))
        assert semiring._closed_sets(width, start, implied) == oracle
        congruence = congruence_closure(
            width, [(u, u | v) for u, v in rules], max_carrier=1 << 14)
        assert step_in_congruence_order(congruence, oracle[1]) \
            == congruence.step


def test_the_sweep_closes_no_join_that_adds_nothing():
    """implied is called only for the members a join adds, each once,
    with the members read before it."""
    calls = []

    def implied(i, mask):
        calls.append((i, mask))
        return 0

    semiring._closed_sets(2, 1, implied)
    # member 0 of start, then member 1 of {0} joined with {1}; {0} and
    # {0, 1} joined with a member they hold read nothing
    assert calls == [(0, 1), (1, 3)]
