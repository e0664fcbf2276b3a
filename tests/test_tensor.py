import functools
import hashlib
import itertools
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

import mvsr.semimodule
import mvsr.semiring
import mvsr.tensor
from mvsr.config import MAX_CARRIER
from mvsr.errors import (EnumGuard, IllDefinedAction, MalformedTable, NotAHom,
                         NotIdempotent, NotOnto, ScalarMismatch, SizeGuard)
from mvsr.grothendieck import (AbelianGroupSNF, completion_from_triples,
                               enumerate_projective_classes, k0_report,
                               k0_stability, zero_pad)
from mvsr.jsonio import canonical_dumps, load_algebra, semiring_to_dict
from mvsr.matrix import (SemiringMatrix, eta, idempotent_matrices,
                         matrix_law_report, matrix_semiring)
from mvsr.mv import (equation_holds, gamma_chain, gamma_property_report,
                     lukasiewicz_chain, quotient, reduct_vee_odot,
                     reduct_wedge_oplus)
from mvsr.projective import (are_isomorphic, is_projective_matrix_criterion,
                             is_projective_retract_oracle)
from mvsr.semimodule import (FiniteSemimodule,
                             check_semimodule, end_semiring,
                             free_semimodule, hom_set,
                             module_over_self, restrict_scalars,
                             trivial_module)
from mvsr.semiring import (FiniteSemiring, SemiringHom, _members,
                           boolean_semiring, fold)
from mvsr.tensor import (SemilatticeCongruence, TensorProduct,
                         _commutative_monoid_tables,
                         _monoid_homs, adjunction_witness,
                         as_module,
                         bimorphisms, check_universal_property,
                         commutative_monoids_upto, congruence_closure,
                         enumerate_modules, full_embedding_check,
                         hom_lattice_structure, hom_point_iso,
                         join_irreducibles, scalar_structures,
                         tensor_product, tensor_report, truncation_demo,
                         zeta_isomorphism)
from mvsr.tropical import TropicalUSemifield, tropical_law_report

import corpus
from capped import run_capped
from closed_scans import (closed_sets_from_scratch, implication_closure,
                          step_in_congruence_order)
from folds import _hom_mask, hom_rows_by_product
from quotient_folds import (extend_by_folds, fold_pairs,
                           generators_with_every_slide, join_table_by_folds,
                           scalar_structures_by_generators)


@pytest.fixture
def self_mod(boolean):
    return module_over_self(boolean)


@pytest.fixture
def free2(boolean):
    return free_semimodule(boolean, ["x", "y"])


# ----- congruence machinery -------------------------------------------------

def _classes(cong):
    """The class of every subset, mask by mask."""
    return tuple(cong.class_of(mask) for mask in range(1 << cong.width))


def _union_compatibility_witness(cong):
    """First (a, b, c) with a ~ b but a|c !~ b|c, b the representative of
    a's class, or None: the partition fails to be a congruence exactly when
    there is one."""
    classes = _classes(cong)
    for c in range(len(classes)):
        for a in range(len(classes)):
            b = cong.representatives[classes[a]]
            if classes[a | c] != classes[b | c]:
                return (a, b, c)
    return None


def test_closure_of_nothing_is_identity():
    cong = congruence_closure(2, [])
    assert len(cong) == 4
    assert _classes(cong) == (0, 1, 2, 3)
    assert _agrees_with_union_find(cong)


def test_closure_merges_the_join_too():
    # a ~ b forces a|b ~ b, so the two singletons and their union collapse
    cong = congruence_closure(2, [(1, 2)])
    assert len(cong) == 2
    assert cong.class_of(1) == cong.class_of(2) == cong.class_of(3)
    assert cong.class_of(0) != cong.class_of(1)
    assert _agrees_with_union_find(cong)


@pytest.mark.parametrize("mask", [-1, 4, 1 << 70])
def test_class_of_refuses_a_mask_outside_the_subsets(mask):
    # -1 was once the class of {0}, and 4 a bare IndexError
    with pytest.raises(MalformedTable, match=f"^subset mask {mask} is not a "
                       r"subset of range\(2\)$"):
        congruence_closure(2, [(1, 2)]).class_of(mask)


def test_joined_refuses_a_mask_outside_the_subsets():
    """joined(c, -1) once never returned, its member list growing until
    memory ran out, and a bit past width raised IndexError: in a child
    process under a 1 GB address-space cap and a 20 s timeout, both are
    refused with class_of's MalformedTable."""
    lines, _ = run_capped(
        "from mvsr.errors import MalformedTable\n"
        "from mvsr.tensor import congruence_closure\n"
        "cong = congruence_closure(2, [(1, 2)])\n"
        "for mask in (-1, 4):\n"
        "    try:\n"
        "        cong.joined(1, mask)\n"
        "    except MalformedTable as e:\n"
        "        print(e)\n",
        1 << 30, timeout=20)
    assert lines == [f"subset mask {mask} is not a subset of range(2)"
                     for mask in (-1, 4)]


def test_closure_bottom_equals_top_collapses_everything():
    cong = congruence_closure(2, [(0, 3)])
    assert len(cong) == 1


def test_closure_guard():
    """The sweep checks the closures taken on, classes found times width,
    before each class's step row: on 8 bits with no pair every subset is
    a class, and the row of the second class finds 16 of them, 128
    closures, past a bound of 100."""
    with pytest.raises(SizeGuard, match=r"^closures run for the tensor "
                       r"congruence: 128 exceeds max_carrier=100$"):
        congruence_closure(8, [], max_carrier=100)


@pytest.mark.parametrize("width", [-1, 2.0, "3", True, None])
def test_closure_refuses_a_width_that_is_not_a_count(width):
    # -1 once raised a bare ValueError, 2.0 and "3" a TypeError, and True
    # was taken as 1
    message = "width=-1 must be at least 0" if width == -1 else \
        f"width={width!r} must be an integer"
    with pytest.raises(MalformedTable, match=f"^{re.escape(message)}$"):
        congruence_closure(width, _unread_pairs())


def _unread_pairs():
    raise AssertionError("a pair was read before the width was checked")
    yield


@pytest.mark.parametrize("pairs,message", [
    ([(4, 1)], "subset pairs table entry 4 out of range 0..3"),
    ([(0, 3), (1, -1)], "subset pairs table entry -1 out of range 0..3"),
    ([(1, 2.0)], "subset pairs entry 2.0 is not an integer"),
    ([(1,)], "subset pairs table must be 1x2"),
])
def test_closure_refuses_a_pair_outside_the_subsets(pairs, message):
    # the subset {2}, mask 4, is no subset of range(2); it was once kept
    # as a generator of the identity partition
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        congruence_closure(2, pairs)


def test_incompatible_partition_yields_a_witness():
    # {a} and {b} share class 1, but joining {a} keeps {a} there and takes
    # {b} to {a, b}, alone in class 2: not a congruence
    cong = SemilatticeCongruence(2, ((1, 1), (1, 2), (2, 2)), (0, 1, 3),
                                 ((1, 2),))
    w = _union_compatibility_witness(cong)
    assert w is not None
    a, b, c = w
    assert cong.class_of(a) == cong.class_of(b)
    assert cong.class_of(a | c) != cong.class_of(b | c)
    assert _union_compatibility_witness(congruence_closure(2, [(1, 2)])) \
        is None


def _subset_key(mask):
    bits = _members(mask)
    return (len(bits), bits)


def _congruence_by_union_find(width, pairs):
    """(classes, representatives, generators) of the least congruence on
    the subsets of range(width), by union-find over the whole powerset:
    each fresh merge (a, b) enqueues (a|s, b|s) for every singleton s.
    Classes are numbered by their representatives' masks, each the least
    member under cardinality then member order."""
    parent = list(range(1 << width))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    singles = [1 << i for i in range(width)]
    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        for s in singles:
            work.append((a | s, b | s))

    roots = {}
    for mask in range(1 << width):
        roots.setdefault(find(mask), []).append(mask)
    blocks = sorted((min(block, key=_subset_key), block)
                    for block in roots.values())
    classes = [0] * (1 << width)
    for index, (_, block) in enumerate(blocks):
        for mask in block:
            classes[mask] = index
    return (tuple(classes), tuple(rep for rep, _ in blocks), tuple(pairs))


def _agrees_with_union_find(cong):
    return (_classes(cong), cong.representatives, cong.generators) == \
        _congruence_by_union_find(cong.width, cong.generators)


def test_closure_matches_union_find_on_tensors():
    pairs = corpus.tensor_pairs()
    assert len(pairs) == 88
    for m, n in pairs:
        assert _agrees_with_union_find(tensor_product(m, n).congruence)


def test_closure_matches_union_find_on_scalar_extensions():
    checked = 0
    for h in corpus.onto_maps():
        b_over_a = restrict_scalars(h, module_over_self(h.target))
        for mb in enumerate_modules(h.target, 4):
            t = tensor_product(b_over_a, restrict_scalars(h, mb))
            assert _agrees_with_union_find(t.congruence)
            checked += 1
    assert checked == 13 + 13 + 33 + 13


def test_closure_matches_union_find_on_random_generators():
    rng = random.Random(2)
    sizes = set()
    for trial in range(400):
        width = trial % 9
        pairs = [(rng.randrange(1 << width), rng.randrange(1 << width))
                 for _ in range(rng.randrange(8))]
        cong = congruence_closure(width, pairs)
        assert _agrees_with_union_find(cong)
        sizes.add(len(cong) == 1 or len(cong) == 1 << width)
    assert sizes == {True, False}


def _subset_generators(m, n):
    """The tensor congruence's generating pairs with every subset of either
    slot joined against the union of its pairs, 2^|M| and 2^|N| per slot,
    then the scalar slides."""
    def p(x, y):
        return x * n.size + y
    pairs = []
    for y in range(n.size):
        for bits in range(1 << m.size):
            xs = [x for x in range(m.size) if bits >> x & 1]
            pairs.append((1 << p(m.sum(xs), y),
                          sum(1 << p(x, y) for x in xs)))
    for x in range(m.size):
        for bits in range(1 << n.size):
            ys = [y for y in range(n.size) if bits >> y & 1]
            pairs.append((1 << p(x, n.sum(ys)),
                          sum(1 << p(x, y) for y in ys)))
    for a in range(m.scalars.size):
        for x in range(m.size):
            for y in range(n.size):
                pairs.append((1 << p(m.act(a, x), y), 1 << p(x, n.act(a, y))))
    return pairs


def _tensor_by_subset_generators(m, n):
    return TensorProduct(m, n, congruence_closure(
        m.size * n.size, _subset_generators(m, n)))


def _same_classes(t, u):
    return (_classes(t.congruence), t.congruence.representatives) == \
        (_classes(u.congruence), u.congruence.representatives)


def test_binary_joins_generate_the_subset_congruence():
    pairs = corpus.tensor_pairs()
    assert len(pairs) == 88
    for m, n in pairs:
        t, oracle = tensor_product(m, n), _tensor_by_subset_generators(m, n)
        assert len(t.congruence.generators) < len(oracle.congruence.generators)
        assert _same_classes(t, oracle)
        assert as_module(t) == as_module(oracle)


def test_binary_joins_generate_the_subset_congruence_on_scalar_extensions():
    checked = 0
    for h in corpus.onto_maps():
        b_over_a = restrict_scalars(h, module_over_self(h.target))
        for mb in enumerate_modules(h.target, 4):
            ma = restrict_scalars(h, mb)
            t = tensor_product(b_over_a, ma)
            oracle = _tensor_by_subset_generators(b_over_a, ma)
            assert _same_classes(t, oracle)
            assert scalar_structures(t, h.target, h.target.mul) == \
                scalar_structures(oracle, h.target, h.target.mul)
            checked += 1
    assert checked == 13 + 13 + 33 + 13


def test_scalar_extensions_keep_their_recorded_tables():
    """as_module and scalar_structures on every extension of the onto maps
    against the modules of size up to four: the add, zero, action and
    labels of all 144 modules, pinned by the digest recorded for them
    while the quotient still kept a table of every subset's class."""
    digest = hashlib.sha1()
    for h in corpus.onto_maps():
        b_over_a = restrict_scalars(h, module_over_self(h.target))
        for mb in enumerate_modules(h.target, 4):
            t = tensor_product(b_over_a, restrict_scalars(h, mb))
            for module in (as_module(t),
                           scalar_structures(t, h.target, h.target.mul)):
                digest.update(repr((module.add, module.zero, module.action,
                                    module.labels)).encode())
    assert digest.hexdigest() == "5285b9ab7fed6d612bfa214ec77a9670cc275c96"


# ----- the tensor product ---------------------------------------------------

def test_scalars_tensor_scalars(boolean, self_mod):
    t = tensor_product(self_mod, self_mod)
    assert t.class_count == 2
    assert t.tensor(0, 0) == t.tensor(0, 1) == t.tensor(1, 0) == t.zero_class
    assert t.tensor(1, 1) != t.zero_class
    assert t.generated_by_tensors()
    assert _agrees_with_union_find(t.congruence)
    assert are_isomorphic(as_module(t), self_mod) is not None


def test_tensor_with_trivial_is_trivial(boolean, free2):
    t = tensor_product(free2, trivial_module(boolean))
    assert t.class_count == 1


def test_scalars_are_a_tensor_unit(boolean, self_mod):
    for m in enumerate_modules(boolean, 3):
        t = tensor_product(self_mod, m)
        assert are_isomorphic(as_module(t), m) is not None


def test_tensor_needs_common_scalars(self_mod):
    three = corpus.chain(3)
    with pytest.raises(ScalarMismatch):
        tensor_product(self_mod, module_over_self(three))


def test_tensor_needs_idempotent_addition():
    m = module_over_self(corpus.two_element_field())
    with pytest.raises(NotIdempotent):
        tensor_product(m, m)


def test_tensor_carrier_guard(self_mod, free2):
    with pytest.raises(SizeGuard):
        tensor_product(free2, free2, max_carrier=8)


# ----- wide tensors at the default bounds -------------------------------------

@pytest.mark.parametrize("p,q", [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)
                                 if p * q <= 6])
def test_a_tensor_of_free_modules_is_free(boolean, p, q):
    """B^p tensor B^q is free on the p * q pairs of basis elements, so it
    has 2^(pq) classes, on up to 32 pairs, past the width of 12 the
    subset count once allowed."""
    t = tensor_product(free_semimodule(boolean, [f"x{i}" for i in range(p)]),
                       free_semimodule(boolean, [f"y{j}" for j in range(q)]))
    assert t.class_count == 2 ** (p * q)
    assert t.generated_by_tensors()


def test_closure_matches_union_find_on_wide_tensors(boolean):
    """Seeded pairs of B modules of width 15 and 16, admitted at the
    default bounds, against the union-find over all their subsets."""
    modules = enumerate_modules(boolean, 5)
    rng = random.Random(28)
    for width in (15, 16):
        for m, n in rng.sample([(m, n) for m in modules for n in modules
                                if m.size * n.size == width], 2):
            assert _agrees_with_union_find(tensor_product(m, n).congruence)


@pytest.mark.parametrize("p,q", [(3, 2), (2, 3)])
def test_wide_step_tables_match_closing_every_join_from_scratch(boolean, p,
                                                                q):
    """B^3 tensor B^2 and B^2 tensor B^3, on 32 pairs: the step table grown
    from each join's new pair is the one that closing every join from
    scratch under the same implications gives."""
    t = tensor_product(free_semimodule(boolean, [f"x{i}" for i in range(p)]),
                       free_semimodule(boolean, [f"y{j}" for j in range(q)]))
    cong = t.congruence
    rules = [(u, v) for a, b in cong.generators for u, v in ((a, b), (b, a))]
    closed, step = closed_sets_from_scratch(cong.width,
                                            implication_closure(rules))
    assert len(closed) == len(cong) == 64
    assert step_in_congruence_order(cong, step) == cong.step


def test_universal_property_of_the_free_square_squared(free2):
    t = tensor_product(free2, free2)
    assert t.class_count == 16
    assert check_universal_property(t)["ok"]


def test_the_pairs_guard_fires_before_any_pair_is_built(self_mod,
                                                        monkeypatch):
    """A 100-element chain with B acting on itself would build
    2 * (1 + C(100, 2)) + 100 * (1 + C(2, 2)) join and bottom pairs;
    the count is refused from the sizes, and nothing is closed."""
    def closed(*args, **kwargs):
        raise AssertionError("the congruence was closed")

    chain = FiniteSemimodule(self_mod.scalars, 100,
                             [[max(x, y) for y in range(100)]
                              for x in range(100)], 0,
                             [[0] * 100, list(range(100))])
    monkeypatch.setattr(mvsr.tensor, "congruence_closure", closed)
    with pytest.raises(SizeGuard, match=r"^generating pairs of the tensor "
                       r"congruence: 10102 exceeds max_carrier=4096$"):
        tensor_product(chain, self_mod)


def test_induced_scalar_actions_satisfy_the_laws(boolean, free2, self_mod):
    t = tensor_product(free2, self_mod)
    module = scalar_structures(t, boolean, free2.action)
    assert check_semimodule(boolean, module).valid
    assert module.size == t.class_count
    assert module.add == t.join_table


def _induced_action_by_sweep(t, scalars, action, slot):
    """The induced action found by moving every subset of the free
    semilattice in the given slot; IllDefinedAction when two members of
    one class move to distinct classes."""
    cong = t.congruence
    rows = []
    for b in range(scalars.size):
        row = [None] * t.class_count
        moved = action[b]
        for mask in range(1 << cong.width):
            img = 0
            for i in _members(mask):
                x, y = divmod(i, t.right.size)
                if slot == "left":
                    img |= 1 << t.pair_index(moved[x], y)
                else:
                    img |= 1 << t.pair_index(x, moved[y])
            c, ic = cong.class_of(mask), cong.class_of(img)
            if row[c] is None:
                row[c] = ic
            elif row[c] != ic:
                raise IllDefinedAction(f"scalar {b}, class {c}")
        rows.append(tuple(row))
    return tuple(rows)


def _rows_or_verdict(induce):
    try:
        return induce()
    except IllDefinedAction:
        return "ill-defined"


def _arbitrary_actions(m, seeds):
    """For each seed, one map of M's carrier per scalar: any map, a map
    fixing zero, and a join-preserving map fixing zero, in turn."""
    maps = list(itertools.product(range(m.size), repeat=m.size))
    zero_fixing = [f for f in maps if f[m.zero] == m.zero]
    joins = [f for f in zero_fixing
             if all(f[m.plus(x, y)] == m.plus(f[x], f[y])
                    for x in range(m.size) for y in range(m.size))]
    for seed in seeds:
        rng = random.Random(seed)
        pool = (maps, zero_fixing, joins)[seed % 3]
        yield tuple(rng.choice(pool) for _ in range(m.scalars.size))


def test_scalar_action_on_generators_matches_the_sweep(boolean):
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules if m.size * n.size <= 8]
    assert len(pairs) == 48
    three = module_over_self(corpus.chain(3))
    pairs.append((three, three))
    verdicts = set()
    for m, n in pairs:
        t = tensor_product(m, n)
        left = _induced_action_by_sweep(t, m.scalars, m.action, "left")
        assert scalar_structures(t, m.scalars, m.action).action == left
        assert _induced_action_by_sweep(t, n.scalars, n.action,
                                        "right") == left
        for action in _arbitrary_actions(m, range(6)):
            expected = _rows_or_verdict(lambda: _induced_action_by_sweep(
                t, m.scalars, action, "left"))
            got = _rows_or_verdict(
                lambda: scalar_structures(t, m.scalars, action).action)
            assert got == expected
            verdicts.add(got == "ill-defined")
    assert verdicts == {True, False}


def _scalar_structures_by_members(t, scalars, action):
    """The induced module found by moving each generating pair and each
    representative member by member, one scalar at a time."""
    cong = t.congruence
    rows = []
    for b in range(scalars.size):
        move = action[b]

        def image(mask):
            return t.class_of_pairs((move[x], y) for x, y in (
                divmod(i, t.right.size) for i in _members(mask)))

        for u, v in cong.generators:
            cu, cv = image(u), image(v)
            if cu != cv:
                raise IllDefinedAction(
                    f"scalar {b} sends the generating pair of subsets "
                    f"({u}, {v}) to distinct classes {cu} and {cv}")
        rows.append(tuple(image(rep) for rep in cong.representatives))
    return FiniteSemimodule(scalars, t.class_count, t.join_table, t.zero_class,
                            tuple(rows), mvsr.tensor._class_labels(t))


def _module_or_message(induce):
    try:
        return induce()
    except IllDefinedAction as exc:
        return str(exc)


def test_scalar_structures_match_the_member_scan(boolean):
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules if m.size * n.size <= 8]
    three = module_over_self(corpus.chain(3))
    pairs.append((three, three))
    messages = 0
    for m, n in pairs:
        t = tensor_product(m, n)
        for action in [m.action] + list(_arbitrary_actions(m, range(6))):
            got = _module_or_message(
                lambda: scalar_structures(t, m.scalars, action))
            assert got == _module_or_message(
                lambda: _scalar_structures_by_members(t, m.scalars, action))
            messages += isinstance(got, str)
    assert 0 < messages < len(pairs) * 7


def test_ill_defined_action_names_scalar_pair_and_classes(free2, self_mod):
    t = tensor_product(free2, self_mod)
    # scalar 1 moves the zero of free2, so zero tensors stop being zero
    action = (free2.action[0], (1, 1, 2, 3))
    with pytest.raises(IllDefinedAction, match=r"^scalar 1 sends the "
                       r"generating pair of subsets \(\d+, \d+\) to "
                       r"distinct classes \d+ and \d+$"):
        scalar_structures(t, free2.scalars, action)


@pytest.mark.parametrize("action,message", [
    ([[0, 0], [0, -1]], "action table entry -1 out of range 0..1"),
    ([[0, 0], [0, 5]], "action table entry 5 out of range 0..1"),
    ([[0, 0]], "action table must be 2x2"),
])
def test_scalar_structures_refuse_a_malformed_action(boolean, self_mod,
                                                     action, message):
    t = tensor_product(self_mod, self_mod)
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        scalar_structures(t, boolean, action)


def test_scalar_extensions_match_the_sweep():
    sq = corpus.square()
    toward = quotient(corpus.c2xc2(), (0, 1))
    for h in (SemiringHom(sq, boolean_semiring(), (0, 0, 1, 1)),
              SemiringHom(sq, reduct_vee_odot(toward.algebra),
                          toward.hom.mapping)):
        b = h.target
        b_over_a = restrict_scalars(h, module_over_self(b))
        modules = enumerate_modules(b, 4)
        assert len(modules) == 13
        for mb in modules:
            t = tensor_product(b_over_a, restrict_scalars(h, mb))
            assert scalar_structures(t, b, b.mul).action == \
                _induced_action_by_sweep(t, b, b.mul, "left")


# ----- the quotient's sweeps against their folds ----------------------------

def _extensions_of_the_onto_maps():
    """(h, t) for B tensor M over A along each of the five onto maps, M
    each module over B up to size 4 restricted to A."""
    for h in corpus.scalar_maps():
        b_over_a = restrict_scalars(h, module_over_self(h.target))
        for mb in enumerate_modules(h.target, 4):
            yield h, tensor_product(b_over_a, restrict_scalars(h, mb))


def _free_cube_squared(boolean):
    cube = free_semimodule(boolean, ["x", "y", "z"])
    return tensor_product(cube, cube, max_carrier=40000)


def test_join_tables_match_the_fold_per_entry(boolean):
    """The join table read off the representative walk is the one that
    folds each entry over its representative's members: on the 88 pairs
    over B, the 85 extensions along the onto maps and B^3 tensor B^3."""
    tensors = [tensor_product(m, n) for m, n in corpus.tensor_pairs()]
    assert len(tensors) == 88
    tensors += [t for _, t in _extensions_of_the_onto_maps()]
    assert len(tensors) == 88 + 85
    tensors.append(_free_cube_squared(boolean))
    assert tensors[-1].class_count == 512
    for t in tensors:
        assert t.join_table == join_table_by_folds(t)


def test_extend_matches_the_fold_per_class():
    """extend, one gather a class along the links, folds each class's
    representative pairs in the order the per-class _combine folds them,
    so it gives the same array on the 88 pairs over B: under each factor's
    own addition and under three seeded lawless tables, on values of shape
    |M| x |N| and on a stack of three."""
    rng = random.Random(38)
    lawless = [(np.array(corpus.drawn_table(rng, k, k, k)), rng.randrange(k))
               for k in (3, 4, 5)]
    assert all((add != add.T).any() for add, _ in lawless)
    pairs = corpus.tensor_pairs()
    assert len(pairs) == 88
    for m, n in pairs:
        t = tensor_product(m, n)
        for add, zero in [(m.np_add, m.zero), (n.np_add, n.zero)] + lawless:
            shape = (m.size, n.size, len(add))
            for values in (np.array(corpus.drawn_table(rng, *shape)),
                           np.array([corpus.drawn_table(rng, *shape)
                                     for _ in range(3)])):
                assert np.array_equal(t.extend(values, add, zero),
                                      extend_by_folds(t, values, add, zero))


def test_right_lift_matches_the_pair_fold():
    """The naturality spot check's lift of a map u on the right factor,
    one walk, sends each class to the fold of its representative's pairs
    with u applied in the right slot: on the 88 pairs over B, for every
    endomorphism of the right factor."""
    lifts = 0
    for m, n in corpus.tensor_pairs():
        t = tensor_product(m, n)
        for u in hom_set(n, n).rows.tolist():
            assert mvsr.tensor._right_lift(t, u) == tuple(
                fold_pairs(t, ((x, u[y]) for x, y in t.pairs_of(c)))
                for c in range(t.class_count))
            lifts += 1
    assert lifts > 88


def test_class_of_pairs_matches_the_pair_fold():
    """class_of_pairs is one fold of the step table: on truncation_demo's
    psi, each vector of the free module on one and two points over the
    (wedge, oplus) reducts of the 2- and 3-chains paired with the basis,
    and on five drawn lists of pairs, repeats included, for each of the
    88 pairs over B, it is the pair fold."""
    rng = random.Random(38)
    cases = []
    for k in (2, 3):
        s = reduct_wedge_oplus(lukasiewicz_chain(k))
        for points in ("x", "xy"):
            n = free_semimodule(s, points)
            t = tensor_product(module_over_self(s), n)
            cases += [(t, list(zip(n.vector(g), n.basis)))
                      for g in range(n.size)]
    for m, n in corpus.tensor_pairs():
        t = tensor_product(m, n)
        cases += [(t, [(rng.randrange(m.size), rng.randrange(n.size))
                       for _ in range(rng.randrange(6))]) for _ in range(5)]
    for t, pairs in cases:
        assert t.class_of_pairs(pairs) == fold_pairs(t, pairs)


def _is_subsequence_with_first_unequal_pairs(kept, full):
    """Whether kept is a subsequence of full that holds the first
    occurrence in full of every pair with unequal sides. The earliest
    embedding holds a first occurrence if any embedding does."""
    matched, start = set(), 0
    for pair in kept:
        try:
            start = full.index(pair, start)
        except ValueError:
            return False
        matched.add(start)
        start += 1
    firsts = {}
    for i, (u, v) in enumerate(full):
        if u != v:
            firsts.setdefault((u, v), i)
    return set(firsts.values()) <= matched


def test_slides_keep_the_first_of_every_unequal_pair(boolean):
    """tensor_product's generating pairs are the full list with each later
    repeat of a pair of action rows and each equal-sided slide left out:
    a subsequence holding the first occurrence of every pair with unequal
    sides, and no pair with equal sides. Along c2 x c3 -> c3 each of the
    27 four-element modules keeps 22 of its 72 slides."""
    tensors = [tensor_product(m, n) for m, n in corpus.tensor_pairs()]
    onto = list(_extensions_of_the_onto_maps())
    cut = []
    for t in tensors + [t for _, t in onto]:
        kept = list(t.congruence.generators)
        full = generators_with_every_slide(t.left, t.right)
        assert _is_subsequence_with_first_unequal_pairs(kept, full)
        assert all(u != v for u, v in kept)
    for h, t in onto:
        if h.target.size == 3 and t.right.size == 4:
            slides = len(t.congruence.generators) - (
                4 * (1 + 3) + 3 * (1 + 6))
            cut.append((h.source.size * 3 * 4, slides))
    assert cut == [(72, 22)] * 27


def _induced_action_by_mask_table(t, scalars, action):
    """_induced_action_by_sweep's left slot, each mask's class and moved
    image read off the mask less its lowest member."""
    cong, n = t.congruence, t.right.size
    size = 1 << cong.width
    classes = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        classes[mask] = cong.step[classes[mask ^ low]][low.bit_length() - 1]
    rows = []
    for b in range(scalars.size):
        bits = [1 << action[b][x] * n + y
                for x in range(t.left.size) for y in range(n)]
        image = [0] * size
        row = [None] * t.class_count
        for mask in range(size):
            if mask:
                low = mask & -mask
                image[mask] = image[mask ^ low] | bits[low.bit_length() - 1]
            c, ic = classes[mask], classes[image[mask]]
            if row[c] is None:
                row[c] = ic
            elif row[c] != ic:
                raise IllDefinedAction(f"scalar {b}, class {c}")
        rows.append(tuple(row))
    return tuple(rows)


def test_scalar_structures_on_restricted_modules_match_the_oracles():
    """On the 85 extensions along the onto maps, with B's own action and
    six arbitrary ones: the lookups give the module, or the message, that
    the generator scan gives on the congruence closed on every slide, and
    the member scan on the kept slides, and they agree with the sweep over
    every subset; both verdicts are seen."""
    verdicts = set()
    for h, t in _extensions_of_the_onto_maps():
        b = h.target
        full = TensorProduct(t.left, t.right, congruence_closure(
            t.congruence.width, generators_with_every_slide(t.left, t.right)))
        assert (full.congruence.step, full.congruence.representatives) == \
            (t.congruence.step, t.congruence.representatives)
        actions = [b.mul] + list(_arbitrary_actions(module_over_self(b),
                                                    range(6)))
        for action in actions:
            got = _module_or_message(lambda: scalar_structures(t, b, action))
            assert got == _module_or_message(
                lambda: scalar_structures_by_generators(full, b, action))
            assert got == _module_or_message(
                lambda: _scalar_structures_by_members(t, b, action))
            swept = _rows_or_verdict(
                lambda: _induced_action_by_mask_table(t, b, action))
            assert swept == ("ill-defined" if isinstance(got, str)
                             else got.action)
            verdicts.add(isinstance(got, str))
    assert verdicts == {True, False}


# ----- bimorphisms and the universal property --------------------------------

def test_join_irreducibles_of_the_free_square(free2):
    assert join_irreducibles(free2.add, free2.zero) == (1, 2)


def _join_irreducibles_by_comprehension(add, zero):
    size = len(add)
    reducible = {add[a][b] for a in range(size) for b in range(size)
                 if add[a][b] != a and add[a][b] != b}
    return tuple(x for x in range(size) if x != zero and x not in reducible)


def test_join_irreducibles_match_the_comprehension(boolean):
    """Every module over B of size at most 5 (the eleven lattices of
    criterion 6 are among them, with the 6-chain below), over the 3-chain
    reduct of size at most 4 and over c2 x c2 of size at most 3: the
    numpy reading of each table as an array gives the comprehension's
    tuple, and so does the reading of the nested tuples."""
    three = corpus.chain(3)
    square = corpus.square()
    tables = [(m.add, m.zero) for s, size in ((boolean, 5), (three, 4),
                                              (square, 3))
              for m in enumerate_modules(s, size)]
    tables.append((tuple(tuple(max(a, b) for b in range(6))
                         for a in range(6)), 0))
    assert len(tables) == 130
    for add, zero in tables:
        want = _join_irreducibles_by_comprehension(add, zero)
        assert join_irreducibles(add, zero) == want
        assert join_irreducibles(np.array(add), zero) == want


def _downsets(add, elements):
    """For each x of a join table, the positions i with elements[i] <= x."""
    return tuple(tuple(i for i, e in enumerate(elements) if add[e][x] == x)
                 for x in range(len(add)))


def _is_monoid_hom(v, join, zero, c_add, c_zero):
    """v sends zero to the monoid zero and joins to sums."""
    size = len(join)
    return v[zero] == c_zero and all(
        v[join[c][d]] == c_add[v[c]][v[d]]
        for c in range(size) for d in range(size))


def _monoid_homs_by_product(add, zero, c_size, c_add, c_zero):
    """Every monoid hom out of the join table add into C, in lexicographic
    order: every assignment of values to the join-irreducibles, folded
    over each downset and kept when it sends zero to the monoid zero and
    joins to sums."""
    ji = join_irreducibles(add, zero)
    below = _downsets(add, ji)
    found = set()
    for g in itertools.product(range(c_size), repeat=len(ji)):
        v = tuple(fold(c_add, c_zero, [g[i] for i in d]) for d in below)
        if _is_monoid_hom(v, add, zero, c_add, c_zero):
            found.add(v)
    return tuple(sorted(found))


def _bimorphisms_by_product(m, n, c_size, c_add, c_zero):
    """Every bimorphism M x N -> C as a flat table, in lexicographic order:
    every assignment of homs N -> C to JI(M), folded pointwise into a table
    and kept when each column is a monoid hom out of M and the table
    balances."""
    ji_m = join_irreducibles(m.add, m.zero)
    homs = _monoid_homs_by_product(n.add, n.zero, c_size, c_add,
                                   c_zero) if ji_m else ()
    below, ys = _downsets(m.add, ji_m), range(n.size)
    found = set()
    for g in itertools.product(homs, repeat=len(ji_m)):
        rows = [tuple(fold(c_add, c_zero, [g[i][y] for i in d]) for y in ys)
                for d in below]
        if all(_is_monoid_hom([row[y] for row in rows], m.add, m.zero, c_add,
                              c_zero) for y in ys) and \
           all(rows[m.act(a, x)][y] == rows[x][n.act(a, y)]
               for a in range(m.scalars.size)
               for x in range(m.size) for y in ys):
            found.add(tuple(v for row in rows for v in row))
    return tuple(sorted(found))


def test_monoid_family_is_frozen():
    fam = commutative_monoids_upto(3)
    assert len(fam) == 8
    assert [size for (size, _, _) in fam] == [1, 2, 2, 3, 3, 3, 3, 3]


def test_bimorphism_count(free2, self_mod):
    chain2 = ((0, 1), (1, 1))
    found = bimorphisms(free2, self_mod, 2, chain2, 0)
    assert len(found) == 4


def _bimorphisms_by_definition(m, n, c_size, c_add, c_zero):
    """Every map M x N -> C that is a bimorphism by definition, in
    lexicographic order: zero and join in each slot, and balance."""
    def p(x, y):
        return x * n.size + y
    xs, ys, acts = range(m.size), range(n.size), range(m.scalars.size)
    return tuple(
        f for f in itertools.product(range(c_size), repeat=m.size * n.size)
        if all(f[p(m.zero, y)] == c_zero for y in ys)
        and all(f[p(x, n.zero)] == c_zero for x in xs)
        and all(f[p(m.plus(x, w), y)] == c_add[f[p(x, y)]][f[p(w, y)]]
                for x in xs for w in xs for y in ys)
        and all(f[p(x, n.plus(y, w))] == c_add[f[p(x, y)]][f[p(x, w)]]
                for x in xs for y in ys for w in ys)
        and all(f[p(m.act(a, x), y)] == f[p(x, n.act(a, y))]
                for a in acts for x in xs for y in ys))


def test_bimorphisms_match_the_definition_on_small_pairs(boolean):
    modules = enumerate_modules(boolean, 3)
    pairs = [(m, n) for m in modules for n in modules if m.size * n.size <= 6]
    assert len(pairs) == 12
    for m, n in pairs:
        for c_size, c_add, c_zero in commutative_monoids_upto(3):
            assert bimorphisms(m, n, c_size, c_add, c_zero) == \
                _bimorphisms_by_definition(m, n, c_size, c_add, c_zero)


def _extensions(count, downsets, c_size, c_add, c_zero):
    """Every assignment of count generators into C, folded over each
    downset of generator positions, in lexicographic assignment order."""
    for g in itertools.product(range(c_size), repeat=count):
        yield tuple(fold(c_add, c_zero, [g[i] for i in d]) for d in downsets)


def _bimorphisms_by_ji_pairs(m, n, c_size, c_add, c_zero):
    """Bimorphisms rebuilt from their values on join-irreducible pairs:
    c^(|JI(M)|*|JI(N)|) candidates, each checked against the bottom and
    binary joins in both slots and against balance."""
    ji_m = join_irreducibles(m.add, m.zero)
    ji_n = join_irreducibles(n.add, n.zero)
    below_m, below_n = _downsets(m.add, ji_m), _downsets(n.add, ji_n)
    contrib = [tuple(i * len(ji_n) + j for i in below_m[x] for j in below_n[y])
               for x in range(m.size) for y in range(n.size)]

    def p(x, y):
        return x * n.size + y
    xs, ys, acts = range(m.size), range(n.size), range(m.scalars.size)
    return tuple(sorted({
        f for f in _extensions(len(ji_m) * len(ji_n), contrib, c_size, c_add,
                               c_zero)
        if all(f[p(m.zero, y)] == c_zero for y in ys)
        and all(f[p(x, n.zero)] == c_zero for x in xs)
        and all(f[p(m.plus(x, w), y)] == c_add[f[p(x, y)]][f[p(w, y)]]
                for x in xs for w in xs for y in ys)
        and all(f[p(x, n.plus(y, w))] == c_add[f[p(x, y)]][f[p(x, w)]]
                for x in xs for y in ys for w in ys)
        and all(f[p(m.act(a, x), y)] == f[p(x, n.act(a, y))]
                for a in acts for x in xs for y in ys)}))


def _family_pairs(boolean, self_mod):
    """The module pairs of test_bimorphisms_match_the_ji_pair_search: B
    modules with |M|*|N| <= 8, the 3-chain reduct's modules of size at
    most 3, and the five 5-element B modules against B over itself."""
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules if m.size * n.size <= 8]
    assert len(pairs) == 48
    # balance only bites over scalars other than the booleans
    chain3 = enumerate_modules(corpus.chain(3), 3)
    pairs += [(m, n) for m in chain3 for n in chain3]
    # the left joins only fail to hold by construction on a factor that is
    # not distributive, the smallest of which have five elements
    fives = []
    for m in enumerate_modules(boolean, 5):
        if m.size == 5 and all(are_isomorphic(m, r) is None for r in fives):
            fives.append(m)
    assert len(fives) == 5
    return pairs + [(m, self_mod) for m in fives] + \
        [(self_mod, m) for m in fives]


def test_bimorphisms_match_the_ji_pair_search(boolean, self_mod):
    kept = 0
    for m, n in _family_pairs(boolean, self_mod):
        targets = list(commutative_monoids_upto(3))
        targets += [(m.size, m.add, m.zero), (n.size, n.add, n.zero)]
        for c_size, c_add, c_zero in targets:
            found = bimorphisms(m, n, c_size, c_add, c_zero)
            assert found == _bimorphisms_by_ji_pairs(m, n, c_size, c_add,
                                                     c_zero)
            kept += len(found)
    assert kept > 0


def test_searches_match_the_product_loops(boolean, self_mod):
    """The pruned searches return the product loops' tuples on every family
    the tests use: bimorphisms on each pair of _family_pairs, and monoid
    homs out of each factor and each tensor quotient, into the eight small
    monoids and the two factors' additive monoids."""
    for m, n in _family_pairs(boolean, self_mod):
        t = tensor_product(m, n)
        targets = list(commutative_monoids_upto(3))
        targets += [(m.size, m.add, m.zero), (n.size, n.add, n.zero)]
        for c in targets:
            assert bimorphisms(m, n, *c) == _bimorphisms_by_product(m, n, *c)
            for add, zero in ((m.add, m.zero), (n.add, n.zero),
                              (t.join_table, t.zero_class)):
                assert _monoid_homs(add, zero, *c) == \
                    _monoid_homs_by_product(add, zero, *c)


# A target whose addition neither commutes nor associates and has no
# identity, one whose zero is not an identity, and an idempotent monoid
# that does not commute: a right-zero band {1, 2} with 0 as identity.
_LAWLESS_TARGETS = ((3, ((0, 1, 2), (2, 0, 1), (1, 1, 0)), 0),
                    (2, ((1, 0), (0, 0)), 1),
                    (3, ((0, 1, 2), (1, 1, 2), (2, 1, 2)), 0))


def _lawless_targets(rng, count):
    """The fixed lawless targets, the eight small monoids, and count drawn
    tables of two or three elements with a drawn zero."""
    targets = list(_LAWLESS_TARGETS) + list(commutative_monoids_upto(3))
    for _ in range(count):
        size = rng.randint(2, 3)
        targets.append((size, corpus.drawn_table(rng, size, size, size),
                        rng.randrange(size)))
    return targets


def test_monoid_homs_fold_the_zero_before_checking_it():
    """In ((0, 1), (0, 1)) with zero 0, 1 + 0 = 0, so a monoid hom into B
    has v[0] = v[1] + v[0], and v[0] = 0 forces v[1] = 0. The product
    folds v[0] = 0 + v[1] over the downset of 0, which holds 1, so it too
    must check v[zero] only after folding it, or it keeps (1, 1) as
    well."""
    chain = ((0, 1), (1, 1))
    assert _monoid_homs(((0, 1), (0, 1)), 0, 2, chain, 0) == ((0, 0),)
    assert _monoid_homs_by_product(((0, 1), (0, 1)), 0, 2, chain, 0) == \
        ((0, 0),)


def _monoid_homs_by_definition(add, zero, c_size, c_add, c_zero):
    """Every map out of the table add into C that _is_monoid_hom accepts,
    in lexicographic order."""
    return tuple(v for v in itertools.product(range(c_size), repeat=len(add))
                 if _is_monoid_hom(v, add, zero, c_add, c_zero))


def test_monoid_homs_match_the_product_on_lawless_tables():
    """Seeded lawless join tables of one to four elements, with a drawn
    zero, and the join semilattices of up to four elements, into lawless
    and lawful targets. The semilattices are held to the product over
    their join-irreducibles. The lawless tables are held to every map that
    is a monoid hom by definition, of which the product finds a subset:
    it folds each value over a downset, and on 24 of these cases a hom out
    of a lawless table is no such fold."""
    rng = random.Random(20101)
    lawful = [(add, 0) for size in range(1, 5)
              for add in _commutative_monoid_tables(size, True, 10**6)]
    lawless = [(((0, 1), (0, 1)), 0)]
    for _ in range(150):
        size = rng.randint(1, 4)
        lawless.append((corpus.drawn_table(rng, size, size, size),
                        rng.randrange(size)))
    targets = _lawless_targets(rng, 6)
    kept = missed = 0
    for add, zero in lawful:
        for c in targets:
            found = _monoid_homs(add, zero, *c)
            assert found == _monoid_homs_by_product(add, zero, *c)
            kept += len(found)
    for add, zero in lawless:
        for c in targets:
            found = _monoid_homs(add, zero, *c)
            assert found == _monoid_homs_by_definition(add, zero, *c)
            product = _monoid_homs_by_product(add, zero, *c)
            assert set(product) <= set(found)
            missed += product != found
            kept += len(found)
    assert (len(lawful) + len(lawless)) * len(targets) == 2788
    assert kept > 0 and missed == 24


def test_monoid_homs_out_of_a_right_projection():
    """In ((0, 1), (0, 1)) every sum is its right summand. Into the same
    table with zero 1, a map is a monoid hom exactly when it sends 0 to 1,
    so (1, 0) is one. The product folds v[0] = 1 + v[1] = v[1], since
    1 + 0 = 0 puts 1 below 0, and misses it."""
    table = ((0, 1), (0, 1))
    assert _monoid_homs(table, 0, 2, table, 1) == ((1, 0), (1, 1))
    assert _monoid_homs_by_definition(table, 0, 2, table, 1) == \
        ((1, 0), (1, 1))
    assert _monoid_homs_by_product(table, 0, 2, table, 1) == ((1, 1),)


def test_bimorphisms_match_the_product_on_lawless_modules(boolean):
    """Seeded modules over B and over the 3-chain reduct with drawn
    addition, zero and action rows, each of one to three elements, paired
    with each other and with lawful ones, into lawless and lawful
    targets."""
    rng = random.Random(20102)
    three = corpus.chain(3)
    kept = 0
    for _ in range(60):
        s = rng.choice((boolean, three))
        sides = []
        for _ in range(2):
            sides.append(corpus.drawn_module(rng, s, 3))
        lawful = rng.choice(enumerate_modules(s, 3))
        for m, n in (sides, (sides[0], lawful), (lawful, sides[1])):
            for c in _lawless_targets(rng, 2):
                found = bimorphisms(m, n, *c)
                assert found == _bimorphisms_by_product(m, n, *c)
                kept += len(found)
    assert kept > 0


def test_bimorphisms_file_a_zero_move_that_a_row_can_fail(boolean):
    """A scalar that sends M and N to their zeros balances every table when
    every row of Hom(N, C) takes 0_N to C's zero. Where C's zero is no
    identity, or a row of N moves 0_N, a row made by a sum or a shift need
    not, and the move is filed: dropped, each case below would keep one
    table the product refuses."""
    # C's zero 1 is no identity, 1 + 1 = 0; in M, 0 + 0 = 1, so v[1] is
    # the row (0,), which scalar 0 must send to v[0], the row (1,)
    m = FiniteSemimodule(boolean, 2, ((1, 0), (1, 1)), 0, ((0, 0), (0, 1)))
    n = trivial_module(boolean)
    c = (2, ((0, 0), (1, 0)), 1)
    assert bimorphisms(m, n, *c) == _bimorphisms_by_product(m, n, *c) == ()
    # scalar 1 moves N's zero; v[2] = v[1] shifted by it can be the row
    # (1, 1), which scalar 0 must send to v[0], the row (0, 0)
    m = FiniteSemimodule(boolean, 3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0,
                         ((0, 0, 0), (0, 2, 2)))
    n = FiniteSemimodule(boolean, 2, ((0, 1), (1, 1)), 0, ((0, 0), (1, 1)))
    c = (2, ((0, 1), (1, 1)), 0)
    assert bimorphisms(m, n, *c) == _bimorphisms_by_product(m, n, *c) == \
        ((0,) * 6,)
    plan, moved = mvsr.tensor._factor_plans(m, n)[1][True]
    assert plan.action == m.action and moved == n.action
    # where both conditions hold, over B, both scalars are dropped
    free = free_semimodule(boolean, "xy")
    plan, moved = mvsr.tensor._factor_plans(free, free)[1][True]
    assert plan.action == moved == ()
    plan, moved = mvsr.tensor._factor_plans(free, free)[1][False]
    assert plan.action == (free.action[0],) and moved == (free.action[0],)


def test_bimorphisms_of_a_trivial_left_factor(boolean, free2):
    class Refused:
        def search(self, *args, **kwargs):
            raise AssertionError("Hom(N, C) enumerated for a trivial factor")
    zero = trivial_module(boolean)
    exponent, left, _ = mvsr.tensor._factor_plans(zero, free2)
    for c_size, c_add, c_zero in commutative_monoids_upto(3):
        assert bimorphisms(zero, free2, c_size, c_add, c_zero,
                           _plans=(exponent, left, Refused())) == \
            ((c_zero,) * free2.size,)


@pytest.mark.parametrize("c_size,c_add,c_zero,message", [
    (2, [[0, 1], [1, 5]], 0,
     "target monoid addition table entry 5 out of range 0..1"),
    (2, [[0, 1]], 0, "target monoid addition table must be 2x2"),
    (2, [[0, 1], [1, 1]], 2, "target monoid zero index 2 out of range 0..1"),
    (2, [[0, 1], [1, 1]], -1,
     "target monoid zero index -1 out of range 0..1"),
    (2, [[0, 1], [1, 1.0]], 0, "target monoid addition entry 1.0 is not an "
                               "integer"),
    (2.5, [[0, 1], [1, 1]], 0, "c_size=2.5 must be an integer"),
    (True, [[0]], 0, "c_size=True must be an integer"),
    (-1, [], 0, "c_size=-1 must be at least 0"),
])
def test_bimorphisms_refuse_a_malformed_target(free2, self_mod, c_size, c_add,
                                               c_zero, message):
    # the out-of-range entry was once read as a result, and an out-of-range
    # zero or a short table raised a bare IndexError
    with pytest.raises(MalformedTable, match=f"^{re.escape(message)}$"):
        bimorphisms(free2, self_mod, c_size, c_add, c_zero)


def test_bimorphisms_refuse_factors_over_different_scalars(free2):
    """Each factor's action rows are paired by scalar: over different
    scalars one order raised IndexError and the other gave an answer."""
    other = module_over_self(corpus.chain(3))
    for m, n in ((other, free2), (free2, other)):
        with pytest.raises(ScalarMismatch, match="^bimorphisms need a "
                                                 "common scalar semiring$"):
            bimorphisms(m, n, 2, ((0, 1), (1, 1)), 0)


def test_universal_property_plans_each_pair_once(free2, self_mod,
                                                 monkeypatch):
    """check_universal_property reads the join-irreducibles of the quotient
    and of each factor once, not once per target, and still calls
    bimorphisms by its name once per target, with the verdict the checked
    calls give."""
    t = tensor_product(free2, self_mod)
    expected = check_universal_property(t)
    ji, calls = mvsr.tensor.join_irreducibles, []
    monkeypatch.setattr(mvsr.tensor, "join_irreducibles",
                        lambda *args: calls.append("ji") or ji(*args))
    search = mvsr.tensor.bimorphisms
    monkeypatch.setattr(mvsr.tensor, "bimorphisms",
                        lambda *args, **kwargs: calls.append("bim")
                        or search(*args, **kwargs))
    assert check_universal_property(t) == expected
    assert calls == ["ji"] * 3 + ["bim"] * expected["monoids"]
    assert expected["ok"] and expected["bimorphisms"] > 0


def test_bimorphism_guard(free2):
    big = free_semimodule(boolean_semiring(), list("pqrs"))
    with pytest.raises(EnumGuard, match=r"^bimorphism candidates: "
                       r"43046721 exceeds max_enum=1000$"):
        bimorphisms(big, big, 3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0,
                    max_enum=1000)


def test_guards_fire_before_the_checks_are_filed(free2, self_mod):
    """A tripped guard leaves each plan with its levels only: the |add|^2
    sum checks and the move checks are filed by the first search."""
    mvsr.semimodule._schedule.cache_clear()
    big = free_semimodule(boolean_semiring(), list("pqrs"))
    with pytest.raises(EnumGuard):
        bimorphisms(big, big, 3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0,
                    max_enum=1000)
    plan = mvsr.semimodule._schedule(big.add, big.zero, big.action)
    assert plan.depth == 4 and not {"sums", "moves"} & set(vars(plan))
    t = tensor_product(free2, self_mod)
    with pytest.raises(EnumGuard, match=r"^candidate homs out of the "
                       r"quotient: 1 exceeds max_enum=0$"):
        check_universal_property(t, max_enum=0)
    plan = mvsr.semimodule._schedule(t.join_table, t.zero_class)
    assert plan.depth == 2 and "sums" not in vars(plan)


def test_universal_property_smallest(self_mod):
    t = tensor_product(self_mod, self_mod)
    verdict = check_universal_property(t)
    assert verdict["ok"]
    assert verdict["monoids"] == 10
    assert verdict["existence_failures"] == 0
    assert verdict["uniqueness_failures"] == 0


def test_universal_property_free_factor(free2, self_mod):
    verdict = check_universal_property(tensor_product(free2, self_mod))
    assert verdict["ok"]
    assert verdict["bimorphisms"] > 0


def test_universal_property_guard(free2, self_mod):
    t = tensor_product(free2, self_mod)
    with pytest.raises(EnumGuard, match=r"^candidate homs out of the "
                       r"quotient: 4 exceeds max_enum=3$"):
        check_universal_property(t, max_enum=3)


def _universal_property_by_scan(t):
    """The universal property checked bimorphism by bimorphism: existence
    folds f over each class's representative pairs and tests the result,
    uniqueness rescans every join-irreducible assignment of the quotient."""
    family = list(commutative_monoids_upto(3))
    family.append((t.left.size, t.left.add, t.left.zero))
    family.append((t.right.size, t.right.add, t.right.zero))
    join = t.join_table
    tensor_of = [(x, y, t.tensor(x, y))
                 for x in range(t.left.size) for y in range(t.right.size)]
    ji = join_irreducibles(join, t.zero_class)
    below = _downsets(join, ji)
    bims = existence = uniqueness = 0
    for c_size, c_add, c_zero in family:
        for f in bimorphisms(t.left, t.right, c_size, c_add, c_zero):
            bims += 1
            h = [fold(c_add, c_zero,
                      [f[t.pair_index(x, y)] for (x, y) in t.pairs_of(c)])
                 for c in range(t.class_count)]
            if not (all(h[tc] == f[t.pair_index(x, y)]
                        for (x, y, tc) in tensor_of)
                    and _is_monoid_hom(h, join, t.zero_class, c_add, c_zero)):
                existence += 1
            matches = {
                v for v in _extensions(len(ji), below, c_size, c_add, c_zero)
                if all(v[tc] == f[t.pair_index(x, y)]
                       for (x, y, tc) in tensor_of)
                and _is_monoid_hom(v, join, t.zero_class, c_add, c_zero)}
            if len(matches) != 1:
                uniqueness += 1
    return {"monoids": len(family), "bimorphisms": bims,
            "existence_failures": existence,
            "uniqueness_failures": uniqueness,
            "ok": existence == 0 and uniqueness == 0}


def test_universal_property_count_matches_the_scan(boolean):
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules if m.size * n.size <= 8]
    assert len(pairs) == 48
    collapsed_existence = 0
    for m, n in pairs:
        t = tensor_product(m, n)
        assert check_universal_property(t) == _universal_property_by_scan(t)
        width = m.size * n.size
        collapsed = TensorProduct(m, n, congruence_closure(
            width, [(0, (1 << width) - 1)]))
        verdict = check_universal_property(collapsed)
        assert verdict == _universal_property_by_scan(collapsed)
        collapsed_existence += verdict["existence_failures"]
    assert collapsed_existence > 0
    three = module_over_self(corpus.chain(3))
    t = tensor_product(three, three)
    assert check_universal_property(t) == _universal_property_by_scan(t)


def test_universal_property_matches_the_scan_on_wider_pairs(boolean,
                                                           monkeypatch):
    """The 36 labelled pairs of B modules with 11 <= |M|*|N| <= 12, a 3- and
    a 4-element factor either way round. Three seeded pairs whose 4-element
    factor is the free square: check_universal_property equals the scan
    run with the product loop's bimorphisms. The scan rescans every
    assignment to JI of the quotient for each bimorphism, which takes
    seconds a pair when the 4-element factor is a chain (318 bimorphisms,
    six join-irreducible classes), so on three seeded pairs of those the
    searches are held to the product loops target by target instead."""
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules
             if 11 <= m.size * n.size <= 12]
    assert len(pairs) == 36
    square = free_semimodule(boolean, ["x", "y"])
    rng = random.Random(20103)
    free = [p for p in pairs if any(are_isomorphic(f, square) is not None
                                    for f in p if f.size == 4)]
    chains = [p for p in pairs if p not in free]
    assert (len(free), len(chains)) == (12, 24)

    monkeypatch.setitem(globals(), "bimorphisms", _bimorphisms_by_product)
    for m, n in rng.sample(free, 3):
        t = tensor_product(m, n)
        assert check_universal_property(t) == _universal_property_by_scan(t)
    monkeypatch.undo()

    for m, n in rng.sample(chains, 3):
        t = tensor_product(m, n)
        targets = list(commutative_monoids_upto(3))
        targets += [(m.size, m.add, m.zero), (n.size, n.add, n.zero)]
        for c in targets:
            assert bimorphisms(m, n, *c) == _bimorphisms_by_product(m, n, *c)
            assert _monoid_homs(t.join_table, t.zero_class, *c) == \
                _monoid_homs_by_product(t.join_table, t.zero_class, *c)
        assert check_universal_property(t)["ok"]


def test_class_of_pairs_joins_tensors(free2, self_mod):
    t = tensor_product(free2, self_mod)
    for x in range(free2.size):
        for y in range(self_mod.size):
            assert t.class_of_pairs([(x, y)]) == t.tensor(x, y)
    assert t.class_of_pairs([]) == t.zero_class
    assert t.class_of_pairs([(1, 1), (2, 1)]) == \
        t.join(t.tensor(1, 1), t.tensor(2, 1))


@pytest.mark.parametrize("call,message", [
    (lambda t: t.pairs_of(-1), "class index -1 out of range 0..3"),
    (lambda t: t.pairs_of(99), "class index 99 out of range 0..3"),
    (lambda t: t.pairs_of(1.0), "class entry 1.0 is not an integer"),
    (lambda t: t.join(0, 99), "class index 99 out of range 0..3"),
    (lambda t: t.join(4, 0), "class index 4 out of range 0..3"),
    (lambda t: t.join(-1, 1), "class index -1 out of range 0..3"),
    (lambda t: t.congruence.joined(-1, 0), "class index -1 out of range 0..3"),
    (lambda t: t.congruence.joined(4, 1), "class index 4 out of range 0..3"),
])
def test_class_indices_outside_the_quotient_are_refused(free2, self_mod, call,
                                                        message):
    # pairs_of(-1) once read the last class's pairs, joined(-1, 0) returned
    # -1, and pairs_of(99), join(0, 99) and joined(4, 1) raised a bare
    # IndexError
    t = tensor_product(free2, self_mod)
    assert t.class_count == 4
    with pytest.raises(MalformedTable, match=f"^{re.escape(message)}$"):
        call(t)


@pytest.mark.parametrize("call,message", [
    (lambda t: t.tensor(0, 2), "right factor element index 2 out of range "
                               "0..1"),
    (lambda t: t.class_of_pairs([(0, 3)]), "right factor element index 3 "
                                           "out of range 0..1"),
    (lambda t: t.tensor(-1, 1), "left factor element index -1 out of range "
                                "0..3"),
])
def test_pairs_outside_the_factors_are_refused(free2, self_mod, call,
                                               message):
    # bit x * |N| + y alone would read (0, 2) as the pair (1, 0)
    t = tensor_product(free2, self_mod)
    with pytest.raises(MalformedTable, match=f"^{message}$"):
        call(t)


def test_a_congruence_of_another_width_is_refused(free2, self_mod):
    """A congruence on |M| * |N| pairs is accepted; on any other width its
    bits would decode to the wrong pairs, so it is refused."""
    width = free2.size * self_mod.size
    assert TensorProduct(free2, self_mod,
                         congruence_closure(width, [])).class_count == 256
    # the identity congruence on 9 bits has 512 classes, 4608 closures,
    # past the default max_carrier
    for other in (width - 1, width + 1, self_mod.size * self_mod.size):
        with pytest.raises(MalformedTable, match=f"^congruence on {other} "
                           f"pairs, but the factors have {width}$"):
            TensorProduct(free2, self_mod,
                          congruence_closure(other, [], max_carrier=5000))


def test_tensor_report_schema(self_mod):
    report = tensor_report(self_mod, self_mod)
    assert set(report) == {"left", "right", "classes", "tensors",
                           "universal_property"}
    assert report["classes"] == 2
    assert report["tensors"] == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]]
    assert report["universal_property"] == "verified"


# ----- hom-set structure and the currying bijections -------------------------

def test_hom_lattice_module(boolean, self_mod):
    homs = hom_set(self_mod, self_mod)
    lifted = hom_lattice_structure(homs, boolean, boolean.mul)
    assert lifted.laws.valid
    assert lifted.module.size == len(homs)


@pytest.mark.parametrize("b_action,message", [
    ([[0, 0], [0, 2]], "right action table entry 2 out of range 0..1"),
    ([[0, 1]], "right action table must be 2x2"),
    ("ab", "right action table must be 2x2"),
])
def test_hom_lattice_structure_checks_the_right_action(boolean, self_mod,
                                                       b_action, message):
    # the entry 2 once raised a bare IndexError, the 1x2 table NotAHom
    # ("scalar 0 does not send homs to homs") and the string numpy's
    # ValueError
    homs = hom_set(self_mod, self_mod)
    with pytest.raises(MalformedTable, match=f"^{re.escape(message)}$"):
        hom_lattice_structure(homs, boolean, b_action)


@pytest.mark.parametrize("values,zero,message", [
    (np.zeros((3, 5), np.intp), 0,
     "extend values must be an integer array on 2x4 pairs"),
    (np.zeros((1, 1), np.intp), 0,
     "extend values must be an integer array on 2x4 pairs"),
    (np.zeros((2, 4)), 0,
     "extend values must be an integer array on 2x4 pairs"),
    (np.full((3, 2, 4), 7), 0,
     "extend values table entry 7 out of range 0..3"),
    (np.full((2, 4), -1), 0,
     "extend values table entry -1 out of range 0..3"),
    (np.zeros((2, 4), np.intp), 4, "extend zero index 4 out of range 0..3"),
])
def test_extend_checks_what_it_is_given(self_mod, free2, values, zero,
                                        message):
    # for factors of sizes 2 and 4 the 3x5 array once gave [0 0 0 0], and
    # the 1x1 array and the entry 7 raised a bare IndexError
    t = tensor_product(self_mod, free2)
    with pytest.raises(MalformedTable, match=f"^{re.escape(message)}$"):
        t.extend(values, free2.np_add, zero)


def test_zeta_both_variants(free2, self_mod):
    for variant in ("plain", "primed"):
        z = zeta_isomorphism(free2, self_mod, self_mod, variant)
        assert len(z.forward) == 4
        assert len(z.curried) == 4
        assert z.bijective
        assert z.join_preserving
        assert z.ok


def test_zeta_rejects_unknown_variant(self_mod):
    with pytest.raises(ValueError):
        zeta_isomorphism(self_mod, self_mod, self_mod, "twisted")


def test_hom_point_iso_counts(boolean):
    three = corpus.chain(3)
    square = corpus.square()
    assert len(hom_point_iso(module_over_self(three)).homs) == 3
    assert hom_point_iso(module_over_self(three)).ok
    assert len(hom_point_iso(module_over_self(square)).homs) == 4
    assert hom_point_iso(module_over_self(square)).ok
    assert len(hom_point_iso(trivial_module(boolean)).homs) == 1


def _positions_by_dict(homs):
    return {h.mapping: i for i, h in enumerate(homs)}


def _right_multiplication(b):
    """b acting on itself from the right: row s sends x to x * s."""
    return tuple(tuple(b.mul[x][s] for x in range(b.size))
                 for s in range(b.size))


def test_hom_lattice_action_matches_the_mapping_dict():
    """On the homs out of each target scalar ring, restricted along each
    onto map, into each small module over the source, the lifted action
    is the dict lookups'."""
    checked = 0
    for h in corpus.onto_maps():
        a, b = h.source, h.target
        b_over_a = restrict_scalars(h, module_over_self(b))
        moved_by = _right_multiplication(b)
        for m in enumerate_modules(a, 2) + (module_over_self(a),):
            homs = hom_set(b_over_a, m)
            pos = _positions_by_dict(homs)
            want = tuple(tuple(pos[tuple(f.mapping[x] for x in moved_by[s])]
                               for f in homs) for s in range(b.size))
            lifted = hom_lattice_structure(homs, b, moved_by)
            assert lifted.module.action == want
            assert lifted.laws.valid
            checked += 1
    assert checked == 16


def _zeta_by_dict(m, n, p, variant):
    """forward, backward and join preservation of zeta_isomorphism, each
    curried and uncurried map built hom by hom and looked up in a dict of
    mappings."""
    t = tensor_product(m, n)
    outer = hom_set(as_module(t), p)
    first, second = (m, n) if variant == "plain" else (n, m)
    inner = hom_set(second, p)
    curried = hom_set(first, inner.to_module())
    outer_pos, inner_pos = _positions_by_dict(outer), _positions_by_dict(inner)
    curried_pos = _positions_by_dict(curried)

    def pair(u, v):
        return t.tensor(u, v) if variant == "plain" else t.tensor(v, u)

    def uncurry(k):
        def value(x, y):
            u, v = (x, y) if variant == "plain" else (y, x)
            return inner[k.mapping[u]].mapping[v]
        return tuple(fold(p.add, p.zero,
                          [value(x, y) for (x, y) in t.pairs_of(c)])
                     for c in range(t.class_count))

    def plus(pos, f, g):
        return pos[tuple(f.target.add[x][y]
                         for x, y in zip(f.mapping, g.mapping))]

    forward = tuple(curried_pos[tuple(
        inner_pos[tuple(g.mapping[pair(u, v)] for v in range(second.size))]
        for u in range(first.size))] for g in outer)
    backward = tuple(outer_pos[uncurry(k)] for k in curried)
    join_ok = all(forward[plus(outer_pos, f, g)]
                  == plus(curried_pos, curried[forward[i]],
                          curried[forward[j]])
                  for i, f in enumerate(outer) for j, g in enumerate(outer))
    return forward, backward, join_ok


def test_zeta_matches_the_mapping_dicts(boolean, self_mod, free2):
    """The criterion-7 triples and the three-chain over itself, in both
    variants."""
    c3 = module_over_self(corpus.chain(3))
    triples = [(self_mod, self_mod, self_mod), (free2, self_mod, self_mod),
               (self_mod, free2, free2), (c3, c3, c3)]
    for m, n, p in triples:
        for variant in ("plain", "primed"):
            z = zeta_isomorphism(m, n, p, variant)
            assert (z.forward, z.backward, z.join_preserving) == \
                _zeta_by_dict(m, n, p, variant)
            assert z.ok


def test_hom_point_iso_matches_the_mapping_dict(boolean):
    for s in (boolean, corpus.chain(3),
              corpus.square()):
        for m in enumerate_modules(s, 3):
            iso = hom_point_iso(m)
            pos = _positions_by_dict(iso.homs)
            assert iso.phi == tuple(
                pos[tuple(m.act(a, x) for a in range(s.size))]
                for x in range(m.size))
            assert iso.psi == tuple(h.mapping[s.one] for h in iso.homs)
            assert iso.ok


_XOR = ((0, 1), (1, 0)), ((0, 0), (0, 1))
_SWAP = ((0, 1, 2), (1, 1, 2), (2, 2, 2)), ((0, 0, 0), (0, 2, 1))
_ZERO_MOVES = ((0, 1), (1, 1)), ((1, 1), (0, 1))


@pytest.mark.parametrize("tables,call,message", [
    (_XOR, "adjunction", "hom 1 after the unit is not a hom"),
    (_XOR, "point-iso", "the orbit map of 1 is not a hom"),
    (_SWAP, "point-iso", "the orbit map of 1 is not a hom"),
    (_SWAP, "to-module", "scalar 1 times hom 1 is not a hom"),
    (_ZERO_MOVES, "adjunction", "the zero map is not a hom"),
    (_ZERO_MOVES, "point-iso", "the orbit map of 0 is not a hom"),
    (_ZERO_MOVES, "to-module", "scalar 0 times hom 0 is not a hom"),
    (_ZERO_MOVES, "end", "the zero map is not a hom"),
    (_ZERO_MOVES, "zeta", "the zero map is not a hom"),
], ids=["xor-adjunction", "xor-point-iso", "swap-point-iso",
        "swap-to-module", "zero-moves-adjunction", "zero-moves-point-iso",
        "zero-moves-to-module", "zero-moves-end", "zero-moves-zeta"])
def test_lawless_modules_raise_not_a_hom(boolean, self_mod, tables, call,
                                         message):
    """Over B, Z/2 addition (xor), a scalar one that swaps two elements
    (swap) and a scalar zero that moves zero (zero-moves) each break a
    module law; every table built from their homs names the map that is
    no hom."""
    add, action = tables
    m = FiniteSemimodule(boolean, len(add), add, 0, action)
    run = {"adjunction": lambda: adjunction_witness(
               SemiringHom(boolean, boolean, (0, 1)), left_modules=[m]),
           "point-iso": lambda: hom_point_iso(m),
           "to-module": lambda: hom_set(m, m).to_module(),
           "end": lambda: end_semiring(m),
           "zeta": lambda: zeta_isomorphism(self_mod, self_mod, m)}[call]
    with pytest.raises(NotAHom) as err:
        run()
    assert str(err.value) == message


# ----- change of scalars ------------------------------------------------------

def test_adjunction_identity(boolean):
    ident = SemiringHom(boolean, boolean, (0, 1))
    res = adjunction_witness(ident)
    assert res["ok"]
    assert len(res["pairs"]) == 4
    assert all(p["left_bijective"] and p["right_bijective"]
               for p in res["pairs"])
    assert res["unit_is_hom"] == [True, True]
    assert res["naturality_ok"]


def test_adjunction_projection(boolean):
    square = corpus.square()
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    res = adjunction_witness(proj)
    assert res["ok"]
    for p in res["pairs"]:
        assert p["left_counts"][0] == p["left_counts"][1]
        assert p["right_counts"][0] == p["right_counts"][1]


def _adjunction_maps_by_dict(h, mods_a, mods_b):
    """The four maps of adjunction_witness on each pair of test modules,
    built hom by hom and looked up in dicts of mappings: the forward and
    backward maps of the left adjunction, then of the right one."""
    b = h.target
    b_over_a = restrict_scalars(h, module_over_self(b))
    maps = []
    for m in mods_a:
        t, extended = mvsr.tensor._extend_scalars(b_over_a, b, m, MAX_CARRIER)
        unit = mvsr.tensor._tensor_unit(t, b.one)
        homs_bm = hom_set(b_over_a, m)
        bm_pos = _positions_by_dict(homs_bm)
        lifted = hom_lattice_structure(homs_bm, b,
                                       _right_multiplication(b)).module
        for n in mods_b:
            restricted = restrict_scalars(h, n)
            outer, inner = hom_set(extended, n), hom_set(m, restricted)
            outer_pos, inner_pos = (_positions_by_dict(outer),
                                    _positions_by_dict(inner))
            forward = [inner_pos[tuple(g.mapping[unit[x]]
                                       for x in range(m.size))]
                       for g in outer]
            backward = [outer_pos[tuple(
                fold(n.add, n.zero, [n.act(pb, f.mapping[x])
                                     for (pb, x) in t.pairs_of(c)])
                for c in range(t.class_count))] for f in inner]
            co_outer, co_inner = hom_set(restricted, m), hom_set(n, lifted)
            co_outer_pos, co_inner_pos = (_positions_by_dict(co_outer),
                                          _positions_by_dict(co_inner))
            co_forward = [co_inner_pos[tuple(
                bm_pos[tuple(f.mapping[n.act(x, y)] for x in range(b.size))]
                for y in range(n.size))] for f in co_outer]
            co_backward = [co_outer_pos[tuple(
                homs_bm[k.mapping[y]].mapping[b.one] for y in range(n.size))]
                for k in co_inner]
            maps += [(forward, backward), (co_forward, co_backward)]
    return maps


def test_adjunction_maps_match_the_mapping_dicts(boolean, monkeypatch):
    """Each pair of maps adjunction_witness checks for mutual inverses is
    the dict-built pair, on the identity of B and of the three-chain, and
    on the four onto maps."""
    seen = []
    check = mvsr.tensor._mutually_inverse

    def record(forward, backward):
        seen.append((list(forward), list(backward)))
        return check(forward, backward)

    monkeypatch.setattr(mvsr.tensor, "_mutually_inverse", record)
    c3 = corpus.chain(3)
    maps = (SemiringHom(boolean, boolean, (0, 1)),
            SemiringHom(c3, c3, (0, 1, 2))) + corpus.onto_maps()
    for h in maps:
        mods_a = list(enumerate_modules(h.source, 2))
        mods_b = list(enumerate_modules(h.target, 2))
        seen.clear()
        assert adjunction_witness(h, mods_a, mods_b)["ok"]
        assert seen == _adjunction_maps_by_dict(h, mods_a, mods_b)
        assert len(seen) == 2 * len(mods_a) * len(mods_b)


def test_module_enumeration_counts(boolean):
    assert len(enumerate_modules(boolean, 3)) == 4
    assert len(enumerate_modules(boolean, 4)) == 13
    assert len(enumerate_modules(boolean, 5)) == 89


def _enumerate_modules_by_product(s, size_bound):
    """Every module structure on carriers up to the bound, with each free
    scalar's action row drawn from every map of the carrier."""
    out = []
    free = [c for c in range(s.size) if c not in (s.zero, s.one)]
    for size in range(1, size_bound + 1):
        for add in _commutative_monoid_tables(size, True, 10**6):
            for rows in itertools.product(
                    itertools.product(range(size), repeat=size),
                    repeat=len(free)):
                action = [None] * s.size
                action[s.zero] = (0,) * size
                action[s.one] = tuple(range(size))
                for c, row in zip(free, rows):
                    action[c] = row
                m = FiniteSemimodule(s, size, add, 0, tuple(action))
                if check_semimodule(s, m).valid:
                    out.append(m)
    return tuple(out)


def _lawless_boolean():
    """B with every product zero: no action but the zero one on a single
    point is associative, as 1(1x) = x while (1 1)x = 0x = 0."""
    return FiniteSemiring(2, ((0, 1), (1, 1)), ((0, 0), (0, 0)), 0, 1)


def _one_point_semiring():
    """The semiring whose zero is its one: the one row, the identity, is
    also the zero row, so only the one-point module keeps 0x = 0."""
    return FiniteSemiring(1, ((0,),), ((0,),), 0, 0)


def test_module_enumeration_matches_the_product_loop(boolean):
    chain = lambda k: corpus.chain(k)
    square = corpus.square()
    wedge3 = reduct_wedge_oplus(lukasiewicz_chain(3))
    for s, bound, count in ((boolean, 5, 89), (chain(3), 4, 33),
                            (chain(4), 3, 6), (square, 3, 7), (wedge3, 4, 33),
                            (_lawless_boolean(), 4, 1),
                            (_one_point_semiring(), 3, 1)):
        modules = enumerate_modules(s, bound)
        assert len(modules) == count
        assert modules == _enumerate_modules_by_product(s, bound)


def test_module_enumeration_in_small_chunks(monkeypatch):
    """Stacks of one or two candidate actions give the same modules, and
    each of the 183 candidates is weighed once."""
    expected = {}
    for mv in (reduct_vee_odot, reduct_wedge_oplus):
        s = mv(lukasiewicz_chain(3))
        expected[s] = _enumerate_modules_by_product(s, 4)
    stacked = []
    checks = mvsr.tensor._lawful_actions
    monkeypatch.setattr(mvsr.tensor, "_lawful_actions",
                        lambda s, add, acts: stacked.append(len(acts))
                        or checks(s, add, acts))
    monkeypatch.setattr(mvsr.semiring, "_CHUNK_ELEMENTS", 40)
    for s, modules in expected.items():
        stacked.clear()
        assert len(modules) == 33
        assert enumerate_modules(s, 4) == modules
        assert sum(stacked) == 183 and max(stacked) == 2


def test_monoid_homs_match_the_definition():
    sources = [(size, add) for size in range(1, 5)
               for add in _commutative_monoid_tables(size, True, 10**6)]
    targets = list(commutative_monoids_upto(3))
    targets += [(size, add, 0) for size, add in sources]
    for size, add in sources:
        for c_size, c_add, c_zero in targets:
            expected = tuple(
                f for f in itertools.product(range(c_size), repeat=size)
                if f[0] == c_zero and all(
                    f[add[x][y]] == c_add[f[x]][f[y]]
                    for x in range(size) for y in range(size)))
            assert _monoid_homs(add, 0, c_size, c_add, c_zero) == expected


# Every count the package reads, each by a call on the boolean semiring:
# (the function that reads it, the count's name, the error a value that is
# not an integer raises, the call on a value, and a count it takes). The
# call returns what the count is stored in, where it is stored.
_COUNTS = [
    ("congruence_closure", "width", MalformedTable,
     lambda s, v: congruence_closure(v, []), 2),
    ("bimorphisms", "c_size", MalformedTable,
     lambda s, v: bimorphisms(module_over_self(s), module_over_self(s), v,
                              [[0, 1], [1, 1]], 0), 2),
    ("joined", "mask", MalformedTable,
     lambda s, v: congruence_closure(2, [(1, 2)]).joined(0, v), 1),
    ("load_algebra", "'size'", MalformedTable,
     lambda s, v: load_algebra({**semiring_to_dict(s), "size": v}), 2),
    ("commutative_monoids_upto", "bound", ValueError,
     lambda s, v: commutative_monoids_upto(v), 2),
    ("enumerate_modules", "size_bound", ValueError,
     lambda s, v: enumerate_modules(s, v), 2),
    ("full_embedding_check", "size_bound", ValueError,
     lambda s, v: full_embedding_check(SemiringHom(s, s, (0, 1)),
                                       size_bound=v), 1),
    ("enumerate_projective_classes", "n_max", ValueError,
     lambda s, v: enumerate_projective_classes(s, v).n_max, 1),
    ("k0_report", "n_max", ValueError,
     lambda s, v: canonical_dumps(k0_report(s, v)), 1),
    ("k0_stability", "n_max", ValueError,
     lambda s, v: k0_stability(s, (1, v)), 1),
    ("completion_from_triples", "n_generators", ValueError,
     lambda s, v: completion_from_triples(v, []), 1),
    ("AbelianGroupSNF", "rank", ValueError,
     lambda s, v: AbelianGroupSNF(v, ()), 1),
    ("AbelianGroupSNF", "torsion entry", ValueError,
     lambda s, v: AbelianGroupSNF(0, (v,)), 2),
    ("equation_holds", "max_vars", ValueError,
     lambda s, v: equation_holds(lukasiewicz_chain(2), "x", "x", v), 1),
    ("gamma_property_report", "samples", ValueError,
     lambda s, v: gamma_property_report(TropicalUSemifield(Fraction(1)),
                                        v), 10),
    ("gamma_chain", "samples", ValueError,
     lambda s, v: gamma_chain(2, v)[1], 10),
    ("gamma_chain", "k", ValueError, lambda s, v: gamma_chain(v, 10)[1], 2),
    ("tropical_law_report", "samples", ValueError,
     lambda s, v: tropical_law_report(v), 10),
    ("matrix_law_report", "samples", ValueError,
     lambda s, v: matrix_law_report(s, 3, max_carrier=1, samples=v), 10),
    ("matrix_law_report", "n", ValueError,
     lambda s, v: matrix_law_report(s, v), 1),
    ("idempotent_matrices", "n", ValueError,
     lambda s, v: idempotent_matrices(s, v), 1),
    ("matrix_semiring", "n", ValueError,
     lambda s, v: matrix_semiring(s, v).n, 1),
    ("eta", "n", ValueError, lambda s, v: eta(s, v).counts, 1),
    ("is_projective_retract_oracle", "n", ValueError,
     lambda s, v: is_projective_retract_oracle(
         module_over_self(s), v).free.size, 1),
    ("is_projective_matrix_criterion", "n", ValueError,
     lambda s, v: is_projective_matrix_criterion(module_over_self(s), v).n,
     1),
    ("lukasiewicz_chain", "k", ValueError,
     lambda s, v: lukasiewicz_chain(v), 3),
    ("truncation_demo", "points", ValueError,
     lambda s, v: truncation_demo(1, v, samples=10), 1),
    ("zero_pad", "size", ValueError,
     lambda s, v: zero_pad(SemiringMatrix(s, 1, 1, ((s.one,),)), v), 2),
    ("check_bound", "max_enum", ValueError,
     lambda s, v: hom_set(module_over_self(s), module_over_self(s),
                          max_enum=v).rows.tolist(), 100),
    ("check_power_bound", "max_carrier", ValueError,
     lambda s, v: matrix_semiring(s, 1, max_carrier=v).n, 100),
]
# n=None is the generators' count for these two
_NONE_IS_A_DEFAULT = {"is_projective_retract_oracle",
                      "is_projective_matrix_criterion"}


@pytest.mark.parametrize("call,message", [
    (lambda s: enumerate_modules(s, 2.5), "size_bound=2.5"),
    (lambda s: enumerate_modules(s, True), "size_bound=True"),
    (lambda s: enumerate_modules(s, "2"), "size_bound='2'"),
    (lambda s: commutative_monoids_upto(2.5), "bound=2.5"),
    (lambda s: commutative_monoids_upto(True), "bound=True"),
] + [
    pytest.param(functools.partial(call, v=value), f"{name}={value!r}",
                 id=f"{where}-{name}={value!r}")
    for where, name, _, call, _ in _COUNTS
    for value in (2.5, True, "3", None)
    if value is not None or where not in _NONE_IS_A_DEFAULT])
def test_module_bounds_that_are_not_counts_are_refused(boolean, call,
                                                       message):
    """Every count the package reads, the module bounds among them, refuses
    2.5, True, "3" and None with check_count's message, which names it:
    MalformedTable for a count read from table data, else ValueError."""
    # 2.5 once raised a bare TypeError and True was read as 1, also from
    # the cache that 1 had filled
    commutative_monoids_upto(1)
    error = {name: error for _, name, error, _, _ in _COUNTS}[
        message.split("=")[0]]
    with pytest.raises(error, match=f"^{re.escape(message)} must be an "
                       f"integer$"):
        call(boolean)


@pytest.mark.parametrize("call,count", [
    pytest.param(call, count, id=f"{where}-{name}")
    for where, name, _, call, count in _COUNTS])
def test_counts_take_numpy_integers(boolean, call, count):
    """A NumPy integer is taken as the Python int it equals, and a count
    that is stored is stored as that int: the result's repr, in which
    NumPy 2 writes np.int64(2) for a NumPy scalar, is the int's.
    k0_report once stored n_max as given, which canonical_dumps
    refused."""
    assert repr(call(boolean, np.int64(count))) == repr(call(boolean, count))


def test_module_enumeration_guard(boolean):
    with pytest.raises(EnumGuard):
        enumerate_modules(boolean, 6)


def test_action_guard_fires_before_any_stack(monkeypatch):
    """The 5-chain has three free scalars, so two points admit 2^(2*3) =
    64 action tables; at max_enum 63 the guard fires before a two-point
    candidate is stacked or an endomorphism of two points is searched."""
    s = corpus.chain(5)
    stacked, searched = [], []
    checks, homs = mvsr.tensor._lawful_actions, mvsr.tensor._monoid_homs
    monkeypatch.setattr(mvsr.tensor, "_lawful_actions",
                        lambda s, add, acts: stacked.append(acts.shape)
                        or checks(s, add, acts))
    monkeypatch.setattr(mvsr.tensor, "_monoid_homs",
                        lambda add, *rest: searched.append(len(add))
                        or homs(add, *rest))
    with pytest.raises(EnumGuard, match="^action tables on 2 elements: 64 "
                                        "exceeds max_enum=63$"):
        enumerate_modules(s, 2, max_enum=63)
    assert stacked == [(1, 5, 1)] and searched == [1]
    modules = enumerate_modules(s, 2, max_enum=64)
    assert stacked[1:] == [(1, 5, 1), (8, 5, 2)] and searched[1:] == [1, 2]
    assert modules == _enumerate_modules_by_product(s, 2)


def test_full_embedding_for_a_quotient(boolean):
    square = corpus.square()
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    res = full_embedding_check(proj)
    assert res["modules"] == 4
    assert res["fullness_pairs"] == 16
    assert res["homs_lost_by_restriction"] == 0
    assert res["unit_iso"] == [True] * 4
    assert res["ok"]


def test_full_embedding_reads_the_hom_laws_once(boolean, monkeypatch):
    """full_embedding_check validates h itself and, through
    restrict_scalars, once more for B over A and once per test module;
    the laws of h are read by the first of these alone, and a fresh hom
    on the same tables reads them again."""
    square = corpus.square()
    reads = []
    broken = SemiringHom._broken

    def spy(h):
        reads.append(h.mapping)
        return broken.func(h)

    counted = functools.cached_property(spy)
    counted.__set_name__(SemiringHom, "_broken")
    monkeypatch.setattr(SemiringHom, "_broken", counted)
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    res = full_embedding_check(proj)
    assert res["modules"] == 4 and res["ok"]
    assert reads == [(0, 0, 1, 1)]
    SemiringHom(square, boolean, (0, 0, 1, 1)).validate()
    assert reads == [(0, 0, 1, 1)] * 2


def test_full_embedding_requires_onto(boolean):
    square = corpus.square()
    diag = SemiringHom(boolean, square, (0, 3))
    with pytest.raises(NotOnto):
        full_embedding_check(diag)


@pytest.mark.parametrize("kwargs", [
    {"size_bound": 0}, {"size_bound": -3}, {"size_bound": 2.5},
    {"size_bound": True}, {"test_modules": []},
    {"test_modules": iter(())}],
    ids=["zero", "negative", "float", "bool", "empty-list", "empty-iter"])
def test_full_embedding_refuses_a_check_on_no_modules(boolean, monkeypatch,
                                                      kwargs):
    """A bound that enumerates no module, or is no count, and an empty
    list of test modules are refused with ValueError before any module is
    enumerated or h is read: the check would pass on nothing."""
    square = corpus.square()
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    enumerated = []
    monkeypatch.setattr(mvsr.tensor, "enumerate_modules",
                        lambda *args: enumerated.append(args))
    with pytest.raises(ValueError, match="size_bound|test_modules"):
        full_embedding_check(proj, **kwargs)
    assert enumerated == [] and "_broken" not in vars(proj)


@pytest.mark.parametrize("side", ["left_modules", "right_modules"])
def test_adjunction_witness_refuses_an_empty_list(boolean, side):
    """An empty list of modules on either side is refused with a
    ValueError that names the list, where it raised TypeError from the
    naturality spot check."""
    square = corpus.square()
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    with pytest.raises(ValueError, match=f"^{side} is empty"):
        adjunction_witness(proj, **{side: []})


def _stray_by_enumeration(h, modules, restrict=restrict_scalars,
                          max_enum=10 ** 6):
    """Homs between restrictions that are not homs over the target scalars,
    counted over every pair by enumeration."""
    restricted = [restrict(h, mb) for mb in modules]
    stray = 0
    for mb, ma in zip(modules, restricted):
        for nb, na in zip(modules, restricted):
            for rows in hom_rows_by_product(ma, na, max_enum):
                stray += len(rows) - int(_hom_mask(mb, nb, rows).sum())
    return stray


def _lawless_modules(s):
    """The join semilattice 0 < p, q < t with each listed row as the
    action of every scalar but zero: each breaks a module law."""
    for row in ((0, 0, 0, 0), (0, 2, 1, 3), (0, 1, 1, 3), (0, 3, 0, 3)):
        action = [row] * s.size
        action[s.zero] = (0, 0, 0, 0)
        yield FiniteSemimodule(s, 4, corpus.DIAMOND, 0, tuple(action))


def _restrict_middle_to_zero(h, n):
    """The restriction along h with every scalar sent to the target's middle
    scalar acting as zero: not a pullback, so homs can be lost."""
    action = tuple((n.zero,) * n.size if b == 1 else n.action[b]
                   for b in h.mapping)
    return FiniteSemimodule(h.source, n.size, n.add, n.zero, action,
                            n.labels)


def _is_pullback(h, mb, ma):
    """Whether ma is mb over h's source with the action pulled back along h:
    the hypothesis of the restriction lemma."""
    return (ma.scalars is h.source and ma.size == mb.size
            and ma.add == mb.add and ma.zero == mb.zero
            and ma.action == tuple(mb.action[b] for b in h.mapping))


def test_fullness_matches_the_enumeration():
    """On the five onto maps, with every module up to size 4 and with six
    of them plus four lawless ones, every restriction is a pullback and
    the lemma's count equals the enumeration's."""
    checked = 0
    for h in corpus.scalar_maps():
        modules = enumerate_modules(h.target, 4)
        lawless = tuple(_lawless_modules(h.target))
        assert not any(check_semimodule(h.target, m).valid for m in lawless)
        for tests in (modules, modules[:6] + lawless):
            assert all(_is_pullback(h, mb, restrict_scalars(h, mb))
                       for mb in tests)
            res = full_embedding_check(h, tests)
            assert res["homs_lost_by_restriction"] == \
                _stray_by_enumeration(h, tests) == 0
            assert res["fullness_pairs"] == len(tests) ** 2
            checked += 1
    assert checked == 10


def test_the_enumeration_sees_a_restriction_that_is_not_a_pullback():
    """Sending c3's middle scalar to zero in the restriction along
    c2 x c3 -> c3 breaks the lemma's hypothesis, and the oracle counts
    the homs it loses."""
    h = corpus.onto_maps()[2]
    modules = enumerate_modules(h.target, 4)
    pulled = [_is_pullback(h, mb, _restrict_middle_to_zero(h, mb))
              for mb in modules]
    assert 0 < sum(pulled) < len(modules)
    assert _stray_by_enumeration(h, modules, _restrict_middle_to_zero) == 9040
    lawless = modules[:6] + tuple(_lawless_modules(h.target))
    assert _stray_by_enumeration(h, lawless, _restrict_middle_to_zero) > 0


# ----- the finite shadow ------------------------------------------------------

def test_truncation_demo_materialized():
    res = truncation_demo(2, 1, samples=200, seed=7)
    assert res["chain_size"] == 3
    assert res["points"] == 1
    assert res["tier"]["materialized"]
    assert res["tier"]["isomorphism"]
    assert res["gamma_certificate"]["ok"]
    assert "finite shadow" in res["label"]
    assert res["ok"]


@pytest.mark.parametrize("names", [
    ["a", "b"], ("a", "b"), np.array(["a", "b"]), (x for x in "ab"),
    {"a": 0, "b": 1}.keys()],
    ids=["list", "tuple", "ndarray", "generator", "keys"])
def test_truncation_demo_takes_any_iterable_of_names(names):
    """Any iterable but a str is a list of names, as a count of two is."""
    assert truncation_demo(2, names, samples=200, seed=7) == \
        truncation_demo(2, 2, samples=200, seed=7)


def test_truncation_demo_checks_the_chain_before_building_it():
    start = time.perf_counter()
    with pytest.raises(SizeGuard,
                       match="chain carrier: 4097 exceeds max_carrier=4096"):
        truncation_demo(4096, 1)
    with pytest.raises(SizeGuard,
                       match="chain carrier: 4 exceeds max_carrier=3"):
        truncation_demo(3, 1, max_carrier=3)
    assert time.perf_counter() - start < 0.5


def test_truncation_demo_bounds_the_free_module_by_its_max_carrier():
    """Five points over the 3-chain are 243 vectors: the caller's bound
    refuses them before the module is built, not the default one."""
    with pytest.raises(SizeGuard,
                       match="free module carrier: 243 exceeds "
                             "max_carrier=100"):
        truncation_demo(2, 5, max_carrier=100)


def test_truncation_demo_materializes_past_width_12():
    """The 3-chain's self-module and the free module on two points over it
    are 27 pairs, once refused by a count of their subsets."""
    res = truncation_demo(2, 2, samples=200, seed=7)
    assert res["tier"]["materialized"]
    assert res["tier"]["classes"] == 9
    assert res["tier"]["isomorphism"]
    assert res["ok"]


def test_truncation_demo_formula_tier():
    # the tensor would build 147 join and bottom pairs, past a bound of 100
    res = truncation_demo(2, 2, samples=200, seed=7, max_carrier=100)
    assert not res["tier"]["materialized"]
    assert res["tier"]["phi_psi_identity"]
    assert "note" in res["tier"]
    assert res["ok"]
