import itertools
import random

import pytest

import mvsr.tensor
from mvsr.errors import (EnumGuard, IllDefinedAction, NotIdempotent, NotOnto,
                         ScalarMismatch, SizeGuard)
from mvsr.mv import (lukasiewicz_chain, mv_product, quotient,
                     reduct_vee_odot)
from mvsr.projective import are_isomorphic
from mvsr.semimodule import (FiniteSemimodule, _hom_mask, _hom_plan,
                             _hom_rows, check_semimodule, free_semimodule,
                             hom_set, module_over_self, restrict_scalars,
                             trivial_module)
from mvsr.semiring import FiniteSemiring, SemiringHom, boolean_semiring, fold
from mvsr.tensor import (FreeSemilattice, SemilatticeCongruence,
                         TensorProduct, _commutative_monoid_tables,
                         _downsets, _is_monoid_hom,
                         _monoid_homs, adjunction_witness, as_module,
                         bimorphisms, check_universal_property,
                         commutative_monoids_upto, congruence_closure,
                         enumerate_modules, full_embedding_check,
                         hom_lattice_structure, hom_point_iso,
                         join_irreducibles, scalar_structures,
                         tensor_product, tensor_report, truncation_demo,
                         zeta_isomorphism)


@pytest.fixture
def boolean():
    return boolean_semiring()


@pytest.fixture
def self_mod(boolean):
    return module_over_self(boolean)


@pytest.fixture
def free2(boolean):
    return free_semimodule(boolean, ["x", "y"])


# ----- congruence machinery -------------------------------------------------

def test_closure_of_nothing_is_identity():
    lat = FreeSemilattice(("a", "b"))
    cong = congruence_closure(lat, [])
    assert len(cong) == lat.size
    assert cong.class_of == (0, 1, 2, 3)
    assert cong.union_compatibility_witness() is None


def test_closure_merges_the_join_too():
    # a ~ b forces a|b ~ b, so the two singletons and their union collapse
    lat = FreeSemilattice(("a", "b"))
    cong = congruence_closure(lat, [(1, 2)])
    assert len(cong) == 2
    assert cong.class_of[1] == cong.class_of[2] == cong.class_of[3]
    assert cong.class_of[0] != cong.class_of[1]
    assert cong.union_compatibility_witness() is None


def test_closure_bottom_equals_top_collapses_everything():
    lat = FreeSemilattice(("a", "b"))
    cong = congruence_closure(lat, [(0, 3)])
    assert len(cong) == 1


def test_closure_guard():
    lat = FreeSemilattice(tuple(range(8)))
    with pytest.raises(SizeGuard, match=r"^free semilattice carrier: 256 "
                       r"exceeds max_carrier=100$"):
        congruence_closure(lat, [], max_carrier=100)


def test_incompatible_partition_yields_a_witness():
    # glue the empty set to {a} but leave the rest alone: not a congruence
    lat = FreeSemilattice(("a", "b"))
    cong = SemilatticeCongruence(lat, (0, 0, 1, 2), (0, 2, 3), ((0, 1),))
    w = cong.union_compatibility_witness()
    assert w is not None
    a, b, c = w
    assert cong.class_of[a] == cong.class_of[b]
    assert cong.class_of[lat.join(a, c)] != cong.class_of[lat.join(b, c)]


def _subset_key(mask):
    bits = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return (len(bits), bits)


def _congruence_by_union_find(lattice, pairs):
    """(class_of, representatives, generators) of the least congruence,
    by union-find over the whole powerset: each fresh merge (a, b)
    enqueues (a|s, b|s) for every singleton s. Classes are numbered by
    their representatives' masks, each the least member under
    cardinality then member order."""
    parent = list(range(lattice.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    singles = [1 << i for i in range(len(lattice.base))]
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
    for mask in range(lattice.size):
        roots.setdefault(find(mask), []).append(mask)
    blocks = sorted((min(block, key=_subset_key), block)
                    for block in roots.values())
    class_of = [0] * lattice.size
    for index, (_, block) in enumerate(blocks):
        for mask in block:
            class_of[mask] = index
    return (tuple(class_of), tuple(rep for rep, _ in blocks), tuple(pairs))


def _agrees_with_union_find(cong):
    return (cong.class_of, cong.representatives, cong.generators) == \
        _congruence_by_union_find(cong.lattice, cong.generators)


def test_closure_matches_union_find_on_tensors(boolean):
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules
             if m.size * n.size <= 12]
    assert len(pairs) == 88
    for m, n in pairs:
        assert _agrees_with_union_find(tensor_product(m, n).congruence)


def _onto_maps():
    """The first projection of c2 x c2 onto c2, the second, and the two
    projections of c2 x c3; product elements (x, y) sit at x * |second| + y."""
    c2, c3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
    square = reduct_vee_odot(mv_product(c2, c2))
    wide = reduct_vee_odot(mv_product(c2, c3))
    boolean, chain3 = reduct_vee_odot(c2), reduct_vee_odot(c3)
    return (SemiringHom(square, boolean, (0, 0, 1, 1)),
            SemiringHom(square, boolean, (0, 1, 0, 1)),
            SemiringHom(wide, chain3, (0, 1, 2, 0, 1, 2)),
            SemiringHom(wide, boolean, (0, 0, 0, 1, 1, 1)))


def test_closure_matches_union_find_on_scalar_extensions():
    checked = 0
    for h in _onto_maps():
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
        lat = FreeSemilattice(tuple(range(width)))
        pairs = [(rng.randrange(lat.size), rng.randrange(lat.size))
                 for _ in range(rng.randrange(8))]
        cong = congruence_closure(lat, pairs)
        assert _agrees_with_union_find(cong)
        sizes.add(len(cong) == 1 or len(cong) == lat.size)
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
    lattice = tensor_product(m, n).lattice
    return TensorProduct(m, n, lattice, congruence_closure(
        lattice, _subset_generators(m, n)))


def _same_classes(t, u):
    return (t.congruence.class_of, t.congruence.representatives) == \
        (u.congruence.class_of, u.congruence.representatives)


def test_binary_joins_generate_the_subset_congruence(boolean):
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules
             if m.size * n.size <= 12]
    assert len(pairs) == 88
    for m, n in pairs:
        t, oracle = tensor_product(m, n), _tensor_by_subset_generators(m, n)
        assert len(t.congruence.generators) < len(oracle.congruence.generators)
        assert _same_classes(t, oracle)
        assert as_module(t) == as_module(oracle)


def test_binary_joins_generate_the_subset_congruence_on_scalar_extensions():
    checked = 0
    for h in _onto_maps():
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


# ----- the tensor product ---------------------------------------------------

def test_scalars_tensor_scalars(boolean, self_mod):
    t = tensor_product(self_mod, self_mod)
    assert t.class_count == 2
    assert t.tensor(0, 0) == t.tensor(0, 1) == t.tensor(1, 0) == t.zero_class
    assert t.tensor(1, 1) != t.zero_class
    assert t.generated_by_tensors()
    assert t.congruence.union_compatibility_witness() is None
    assert are_isomorphic(as_module(t), self_mod) is not None


def test_tensor_with_trivial_is_trivial(boolean, free2):
    t = tensor_product(free2, trivial_module(boolean))
    assert t.class_count == 1


def test_scalars_are_a_tensor_unit(boolean, self_mod):
    for m in enumerate_modules(boolean, 3):
        t = tensor_product(self_mod, m)
        assert are_isomorphic(as_module(t), m) is not None


def test_tensor_needs_common_scalars(self_mod):
    three = reduct_vee_odot(lukasiewicz_chain(3))
    with pytest.raises(ScalarMismatch):
        tensor_product(self_mod, module_over_self(three))


def test_tensor_needs_idempotent_addition():
    mod2 = FiniteSemiring(2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)
    m = module_over_self(mod2)
    with pytest.raises(NotIdempotent):
        tensor_product(m, m)


def test_tensor_carrier_guard(self_mod, free2):
    with pytest.raises(SizeGuard):
        tensor_product(free2, free2, max_carrier=8)


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
        for mask in range(t.lattice.size):
            img = 0
            for i in t.lattice.members(mask):
                x, y = t.lattice.base[i]
                if slot == "left":
                    img |= 1 << t.pair_index(moved[x], y)
                else:
                    img |= 1 << t.pair_index(x, moved[y])
            c, ic = cong.class_of[mask], cong.class_of[img]
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
    three = module_over_self(reduct_vee_odot(lukasiewicz_chain(3)))
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
    cong, base = t.congruence, t.lattice.base
    rows = []
    for b in range(scalars.size):
        move = action[b]

        def image(mask):
            return t.class_of_pairs((move[base[i][0]], base[i][1])
                                    for i in t.lattice.members(mask))

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
    three = module_over_self(reduct_vee_odot(lukasiewicz_chain(3)))
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


def test_scalar_extensions_match_the_sweep():
    square = mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))
    sq = reduct_vee_odot(square)
    toward = quotient(square, (0, 1))
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


# ----- bimorphisms and the universal property --------------------------------

def test_join_irreducibles_of_the_free_square(free2):
    assert join_irreducibles(free2.add, free2.zero) == (1, 2)


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


def test_bimorphisms_match_the_ji_pair_search(boolean, self_mod):
    modules = enumerate_modules(boolean, 4)
    pairs = [(m, n) for m in modules for n in modules if m.size * n.size <= 8]
    assert len(pairs) == 48
    # balance only bites over scalars other than the booleans
    chain3 = enumerate_modules(reduct_vee_odot(lukasiewicz_chain(3)), 3)
    pairs += [(m, n) for m in chain3 for n in chain3]
    # the left joins only fail to hold by construction on a factor that is
    # not distributive, the smallest of which have five elements
    fives = []
    for m in enumerate_modules(boolean, 5):
        if m.size == 5 and all(are_isomorphic(m, r) is None for r in fives):
            fives.append(m)
    assert len(fives) == 5
    pairs += [(m, self_mod) for m in fives] + [(self_mod, m) for m in fives]
    kept = 0
    for m, n in pairs:
        targets = list(commutative_monoids_upto(3))
        targets += [(m.size, m.add, m.zero), (n.size, n.add, n.zero)]
        for c_size, c_add, c_zero in targets:
            found = bimorphisms(m, n, c_size, c_add, c_zero)
            assert found == _bimorphisms_by_ji_pairs(m, n, c_size, c_add,
                                                     c_zero)
            kept += len(found)
    assert kept > 0


def test_bimorphisms_of_a_trivial_left_factor(boolean, free2, monkeypatch):
    def refuse(*args):
        raise AssertionError("Hom(N, C) enumerated for a trivial factor")
    monkeypatch.setattr(mvsr.tensor, "_monoid_homs", refuse)
    zero = trivial_module(boolean)
    for c_size, c_add, c_zero in commutative_monoids_upto(3):
        assert bimorphisms(zero, free2, c_size, c_add, c_zero) == \
            ((c_zero,) * free2.size,)


def test_bimorphism_guard(free2):
    big = free_semimodule(boolean_semiring(), list("pqrs"))
    with pytest.raises(EnumGuard, match=r"^bimorphism candidates: "
                       r"43046721 exceeds max_enum=1000$"):
        bimorphisms(big, big, 3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0,
                    max_enum=1000)


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
        top = t.lattice.size - 1
        collapsed = TensorProduct(m, n, t.lattice,
                                  congruence_closure(t.lattice, [(0, top)]))
        verdict = check_universal_property(collapsed)
        assert verdict == _universal_property_by_scan(collapsed)
        collapsed_existence += verdict["existence_failures"]
    assert collapsed_existence > 0
    three = module_over_self(reduct_vee_odot(lukasiewicz_chain(3)))
    t = tensor_product(three, three)
    assert check_universal_property(t) == _universal_property_by_scan(t)


def test_class_of_pairs_joins_tensors(free2, self_mod):
    t = tensor_product(free2, self_mod)
    for x in range(free2.size):
        for y in range(self_mod.size):
            assert t.class_of_pairs([(x, y)]) == t.tensor(x, y)
    assert t.class_of_pairs([]) == t.zero_class
    assert t.class_of_pairs([(1, 1), (2, 1)]) == \
        t.join(t.tensor(1, 1), t.tensor(2, 1))


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
    three = reduct_vee_odot(lukasiewicz_chain(3))
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    assert len(hom_point_iso(module_over_self(three)).homs) == 3
    assert hom_point_iso(module_over_self(three)).ok
    assert len(hom_point_iso(module_over_self(square)).homs) == 4
    assert hom_point_iso(module_over_self(square)).ok
    assert len(hom_point_iso(trivial_module(boolean)).homs) == 1


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
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    res = adjunction_witness(proj)
    assert res["ok"]
    for p in res["pairs"]:
        assert p["left_counts"][0] == p["left_counts"][1]
        assert p["right_counts"][0] == p["right_counts"][1]


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


def test_module_enumeration_matches_the_product_loop(boolean):
    chain = lambda k: reduct_vee_odot(lukasiewicz_chain(k))
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    for s, bound, count in ((boolean, 5, 89), (chain(3), 4, 33),
                            (chain(4), 3, 6), (square, 3, 7)):
        modules = enumerate_modules(s, bound)
        assert len(modules) == count
        assert modules == _enumerate_modules_by_product(s, bound)


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


def test_module_enumeration_guard(boolean):
    with pytest.raises(EnumGuard):
        enumerate_modules(boolean, 6)


def test_full_embedding_for_a_quotient(boolean):
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    proj = SemiringHom(square, boolean, (0, 0, 1, 1))
    res = full_embedding_check(proj)
    assert res["modules"] == 4
    assert res["fullness_pairs"] == 16
    assert res["homs_lost_by_restriction"] == 0
    assert res["unit_iso"] == [True] * 4
    assert res["ok"]


def test_full_embedding_requires_onto(boolean):
    square = reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                        lukasiewicz_chain(2)))
    diag = SemiringHom(boolean, square, (0, 3))
    with pytest.raises(NotOnto):
        full_embedding_check(diag)


def _stray_by_enumeration(h, modules, restrict=restrict_scalars,
                          max_enum=10 ** 6):
    """Homs between restrictions that are not homs over the target scalars,
    counted over every pair by enumeration."""
    restricted = [restrict(h, mb) for mb in modules]
    stray = 0
    for mb, ma in zip(modules, restricted):
        plan = _hom_plan(ma)
        for nb, na in zip(modules, restricted):
            for rows in _hom_rows(ma, na, max_enum, plan):
                stray += len(rows) - int(_hom_mask(mb, nb, rows).sum())
    return stray


def _embedding_maps():
    """The four maps of _onto_maps and the quotient of c2 x c2 by the ideal
    {0, (0, 1)}."""
    square = mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))
    toward = quotient(square, (0, 1))
    return _onto_maps() + (SemiringHom(reduct_vee_odot(square),
                                       reduct_vee_odot(toward.algebra),
                                       toward.hom.mapping),)


def _lawless_modules(s):
    """The join semilattice 0 < p, q < t with each listed row as the
    action of every scalar but zero: each breaks a module law."""
    add = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    for row in ((0, 0, 0, 0), (0, 2, 1, 3), (0, 1, 1, 3), (0, 3, 0, 3)):
        action = [row] * s.size
        action[s.zero] = (0, 0, 0, 0)
        yield FiniteSemimodule(s, 4, add, 0, tuple(action))


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
    for h in _embedding_maps():
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
    h = _onto_maps()[2]
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


def test_truncation_demo_formula_tier():
    res = truncation_demo(2, 2, samples=200, seed=7)
    assert not res["tier"]["materialized"]
    assert res["tier"]["phi_psi_identity"]
    assert "note" in res["tier"]
    assert res["ok"]
