"""Tensor products of semimodules over additively idempotent scalars.

The free semilattice on the pair set M x N is the powerset under union,
coded as bitmasks. The tensor congruence is the least semilattice
congruence that collapses a binary join in either slot to the union of its
two pairs, a bottom in either slot to the empty subset (which is why
tensors absorb either bottom), and slides a scalar across the pair; by
induction the binary joins and bottoms collapse every finite join. It is
found by its closed sets, not by merging subsets: each generating pair
becomes two implications, the closed sets are enumerated one singleton
step at a time, and every subset is then classed by one table lookup. The
tensor product is the quotient, with the least subset per class, under
cardinality then member order, as its canonical representative. The
congruence keeps the pairs it was closed on, and scalars act on the
quotient through the left slot: a scalar moves each class's
representative, and the action is checked well defined on those generating
pairs alone, never on the whole powerset.

Everything downstream is verified by enumeration, with one enumerator of
monoid homs out of a join table behind every semilattice search:
bimorphisms are curried through Hom(N, C), the homomorphisms out of the
quotient are enumerated once per target monoid and counted by their values
on pure tensors, each scalar's action row is drawn from End(M, +), and the
hom-tensor bijections are checked in both directions. Fullness of
restriction is the exception: it holds by the restriction lemma, and the
enumeration that confirms it lives in the tests. Only commutative scalars
are exercised; right modules are identified with left ones throughout.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT_SEED, MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, IllDefinedAction, NotAHom, NotIdempotent,
                     NotOnto, ScalarMismatch, SizeGuard, check_bound)
from .jsonio import semimodule_to_dict
from .mv import gamma_chain, reduct_wedge_oplus
from .semimodule import (FiniteSemimodule, HomSemilattice, SemimoduleHom,
                         _module_laws_hold, check_semimodule,
                         free_semimodule, hom_set, iter_homs,
                         module_over_self, restrict_scalars, trivial_module)
from .semiring import (FiniteSemiring, SemiringHom, fold,
                       is_additively_idempotent, same_scalars)
from .semiring import AxiomReport


# ----- free semilattices and their congruences ----------------------------

@dataclass(frozen=True)
class FreeSemilattice:
    """Powerset of the base with union; subsets are bitmasks."""

    base: Tuple

    @property
    def size(self) -> int:
        return 1 << len(self.base)

    def join(self, a: int, b: int) -> int:
        return a | b

    def members(self, mask: int) -> Tuple[int, ...]:
        return tuple(i for i in range(len(self.base)) if mask >> i & 1)


@dataclass(frozen=True)
class SemilatticeCongruence:
    """Partition of a free semilattice, compatible with union, with the
    subset pairs it was closed on."""

    lattice: FreeSemilattice
    class_of: Tuple[int, ...]
    representatives: Tuple[int, ...]
    generators: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.representatives)

    def union_compatibility_witness(self) -> Optional[Tuple[int, int, int]]:
        """First (a, b, c) with a ~ b but a|c !~ b|c, or None."""
        cls = np.array(self.class_of, dtype=np.intp)
        masks = np.arange(self.lattice.size, dtype=np.intp)
        reps = np.array([self.representatives[c] for c in self.class_of],
                        dtype=np.intp)
        for c in range(self.lattice.size):
            bad = np.nonzero(cls[masks | c] != cls[reps | c])[0]
            if bad.size:
                a = int(bad[0])
                return (a, self.representatives[self.class_of[a]], c)
        return None


def congruence_closure(lattice: FreeSemilattice,
                       pairs: Sequence[Tuple[int, int]],
                       max_carrier: int = MAX_CARRIER) -> SemilatticeCongruence:
    """Least semilattice congruence containing the given subset pairs.

    Each pair (u, v) is read as the implications u => v and v => u, and two
    subsets are congruent exactly when their closures under them agree
    (Ganter & Wille, Formal Concept Analysis). Only the closed sets are
    enumerated: the closure of the empty set, then each closed set joined
    once with every singleton, into a step table. A mask's class is one
    lookup, the step from the class of the mask without its top bit. Each
    class is represented by its first mask in itertools.combinations order,
    the least under cardinality then member order, and classes are
    numbered in the order of their representatives' masks.
    """
    total = lattice.size
    check_bound(SizeGuard, "free semilattice carrier", total, "max_carrier",
                max_carrier)
    generators = tuple(pairs)
    rules = sorted({(u, v) for a, b in generators for u, v in ((a, b), (b, a))
                    if v & ~u})

    def close(mask: int) -> int:
        pending = rules
        while True:
            grown, rest = mask, []
            for u, v in pending:
                if grown & u == u:
                    grown |= v
                else:
                    rest.append((u, v))
            if grown == mask:
                return mask
            mask, pending = grown, rest

    width = len(lattice.base)
    closed = [close(0)]
    index = {closed[0]: 0}
    step: List[List[int]] = []
    while len(step) < len(closed):
        c = closed[len(step)]
        row = []
        for i in range(width):
            joined = c | 1 << i
            if joined != c:
                joined = close(joined)
            k = index.get(joined)
            if k is None:
                k = index[joined] = len(closed)
                closed.append(joined)
            row.append(k)
        step.append(row)

    closed_of = [0]
    for i in range(width):
        column = [row[i] for row in step]
        closed_of += [column[c] for c in closed_of]

    reps: List[Optional[int]] = [None] * len(closed)
    missing = len(closed)
    for k in range(width + 1):
        for members in itertools.combinations(range(width), k):
            mask = sum(1 << i for i in members)
            if reps[closed_of[mask]] is None:
                reps[closed_of[mask]] = mask
                missing -= 1
        if not missing:
            break
    order = sorted(range(len(closed)), key=reps.__getitem__)
    rank = [0] * len(closed)
    for new, old in enumerate(order):
        rank[old] = new
    return SemilatticeCongruence(lattice, tuple(rank[c] for c in closed_of),
                                 tuple(reps[c] for c in order), generators)


# ----- the tensor product --------------------------------------------------

@dataclass(frozen=True)
class TensorProduct:
    left: FiniteSemimodule
    right: FiniteSemimodule
    lattice: FreeSemilattice
    congruence: SemilatticeCongruence

    @property
    def class_count(self) -> int:
        return len(self.congruence)

    def pair_index(self, x: int, y: int) -> int:
        return x * self.right.size + y

    def tensor(self, x: int, y: int) -> int:
        return self.congruence.class_of[1 << self.pair_index(x, y)]

    @property
    def zero_class(self) -> int:
        return self.congruence.class_of[0]

    def join(self, c: int, d: int) -> int:
        reps = self.congruence.representatives
        return self.congruence.class_of[reps[c] | reps[d]]

    def pairs_of(self, c: int) -> Tuple[Tuple[int, int], ...]:
        """Pairs of the canonical representative subset."""
        rep = self.congruence.representatives[c]
        return tuple(self.lattice.base[i] for i in self.lattice.members(rep))

    @cached_property
    def join_table(self) -> Tuple[Tuple[int, ...], ...]:
        n = self.class_count
        return tuple(tuple(self.join(c, d) for d in range(n))
                     for c in range(n))

    def class_of_pairs(self, pairs) -> int:
        """Class of the join of the tensors of the given pairs."""
        mask = 0
        for (x, y) in pairs:
            mask |= 1 << self.pair_index(x, y)
        return self.congruence.class_of[mask]

    def extend(self, g, add, zero: int) -> Tuple[int, ...]:
        """For each class, the fold of g(x, y) over its representative's
        pairs under the addition table add."""
        return tuple(fold(add, zero, [g(x, y) for (x, y) in self.pairs_of(c)])
                     for c in range(self.class_count))

    def generated_by_tensors(self) -> bool:
        """Every class is the join of the tensors of its representative."""
        return self.extend(self.tensor, self.join_table, self.zero_class) \
            == tuple(range(self.class_count))


def tensor_product(m: FiniteSemimodule, n: FiniteSemimodule,
                   max_carrier: int = MAX_CARRIER) -> TensorProduct:
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("tensor factors need a common scalar semiring")
    if not is_additively_idempotent(m.scalars):
        raise NotIdempotent("tensor products need additively idempotent "
                            "scalars")
    base = tuple((x, y) for x in range(m.size) for y in range(n.size))
    lattice = FreeSemilattice(base)
    check_bound(SizeGuard, "free semilattice carrier", lattice.size,
                "max_carrier", max_carrier)

    def p(x: int, y: int) -> int:
        return x * n.size + y

    pairs: List[Tuple[int, int]] = []
    for y in range(n.size):
        pairs.append((1 << p(m.zero, y), 0))
        pairs += [(1 << p(m.plus(x, w), y), 1 << p(x, y) | 1 << p(w, y))
                  for x, w in itertools.combinations(range(m.size), 2)]
    for x in range(m.size):
        pairs.append((1 << p(x, n.zero), 0))
        pairs += [(1 << p(x, n.plus(y, w)), 1 << p(x, y) | 1 << p(x, w))
                  for y, w in itertools.combinations(range(n.size), 2)]
    for a in range(m.scalars.size):
        for x in range(m.size):
            for y in range(n.size):
                pairs.append((1 << p(m.act(a, x), y), 1 << p(x, n.act(a, y))))

    return TensorProduct(m, n, lattice,
                         congruence_closure(lattice, pairs, max_carrier))


def _class_labels(t: TensorProduct) -> Tuple[str, ...]:
    out = []
    for c in range(t.class_count):
        ps = t.pairs_of(c)
        if not ps:
            out.append("0")
        else:
            out.append("+".join(f"({t.left.label(x)}*{t.right.label(y)})"
                                for x, y in ps))
    return tuple(out)


def scalar_structures(t: TensorProduct, scalars: FiniteSemiring,
                      action) -> FiniteSemimodule:
    """The quotient as a module over scalars acting on the left slot:
    action[b][x] is b moving x, and b sends a class to the class of its
    moved representative.

    Moving a subset pair by pair preserves unions, so the subset pairs
    (u, v) whose moved images are congruent form a union-compatible
    equivalence. It contains the congruence exactly when it contains the
    congruence's generating pairs, the congruence being the least such
    relation holding them; so well-definedness is checked on those pairs
    alone. Right actions are identified with left ones, since x tensor
    (a y) = (a x) tensor y.

    Every generating pair and representative is moved by every scalar at
    once: bit i of a mask, the pair (x, y), becomes 1 << p(b x, y) through
    a per-bit table, and the moved bits are or-ed together.
    """
    cong, base = t.congruence, t.lattice.base
    gen_count = len(cong.generators)
    # past 62 pairs the masks outgrow int64: Python integers
    width = np.int64 if len(base) < 63 else object
    masks = np.array([w for pair in cong.generators for w in pair]
                     + list(cong.representatives), dtype=width)
    bits = ((masks[:, None] >> np.arange(len(base), dtype=width)) & 1) \
        .astype(bool)
    xs = np.array([x for x, _ in base], dtype=np.intp)
    ys = np.array([y for _, y in base], dtype=np.intp)
    move = np.array([action[b] for b in range(scalars.size)], dtype=np.intp)
    table = np.ones(1, dtype=width) << (move[:, xs] * t.right.size + ys) \
        .astype(width)
    moved = np.bitwise_or.reduce(np.where(bits, table[:, None, :], 0), axis=2)
    classes = np.array(cong.class_of, dtype=np.intp)[moved.astype(np.intp)]
    cu, cv = classes[:, 0:2 * gen_count:2], classes[:, 1:2 * gen_count:2]
    bad = np.argwhere(cu != cv)
    if len(bad):
        b, k = (int(i) for i in bad[0])
        u, v = cong.generators[k]
        raise IllDefinedAction(
            f"scalar {b} sends the generating pair of subsets "
            f"({u}, {v}) to distinct classes {int(cu[b, k])} and "
            f"{int(cv[b, k])}")
    rows = tuple(tuple(row) for row in classes[:, 2 * gen_count:].tolist())
    return FiniteSemimodule(scalars, t.class_count, t.join_table, t.zero_class,
                            rows, _class_labels(t))


def as_module(t: TensorProduct) -> FiniteSemimodule:
    """The quotient as a module over the common scalars."""
    return scalar_structures(t, t.left.scalars, t.left.action)


# ----- bimorphisms and the universal property ------------------------------

def join_irreducibles(add, zero: int) -> Tuple[int, ...]:
    """Elements of a join table other than zero that are not the join of
    two other elements."""
    size = len(add)
    reducible = {add[a][b] for a in range(size) for b in range(size)
                 if add[a][b] != a and add[a][b] != b}
    return tuple(x for x in range(size) if x != zero and x not in reducible)


def _downsets(add, elements: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """For each x of a join table, the positions i with elements[i] <= x."""
    return tuple(tuple(i for i, e in enumerate(elements) if add[e][x] == x)
                 for x in range(len(add)))


def _is_monoid_hom(v, join, zero: int, c_add, c_zero: int) -> bool:
    """v sends zero to the monoid zero and joins to sums."""
    size = len(join)
    return v[zero] == c_zero and all(
        v[join[c][d]] == c_add[v[c]][v[d]]
        for c in range(size) for d in range(size))


def _monoid_homs(add, zero: int, c_size: int, c_add, c_zero: int
                 ) -> Tuple[Tuple[int, ...], ...]:
    """Every monoid hom out of the join table add into C, in lexicographic
    order: the folds of its values on the join-irreducibles that send zero
    to the monoid zero and joins to sums."""
    ji = join_irreducibles(add, zero)
    below = _downsets(add, ji)
    found = set()
    for g in itertools.product(range(c_size), repeat=len(ji)):
        v = tuple(fold(c_add, c_zero, [g[i] for i in d]) for d in below)
        if _is_monoid_hom(v, add, zero, c_add, c_zero):
            found.add(v)
    return tuple(sorted(found))


def bimorphisms(m: FiniteSemimodule, n: FiniteSemimodule,
                c_size: int, c_add, c_zero: int,
                max_enum: int = MAX_ENUM) -> Tuple[Tuple[int, ...], ...]:
    """All bimorphisms M x N -> C as flat tables, row-major over pairs.

    The search is curried through Hom(N, C), as in hom(M tensor N, C) =
    hom(M, hom(N, C)): each row f(x, -) is a monoid hom N -> C, the
    pointwise sum of the homs f assigns to the join-irreducibles below x.
    Hom(N, C) is enumerated once and each assignment of it to JI(M) is
    folded into a table, so the right slot's bottom and binary joins hold
    by construction. A table is kept when every column f(-, y) is a monoid
    hom out of M and f balances, f(a x, y) = f(x, a y); bottoms and binary
    joins generate the finite-subset forms by induction. The guard's
    c^(|JI(M)|*|JI(N)|) bounds |Hom(N, C)|^|JI(M)| and, once JI(M) is
    nonempty, the c^|JI(N)| candidates of Hom(N, C); with JI(M) empty, M is
    trivial and only the zero table is tried.
    """
    ji_m = join_irreducibles(m.add, m.zero)
    ji_n = join_irreducibles(n.add, n.zero)
    check_bound(EnumGuard, "bimorphism candidates",
                c_size ** (len(ji_m) * len(ji_n)), "max_enum", max_enum)

    homs = _monoid_homs(n.add, n.zero, c_size, c_add, c_zero) if ji_m else ()
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


def _monoid_canonical(size: int, table) -> Tuple:
    best = None
    for perm in itertools.permutations(range(1, size)):
        relabel = (0,) + perm
        inverse = [0] * size
        for i, v in enumerate(relabel):
            inverse[v] = i
        moved = tuple(tuple(relabel[table[inverse[i]][inverse[j]]]
                            for j in range(size)) for i in range(size))
        if best is None or moved < best:
            best = moved
    return best


def _commutative_monoid_tables(size: int, idempotent: bool, max_enum: int):
    """Every associative commutative table on 0..size-1 with 0 as its
    identity, in lexicographic order of the free cells; with idempotent
    set, x + x = x is fixed instead of enumerated."""
    cells = [(i, j) for i in range(1, size)
             for j in range(i + 1 if idempotent else i, size)]
    check_bound(EnumGuard, f"monoid tables on {size} elements",
                size ** len(cells), "max_enum", max_enum)
    for values in itertools.product(range(size), repeat=len(cells)):
        table = [[0] * size for _ in range(size)]
        for i in range(size):
            table[i][i] = i
            table[0][i] = table[i][0] = i
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        if all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(size) for y in range(size)
               for z in range(size)):
            yield tuple(tuple(r) for r in table)


@lru_cache(maxsize=None)
def commutative_monoids_upto(bound: int = 3) -> Tuple[Tuple[int, Tuple, int], ...]:
    """All commutative monoids of size <= bound, one per isomorphism class.

    Zero is normalized to element 0; deduplication is by the least table
    under relabelings fixing 0.
    """
    out = []
    for size in range(1, bound + 1):
        seen = set()
        for table in _commutative_monoid_tables(size, False, MAX_ENUM):
            canon = _monoid_canonical(size, table)
            if canon not in seen:
                seen.add(canon)
                out.append((size, canon, 0))
    return tuple(out)


def check_universal_property(t: TensorProduct,
                             max_enum: int = MAX_ENUM) -> Dict[str, object]:
    """Factor every bimorphism into every test monoid through the quotient.

    Test targets are the commutative monoids of size up to three plus the
    additive monoids of the two factors. Per target, the monoid homs out
    of the quotient are enumerated once, as folds of their values on the
    join-irreducible classes, and counted by their values on pure tensors.
    A bimorphism factors when its count is nonzero and factors uniquely
    when the count is one.
    """
    family = list(commutative_monoids_upto(3))
    family.append((t.left.size, t.left.add, t.left.zero))
    family.append((t.right.size, t.right.add, t.right.zero))

    join = t.join_table
    tensors = [t.tensor(x, y)
               for x in range(t.left.size) for y in range(t.right.size)]
    ji_count = len(join_irreducibles(join, t.zero_class))

    bim_count = 0
    existence_failures = 0
    uniqueness_failures = 0
    for (c_size, c_add, c_zero) in family:
        check_bound(EnumGuard, "candidate homs out of the quotient",
                    c_size ** ji_count, "max_enum", max_enum)
        hits = Counter(tuple(v[tc] for tc in tensors)
                       for v in _monoid_homs(join, t.zero_class, c_size,
                                             c_add, c_zero))
        for f in bimorphisms(t.left, t.right, c_size, c_add, c_zero, max_enum):
            bim_count += 1
            existence_failures += hits[f] == 0
            uniqueness_failures += hits[f] != 1
    return {"monoids": len(family), "bimorphisms": bim_count,
            "existence_failures": existence_failures,
            "uniqueness_failures": uniqueness_failures,
            "ok": existence_failures == 0 and uniqueness_failures == 0}


# ----- hom-set structure and the hom-tensor bijections ---------------------

def _mutually_inverse(forward: Sequence[int], backward: Sequence[int]) -> bool:
    """backward undoes forward and forward undoes backward, as index maps."""
    return (all(backward[forward[i]] == i for i in range(len(forward)))
            and all(forward[backward[j]] == j for j in range(len(backward))))


@dataclass(frozen=True)
class HomLatticeModule:
    module: FiniteSemimodule
    laws: AxiomReport


def hom_lattice_structure(homs: HomSemilattice, b: FiniteSemiring,
                          b_action) -> HomLatticeModule:
    """Act on homs through a commuting right action on their source:
    (b * h)(x) = h(x * b). b_action[b][x] gives x * b."""
    rows = []
    for scalar in range(b.size):
        moved = b_action[scalar]
        row = []
        for h in homs:
            image = tuple(h.mapping[moved[x]] for x in range(len(h.mapping)))
            try:
                row.append(homs.position(image))
            except KeyError:
                raise NotAHom(f"scalar {scalar} does not send homs to homs; "
                              "the source is not a bisemimodule")
        rows.append(tuple(row))
    labels = tuple(",".join(map(str, h.mapping)) for h in homs)
    module = FiniteSemimodule(b, len(homs), homs.add_table, homs.zero_index,
                              tuple(rows), labels)
    return HomLatticeModule(module, check_semimodule(b, module))


@dataclass(frozen=True)
class ZetaResult:
    """Currying bijection between hom-sets, with its inverse."""

    outer: HomSemilattice
    inner: HomSemilattice
    curried: HomSemilattice
    forward: Tuple[int, ...]
    backward: Tuple[int, ...]
    join_preserving: bool

    @property
    def bijective(self) -> bool:
        return (len(self.backward) == len(self.curried) == len(self.forward)
                and _mutually_inverse(self.forward, self.backward))

    @property
    def ok(self) -> bool:
        return self.bijective and self.join_preserving


def zeta_isomorphism(m: FiniteSemimodule, n: FiniteSemimodule,
                     p: FiniteSemimodule, variant: str = "plain",
                     max_enum: int = MAX_ENUM,
                     max_carrier: int = MAX_CARRIER) -> ZetaResult:
    """hom(M tensor N, P) against hom(M, hom(N, P)) by currying the left
    slot; the primed variant curries the right slot instead."""
    if variant not in ("plain", "primed"):
        raise ValueError("variant must be 'plain' or 'primed'")
    t = tensor_product(m, n, max_carrier)
    tm = as_module(t)
    outer = hom_set(tm, p, max_enum)
    first, second = (m, n) if variant == "plain" else (n, m)
    inner = hom_set(second, p, max_enum)
    inner_mod = inner.to_module()
    curried = hom_set(first, inner_mod, max_enum)

    def pair(u: int, v: int) -> int:
        return t.tensor(u, v) if variant == "plain" else t.tensor(v, u)

    forward = []
    for h in outer:
        slices = []
        for u in range(first.size):
            image = tuple(h.mapping[pair(u, v)] for v in range(second.size))
            try:
                slices.append(inner.position(image))
            except KeyError:
                raise NotAHom("curried slice fails to be a homomorphism")
        try:
            forward.append(curried.position(tuple(slices)))
        except KeyError:
            raise NotAHom("curried map fails to be a homomorphism")

    backward = []
    for k in curried:
        def uncurried(x: int, y: int) -> int:
            u, v = (x, y) if variant == "plain" else (y, x)
            return inner[k.mapping[u]].mapping[v]
        try:
            backward.append(outer.position(
                t.extend(uncurried, p.add, p.zero)))
        except KeyError:
            raise NotAHom("uncurried map fails to be a homomorphism")

    join_ok = all(forward[outer.plus(i, j)]
                  == curried.plus(forward[i], forward[j])
                  for i in range(len(outer)) for j in range(len(outer)))
    return ZetaResult(outer, inner, curried, tuple(forward), tuple(backward),
                      join_ok)


@dataclass(frozen=True)
class HomPointIso:
    """hom(A, M) against M: evaluate at 1, send x to its orbit map."""

    homs: HomSemilattice
    phi: Tuple[int, ...]
    psi: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return _mutually_inverse(self.phi, self.psi)


def hom_point_iso(m: FiniteSemimodule,
                  max_enum: int = MAX_ENUM) -> HomPointIso:
    s = m.scalars
    base = module_over_self(s)
    homs = hom_set(base, m, max_enum)
    phi = tuple(homs.position(tuple(m.act(a, x) for a in range(s.size)))
                for x in range(m.size))
    psi = tuple(h.mapping[s.one] for h in homs)
    return HomPointIso(homs, phi, psi)


# ----- change of scalars ----------------------------------------------------

def _extend_scalars(h: SemiringHom, m: FiniteSemimodule,
                    max_carrier: int) -> Tuple[TensorProduct, FiniteSemimodule]:
    """B tensor M over A, with B = h.target acting on the left slot."""
    t = tensor_product(restrict_scalars(h, module_over_self(h.target)), m,
                       max_carrier)
    return t, scalar_structures(t, h.target, h.target.mul)


def _tensor_unit(t: TensorProduct, one: int) -> Tuple[int, ...]:
    return tuple(t.tensor(one, x) for x in range(t.right.size))


def adjunction_witness(h: SemiringHom,
                       left_modules: Optional[Sequence[FiniteSemimodule]] = None,
                       right_modules: Optional[Sequence[FiniteSemimodule]] = None,
                       max_enum: int = MAX_ENUM,
                       max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Counts and explicit bijections for both adjoints of restriction.

    For each test pair, extension of scalars against restriction gives
    hom(B tensor M, N) = hom(M, N restricted); the hom-module of the
    source semiring gives the right adjoint the same way.
    """
    h.validate()
    a, b = h.source, h.target
    mods_a = list(left_modules) if left_modules is not None else \
        [module_over_self(a), trivial_module(a)]
    mods_b = list(right_modules) if right_modules is not None else \
        [module_over_self(b), trivial_module(b)]
    b_over_a = restrict_scalars(h, module_over_self(b))

    pairs = []
    unit_flags = []
    spot = None
    for m in mods_a:
        t, extended = _extend_scalars(h, m, max_carrier)
        unit = _tensor_unit(t, b.one)
        homs_bm = hom_set(b_over_a, m, max_enum)
        lifted = hom_lattice_structure(
            homs_bm, b,
            tuple(tuple(b.mul[x][scalar] for x in range(b.size))
                  for scalar in range(b.size))).module
        for n in mods_b:
            restricted = restrict_scalars(h, n)
            outer = hom_set(extended, n, max_enum)
            if spot is None:
                spot = (m, t, unit, outer)
            inner = hom_set(m, restricted, max_enum)
            forward = []
            for g in outer:
                mapping = tuple(g.mapping[unit[x]] for x in range(m.size))
                forward.append(inner.position(mapping))
            backward = []
            for f in inner:
                values = t.extend(lambda pb, x: n.act(pb, f.mapping[x]),
                                  n.add, n.zero)
                backward.append(outer.position(values))
            left_bij = _mutually_inverse(forward, backward)

            co_outer = hom_set(restricted, m, max_enum)
            co_inner = hom_set(n, lifted, max_enum)
            co_forward = []
            for f in co_outer:
                slices = tuple(homs_bm.position(
                    tuple(f.mapping[n.act(x, y)] for x in range(b.size)))
                    for y in range(n.size))
                co_forward.append(co_inner.position(slices))
            co_backward = []
            for k in co_inner:
                mapping = tuple(homs_bm[k.mapping[y]].mapping[b.one]
                                for y in range(n.size))
                co_backward.append(co_outer.position(mapping))
            right_bij = _mutually_inverse(co_forward, co_backward)

            pairs.append({
                "m_size": m.size, "n_size": n.size,
                "left_counts": (len(outer), len(inner)),
                "left_bijective": left_bij,
                "right_counts": (len(co_outer), len(co_inner)),
                "right_bijective": right_bij,
            })
        double = restrict_scalars(h, extended)
        try:
            SemimoduleHom(m, double, unit).validate()
            unit_flags.append(True)
        except NotAHom:
            unit_flags.append(False)

    naturality = _naturality_spot_check(*spot, max_enum)
    ok = (all(p["left_bijective"] and p["right_bijective"] for p in pairs)
          and all(unit_flags) and naturality)
    return {"pairs": pairs, "unit_is_hom": unit_flags,
            "naturality_ok": naturality, "ok": ok}


def _naturality_spot_check(m: FiniteSemimodule, t: TensorProduct,
                           unit: Tuple[int, ...], outer: HomSemilattice,
                           max_enum: int) -> bool:
    """phi(g after extended u) must equal phi(g) after u for every g in
    outer, the homs out of the scalar extension t of m."""
    identity = tuple(range(m.size))
    u = next((e.mapping for e in iter_homs(m, m, max_enum)
              if e.mapping != identity), identity)
    lifted_u = [t.class_of_pairs((pb, u[x])
                                 for (pb, x) in t.pairs_of(c))
                for c in range(t.class_count)]
    for g in outer:
        left = tuple(g.mapping[lifted_u[unit[x]]] for x in range(m.size))
        right = tuple(g.mapping[unit[u[x]]] for x in range(m.size))
        if left != right:
            return False
    return True


def enumerate_modules(s: FiniteSemiring, size_bound: int,
                      max_enum: int = MAX_ENUM
                      ) -> Tuple[FiniteSemimodule, ...]:
    """Every module structure on carriers up to the bound, labeled.

    Addition tables range over idempotent commutative monoids; the zero
    and one rows of the action are forced by the laws. Every other
    scalar acts by a join endomorphism fixing zero, so its row is drawn
    from End(M, +), enumerated once per addition table in lexicographic
    order, and each combination of rows goes through the full law check.
    """
    out = []
    free = [c for c in range(s.size) if c not in (s.zero, s.one)]
    for size in range(1, size_bound + 1):
        adds = list(_commutative_monoid_tables(size, True, max_enum))
        check_bound(EnumGuard, f"action tables on {size} elements",
                    size ** (size * len(free)), "max_enum", max_enum)
        for add in adds:
            endos = _monoid_homs(add, 0, size, add, 0) if free else ()
            for rows in itertools.product(endos, repeat=len(free)):
                action = [None] * s.size
                action[s.zero] = (0,) * size
                action[s.one] = tuple(range(size))
                for c, row in zip(free, rows):
                    action[c] = row
                m = FiniteSemimodule(s, size, add, 0, tuple(action))
                if _module_laws_hold(s, m):
                    out.append(m)
    return tuple(out)


def full_embedding_check(h: SemiringHom,
                         test_modules: Optional[Sequence[FiniteSemimodule]] = None,
                         size_bound: int = 3,
                         max_enum: int = MAX_ENUM,
                         max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """For an onto scalar map: restriction loses no homs and extension
    undoes it, witnessed by x -> 1 tensor x being an isomorphism.

    Fullness, that no hom between two restrictions fails to be a hom over
    the target scalars, holds by the restriction lemma, so the count of
    homs lost by restriction is 0 on every pair without enumeration:
    restrict_scalars keeps the carrier, addition and zero and sets
    action_A[a] = action_B[h(a)], and h is onto, so the action pairs
    (a on M, a on N) over a in A are the pairs (b on M, b on N) over b in
    B, and a map passes the laws over A exactly when it passes them over
    B, whether or not the modules keep the module laws. Only the unit is
    checked, one tensor product per test module."""
    h.validate()
    if not h.is_onto():
        raise NotOnto("the embedding theorem needs an onto homomorphism")
    modules = tuple(test_modules) if test_modules is not None else \
        enumerate_modules(h.target, size_bound, max_enum)

    unit_flags = []
    for mb in modules:
        t, extended = _extend_scalars(h, restrict_scalars(h, mb), max_carrier)
        unit = _tensor_unit(t, h.target.one)
        try:
            iso = SemimoduleHom(mb, extended, unit).validate()
            unit_flags.append(iso.is_onto() and iso.is_injective())
        except NotAHom:
            unit_flags.append(False)

    return {"modules": len(modules), "fullness_pairs": len(modules) ** 2,
            "homs_lost_by_restriction": 0, "unit_iso": unit_flags,
            "ok": all(unit_flags)}


# ----- the finite shadow of the scalar-extension computation ----------------

def truncation_demo(k: int, points: Union[int, Sequence[str]],
                    samples: int = 1000, seed: int = DEFAULT_SEED,
                    max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Compare the free module on X with scalars tensor free module.

    The infinite scalar semifield of the motivating computation has no
    finite nontrivial counterpart, so the demo works over the truncated
    chain image: an honest finite shadow, and the report says so. When the
    free-semilattice guard allows it the tensor side is materialized and
    the explicit map pair is verified both ways; beyond the guard the
    composite on the free side is still checked pointwise.
    """
    alg, cert = gamma_chain(k, samples, seed)
    s = reduct_wedge_oplus(alg)
    names = [f"x{i}" for i in range(points)] if isinstance(points, int) \
        else [str(x) for x in points]
    m = module_over_self(s)
    n = free_semimodule(s, names)

    if (1 << (m.size * n.size)) <= max_carrier:
        t = tensor_product(m, n, max_carrier)
        tm = as_module(t)
        phi = t.extend(n.act, n.add, n.zero)
        psi = tuple(t.class_of_pairs(zip(n.vector(g), n.basis))
                    for g in range(n.size))
        phi_hom = SemimoduleHom(tm, n, phi).validate()
        psi_hom = SemimoduleHom(n, tm, psi).validate()
        phi_psi = all(phi[psi[g]] == g for g in range(n.size))
        psi_phi = all(psi[phi[c]] == c for c in range(t.class_count))
        tier = {"materialized": True, "classes": t.class_count,
                "phi_psi_identity": phi_psi, "psi_phi_identity": psi_phi,
                "isomorphism": phi_psi and psi_phi
                and phi_hom.is_onto() and psi_hom.is_onto()}
    else:
        phi_psi = all(
            n.sum(n.act(n.vector(g)[x], n.basis[x])
                  for x in range(len(names))) == g
            for g in range(n.size))
        tier = {"materialized": False,
                "phi_psi_identity": phi_psi,
                "note": "free-semilattice carrier exceeds the subset guard; "
                        "the composite is checked pointwise on the free side"}

    return {"chain_size": k + 1, "points": len(names), "tier": tier,
            "gamma_certificate": cert,
            "label": "finite shadow: the infinite scalar semifield is "
                     "replaced by its truncated chain image",
            "ok": bool(tier.get("isomorphism", tier["phi_psi_identity"]))
            and cert["ok"]}


def tensor_report(m: FiniteSemimodule, n: FiniteSemimodule,
                  max_enum: int = MAX_ENUM,
                  max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    t = tensor_product(m, n, max_carrier)
    verdict = check_universal_property(t, max_enum)
    return {
        "left": semimodule_to_dict(m),
        "right": semimodule_to_dict(n),
        "classes": t.class_count,
        "tensors": [[x, y, t.tensor(x, y)]
                    for x in range(m.size) for y in range(n.size)],
        "universal_property": "verified" if verdict["ok"] else "failed",
    }
