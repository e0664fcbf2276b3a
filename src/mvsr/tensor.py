"""Tensor products of semimodules over additively idempotent scalars.

The free semilattice on the pair set M x N is the powerset under union,
coded as bitmasks. The tensor congruence is the least semilattice
congruence that collapses a binary join in either slot to the union of its
two pairs, a bottom in either slot to the empty subset (which is why
tensors absorb either bottom), and slides a scalar across the pair; by
induction the binary joins and bottoms collapse every finite join. It is
found by its closed sets, not by merging subsets: each generating pair
becomes two implications, indexed by the bits of their premises, and the
closed sets are enumerated one singleton step at a time into a step table
by semiring's closed-set sweep (the one behind mv.ideals and
projective.all_subsemimodules too), which grows each join from the pair it
adds through the implications whose premise holds that pair. The table is
the whole quotient: a subset is classed by folding it over the subset's
members. The tensor product is the quotient, with the least subset per
class, under cardinality then member order, as its canonical
representative, read off the step table by a walk that extends each
class's representative by the members past its largest. The work is
admitted where it runs: tensor_product bounds the generating pairs it
would build, counted from the sizes, and the sweep's own guard bounds the
closures it takes on, the step table's entries, both by max_carrier; no
count of the 2^(|M| |N|) subsets is made.

The quotient is read through two primitives. semiring.fold, the step
table folded from a class over a subset's members, is the class of a
subset: joined, class_of_pairs and the naming of a split pair. One walk
along the representative links, SemilatticeCongruence.walk, is every map
on the classes: each representative is its parent's plus one member, the
parent coming earlier in class order, so a map with f(0) = s is one lookup
a class, f(d) = step[f(p)][moved(i)] for d's link (p, i). The join table
is the walk from every class, moving no member; a scalar acting through
the left slot is the walk from 0 with its pairs moved, and so is the lift
of a map on the right factor; TensorProduct.extend is the same walk in
numpy, one gather a class. tensor_product builds the scalar slides once
per distinct pair of action rows and drops those with equal sides. A
scalar is well defined exactly when its walk commutes with the step
table, classes x width lookups; the generating pairs the congruence keeps
are scanned only to name the first one a failing scalar splits.

Everything downstream is verified by enumeration, with semimodule's one
level search behind every hom-set: it assigns values to a table's
generators one at a time, sets every other element by its derivation, and
checks each law at the first level where the values it reads are final,
so a failing prefix prunes every assignment that extends it. Monoid homs
are that search with no action rows; bimorphisms are the module homs from
M into the rows of Hom(N, C), as hom(M tensor N, C) = hom(M, hom(N, C));
the homomorphisms out of the quotient are searched once per target monoid
and counted by their values on pure tensors, each scalar's action row is
drawn from End(M, +), and the hom-tensor bijections are checked in both
directions. The search keeps exactly the maps that pass every law, lawless
tables included; on lawful tables these are the maps a product over every
assignment to the join-irreducibles keeps, and that product lives on in
the tests as the oracle. Fullness of restriction is the exception: it
holds by the restriction lemma, and the enumeration that confirms it lives
in the tests. Only commutative scalars are exercised; right modules are
identified with left ones throughout.

Module enumeration finds the addition tables once per size. The candidate
actions of one addition table are stacked, each law the construction
leaves open is one mask over the stack, computed with semiring's law
kernels, and a module is built only for the candidates that pass. The
modules the package derives from checked tables, the enumerated ones, the
quotient's and the restrictions, are stored without a second check. Change
of scalars extends along h: A -> B as B tensor M over A, with B acting on
itself restricted to A once per check, not once per module.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter, abc
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT_SEED, MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, IllDefinedAction, MalformedTable, NotAHom,
                     NotAModule, NotIdempotent, NotOnto, ScalarMismatch,
                     SizeGuard, check_bound, check_count)
from .jsonio import semimodule_to_dict
from .mv import gamma_chain, reduct_wedge_oplus
from .semimodule import (FiniteSemimodule, HomSemilattice, SemimoduleHom,
                         _LevelSchedule, _assignments, _digits,
                         _first_broken_law, _moving_rows, _schedule,
                         _sum_laws, check_semimodule, _first_hom,
                         _require_homs, free_semimodule, hom_set,
                         join_irreducibles, module_over_self,
                         restrict_scalars, trivial_module)
from .semiring import (FiniteSemiring, SemiringHom, Table, _additivity_mask,
                       _array_range, _assoc_mask, _closed_sets, _combine,
                       _first_assoc_failure, _index_grid, _members, fold,
                       is_additively_idempotent, same_scalars)
from .semiring import AxiomReport


# ----- congruences on the free semilattice ---------------------------------

@dataclass(frozen=True)
class SemilatticeCongruence:
    """A union-compatible partition of the subsets of range(width), coded
    as bitmasks, with the subset pairs it was closed on. step[c][i] is the
    class of class c joined with the singleton {i}; class 0 holds the
    empty set."""

    width: int
    step: Tuple[Tuple[int, ...], ...]
    representatives: Tuple[int, ...]
    generators: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.representatives)

    def joined(self, c: int, mask: int) -> int:
        """The class of class c joined with the subset mask, one step per
        member; the partition is union-compatible, so the order of the
        steps does not matter. A c outside the classes, or a negative mask
        or one with a bit at or past width, is refused with
        MalformedTable."""
        c = _index_grid(c, (), len(self.step), "class")
        mask = check_count(mask, "mask", None, MalformedTable)
        if mask < 0 or mask >> self.width:
            raise MalformedTable(f"subset mask {mask} is not a subset of "
                                 f"range({self.width})")
        return fold(self.step, c, _members(mask))

    def class_of(self, mask: int) -> int:
        """The class of the subset mask: joined(0, mask)."""
        return self.joined(0, mask)

    @cached_property
    def links(self) -> Tuple[Tuple[int, int], ...]:
        """(p, i) for each class past 0: its representative less its
        largest member i is the representative of class p, which comes
        earlier (congruence_closure), so a map extended along the walk
        costs one lookup per class."""
        index = {rep: c for c, rep in enumerate(self.representatives)}
        out = []
        for rep in self.representatives[1:]:
            i = rep.bit_length() - 1
            out.append((index[rep ^ 1 << i], i))
        return tuple(out)

    def walk(self, starts: Iterable[int],
             moved: Optional[Sequence[int]] = None
             ) -> Tuple[Tuple[int, ...], ...]:
        """For each start s, the map f on the classes with f(0) = s and
        f(d) = step[f(p)][moved[i]] for d's link (p, i): f(d) is the class
        of s joined with d's representative, each member i moved to
        moved[i], or left in place when moved is None. One lookup a
        class, as each representative is its link's plus one member; the
        one walk behind every map on the classes. Unchecked: each start
        is a class and moved has width members of range(width)."""
        step, links = self.step, self.links
        if moved is not None:
            links = [(p, moved[i]) for p, i in links]
        rows = []
        for f in starts:
            row = [f]
            for p, i in links:
                row.append(step[row[p]][i])
            rows.append(tuple(row))
        return tuple(rows)


def congruence_closure(width: int, pairs: Sequence[Tuple[int, int]],
                       max_carrier: int = MAX_CARRIER) -> SemilatticeCongruence:
    """Least semilattice congruence on the subsets of range(width) that
    holds the given subset pairs.

    Each pair (u, v) is read as the implications u => v and v => u, and two
    subsets are congruent exactly when their closures under them agree
    (Ganter & Wille, Formal Concept Analysis). The implications are merged
    by premise and indexed by each bit of it; those with an empty premise
    make the start. Only the closed sets are enumerated, by
    semiring._closed_sets, the closed-set sweep that also enumerates ideals
    and subsemimodules: the closure of the start, then each closed set
    joined once with every singleton, into the step table. A join grows
    from the pair it adds: each new member reads only the implications
    whose premise holds it, and fires those whose premise is in. A subset
    is classed by folding that table over its members, so nothing indexed
    by all 2^width subsets is built.

    The sweep's guard checks the closures taken on, classes found times
    width, against max_carrier before each class's step row: those
    closures are the entries of the step table, the quotient's stored
    carrier. So a congruence that passes has at most max_carrier / width
    classes, and its join table, T^2 entries for T classes, is bounded
    with it.

    Each class is represented by its least subset under cardinality then
    member order, and classes are numbered in the order of their
    representatives' masks. The representatives are read off the step
    table level by level. If S is the least subset of its class and s its
    largest member, then S - {s} is the least subset of its own class q:
    the classes are union-compatible, so a smaller T in q would give
    T | {s}, smaller than S and in S's class. So, starting from the empty
    set, each level's classes are taken in the order of their
    representatives and each representative is extended only by the
    members past its largest; the extensions come in member order, a
    class is met first at its least subset, and the walk costs at most
    width lookups per class.

    A width that is not an integer of at least 0 (check_count), or a pair
    whose subsets are not subsets of range(width), is refused with
    MalformedTable before any pair is read or closed.
    """
    width = check_count(width, "width", 0, MalformedTable)
    generators = tuple(pairs)
    # one bitwise or over every mask finds a bit past width, a negative
    # mask or a non-integer; only then does _index_grid, at about a
    # microsecond a pair, name the first bad entry
    try:
        bits = functools.reduce(operator.or_,
                                itertools.chain(*generators), 0)
    except TypeError:
        bits = -1
    if bits < 0 or bits >> width or {len(p) for p in generators} - {2}:
        _index_grid(generators, (len(generators), 2), 1 << width,
                    "subset pairs")
    implies: Dict[int, int] = {}
    for a, b in generators:
        implies[a] = implies.get(a, 0) | b
        implies[b] = implies.get(b, 0) | a
    by_bit: List[List[Tuple[int, int]]] = [[] for _ in range(width)]
    for u, v in implies.items():
        if v & ~u:
            for i in _members(u):
                by_bit[i].append((u, v & ~u))

    def implied(i: int, mask: int) -> int:
        forced = 0
        for u, v in by_bit[i]:
            if mask & u == u:
                forced |= v
        return forced

    closed, step = _closed_sets(
        width, implies.get(0, 0), implied,
        functools.partial(check_bound, SizeGuard,
                          "closures run for the tensor congruence",
                          name="max_carrier", bound=max_carrier))
    reps: List[Optional[int]] = [0] + [None] * (len(closed) - 1)
    walk = [0]
    for c in walk:
        for i in range(reps[c].bit_length(), width):
            d = step[c][i]
            if reps[d] is None:
                reps[d] = reps[c] | 1 << i
                walk.append(d)
    order = sorted(range(len(closed)), key=reps.__getitem__)
    rank = [0] * len(closed)
    for new, old in enumerate(order):
        rank[old] = new
    return SemilatticeCongruence(
        width, tuple(tuple(map(rank.__getitem__, step[old])) for old in order),
        tuple(reps[c] for c in order), generators)


# ----- the tensor product --------------------------------------------------

@dataclass(frozen=True)
class TensorProduct:
    """The subsets of M x N modulo the tensor congruence; the pair (x, y)
    is bit x * |N| + y of a subset, so the congruence must be on the
    subsets of range(|M| * |N|)."""

    left: FiniteSemimodule
    right: FiniteSemimodule
    congruence: SemilatticeCongruence

    def __post_init__(self):
        width = self.left.size * self.right.size
        if self.congruence.width != width:
            raise MalformedTable(f"congruence on {self.congruence.width} "
                                 f"pairs, but the factors have {width}")

    @property
    def class_count(self) -> int:
        return len(self.congruence)

    def pair_index(self, x: int, y: int) -> int:
        """The bit of the pair (x, y), each checked as an element of its
        factor; the package's own readers use x * |N| + y directly."""
        x = _index_grid(x, (), self.left.size, "left factor element")
        y = _index_grid(y, (), self.right.size, "right factor element")
        return x * self.right.size + y

    def tensor(self, x: int, y: int) -> int:
        return self.congruence.step[0][self.pair_index(x, y)]

    @property
    def zero_class(self) -> int:
        return 0

    def _class(self, c) -> int:
        return _index_grid(c, (), self.class_count, "class")

    def join(self, c: int, d: int) -> int:
        """The class of c joined with d, both checked as class indices."""
        return self.congruence.joined(
            c, self.congruence.representatives[self._class(d)])

    def pairs_of(self, c: int) -> Tuple[Tuple[int, int], ...]:
        """Pairs of the canonical representative subset of class c, checked
        as a class index."""
        rep = self.congruence.representatives[self._class(c)]
        return tuple(divmod(i, self.right.size) for i in _members(rep))

    @cached_property
    def join_table(self) -> Tuple[Tuple[int, ...], ...]:
        """join[c][d], class c joined with d's representative: the walk
        from each class c, moving no member."""
        return self.congruence.walk(range(self.class_count))

    def class_of_pairs(self, pairs) -> int:
        """Class of the join of the tensors of the given pairs, each
        checked by pair_index."""
        return fold(self.congruence.step, 0,
                    (self.pair_index(x, y) for x, y in pairs))

    def extend(self, values: np.ndarray, add: np.ndarray,
               zero: int) -> np.ndarray:
        """For each class, the fold of values[..., x, y] over its
        representative's pairs, in member order from zero, under the
        addition array add: an array of shape values.shape[:-2] +
        (class_count,), built along the links as the walk is, out[..., d]
        = add[out[..., p], values at pair i] for d's link (p, i), one
        gather a class. values must be an integer array whose last two
        axes are |M| x |N|, and its entries and zero indices of add; else
        MalformedTable."""
        zero = _index_grid(zero, (), len(add), "extend zero")
        values = np.asarray(values)
        if values.dtype.kind not in "iu" \
                or values.shape[-2:] != (self.left.size, self.right.size):
            raise MalformedTable(f"extend values must be an integer array on "
                                 f"{self.left.size}x{self.right.size} pairs")
        _array_range(values, values.shape, len(add), "extend values")
        lead = values.shape[:-2]
        by_pair = values.reshape(lead + (self.congruence.width,))
        out = np.empty(lead + (self.class_count,), np.intp)
        out[..., 0] = zero
        for d, (p, i) in enumerate(self.congruence.links, 1):
            out[..., d] = add[out[..., p], by_pair[..., i]]
        return out

    def _tensors(self) -> np.ndarray:
        """tensors[x, y], the class of x tensor y: step[0] as a grid."""
        return np.array(self.congruence.step[0], np.intp).reshape(
            self.left.size, self.right.size)

    def generated_by_tensors(self) -> bool:
        """Every class is the join of the tensors of its representative."""
        joined = self.extend(self._tensors(), np.array(self.join_table),
                             self.zero_class)
        return bool((joined == np.arange(self.class_count)).all())


def tensor_product(m: FiniteSemimodule, n: FiniteSemimodule,
                   max_carrier: int = MAX_CARRIER) -> TensorProduct:
    """M tensor N: the subsets of M x N modulo the congruence closed on a
    join and a bottom in either slot and a scalar slide for each pair.

    The join-and-bottom pairs, |N| (1 + C(|M|, 2)) + |M| (1 + C(|N|, 2)),
    are counted from the sizes and checked against max_carrier (SizeGuard)
    before any pair is built. The scalar slides (a x, y) ~ (x, a y) are
    built once per distinct pair of action rows (a on M, a on N), in
    scalar order, less those with equal sides: equal rows give equal
    slides and equal sides generate nothing, so the congruence is
    unchanged, and neither kind is ever the first pair a scalar splits.
    The at most |S| |M| |N| slides are left out of the count: they scale
    with the scalars' own tables. The closure is then bounded by
    congruence_closure's sweep guard on the same bound."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("tensor factors need a common scalar semiring")
    if not is_additively_idempotent(m.scalars):
        raise NotIdempotent("tensor products need additively idempotent "
                            "scalars")
    check_bound(SizeGuard, "generating pairs of the tensor congruence",
                n.size * (1 + math.comb(m.size, 2))
                + m.size * (1 + math.comb(n.size, 2)), "max_carrier",
                max_carrier)

    # bit[x][y] is the singleton {(x, y)}
    bit = [[1 << x * n.size + y for y in range(n.size)]
           for x in range(m.size)]
    pairs: List[Tuple[int, int]] = []
    for y in range(n.size):
        pairs.append((bit[m.zero][y], 0))
        pairs += [(bit[m.add[x][w]][y], bit[x][y] | bit[w][y])
                  for x, w in itertools.combinations(range(m.size), 2)]
    for x, row in enumerate(bit):
        pairs.append((row[n.zero], 0))
        pairs += [(row[n.add[y][w]], row[y] | row[w])
                  for y, w in itertools.combinations(range(n.size), 2)]
    for m_row, n_row in dict.fromkeys(zip(m.action, n.action)):
        pairs += [(bit[ax][y], bit[x][ay])
                  for x, ax in enumerate(m_row) for y, ay in enumerate(n_row)
                  if ax != x or ay != y]

    return TensorProduct(m, n, congruence_closure(m.size * n.size, pairs,
                                                  max_carrier))


def _class_labels(t: TensorProduct) -> Tuple[str, ...]:
    n = t.right.size
    return tuple("+".join(f"({t.left.label(i // n)}*{t.right.label(i % n)})"
                          for i in _members(rep)) or "0"
                 for rep in t.congruence.representatives)


def scalar_structures(t: TensorProduct, scalars: FiniteSemiring,
                      action) -> FiniteSemimodule:
    """The quotient as a module over scalars acting on the left slot:
    action[b][x] is b moving x, and b sends a class to the class of its
    moved representative.

    Moving a subset pair by pair preserves unions, so the subset pairs
    (u, v) whose moved images are congruent form a union-compatible
    equivalence. It contains the congruence exactly when it contains the
    congruence's generating pairs, the congruence being the least such
    relation holding them. Right actions are identified with left ones,
    since x tensor (a y) = (a x) tensor y.

    Each scalar b is checked against the step table by lookups. Let f(c)
    be the class of c's moved representative, the walk from 0 with each
    pair i moved to m(i). b is well defined exactly when
    f(step[c][i]) == step[f(c)][m(i)] for every class c and pair i, by
    induction on the size of a subset: classes x width lookups a scalar,
    which the sweep bounds by max_carrier; a scalar acting as the
    identity fixes every class and is not checked. Only for a scalar that
    fails are the generating pairs folded, to name the first it splits,
    in scalar then pair order.

    action is checked; the join table and the class rows are read off the
    step table, tuples of class indices, so the module is built by
    FiniteSemimodule._trusted without a second check.
    """
    action = _index_grid(action, (scalars.size, t.left.size), t.left.size,
                         "action")
    cong, n = t.congruence, t.right.size
    step = cong.step
    pairs = [divmod(i, n) for i in range(cong.width)]
    identity = tuple(range(t.left.size))
    rows = []
    for b, row in enumerate(action):
        if row == identity:
            rows.append(tuple(range(t.class_count)))
            continue
        moved = [row[x] * n + y for x, y in pairs]
        f, = cong.walk((0,), moved)
        for c, targets in enumerate(step):
            if list(map(f.__getitem__, targets)) != \
                    list(map(step[f[c]].__getitem__, moved)):
                _name_split_pair(cong, b, moved)
        rows.append(f)
    return FiniteSemimodule._trusted(scalars, t.class_count, t.join_table,
                                     t.zero_class, tuple(rows),
                                     _class_labels(t))


def _name_split_pair(cong: SemilatticeCongruence, b: int,
                     moved: Sequence[int]) -> None:
    """Raise IllDefinedAction for the first generating pair that scalar b,
    moving pair i to moved[i], sends to distinct classes."""
    def image(mask: int) -> int:
        return fold(cong.step, 0, map(moved.__getitem__, _members(mask)))

    for u, v in cong.generators:
        cu, cv = image(u), image(v)
        if cu != cv:
            raise IllDefinedAction(
                f"scalar {b} sends the generating pair of subsets "
                f"({u}, {v}) to distinct classes {cu} and {cv}")
    raise IllDefinedAction(f"scalar {b} splits a class of a congruence "
                           f"that its generating pairs do not generate")


def as_module(t: TensorProduct) -> FiniteSemimodule:
    """The quotient as a module over the common scalars."""
    return scalar_structures(t, t.left.scalars, t.left.action)


# ----- bimorphisms and the universal property ------------------------------

class _Filled(dict):
    """A dict that fills a missing key with compute(key) and keeps it."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _monoid_homs(add, zero: int, c_size: int, c_add, c_zero: int
                 ) -> Tuple[Tuple[int, ...], ...]:
    """Every monoid hom out of the table add with zero into C, in
    lexicographic order: the maps that send zero to the monoid zero and
    sums to sums, found by the level search of add's plan, with no action
    rows, over the values range(c_size). The search keeps exactly these
    maps on lawless tables too."""
    c_add = tuple(map(tuple, c_add))
    plan = _schedule(tuple(map(tuple, add)), zero)
    return tuple(sorted(plan.search(range(c_size), c_add, c_zero,
                                    _sum_laws(c_add, c_zero))))


def _checked_monoid(c_size, c_add, c_zero) -> Tuple[int, Table, int]:
    """A target monoid (size, addition, zero) checked as a count and as
    tables of indices below it; else MalformedTable."""
    c_size = check_count(c_size, "c_size", 0, MalformedTable)
    return (c_size,
            _index_grid(c_add, (c_size, c_size), c_size,
                        "target monoid addition"),
            _index_grid(c_zero, (), c_size, "target monoid zero"))


def _factor_plans(m: FiniteSemimodule, n: FiniteSemimodule
                  ) -> Tuple[int, _Filled, _LevelSchedule]:
    """What bimorphisms reads of M and N whatever the target: the guard's
    exponent |JI(M)| |JI(N)|, N's monoid plan and, filled on demand for
    whether a target's zero is an identity, M's plan over the action rows
    that can fail with N's rows for the same scalars (_moving_rows)."""
    fixed = all(row[n.zero] == n.zero for row in n.action)

    def moving(identity: bool) -> Tuple[_LevelSchedule, Table]:
        # a row sending M and N to their zeros shifts a row r to the row of
        # r(0_N), the target's zero when every row sends 0_N to it: homs
        # do, sums keep it where it is an identity, and shifts where every
        # row of N fixes 0_N
        rows, moved = _moving_rows(m.action, n.action, (m.zero, n.zero)
                                   if identity and fixed else None)
        return _schedule(m.add, m.zero, rows), moved

    return (len(join_irreducibles(m.add, m.zero))
            * len(join_irreducibles(n.add, n.zero)),
            _Filled(moving), _schedule(n.add, n.zero))


def bimorphisms(m: FiniteSemimodule, n: FiniteSemimodule,
                c_size: int, c_add, c_zero: int,
                max_enum: int = MAX_ENUM, *,
                _plans: Optional[Tuple] = None
                ) -> Tuple[Tuple[int, ...], ...]:
    """All bimorphisms M x N -> C as flat tables, row-major over pairs.

    The search is curried through Hom(N, C), as in hom(M tensor N, C) =
    hom(M, hom(N, C)): a bimorphism is a module hom from M into Hom(N, C),
    whose scalars act by (a r)(y) = r(a y). Hom(N, C) is read off the
    search of N's plan and its rows are interned as ints, with pointwise
    sums and the shifts r -> r(a -) memoized on them, and the level search
    of M's plan assigns them to M's generators: every column f(-, y) must
    be a monoid hom out of M, one comparison of interned rows per sum, and
    f must balance, f(a x, y) = f(x, a y), one comparison per move. Over
    modules, sums and shifts of homs are homs, so every row is one;
    bottoms and binary joins generate the finite-subset forms by
    induction. The guard's c^(|JI(M)|*|JI(N)|) bounds
    |Hom(N, C)|^|JI(M)| and, once JI(M) is nonempty, the c^|JI(N)|
    candidates of Hom(N, C); an M with no generators is trivial, and only
    the zero table is tried.

    M's plan files a move only for a scalar whose balance some table can
    fail. A scalar acting as the identity on M and on N balances every
    table. One sending M and N to their zeros balances every table when
    each row takes 0_N to C's zero: it does when C's zero is a two-sided
    identity and every row of N fixes 0_N; elsewhere, a row made by a sum
    or a shift can move it, and the move is filed.

    Factors over different scalars are refused with ScalarMismatch, and
    a c_size that is no integer of at least 0 (check_count), or a c_add or
    c_zero that is no table or index below it, with MalformedTable.
    check_universal_property, whose factors and targets are checked,
    passes _factor_plans once for all targets, and nothing is checked.
    """
    if _plans is None:
        if not same_scalars(m.scalars, n.scalars):
            raise ScalarMismatch("bimorphisms need a common scalar semiring")
        c_size, c_add, c_zero = _checked_monoid(c_size, c_add, c_zero)
        _plans = _factor_plans(m, n)
    exponent, left, right_plan = _plans
    check_bound(EnumGuard, "bimorphism candidates", c_size ** exponent,
                "max_enum", max_enum)

    laws = _sum_laws(c_add, c_zero)
    plan, moved = left[laws[0]]
    rows = list(right_plan.search(range(c_size), c_add, c_zero, laws)
                if plan.depth else ())
    count = len(rows)
    index = {row: r for r, row in enumerate(rows)}

    def intern(row: Tuple[int, ...]) -> int:
        r = index.get(row)
        if r is None:
            r = index[row] = len(rows)
            rows.append(row)
        return r

    zero_row = intern((c_zero,) * n.size)
    sums = _Filled(lambda r: _Filled(lambda s: intern(tuple(
        c_add[p][q] for p, q in zip(rows[r], rows[s])))))
    shift = _Filled(lambda a: _Filled(lambda r: intern(tuple(
        rows[r][y] for y in moved[a]))))
    found = plan.search(range(count), sums, zero_row, laws, shift)
    chain = itertools.chain.from_iterable
    return tuple(sorted(tuple(chain(map(rows.__getitem__, v)))
                        for v in found))


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


def _free_cells(size: int, idempotent: bool) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(1, size)
            for j in range(i + 1 if idempotent else i, size)]


def _commutative_monoid_tables(size: int, idempotent: bool, max_enum: int
                               ) -> Tuple[Table, ...]:
    """Every associative commutative table on 0..size-1 with 0 as its
    identity, in lexicographic order of the free cells; with idempotent
    set, x + x = x is fixed instead of enumerated. The tables do not depend
    on the caller, so they are found once per size and kept; the guard on
    the candidate tables runs on every call, against the caller's max_enum,
    before the kept tables are read."""
    check_bound(EnumGuard, f"monoid tables on {size} elements",
                size ** len(_free_cells(size, idempotent)), "max_enum",
                max_enum)
    return _monoid_tables(size, idempotent)


@lru_cache(maxsize=None)
def _monoid_tables(size: int, idempotent: bool) -> Tuple[Table, ...]:
    cells = _free_cells(size, idempotent)
    out = []
    for values in itertools.product(range(size), repeat=len(cells)):
        table = [[0] * size for _ in range(size)]
        for i in range(size):
            table[i][i] = i
            table[0][i] = table[i][0] = i
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        table = tuple(map(tuple, table))
        if _first_assoc_failure(table, table) is None:
            out.append(table)
    return tuple(out)


def commutative_monoids_upto(bound: int = 3) -> Tuple[Tuple[int, Tuple, int], ...]:
    """All commutative monoids of size <= bound, one per isomorphism class.

    Zero is normalized to element 0; deduplication is by the least table
    under relabelings fixing 0. A bound that is not an integer of at
    least 0 is refused with ValueError.
    """
    return _monoids_upto(check_count(bound, "bound", 0))


@lru_cache(maxsize=None)
def _monoids_upto(bound: int) -> Tuple[Tuple[int, Tuple, int], ...]:
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
    of the quotient are enumerated once, by the level search over its
    join-irreducible classes, and counted by their values on pure tensors.
    A bimorphism factors when its count is nonzero and factors uniquely
    when the count is one.
    """
    family = list(commutative_monoids_upto(3))
    family.append((t.left.size, t.left.add, t.left.zero))
    family.append((t.right.size, t.right.add, t.right.zero))

    join = t.join_table
    tensors = t.congruence.step[0]
    depth = len(join_irreducibles(join, t.zero_class))
    quotient_plan = _schedule(join, t.zero_class)
    factor_plans = _factor_plans(t.left, t.right)

    bim_count = 0
    existence_failures = 0
    uniqueness_failures = 0
    for (c_size, c_add, c_zero) in family:
        check_bound(EnumGuard, "candidate homs out of the quotient",
                    c_size ** depth, "max_enum", max_enum)
        hits = Counter(tuple(v[tc] for tc in tensors)
                       for v in quotient_plan.search(
                           range(c_size), c_add, c_zero,
                           _sum_laws(c_add, c_zero)))
        for f in bimorphisms(t.left, t.right, c_size, c_add, c_zero, max_enum,
                             _plans=factor_plans):
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
    (b * h)(x) = h(x * b). b_action[b][x] gives x * b, checked as a table
    of elements of the source by _index_grid; else MalformedTable."""
    b_action = _index_grid(b_action, (b.size, homs.source.size),
                           homs.source.size, "right action")
    moved = homs.rows[:, np.array(b_action, dtype=np.intp)].swapaxes(0, 1)
    action = _require_homs(homs.positions(moved),
                           "scalar {0} does not send homs to homs; "
                           "the source is not a bisemimodule")
    module = FiniteSemimodule(b, len(homs), homs.add_table, homs.zero_index,
                              action, homs.labels)
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

    # pair[u, v] is the tensor with u in the curried slot, v in the other;
    # values[k, x, y] is curried hom k uncurried at x tensor y
    pair = t._tensors()
    values = inner.rows[curried.rows]
    if variant == "primed":
        pair, values = pair.T, values.swapaxes(1, 2)
    slices = _require_homs(inner.positions(outer.rows[:, pair]),
                           "curried slice fails to be a homomorphism")
    forward = _require_homs(curried.positions(slices),
                            "curried map fails to be a homomorphism")
    backward = _require_homs(outer.positions(t.extend(values, p.np_add,
                                                      p.zero)),
                             "uncurried map fails to be a homomorphism")

    join_ok = bool((forward[np.array(outer.add_table)] == np.array(
        curried.add_table)[np.ix_(forward, forward)]).all())
    return ZetaResult(outer, inner, curried, tuple(forward.tolist()),
                      tuple(backward.tolist()), join_ok)


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
    phi = _require_homs(homs.positions(m.np_action.T),
                        "the orbit map of {0} is not a hom")
    psi = homs.rows[:, s.one]
    return HomPointIso(homs, tuple(phi.tolist()), tuple(psi.tolist()))


# ----- change of scalars ----------------------------------------------------

def _extend_scalars(b_over_a: FiniteSemimodule, b: FiniteSemiring,
                    m: FiniteSemimodule, max_carrier: int
                    ) -> Tuple[TensorProduct, FiniteSemimodule]:
    """B tensor M over A, with B acting on the left slot by its own
    multiplication. b_over_a is B acting on itself restricted along the
    scalar map h: A -> B, restrict_scalars(h, module_over_self(b)). It
    does not depend on M, so a caller that extends many modules builds it,
    and validates h, once."""
    t = tensor_product(b_over_a, m, max_carrier)
    return t, scalar_structures(t, b, b.mul)


def _tensor_unit(t: TensorProduct, one: int) -> Tuple[int, ...]:
    """x -> one tensor x: a slice of the step table's first row."""
    n = t.right.size
    return t.congruence.step[0][one * n:(one + 1) * n]


def adjunction_witness(h: SemiringHom,
                       left_modules: Optional[Sequence[FiniteSemimodule]] = None,
                       right_modules: Optional[Sequence[FiniteSemimodule]] = None,
                       max_enum: int = MAX_ENUM,
                       max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Counts and explicit bijections for both adjoints of restriction.

    For each test pair, extension of scalars against restriction gives
    hom(B tensor M, N) = hom(M, N restricted); the hom-module of the
    source semiring gives the right adjoint the same way. An empty list of
    modules on either side is refused with ValueError: it would certify
    the adjunction on no pair.
    """
    h.validate()
    a, b = h.source, h.target
    mods_a = list(left_modules) if left_modules is not None else \
        [module_over_self(a), trivial_module(a)]
    mods_b = list(right_modules) if right_modules is not None else \
        [module_over_self(b), trivial_module(b)]
    for name, mods in (("left_modules", mods_a), ("right_modules", mods_b)):
        if not mods:
            raise ValueError(f"{name} is empty: the adjunction needs at "
                             f"least one module on each side")
    b_over_a = restrict_scalars(h, module_over_self(b))

    pairs = []
    unit_flags = []
    spot = None
    for m in mods_a:
        t, extended = _extend_scalars(b_over_a, b, m, max_carrier)
        unit = _tensor_unit(t, b.one)
        homs_bm = hom_set(b_over_a, m, max_enum)
        lifted = hom_lattice_structure(homs_bm, b, b.np_mul.T).module
        for n in mods_b:
            restricted = restrict_scalars(h, n)
            outer = hom_set(extended, n, max_enum)
            if spot is None:
                spot = (m, t, unit, outer)
            inner = hom_set(m, restricted, max_enum)
            forward = _require_homs(inner.positions(outer.rows[:, unit]),
                                    "hom {0} after the unit is not a hom")
            acted = n.np_action[:, inner.rows].swapaxes(0, 1)  # [f, pb, x]
            backward = _require_homs(
                outer.positions(t.extend(acted, n.np_add, n.zero)),
                "the extension of hom {0} along the unit is not a hom")
            left_bij = _mutually_inverse(forward, backward)

            co_outer = hom_set(restricted, m, max_enum)
            co_inner = hom_set(n, lifted, max_enum)
            slices = _require_homs(
                homs_bm.positions(co_outer.rows[:, n.np_action.T]),
                "the slice of hom {0} at {1} is not a hom")
            co_forward = _require_homs(co_inner.positions(slices),
                                       "the curried hom {0} is not a hom")
            co_backward = _require_homs(
                co_outer.positions(homs_bm.rows[co_inner.rows, b.one]),
                "hom {0} evaluated at one is not a hom")
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
    moved = _first_hom(m, m, lambda rows: (rows != np.arange(m.size)).any(1),
                       max_enum)
    u = tuple(range(m.size)) if moved is None else moved.mapping
    lifted_u = np.array(_right_lift(t, u), dtype=np.intp)
    unit = np.array(unit, dtype=np.intp)
    return bool((outer.rows[:, lifted_u[unit]]
                 == outer.rows[:, unit[list(u)]]).all())


def _right_lift(t: TensorProduct, u: Sequence[int]) -> Tuple[int, ...]:
    """u on the right factor lifted to the classes: each class to the
    class of its representative with u applied in the right slot, one
    walk."""
    n = t.right.size
    return t.congruence.walk((0,), [i - i % n + u[i % n]
                                    for i in range(t.congruence.width)])[0]


def enumerate_modules(s: FiniteSemiring, size_bound: int,
                      max_enum: int = MAX_ENUM
                      ) -> Tuple[FiniteSemimodule, ...]:
    """Every module structure on carriers up to the bound, labeled.

    Addition tables range over idempotent commutative monoids; the zero
    and one rows of the action are forced by the laws. Every other
    scalar acts by a join endomorphism fixing zero, so its row is drawn
    from End(M, +), enumerated once per addition table in lexicographic
    order. The candidate actions of one addition table, every combination
    of those rows in itertools.product order, are stacked as one
    (k, |S|, |M|) array, a chunk of semimodule._assignments at a time,
    |S|^2 |M| law entries a candidate, and the laws the construction leaves
    open are computed as one mask each, through semiring's law kernels:

    - action-associative, a(bx) = (ab)x, by _assoc_mask;
    - scalar-additive, (a + b)x = ax + bx, by _additivity_mask on the
      columns x -> (a -> ax) of the stack;
    - action-zero, 0x = 0, only when zero = one: there the one row, the
      identity, overwrites the zero row.

    The other laws of check_semimodule hold by construction. The addition
    is associative, commutative, idempotent and has 0 as its identity, as
    its enumerator keeps only such tables. Action-additivity and a0 = 0
    hold since every row is in End(M, +): the free rows by the search, the
    zero row and the identity trivially. The one row is the identity, so
    the action is unital, and when zero != one the zero row is 0, so
    0x = 0. A module is built only for the candidates the masks pass, in
    the order of the addition tables and then of the stack; its rows are
    turned into tuples of ints and stored by FiniteSemimodule._trusted,
    since every entry is an index of the carrier by construction.

    A size_bound that is not an integer of at least 0 is refused with
    ValueError before anything is enumerated.
    """
    size_bound = check_count(size_bound, "size_bound", 0)
    out = []
    free = [c for c in range(s.size) if c not in (s.zero, s.one)]
    for size in range(1, size_bound + 1):
        adds = _commutative_monoid_tables(size, True, max_enum)
        check_bound(EnumGuard, f"action tables on {size} elements",
                    size ** (size * len(free)), "max_enum", max_enum)
        for add in adds:
            np_add = np.array(add, np.intp)
            # with no free scalar, no row is drawn and one candidate is left
            endos = np.array(_monoid_homs(add, 0, size, add, 0) if free
                             else (), np.intp).reshape(-1, size)
            for picks in _assignments(len(endos), len(free),
                                      s.size * s.size * size):
                acts = np.empty((len(picks), s.size, size), np.intp)
                acts[:, s.zero] = 0
                acts[:, s.one] = np.arange(size)
                acts[:, free] = endos[picks]
                out += [FiniteSemimodule._trusted(
                            s, size, add, 0, tuple(map(tuple, action)))
                        for action in acts[_lawful_actions(s, np_add,
                                                           acts)].tolist()]
    return tuple(out)


def _lawful_actions(s: FiniteSemiring, add: np.ndarray, acts: np.ndarray
                    ) -> np.ndarray:
    """Which actions of the stack acts[k, a, x], over the addition add,
    keep the laws that enumerate_modules leaves open."""
    k, _, size = acts.shape
    bad = _assoc_mask(acts, s.np_mul, slice(None)).reshape(k, -1).any(1)
    columns = acts.transpose(0, 2, 1).reshape(k * size, s.size)
    bad |= _additivity_mask(columns, s.np_add, add).reshape(k, -1).any(1)
    if s.zero == s.one:
        bad |= (acts[:, s.zero] != 0).any(1)
    return ~bad


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
    checked, one tensor product per test module: B acting on itself is
    restricted to A once, each test module restricted to A is extended
    back to B by _extend_scalars, and x -> 1 tensor x must be a bijective
    hom onto the extension.

    A check on no module would pass vacuously, so a size_bound that is not
    an integer of at least 1 and an empty test_modules are refused with
    ValueError before anything is enumerated."""
    size_bound = check_count(size_bound, "size_bound", 1)
    if test_modules is not None:
        test_modules = tuple(test_modules)
        if not test_modules:
            raise ValueError("test_modules is empty: the embedding needs at "
                             "least one module")
    h.validate()
    if not h.is_onto():
        raise NotOnto("the embedding theorem needs an onto homomorphism")
    modules = test_modules if test_modules is not None else \
        enumerate_modules(h.target, size_bound, max_enum)

    b = h.target
    b_over_a = restrict_scalars(h, module_over_self(b))
    unit_flags = []
    for mb in modules:
        t, extended = _extend_scalars(b_over_a, b, restrict_scalars(h, mb),
                                      max_carrier)
        unit = _tensor_unit(t, b.one)
        try:
            iso = SemimoduleHom(mb, extended, unit).validate()
            unit_flags.append(iso.is_onto() and iso.is_injective())
        except NotAHom:
            unit_flags.append(False)

    return {"modules": len(modules), "fullness_pairs": len(modules) ** 2,
            "homs_lost_by_restriction": 0, "unit_iso": unit_flags,
            "ok": all(unit_flags)}


# ----- the finite shadow of the scalar-extension computation ----------------

def truncation_demo(k: int, points: Union[int, Iterable[str]],
                    samples: int = 1000, seed: int = DEFAULT_SEED,
                    max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Compare the free module on X with scalars tensor free module.

    The infinite scalar semifield of the motivating computation has no
    finite nontrivial counterpart, so the demo works over the truncated
    chain image: an honest finite shadow, and the report says so. When
    tensor_product admits the pair the tensor side is materialized and
    the explicit map pair is verified both ways; beyond the guard the
    composite on the free side is still checked pointwise. Only the
    tensor's SizeGuard takes that tier: a guard on the chain or on the free
    module is raised. points is an iterable of names, a str excepted, or a
    count of at least 0 (check_count).
    """
    if isinstance(points, str) or not isinstance(points, abc.Iterable):
        points = [f"x{i}" for i in range(check_count(points, "points", 0))]
    names = [str(x) for x in points]
    alg, cert = gamma_chain(k, samples, seed, max_carrier)
    s = reduct_wedge_oplus(alg)
    m = module_over_self(s)
    n = free_semimodule(s, names, max_carrier)

    try:
        t = tensor_product(m, n, max_carrier)
    except SizeGuard:
        coeffs = _digits(np.arange(n.size), s.size, len(names))
        phi_psi = bool((_combine(n.np_add, n.np_action, n.zero, coeffs.T,
                                 np.array(n.basis, dtype=np.intp)[:, None])
                        == np.arange(n.size)).all())
        tier = {"materialized": False,
                "phi_psi_identity": phi_psi,
                "note": "the tensor's guard refused the pair; the "
                        "composite is checked pointwise on the free side"}
    else:
        tm = as_module(t)
        phi = tuple(t.extend(n.np_action, n.np_add, n.zero).tolist())
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

    return {"chain_size": k + 1, "points": len(names), "tier": tier,
            "gamma_certificate": cert,
            "label": "finite shadow: the infinite scalar semifield is "
                     "replaced by its truncated chain image",
            "ok": bool(tier.get("isomorphism", tier["phi_psi_identity"]))
            and cert["ok"]}


def tensor_report(m: FiniteSemimodule, n: FiniteSemimodule,
                  max_enum: int = MAX_ENUM,
                  max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """The tensor product of two modules and the verdict of its universal
    property. Each factor must keep the semimodule laws, checked once the
    product has passed its guards and before any hom is searched:
    the verdict speaks of modules, and on a lawless factor the search and
    its oracle need not agree."""
    t = tensor_product(m, n, max_carrier)
    for side, factor in (("left", m), ("right", n)):
        law = _first_broken_law(factor.scalars, factor)
        if law is not None:
            raise NotAModule(f"the {side} factor is not a semimodule: it "
                             f"breaks {law}")
    verdict = check_universal_property(t, max_enum)
    return {
        "left": semimodule_to_dict(m),
        "right": semimodule_to_dict(n),
        "classes": t.class_count,
        "tensors": [[x, y, c] for (x, y), c in zip(
            itertools.product(range(m.size), range(n.size)),
            t.congruence.step[0])],
        "universal_property": "verified" if verdict["ok"] else "failed",
    }
