"""Semimodules over finite semirings: axioms, free modules, homs, strongness.

Hom enumeration never searches all functions. A table is planned once: a
minimal generating set and the first derivation found of every element
from it, by sums and by the action rows. One level search, _LevelSchedule,
runs over that plan: it assigns images to the generators in order, sets
every other element by its derivation step and checks each law at the
first generator where the images it reads are final, so a failing prefix
prunes all its extensions. It is every hom-set of the package: module
homs here, and in mvsr.tensor the monoid homs out of a join table and the
bimorphisms, as module homs into Hom(N, C). The hom laws of a given map
are read once, by SemimoduleHom._broken: zero, then the additivity of the
map, then the action, each scan in Python or in numpy as semiring's size
policy, _small, decides on the entries it reads. The module laws exist
once, as the lazy witnesses of _module_law_witnesses: check_semimodule
reports them all, and _first_broken_law stops at the first broken one.
Both read their laws through semiring's law kernels, which a semiring's
own laws use as a module over itself.

A module's tables are checked once. Every public construction, JSON input
included, runs FiniteSemimodule's full check; a module derived inside the
package from checked tables, by restrict_scalars here and by
mvsr.tensor's scalar_structures and enumerate_modules, is stored as given
by FiniteSemimodule._trusted.

A hom-set is the search's rows, and every table built from homs gathers
images from them and looks them up with HomSemilattice.positions, as
free_universal_property looks up the extension of each point map.
Searches stop at their answer's row (_first_hom).

Every sweep here that cuts its work, the vector tables, the tuples of
_assignments and the numpy side of the law scans, walks the blocks of
semiring._blocks, the one reader of the element budget.
"""
from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import getitem
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from .config import MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, IllDefinedAction, NotAHom, ScalarMismatch,
                     SizeGuard, check_bound)
from .mv import (MvAlgebra, check_mv_axioms, quotient, reduct_vee_odot)
from .semiring import (AxiomReport, FiniteSemiring, SemiringHom, Table,
                       _IndexMap, _additivity_mask, _blocks, _combine,
                       _first_absorb_failure, _first_additive_failure,
                       _first_assoc_failure, _first_comm_failure,
                       _first_difference, _first_idempotent_failure,
                       _first_identity_failure, _first_in_blocks,
                       _index_grid, _index_list, _label_tuple, _law_report,
                       _monoid_laws, _small, _store, boolean_semiring, fold,
                       is_additively_idempotent, same_scalars)


@dataclass(frozen=True)
class FiniteSemimodule:
    """A left semimodule on {0..size-1}: commutative addition with a zero,
    and a scalar action stored as one carrier row per scalar."""

    scalars: FiniteSemiring
    size: int
    add: Table
    zero: int
    action: Table
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        n = self.size
        _store(self, add=_index_grid(self.add, (n, n), n, "add"),
               action=_index_grid(self.action, (self.scalars.size, n), n,
                                  "action"),
               zero=_index_grid(self.zero, (), n, "zero"),
               labels=_label_tuple(self.labels, n))

    @classmethod
    def _trusted(cls, scalars: FiniteSemiring, size: int, add: Table,
                 zero: int, action: Table,
                 labels: Optional[Tuple[str, ...]] = None):
        """A module on tables derived inside the package from checked
        ones, stored as given, without _index_grid: add and action tuples
        of tuples of ints in range(size), size x size and |S| x size, zero
        an int in range(size) and labels None or a tuple of size strings.
        Every public construction and JSON input keeps the full check."""
        m = object.__new__(cls)
        _store(m, scalars=scalars, size=size, add=add, zero=zero,
               action=action, labels=labels)
        return m

    def plus(self, x: int, y: int) -> int:
        return self.add[x][y]

    def act(self, a: int, x: int) -> int:
        return self.action[a][x]

    def sum(self, xs: Iterable[int]) -> int:
        return fold(self.add, self.zero, xs)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    @cached_property
    def np_add(self) -> np.ndarray:
        return np.array(self.add, dtype=np.intp)

    @cached_property
    def np_action(self) -> np.ndarray:
        return np.array(self.action, dtype=np.intp)


def check_semimodule(s: FiniteSemiring, m: FiniteSemimodule) -> AxiomReport:
    """Monoid laws of the carrier plus the five action laws, all exhaustive.

    Over an additively idempotent semiring an extra add-idempotent law is
    reported; it follows from the others but is asserted on its own."""
    return _law_report("semimodule", _module_law_witnesses(s, m))


def _first_broken_law(s: FiniteSemiring, m: FiniteSemimodule
                      ) -> Optional[str]:
    """The name of the first law of check_semimodule that m breaks, in
    report order, checking none past it; None when all hold."""
    return next((name for name, w in _module_law_witnesses(s, m)
                 if w is not None), None)


def _module_law_witnesses(s: FiniteSemiring, m: FiniteSemimodule
                          ) -> Iterator[Tuple[str, Optional[tuple]]]:
    """Each law of check_semimodule as (name, first witness or None), in
    report order, each checked only when it is asked for."""
    if not same_scalars(s, m.scalars):
        raise ScalarMismatch("module does not live over the given scalars")
    add, act = m.add, m.action
    yield from _monoid_laws("add", add, m.zero)
    yield "action-associative", _first_assoc_failure(act, s.mul)
    yield "action-additive", _first_additive_failure(act, add, add)
    yield "scalar-additive", _first_scalar_additive_failure(s, m)
    # the laws of linear size are read from the stored tuples
    yield "action-unital", next(((x,) for x, v in enumerate(act[s.one])
                                 if v != x), None)
    yield "action-zero", _first_absorb_failure(act, s.zero, m.zero)

    if is_additively_idempotent(s):
        yield "add-idempotent", _first_idempotent_failure(add)


def _first_scalar_additive_failure(s: FiniteSemiring, m: FiniteSemimodule):
    """The first (a, b, x) where (a + b)x != ax + bx: the rows (a + b)x
    against the rows ax + bx in Python, else the additivity of each map
    a -> ax a block of scalars a at a time, as _small decides on the
    |S|^2 |M| entries."""
    act, add = m.action, m.add
    if _small(s.size * s.size * m.size):
        # plus[x] is the row of add at ax, so map(getitem, plus, bx) gives
        # ax + bx for every x
        return _first_difference(
            (list(map(act.__getitem__, sums)) for sums in s.add),
            ([tuple(map(getitem, plus, other)) for other in act]
             for plus in ([add[u] for u in row] for row in act)))
    act, sadd, add = m.np_action, s.np_add, m.np_add
    return _first_in_blocks(
        s.size, s.size * m.size,
        lambda a: _additivity_mask(act.T, sadd, add, a).transpose(1, 2, 0))


# ----- free semimodules ----------------------------------------------------

@dataclass(frozen=True)
class FreeSemimodule(FiniteSemimodule):
    """Functions from a finite point set into the scalars, pointwise.

    Carrier index i encodes the coefficient tuple big-endian in base |S|,
    so indices sort the same way vectors do."""

    points: Tuple[str, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "points", tuple(str(p) for p in self.points))

    def vector(self, i: int) -> Tuple[int, ...]:
        i = _index_grid(i, (), self.size, "vector")
        out = []
        for _ in self.points:
            out.append(i % self.scalars.size)
            i //= self.scalars.size
        return tuple(reversed(out))

    def index(self, vec: Sequence[int]) -> int:
        i = 0
        for v in _index_grid(vec, (len(self.points),), self.scalars.size,
                             "vector"):
            i = i * self.scalars.size + v
        return i

    @cached_property
    def basis(self) -> Tuple[int, ...]:
        """One indicator per point: the scalar one there, zero elsewhere."""
        out = []
        for j in range(len(self.points)):
            vec = [self.scalars.zero] * len(self.points)
            vec[j] = self.scalars.one
            out.append(self.index(vec))
        return tuple(out)


def _weights(base: int, width: int) -> np.ndarray:
    """Big-endian base-|S| place values of a vector of this width."""
    return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _digits(indices: np.ndarray, base: int, width: int) -> np.ndarray:
    """The coordinates of each vector index, one row each."""
    return np.asarray(indices)[:, None] // _weights(base, width) % base


def _vector_tables(s: FiniteSemiring, width: int, members: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, int]:
    """The (add, action, zero) tables of the pointwise operations on the
    vectors with these sorted indices, on the members' positions. The sums
    are gathered over semiring._blocks of rows, len(members) * width
    coordinates a row."""
    weights = _weights(s.size, width)
    vecs = _digits(members, s.size, width)
    scalars = np.arange(s.size)[:, None, None]
    add = np.concatenate([np.searchsorted(
        members, s.np_add[vecs[rows, None], vecs[None]] @ weights)
        for rows in _blocks(len(members), len(members) * width)])
    action = np.searchsorted(members, s.np_mul[scalars, vecs[None]] @ weights)
    zero = int(np.searchsorted(members, s.zero * int(weights.sum())))
    return add, action, zero


def _vector_labels(s: FiniteSemiring, width: int,
                   members: np.ndarray) -> Tuple[str, ...]:
    """Each member's label: the scalar's on one point, else a tuple."""
    vecs = _digits(members, s.size, width).tolist()
    if width == 1:
        return tuple(s.label(v[0]) for v in vecs)
    return tuple("(" + ",".join(s.label(c) for c in v) + ")" for v in vecs)


def free_semimodule(s: FiniteSemiring, points: Sequence[str],
                    max_carrier: int = MAX_CARRIER) -> FreeSemimodule:
    """The pointwise module of maps points -> s: the tables of
    _vector_tables over every base-|S| index of len(points) digits."""
    pts = tuple(str(p) for p in points)
    size = s.size ** len(pts)
    check_bound(SizeGuard, "free module carrier", size, "max_carrier",
                max_carrier)
    members = np.arange(size)
    add, action, zero = _vector_tables(s, len(pts), members)
    return FreeSemimodule(scalars=s, size=size, add=add, zero=zero,
                          action=action, points=pts,
                          labels=_vector_labels(s, len(pts), members))


def module_over_self(s: FiniteSemiring) -> FiniteSemimodule:
    """The semiring acting on its own additive monoid by multiplication."""
    return FiniteSemimodule(scalars=s, size=s.size, add=s.add, zero=s.zero,
                            action=s.mul, labels=s.labels)


def trivial_module(s: FiniteSemiring) -> FiniteSemimodule:
    return FiniteSemimodule(scalars=s, size=1, add=((0,),), zero=0,
                            action=tuple((0,) for _ in range(s.size)),
                            labels=("0",))


# ----- generation -----------------------------------------------------------

def _span(m: FiniteSemimodule, gens: Iterable[int]) -> Set[int]:
    return set(_derivation(m.add, m.zero, m.action, gens)[0])


@dataclass(frozen=True)
class Subsemimodule(FiniteSemimodule):
    """A subsemimodule on its own indices; members maps back to the parent."""

    members: Tuple[int, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        # members index the parent's carrier, which any sequence index bounds
        _store(self, members=_index_grid(self.members, (self.size,),
                                         sys.maxsize, "members"))


def generate(m: FiniteSemimodule, gens: Iterable[int]) -> Subsemimodule:
    """Least subsemimodule of m containing gens (always contains zero)."""
    members = sorted(_span(m, _index_list(gens, m.size, "generators")))
    pos = {x: i for i, x in enumerate(members)}
    add = tuple(tuple(pos[m.add[x][y]] for y in members) for x in members)
    action = tuple(tuple(pos[m.action[a][x]] for x in members)
                   for a in range(m.scalars.size))
    labels = tuple(m.label(x) for x in members)
    return Subsemimodule(scalars=m.scalars, size=len(members), add=add,
                         zero=pos[m.zero], action=action, labels=labels,
                         members=tuple(members))


def minimal_generating_set(m: FiniteSemimodule) -> Tuple[int, ...]:
    """Greedy removal of each element spanned by the others, in one pass.

    Span is monotone, so an element kept once stays unspanned as others
    are removed, and no second pass is needed. Deterministic but not
    claimed minimum-cardinality; any output generates the whole module,
    which is all hom enumeration needs. It is the generators of m's
    search plan, planned once per table over the rows that move some
    element (_moving_rows): a row that fixes every element or sends it to
    the zero derives none, and over B every row of a lawful module is
    such."""
    rows, _ = _moving_rows(m.action, m.action, (m.zero, m.zero))
    return _schedule(m.add, m.zero, rows).gens


def _generators(add, zero: int, action) -> Tuple[int, ...]:
    """The greedy generators of minimal_generating_set, on the tables."""
    kept = [x for x in range(len(add)) if x != zero]
    for x in list(kept):
        rest = [y for y in kept if y != x]
        if x in _derivation(add, zero, action, rest, stop=x)[1]:
            kept = rest
    return tuple(kept)


def _derivation(add, zero: int, action, gens: Iterable[int], stop=None):
    """A first-found derivation of every element that zero and gens span
    under add and the action rows, in the order found, ending early once
    stop is found: each element found is summed with itself and with every
    element found before it, both ways round, then moved by every row."""
    deriv: Dict[int, tuple] = {zero: ("zero",)}
    order: List[int] = [zero]
    for i, g in enumerate(gens):
        if g not in deriv:
            deriv[g] = ("gen", i)
            order.append(g)
    done = 0
    while done < len(order) and stop not in deriv:
        x = order[done]
        done += 1
        row = add[x]
        for y in order[:done]:
            r = row[y]
            if r not in deriv:
                deriv[r] = ("add", x, y)
                order.append(r)
            r = add[y][x]
            if r not in deriv:
                deriv[r] = ("add", y, x)
                order.append(r)
        for a, moved in enumerate(action):
            r = moved[x]
            if r not in deriv:
                deriv[r] = ("act", a, x)
                order.append(r)
    return order, deriv


# ----- homomorphisms --------------------------------------------------------

@dataclass(frozen=True)
class SemimoduleHom(_IndexMap):
    """A map preserving addition, zero, and the scalar action."""

    source: FiniteSemimodule
    target: FiniteSemimodule
    mapping: Tuple[int, ...]

    @cached_property
    def _broken(self) -> Optional[str]:
        """Zero, then the first (x, y) where the sum is not preserved, then
        the first (a, x) where the action is not: the additivity of the
        map, then the action, each scan one row at a time in Python or a
        block of rows at a time in numpy, as _small decides on the entries
        it reads. Modules over other scalars are refused with
        ScalarMismatch before any table is read."""
        m, n, h = self.source, self.target, self.mapping
        if not same_scalars(m.scalars, n.scalars):
            raise ScalarMismatch("module hom needs a common scalar semiring")
        if h[m.zero] != n.zero:
            return "zero not preserved"
        if _small(m.size * m.size):
            bad = _first_difference(
                (tuple(map(h.__getitem__, sums)) for sums in m.add),
                (tuple(map(n.add[v].__getitem__, h)) for v in h))
        else:
            img = np.array(h, dtype=np.intp)
            bad = _first_in_blocks(m.size, m.size, lambda x: _additivity_mask(
                img[None], m.np_add, n.np_add, x)[0])
        if bad is not None:
            return "addition not preserved at ({}, {})".format(*bad)
        if _small(m.scalars.size * m.size):
            bad = _first_difference(
                (tuple(map(h.__getitem__, moved)) for moved in m.action),
                (tuple(map(row.__getitem__, h)) for row in n.action))
        else:
            img = np.array(h, dtype=np.intp)
            bad = _first_in_blocks(m.scalars.size, m.size, lambda a: (
                img[m.np_action[a]] != n.np_action[a][:, img]))
        return bad and "action not preserved at ({}, {})".format(*bad)

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.size


def _assignments(size: int, count: int, per_item: int
                 ) -> Iterator[np.ndarray]:
    """Every tuple in range(size)^count in lexicographic order, as (k, count)
    arrays: the digits of consecutive base-size indices over the
    semiring._blocks of the indices, for a sweep of per_item entries a
    tuple, refused past int64, where the place values would wrap."""
    total = size ** count
    check_bound(EnumGuard, "tuples", total, "int64 max", (1 << 63) - 1)
    for block in _blocks(total, per_item):
        yield _digits(np.arange(block.start, block.stop), size, count)


class _LevelSchedule:
    """The one search for homs out of a table: module homs, monoid homs
    and, through Hom(N, C), bimorphisms.

    A table is planned once, with its zero and action rows (none for a
    monoid): its greedy minimal generators and the first derivation found
    of every element from them, each step a sum of two elements found
    before or an action row moving one. The search assigns values to the
    generators in order, one level each, and sets every other element by
    its step: the zero to the base, a sum by plus, a moved element by
    shift. A hom sends each element where its step does, so each hom is
    found once. An element is final at the level of the last generator
    its derivation reads, and each check runs once, at the first level
    where the values it reads are final: each sum, v[c + d] ==
    plus[v[c]][v[d]], and each move, v[a x] == shift[a][v[x]], less those
    a step makes true. A prefix that fails a check prunes its subtree, and
    the maps come out depth first, lexicographic in the generators' values
    when the domain ascends. The search keeps exactly the maps that pass
    every check, whatever the tables.

    Three laws of the sums each make some sum checks true, and a search
    told that its sums obey a law skips them: with the base a two-sided
    identity, a sum of the zero with x that is x, since v[zero] is the
    base; with commuting sums, the pair (c, d) with c > d when (d, c),
    checked at the same level or made true by a step, has the same sum;
    with idempotent sums, the pair (c, c) when c sums to itself. Each pair
    is filed under the first of these that fits it, so a skipped pair is
    always implied by the checks that remain. The moves are all filed, but
    a plan is made over the action rows some map can fail (_moving_rows),
    so a scalar acting trivially on both sides files none.
    """

    def __init__(self, add, zero: int, action=()):
        self.add, self.zero, self.action = add, zero, action
        self.gens = _generators(add, zero, action)
        self.size, self.depth = len(add), len(self.gens)
        order, self.deriv = _derivation(add, zero, action, self.gens)
        # per level, the steps (x, True, c, d) that set v[x] to the sum of
        # v[c] and v[d] and (x, False, a, y) that move v[y] by row a
        self.level = level = [0] * self.size
        self.steps: List[list] = [[] for _ in range(self.depth + 1)]
        for x in order:
            kind, *args = self.deriv[x]
            if kind == "gen":
                level[x] = args[0] + 1
            elif kind != "zero":
                # a sum reads both its elements, a move the one it moves
                reads = args if kind == "add" else args[1:]
                level[x] = max(level[y] for y in reads)
                self.steps[level[x]].append((x, kind == "add", *args))
        self._filed: Dict[tuple, list] = {}

    # The checks are filed on the first search, so that a guard read from
    # depth fires before the |add|^2 sums are built.

    @cached_property
    def sums(self) -> List[List[list]]:
        """Per level, the sum checks (c, d, c + d) that no step makes true:
        those no law makes true, then those made true by the base as
        identity, by commuting and by idempotence."""
        add, zero, level, deriv = self.add, self.zero, self.level, self.deriv
        sums = [[[], [], [], []] for _ in range(self.depth + 1)]
        for c, row in enumerate(add):
            for d, cd in enumerate(row):
                if deriv[cd] != ("add", c, d):
                    law = (1 if c == zero and cd == d or d == zero and cd == c
                           else 2 if c > d and add[d][c] == cd
                           else 3 if c == d == cd else 0)
                    sums[max(level[c], level[d], level[cd])][law].append(
                        (c, d, cd))
        return sums

    @cached_property
    def moves(self) -> List[list]:
        """Per level, the move checks (a, x, a x) that no step makes true."""
        moves: List[list] = [[] for _ in range(self.depth + 1)]
        for a, row in enumerate(self.action):
            for x, ax in enumerate(row):
                if self.deriv[ax] != ("act", a, x):
                    moves[max(self.level[x], self.level[ax])].append(
                        (a, x, ax))
        return moves

    def search(self, domain: Sequence, plus, base, laws,
               shift=()) -> Iterator[tuple]:
        """Every map that passes its checks, as its tuple of values, depth
        first. The generators take their values from domain; plus[p][q] is
        the sum of two values and base their zero, shift[a][p] is p moved
        by the plan's action row a, and laws says whether the sums have the
        base as identity, commute and are idempotent on every value."""
        sums = self._filed.get(laws)
        if sums is None:
            kept = (True,) + tuple(not held for held in laws)
            sums = self._filed[laws] = [
                [p for group, keep in zip(groups, kept) if keep
                 for p in group] for groups in self.sums]
        steps, moves, gens, depth = (self.steps, self.moves, self.gens,
                                     self.depth)
        v = [base] * self.size

        def settle(k: int) -> bool:
            for x, summed, p, q in steps[k]:
                v[x] = plus[v[p]][v[q]] if summed else shift[p][v[q]]
            for c, d, cd in sums[k]:
                if v[cd] != plus[v[c]][v[d]]:
                    return False
            for a, x, ax in moves[k]:
                if v[ax] != shift[a][v[x]]:
                    return False
            return True

        if not settle(0):
            return
        if not depth:
            yield tuple(v)
            return
        # walk[k] runs through the values of generator k: a value that
        # settles level k + 1 opens the next level, and a level that runs
        # out returns to the one above
        walk = [iter(domain)]
        while walk:
            k = len(walk)
            g = gens[k - 1]
            for value in walk[-1]:
                v[g] = value
                if settle(k):
                    if k < depth:
                        walk.append(iter(domain))
                        break
                    yield tuple(v)
            else:
                walk.pop()


@lru_cache(maxsize=64)
def _schedule(add: Table, zero: int, action: Table = ()) -> _LevelSchedule:
    """The search plan of a table and its action rows, planned once for
    every target."""
    return _LevelSchedule(add, zero, action)


@lru_cache(maxsize=64)
def _sum_laws(add: Table, zero: int) -> Tuple[bool, bool, bool]:
    """Whether add has zero as a two-sided identity, commutes and is
    idempotent. Pointwise sums of rows of its values inherit each law."""
    return (_first_identity_failure(add, zero) is None,
            _first_comm_failure(add) is None,
            _first_idempotent_failure(add) is None)


def _moving_rows(left: Table, right: Table, zeros=None
                 ) -> Tuple[Table, Table]:
    """The action rows of left and right, paired by scalar, whose move check
    (a, x, a x) some map can fail: all but the rows that act as the
    identity on both sides and, given zeros, a pair of elements, those
    that send each side to its element of zeros. A dropped row fixes every
    element of left or sends it to the zero, so it derives no element, and
    a plan over the kept rows has the generators and derivations of one
    over them all."""
    trivial = {(tuple(range(len(left[0]))), tuple(range(len(right[0]))))}
    if zeros is not None:
        trivial.add(((zeros[0],) * len(left[0]),
                     (zeros[1],) * len(right[0])))
    kept = [rows for rows in zip(left, right) if rows not in trivial]
    return tuple(zip(*kept)) or ((), ())


def join_irreducibles(add, zero: int) -> Tuple[int, ...]:
    """Elements of a join table other than zero that are not the join of
    two other elements.

    A table given as a numpy array, as the class index's span tables are,
    is read in numpy: the joins a + b other than a and b are counted with
    one bincount. A table given as nested sequences, as the modules store
    theirs, is read by a set comprehension, which costs a few microseconds
    on the small tables of the tensor layer, where numpy's fixed cost per
    call would be most of the time."""
    if isinstance(add, np.ndarray):
        own = np.arange(len(add))
        joins = np.bincount(add[(add != own[:, None]) & (add != own)],
                            minlength=len(add))
        return tuple(x for x, k in enumerate(joins.tolist())
                     if not k and x != zero)
    size = len(add)
    reducible = {add[a][b] for a in range(size) for b in range(size)
                 if add[a][b] != a and add[a][b] != b}
    return tuple(x for x in range(size) if x != zero and x not in reducible)


def _hom_search(m: FiniteSemimodule, n: FiniteSemimodule,
                max_enum: int = MAX_ENUM) -> Iterator[tuple]:
    """Every hom m -> n as its tuple of images, lazily, ordered
    lexicographically by generator images: the search of m's plan with
    values in n, summed by n's addition and moved by n's action. The
    scalar check and the guard run before the search starts."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("hom set needs a common scalar semiring")
    gens = minimal_generating_set(m)
    check_bound(EnumGuard, "hom-set candidate assignments",
                n.size ** len(gens), "max_enum", max_enum)
    rows, shift = _moving_rows(m.action, n.action, (m.zero, n.zero))
    return _schedule(m.add, m.zero, rows).search(
        range(n.size), n.add, n.zero, _sum_laws(n.add, n.zero), shift)


@dataclass(frozen=True, eq=False)
class HomSemilattice:
    """Every hom between two modules, as (k, |source|) rows in hom_set's
    order, with the pointwise monoid structure. A table over pairs of homs
    gathers k * k * |source| images, which max_enum, the bound the homs
    were found under, caps before the gather."""

    source: FiniteSemimodule
    target: FiniteSemimodule
    rows: np.ndarray
    max_enum: int = MAX_ENUM

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.homs)

    def __getitem__(self, i: int) -> SemimoduleHom:
        return self.homs[i]

    @cached_property
    def homs(self) -> Tuple[SemimoduleHom, ...]:
        return tuple(SemimoduleHom(self.source, self.target, tuple(row))
                     for row in self.rows.tolist())

    @cached_property
    def labels(self) -> Tuple[str, ...]:
        return tuple(",".join(map(str, row)) for row in self.rows.tolist())

    @cached_property
    def _keys(self) -> Dict[bytes, int]:
        return {key: i for i, key in enumerate(_row_bytes(self.rows))}

    def positions(self, images) -> np.ndarray:
        """The hom index of each map in images, an integer array of shape
        (..., |source|), as an array of shape (...), with -1 where the map
        is no hom."""
        images = np.asarray(images, dtype=np.intp)
        keys = self._keys
        found = [keys.get(b, -1) for b in _row_bytes(images)]
        return np.array(found, dtype=np.intp).reshape(images.shape[:-1])

    @cached_property
    def zero_index(self) -> int:
        zero = np.full(self.source.size, self.target.zero)
        return int(_require_homs(self.positions(zero),
                                 "the zero map is not a hom"))

    def _check_pairs(self, stage: str) -> None:
        """Refuse a gather over every pair of homs past max_enum images."""
        check_bound(EnumGuard, stage, len(self) ** 2 * self.source.size,
                    "max_enum", self.max_enum)

    @cached_property
    def add_table(self) -> Table:
        self._check_pairs("hom sums")
        sums = self.target.np_add[self.rows[:, None], self.rows[None]]
        return tuple(map(tuple, _require_homs(
            self.positions(sums),
            "the sum of homs {0} and {1} is not a hom").tolist()))

    def monoid_report(self) -> AxiomReport:
        return _law_report("hom-monoid", _monoid_laws(
            "add", self.add_table, self.zero_index))

    def to_module(self) -> FiniteSemimodule:
        """Pointwise scalar action; only sound for commutative scalars."""
        s = self.source.scalars
        if _first_comm_failure(s.mul) is not None:
            raise ScalarMismatch("pointwise action needs commutative scalars")
        action = _require_homs(
            self.positions(self.target.np_action[:, self.rows]),
            "scalar {0} times hom {1} is not a hom")
        return FiniteSemimodule(scalars=s, size=len(self),
                                add=self.add_table, zero=self.zero_index,
                                action=action, labels=self.labels)


def _row_bytes(rows: np.ndarray) -> List[bytes]:
    """Each row (along the last axis) of an array as intp bytes: a key
    exact at any width, where a base-|target| code of a row passes int64."""
    rows = np.ascontiguousarray(rows, dtype=np.intp)
    return rows.view(f"V{rows.shape[-1] * rows.itemsize}").ravel().tolist()


def _require_homs(pos: np.ndarray, message: str) -> np.ndarray:
    """pos, from HomSemilattice.positions, when it found every map; else
    NotAHom with message formatted by the index of the first one missing."""
    if (pos < 0).any():
        raise NotAHom(message.format(*np.argwhere(pos < 0)[0].tolist()))
    return pos


def hom_set(m: FiniteSemimodule, n: FiniteSemimodule,
            max_enum: int = MAX_ENUM) -> HomSemilattice:
    """All homs m -> n, ordered lexicographically by generator images."""
    rows = np.fromiter(itertools.chain.from_iterable(
        _hom_search(m, n, max_enum)), dtype=np.intp).reshape(-1, m.size)
    rows.setflags(write=False)
    return HomSemilattice(m, n, rows, max_enum)


def _first_hom(m: FiniteSemimodule, n: FiniteSemimodule, keep,
               max_enum: int = MAX_ENUM) -> Optional[SemimoduleHom]:
    """The first hom m -> n in hom_set order whose row keep marks, or None.
    keep reads (k, |m|) arrays of homs, k = 8 first and doubling after."""
    homs = _hom_search(m, n, max_enum)
    batch = 8
    while True:
        rows = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(homs, batch)), dtype=np.intp).reshape(-1, m.size)
        if not len(rows):
            return None
        hit = np.flatnonzero(keep(rows))
        if len(hit):
            return SemimoduleHom(m, n, tuple(rows[hit[0]].tolist()))
        batch *= 2


def compose_module_homs(g: SemimoduleHom, f: SemimoduleHom) -> SemimoduleHom:
    """g after f, when f's target and g's source are one module: equal in
    size, zero, addition, action and scalars."""
    a, b = f.target, g.source
    if a is not b and ((a.size, a.zero, a.add, a.action)
                       != (b.size, b.zero, b.add, b.action)
                       or not same_scalars(a.scalars, b.scalars)):
        raise ScalarMismatch("middle modules disagree")
    return SemimoduleHom(f.source, g.target,
                         tuple(g.mapping[v] for v in f.mapping))


# ----- endomorphism semirings -----------------------------------------------

@dataclass(frozen=True)
class EndSemiring:
    """Endomorphisms under pointwise sum and composition, multiplied by
    applying the left factor first: mul[i][j] is hom j after hom i. The
    usual composition order is opposite_semiring of this one."""

    module: FiniteSemimodule
    semiring: FiniteSemiring
    homs: HomSemilattice


def end_semiring(m: FiniteSemimodule,
                 max_enum: int = MAX_ENUM) -> EndSemiring:
    hs = hom_set(m, m, max_enum)
    hs._check_pairs("hom products")
    after = hs.rows[np.arange(len(hs))[None, :, None], hs.rows[:, None, :]]
    mul = _require_homs(hs.positions(after),
                        "hom {1} after hom {0} is not a hom")
    one = int(_require_homs(hs.positions(np.arange(m.size)),
                            "the identity is not a hom"))
    ring = FiniteSemiring(len(hs), hs.add_table, mul, hs.zero_index, one,
                          hs.labels)
    return EndSemiring(m, ring, hs)


def additive_monoid_module(s: FiniteSemiring) -> FiniteSemimodule:
    """The additive monoid of s over the two-element boolean semiring, so
    module endomorphisms are exactly monoid endomorphisms."""
    return FiniteSemimodule(scalars=boolean_semiring(), size=s.size,
                            add=s.add, zero=s.zero,
                            action=((s.zero,) * s.size, tuple(range(s.size))),
                            labels=s.labels)


@dataclass(frozen=True)
class XiEmbedding:
    """Right translations a -> (x -> x*a) inside End of the additive monoid.

    With the diagrammatic product on End this is a semiring homomorphism for
    any scalars, commutative or not, and x = one recovers a."""

    source: FiniteSemiring
    end: EndSemiring
    hom: SemiringHom
    injective: bool
    unit_witness: bool

    @property
    def mapping(self) -> Tuple[int, ...]:
        return self.hom.mapping


def xi_embedding(s: FiniteSemiring, max_enum: int = MAX_ENUM) -> XiEmbedding:
    monoid = additive_monoid_module(s)
    end = end_semiring(monoid, max_enum=max_enum)
    mapping = _require_homs(end.homs.positions(s.np_mul.T),
                            "the right translation by {0} is not a hom")
    hom = SemiringHom(s, end.semiring, mapping)
    hom.validate()
    injective = len(set(hom.mapping)) == s.size
    unit = bool((end.homs.rows[mapping, s.one] == np.arange(s.size)).all())
    return XiEmbedding(s, end, hom, injective, unit)


# ----- strong modules over MV scalars ----------------------------------------

@dataclass(frozen=True)
class StrongnessResult:
    strong: bool
    witness: Optional[Tuple[int, int, int]] = None   # (a, b, x)

    def __bool__(self) -> bool:
        return self.strong


def is_strong(alg: MvAlgebra, m: FiniteSemimodule) -> StrongnessResult:
    """Whenever two scalars act identically, their negations must as well."""
    if not same_scalars(reduct_vee_odot(alg), m.scalars):
        raise ScalarMismatch("module must live over the join-product reduct")
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            if m.action[a] != m.action[b]:
                continue
            ra, rb = m.action[alg.star[a]], m.action[alg.star[b]]
            if ra != rb:
                x = next(i for i in range(m.size) if ra[i] != rb[i])
                return StrongnessResult(False, (a, b, x))
    return StrongnessResult(True)


@dataclass(frozen=True)
class EndMvResult:
    """Whether the action image carries the involution of the scalars."""

    well_defined: bool
    conflict: Optional[Tuple[int, int]]
    image_algebra: Optional[MvAlgebra]
    image_valid: Optional[bool]


def endmv_check(alg: MvAlgebra, m: FiniteSemimodule) -> EndMvResult:
    """Group scalars by their action map and transport star to the classes.

    Independent of is_strong: this works on the image partition, not on
    scalar pairs, and additionally rebuilds the image as an algebra."""
    if not same_scalars(reduct_vee_odot(alg), m.scalars):
        raise ScalarMismatch("module must live over the join-product reduct")
    cls: Dict[Tuple[int, ...], int] = {}
    of: List[int] = []
    reps: List[int] = []
    for a in range(alg.size):
        row = m.action[a]
        if row not in cls:
            cls[row] = len(reps)
            reps.append(a)
        of.append(cls[row])
    star_of: Dict[int, int] = {}
    for a in range(alg.size):
        c, sc = of[a], of[alg.star[a]]
        if c in star_of and star_of[c] != sc:
            other = next(b for b in range(a) if of[b] == c
                         and of[alg.star[b]] != sc)
            return EndMvResult(False, (other, a), None, None)
        star_of[c] = sc
    k = len(reps)
    oplus = []
    for i in range(k):
        row = []
        for j in range(k):
            vals = {of[alg.oplus[a][b]]
                    for a in range(alg.size) if of[a] == i
                    for b in range(alg.size) if of[b] == j}
            if len(vals) != 1:
                return EndMvResult(False, (reps[i], reps[j]), None, None)
            row.append(vals.pop())
        oplus.append(tuple(row))
    image = MvAlgebra(k, tuple(oplus), tuple(star_of[i] for i in range(k)),
                      of[alg.zero], tuple(alg.label(r) for r in reps))
    return EndMvResult(True, None, image, check_mv_axioms(image).valid)


# ----- quotients and scalar restriction ---------------------------------------

@dataclass(frozen=True)
class QuotientModuleResult:
    module: FiniteSemimodule
    classes: Tuple[Tuple[int, ...], ...]
    strongness: StrongnessResult


def quotient_module_from_ideal(alg: MvAlgebra, ideal) -> QuotientModuleResult:
    """The quotient algebra's join semilattice with product action by alg."""
    q = quotient(alg, ideal)
    b = q.algebra
    cls = q.hom.mapping
    scal = reduct_vee_odot(alg)
    action = []
    for a in range(alg.size):
        row = []
        for block in q.classes:
            images = {cls[alg.times(a, x)] for x in block}
            if len(images) != 1:
                raise IllDefinedAction(f"scalar {a} tears a class apart")
            row.append(images.pop())
        action.append(tuple(row))
    module = FiniteSemimodule(scalars=scal, size=b.size, add=b.vee,
                              zero=b.zero, action=tuple(action),
                              labels=b.labels)
    return QuotientModuleResult(module, q.classes, is_strong(alg, module))


def restrict_scalars(h: SemiringHom, n: FiniteSemimodule) -> FiniteSemimodule:
    """Pull the action back along a validated semiring hom; carrier
    unchanged. The rows of n's action that h picks are n's own checked
    tuples, so the module is built by FiniteSemimodule._trusted."""
    h.validate()
    if not same_scalars(h.target, n.scalars):
        raise ScalarMismatch("hom target must be the module's scalars")
    action = tuple(map(n.action.__getitem__, h.mapping))
    return FiniteSemimodule._trusted(h.source, n.size, n.add, n.zero, action,
                                     n.labels)


# ----- free universal property -----------------------------------------------

def free_universal_property(f: FreeSemimodule, m: FiniteSemimodule,
                            max_enum: int = MAX_ENUM) -> dict:
    """Every map from the points into m extends to exactly one hom.

    Existence is checked by building the linear-combination extension of
    every point map, a chunk of maps at a time in one _combine, and looking
    the extensions up in hom_set(f, m) with positions; uniqueness by
    counting the homs by their basis values, since a hom out of a free
    module is the extension of those values. A chunk holds
    |f| (|f| + |S|) entries a map."""
    if not same_scalars(f.scalars, m.scalars):
        raise ScalarMismatch("target must share the scalars")
    npts = len(f.points)
    total = m.size ** npts
    check_bound(EnumGuard, "point maps", total, "max_enum", max_enum)
    homs = hom_set(f, m, max_enum)
    by_basis = Counter(map(tuple, homs.rows[:, list(f.basis)].tolist()))
    coeffs = _digits(np.arange(f.size), f.scalars.size, npts).T[:, None]
    existence = 0
    uniqueness = 0
    for imgs in _assignments(m.size, npts,
                             f.size * (f.size + f.scalars.size)):
        built = _combine(m.np_add, m.np_action, m.zero, coeffs,
                         imgs.T[:, :, None])
        found = homs.positions(built) >= 0
        existence += len(found) - int(found.sum())
        uniqueness += sum(by_basis[p] != 1
                          for p in map(tuple, imgs[found].tolist()))
    return {"maps": total, "existence_failures": existence,
            "uniqueness_failures": uniqueness,
            "ok": existence == 0 and uniqueness == 0}
