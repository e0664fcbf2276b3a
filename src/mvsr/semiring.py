"""Finite semirings presented by dense operation tables.

Elements are the indices 0..size-1. Binary operations are size x size index
tables, so every law check is an exhaustive sweep; the sweeps are vectorized
because matrix semirings get into the hundreds of elements.

A semiring is a module over itself, so the semiring, semimodule, MV and
hom laws share one kernel per law shape (associativity, additivity and
absorption), each reading the stored tuples. Each scan finds its first
witness on one of two sides, as the size policy decides: in Python, by
_first_difference over the two sides of its law, or in numpy, by
_first_in_blocks over the law's mask.
The semiring, module, MV and hom-monoid reports open with one
commutative-monoid triple, _monoid_laws, and are built by _law_report;
the semiring, MV and module homs share one validate, on _IndexMap, which
reads each hom's laws once.

The three lattices of closed sets the package enumerates, the ideals of
an MV-algebra, the subsemimodules of a module and the tensor congruence,
come from one closed-set sweep over bitmasks, _closed_sets, which holds
the one closure loop: a caller hands it the mask every closed set holds
and what each member implies, and each join is grown from the member it
adds. Ideals and subsemimodules are closed under a table and a map of
each member, and share one implied, _sum_closure.

Every bounded sweep of the package, the law scans here, the storage of an
integer array as tuples, and in the other modules the vector tables,
tuple enumeration, idempotent matrices, eta, row spans and module
enumeration, walks its items in the blocks of _blocks, the one reader of
the element budget _CHUNK_ELEMENTS: a caller says how many entries one
item's temporaries hold, so one patch of the budget splits every sweep.

Beside the chunk policy stands one size policy: _small, the one reader of
_SMALL_ENTRIES, decides per scan, on the entries the scan reads, whether
a law or hom scan runs in plain Python on the stored tuples or in numpy,
and whether _array_grid checks a small integer array as Python ints.
numpy pays 15-20 us a call, more than a Python loop over the couple of
hundred entries of a small table, so small tables pay small fixed costs,
and the 625-element matrix semirings of the hom checks still run in
numpy. Both sides give the same witnesses, the first in row-major order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

import numpy as np

from .errors import MalformedTable, NotAHom, NotIdempotent, check_count

Table = Tuple[Tuple[int, ...], ...]
# Most elements any one temporary array of a bounded sweep holds, read by
# _blocks alone: each sweep walks its items in the blocks it yields.
_CHUNK_ELEMENTS = 1 << 18
# Most entries a law or hom scan, or the check of an integer array, reads
# in plain Python, read by _small alone: past it the scan runs in numpy.
# Set at the crossover measured on fresh tables, 100 to 200 entries for
# the law and hom scans; CHANGES.md has the timings.
_SMALL_ENTRIES = 200


def _blocks(count: int, per_item: int) -> Iterator[slice]:
    """The slices of range(count) in order, each of at most
    _CHUNK_ELEMENTS // per_item items and at least one: the one chunk
    policy of every bounded sweep, for temporaries of per_item entries an
    item."""
    step = max(1, _CHUNK_ELEMENTS // max(1, per_item))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _small(entries: int) -> bool:
    """Whether a scan that reads this many entries runs in plain Python on
    the stored tuples: the one size policy of every law and hom scan and
    of _array_grid. numpy's fixed cost of 15-20 us a call exceeds a Python
    loop over a couple of hundred entries; past that numpy is faster."""
    return entries <= _SMALL_ENTRIES


def _entry(x, what: str) -> int:
    # check_count's rule, with the table named in the message
    try:
        return check_count(x, what, None, MalformedTable)
    except MalformedTable:
        raise MalformedTable(f"{what} entry {x!r} is not an integer") from None


def _index_grid(values, shape: Tuple[int, ...], bound: int, what: str):
    """values checked as exact integers in 0..bound-1 laid out in shape,
    which is () for an index, (n,) for a map and (r, c) for a table, and
    returned as the int or tuples a structure stores; else MalformedTable.
    A Python sequence is checked entry by entry, so bool, float, str, None
    and nested sequences are refused. An integer ndarray has its dtype and
    shape checked first; then a small one, by _small on its entries, is
    read as Python ints by the sequence path, and a larger one is checked
    in numpy, a table from it holding one int object per index."""
    shape = tuple(shape)
    if isinstance(values, np.ndarray):
        return _array_grid(values, shape, bound, what)
    if len(shape) == 2:
        return tuple(_row(row, shape, bound, what)
                     for row in _items(values, shape[0], shape, what))
    if shape:
        return _row(values, shape, bound, what)
    x = _entry(values, what)
    if not 0 <= x < bound:
        raise _range_error(what, shape, x, bound)
    return x


def _row(values, shape, bound: int, what: str) -> Tuple[int, ...]:
    """A row of shape[-1] exact integers in 0..bound-1; a row of plain
    ints, the common case, is checked in bulk."""
    row = _items(values, shape[-1], shape, what)
    if not set(map(type, row)) <= {int}:
        row = tuple(_entry(x, what) for x in row)
    if row and (min(row) < 0 or max(row) >= bound):
        x = next(x for x in row if not 0 <= x < bound)
        raise _range_error(what, shape, x, bound)
    return row


def _items(values, count: int, shape, what: str) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or len(items) != count:
        raise _shape_error(what, shape)
    return items


def _shape_error(what: str, shape) -> MalformedTable:
    if len(shape) == 2:
        return MalformedTable(f"{what} table must be {shape[0]}x{shape[1]}")
    return MalformedTable(f"{what} table must have {shape[0]} entries"
                          if shape else f"{what} must be a single index")


def _range_error(what: str, shape, x: int, bound: int) -> MalformedTable:
    kind = "table entry" if shape else "index"
    return MalformedTable(f"{what} {kind} {x} out of range 0..{bound - 1}")


def _array_grid(values: np.ndarray, shape, bound: int, what: str):
    if values.dtype.kind not in "iu":
        raise MalformedTable(f"{what} array of dtype {values.dtype} is not "
                             f"an integer array")
    if values.shape != shape:
        raise _shape_error(what, shape)
    if _small(values.size):
        # Python ints in row-major order, checked row by row by _row
        return _index_grid(values.tolist(), shape, bound, what)
    _array_range(values, shape, bound, what)
    if values.ndim == 2:
        ints = np.arange(bound, dtype=object)
        return tuple(row for block in _blocks(shape[0], shape[1])
                     for row in map(tuple, ints[values[block]].tolist()))
    return tuple(values.tolist()) if shape else values.item()


def _array_range(values: np.ndarray, shape, bound: int, what: str) -> None:
    """Refuse an integer array with an entry outside 0..bound-1, naming the
    first in row-major order."""
    if values.size and (values.min() < 0 or values.max() >= bound):
        x = values[(values < 0) | (values >= bound)][0]
        raise _range_error(what, shape, int(x), bound)


def _index_list(values, bound: int, what: str) -> Tuple[int, ...]:
    """values checked by _index_grid as a sequence of indices in
    0..bound-1 of any length; a value that is not a sequence, such as a
    bare integer, raises MalformedTable before any entry is read."""
    try:
        values = tuple(values)
    except TypeError:
        raise MalformedTable(f"{what} must be a sequence of "
                             f"indices") from None
    return _index_grid(values, (len(values),), bound, what)


def _label_tuple(labels, size: int) -> Optional[Tuple[str, ...]]:
    """Labels as strings, one per element, or None when there are none."""
    if labels is not None:
        labels = tuple(map(str, labels))
        if len(labels) != size:
            raise MalformedTable("labels must match carrier size")
    return labels


def _store(obj, **fields) -> None:
    """Set the fields of a frozen dataclass from its __post_init__."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def fold(add: Table, zero: int, xs: Iterable[int]) -> int:
    """The sum of xs under the addition table add, starting from zero."""
    acc = zero
    for x in xs:
        acc = add[acc][x]
    return acc


def _combine(add: np.ndarray, act: np.ndarray, zero: int, coeffs,
             images) -> np.ndarray:
    """The linear combinations sum over i of act[coeffs[i], images[i]],
    folded under add from zero in index order: fold's array form, and the
    one fold of every matrix product (act the scalar product) and every
    combination in a module (act its action). The term axis is the first
    axis of coeffs and images; their other axes broadcast, and with no
    terms every combination is zero."""
    acc = zero
    for c, x in zip(coeffs, images):
        acc = add[acc, act[c, x]]
    if not len(coeffs):
        acc = np.full(np.broadcast_shapes(np.shape(coeffs)[1:],
                                          np.shape(images)[1:]), zero,
                      dtype=np.intp)
    return acc


def _members(mask: int) -> List[int]:
    """The set bits of a mask, in increasing order, popped lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closed_sets(width: int, start: int, implied: Callable[[int, int], int],
                 guard: Optional[Callable[[int], None]] = None
                 ) -> Tuple[List[int], List[List[int]]]:
    """The closed subsets of range(width), coded as bitmasks, in the order
    found, with the step table: step[k][i] is the index of the closure of
    closed set k joined with the singleton {i}. A set is closed when it
    holds start and implied(i, mask) for each of its members i, with mask
    the set itself; implied must not shrink as mask grows. The closure of
    start comes first, then each closed set is joined once with every
    singleton (Ganter & Wille, Formal Concept Analysis, 1999). Every closed
    set is reached, as the closure of start joined with its members one at
    a time, so nothing indexed by all 2^width subsets is built.

    A closure grows from its new members alone (LinClosure, Beeri &
    Bernstein, ACM TODS 1979): the set joined is closed already, so each
    new member i is read once, as implied(i, mask) with mask the members
    read before it and i, and what that forces joins the members still to
    be read. A join that adds nothing costs no call.

    With guard given, it is called before each closed set's step row is
    built with the closures the sweep has taken on so far, closed sets
    found times width, and raises to refuse them: the one admission check
    of every caller, which binds its own stage, bound and guard type."""
    def close(done: int, new: int) -> int:
        new &= ~done
        while new:
            low = new & -new
            done |= low
            new = (new | implied(low.bit_length() - 1, done)) & ~done
        return done

    closed = [close(0, start)]
    index = {closed[0]: 0}
    step: List[List[int]] = []
    for c in closed:
        if guard is not None:
            guard(len(closed) * width)
        row = []
        for i in range(width):
            joined = close(c, 1 << i)
            if joined not in index:
                index[joined] = len(closed)
                closed.append(joined)
            row.append(index[joined])
        step.append(row)
    return closed, step


def _sum_closure(table: Table, single: List[int]) -> Callable[[int, int], int]:
    """The implied of _closed_sets for the sets closed under the binary
    table and each member's images single[i], a bitmask: member i forces
    table[i][y] and table[y][i] for every y of the mask, i itself included,
    and single[i]. Each pair of members is read once, when the later of
    the two is read, and nothing of size |table|^2 is built."""
    def implied(i: int, mask: int) -> int:
        row, forced = table[i], single[i]
        for y in _members(mask):
            forced |= 1 << row[y] | 1 << table[y][i]
        return forced
    return implied


@dataclass(frozen=True)
class FiniteSemiring:
    """A semiring on {0..size-1} given by addition and multiplication tables."""

    size: int
    add: Table
    mul: Table
    zero: int
    one: int
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        n = self.size
        _store(self, add=_index_grid(self.add, (n, n), n, "add"),
               mul=_index_grid(self.mul, (n, n), n, "mul"),
               zero=_index_grid(self.zero, (), n, "zero"),
               one=_index_grid(self.one, (), n, "one"),
               labels=_label_tuple(self.labels, n))

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]

    def times(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def sum(self, xs: Iterable[int]) -> int:
        return fold(self.add, self.zero, xs)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def core(self):
        """Structural identity, ignoring labels."""
        return (self.size, self.add, self.mul, self.zero, self.one)

    @cached_property
    def np_add(self) -> np.ndarray:
        return np.array(self.add, dtype=np.int64)

    @cached_property
    def np_mul(self) -> np.ndarray:
        return np.array(self.mul, dtype=np.int64)


def same_scalars(s: FiniteSemiring, t: FiniteSemiring) -> bool:
    return s.core() == t.core()


@dataclass(frozen=True)
class LawCheck:
    name: str
    ok: bool
    witness: Optional[Tuple[int, ...]] = None

    def to_dict(self):
        return {"name": self.name, "ok": self.ok,
                "witness": list(self.witness) if self.witness is not None else None}


@dataclass(frozen=True)
class AxiomReport:
    structure: str
    laws: Tuple[LawCheck, ...]

    @property
    def valid(self) -> bool:
        return all(law.ok for law in self.laws)

    def failures(self) -> Tuple[LawCheck, ...]:
        return tuple(law for law in self.laws if not law.ok)

    def to_dict(self):
        return {"structure": self.structure, "valid": self.valid,
                "laws": [law.to_dict() for law in self.laws]}


def _law_report(structure: str, checks: Iterable[Tuple[str, Optional[tuple]]]
                ) -> AxiomReport:
    """The report of each (law, first witness or None) of checks, in order."""
    return AxiomReport(structure, tuple(LawCheck(name, w is None, w)
                                        for name, w in checks))


def _first_true(mask: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The index of the first true entry of mask in row-major order, or
    None; a mask with no true entry, the lawful case, costs one any()."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _first_in_blocks(count: int, per_item: int, mask):
    """The first true index of mask(block), offset by the block's start,
    over the _blocks of range(count), for a mask of per_item entries an
    item; else None. The numpy side of every law and hom scan."""
    for block in _blocks(count, per_item):
        bad = _first_true(mask(block))
        if bad:
            return (block.start + bad[0],) + bad[1:]
    return None


def _first_difference(lhs, rhs) -> Optional[Tuple[int, ...]]:
    """The first index, in row-major order, where lhs and rhs, equally
    nested sequences of ints, differ; None where they agree. The Python
    side of every law and hom scan: the two sides of its law, item by item
    along the first axis of its mask, so the index is the mask's first
    true entry. Rows are compared whole, and the top level may be lazy, so
    the scan stops at the first item that differs."""
    for j, (u, v) in enumerate(zip(lhs, rhs)):
        if u != v:
            return (j,) + (_first_difference(u, v)
                           if isinstance(u, (tuple, list)) else ())
    return None


def _arrays(*tables: Table) -> Tuple[np.ndarray, ...]:
    """Stored tables as arrays, for the numpy side of a law scan, which
    reads more entries than the conversion writes."""
    return tuple(np.array(t, dtype=np.intp) for t in tables)


def _assoc_mask(acts: np.ndarray, mul: np.ndarray, a: slice) -> np.ndarray:
    """Where each action acts[k] of the stack, acts[k, a, x] an action of
    the multiplication mul, breaks a(bx) = (ab)x: true at (k, a, b, x), for
    the scalars a of the slice a. Each a(bx) is one gather from the rows of
    a, flattened, at the start of a's row in stack k plus bx."""
    rows = acts[:, a]
    start = np.arange(0, rows.size, rows.shape[2]).reshape(*rows.shape[:2],
                                                           1, 1)
    return rows.reshape(-1)[start + acts[:, None]] != acts[:, mul[a]]


def _first_assoc_failure(act: Table, mul: Table):
    """The first (a, b, x) where a(bx) != (ab)x, for act[a][x] an action of
    the multiplication mul: (t, t) is the associativity of a table t, and
    (action, scalar product) a module's action-associative law. One row
    per (a, b) in Python, else _assoc_mask on the stack of act alone."""
    if _small(len(act) * len(mul[0]) * len(act[0])):
        return _first_difference(
            ([tuple(map(row.__getitem__, moved)) for moved in act]
             for row in act),
            (list(map(act.__getitem__, products)) for products in mul))
    act, mul = _arrays(act, mul)
    return _first_in_blocks(len(act), mul.shape[1] * act.shape[1],
                            lambda a: _assoc_mask(act[None], mul, a)[0])


def _additivity_mask(maps: np.ndarray, add1: np.ndarray, add2: np.ndarray,
                     x=slice(None)) -> np.ndarray:
    """Where each map r of the stack maps, from the addition add1 to add2,
    breaks r(x + y) = r(x) + r(y): true at (r, x, y), for the x of the
    slice x."""
    return maps[:, add1[x]] != add2[maps[:, x, None], maps[:, None, :]]


def _first_additive_failure(maps: Table, add1: Table, add2: Table):
    """The first (r, x, y) where map r breaks r(x + y) = r(x) + r(y), from
    the addition add1 to add2: (action, add, add) is a module's
    action-additive law and (mul, add, add) left distributivity. One row
    per (r, x) in Python, else _additivity_mask."""
    if _small(len(maps) * len(add1) ** 2):
        return _first_difference(
            ([tuple(map(row.__getitem__, sums)) for sums in add1]
             for row in maps),
            ([tuple(map(add2[v].__getitem__, row)) for v in row]
             for row in maps))
    maps, add1, add2 = _arrays(maps, add1, add2)
    return _first_in_blocks(len(maps), add1.size,
                            lambda r: _additivity_mask(maps[r], add1, add2))


def _first_comm_failure(t: Table):
    """The first (x, y) with t[x][y] != t[y][x]: each row against its
    column in Python, else the table against its transpose."""
    if _small(len(t) ** 2):
        return _first_difference(t, zip(*t))
    t, = _arrays(t)
    return _first_true(t != t.T)


def _first_identity_failure(t: Table, e: int):
    # A law of linear size is read from the stored tuples: numpy's fixed
    # cost per call would exceed the scan on the tables it is asked about.
    x = next((x for x, v in enumerate(t[e]) if v != x), None)
    if x is not None:
        return (e, x)
    x = next((x for x, row in enumerate(t) if row[e] != x), None)
    return None if x is None else (x, e)


def _first_idempotent_failure(t: Table):
    """The first (x,) with t[x][x] != x, read from the stored tuples."""
    return next(((x,) for x, row in enumerate(t) if row[x] != x), None)


def _monoid_laws(prefix: str, table: Table, e: int
                 ) -> Iterator[Tuple[str, Optional[tuple]]]:
    """The commutative-monoid laws that open the semiring, module, MV and
    hom-monoid reports, of the table with neutral e, as (prefix-law, first
    witness or None), each checked when asked for."""
    yield f"{prefix}-associative", _first_assoc_failure(table, table)
    yield f"{prefix}-commutative", _first_comm_failure(table)
    yield f"{prefix}-identity", _first_identity_failure(table, e)


def _first_absorb_failure(act: Table, scalar_zero: int, zero: int):
    """The first (scalar_zero, x) with act[scalar_zero][x] != zero, else
    the first (a, zero) with act[a][zero] != zero: (mul, zero, zero) is a
    semiring's zero absorption and (action, scalar zero, module zero) a
    module's action-zero law."""
    x = next((x for x, v in enumerate(act[scalar_zero]) if v != zero), None)
    if x is not None:
        return (scalar_zero, x)
    a = next((a for a, row in enumerate(act) if row[zero] != zero), None)
    return None if a is None else (a, zero)


_SEMIRING_LAWS = ("add-associative", "add-commutative", "add-identity",
                  "mul-associative", "mul-identity", "distributive-left",
                  "distributive-right", "zero-absorbing")


def check_semiring_axioms(s: FiniteSemiring) -> AxiomReport:
    """Exhaustively check the eight semiring laws, with first failing witness."""
    add, mul = s.add, s.mul
    # (a + b)c = ac + bc is the additivity of the column maps, met as (c, a, b)
    right = _first_additive_failure(tuple(zip(*mul)), add, add)
    witnesses = (_first_assoc_failure(mul, mul),
                 _first_identity_failure(mul, s.one),
                 _first_additive_failure(mul, add, add),
                 right and right[1:] + right[:1],
                 _first_absorb_failure(mul, s.zero, s.zero))
    return _law_report("semiring", [*_monoid_laws("add", add, s.zero),
                                    *zip(_SEMIRING_LAWS[3:], witnesses)])


def _sampled_law_failures(samples: int, draw, plus, times, zero, one,
                          extra=()) -> Dict[str, int]:
    """How many of samples triples (draw(), draw(), draw()) break each of
    the eight laws of check_semiring_axioms, in its order, under plus and
    times with neutrals zero and one, then each (name, broken) of extra,
    where broken(a, b, c) tells whether a triple breaks it. The caller
    checks samples as a count of at least 1: a report of no samples would
    read as a pass."""
    fails = dict.fromkeys(_SEMIRING_LAWS + tuple(name for name, _ in extra),
                          0)
    for _ in range(samples):
        a, b, c = draw(), draw(), draw()
        broken = (
            plus(plus(a, b), c) != plus(a, plus(b, c)),
            plus(a, b) != plus(b, a),
            plus(a, zero) != a,
            times(times(a, b), c) != times(a, times(b, c)),
            times(a, one) != a or times(one, a) != a,
            times(a, plus(b, c)) != plus(times(a, b), times(a, c)),
            times(plus(a, b), c) != plus(times(a, c), times(b, c)),
            times(a, zero) != zero or times(zero, a) != zero,
        ) + tuple(law(a, b, c) for _, law in extra)
        for name, bad in zip(fails, broken):
            fails[name] += bad
    return fails


def is_additively_idempotent(s: FiniteSemiring) -> bool:
    return _first_idempotent_failure(s.add) is None


def natural_order(s: FiniteSemiring) -> Tuple[Tuple[bool, ...], ...]:
    """Order table of the join semilattice (a <= b iff a + b = b).

    Only defined for additively idempotent semirings; then + is the least
    upper bound for this order.
    """
    if not is_additively_idempotent(s):
        raise NotIdempotent("natural order needs x + x = x for all x")
    return tuple(tuple(s.add[a][b] == b for b in range(s.size)) for a in range(s.size))


def opposite_semiring(s: FiniteSemiring) -> FiniteSemiring:
    """Same carrier with multiplication transposed; models right actions."""
    return FiniteSemiring(s.size, s.add, s.np_mul.T, s.zero, s.one, s.labels)


def boolean_semiring() -> FiniteSemiring:
    """The two-element semiring with join as addition."""
    return FiniteSemiring(2, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1, ("0", "1"))


class _IndexMap:
    """What the homs share: mapping[x] is the image of x, checked as a map
    from the source's carrier into the target's, and one validate. Each
    hom class reads its laws in _broken, the message of the first law the
    map breaks or None, cached: the tables are frozen, so a hom's laws are
    read once however often it is validated."""

    def __post_init__(self):
        _store(self, mapping=_index_grid(self.mapping, (self.source.size,),
                                         self.target.size, "hom"))

    def validate(self):
        """self, when the map keeps the laws; else NotAHom naming the first
        law it breaks."""
        if self._broken is not None:
            raise NotAHom(self._broken)
        return self

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_onto(self) -> bool:
        return len(set(self.mapping)) == self.target.size


@dataclass(frozen=True)
class SemiringHom(_IndexMap):
    """A map between finite semirings, validated against the four laws."""

    source: FiniteSemiring
    target: FiniteSemiring
    mapping: Tuple[int, ...]

    @cached_property
    def _broken(self) -> Optional[str]:
        """Zero, one, then the first (a, b) where the sum or the product is
        not preserved, the sum first: the additivity of the map under each
        table, interleaved, one source row at a time in Python or a block
        of rows at a time in numpy, as _small decides."""
        s, t, h = self.source, self.target, self.mapping
        if h[s.zero] != t.zero:
            return "zero not preserved"
        if h[s.one] != t.one:
            return "one not preserved"
        if _small(2 * s.size * s.size):
            # row a holds the pair (h(a + b), h(ab)) for each b in turn
            bad = _first_difference(
                (tuple(zip(map(h.__getitem__, sums),
                           map(h.__getitem__, products)))
                 for sums, products in zip(s.add, s.mul)),
                (tuple(zip(map(t.add[v].__getitem__, h),
                           map(t.mul[v].__getitem__, h))) for v in h))
        else:
            img = np.array(h, dtype=np.intp)[None]
            bad = _first_in_blocks(s.size, 2 * s.size, lambda a: np.stack(
                [_additivity_mask(img, s.np_add, t.np_add, a)[0],
                 _additivity_mask(img, s.np_mul, t.np_mul, a)[0]], axis=-1))
        if bad is None:
            return None
        a, b, law = bad
        return (f"{('addition', 'multiplication')[law]} not preserved at "
                f"({a}, {b})")

    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and self.is_onto()


def compose_homs(g: SemiringHom, f: SemiringHom) -> SemiringHom:
    """g after f."""
    if not same_scalars(f.target, g.source):
        raise MalformedTable("hom composition needs matching middle semiring")
    return SemiringHom(f.source, g.target, tuple(g.mapping[x] for x in f.mapping))
