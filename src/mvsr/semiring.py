"""Finite semirings presented by dense operation tables.

Elements are the indices 0..size-1. Binary operations are size x size index
tables, so every law check is an exhaustive sweep; the sweeps are vectorized
because matrix semirings get into the hundreds of elements.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import MalformedTable, NotAHom, NotIdempotent

Table = Tuple[Tuple[int, ...], ...]


def _entry(x, what: str) -> int:
    # operator.index takes Python and NumPy integers and refuses floats,
    # strings and lists; bool is an int subclass, so it is refused by name.
    if isinstance(x, bool):
        raise MalformedTable(f"{what} entry {x!r} is not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise MalformedTable(f"{what} entry {x!r} is not an integer") from None


def int_row(row: Iterable, what: str) -> Tuple[int, ...]:
    """A row of exact integers; anything else raises MalformedTable."""
    return tuple(_entry(x, what) for x in row)


def freeze_table(table: Sequence[Sequence[int]], size: int, what: str) -> Table:
    """Normalize a nested sequence to a tuple table, checking shape and range."""
    rows = tuple(int_row(row, what) for row in table)
    if len(rows) != size or any(len(r) != size for r in rows):
        raise MalformedTable(f"{what} table must be {size}x{size}")
    for r in rows:
        for x in r:
            if not 0 <= x < size:
                raise MalformedTable(f"{what} table entry {x} out of range 0..{size - 1}")
    return rows


def freeze_unary(table: Sequence[int], size: int, what: str,
                 bound: int = None) -> Tuple[int, ...]:
    # bound lets maps land in a carrier of a different size than the domain
    bound = size if bound is None else bound
    row = int_row(table, what)
    if len(row) != size:
        raise MalformedTable(f"{what} table must have {size} entries")
    for x in row:
        if not 0 <= x < bound:
            raise MalformedTable(f"{what} table entry {x} out of range 0..{bound - 1}")
    return row


def _check_index(i: int, size: int, what: str) -> int:
    i = _entry(i, what)
    if not 0 <= i < size:
        raise MalformedTable(f"{what} index {i} out of range 0..{size - 1}")
    return i


def fold(add: Table, zero: int, xs: Iterable[int]) -> int:
    """The sum of xs under the addition table add, starting from zero."""
    acc = zero
    for x in xs:
        acc = add[acc][x]
    return acc


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
        object.__setattr__(self, "add", freeze_table(self.add, self.size, "add"))
        object.__setattr__(self, "mul", freeze_table(self.mul, self.size, "mul"))
        object.__setattr__(self, "zero", _check_index(self.zero, self.size, "zero"))
        object.__setattr__(self, "one", _check_index(self.one, self.size, "one"))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.size:
                raise MalformedTable("labels must match carrier size")
            object.__setattr__(self, "labels", labels)

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


def _first_assoc_failure(t: np.ndarray):
    # (a?b)?c == a?(b?c), scanned one a-slice at a time to keep memory flat.
    n = len(t)
    for a in range(n):
        lhs = t[t[a]]
        rhs = t[a][t]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return (a, int(b), int(c))
    return None


def _first_comm_failure(t: np.ndarray):
    bad = np.argwhere(t != t.T)
    if len(bad):
        a, b = bad[0]
        return (int(a), int(b))
    return None


def _first_identity_failure(t: np.ndarray, e: int):
    n = len(t)
    idx = np.arange(n)
    bad = np.argwhere(t[e] != idx)
    if len(bad):
        return (e, int(bad[0][0]))
    bad = np.argwhere(t[:, e] != idx)
    if len(bad):
        return (int(bad[0][0]), e)
    return None


def _first_left_dist_failure(add: np.ndarray, mul: np.ndarray):
    n = len(add)
    for a in range(n):
        row = mul[a]
        lhs = row[add]                      # a*(b+c)
        rhs = add[np.ix_(row, row)]         # a*b + a*c
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return (a, int(b), int(c))
    return None


def _first_right_dist_failure(add: np.ndarray, mul: np.ndarray):
    n = len(add)
    for c in range(n):
        col = mul[:, c]
        lhs = col[add]                      # (a+b)*c
        rhs = add[np.ix_(col, col)]         # a*c + b*c
        if not np.array_equal(lhs, rhs):
            a, b = np.argwhere(lhs != rhs)[0]
            return (int(a), int(b), c)
    return None


def _first_absorb_failure(mul: np.ndarray, zero: int):
    bad = np.argwhere(mul[zero] != zero)
    if len(bad):
        return (zero, int(bad[0][0]))
    bad = np.argwhere(mul[:, zero] != zero)
    if len(bad):
        return (int(bad[0][0]), zero)
    return None


def check_semiring_axioms(s: FiniteSemiring) -> AxiomReport:
    """Exhaustively check the eight semiring laws, with first failing witness."""
    add, mul = s.np_add, s.np_mul
    checks = [
        ("add-associative", _first_assoc_failure(add)),
        ("add-commutative", _first_comm_failure(add)),
        ("add-identity", _first_identity_failure(add, s.zero)),
        ("mul-associative", _first_assoc_failure(mul)),
        ("mul-identity", _first_identity_failure(mul, s.one)),
        ("distributive-left", _first_left_dist_failure(add, mul)),
        ("distributive-right", _first_right_dist_failure(add, mul)),
        ("zero-absorbing", _first_absorb_failure(mul, s.zero)),
    ]
    laws = tuple(LawCheck(name, w is None, w) for name, w in checks)
    return AxiomReport("semiring", laws)


def is_additively_idempotent(s: FiniteSemiring) -> bool:
    return all(s.add[a][a] == a for a in range(s.size))


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
    mul = tuple(tuple(s.mul[b][a] for b in range(s.size)) for a in range(s.size))
    return FiniteSemiring(s.size, s.add, mul, s.zero, s.one, s.labels)


def boolean_semiring() -> FiniteSemiring:
    """The two-element semiring with join as addition."""
    return FiniteSemiring(2, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1, ("0", "1"))


@dataclass(frozen=True)
class SemiringHom:
    """A map between finite semirings, validated against the four laws."""

    source: FiniteSemiring
    target: FiniteSemiring
    mapping: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping",
                           freeze_unary(self.mapping, self.source.size, "hom",
                                        bound=self.target.size))

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def validate(self) -> None:
        s, t, h = self.source, self.target, self.mapping
        if h[s.zero] != t.zero:
            raise NotAHom("zero not preserved")
        if h[s.one] != t.one:
            raise NotAHom("one not preserved")
        for a in range(s.size):
            for b in range(s.size):
                if h[s.add[a][b]] != t.add[h[a]][h[b]]:
                    raise NotAHom(f"addition not preserved at ({a}, {b})")
                if h[s.mul[a][b]] != t.mul[h[a]][h[b]]:
                    raise NotAHom(f"multiplication not preserved at ({a}, {b})")

    def is_onto(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and self.is_onto()


def compose_homs(g: SemiringHom, f: SemiringHom) -> SemiringHom:
    """g after f."""
    if not same_scalars(f.target, g.source):
        raise MalformedTable("hom composition needs matching middle semiring")
    return SemiringHom(f.source, g.target, tuple(g.mapping[x] for x in f.mapping))
