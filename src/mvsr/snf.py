"""Smith normal form over the integers, exact and unimodular.

Pivoting always grabs the least nonzero absolute value in the trailing
submatrix, so entries shrink monotonically and arbitrary-precision ints keep
everything exact. Both transformation matrices are tracked and returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import check_count

IntMatrix = Tuple[Tuple[int, ...], ...]


def _freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """rows as tuples of Python ints; an entry that is not an integer is
    refused with ValueError."""
    return tuple(tuple(check_count(x, "matrix entry", None) for x in row)
                 for row in rows)


def int_matrix_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions disagree")
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]) if b else 0))
                 for i in range(len(a)))


def int_determinant(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free elimination; exact for any size used here."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True)
class SmithNormalForm:
    """u * matrix * v is diagonal; diagonal is the full min(r,c) run,
    zeros trailing, and invariant_factors drops the zeros."""

    matrix: IntMatrix
    diagonal: Tuple[int, ...]
    u: IntMatrix
    v: IntMatrix

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def verify(self) -> bool:
        rows, cols = len(self.matrix), len(self.matrix[0]) if self.matrix else 0
        product = int_matrix_mul(int_matrix_mul(self.u, self.matrix), self.v)
        want = tuple(tuple(self.diagonal[i] if i == j and i < len(self.diagonal)
                           else 0 for j in range(cols)) for i in range(rows))
        if product != want:
            return False
        if abs(int_determinant(self.u)) != 1:
            return False
        if abs(int_determinant(self.v)) != 1:
            return False
        return all(self.diagonal[i + 1] % self.diagonal[i] == 0
                   for i in range(len(self.invariant_factors) - 1))


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithNormalForm:
    original = _freeze(rows)
    a: List[List[int]] = [list(r) for r in original]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(r) != nc for r in a):
        raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t]:
                q, r = divmod(a[i][t], pivot)
                add_row(i, t, -q)
                dirty = dirty or r != 0
        for j in range(t + 1, nc):
            if a[t][j]:
                q, r = divmod(a[t][j], pivot)
                add_col(j, t, -q)
                dirty = dirty or r != 0
        if dirty:
            continue        # leftovers are smaller than the pivot; reselect
        merged = False
        for i in range(t + 1, nr):
            if any(a[i][j] % pivot for j in range(t + 1, nc)):
                add_row(t, i, 1)    # pull the bad row up, shrink the pivot
                merged = True
                break
        if merged:
            continue
        t += 1
    diagonal = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithNormalForm(original, diagonal, _freeze(u), _freeze(v))
