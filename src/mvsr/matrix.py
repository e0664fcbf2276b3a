"""Matrix semirings over finite scalars, and free-module homs as matrices.

Vectors are rows and matrices act on the right, v -> v * a, so composing
actions reads left to right and the endomorphism picture needs no transpose.
Every matrix product and linear combination here is one semiring._combine.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import DEFAULT_SEED, MAX_CARRIER, MAX_ENUM
from .errors import (NoDecomposition, NotFreeBasis, ScalarMismatch,
                     ShapeMismatch, SizeGuard, check_count, check_power_bound)
from .semiring import (FiniteSemiring, SemiringHom, _blocks, _combine,
                       _index_grid, _index_list, _sampled_law_failures,
                       _store, check_semiring_axioms, same_scalars)
from .semimodule import (EndSemiring, FiniteSemimodule,
                         FreeSemimodule, SemimoduleHom, _assignments, _digits,
                         _require_homs, _span, _weights, end_semiring,
                         free_semimodule)


@dataclass(frozen=True)
class SemiringMatrix:
    scalars: FiniteSemiring
    rows: int
    cols: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        _store(self, entries=_index_grid(self.entries, (self.rows, self.cols),
                                         self.scalars.size, "matrix"))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @cached_property
    def np_entries(self) -> np.ndarray:
        """The entries as a (rows, cols) array."""
        return np.array(self.entries, dtype=np.int64).reshape(self.rows,
                                                              self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols


def mat_add(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    if not same_scalars(a.scalars, b.scalars):
        raise ScalarMismatch("matrix sum needs common scalars")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("matrix sum needs equal shapes")
    s = a.scalars
    ent = tuple(tuple(s.add[x][y] for x, y in zip(ra, rb))
                for ra, rb in zip(a.entries, b.entries))
    return SemiringMatrix(s, a.rows, a.cols, ent)


def mat_star_mul(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    """Row-by-column product with the scalar sum folding the terms."""
    if not same_scalars(a.scalars, b.scalars):
        raise ScalarMismatch("matrix product needs common scalars")
    if a.cols != b.rows:
        raise ShapeMismatch("inner dimensions disagree")
    s = a.scalars
    ent = _combine(s.np_add, s.np_mul, s.zero, a.np_entries.T[:, :, None],
                   b.np_entries[:, None, :])
    return SemiringMatrix(s, a.rows, b.cols, ent.tolist())


def mat_identity(s: FiniteSemiring, n: int) -> SemiringMatrix:
    ent = tuple(tuple(s.one if i == j else s.zero for j in range(n))
                for i in range(n))
    return SemiringMatrix(s, n, n, ent)


def mat_zero(s: FiniteSemiring, rows: int, cols: int) -> SemiringMatrix:
    return SemiringMatrix(s, rows, cols, tuple((s.zero,) * cols
                                               for _ in range(rows)))


def is_mult_idempotent(u: SemiringMatrix) -> bool:
    if not u.is_square():
        raise ShapeMismatch("idempotent test needs a square matrix")
    return mat_star_mul(u, u).entries == u.entries


def idempotent_matrices(s: FiniteSemiring, n: int,
                        max_enum: int = MAX_ENUM) -> Tuple[SemiringMatrix, ...]:
    """All u with u*u = u in M_n(s), in entry-lexicographic order: the
    matrices of _idempotent_stack. An n that is not an integer of at least
    0 is refused with ValueError."""
    n = check_count(n, "n", 0)
    return tuple(SemiringMatrix(s, n, n, m)
                 for m in _idempotent_stack(s, n, max_enum).tolist())


def _idempotent_stack(s: FiniteSemiring, n: int, max_enum: int) -> np.ndarray:
    """The idempotents of M_n(s) in entry-lexicographic order, as one
    (k, n, n) array.

    Candidates are the chunks of _assignments over the n*n entries, n*n
    entries a candidate, squared together one entry at a time: entry
    (i, j) of every square is one _combine of row i with column j. The
    caller checks n with check_count."""
    check_power_bound(SizeGuard, "candidate idempotent matrices", s.size,
                      n * n, "max_enum", max_enum)
    kept = []
    for flat in _assignments(s.size, n * n, n * n):
        u = flat.reshape(len(flat), n, n)
        rows, cols = u.transpose(1, 2, 0), u.transpose(2, 1, 0)
        keep = np.ones(len(flat), dtype=bool)
        for i, j in itertools.product(range(n), repeat=2):
            keep &= _combine(s.np_add, s.np_mul, s.zero, rows[i],
                             cols[j]) == u[:, i, j]
        kept.append(u[keep])
    return np.concatenate(kept)


def _row_combinations(s: FiniteSemiring, xs: np.ndarray,
                      us: np.ndarray) -> np.ndarray:
    """x u for every row vector x of xs, of shape (k, rows), and every
    matrix u of the stack us, of shape (m, rows, cols): the (m, k, cols)
    combinations of the rows of each u with the coefficients x."""
    return _combine(s.np_add, s.np_mul, s.zero, xs.T[:, None, :, None],
                    us.transpose(1, 0, 2)[:, :, None, :])


def block_diag(u: SemiringMatrix, v: SemiringMatrix) -> SemiringMatrix:
    """u in the top-left corner, v shifted to the bottom-right."""
    if not same_scalars(u.scalars, v.scalars):
        raise ScalarMismatch("blocks need common scalars")
    return SemiringMatrix(u.scalars, u.rows + v.rows, u.cols + v.cols,
                          _block_sum(u.scalars.zero, u.np_entries,
                                     v.np_entries))


def _block_sum(zero: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The entries of block_diag from the entries of u and v."""
    (r, c), (r2, c2) = u.shape, v.shape
    out = np.full((r + r2, c + c2), zero, dtype=np.int64)
    out[:r, :c] = u
    out[r:, c:] = v
    return out


# ----- the full matrix semiring ----------------------------------------------

@dataclass(frozen=True)
class MatrixSemiring:
    """M_n(scalars) materialized as one finite semiring; index order is
    entry-lexicographic, row-major."""

    scalars: FiniteSemiring
    n: int
    semiring: FiniteSemiring
    matrices: Tuple[SemiringMatrix, ...]

    @cached_property
    def _index(self) -> Dict[Tuple[Tuple[int, ...], ...], int]:
        return {m.entries: i for i, m in enumerate(self.matrices)}

    def index_of(self, m: SemiringMatrix) -> int:
        return self._index[m.entries]


def matrix_semiring(s: FiniteSemiring, n: int,
                    max_carrier: int = MAX_CARRIER) -> MatrixSemiring:
    n = check_count(n, "n", 0)
    check_power_bound(SizeGuard, "matrix semiring carrier", s.size, n * n,
                      "max_carrier", max_carrier)
    total = s.size ** (n * n)
    stack = _digits(np.arange(total), s.size, n * n).reshape(total, n, n)
    mats = tuple(SemiringMatrix(s, n, n, m) for m in stack)
    weights = _weights(s.size, n * n)

    add_idx = np.zeros((total, total), dtype=np.int64)
    mul_idx = np.zeros((total, total), dtype=np.int64)
    a, b = stack[:, None], stack[None]          # every pair (a, b)
    rows, cols = stack.transpose(1, 2, 0), stack.transpose(2, 1, 0)
    for w, (i, j) in enumerate(itertools.product(range(n), repeat=2)):
        add_idx += s.np_add[a[..., i, j], b[..., i, j]] * weights[w]
        mul_idx += _combine(s.np_add, s.np_mul, s.zero, rows[i][:, :, None],
                            cols[j][:, None, :]) * weights[w]

    zero = s.zero * int(weights.sum())
    one = int(np.where(np.eye(n).ravel(), s.one, s.zero) @ weights)
    labels = tuple("|".join(",".join(map(str, row)) for row in m.entries)
                   for m in mats)
    ring = FiniteSemiring(total, add_idx, mul_idx, zero, one, labels)
    return MatrixSemiring(s, n, ring, mats)


def matrix_law_report(s: FiniteSemiring, n: int,
                      max_carrier: int = MAX_CARRIER,
                      samples: int = 2000, seed: int = DEFAULT_SEED) -> dict:
    """Semiring laws of M_n(s): exhaustive within the carrier guard,
    sampled triples beyond it, where fewer than one sample is refused
    with ValueError. An n that is not an integer of at least 0 is refused
    with ValueError too."""
    n = check_count(n, "n", 0)
    total = s.size ** (n * n)
    if total <= max_carrier:
        rep = check_semiring_axioms(matrix_semiring(s, n, max_carrier).semiring)
        return {"route": "exhaustive", "carrier": total, "ok": rep.valid,
                "laws": rep.to_dict()["laws"]}
    samples = check_count(samples, "samples", 1)
    rng = random.Random(seed)

    def draw() -> SemiringMatrix:
        return SemiringMatrix(s, n, n,
                              tuple(tuple(rng.randrange(s.size)
                                          for _ in range(n))
                                    for _ in range(n)))

    fails = _sampled_law_failures(samples, draw, mat_add, mat_star_mul,
                                  mat_zero(s, n, n), mat_identity(s, n))
    return {"route": "sampled", "carrier": total, "samples": samples,
            "seed": seed, "failures": fails, "ok": not any(fails.values())}


# ----- matrices as endomorphisms ----------------------------------------------

@dataclass(frozen=True)
class EtaResult:
    """The matrix semiring, the row-vector module, its endomorphism
    semiring, and the connecting map a -> (v -> v * a)."""

    matrices: MatrixSemiring
    module: FreeSemimodule
    end: EndSemiring
    hom: SemiringHom
    bijective: bool

    @property
    def counts(self) -> Tuple[int, int]:
        return (self.matrices.semiring.size, self.end.semiring.size)


def eta(s: FiniteSemiring, n: int, max_carrier: int = MAX_CARRIER,
        max_enum: int = MAX_ENUM) -> EtaResult:
    """Certify M_n(s) = End(s^n): with the apply-left-first product on
    endomorphisms the right action is a semiring map, a * b landing on
    "a then b", and it is bijective. The maps of the matrices are taken
    over semiring._blocks of matrices, |s^n| n entries a matrix."""
    ring = matrix_semiring(s, n, max_carrier)
    module = free_semimodule(s, [str(i) for i in range(n)], max_carrier)
    end = end_semiring(module, max_enum=max_enum)
    stack = np.array([a.entries for a in ring.matrices],
                     dtype=np.int64).reshape(len(ring.matrices), n, n)
    vecs = _digits(np.arange(module.size), s.size, n)
    images = np.concatenate([
        _row_combinations(s, vecs, stack[block]) @ _weights(s.size, n)
        for block in _blocks(len(stack), module.size * max(1, n))])
    mapping = _require_homs(end.homs.positions(images),
                            "the map of matrix {0} is not a hom")
    hom = SemiringHom(ring.semiring, end.semiring, mapping)
    hom.validate()
    return EtaResult(ring, module, end, hom, hom.is_bijective())


# ----- free homs as matrices ---------------------------------------------------

def _require_free(m: FiniteSemimodule, side: str) -> FreeSemimodule:
    if not isinstance(m, FreeSemimodule):
        raise NotFreeBasis(f"{side} module must be free with a recorded basis")
    return m


def hom_from_matrix(k: SemiringMatrix, source: FreeSemimodule,
                    target: FreeSemimodule) -> SemimoduleHom:
    """f -> sum over x of f(x) * row x of k, as a map of row coefficients."""
    source = _require_free(source, "source")
    target = _require_free(target, "target")
    if not (same_scalars(k.scalars, source.scalars)
            and same_scalars(source.scalars, target.scalars)):
        raise ScalarMismatch("hom from a matrix needs common scalars")
    if k.rows != len(source.points) or k.cols != len(target.points):
        raise ShapeMismatch("matrix shape must be points x points")
    s = source.scalars
    vecs = _digits(np.arange(source.size), s.size, k.rows)
    images = _row_combinations(s, vecs, k.np_entries[None])[0]
    return SemimoduleHom(source, target, images @ _weights(s.size, k.cols))


def matrix_from_hom(h: SemimoduleHom) -> SemiringMatrix:
    """Read the matrix off the images of the basis indicators."""
    source = _require_free(h.source, "source")
    target = _require_free(h.target, "target")
    ent = tuple(target.vector(h.mapping[source.basis[x]])
                for x in range(len(source.points)))
    return SemiringMatrix(source.scalars, len(source.points),
                          len(target.points), ent)


# ----- lifting homs along free covers ------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    matrix: SemiringMatrix
    free_source: FreeSemimodule
    free_target: FreeSemimodule
    pi: SemimoduleHom
    pi_prime: SemimoduleHom
    square_commutes: bool


def _cover(m: FiniteSemimodule, gens: Sequence[int],
           max_carrier: int) -> Tuple[FreeSemimodule, SemimoduleHom]:
    free = free_semimodule(m.scalars, [m.label(g) for g in gens], max_carrier)
    coeffs = _digits(np.arange(free.size), m.scalars.size, len(gens))
    mapping = _combine(m.np_add, m.np_action, m.zero, coeffs.T,
                       np.array(gens, dtype=np.intp)[:, None])
    return free, SemimoduleHom(free, m, mapping)


def lift_hom(h: SemimoduleHom, gens_source: Sequence[int],
             gens_target: Sequence[int],
             max_carrier: int = MAX_CARRIER) -> LiftResult:
    """Express h between generated modules as a coefficient matrix between
    their free covers.

    Each generator's row is the first coefficient tuple, in lexicographic
    order, that the target's cover sends to its image; the matrix is not
    unique and no canonical choice is promised, only the commuting square."""
    m, n = h.source, h.target
    gens_source = _index_list(gens_source, m.size, "generators")
    gens_target = _index_list(gens_target, n.size, "generators")
    if _span(m, gens_source) != set(range(m.size)):
        raise NoDecomposition("source generators do not span")
    if _span(n, gens_target) != set(range(n.size)):
        raise NoDecomposition("target generators do not span")
    free_m, pi = _cover(m, gens_source, max_carrier)
    free_n, pi_prime = _cover(n, gens_target, max_carrier)
    rows = []
    for g in gens_source:
        want = h.mapping[g]
        if want not in pi_prime.mapping:
            raise NoDecomposition(f"no combination reaches element {want}")
        rows.append(free_n.vector(pi_prime.mapping.index(want)))
    k = SemiringMatrix(m.scalars, len(gens_source), len(gens_target),
                       tuple(rows))
    hk = hom_from_matrix(k, free_m, free_n)
    square = all(h.mapping[pi.mapping[i]] == pi_prime.mapping[hk.mapping[i]]
                 for i in range(free_m.size))
    return LiftResult(k, free_m, free_n, pi, pi_prime, square)
