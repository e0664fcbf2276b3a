"""Truncated projective-class monoid and its Grothendieck completion.

Classes are isomorphism types of row spaces of multiplicatively idempotent
square matrices of size 1..n_max, each named by the first matrix presenting
it in (size, entry-lex) enumeration order, which is the lexicographically
least one. Padding a matrix with zero rows and columns only appends zero
coordinates to its row space, so classification by module isomorphism
absorbs the padding convention; zero_pad is exposed to keep that testable.

Each size sweeps only the orbit minima of its idempotents under
conjugation by permutation matrices (projective._orbit_minima): a
conjugate P u P^T spans u's row space with the coordinates permuted, an
isomorphic module, so the least idempotent of a class is the least of its
orbit, and the classes, their names, the relations and the group are those
of the sweep over every idempotent.

Row spans are classed by projective._ClassIndex, which keeps each class
found from a span as that span and takes a canonical form only where a
module size is shared. No module or presentation is built while the
classes are found: ProjectiveClasses holds each class's matrix and its
module's size, which k0_report reads, and builds a class's presentation
when it is read. Each size's orbit minima, and each size's block sums,
are classed in one batched call: over scalars that keep the semiring laws
their spans come from one sweep of the products xU, and from the closure
of each matrix otherwise; block sums are matrix._block_sum. Induced maps
class the image matrices and the block sums the same way, with the target
monoid's index.

The completion is the abelian group presented by one generator per class
modulo the recorded sum relations. Every relation row is e_i + e_j - e_k,
so the group is read off the +-1 pivots, eliminated in sparse form, and
the exact integer Smith normal form of what they leave, if anything; the
dense form of all the relations is taken only when a caller reads it.
Everything is relative to the size bound and reports say so: no claim is
made that the truncated monoid has converged.
"""
from __future__ import annotations

import bisect
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT_N_MAX, MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, NotIdempotent, ScalarMismatch, ToolkitError,
                     check_count, check_power_bound)
from .jsonio import semiring_to_dict
from .matrix import (SemiringMatrix, _block_sum, _idempotent_stack,
                     block_diag, is_mult_idempotent, mat_zero)
from .mv import MvAlgebra, MvHom, _as_semiring
from .projective import ProjectivePresentation, _ClassIndex, _orbit_minima
from .semimodule import FiniteSemimodule, SemimoduleHom
from .semiring import FiniteSemiring, SemiringHom, _index_grid, same_scalars
from .snf import (IntMatrix, SmithNormalForm, int_matrix_mul,
                  smith_normal_form)

__all__ = [
    "ProjectiveClasses", "ProjClassMonoid", "AbelianGroupSNF",
    "CompletionResult", "GroupHomMatrix", "zero_pad",
    "enumerate_projective_classes", "grothendieck_completion",
    "completion_from_triples", "k0_of_hom", "k0_report", "k0_stability",
    "smith_normal_form", "SmithNormalForm",
]


def zero_pad(u: SemiringMatrix, size: int) -> SemiringMatrix:
    """Extend a square matrix to the given size with zero entries; a size
    that is not an integer of at least u's is refused with ValueError."""
    if u.rows != u.cols:
        raise ValueError("can only pad a square matrix")
    size = check_count(size, "size", u.rows)
    return block_diag(u, mat_zero(u.scalars, size - u.rows, size - u.rows))


class ProjectiveClasses(abc.Sequence):
    """The classes of a ProjClassMonoid, in order, over the class index
    that found them.

    Class i's matrix (matrices[i], an array of shape (n, n)) and its
    module's size (module_sizes[i]) are read without building anything;
    classes[i], its ProjectivePresentation, is built at its first read
    from the index's module, the row space of matrices[i], with the
    identity as its iso, unless it was given. Equal sequences hold equal
    presentations."""

    def __init__(self, index: _ClassIndex, matrices: Sequence[np.ndarray],
                 given: Sequence[ProjectivePresentation] = ()):
        self.index = index
        self.matrices = tuple(matrices)
        self.module_sizes = tuple(index.size(i)
                                  for i in range(len(self.matrices)))
        self._presentations = dict(enumerate(given))

    @classmethod
    def of(cls, s: FiniteSemiring,
           presentations: Sequence[ProjectivePresentation]
           ) -> "ProjectiveClasses":
        """The classes of these presentations, with an index over their
        modules."""
        return cls(_ClassIndex(s, [p.module for p in presentations]),
                   [p.u.np_entries for p in presentations], presentations)

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, i: int) -> ProjectivePresentation:
        i = range(len(self))[i]
        if i not in self._presentations:
            s = self.index.scalars
            u = self.matrices[i]
            rs = self.index.module(i)
            self._presentations[i] = ProjectivePresentation(
                s, len(u), SemiringMatrix(s, len(u), len(u), u.tolist()), rs,
                SemimoduleHom(rs, rs, tuple(range(rs.size))))
        return self._presentations[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        # equal presentations have equal matrices
        return hash(tuple(tuple(u.reshape(-1).tolist())
                          for u in self.matrices))


@dataclass(frozen=True)
class ProjClassMonoid:
    """Projective classes below the size bound with their sum relations.

    sum_relations holds triples (i, j, k) meaning class i plus class j is
    class k. Block sums are recorded whenever the sizes fit under n_max;
    relations through the trivial class are recorded unconditionally since
    padding shows the trivial class neutral at every size. classes may be
    given as presentations, which are then held as their ProjectiveClasses.
    """

    scalars: FiniteSemiring
    n_max: int
    classes: ProjectiveClasses
    sum_relations: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if not isinstance(self.classes, ProjectiveClasses):
            object.__setattr__(self, "classes", ProjectiveClasses.of(
                self.scalars, tuple(self.classes)))

    @property
    def trivial_index(self) -> int:
        return _trivial_index(self.classes.module_sizes)

    @property
    def _index(self) -> _ClassIndex:
        return self.classes.index

    def class_of(self, m: FiniteSemimodule,
                 max_enum: int = MAX_ENUM) -> Optional[int]:
        """Index of the first class isomorphic to m, else None."""
        return self._index.find(m, max_enum)


def _trivial_index(module_sizes: Sequence[int]) -> int:
    """Index of the first class whose module is trivial; scalars that obey
    the semiring laws always have one (the zero matrix presents it)."""
    index = next((i for i, size in enumerate(module_sizes) if size == 1),
                 None)
    if index is None:
        raise ToolkitError("no trivial projective class: the scalars break "
                           "the semiring laws")
    return index


def enumerate_projective_classes(s: FiniteSemiring,
                                 n_max: int = DEFAULT_N_MAX,
                                 max_enum: int = MAX_ENUM,
                                 max_carrier: int = MAX_CARRIER
                                 ) -> ProjClassMonoid:
    """The classes of the idempotents of sizes 1 to n_max and their block
    sum relations. No class's module or presentation is built here: the
    classes hold their matrices and the index's spans, and build a
    presentation when it is read. An n_max that is not an integer of at
    least 1 is refused with ValueError before any guard."""
    n_max = check_count(n_max, "n_max", 1)
    check_power_bound(EnumGuard, "candidate matrices for the projective "
                      "classes", s.size, n_max * n_max, "max_enum", max_enum)
    index = _ClassIndex(s)
    mats = []
    for n in range(1, n_max + 1):
        us = _orbit_minima(s, _idempotent_stack(s, n, max_enum))
        for u, found in zip(us, index.find_row_spaces(
                us, max_enum, max_carrier, store=True)):
            if found == len(mats):
                mats.append(u)
    classes = ProjectiveClasses(index, mats)

    trivial = _trivial_index(classes.module_sizes)
    relations = set()
    for j in range(len(mats)):
        relations.add((trivial, j, j))
        relations.add((j, trivial, j))
    # the classes come in order of size, so each i pairs with a prefix
    ns = [len(u) for u in mats]
    pairs = [(i, j) for i, n in enumerate(ns)
             for j in range(bisect.bisect_right(ns, n_max - n))]
    sums = [_block_sum(s.zero, mats[i], mats[j]) for i, j in pairs]
    relations.update((i, j, k) for (i, j), k in zip(
        pairs, _find_each(index, sums, max_enum, max_carrier)))
    if any(k is None for _, _, k in relations):
        raise ToolkitError("a block sum is in no class: the scalars break "
                           "the semiring laws")
    return ProjClassMonoid(s, n_max, classes, tuple(sorted(relations)))


@dataclass(frozen=True)
class AbelianGroupSNF:
    """Z^rank plus one cyclic factor per torsion entry, d_1 | d_2 | ..."""

    rank: int
    torsion: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rank", check_count(self.rank, "rank", 0))
        if (not isinstance(self.torsion, abc.Iterable)
                or isinstance(self.torsion, (str, bytes, bytearray))):
            raise ValueError(f"torsion={self.torsion!r} must be an iterable "
                             f"of torsion entries")
        object.__setattr__(self, "torsion", tuple(
            check_count(d, "torsion entry", 2) for d in self.torsion))
        if any(self.torsion[i + 1] % self.torsion[i]
               for i in range(len(self.torsion) - 1)):
            raise ValueError("torsion must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def to_dict(self) -> Dict[str, object]:
        return {"rank": self.rank, "torsion": list(self.torsion)}


@dataclass(frozen=True)
class CompletionResult:
    """Universal group of a finitely presented commutative monoid: one
    generator per class and one relation e_i + e_j - e_k per triple
    (i, j, k).

    group is read off the unit pivots and the residual's Smith normal form
    (completion_from_triples). The dense presentation is built the first
    time it is read: relation_rows holds one row per triple (a single zero
    row when there is none), snf is its Smith normal form, and images[i]
    is the coset of generator i: torsion coordinates first (one per entry
    of group.torsion, reduced mod that entry), free coordinates after
    (group.rank of them).
    """

    n_generators: int
    triples: Tuple[Tuple[int, int, int], ...]
    group: AbelianGroupSNF

    @cached_property
    def relation_rows(self) -> IntMatrix:
        rows = []
        for (i, j, k) in self.triples:
            row = [0] * self.n_generators
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            rows.append(tuple(row))
        return tuple(rows) or ((0,) * self.n_generators,)

    @cached_property
    def snf(self) -> SmithNormalForm:
        return smith_normal_form(self.relation_rows)

    @cached_property
    def images(self) -> Tuple[Tuple[int, ...], ...]:
        factors = self.snf.invariant_factors
        images = []
        for y in self.snf.v:
            coords = [y[j] % factors[j] for j in range(len(factors))
                      if factors[j] > 1]
            coords.extend(y[len(factors):])
            images.append(tuple(coords))
        return tuple(images)

    def in_relation_span(self, x: Sequence[int]) -> bool:
        cols = len(self.snf.v)
        if len(x) != cols:
            raise ValueError("vector length must match generator count")
        y = [sum(x[k] * self.snf.v[k][j] for k in range(cols))
             for j in range(cols)]
        factors = self.snf.invariant_factors
        if any(y[j] % factors[j] for j in range(len(factors))):
            return False
        return all(y[j] == 0 for j in range(len(factors), cols))


def completion_from_triples(n_generators: int,
                            triples: Sequence[Tuple[int, int, int]]
                            ) -> CompletionResult:
    """The group of the generators modulo e_i + e_j = e_k for each triple:
    the generators that the unit pivots leave, modulo the residual
    relations, whose Smith normal form is taken when there are any."""
    n_generators = check_count(n_generators, "n_generators", 0)
    triples = _index_grid(tuple(triples), (len(triples), 3), n_generators,
                          "relation triples")
    pivots, residual = _unit_pivots(n_generators, triples)
    factors: Tuple[int, ...] = ()
    if residual:
        cols = sorted({c for row in residual for c in row})
        dense = [[row.get(c, 0) for c in cols] for row in residual]
        factors = smith_normal_form(dense).invariant_factors
    group = AbelianGroupSNF(n_generators - pivots - len(factors),
                            tuple(d for d in factors if d > 1))
    return CompletionResult(n_generators, triples, group)


def _unit_pivots(n_generators: int,
                 triples: Sequence[Tuple[int, int, int]]
                 ) -> Tuple[int, List[Dict[int, int]]]:
    """The number of +-1 pivots eliminated from the relations, and the
    nonzero rows left, as sparse {generator: coefficient} rows.

    A relation with a coefficient of +-1 at generator c expresses c
    through the other generators of its row, so c is eliminated: c is
    cleared from every other relation by adding a multiple of the pivot
    row, and the pivot row and c leave together, an invariant factor 1 of
    the dense matrix. Rows are visited in order, again while a pass pivots;
    a row's pivot is the unit of the column held by the fewest rows, the
    least such column on ties, to keep the fill low (after Dumas,
    Saunders and Villard, "On efficient sparse integer matrix Smith normal
    form computations", J. Symbolic Comput. 32, 2001)."""
    rows: List[Dict[int, int]] = []
    holding: List[set] = [set() for _ in range(n_generators)]
    for r, (i, j, k) in enumerate(triples):
        row: Dict[int, int] = {}
        for c, a in ((i, 1), (j, 1), (k, -1)):
            row[c] = row.get(c, 0) + a
        rows.append({c: a for c, a in row.items() if a})
        for c in rows[-1]:
            holding[c].add(r)
    pivots = 0
    progress = True
    while progress:
        progress = False
        for r, row in enumerate(rows):
            units = [c for c, a in row.items() if a in (1, -1)]
            if not units:
                continue
            c = min(units, key=lambda c: (len(holding[c]), c))
            for d in row:
                holding[d].discard(r)
            for q in sorted(holding[c]):
                other = rows[q]
                f = other[c] * row[c]
                for d, a in row.items():
                    v = other.get(d, 0) - f * a
                    if v:
                        other[d] = v
                        holding[d].add(q)
                    elif d in other:
                        del other[d]
                        holding[d].discard(q)
            rows[r] = {}
            pivots += 1
            progress = True
    return pivots, [row for row in rows if row]


def grothendieck_completion(p: ProjClassMonoid) -> CompletionResult:
    return completion_from_triples(len(p.classes), p.sum_relations)


@dataclass(frozen=True)
class GroupHomMatrix:
    """Induced map between class presentations as a 0/1 integer matrix.

    Columns index source classes, rows target classes, so composition of
    induced maps is plain matrix multiplication on the left.
    """

    source: ProjClassMonoid
    target: ProjClassMonoid
    class_map: Tuple[int, ...]
    matrix: IntMatrix
    relations_respected: bool


def k0_of_hom(f: Union[SemiringHom, MvHom],
              n_max: int = DEFAULT_N_MAX,
              source_monoid: Optional[ProjClassMonoid] = None,
              target_monoid: Optional[ProjClassMonoid] = None,
              max_enum: int = MAX_ENUM,
              max_carrier: int = MAX_CARRIER) -> GroupHomMatrix:
    h = f.as_vee_odot_hom() if isinstance(f, MvHom) else f
    if not all(p is None or same_scalars(p.scalars, s) for p, s in
               ((source_monoid, h.source), (target_monoid, h.target))):
        raise ScalarMismatch("class monoids need the hom's scalars")
    h.validate()
    p_a = source_monoid or enumerate_projective_classes(
        h.source, n_max, max_enum, max_carrier)
    p_b = target_monoid or enumerate_projective_classes(
        h.target, n_max, max_enum, max_carrier)

    index = p_b._index
    images = []
    for u in p_a.classes.matrices:
        entries = tuple(tuple(h.mapping[x] for x in row)
                        for row in u.tolist())
        w = SemiringMatrix(h.target, len(u), len(u), entries)
        if not is_mult_idempotent(w):
            raise NotIdempotent("entrywise image of an idempotent matrix "
                                "failed idempotency")
        images.append(w.np_entries)
    class_map = _find_each(index, images, max_enum, max_carrier)
    if None in class_map:
        raise ValueError("image class missing from target monoid")

    matrix = [[0] * len(p_a.classes) for _ in range(len(p_b.classes))]
    for i, j in enumerate(class_map):
        matrix[j][i] = 1

    # class_map[k] is the first class isomorphic to the image of class k,
    # so it is also the first class isomorphic to its own module
    sums = [_block_sum(h.target.zero, p_b.classes.matrices[class_map[i]],
                       p_b.classes.matrices[class_map[j]])
            for i, j, _ in p_a.sum_relations]
    respected = all(found == class_map[k] for (_, _, k), found in zip(
        p_a.sum_relations, _find_each(index, sums, max_enum, max_carrier)))

    return GroupHomMatrix(p_a, p_b, tuple(class_map),
                          tuple(tuple(r) for r in matrix), respected)


def _find_each(index: _ClassIndex, mats: Sequence[np.ndarray],
               max_enum: int, max_carrier: int) -> List[Optional[int]]:
    """index.find_row_spaces of each square array in mats, in mats order,
    with one call per size of matrix."""
    found: List[Optional[int]] = [None] * len(mats)
    for n in sorted({len(u) for u in mats}):
        at = [t for t, u in enumerate(mats) if len(u) == n]
        for t, k in zip(at, index.find_row_spaces(
                np.stack([mats[t] for t in at]), max_enum, max_carrier)):
            found[t] = k
    return found


def compose_group_homs(g: GroupHomMatrix, f: GroupHomMatrix) -> IntMatrix:
    return int_matrix_mul(g.matrix, f.matrix)


def k0_report(obj: Union[FiniteSemiring, MvAlgebra],
              n_max: int = DEFAULT_N_MAX,
              max_enum: int = MAX_ENUM,
              max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Full pipeline as a JSON-ready dict; the truncation is disclosed."""
    s = _as_semiring(obj)
    p = enumerate_projective_classes(s, n_max, max_enum, max_carrier)
    completion = grothendieck_completion(p)
    return {
        "scalars": semiring_to_dict(s),
        "n_max": p.n_max,
        "classes": [
            {"size": len(u), "matrix": u.tolist(), "module_size": size}
            for u, size in zip(p.classes.matrices, p.classes.module_sizes)
        ],
        "relations": [list(t) for t in p.sum_relations],
        "group": completion.group.to_dict(),
        "truncated": True,
    }


def k0_stability(s: Union[FiniteSemiring, MvAlgebra],
                 bounds: Sequence[int] = (1, 2),
                 max_enum: int = MAX_ENUM,
                 max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Compare truncations across bounds; reports, never asserts, stability.
    Each bound is checked as an n_max before any class is enumerated, and
    no bound at all, or bounds that are not an iterable, is refused."""
    if not isinstance(bounds, abc.Iterable):
        raise ValueError(f"bounds={bounds!r} must be an iterable of n_max")
    bounds = tuple(check_count(k, "n_max", 1) for k in bounds)
    if not bounds:
        raise ValueError("k0_stability needs at least one bound")
    scalars = _as_semiring(s)
    groups = []
    counts = []
    for k in bounds:
        p = enumerate_projective_classes(scalars, k, max_enum, max_carrier)
        groups.append(grothendieck_completion(p).group.to_dict())
        counts.append(len(p.classes))
    return {
        "bounds": list(bounds),
        "class_counts": counts,
        "groups": groups,
        "stable": all(g == groups[0] for g in groups)
                  and all(c == counts[0] for c in counts),
    }
