"""Truncated projective-class monoid and its Grothendieck completion.

Classes are isomorphism types of row spaces of multiplicatively idempotent
square matrices of size 1..n_max, each named by the first matrix presenting
it in (size, entry-lex) enumeration order, which is the lexicographically
least one. Padding a matrix with zero rows and columns only appends zero
coordinates to its row space, so classification by module isomorphism
absorbs the padding convention; zero_pad is exposed to keep that testable.

Row spans are classed by projective._ClassIndex, which keeps one module
per class; the presentations are kept next to it here. Induced maps class
each image matrix and each block sum with the target monoid's index.

The completion is the abelian group presented by one generator per class
modulo the recorded sum relations, reduced by exact integer Smith normal
form. Everything is relative to the size bound and reports say so: no
claim is made that the truncated monoid has converged.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .config import DEFAULT_N_MAX, MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, NotIdempotent, ScalarMismatch, ToolkitError,
                     check_power_bound)
from .jsonio import semiring_to_dict
from .matrix import SemiringMatrix, idempotent_matrices, is_mult_idempotent
from .mv import MvAlgebra, MvHom, reduct_vee_odot
from .projective import ProjectivePresentation, _ClassIndex, block_diag
from .semimodule import FiniteSemimodule, SemimoduleHom
from .semiring import FiniteSemiring, SemiringHom, same_scalars
from .snf import (IntMatrix, SmithNormalForm, int_matrix_mul,
                  smith_normal_form)

__all__ = [
    "ProjClassMonoid", "AbelianGroupSNF", "CompletionResult",
    "GroupHomMatrix", "zero_pad", "enumerate_projective_classes",
    "grothendieck_completion", "completion_from_triples", "k0_of_hom",
    "k0_report", "k0_stability", "smith_normal_form", "SmithNormalForm",
]


def zero_pad(u: SemiringMatrix, size: int) -> SemiringMatrix:
    """Extend a square matrix to the given size with zero entries."""
    if size < u.rows or u.rows != u.cols:
        raise ValueError("can only pad a square matrix upward")
    z = u.scalars.zero
    entries = tuple(
        tuple(u.entries[i][j] if i < u.rows and j < u.cols else z
              for j in range(size))
        for i in range(size))
    return SemiringMatrix(u.scalars, size, size, entries)


@dataclass(frozen=True)
class ProjClassMonoid:
    """Projective classes below the size bound with their sum relations.

    sum_relations holds triples (i, j, k) meaning class i plus class j is
    class k. Block sums are recorded whenever the sizes fit under n_max;
    relations through the trivial class are recorded unconditionally since
    padding shows the trivial class neutral at every size.
    """

    scalars: FiniteSemiring
    n_max: int
    classes: Tuple[ProjectivePresentation, ...]
    sum_relations: Tuple[Tuple[int, int, int], ...]

    @property
    def trivial_index(self) -> int:
        return _trivial_index(self.classes)

    @cached_property
    def _index(self) -> _ClassIndex:
        return _ClassIndex(self.scalars, [cls.module for cls in self.classes])

    def class_of(self, m: FiniteSemimodule,
                 max_enum: int = MAX_ENUM) -> Optional[int]:
        """Index of the first class isomorphic to m, else None."""
        return self._index.find(m, max_enum)


def _trivial_index(classes: Sequence[ProjectivePresentation]) -> int:
    """Index of the first class whose module is trivial; scalars that obey
    the semiring laws always have one (the zero matrix presents it)."""
    index = next((i for i, cls in enumerate(classes)
                  if cls.module.size == 1), None)
    if index is None:
        raise ToolkitError("no trivial projective class: the scalars break "
                           "the semiring laws")
    return index


def enumerate_projective_classes(s: FiniteSemiring,
                                 n_max: int = DEFAULT_N_MAX,
                                 max_enum: int = MAX_ENUM,
                                 max_carrier: int = MAX_CARRIER
                                 ) -> ProjClassMonoid:
    if n_max < 1:
        raise ValueError(f"n_max={n_max} must be at least 1")
    check_power_bound(EnumGuard, "candidate matrices for the projective "
                      "classes", s.size, n_max * n_max, "max_enum", max_enum)
    index = _ClassIndex(s)
    classes = []
    for n in range(1, n_max + 1):
        for u in idempotent_matrices(s, n, max_enum):
            if (index.find_row_space(u, max_enum, max_carrier, store=True)
                    == len(classes)):
                rs = index.modules[-1]
                classes.append(ProjectivePresentation(
                    s, n, u, rs, SemimoduleHom(rs, rs, tuple(range(rs.size)))))

    trivial = _trivial_index(classes)
    relations = set()
    for j in range(len(classes)):
        relations.add((trivial, j, j))
        relations.add((j, trivial, j))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if ci.n + cj.n > n_max:
                continue
            relations.add((i, j, index.find_row_space(
                block_diag(ci.u, cj.u), max_enum, max_carrier)))
    if any(k is None for _, _, k in relations):
        raise ToolkitError("a block sum is in no class: the scalars break "
                           "the semiring laws")
    return ProjClassMonoid(s, n_max, tuple(classes),
                           tuple(sorted(relations)))


@dataclass(frozen=True)
class AbelianGroupSNF:
    """Z^rank plus one cyclic factor per torsion entry, d_1 | d_2 | ..."""

    rank: int
    torsion: Tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion entries must exceed 1")
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
    """Universal group of a finitely presented commutative monoid.

    images[i] is the coset of generator i: torsion coordinates first (one
    per entry of group.torsion, reduced mod that entry), free coordinates
    after (group.rank of them).
    """

    group: AbelianGroupSNF
    images: Tuple[Tuple[int, ...], ...]
    relation_rows: IntMatrix
    snf: SmithNormalForm

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
    rows: List[List[int]] = []
    for (i, j, k) in triples:
        row = [0] * n_generators
        row[i] += 1
        row[j] += 1
        row[k] -= 1
        rows.append(row)
    if not rows:
        rows = [[0] * n_generators]
    snf = smith_normal_form(rows)
    factors = snf.invariant_factors
    rank = n_generators - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    group = AbelianGroupSNF(rank, torsion)
    images = []
    for i in range(n_generators):
        y = snf.v[i]
        coords = [y[j] % factors[j] for j in range(len(factors))
                  if factors[j] > 1]
        coords.extend(y[j] for j in range(len(factors), n_generators))
        images.append(tuple(coords))
    return CompletionResult(group, tuple(images),
                            tuple(tuple(r) for r in rows), snf)


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
    class_map = []
    for cls in p_a.classes:
        entries = tuple(tuple(h.mapping[x] for x in row)
                        for row in cls.u.entries)
        w = SemiringMatrix(h.target, cls.n, cls.n, entries)
        if not is_mult_idempotent(w):
            raise NotIdempotent("entrywise image of an idempotent matrix "
                                "failed idempotency")
        j = index.find_row_space(w, max_enum, max_carrier)
        if j is None:
            raise ValueError("image class missing from target monoid")
        class_map.append(j)

    matrix = [[0] * len(p_a.classes) for _ in range(len(p_b.classes))]
    for i, j in enumerate(class_map):
        matrix[j][i] = 1

    # class_map[k] is the first class isomorphic to the image of class k,
    # so it is also the first class isomorphic to its own module
    respected = all(
        index.find_row_space(block_diag(p_b.classes[class_map[i]].u,
                                        p_b.classes[class_map[j]].u),
                             max_enum, max_carrier) == class_map[k]
        for (i, j, k) in p_a.sum_relations)

    return GroupHomMatrix(p_a, p_b, tuple(class_map),
                          tuple(tuple(r) for r in matrix), respected)


def compose_group_homs(g: GroupHomMatrix, f: GroupHomMatrix) -> IntMatrix:
    return int_matrix_mul(g.matrix, f.matrix)


def _as_semiring(obj: Union[FiniteSemiring, MvAlgebra]) -> FiniteSemiring:
    """An MV-algebra stands for its join-product reduct."""
    return reduct_vee_odot(obj) if isinstance(obj, MvAlgebra) else obj


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
        "n_max": n_max,
        "classes": [
            {"size": cls.n,
             "matrix": [list(row) for row in cls.u.entries],
             "module_size": cls.module.size}
            for cls in p.classes
        ],
        "relations": [list(t) for t in p.sum_relations],
        "group": completion.group.to_dict(),
        "truncated": True,
    }


def k0_stability(s: Union[FiniteSemiring, MvAlgebra],
                 bounds: Sequence[int] = (1, 2),
                 max_enum: int = MAX_ENUM,
                 max_carrier: int = MAX_CARRIER) -> Dict[str, object]:
    """Compare truncations across bounds; reports, never asserts, stability."""
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
