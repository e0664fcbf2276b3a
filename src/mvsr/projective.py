"""Projectivity for finitely generated semimodules, decided two ways.

The retract route searches for a section of the canonical free cover; the
matrix route searches for a multiplicatively idempotent square matrix whose
row space matches the module. The two verdicts are independent computations
and every caller is entitled to their agreement.

Isomorphism is decided by a hom search (are_isomorphic) or, for modules
whose addition is a join semilattice, by comparing canonical forms
(canonical_form), which needs no search between the two modules.
_ClassIndex matches a module or a row span to its stored class, for the
matrix criterion, the trichotomy and grothendieck's classes and maps.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .config import MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, NotAHom, NotCyclic, NotIdempotent,
                     ScalarMismatch, SizeGuard, check_bound)
from .matrix import (SemiringMatrix, _cover, idempotent_matrices,
                     is_mult_idempotent)
from .mv import MvAlgebra, reduct_vee_odot
from .semimodule import (FiniteSemimodule, FreeSemimodule, SemimoduleHom,
                         Subsemimodule, _module_laws_hold, _span, generate,
                         iter_homs, minimal_generating_set, module_over_self)
from .semiring import (FiniteSemiring, check_semiring_axioms,
                       is_additively_idempotent, same_scalars)
from .tensor import join_irreducibles


def row_space(u: SemiringMatrix,
              max_carrier: int = MAX_CARRIER) -> Subsemimodule:
    """The subsemimodule of row vectors spanned by the rows of u, as a
    subsemimodule of the free module on u.cols points: members are the
    vectors' big-endian base-|S| indices in that module's carrier."""
    s = u.scalars
    members = _row_span(u, max_carrier)
    add, action, zero = _row_tables(u, members)
    vecs = _row_vectors(u, members).tolist()
    if u.cols == 1:
        labels = tuple(s.label(v[0]) for v in vecs)
    else:
        labels = tuple("(" + ",".join(s.label(c) for c in v) + ")"
                       for v in vecs)
    return Subsemimodule(scalars=s, size=len(members),
                         add=tuple(map(tuple, add.tolist())), zero=zero,
                         action=tuple(map(tuple, action.tolist())),
                         labels=labels, members=tuple(members.tolist()))


def _row_span(u: SemiringMatrix, max_carrier: int) -> np.ndarray:
    """The sorted base-|S| indices of the vectors spanned by the rows of u.

    Only the span is built. Starting from zero and the rows, each new
    vector is added to every known one, on both sides, and scaled by every
    scalar, until nothing new appears."""
    s = u.scalars
    check_bound(SizeGuard, "free module carrier", s.size ** u.cols,
                "max_carrier", max_carrier)
    sadd, smul = s.np_add, s.np_mul
    scalars = np.arange(s.size)[:, None, None]
    weights = _weights(u)
    seen = np.zeros(s.size ** u.cols, dtype=bool)
    known = np.empty((0, u.cols), dtype=np.int64)
    new = np.array([(s.zero,) * u.cols, *u.entries],
                   dtype=np.int64).reshape(1 + u.rows, u.cols)
    while len(new):
        idx, first = np.unique(new @ weights, return_index=True)
        fresh = ~seen[idx]
        new = new[first[fresh]]
        seen[idx[fresh]] = True
        known = np.concatenate([known, new])
        pairs = len(new) * len(known)
        new = np.concatenate([
            sadd[new[:, None], known[None]].reshape(pairs, u.cols),
            sadd[known[:, None], new[None]].reshape(pairs, u.cols),
            smul[scalars, new[None]].reshape(s.size * len(new), u.cols)])
        new = new[~seen[new @ weights]]
    return np.nonzero(seen)[0]


def _row_tables(u: SemiringMatrix, members: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, int]:
    """The (add, action, zero) tables of the span with these members, on
    the members' positions."""
    s = u.scalars
    weights = _weights(u)
    vecs = _row_vectors(u, members)
    scalars = np.arange(s.size)[:, None, None]
    add = np.searchsorted(members,
                          s.np_add[vecs[:, None], vecs[None]] @ weights)
    action = np.searchsorted(members, s.np_mul[scalars, vecs[None]] @ weights)
    zero = int(np.searchsorted(members, s.zero * int(weights.sum())))
    return add, action, zero


def _weights(u: SemiringMatrix) -> np.ndarray:
    """Big-endian base-|S| place values of a row of u."""
    return u.scalars.size ** np.arange(u.cols - 1, -1, -1, dtype=np.int64)


def _row_vectors(u: SemiringMatrix, members: np.ndarray) -> np.ndarray:
    """The coordinates of each member, one row each."""
    return members[:, None] // _weights(u) % u.scalars.size


@dataclass(frozen=True)
class Retraction:
    """A free cover pi with a section mu, so pi after mu is the identity."""

    free: FreeSemimodule
    pi: SemimoduleHom
    mu: SemimoduleHom


def is_projective_retract_oracle(m: FiniteSemimodule, n: int = None,
                                 max_enum: int = MAX_ENUM,
                                 max_carrier: int = MAX_CARRIER
                                 ) -> Optional[Retraction]:
    """First section of the canonical cover from n generators, if any."""
    gens = list(minimal_generating_set(m))
    if n is None:
        n = len(gens)
    if len(gens) > n:
        raise ValueError(f"module needs {len(gens)} generators, bound is {n}")
    while len(gens) < n:
        gens.append(m.zero)
    free, pi = _cover(m, gens, max_carrier)
    for mu in iter_homs(m, free, max_enum):
        if all(pi.mapping[mu.mapping[x]] == x for x in range(m.size)):
            return Retraction(free, pi, mu)
    return None


@dataclass(frozen=True)
class ProjectivePresentation:
    """An idempotent matrix whose row space realizes the module."""

    scalars: FiniteSemiring
    n: int
    u: SemiringMatrix
    module: Subsemimodule
    iso: SemimoduleHom          # row space onto the presented module

    def __post_init__(self):
        if not is_mult_idempotent(self.u):
            raise NotIdempotent("presentation matrix must square to itself")


def are_isomorphic(m: FiniteSemimodule, n: FiniteSemimodule,
                   max_enum: int = MAX_ENUM) -> Optional[SemimoduleHom]:
    """First bijective hom m -> n in the order of iter_homs, else None. Its
    inverse is a hom too: h(h^-1 y + h^-1 y') = y + y', h(h^-1 0) = 0 and
    h(a h^-1 y) = a y, so h^-1 preserves addition, zero and the action."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("hom set needs a common scalar semiring")
    if m.size != n.size:
        return None
    return next((h for h in iter_homs(m, n, max_enum)
                 if len(set(h.mapping)) == m.size), None)


def canonical_form(m: FiniteSemimodule, max_enum: int = MAX_ENUM) -> tuple:
    """A hashable form that two modules over the same scalars share exactly
    when they are isomorphic, provided each one's addition is a join
    semilattice with zero at the bottom.

    An element is the join of the join-irreducibles below it, so once the
    join-irreducibles are ordered, the element is coded by that set as a
    bitmask, and the sorted codes with the action on codes determine the
    module. Element colours start from the counts below and above and are
    refined to a fixed point by the colours of the action images and the
    sorted (colour of y, colour of x + y) pairs; colours are ranks of
    sorted signatures, so an isomorphism keeps them. The form is the least
    (codes, action) over the orderings of the join-irreducibles by colour
    that permute only within a colour cell (individualisation-refinement
    after McKay and Piperno, "Practical graph isomorphism II", 2014)."""
    return _table_form(m.np_add, m.np_action, m.zero, max_enum)


def _table_form(add: np.ndarray, act: np.ndarray, zero: int,
                max_enum: int) -> tuple:
    """canonical_form of the module with these addition and action
    tables and this zero, read from the arrays alone."""
    le = add == np.arange(len(add))           # le[y, x]: y <= x
    colour = _ranks(np.stack([le.sum(0), le.sum(1)], axis=1))
    while True:
        k = int(colour.max()) + 1
        pairs = np.sort(colour[None, :] * k + colour[add], axis=1)
        refined = _ranks(np.concatenate([colour[:, None], colour[act].T,
                                         pairs], axis=1))
        if refined.max() + 1 == k:
            break
        colour = refined
    ji = sorted(join_irreducibles(add.tolist(), zero),
                key=lambda x: colour[x])
    cells = [list(g) for _, g in itertools.groupby(ji, key=lambda x: colour[x])]
    check_bound(EnumGuard, "canonical form orderings",
                math.prod(math.factorial(len(c)) for c in cells),
                "max_enum", max_enum)
    # past 62 join-irreducibles the codes outgrow int64: Python integers
    width = np.int64 if len(ji) < 63 else object
    below = le[ji].T.astype(width)             # below[x, i]: ji[i] <= x
    best = None
    for perm in itertools.product(*(itertools.permutations(range(len(c)))
                                    for c in cells)):
        bits = np.zeros(len(ji), dtype=width)
        start = 0
        for c, p in zip(cells, perm):
            bits[start:start + len(c)] = [1 << (start + i) for i in p]
            start += len(c)
        code = below @ bits
        order = np.argsort(code)
        form = (tuple(code[order].tolist()),
                tuple(code[act[:, order]].reshape(-1).tolist()))
        if best is None or form < best:
            best = form
    return best


def _ranks(rows: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows in lexicographic order."""
    keys = list(map(tuple, rows.tolist()))
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys])


@lru_cache(maxsize=None)
def _idempotents(s: FiniteSemiring, n: int,
                 max_enum: int) -> Tuple[SemiringMatrix, ...]:
    return idempotent_matrices(s, n, max_enum)


@lru_cache(maxsize=None)
def _has_forms(s: FiniteSemiring) -> bool:
    """Whether canonical forms decide isomorphism between modules over s."""
    return is_additively_idempotent(s) and check_semiring_axioms(s).valid


class _ClassIndex:
    """Modules over one semiring, class i being modules[i], and the lookup
    of the first class isomorphic to a module or to the row space of u.

    Over scalars with forms, forms maps each class size to the forms of
    that size, taken at its first lookup, each to its first class; a module
    that breaks the module laws gets no form and matches nothing. Otherwise
    forms is None and the classes are scanned with are_isomorphic. A row
    space is looked up by its span (u.cols, members) first, as identical
    members give an identical module; a new span's form is read from its
    tables, so a row space is built only to be stored or scanned."""

    def __init__(self, s: FiniteSemiring,
                 modules: Sequence[FiniteSemimodule] = ()):
        self.scalars = s
        self.modules = list(modules)
        self.span_classes: Dict[Tuple[int, bytes], int] = {}
        self.forms: Optional[Dict[int, Optional[Dict[tuple, int]]]] = (
            dict.fromkeys(m.size for m in self.modules)
            if _has_forms(s) else None)

    def find(self, m: FiniteSemimodule, max_enum: int) -> Optional[int]:
        """Index of the first class isomorphic to m, else None."""
        if not same_scalars(m.scalars, self.scalars):
            raise ScalarMismatch("module and classes need common scalars")
        if self.forms is None:
            return self._scan(m, max_enum)
        forms = self._forms_of_size(m.size, max_enum)
        return forms.get(self._form(m, max_enum)) if forms else None

    def find_row_space(self, u: SemiringMatrix, max_enum: int,
                       max_carrier: int, store: bool = False
                       ) -> Optional[int]:
        """Index of the first class isomorphic to the row space of u, else
        None; with store, a row space in no class is stored as the next
        class and its index is returned."""
        members = _row_span(u, max_carrier)
        key = (u.cols, members.tobytes())
        found = self.span_classes.get(key)
        if found is not None:
            return found
        rs = form = None
        if self.forms is None:
            rs = row_space(u, max_carrier)
            found = self._scan(rs, max_enum)
        else:
            forms = self._forms_of_size(len(members), max_enum)
            if not (forms or store):
                return None
            form = _table_form(*_row_tables(u, members), max_enum)
            found = forms.get(form)
        if found is None and store:
            found = len(self.modules)
            self.modules.append(rs or row_space(u, max_carrier))
            if form is not None:
                self.forms.setdefault(len(members), {})[form] = found
        if found is not None:
            self.span_classes[key] = found
        return found

    def _forms_of_size(self, size: int, max_enum: int) -> Dict[tuple, int]:
        """The forms of the classes of this size, empty if there is none."""
        if size in self.forms and self.forms[size] is None:
            found = [(self._form(m, max_enum), i)
                     for i, m in enumerate(self.modules) if m.size == size]
            self.forms[size] = {form: i for form, i in reversed(found)
                                if form is not None}
        return self.forms.get(size, {})

    def _form(self, m: FiniteSemimodule, max_enum: int) -> Optional[tuple]:
        """m's canonical form, or None when m breaks the module laws."""
        return (canonical_form(m, max_enum)
                if _module_laws_hold(self.scalars, m) else None)

    def _scan(self, m: FiniteSemimodule, max_enum: int) -> Optional[int]:
        return next((i for i, c in enumerate(self.modules)
                     if are_isomorphic(c, m, max_enum) is not None), None)


def is_projective_matrix_criterion(m: FiniteSemimodule, n: int = None,
                                   max_enum: int = MAX_ENUM,
                                   max_carrier: int = MAX_CARRIER
                                   ) -> Optional[ProjectivePresentation]:
    """First idempotent u in entry order whose row space matches m; the
    row space and its isomorphism onto m are built for that u alone."""
    if n is None:
        n = len(minimal_generating_set(m))
    index = _ClassIndex(m.scalars, (m,))
    for u in _idempotents(m.scalars, n, max_enum):
        if index.find_row_space(u, max_enum, max_carrier) == 0:
            rs = row_space(u, max_carrier)
            return ProjectivePresentation(m.scalars, n, u, rs,
                                          are_isomorphic(rs, m, max_enum))
    return None


# ----- direct sums ------------------------------------------------------------

@dataclass(frozen=True)
class DirectSum:
    module: FiniteSemimodule
    inject_left: SemimoduleHom
    inject_right: SemimoduleHom
    project_left: SemimoduleHom
    project_right: SemimoduleHom


def direct_sum(m: FiniteSemimodule, n: FiniteSemimodule) -> DirectSum:
    """Componentwise biproduct on pairs, with its four structure maps."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("summands need common scalars")
    s = m.scalars

    def idx(x: int, y: int) -> int:
        return x * n.size + y

    size = m.size * n.size
    add = tuple(tuple(idx(m.add[x][p], n.add[y][q])
                      for p in range(m.size) for q in range(n.size))
                for x in range(m.size) for y in range(n.size))
    action = tuple(tuple(idx(m.action[a][x], n.action[a][y])
                         for x in range(m.size) for y in range(n.size))
                   for a in range(s.size))
    labels = tuple(f"({m.label(x)},{n.label(y)})"
                   for x in range(m.size) for y in range(n.size))
    mod = FiniteSemimodule(scalars=s, size=size, add=add,
                           zero=idx(m.zero, n.zero), action=action,
                           labels=labels)
    il = SemimoduleHom(m, mod, tuple(idx(x, n.zero) for x in range(m.size)))
    ir = SemimoduleHom(n, mod, tuple(idx(m.zero, y) for y in range(n.size)))
    pl = SemimoduleHom(mod, m, tuple(x for x in range(m.size)
                                     for _ in range(n.size)))
    pr = SemimoduleHom(mod, n, tuple(y for _ in range(m.size)
                                     for y in range(n.size)))
    for h in (il, ir, pl, pr):
        h.validate()
    return DirectSum(mod, il, ir, pl, pr)


def block_diag(u: SemiringMatrix, v: SemiringMatrix) -> SemiringMatrix:
    """u in the top-left corner, v shifted to the bottom-right."""
    if not same_scalars(u.scalars, v.scalars):
        raise ScalarMismatch("blocks need common scalars")
    s = u.scalars
    rows, cols = u.rows + v.rows, u.cols + v.cols
    ent = [[s.zero] * cols for _ in range(rows)]
    for i in range(u.rows):
        for j in range(u.cols):
            ent[i][j] = u.entries[i][j]
    for i in range(v.rows):
        for j in range(v.cols):
            ent[u.rows + i][u.cols + j] = v.entries[i][j]
    return SemiringMatrix(s, rows, cols, tuple(map(tuple, ent)))


# ----- the cyclic trichotomy ---------------------------------------------------

def all_subsemimodules(m: FiniteSemimodule) -> Tuple[Tuple[int, ...], ...]:
    """Member sets of every subsemimodule, ordered by size then content."""
    found = set()
    for r in range(m.size + 1):
        for subset in itertools.combinations(range(m.size), r):
            found.add(tuple(sorted(_span(m, subset))))
    return tuple(sorted(found, key=lambda t: (len(t), t)))


@dataclass(frozen=True)
class CyclicTrichotomy:
    """Verdicts of the three equivalent conditions on a cyclic module:
    projectivity, realization as the algebra times an idempotent, and
    splitting the algebra as module plus complement."""

    generator: int
    projective: bool
    retraction: Optional[Retraction]
    presentation: Optional[ProjectivePresentation]
    idempotent: Optional[int]
    b_iso: Optional[SemimoduleHom]
    complement: Optional[Tuple[int, ...]]
    c_iso: Optional[SemimoduleHom]
    idempotent_sets_agree: bool
    consistent: bool


def cyclic_mv_trichotomy(alg: MvAlgebra, m: FiniteSemimodule,
                         max_enum: int = MAX_ENUM) -> CyclicTrichotomy:
    scal = reduct_vee_odot(alg)
    if not same_scalars(scal, m.scalars):
        raise ScalarMismatch("module must live over the join-product reduct")
    generator = None
    for g in range(m.size):
        if len(_span(m, (g,))) == m.size:
            generator = g
            break
    if generator is None:
        raise NotCyclic("no single element spans the module")

    retr = is_projective_retract_oracle(m, max_enum=max_enum)
    pres = is_projective_matrix_criterion(m, max_enum=max_enum)
    projective = retr is not None and pres is not None

    sum_idem = {a for a in range(alg.size) if alg.oplus[a][a] == a}
    prod_idem = {a for a in range(alg.size) if alg.times(a, a) == a}
    sets_agree = sum_idem == prod_idem

    self_mod = module_over_self(scal)
    index = _ClassIndex(scal, (m,))
    idem = next((u for u in sorted(prod_idem)
                 if index.find(generate(self_mod, (u,)), max_enum) == 0), None)
    b_iso = None if idem is None else are_isomorphic(
        generate(self_mod, (idem,)), m, max_enum)

    complement = None
    c_iso = None
    if idem is not None:
        ustar = alg.star[idem]
        left = generate(self_mod, (idem,))
        right = generate(self_mod, (ustar,))
        ds = direct_sum(left, right)
        pos_l = {x: i for i, x in enumerate(left.members)}
        pos_r = {x: i for i, x in enumerate(right.members)}
        mapping = tuple(pos_l[alg.times(a, idem)] * right.size
                        + pos_r[alg.times(a, ustar)]
                        for a in range(alg.size))
        phi = SemimoduleHom(self_mod, ds.module, mapping)
        try:
            phi.validate()
            if len(set(mapping)) == alg.size and ds.module.size == alg.size:
                complement = right.members
                c_iso = phi
        except NotAHom:
            pass
    if c_iso is None:
        # no idempotent route; look for any complement among submodules
        index = _ClassIndex(scal, (self_mod,))
        for members in all_subsemimodules(self_mod):
            if m.size * len(members) != alg.size:
                continue
            ds = direct_sum(m, generate(self_mod, members)).module
            if index.find(ds, max_enum) == 0:
                complement = members
                c_iso = are_isomorphic(self_mod, ds, max_enum)
                break

    consistent = (projective == (idem is not None) == (c_iso is not None)
                  and (retr is None) == (pres is None))
    return CyclicTrichotomy(generator, projective, retr, pres, idem, b_iso,
                            complement, c_iso, sets_agree, consistent)
