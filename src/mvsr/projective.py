"""Projectivity for finitely generated semimodules, decided two ways.

The retract route searches for a section of the canonical free cover; the
matrix route searches for a multiplicatively idempotent square matrix whose
row space matches the module. The two verdicts are independent computations
and every caller is entitled to their agreement.

The row span of u is {xu : x in S^rows} when the scalars keep the semiring
laws, so the spans of a stack of matrices come from one sweep of linear
combinations (_row_spans); over other scalars they come from the closure
of each matrix under sums and scaling (_row_span), which the tests also
keep as the sweep's oracle. Conjugating u by a permutation matrix permutes
the coordinates of its row space, so searches for the first idempotent of
an isomorphism type sweep only the orbit minima (_orbit_minima).

Isomorphism is decided by a hom search (are_isomorphic) or, for modules
whose addition is a join semilattice, by comparing canonical forms
(canonical_form), which needs no search between the two modules.
_ClassIndex matches a module or a stack of row spans to their stored
classes, for the matrix criterion, the trichotomy and grothendieck's
classes and maps; a class found from a span is kept as the span, and its
row-space module is built only when it is read.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, NotAHom, NotCyclic, NotIdempotent,
                     ScalarMismatch, SizeGuard, check_bound, check_count,
                     check_power_bound)
# block_diag, the block sum of matrix, is also importable from here
from .matrix import (SemiringMatrix, _cover, _idempotent_stack,
                     _row_combinations, block_diag, is_mult_idempotent)
from .mv import MvAlgebra, reduct_vee_odot
from .semimodule import (FiniteSemimodule, FreeSemimodule,
                         SemimoduleHom, Subsemimodule, _assignments, _digits,
                         _first_broken_law, _first_hom, _span,
                         _vector_labels, _vector_tables, _weights, generate,
                         join_irreducibles, minimal_generating_set,
                         module_over_self)
from .semiring import (FiniteSemiring, _blocks, _closed_sets, _members,
                       _sum_closure, check_semiring_axioms,
                       is_additively_idempotent, same_scalars)


def row_space(u: SemiringMatrix,
              max_carrier: int = MAX_CARRIER) -> Subsemimodule:
    """The subsemimodule of row vectors spanned by the rows of u, as a
    subsemimodule of the free module on u.cols points: members are the
    vectors' big-endian base-|S| indices in that module's carrier, and the
    tables and labels are that module's, from the same builders."""
    s = u.scalars
    members, = _spans(s, u.np_entries[None], max_carrier)
    return _row_space_of(s, u.cols, members,
                         _vector_tables(s, u.cols, members))


def _row_space_of(s: FiniteSemiring, cols: int, members: np.ndarray,
                  tables: Tuple[np.ndarray, np.ndarray, int]
                  ) -> Subsemimodule:
    """row_space from its members and their _vector_tables."""
    add, action, zero = tables
    return Subsemimodule(scalars=s, size=len(members), add=add, zero=zero,
                         action=action, members=members,
                         labels=_vector_labels(s, cols, members))


@lru_cache(maxsize=None)
def _lawful(s: FiniteSemiring) -> bool:
    """Whether s keeps the eight semiring laws."""
    return check_semiring_axioms(s).valid


def _spans(s: FiniteSemiring, us: np.ndarray,
           max_carrier: int) -> List[np.ndarray]:
    """The members of the row span of each matrix in the stack us, of
    shape (k, rows, cols): one sweep of linear combinations over scalars
    that keep the semiring laws, the closure of each matrix otherwise."""
    if _lawful(s):
        return _row_spans(s, us, max_carrier)
    _, rows, cols = us.shape
    return [_row_span(SemiringMatrix(s, rows, cols, u), max_carrier)
            for u in us.tolist()]


def _row_spans(s: FiniteSemiring, us: np.ndarray,
               max_carrier: int) -> List[np.ndarray]:
    """The sorted base-|S| indices of the row span of each matrix in the
    stack us, of shape (k, rows, cols), over scalars that keep the laws.

    Under the laws the row span of u is {xu : x in S^rows}: it holds zero
    (x = 0) and each row (x a unit vector), and distributivity and
    associativity make it closed under sums and scaling. Each x in
    S^min(rows, cols) is enumerated once and xu, a matrix product, is
    taken by matrix._row_combinations over semiring._blocks of matrices,
    |S|^cols cols entries a matrix, and within each over _assignments
    sized by the block of matrices; a row past the first cols is added to
    the span so far with every scalar, so the work stays within the
    carrier. Each result is coded by _weights into a membership bitmap per
    matrix."""
    k, rows, cols = us.shape
    check_bound(SizeGuard, "free module carrier", s.size ** cols,
                "max_carrier", max_carrier)
    sadd, smul = s.np_add, s.np_mul
    carrier = s.size ** cols
    weights = _weights(s.size, cols)
    head = min(rows, cols)
    vecs = _digits(np.arange(carrier), s.size, cols) if rows > cols else None
    spans = []
    for block in _blocks(k, carrier * max(1, cols)):
        u = us[block]
        which = np.arange(len(u))[:, None]
        seen = np.zeros((len(u), carrier), dtype=bool)
        for x in _assignments(s.size, head, len(u) * max(1, cols)):
            seen[which, _row_combinations(s, x, u[:, :head]) @ weights] = True
        for i in range(head, rows):
            on, at = np.nonzero(seen)
            for a in range(s.size):
                moved = sadd[vecs[at], smul[a, u[on, i]]] @ weights
                seen[on, moved] = True
        spans.extend(np.split(np.nonzero(seen)[1],
                              np.cumsum(seen.sum(axis=1))[:-1]))
    return spans


def _row_span(u: SemiringMatrix, max_carrier: int) -> np.ndarray:
    """The sorted base-|S| indices of the vectors spanned by the rows of u,
    by closure, which needs no semiring law.

    Starting from zero and the rows, each new vector is added to every
    known one, on both sides, and scaled by every scalar, until nothing new
    appears. The sums are taken over semiring._blocks of new vectors,
    (2 |known| + |S|) cols coordinates a vector, and each block is
    filtered by the vectors seen."""
    s = u.scalars
    check_bound(SizeGuard, "free module carrier", s.size ** u.cols,
                "max_carrier", max_carrier)
    sadd, smul = s.np_add, s.np_mul
    scalars = np.arange(s.size)[:, None, None]
    weights = _weights(s.size, u.cols)
    seen = np.zeros(s.size ** u.cols, dtype=bool)

    def fresh(vecs: np.ndarray) -> np.ndarray:
        """The vectors not seen yet, once each, now marked seen."""
        idx, first = np.unique(vecs @ weights, return_index=True)
        keep = ~seen[idx]
        seen[idx[keep]] = True
        return vecs[first[keep]]

    known = np.empty((0, u.cols), dtype=np.int64)
    new = fresh(np.array([(s.zero,) * u.cols, *u.entries],
                         dtype=np.int64).reshape(1 + u.rows, u.cols))
    while len(new):
        known = np.concatenate([known, new])
        found = []
        for rows in _blocks(len(new),
                            (2 * len(known) + s.size) * max(1, u.cols)):
            block = new[rows]
            pairs = len(block) * len(known)
            found.append(fresh(np.concatenate([
                sadd[block[:, None], known[None]].reshape(pairs, u.cols),
                sadd[known[:, None], block[None]].reshape(pairs, u.cols),
                smul[scalars, block[None]].reshape(s.size * len(block),
                                                   u.cols)])))
        new = np.concatenate(found)
    return np.nonzero(seen)[0]


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
    """First section of the canonical cover from n generators, if any; n
    is the generators' count when None, else checked by check_count."""
    gens = minimal_generating_set(m)
    n = len(gens) if n is None else check_count(n, "n", 0)
    if len(gens) > n:
        raise ValueError(f"module needs {len(gens)} generators, bound is {n}")
    check_power_bound(SizeGuard, "free module carrier", m.scalars.size, n,
                      "max_carrier", max_carrier)
    check_bound(EnumGuard, "hom-set candidate assignments",
                (m.scalars.size ** n) ** len(gens), "max_enum", max_enum)
    free, pi = _cover(m, gens + (m.zero,) * (n - len(gens)), max_carrier)
    identity = np.arange(m.size)
    pi_of = np.array(pi.mapping)
    mu = _first_hom(m, free, lambda rows: (pi_of[rows] == identity).all(axis=1),
                    max_enum)
    return None if mu is None else Retraction(free, pi, mu)


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
    """First bijective hom m -> n in the order of hom_set, else None. Its
    inverse is a hom too: h(h^-1 y + h^-1 y') = y + y', h(h^-1 0) = 0 and
    h(a h^-1 y) = a y, so h^-1 preserves addition, zero and the action."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("hom set needs a common scalar semiring")
    if m.size != n.size:
        return None
    return _first_hom(m, n, lambda rows: (np.sort(rows, axis=1)
                                          == np.arange(n.size)).all(axis=1),
                      max_enum)


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
    ji = sorted(join_irreducibles(add, zero),
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
def _idempotents(s: FiniteSemiring, n: int, max_enum: int) -> np.ndarray:
    """The orbit minima of the idempotents of size n, for the matrix
    criterion."""
    stack = _orbit_minima(s, _idempotent_stack(s, n, max_enum))
    stack.setflags(write=False)
    return stack


def _orbit_minima(s: FiniteSemiring, us: np.ndarray) -> np.ndarray:
    """The matrices of the stack us, of shape (k, n, n) in entry order,
    that have no strictly smaller conjugate in the stack.

    Conjugating u by a permutation matrix P gives P u P^T, whose rows are
    u's rows in another order with their coordinates permuted the same
    way; the span and the closure act coordinatewise, so its row space is
    u's with the coordinates permuted, an isomorphic module, whatever laws
    the scalars keep. A matrix dropped here therefore has an isomorphic
    row space earlier in the stack. Each matrix is coded by its entries in
    base |S|, which orders the codes as the stack, and each of the n! - 1
    other conjugations is one gather of the codes, looked up among the
    stack's by searchsorted: over lawless scalars the conjugate of an
    idempotent need not be idempotent, so only a conjugate in the stack
    drops a matrix."""
    k, n, _ = us.shape
    weights = _weights(s.size, n * n)
    codes = us.reshape(k, n * n) @ weights
    keep = np.ones(k, dtype=bool)
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        p = list(perm)
        conj = us[:, p][:, :, p].reshape(k, n * n) @ weights
        smaller = np.flatnonzero(conj < codes)
        at = np.searchsorted(codes, conj[smaller])
        keep[smaller[codes[at] == conj[smaller]]] = False
    return us[keep]


@lru_cache(maxsize=None)
def _has_forms(s: FiniteSemiring) -> bool:
    """Whether canonical forms decide isomorphism between modules over s."""
    return is_additively_idempotent(s) and _lawful(s)


class _ClassIndex:
    """Classes of modules over one semiring, in order, and the lookup of
    the first class isomorphic to a module or to the row space of u.

    A class is a module given at construction or a span stored by a
    lookup, kept as its (cols, members): the span's tables are taken when
    a form or its module first needs them, and its row-space module
    (module) when it is read. Over scalars with forms, forms maps each
    class size to the forms of that size, each to its first class, or to
    None until a lookup needs them. Isomorphic modules have equal sizes, so
    a new span whose size no class has is stored with no form, and the
    forms of its size are taken at the first later lookup of a new span or
    module of that size; only a span whose form could breach max_enum, one
    with more join-irreducibles than _orderings_within allows (they are
    among the multiples a u_i of its rows), takes its form at once, so the
    canonical-form guard fires where a form for every span would fire it.
    A module that breaks the module laws gets no form and matches nothing.
    Otherwise forms is None and the classes are scanned with
    are_isomorphic, on row spaces built for the scan.

    Row spaces are looked up a stack of matrices at a time: the spans
    come from one sweep of linear combinations over scalars that keep the
    semiring laws, and from the closure of each matrix otherwise. A span
    is looked up by (cols, members) first, as identical members give an
    identical module. Callers that want the first class of each
    isomorphism type hand it only the orbit minima of their idempotents
    (_orbit_minima): the span of any other idempotent is a smaller
    conjugate's with the coordinates permuted, so it would find that
    conjugate's class."""

    def __init__(self, s: FiniteSemiring,
                 modules: Sequence[FiniteSemimodule] = ()):
        self.scalars = s
        self._modules: List[Optional[FiniteSemimodule]] = list(modules)
        self._spans: Dict[int, Tuple[int, np.ndarray]] = {}
        self._tables: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}
        self.span_classes: Dict[Tuple[int, bytes], int] = {}
        self.forms: Optional[Dict[int, Optional[Dict[tuple, int]]]] = (
            dict.fromkeys(m.size for m in self._modules)
            if _has_forms(s) else None)

    def __len__(self) -> int:
        return len(self._modules)

    def size(self, i: int) -> int:
        """The size of class i's module, read without building it."""
        span = self._spans.get(i)
        return self._modules[i].size if span is None else len(span[1])

    def module(self, i: int) -> FiniteSemimodule:
        """Class i's module; a span's row space is built at its first
        read, equal to row_space of any matrix with that span."""
        if self._modules[i] is None:
            cols, members = self._spans[i]
            self._modules[i] = _row_space_of(self.scalars, cols, members,
                                             self._tables_of(i))
        return self._modules[i]

    def _tables_of(self, i: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """The _vector_tables of the span of class i, taken once."""
        if i not in self._tables:
            cols, members = self._spans[i]
            self._tables[i] = _vector_tables(self.scalars, cols, members)
        return self._tables[i]

    def find(self, m: FiniteSemimodule, max_enum: int) -> Optional[int]:
        """Index of the first class isomorphic to m, else None."""
        if not same_scalars(m.scalars, self.scalars):
            raise ScalarMismatch("module and classes need common scalars")
        if self.forms is None:
            return self._scan(m, max_enum)
        forms = self._forms_of_size(m.size, max_enum)
        return forms.get(self._form(m, max_enum)) if forms else None

    def find_row_spaces(self, us: np.ndarray, max_enum: int,
                        max_carrier: int, store: bool = False
                        ) -> Iterator[Optional[int]]:
        """For each matrix in the stack us, of shape (k, rows, cols), in
        order, the index of the first class isomorphic to its row space,
        else None; with store, a row space in no class is stored as the
        next class and its index is given. The spans are taken at the call,
        the lookups lazily, so a caller may stop at the first it needs."""
        _, rows, cols = us.shape
        spans = _spans(self.scalars, us, max_carrier)
        return (self._find_span(rows, cols, members, max_enum, store)
                for members in spans)

    def _find_span(self, rows: int, cols: int, members: np.ndarray,
                   max_enum: int, store: bool) -> Optional[int]:
        s = self.scalars
        key = (cols, members.tobytes())
        found = self.span_classes.get(key)
        if found is not None:
            return found
        size = len(members)
        tables = rs = form = None
        if self.forms is None:
            tables = _vector_tables(s, cols, members)
            rs = _row_space_of(s, cols, members, tables)
            found = self._scan(rs, max_enum)
        # the join-irreducibles, among the nonzero a u_i, bound the orderings
        elif size in self.forms or (store and not _orderings_within(
                min(rows * (s.size - 1), size - 1), max_enum)):
            forms = self._forms_of_size(size, max_enum)
            if not (forms or store):
                return None
            tables = _vector_tables(s, cols, members)
            form = _table_form(*tables, max_enum)
            found = forms.get(form)
        elif not store:
            return None
        if found is None and store:
            found = len(self._modules)
            self._modules.append(rs)
            self._spans[found] = (cols, members)
            if form is not None:
                self._tables[found] = tables
                self.forms.setdefault(size, {})[form] = found
            elif self.forms is not None:
                self.forms[size] = None
        if found is not None:
            self.span_classes[key] = found
        return found

    def _forms_of_size(self, size: int, max_enum: int) -> Dict[tuple, int]:
        """The forms of the classes of this size, empty if there is none."""
        if size in self.forms and self.forms[size] is None:
            found = [(self._class_form(i, max_enum), i)
                     for i in range(len(self)) if self.size(i) == size]
            self.forms[size] = {form: i for form, i in reversed(found)
                                if form is not None}
        return self.forms.get(size, {})

    def _class_form(self, i: int, max_enum: int) -> Optional[tuple]:
        """Class i's canonical form, a span's read from its tables."""
        if i in self._spans:
            return _table_form(*self._tables_of(i), max_enum)
        return self._form(self._modules[i], max_enum)

    def _form(self, m: FiniteSemimodule, max_enum: int) -> Optional[tuple]:
        """m's canonical form, or None when m breaks the module laws."""
        return (canonical_form(m, max_enum)
                if _first_broken_law(self.scalars, m) is None else None)

    def _scan(self, m: FiniteSemimodule, max_enum: int) -> Optional[int]:
        return next((i for i in range(len(self))
                     if are_isomorphic(self.module(i), m, max_enum)
                     is not None), None)


def _orderings_within(count: int, bound: int) -> bool:
    """Whether count! is at most bound, without taking count!."""
    total = 1
    for k in range(2, count + 1):
        total *= k
        if total > bound:
            return False
    return True


def is_projective_matrix_criterion(m: FiniteSemimodule, n: int = None,
                                   max_enum: int = MAX_ENUM,
                                   max_carrier: int = MAX_CARRIER
                                   ) -> Optional[ProjectivePresentation]:
    """First idempotent u in entry order whose row space matches m; the
    spans of the idempotents of size n come from one call, and the row
    space and its isomorphism onto m are built for the u found alone.

    Only the orbit minima are swept (_idempotents): a match that has a
    smaller conjugate in the stack is preceded by that conjugate, whose
    row space is isomorphic to its own, so the first match is always an
    orbit minimum. n is the minimal generators' count when None, else
    checked by check_count."""
    n = len(minimal_generating_set(m)) if n is None else check_count(n, "n", 0)
    index = _ClassIndex(m.scalars, (m,))
    us = _idempotents(m.scalars, n, max_enum)
    hit = next((t for t, found in enumerate(
        index.find_row_spaces(us, max_enum, max_carrier)) if found == 0),
        None)
    if hit is None:
        return None
    u = SemiringMatrix(m.scalars, n, n, us[hit].tolist())
    rs = row_space(u, max_carrier)
    return ProjectivePresentation(m.scalars, n, u, rs,
                                  are_isomorphic(rs, m, max_enum))


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
    add = idx(m.np_add[:, None, :, None],
              n.np_add[None, :, None, :]).reshape(size, size)
    action = idx(m.np_action[:, :, None],
                 n.np_action[:, None, :]).reshape(s.size, size)
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


# ----- the cyclic trichotomy ---------------------------------------------------

def all_subsemimodules(m: FiniteSemimodule, max_enum: int = MAX_ENUM
                       ) -> Tuple[Tuple[int, ...], ...]:
    """Member sets of every subsemimodule, ordered by size then content:
    the closed sets of the span closure, by semiring's closed-set sweep: a
    closed set holds zero and, with each member x, its images under every
    scalar and its sums with every member, x itself included.
    The guard bounds the closures the sweep takes on, subsemimodules
    found times |M|, before each one's closures run."""
    moved = [sum({1 << row[x] for row in m.action}) for x in range(m.size)]
    closed, _ = _closed_sets(
        m.size, 1 << m.zero, _sum_closure(m.add, moved),
        partial(check_bound, EnumGuard, "closures run for subsemimodules",
                name="max_enum", bound=max_enum))
    return tuple(sorted((tuple(_members(c)) for c in closed),
                        key=lambda t: (len(t), t)))


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
    # the first idempotent whose cyclic submodule is in m's class, and that
    # submodule, built once
    idem = left = None
    for u in sorted(prod_idem):
        cyclic = generate(self_mod, (u,))
        if index.find(cyclic, max_enum) == 0:
            idem, left = u, cyclic
            break
    b_iso = None if idem is None else are_isomorphic(left, m, max_enum)

    complement = None
    c_iso = None
    if idem is not None:
        ustar = alg.star[idem]
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
        for members in all_subsemimodules(self_mod, max_enum):
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
