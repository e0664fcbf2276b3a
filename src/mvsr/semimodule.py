"""Semimodules over finite semirings: axioms, free modules, homs, strongness.

Hom enumeration never searches all functions. It picks images for a minimal
generating set and extends them along the closure derivation of each carrier
element; the generating set with its derivation order is the plan of the
source. Candidates are built in chunks of rows, one (k, |m|) array per
chunk, column by column in derivation order, and every row is then checked
against the zero, addition and action laws in one array sweep, so the
derivation is only a funnel and correctness rests on the final check. The
hom laws exist once, as the mismatch arrays of _law_mismatches: _hom_mask
reads them for a chunk, _broken_law for the first witness of one map. The
module laws likewise exist once, as the lazy witnesses of
_module_law_witnesses: check_semimodule reports them all, and
_module_laws_hold stops at the first broken one.

iter_homs is the one lazy enumerator of hom objects, and hom_set
materialises it. Searches stop at their answer (are_isomorphic at the first
bijective hom, the retract oracle at the first section); counts take the
rows directly (free_universal_property).
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from .config import MAX_CARRIER, MAX_ENUM
from .errors import (EnumGuard, IllDefinedAction, MalformedTable, NotAHom,
                     NotAnIdeal, ScalarMismatch, SizeGuard, check_bound)
from .mv import (MvAlgebra, check_mv_axioms, quotient, reduct_vee_odot)
from .semiring import (AxiomReport, FiniteSemiring, LawCheck, SemiringHom,
                       Table, _check_index, _first_assoc_failure,
                       _first_comm_failure, _first_identity_failure,
                       boolean_semiring, fold, freeze_table, int_row,
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
        object.__setattr__(self, "add", freeze_table(self.add, self.size, "add"))
        rows = tuple(int_row(row, "action") for row in self.action)
        if len(rows) != self.scalars.size:
            raise MalformedTable("action needs one row per scalar")
        for row in rows:
            if len(row) != self.size or any(not 0 <= v < self.size for v in row):
                raise MalformedTable("action entry out of range")
        object.__setattr__(self, "action", rows)
        object.__setattr__(self, "zero", _check_index(self.zero, self.size, "zero"))
        if self.labels is not None:
            labels = tuple(str(l) for l in self.labels)
            if len(labels) != self.size:
                raise MalformedTable("label count mismatch")
            object.__setattr__(self, "labels", labels)

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
    return AxiomReport("semimodule",
                       tuple(LawCheck(name, w is None, w)
                             for name, w in _module_law_witnesses(s, m)))


def _module_laws_hold(s: FiniteSemiring, m: FiniteSemimodule) -> bool:
    """check_semimodule(s, m).valid, stopping at the first broken law."""
    return all(w is None for _, w in _module_law_witnesses(s, m))


def _module_law_witnesses(s: FiniteSemiring, m: FiniteSemimodule
                          ) -> Iterator[Tuple[str, Optional[tuple]]]:
    """Each law of check_semimodule as (name, first witness or None), in
    report order, each checked only when it is asked for."""
    if not same_scalars(s, m.scalars):
        raise ScalarMismatch("module does not live over the given scalars")
    add, act = m.np_add, m.np_action
    sadd, smul = s.np_add, s.np_mul
    yield "add-associative", _first_assoc_failure(add)
    yield "add-commutative", _first_comm_failure(add)
    yield "add-identity", _first_identity_failure(add, m.zero)

    w = None
    for a in range(s.size):
        comp = act[a][act]                 # a(bx), one row per b
        direct = act[smul[a]]              # (ab)x
        if not np.array_equal(comp, direct):
            b = int(np.nonzero((comp != direct).any(axis=1))[0][0])
            x = int(np.nonzero(comp[b] != direct[b])[0][0])
            w = (a, b, x)
            break
    yield "action-associative", w

    w = None
    for a in range(s.size):
        row = act[a]
        lhs = row[add]                     # a(x+y)
        rhs = add[np.ix_(row, row)]        # ax + ay
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            w = (a, int(x), int(y))
            break
    yield "action-additive", w

    lhs = act[sadd]                        # (a+b)x
    rhs = add[act[:, None, :], act[None, :, :]]     # ax + bx
    w = None
    if not np.array_equal(lhs, rhs):
        a, b, x = np.argwhere(lhs != rhs)[0]
        w = (int(a), int(b), int(x))
    yield "scalar-additive", w

    bad = np.argwhere(act[s.one] != np.arange(m.size))
    yield "action-unital", (int(bad[0][0]),) if len(bad) else None

    w = None
    bad = np.argwhere(act[s.zero] != m.zero)
    if len(bad):
        w = (s.zero, int(bad[0][0]))
    else:
        bad = np.argwhere(act[:, m.zero] != m.zero)
        if len(bad):
            w = (int(bad[0][0]), m.zero)
    yield "action-zero", w

    if is_additively_idempotent(s):
        bad = np.argwhere(add.diagonal() != np.arange(m.size))
        yield "add-idempotent", (int(bad[0][0]),) if len(bad) else None


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
        out = []
        for _ in self.points:
            out.append(i % self.scalars.size)
            i //= self.scalars.size
        return tuple(reversed(out))

    def index(self, vec: Sequence[int]) -> int:
        i = 0
        for v in vec:
            i = i * self.scalars.size + int(v)
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


def free_semimodule(s: FiniteSemiring, points: Sequence[str],
                    max_carrier: int = MAX_CARRIER) -> FreeSemimodule:
    """The pointwise module of maps points -> s."""
    pts = tuple(str(p) for p in points)
    size = s.size ** len(pts)
    check_bound(SizeGuard, "free module carrier", size, "max_carrier",
                max_carrier)
    vecs = list(itertools.product(range(s.size), repeat=len(pts)))
    index = {v: i for i, v in enumerate(vecs)}
    add = tuple(tuple(index[tuple(s.add[a][b] for a, b in zip(u, v))]
                      for v in vecs) for u in vecs)
    action = tuple(tuple(index[tuple(s.mul[a][c] for c in v)] for v in vecs)
                   for a in range(s.size))
    if len(pts) == 1:
        labels = tuple(s.label(v[0]) for v in vecs)
    else:
        labels = tuple("(" + ",".join(s.label(c) for c in v) + ")" for v in vecs)
    zero = index[(s.zero,) * len(pts)]
    return FreeSemimodule(scalars=s, size=size, add=add, zero=zero,
                          action=action, labels=labels, points=pts)


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
    return set(_derivation_order(m, gens)[0])


@dataclass(frozen=True)
class Subsemimodule(FiniteSemimodule):
    """A subsemimodule on its own indices; members maps back to the parent."""

    members: Tuple[int, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "members", tuple(int(x) for x in self.members))


def generate(m: FiniteSemimodule, gens: Iterable[int]) -> Subsemimodule:
    """Least subsemimodule of m containing gens (always contains zero)."""
    members = sorted(_span(m, gens))
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
    which is all hom enumeration needs."""
    kept = [x for x in range(m.size) if x != m.zero]
    for x in list(kept):
        rest = [y for y in kept if y != x]
        if x in _span(m, rest):
            kept = rest
    return tuple(kept)


def _derivation_order(m: FiniteSemimodule, gens: Iterable[int]):
    """A first-found derivation of every element the generators span, in
    the order found."""
    deriv: Dict[int, tuple] = {m.zero: ("zero",)}
    order: List[int] = [m.zero]
    for i, g in enumerate(gens):
        if g not in deriv:
            deriv[g] = ("gen", i)
            order.append(g)
    changed = True
    while changed:
        changed = False
        known = list(order)
        for x in known:
            for y in known:
                r = m.add[x][y]
                if r not in deriv:
                    deriv[r] = ("add", x, y)
                    order.append(r)
                    changed = True
        for a in range(m.scalars.size):
            row = m.action[a]
            for x in known:
                r = row[x]
                if r not in deriv:
                    deriv[r] = ("act", a, x)
                    order.append(r)
                    changed = True
    return order, deriv


# ----- homomorphisms --------------------------------------------------------

@dataclass(frozen=True)
class SemimoduleHom:
    """A map preserving addition, zero, and the scalar action."""

    source: FiniteSemimodule
    target: FiniteSemimodule
    mapping: Tuple[int, ...]

    def __post_init__(self):
        mapping = int_row(self.mapping, "hom")
        if len(mapping) != self.source.size:
            raise MalformedTable("hom length mismatch")
        if any(not 0 <= v < self.target.size for v in mapping):
            raise MalformedTable("hom image out of range")
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def validate(self) -> "SemimoduleHom":
        broken = _broken_law(self.source, self.target, self.mapping)
        if broken is not None:
            raise NotAHom(_BROKEN_LAW[broken[0]].format(*broken[1:]))
        return self

    def is_onto(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.size


_BROKEN_LAW = {"zero": "zero not preserved",
               "add": "addition not preserved at ({}, {})",
               "act": "action not preserved at ({}, {})"}


def _law_mismatches(m: FiniteSemimodule, n: FiniteSemimodule,
                    img: np.ndarray):
    """Where each row of img, a (k, |m|) array of maps m -> n, breaks a hom
    law: the zero law per row, addition at (row, x, y) and the action at
    (row, a, x)."""
    scalars = np.arange(m.scalars.size)[:, None]
    zero = img[:, m.zero] != n.zero
    add = img[:, m.np_add] != n.np_add[img[:, :, None], img[:, None, :]]
    act = img[:, m.np_action] != n.np_action[scalars, img[:, None, :]]
    return zero, add, act


def _hom_mask(m: FiniteSemimodule, n: FiniteSemimodule,
              img: np.ndarray) -> np.ndarray:
    """For each row of img, whether it is a hom m -> n."""
    zero, add, act = _law_mismatches(m, n, img)
    k = len(img)
    return ~(zero | add.reshape(k, -1).any(axis=1)
             | act.reshape(k, -1).any(axis=1))


def _broken_law(m: FiniteSemimodule, n: FiniteSemimodule,
                img: Sequence[int]) -> Optional[tuple]:
    """The first hom law img breaks, ("zero",), ("add", x, y) or
    ("act", a, x) in row-major order, or None when img is a hom m -> n."""
    zero, add, act = _law_mismatches(
        m, n, np.asarray(img, dtype=np.intp).reshape(1, m.size))
    if zero[0]:
        return ("zero",)
    for law, bad in (("add", add[0]), ("act", act[0])):
        hit = np.argwhere(bad)
        if len(hit):
            return (law,) + tuple(int(i) for i in hit[0])
    return None


# Most elements any one temporary array of the hom kernel holds: the law
# check of k candidate maps out of m allocates k * (|m|^2 + |S| |m|).
_CHUNK_ELEMENTS = 1 << 18


def _chunk_rows(m: FiniteSemimodule) -> int:
    """How many candidate maps out of m one chunk holds."""
    return max(1, _CHUNK_ELEMENTS // (m.size * (m.size + m.scalars.size)))


def _assignments(size: int, count: int, rows: int) -> Iterator[np.ndarray]:
    """Every tuple in range(size)^count in lexicographic order, as (k, count)
    arrays of at most max(rows, 1) tuples: the last entries vary within a
    chunk, the first ones from chunk to chunk."""
    inner = 0
    while inner < count and size ** (inner + 1) <= rows:
        inner += 1
    tail = np.array(list(itertools.product(range(size), repeat=inner)),
                    dtype=np.intp).reshape(size ** inner, inner)
    for head in itertools.product(range(size), repeat=count - inner):
        chunk = np.empty((len(tail), count), dtype=np.intp)
        chunk[:, :count - inner] = head
        chunk[:, count - inner:] = tail
        yield chunk


def _hom_plan(m: FiniteSemimodule):
    """A minimal generating set of m and the derivation of every element
    from it, as steps (x, kind, *args) in derivation order."""
    gens = minimal_generating_set(m)
    order, deriv = _derivation_order(m, gens)
    if len(order) != m.size:
        raise ValueError("generators do not span the module")
    return tuple(gens), tuple((x,) + deriv[x] for x in order)


def _hom_rows(m: FiniteSemimodule, n: FiniteSemimodule,
              max_enum: int = MAX_ENUM, plan=None) -> Iterator[np.ndarray]:
    """Every hom m -> n as rows of (k, |m|) arrays, lazily, ordered
    lexicographically by generator images. The scalar check and the guard
    run at the first step, before any array is built; plan, from _hom_plan,
    saves a caller that enumerates out of m repeatedly its derivation."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("hom set needs a common scalar semiring")
    gens, steps = plan or _hom_plan(m)
    check_bound(EnumGuard, "hom-set candidate assignments",
                n.size ** len(gens), "max_enum", max_enum)
    n_add, n_act = n.np_add, n.np_action
    for assign in _assignments(n.size, len(gens), _chunk_rows(m)):
        img = np.empty((len(assign), m.size), dtype=np.intp)
        for x, kind, *args in steps:
            if kind == "zero":
                img[:, x] = n.zero
            elif kind == "gen":
                img[:, x] = assign[:, args[0]]
            elif kind == "add":
                img[:, x] = n_add[img[:, args[0]], img[:, args[1]]]
            else:
                img[:, x] = n_act[args[0], img[:, args[1]]]
        yield img[_hom_mask(m, n, img)]


@dataclass(frozen=True)
class HomSemilattice:
    """Every hom between two modules, with the pointwise monoid structure."""

    source: FiniteSemimodule
    target: FiniteSemimodule
    homs: Tuple[SemimoduleHom, ...]

    def __len__(self) -> int:
        return len(self.homs)

    def __iter__(self):
        return iter(self.homs)

    def __getitem__(self, i: int) -> SemimoduleHom:
        return self.homs[i]

    @cached_property
    def _index(self) -> Dict[Tuple[int, ...], int]:
        return {h.mapping: i for i, h in enumerate(self.homs)}

    def position(self, mapping: Tuple[int, ...]) -> int:
        """Index of the hom with this mapping; KeyError when none is."""
        return self._index[mapping]

    @cached_property
    def zero_index(self) -> int:
        return self._index[(self.target.zero,) * self.source.size]

    def plus(self, i: int, j: int) -> int:
        fi, fj = self.homs[i].mapping, self.homs[j].mapping
        s = tuple(self.target.add[a][b] for a, b in zip(fi, fj))
        return self._index[s]

    @cached_property
    def add_table(self) -> Table:
        n = len(self.homs)
        return tuple(tuple(self.plus(i, j) for j in range(n)) for i in range(n))

    def monoid_report(self) -> AxiomReport:
        t = np.array(self.add_table, dtype=np.intp)
        checks = (("add-associative", _first_assoc_failure(t)),
                  ("add-commutative", _first_comm_failure(t)),
                  ("add-identity", _first_identity_failure(t, self.zero_index)))
        return AxiomReport("hom-monoid",
                           tuple(LawCheck(n_, w is None, w) for n_, w in checks))

    def to_module(self) -> FiniteSemimodule:
        """Pointwise scalar action; only sound for commutative scalars."""
        s = self.source.scalars
        if any(s.mul[a][b] != s.mul[b][a]
               for a in range(s.size) for b in range(s.size)):
            raise ScalarMismatch("pointwise action needs commutative scalars")
        action = tuple(
            tuple(self._index[tuple(self.target.action[a][v] for v in h.mapping)]
                  for h in self.homs)
            for a in range(s.size))
        labels = tuple(",".join(map(str, h.mapping)) for h in self.homs)
        return FiniteSemimodule(scalars=s, size=len(self.homs),
                                add=self.add_table, zero=self.zero_index,
                                action=action, labels=labels)


def iter_homs(m: FiniteSemimodule, n: FiniteSemimodule,
              max_enum: int = MAX_ENUM) -> Iterator[SemimoduleHom]:
    """Every hom m -> n, lazily, ordered lexicographically by generator
    images; the scalar check and the guard run at the first step."""
    for rows in _hom_rows(m, n, max_enum):
        for row in rows.tolist():
            yield SemimoduleHom(m, n, tuple(row))


def hom_set(m: FiniteSemimodule, n: FiniteSemimodule,
            max_enum: int = MAX_ENUM) -> HomSemilattice:
    """All homs m -> n, in the order of iter_homs."""
    return HomSemilattice(m, n, tuple(iter_homs(m, n, max_enum)))


def compose_module_homs(g: SemimoduleHom, f: SemimoduleHom) -> SemimoduleHom:
    """g after f."""
    if f.target is not g.source and f.target.add != g.source.add:
        raise ScalarMismatch("middle modules disagree")
    return SemimoduleHom(f.source, g.target,
                         tuple(g.mapping[v] for v in f.mapping))


# ----- endomorphism semirings -----------------------------------------------

@dataclass(frozen=True)
class EndSemiring:
    """Endomorphisms under pointwise sum and composition.

    order "diagrammatic" multiplies by applying the left factor first;
    "classical" composes the usual way round."""

    module: FiniteSemimodule
    semiring: FiniteSemiring
    homs: Tuple[SemimoduleHom, ...]
    order: str


def end_semiring(m: FiniteSemimodule, order: str = "diagrammatic",
                 max_enum: int = MAX_ENUM) -> EndSemiring:
    if order not in ("diagrammatic", "classical"):
        raise ValueError("order must be diagrammatic or classical")
    hs = hom_set(m, m, max_enum)
    k = len(hs.homs)
    pos = hs._index
    def compose(i: int, j: int) -> int:
        fi, fj = hs.homs[i].mapping, hs.homs[j].mapping
        if order == "diagrammatic":
            return pos[tuple(fj[v] for v in fi)]
        return pos[tuple(fi[v] for v in fj)]
    mul = tuple(tuple(compose(i, j) for j in range(k)) for i in range(k))
    one = pos[tuple(range(m.size))]
    labels = tuple(",".join(map(str, h.mapping)) for h in hs.homs)
    ring = FiniteSemiring(k, hs.add_table, mul, hs.zero_index, one, labels)
    return EndSemiring(m, ring, hs.homs, order)


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
    pos = {h.mapping: i for i, h in enumerate(end.homs)}
    mapping = tuple(pos[tuple(s.mul[x][a] for x in range(s.size))]
                    for a in range(s.size))
    hom = SemiringHom(s, end.semiring, mapping)
    hom.validate()
    injective = len(set(mapping)) == s.size
    unit = all(end.homs[mapping[a]].mapping[s.one] == a for a in range(s.size))
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
    """Pull the action back along a validated semiring hom; carrier unchanged."""
    h.validate()
    if not same_scalars(h.target, n.scalars):
        raise ScalarMismatch("hom target must be the module's scalars")
    action = tuple(n.action[h.mapping[a]] for a in range(h.source.size))
    return FiniteSemimodule(scalars=h.source, size=n.size, add=n.add,
                            zero=n.zero, action=action, labels=n.labels)


# ----- free universal property -----------------------------------------------

def free_universal_property(f: FreeSemimodule, m: FiniteSemimodule,
                            max_enum: int = MAX_ENUM) -> dict:
    """Every map from the points into m extends to exactly one hom.

    Existence is checked by building the linear-combination extension of
    every point map, a chunk of maps at a time, and masking the extensions
    that are homs; uniqueness by counting the homs by their basis values,
    since a hom out of a free module is the extension of those values."""
    if not same_scalars(f.scalars, m.scalars):
        raise ScalarMismatch("target must share the scalars")
    npts = len(f.points)
    total = m.size ** npts
    check_bound(EnumGuard, "point maps", total, "max_enum", max_enum)
    by_basis = Counter(tuple(row) for rows in _hom_rows(f, m, max_enum)
                       for row in rows[:, list(f.basis)].tolist())
    coeffs = np.array([f.vector(i) for i in range(f.size)],
                      dtype=np.intp).reshape(f.size, npts)
    existence = 0
    uniqueness = 0
    for imgs in _assignments(m.size, npts, _chunk_rows(f)):
        built = np.full((len(imgs), f.size), m.zero, dtype=np.intp)
        for j in range(npts):
            terms = m.np_action[coeffs[:, j], imgs[:, j, None]]
            built = m.np_add[built, terms]
        homs = _hom_mask(f, m, built)
        existence += len(homs) - int(homs.sum())
        uniqueness += sum(by_basis[p] != 1
                          for p in map(tuple, imgs[homs].tolist()))
    return {"maps": total, "existence_failures": existence,
            "uniqueness_failures": uniqueness,
            "ok": existence == 0 and uniqueness == 0}
