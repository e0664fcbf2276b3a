"""Finite MV-algebras: chains, products, reducts, ideals, and truncation.

An algebra is a table for the truncated sum together with an involution table;
everything else (product, lattice, order) is derived. Two semiring reducts are
available, exchanged by the involution, and the truncation map from the
min-plus rationals produces the chains. Its laws are decided exactly on a
finite grid and spot-checked on seeded samples in scaled integers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .config import MAX_CARRIER, MAX_ENUM
from .errors import (ChainTooShort, EnumGuard, MalformedTable, NotAHom,
                     NotAnIdeal, SizeGuard, TooManyVariables, check_bound,
                     check_count)
from .semiring import (AxiomReport, FiniteSemiring, LawCheck, SemiringHom,
                       Table, _IndexMap, _additivity_mask, _closed_sets,
                       _first_comm_failure, _first_in_blocks,
                       _first_difference, _index_grid, _index_list,
                       _label_tuple, _law_report, _members, _monoid_laws,
                       _small, _store, _sum_closure, is_additively_idempotent,
                       natural_order)
from .tropical import (DEN_LCM, TOP, TropicalUSemifield, scaled_sampler,
                       trop)


@dataclass(frozen=True)
class MvAlgebra:
    """An MV-algebra on {0..size-1}: truncated sum, involution, bottom."""

    size: int
    oplus: Table
    star: Tuple[int, ...]
    zero: int
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        n = self.size
        _store(self, oplus=_index_grid(self.oplus, (n, n), n, "oplus"),
               star=_index_grid(self.star, (n,), n, "star"),
               zero=_index_grid(self.zero, (), n, "zero"),
               labels=_label_tuple(self.labels, n))

    @property
    def one(self) -> int:
        return self.star[self.zero]

    def plus(self, a: int, b: int) -> int:
        return self.oplus[a][b]

    def neg(self, a: int) -> int:
        return self.star[a]

    def times(self, a: int, b: int) -> int:
        return self.star[self.oplus[self.star[a]][self.star[b]]]

    def join(self, a: int, b: int) -> int:
        return self.oplus[self.times(a, self.star[b])][b]

    def meet(self, a: int, b: int) -> int:
        return self.star[self.join(self.star[a], self.star[b])]

    def leq(self, a: int, b: int) -> bool:
        return self.join(a, b) == b

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    @cached_property
    def odot(self) -> Table:
        return tuple(tuple(self.times(a, b) for b in range(self.size))
                     for a in range(self.size))

    @cached_property
    def vee(self) -> Table:
        return tuple(tuple(self.join(a, b) for b in range(self.size))
                     for a in range(self.size))

    @cached_property
    def _down_sets(self) -> Tuple[int, ...]:
        """Each x's down-set {y : y <= x}, as a bitmask."""
        return tuple(sum(1 << y for y, row in enumerate(self.vee)
                         if row[x] == x) for x in range(self.size))

    @cached_property
    def wedge(self) -> Table:
        return tuple(tuple(self.meet(a, b) for b in range(self.size))
                     for a in range(self.size))

    def core(self):
        return (self.size, self.oplus, self.star, self.zero)


def check_mv_axioms(a: MvAlgebra) -> AxiomReport:
    """Commutative-monoid laws plus involution, top absorption, and the
    characteristic exchange law, checked exhaustively. The exchange law
    is the commutativity of the derived table (x* + y)* + y."""
    oplus, star, one = a.oplus, a.star, a.one
    return _law_report("mv-algebra", [
        *_monoid_laws("oplus", oplus, a.zero),
        ("involution", next(((x,) for x in range(a.size)
                             if star[star[x]] != x), None)),
        ("top-absorbing", next(((x,) for x in range(a.size)
                                if oplus[x][one] != one), None)),
        ("exchange", _first_comm_failure(tuple(
            tuple(oplus[star[v]][y] for y, v in enumerate(oplus[star[x]]))
            for x in range(a.size))))])


def lattice_report(a: MvAlgebra) -> AxiomReport:
    """The derived order is a bounded lattice with join/meet as lub/glb."""
    n = a.size
    leq = [[a.leq(x, y) for y in range(n)] for x in range(n)]
    checks = []
    w = next(((x,) for x in range(n) if not leq[x][x]), None)
    checks.append(("order-reflexive", w))
    w = next(((x, y) for x in range(n) for y in range(n)
              if x != y and leq[x][y] and leq[y][x]), None)
    checks.append(("order-antisymmetric", w))
    w = next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
              if leq[x][y] and leq[y][z] and not leq[x][z]), None)
    checks.append(("order-transitive", w))
    w = next(((x,) for x in range(n)
              if not (leq[a.zero][x] and leq[x][a.one])), None)
    checks.append(("bounded", w))

    def is_lub(x, y, j):
        if not (leq[x][j] and leq[y][j]):
            return False
        return all(leq[j][u] for u in range(n) if leq[x][u] and leq[y][u])

    def is_glb(x, y, m):
        if not (leq[m][x] and leq[m][y]):
            return False
        return all(leq[u][m] for u in range(n) if leq[u][x] and leq[u][y])

    w = next(((x, y) for x in range(n) for y in range(n)
              if not is_lub(x, y, a.join(x, y))), None)
    checks.append(("join-is-lub", w))
    w = next(((x, y) for x in range(n) for y in range(n)
              if not is_glb(x, y, a.meet(x, y))), None)
    checks.append(("meet-is-glb", w))
    return _law_report("mv-lattice", checks)


def lukasiewicz_chain(k: int, max_carrier: int = MAX_CARRIER) -> MvAlgebra:
    """The k-element chain 0, 1/(k-1), ..., 1 with truncated addition.
    A k that is not an integer is refused with ValueError, and one below 2
    with ChainTooShort."""
    k = check_count(k, "k", None)
    if k < 2:
        raise ChainTooShort("a chain needs at least 2 elements")
    check_bound(SizeGuard, "chain carrier", k, "max_carrier", max_carrier)
    top = k - 1
    oplus = tuple(tuple(min(i + j, top) for j in range(k)) for i in range(k))
    star = tuple(top - i for i in range(k))
    labels = tuple(str(Fraction(i, top)) for i in range(k))
    return MvAlgebra(k, oplus, star, 0, labels)


def mv_product(a: MvAlgebra, b: MvAlgebra,
               max_carrier: int = MAX_CARRIER) -> MvAlgebra:
    """Componentwise product; element (x, y) sits at index x*|B| + y."""
    size = a.size * b.size
    check_bound(SizeGuard, "product carrier", size, "max_carrier", max_carrier)
    idx = lambda x, y: x * b.size + y
    oplus = tuple(tuple(idx(a.oplus[x1][x2], b.oplus[y1][y2])
                        for x2 in range(a.size) for y2 in range(b.size))
                  for x1 in range(a.size) for y1 in range(b.size))
    star = tuple(idx(a.star[x], b.star[y])
                 for x in range(a.size) for y in range(b.size))
    labels = tuple(f"({a.label(x)},{b.label(y)})"
                   for x in range(a.size) for y in range(b.size))
    return MvAlgebra(size, oplus, star, idx(a.zero, b.zero), labels)


@dataclass(frozen=True)
class LeqEquivalence:
    """Outcome of the four equivalent descriptions of the natural order."""

    holds: bool
    via_star_sum: bool
    via_product_zero: bool
    via_absorption: bool
    via_difference: bool
    witness_z: Optional[int]
    internally_consistent: bool


def leq_equivalence_check(a: MvAlgebra, x: int, y: int) -> LeqEquivalence:
    """Evaluate all four characterizations of x <= y and cross-check them.
    x and y are checked as indices of a before any table is read."""
    x, y = (_index_grid(v, (), a.size, "element") for v in (x, y))
    c1 = a.oplus[a.star[x]][y] == a.one
    c2 = a.times(x, a.star[y]) == a.zero
    c3 = a.oplus[x][a.times(y, a.star[x])] == y
    witness = next((z for z in range(a.size) if a.oplus[x][z] == y), None)
    c4 = witness is not None
    consistent = c1 == c2 == c3 == c4
    return LeqEquivalence(c1 and consistent, c1, c2, c3, c4, witness, consistent)


def reduct_vee_odot(a: MvAlgebra) -> FiniteSemiring:
    """The join/product semiring reduct; the default scalar structure."""
    return FiniteSemiring(a.size, a.vee, a.odot, a.zero, a.one, a.labels)


def reduct_wedge_oplus(a: MvAlgebra) -> FiniteSemiring:
    """The meet/sum semiring reduct; top is its additive neutral."""
    return FiniteSemiring(a.size, a.wedge, a.oplus, a.one, a.zero, a.labels)


def _as_semiring(obj) -> FiniteSemiring:
    """A semiring as it is; an MV-algebra stands for its join-product
    reduct."""
    if isinstance(obj, MvAlgebra):
        return reduct_vee_odot(obj)
    if isinstance(obj, FiniteSemiring):
        return obj
    raise MalformedTable("expected a semiring or mv algebra description")


def star_reduct_isomorphism(a: MvAlgebra) -> SemiringHom:
    """The involution as a semiring isomorphism between the two reducts."""
    hom = SemiringHom(reduct_vee_odot(a), reduct_wedge_oplus(a), a.star)
    hom.validate()
    if not hom.is_bijective():
        raise NotAHom("involution is not bijective")
    return hom


@dataclass(frozen=True)
class NegationCheck:
    """Whether a star map turns an idempotent semiring into an MV-semiring."""

    condition_i: LawCheck
    condition_ii: LawCheck
    is_mv_semiring: bool
    recovered: Optional[MvAlgebra]
    recovered_report: Optional[AxiomReport]


def mv_semiring_negation_check(s: FiniteSemiring,
                               star: Tuple[int, ...]) -> NegationCheck:
    """Check the two negation conditions on an additively idempotent
    commutative semiring, then rebuild the truncated sum and validate it."""
    star = _index_grid(star, (s.size,), s.size, "star")
    if not is_additively_idempotent(s):
        raise MalformedTable("negation check needs an additively idempotent semiring")
    order = natural_order(s)
    w1 = None
    for a in range(s.size):
        for b in range(s.size):
            if (s.mul[a][b] == s.zero) != order[b][star[a]]:
                w1 = (a, b)
                break
        if w1:
            break
    w2 = None
    for a in range(s.size):
        sa = star[a]
        for b in range(s.size):
            rhs = star[s.mul[sa][star[s.mul[sa][b]]]]
            if s.add[a][b] != rhs:
                w2 = (a, b)
                break
        if w2:
            break
    cond_i = LawCheck("product-vanishes-iff-below-negation", w1 is None, w1)
    cond_ii = LawCheck("join-recovered-from-negation", w2 is None, w2)
    recovered = None
    report = None
    ok = cond_i.ok and cond_ii.ok
    if ok:
        oplus = tuple(tuple(star[s.mul[star[a]][star[b]]] for b in range(s.size))
                      for a in range(s.size))
        recovered = MvAlgebra(s.size, oplus, star, s.zero, s.labels)
        report = check_mv_axioms(recovered)
        ok = report.valid
    return NegationCheck(cond_i, cond_ii, ok, recovered, report)


def distance(a: MvAlgebra, x: int, y: int) -> int:
    """Symmetric difference d(x, y) = (x * y~) + (y * x~); x and y are
    checked as indices of a first."""
    x, y = (_index_grid(v, (), a.size, "element") for v in (x, y))
    return a.oplus[a.times(x, a.star[y])][a.times(y, a.star[x])]


def _ideal_closure(a: MvAlgebra):
    """The implied of the ideals' closed-set sweep: member x forces every
    y <= x and every x + y and y + x with a member (semiring._sum_closure
    of the sum and the down-sets, which the algebra keeps)."""
    return _sum_closure(a.oplus, a._down_sets)


def is_ideal(a: MvAlgebra, subset) -> bool:
    """Whether subset holds zero and is closed under the sum and downward:
    whether it is a closed set of the ideals' sweep, every member's
    implication staying inside it. Its members are checked as indices of a
    before any table is read: a subset that is not a sequence, a bool, a
    non-integer or an index out of range raises MalformedTable."""
    members = set(_index_list(subset, a.size, "ideal"))
    if a.zero not in members:
        return False
    mask = sum(1 << x for x in members)
    implied = _ideal_closure(a)
    return not any(implied(x, mask) & ~mask for x in members)


def ideals(a: MvAlgebra, max_enum: int = MAX_ENUM) -> Tuple[Tuple[int, ...], ...]:
    """All ideals, ordered by size then members: the closed sets of the
    ideal closure, by semiring's closed-set sweep. A closed set holds zero
    and, with each member x, every y <= x and every x + y and y + x with
    another member (_ideal_closure), so the closed sets are the subsets
    is_ideal accepts by construction, on lawless tables too. The guard
    bounds the closures the sweep takes on, ideals found times |A|, before
    each ideal's closures run."""
    closed, _ = _closed_sets(
        a.size, 1 << a.zero, _ideal_closure(a),
        partial(check_bound, EnumGuard, "closures run for ideals",
                name="max_enum", bound=max_enum))
    return tuple(sorted((tuple(_members(c)) for c in closed),
                        key=lambda t: (len(t), t)))


Partition = Tuple[Tuple[int, ...], ...]


def congruence_from_ideal(a: MvAlgebra, ideal) -> Partition:
    """Classes of the relation d(x, y) in I, as sorted blocks. The members
    are checked as indices of a first: a bool, a non-integer or an index out
    of range raises MalformedTable, as does an ideal that is not a
    sequence."""
    members = frozenset(_index_list(ideal, a.size, "ideal"))
    if not is_ideal(a, members):
        raise NotAnIdeal(f"{sorted(members)} is not an ideal")
    related = [[distance(a, x, y) in members for y in range(a.size)]
               for x in range(a.size)]
    for x in range(a.size):
        if not related[x][x]:
            raise NotAnIdeal("relation not reflexive")  # cannot happen for an ideal
        for y in range(a.size):
            if related[x][y] != related[y][x]:
                raise NotAnIdeal("relation not symmetric")
            for z in range(a.size):
                if related[x][y] and related[y][z] and not related[x][z]:
                    raise NotAnIdeal("relation not transitive")
    seen = set()
    blocks = []
    for x in range(a.size):
        if x in seen:
            continue
        block = tuple(y for y in range(a.size) if related[x][y])
        seen.update(block)
        blocks.append(block)
    return tuple(blocks)


def _compatible_class_map(a: MvAlgebra, blocks: Partition) -> Dict[int, int]:
    """Block index of each element; raises NotAnIdeal unless the involution
    and the sum respect the blocks."""
    cls = {x: i for i, b in enumerate(blocks) for x in b}
    for b in blocks:
        r = b[0]
        for x in b:
            if cls[a.star[x]] != cls[a.star[r]]:
                raise NotAnIdeal("partition not compatible with the involution")
            for y in range(a.size):
                if cls[a.oplus[x][y]] != cls[a.oplus[r][y]]:
                    raise NotAnIdeal("partition not compatible with the sum")
    return cls


def ideal_from_congruence(a: MvAlgebra, partition: Partition) -> Tuple[int, ...]:
    """The class of zero; the partition must be an MV-congruence. Each
    block's members are checked as indices of a first: a partition that is
    not a sequence of sequences, a bool, a non-integer or an index out of
    range raises MalformedTable."""
    try:
        partition = tuple(partition)
    except TypeError:
        raise MalformedTable("partition must be a sequence of "
                             "blocks") from None
    blocks = tuple(tuple(sorted(_index_list(b, a.size, "partition block")))
                   for b in partition)
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(a.size)):
        raise NotAnIdeal("partition does not cover the carrier exactly once")
    cls = _compatible_class_map(a, blocks)
    zero_class = blocks[cls[a.zero]]
    if not is_ideal(a, zero_class):
        raise NotAnIdeal("class of zero is not an ideal")
    return zero_class


@dataclass(frozen=True)
class MvHom(_IndexMap):
    """A map between MV-algebras preserving sum, involution, and bottom."""

    source: MvAlgebra
    target: MvAlgebra
    mapping: Tuple[int, ...]

    @cached_property
    def _broken(self) -> Optional[str]:
        """Zero, then the first x where the involution or a sum x + y is not
        preserved, the involution first: per source row, the involution
        beside the additivity of the map under the sums, one row at a time
        in Python or a block of rows at a time in numpy, as _small
        decides."""
        s, t, h = self.source, self.target, self.mapping
        if h[s.zero] != t.zero:
            return "zero not preserved"
        if _small(s.size * (s.size + 1)):
            bad = _first_difference(
                ((h[y], *map(h.__getitem__, sums))
                 for y, sums in zip(s.star, s.oplus)),
                ((t.star[v], *map(t.oplus[v].__getitem__, h)) for v in h))
        else:
            img = np.array(h, dtype=np.intp)
            s_star, t_star = np.array(s.star), np.array(t.star)
            s_oplus, t_oplus = np.array(s.oplus), np.array(t.oplus)
            bad = _first_in_blocks(
                s.size, s.size + 1, lambda x: np.concatenate(
                    [(img[s_star[x]] != t_star[img[x]])[:, None],
                     _additivity_mask(img[None], s_oplus, t_oplus, x)[0]],
                    axis=1))
        if bad is None:
            return None
        x, y = bad
        return (f"sum not preserved at ({x}, {y - 1})" if y
                else f"involution not preserved at {x}")

    def as_vee_odot_hom(self) -> SemiringHom:
        return SemiringHom(reduct_vee_odot(self.source),
                           reduct_vee_odot(self.target), self.mapping)


@dataclass(frozen=True)
class QuotientResult:
    algebra: MvAlgebra
    hom: MvHom
    classes: Partition


def quotient(a: MvAlgebra, ideal) -> QuotientResult:
    """The quotient algebra modulo an ideal, with its canonical projection."""
    blocks = congruence_from_ideal(a, ideal)
    cls = _compatible_class_map(a, blocks)
    n = len(blocks)
    oplus = tuple(tuple(cls[a.oplus[blocks[i][0]][blocks[j][0]]] for j in range(n))
                  for i in range(n))
    star = tuple(cls[a.star[blocks[i][0]]] for i in range(n))
    labels = tuple("[" + a.label(b[0]) + "]" for b in blocks)
    alg = MvAlgebra(n, oplus, star, cls[a.zero], labels)
    report = check_mv_axioms(alg)
    if not report.valid:
        raise NotAnIdeal(f"quotient fails {report.failures()[0].name}")
    hom = MvHom(a, alg, tuple(cls[x] for x in range(a.size)))
    hom.validate()
    return QuotientResult(alg, hom, blocks)


@dataclass(frozen=True)
class BooleanCenter:
    elements: Tuple[int, ...]
    algebra: MvAlgebra


def boolean_center(a: MvAlgebra) -> BooleanCenter:
    """The sum-idempotent elements, as a Boolean subalgebra."""
    elems = tuple(x for x in range(a.size) if a.oplus[x][x] == x)
    for x in range(a.size):
        if (a.oplus[x][x] == x) != (a.times(x, x) == x):
            raise MalformedTable("idempotents for sum and product disagree; not an MV-algebra")
    index = {x: i for i, x in enumerate(elems)}
    for x in elems:
        if a.star[x] not in index:
            raise MalformedTable("center not closed under involution")
        for y in elems:
            if a.oplus[x][y] not in index:
                raise MalformedTable("center not closed under the sum")
    oplus = tuple(tuple(index[a.oplus[x][y]] for y in elems) for x in elems)
    star = tuple(index[a.star[x]] for x in elems)
    labels = tuple(a.label(x) for x in elems)
    sub = MvAlgebra(len(elems), oplus, star, index[a.zero], labels)
    return BooleanCenter(elems, sub)


# ----- term language ------------------------------------------------------

_SUGAR = {"oplus": 2, "star": 1, "odot": 2, "vee": 2, "wedge": 2}


def _tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append((text[i:j], i))
            i = j
    return out


def parse_term(text: str):
    """Parse a prefix s-expression over variables, 0, 1, and the MV ops,
    elaborating derived operations into sum and involution."""
    toks = _tokens(text)
    pos = 0

    def fail(msg, at):
        raise ValueError(f"parse error at position {at}: {msg}")

    def term():
        nonlocal pos
        if pos >= len(toks):
            fail("unexpected end of input", len(text))
        tok, at = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks):
                fail("unexpected end of input", len(text))
            op, op_at = toks[pos]
            pos += 1
            if op not in _SUGAR:
                fail(f"unknown operation {op!r}", op_at)
            args = [term() for _ in range(_SUGAR[op])]
            if pos >= len(toks) or toks[pos][0] != ")":
                fail("expected ')'", toks[pos][1] if pos < len(toks) else len(text))
            pos += 1
            return _build(op, args)
        if tok == ")":
            fail("unexpected ')'", at)
        if tok == "0":
            return ("zero",)
        if tok == "1":
            return ("star", ("zero",))
        if tok in _SUGAR:
            fail(f"operation {tok!r} needs parentheses", at)
        if not tok[0].isalpha():
            fail(f"bad token {tok!r}", at)
        return ("var", tok)

    def _build(op, args):
        if op == "oplus":
            return ("oplus", args[0], args[1])
        if op == "star":
            return ("star", args[0])
        if op == "odot":
            return ("star", ("oplus", ("star", args[0]), ("star", args[1])))
        if op == "vee":
            inner = _build("odot", [args[0], ("star", args[1])])
            return ("oplus", inner, args[1])
        # wedge
        flipped = _build("vee", [("star", args[0]), ("star", args[1])])
        return ("star", flipped)

    ast = term()
    if pos != len(toks):
        fail("trailing input", toks[pos][1])
    return ast


def term_variables(ast) -> Tuple[str, ...]:
    seen = []

    def walk(t):
        if t[0] == "var" and t[1] not in seen:
            seen.append(t[1])
        for sub in t[1:]:
            if isinstance(sub, tuple):
                walk(sub)

    walk(ast)
    return tuple(sorted(seen))


def eval_term(a: MvAlgebra, ast, env: Dict[str, int]) -> int:
    if ast[0] == "zero":
        return a.zero
    if ast[0] == "var":
        return env[ast[1]]
    if ast[0] == "star":
        return a.star[eval_term(a, ast[1], env)]
    return a.oplus[eval_term(a, ast[1], env)][eval_term(a, ast[2], env)]


@dataclass(frozen=True)
class EquationResult:
    holds: bool
    counterexample: Optional[Dict[str, int]]


def equation_holds(a: MvAlgebra, lhs: Union[str, tuple], rhs: Union[str, tuple],
                   max_vars: int = 4) -> EquationResult:
    """Decide an equation by scanning all assignments to its variables."""
    max_vars = check_count(max_vars, "max_vars", 0)
    left = parse_term(lhs) if isinstance(lhs, str) else lhs
    right = parse_term(rhs) if isinstance(rhs, str) else rhs
    names = tuple(sorted(set(term_variables(left)) | set(term_variables(right))))
    if len(names) > max_vars:
        raise TooManyVariables(f"{len(names)} variables exceed the bound {max_vars}")
    import itertools
    for values in itertools.product(range(a.size), repeat=len(names)):
        env = dict(zip(names, values))
        if eval_term(a, left, env) != eval_term(a, right, env):
            return EquationResult(False, env)
    return EquationResult(True, None)


# ----- truncation ---------------------------------------------------------

# The multiples of u/2 in [-4u, 9u/2], scaled by 2/u to integers, and Top
# (None); _grid_failures proves that this grid decides both laws.
_GRID = tuple(range(-8, 10)) + (None,)
_GRID_UNIT = 2


def _clamp(x, top):
    """Gamma on one exact number: x clamped into [0, top]; None (Top)
    goes to top. gamma calls it on Fractions, the checks on integers."""
    if x is None:
        return top
    return min(max(x, 0), top)


def gamma(f: TropicalUSemifield, a) -> Fraction:
    """Clamp a min-plus value into [0, u]; Top goes to u."""
    return Fraction(_clamp(trop(a).value, f.u))


def _sum_breaks(a, b, top) -> bool:
    """Whether gamma(a + b) != min(gamma a + gamma b, top) at unit top;
    None is Top, which absorbs the sum."""
    total = None if a is None or b is None else a + b
    return _clamp(total, top) != min(_clamp(a, top) + _clamp(b, top), top)


def _grid_failures() -> int:
    """The grid pairs at which a truncation law fails: the meet law on the
    whole grid, the truncated-sum law on its nonnegative part and Top. Zero
    proves both laws on their whole domains, for every unit u.

    _clamp is called once per distinct argument, the grid and the sums of
    its nonnegative part, and the laws read that table. The table is
    rebuilt on every call and never cached, so the grid decides whatever
    _clamp is at the time, a broken one included.

    Scaling by 2/u > 0 commutes with min, max and +, so the laws at unit u
    on multiples of u/2 are the laws at unit 2 on integers. In the proof,
    Gamma is the clamp into [0, u] and the grid is the multiples of u/2 in
    the box B = [-4u, 9u/2]^2, plus Top.

    Finite arguments. Let A be the arrangement of the seven lines a = 0,
    a = u, b = 0, b = u, a = b, a + b = 0, a + b = u. On an open cell of A,
    each of a, b, min(a, b) and a + b stays inside one of the pieces
    (-inf, 0), (0, u), (u, inf), on which Gamma is affine; min(a, b) is
    one fixed argument; and Gamma a - Gamma b and Gamma a + Gamma b - u keep
    one sign, since on each product of pieces each is a constant or, up to
    sign, one of a, b, a - u, b - u, a - b, a + b - u, which vanish only
    on lines of A. So both sides of
    each law are affine on the cell, and by continuity on its closure,
    and the law holds on the closed cell as soon as it holds at three
    affinely independent points of it. The closed cells cover the plane.
    Every vertex of A is a multiple of u/2 in [-u, u]^2: the corners of
    [0, u]^2, (u/2, u/2), (u, -u) and (-u, u). A has non-parallel lines,
    so every cell has a vertex on its boundary, which lies in the interior
    of B; so the cell meets B in a convex polygon with interior. Its
    corners are vertices of A, corners of B, or points where a line of A,
    axis-parallel or of slope 1 or -1 through multiples of u/2, crosses a
    side of B, which lies on a multiple of u/2: all of them grid points,
    and three of them are not collinear. For the sum law, a = 0 and b = 0
    are lines of A, so the quadrant a, b >= 0 is a union of closed cells,
    and the corners found for those cells are nonnegative grid points.

    Top. Both laws are symmetric in a and b, and the pair (Top, Top) is on
    the grid. With a = Top and b finite, the meet law reads
    Gamma b <= Gamma(Top); as Gamma's finite values lie in [0, u] and
    Gamma u = u, it holds for every b iff it holds at b = u. The sum law
    reads Gamma(Top) = min(Gamma(Top) + Gamma b, u) for every b >= 0: at
    b = 0 it forces Gamma(Top) <= u, at b = u it forces Gamma(Top) = u,
    and Gamma(Top) = u satisfies it for every b. Both are grid pairs.

    This is the vertex method for identities between McNaughton functions
    (Mundici, Advanced Lukasiewicz calculus and MV-algebras, 2011).
    """
    top = _GRID_UNIT
    nonnegative = [x for x in _GRID if x is None or x >= 0]
    finite = [x for x in nonnegative if x is not None]
    clamp = {x: _clamp(x, top)
             for x in {*_GRID, *(a + b for a in finite for b in finite)}}
    meet = sum(clamp[b if a is None else a if b is None else min(a, b)]
               != min(clamp[a], clamp[b]) for a in _GRID for b in _GRID)
    total = sum(clamp[None if a is None or b is None else a + b]
                != min(clamp[a] + clamp[b], top)
                for a in nonnegative for b in nonnegative)
    return meet + total


def _sampled_failures(samples: int, draw_meet, draw_sum,
                      top: int) -> Tuple[int, int]:
    """Meet and truncated-sum failures over the samples, at the scaled unit
    top; each sample draws a meet pair, then a sum pair, one at a time.
    None is Top, the greatest value. min(a, b) is a or b, so its clamp is
    read off theirs; each sum is clamped on its own."""
    clamp = _clamp
    meet_fails = sum_fails = 0
    for _ in range(samples):
        a, b = draw_meet(), draw_meet()
        kept, other = clamp(a, top), clamp(b, top)
        if a is None or b is not None and b < a:
            kept, other = other, kept
        meet_fails += kept != min(kept, other)
        a, b = draw_sum(), draw_sum()
        sum_fails += _sum_breaks(a, b, top)
    return meet_fails, sum_fails


def gamma_property_report(f: TropicalUSemifield, samples: int = 10000,
                          seed: int = 42, max_enum: int = MAX_ENUM) -> dict:
    """Certificate that the truncation preserves meet and truncated sum:
    decided on a grid, and spot-checked on seeded samples.

    grid_failures counts the grid pairs at which a law fails, and is zero
    exactly when both laws hold everywhere (see _grid_failures for the
    grid and the proof). The meet law is claimed with mixed signs, the sum
    law on the nonnegative values plus Top, which form a subsemiring on
    which the truncation is a homomorphism onto [0, u]. With mixed signs
    the sum law genuinely fails (a = -5u, b = 3u clamps a + b to 0 while
    the truncated sum of the clamps is u), so that region is disclosed as
    a counterexample.

    The samples draw as sample_trop does, meet pairs unrestricted and sum
    pairs nonnegative. Each draw is taken as the integer it becomes when
    scaled by DEN_LCM * q, for u = p/q, against the scaled unit
    DEN_LCM * p; a positive scale commutes with min, max and +, so each
    failure count is that of the same draws as Fractions. Raises
    ValueError for samples that are not an integer of at least 1 and
    EnumGuard for samples past max_enum, before the first draw; the draws
    are streamed.
    """
    samples = check_count(samples, "samples", 1)
    check_bound(EnumGuard, "truncation samples", samples, "max_enum",
                max_enum)
    rng = random.Random(seed)
    q = f.u.denominator
    fails = _sampled_failures(
        samples, scaled_sampler(rng, q),
        scaled_sampler(rng, q, nonnegative=True), DEN_LCM * f.u.numerator)
    mixed_breaks = _sum_breaks(-5 * _GRID_UNIT, 3 * _GRID_UNIT, _GRID_UNIT)
    return _certificate({}, f, samples, seed, fails,
                        {"mixed_sign_sum_breaks": mixed_breaks})


def _certificate(head: dict, f: TropicalUSemifield, samples: int, seed: int,
                 fails: Tuple[int, int], tail: dict) -> dict:
    """The truncation certificate of gamma_property_report and gamma_chain:
    head's keys, the unit, the samples with their meet and sum failures,
    the grid decision, tail's keys, whether Top goes to u, and the
    verdict."""
    meet_fails, sum_fails = fails
    grid_fails = _grid_failures()
    top_ok = gamma(f, TOP) == f.u
    return {**head, "u": str(f.u), "samples": samples, "seed": seed,
            "grid_failures": grid_fails,
            "meet_failures": meet_fails, "truncated_sum_failures": sum_fails,
            "sum_domain": "nonnegative", **tail, "top_to_unit": top_ok,
            "ok": grid_fails == 0 and meet_fails == 0 and sum_fails == 0
            and top_ok}


def _chain_sampler(rng: random.Random, k: int, low: int):
    """gamma_chain's draw function: None (Top) with probability 0.05, else
    rng.randint(low, 3 * k), taken as randint takes it, by getrandbits
    rejection, with rng's two methods bound once."""
    width = 3 * k - low + 1
    bits = width.bit_length()
    uniform, getrandbits = rng.random, rng.getrandbits

    def draw() -> Optional[int]:
        if uniform() < 0.05:
            return None
        i = getrandbits(bits)
        while i >= width:
            i = getrandbits(bits)
        return low + i

    return draw


def gamma_chain(k: int, samples: int = 1000, seed: int = 42,
                max_carrier: int = MAX_CARRIER):
    """Truncate the subgroup (1/k)Z of the min-plus rationals at u = 1.

    Returns the resulting (k+1)-element algebra, lukasiewicz_chain(k + 1)
    since Γ(i/k + j/k) = min(i + j, k)/k and 1 - i/k = (k - i)/k, with a
    homomorphism certificate: the grid decision of gamma_property_report
    and seeded samples. Top is sent to u, the additive neutral of the
    meet/sum reduct. As in gamma_property_report, sum checks draw from the
    nonnegative part of the subgroup while meet checks draw with mixed
    signs; each draw i/k is taken as the integer i, against the scaled
    unit k. The carrier and the sample count are checked before anything
    is built: a k or samples that is not an integer is refused with
    ValueError, a k below 1 with ChainTooShort.
    """
    k = check_count(k, "k", None)
    if k < 1:
        raise ChainTooShort("truncation needs k >= 1")
    check_bound(SizeGuard, "chain carrier", k + 1, "max_carrier", max_carrier)
    samples = check_count(samples, "samples", 1)
    f = TropicalUSemifield(Fraction(1))
    alg = lukasiewicz_chain(k + 1, max_carrier)

    rng = random.Random(seed)
    fails = _sampled_failures(
        samples, _chain_sampler(rng, k, -3 * k), _chain_sampler(rng, k, 0), k)
    return alg, _certificate({"k": k}, f, samples, seed, fails, {})
