"""The small structures the tests draw their cases from, each family named
once: the (vee, odot) reducts of the Lukasiewicz chains and of c2 x c2, the
MV-algebras of the law sweeps with both their reducts, the two-element
field and Z/3, the named lawless tables, the lattice modules, the tensor
pairs of the modules over B, the onto maps of change of scalars and the
seeded draws of lawless tables. Beside them stand the oracles that more
than one test file reads: the row space taken inside the whole free
module, the spans by closure, a relabelling along a bijection and the
invariant factors of an integer matrix read off its minors.

An entry is kept here when two or more test files, or two or more tests,
build it; a helper that one test alone uses stays in its file.
conftest.py serves the families that most tests take as an argument as
fixtures.
"""
import itertools
import math

from mvsr import projective
from mvsr.projective import row_space
from mvsr.config import MAX_CARRIER
from mvsr.matrix import SemiringMatrix, idempotent_matrices
from mvsr.mv import (lukasiewicz_chain, mv_product, quotient, reduct_vee_odot,
                     reduct_wedge_oplus)
from mvsr.semimodule import FiniteSemimodule, free_semimodule, generate
from mvsr.semiring import FiniteSemiring, SemiringHom, boolean_semiring
from mvsr.snf import int_determinant
from mvsr.tensor import enumerate_modules


# ----- scalars ---------------------------------------------------------------

def chain(k):
    """The (vee, odot) reduct of the k-element Lukasiewicz chain."""
    return reduct_vee_odot(lukasiewicz_chain(k))


def c2xc2():
    """The MV-algebra c2 x c2, the four-element Boolean algebra."""
    return mv_product(lukasiewicz_chain(2), lukasiewicz_chain(2))


def square():
    """The (vee, odot) reduct of c2 x c2."""
    return reduct_vee_odot(c2xc2())


def law_algebras():
    """The MV-algebras the law sweeps draw from, the chains of two to five
    elements, then c2 x c2 and c2 x c3, and the semirings, the (vee, odot)
    and the (wedge, oplus) reduct of each in that order: two fresh lists."""
    chains = [lukasiewicz_chain(k) for k in range(2, 6)]
    algebras = chains + [mv_product(chains[0], chains[0]),
                         mv_product(chains[0], chains[1])]
    return algebras, [r(a) for a in algebras
                      for r in (reduct_vee_odot, reduct_wedge_oplus)]


def two_element_field():
    """Z/2: it keeps the semiring laws, but 1 + 1 = 0, so its addition is
    not idempotent and no canonical form applies."""
    return FiniteSemiring(2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)


def z3():
    """Z/3, a lawful semiring whose addition is not idempotent."""
    return FiniteSemiring(3, tuple(tuple((a + b) % 3 for b in range(3))
                                   for a in range(3)),
                          tuple(tuple(a * b % 3 for b in range(3))
                                for a in range(3)), 0, 1)


def lawless_semiring():
    """The three-element table the CLI refuses for want of a trivial
    class: zero is no additive identity, and neither addition nor product
    commutes."""
    return FiniteSemiring(3, ((0, 2, 2), (1, 1, 0), (0, 2, 0)),
                          ((0, 0, 0), (2, 2, 2), (1, 2, 2)), 1, 2)


# ----- modules ---------------------------------------------------------------

# The join of the diamond, the four-point lattice 0 < p, q < t.
DIAMOND = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))


def lawless_modules():
    """Two tables over B that break the module laws: x + x = 0 with
    1 + 1 = 1 on two elements (xor), and the three-chain with 2 + 1 = 0,
    whose order, and so whose canonical form, is the chain's."""
    boolean = boolean_semiring()
    return [FiniteSemimodule(boolean, 2, ((0, 1), (1, 0)), 0,
                             ((0, 0), (0, 1))),
            FiniteSemimodule(boolean, 3, ((0, 1, 2), (1, 1, 2), (2, 0, 2)),
                             0, ((0, 0, 0), (0, 1, 2)))]


def lattice_module(s, below):
    """The lattice over s whose element x lies above those in below[x],
    bottom 0, with scalar 0 acting as zero and scalar 1 as the identity:
    every join is a least upper bound."""
    n = len(below)
    down = [{x} for x in range(n)]
    for x in range(n):
        for y in below[x]:
            down[x] |= down[y]
    join = [[min((z for z in range(n) if down[x] | down[y] <= down[z]),
                 key=lambda z: len(down[z])) for y in range(n)]
            for x in range(n)]
    return FiniteSemimodule(s, n, join, 0, ((0,) * n, tuple(range(n))))


def row_spaces(s):
    """The row space of every idempotent matrix over s of size 1 and 2:
    the modules k0 classes."""
    return [row_space(u) for n in (1, 2) for u in idempotent_matrices(s, n)]


def tensor_pairs():
    """The 88 ordered pairs of modules over B of at most four elements
    whose tensor has at most 12 pairs."""
    modules = enumerate_modules(boolean_semiring(), 4)
    return [(m, n) for m in modules for n in modules
            if m.size * n.size <= 12]


# ----- maps ------------------------------------------------------------------

def onto_maps():
    """The first projection of c2 x c2 onto c2, the second, and the two
    projections of c2 x c3; product elements (x, y) sit at
    x * |second| + y."""
    c2, c3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
    square = reduct_vee_odot(mv_product(c2, c2))
    wide = reduct_vee_odot(mv_product(c2, c3))
    boolean, chain3 = reduct_vee_odot(c2), reduct_vee_odot(c3)
    return (SemiringHom(square, boolean, (0, 0, 1, 1)),
            SemiringHom(square, boolean, (0, 1, 0, 1)),
            SemiringHom(wide, chain3, (0, 1, 2, 0, 1, 2)),
            SemiringHom(wide, boolean, (0, 0, 0, 1, 1, 1)))


def scalar_maps():
    """The five onto maps of the change-of-scalars benchmark: the four of
    onto_maps and the quotient of c2 x c2 by the ideal {0, (0, 1)}."""
    toward = quotient(c2xc2(), (0, 1))
    return onto_maps() + (SemiringHom(square(),
                                      reduct_vee_odot(toward.algebra),
                                      toward.hom.mapping),)


# ----- seeded draws ----------------------------------------------------------

def drawn_table(rng, rows, cols, bound):
    """A rows x cols table of entries drawn below bound, row by row."""
    return tuple(tuple(rng.randrange(bound) for _ in range(cols))
                 for _ in range(rows))


def drawn_semiring(rng, k):
    """A k-element table with drawn sums, products, zero and one: most
    break the semiring laws."""
    return FiniteSemiring(k, drawn_table(rng, k, k, k),
                          drawn_table(rng, k, k, k), rng.randrange(k),
                          rng.randrange(k))


def drawn_module(rng, s, max_size):
    """A module over s of one to max_size elements with drawn addition,
    zero and action rows: most break some module law."""
    size = rng.randint(1, max_size)
    return FiniteSemimodule(s, size, drawn_table(rng, size, size, size),
                            rng.randrange(size),
                            drawn_table(rng, s.size, size, size))


# ----- oracles shared by the test files --------------------------------------

def row_space_in_the_free_module(u, max_carrier=MAX_CARRIER):
    """The whole free module on u.cols points, then the span of the rows."""
    free = free_semimodule(u.scalars, [str(j) for j in range(u.cols)],
                           max_carrier)
    return generate(free, [free.index(row) for row in u.entries])


def spans_by_closure(s, us, max_carrier=MAX_CARRIER):
    """The closure's members for each matrix of the stack us, in the
    signature of projective._row_spans."""
    _, rows, cols = us.shape
    return [projective._row_span(SemiringMatrix(s, rows, cols, u),
                                 max_carrier) for u in us.tolist()]


def relabelled(x, perm):
    """x, a semiring or a module, carried along the bijection
    a -> perm[a]."""
    inv = [0] * x.size
    for a, p in enumerate(perm):
        inv[p] = a

    def carried(table):
        return tuple(tuple(perm[table[inv[p]][inv[q]]] for q in range(x.size))
                     for p in range(x.size))
    if isinstance(x, FiniteSemimodule):
        action = tuple(tuple(perm[row[inv[p]]] for p in range(x.size))
                       for row in x.action)
        return FiniteSemimodule(x.scalars, x.size, carried(x.add),
                                perm[x.zero], action)
    return FiniteSemiring(x.size, carried(x.add), carried(x.mul),
                          perm[x.zero], perm[x.one])


def _minors_gcd(rows, k):
    """gcd of all k-by-k minors, the classical invariant."""
    r, c = len(rows), len(rows[0])
    g = 0
    for ri in itertools.combinations(range(r), k):
        for ci in itertools.combinations(range(c), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = math.gcd(g, abs(int_determinant(sub)))
    return g


def diagonal_by_minors(rows):
    """Invariant factors d_k = g_k / g_{k-1} straight from minor gcds."""
    r, c = len(rows), len(rows[0])
    out = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = _minors_gcd(rows, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    out.extend([0] * (min(r, c) - len(out)))
    return tuple(out)
