"""The linear combinations of the matrix side written as plain Python
loops, each entry folded by semiring.fold from the scalar zero in index
order: the oracles of semiring._combine's callers in mvsr.matrix,
mvsr.projective and mvsr.grothendieck. Also the hom-set by generate and
test, the oracle of the level search behind semimodule.hom_set, with the
hom laws of a batch of maps as one mask, _hom_mask."""
import numpy as np

from mvsr.config import MAX_ENUM
from mvsr.errors import EnumGuard, ScalarMismatch, check_bound
from mvsr.semimodule import (_assignments, _derivation,
                             minimal_generating_set)
from mvsr.semiring import _additivity_mask, same_scalars


def product_by_loop(a, b):
    """The entries of a * b, row by column."""
    s = a.scalars
    return tuple(tuple(s.sum(s.mul[a.entries[i][k]][b.entries[k][j]]
                             for k in range(a.cols))
                       for j in range(b.cols))
                 for i in range(a.rows))


def is_idempotent_by_loop(u):
    return product_by_loop(u, u) == u.entries


def block_diag_by_loop(u, v):
    """The entries of u in the top-left corner and v shifted to the
    bottom-right, zero elsewhere."""
    s = u.scalars
    rows, cols = u.rows + v.rows, u.cols + v.cols
    ent = [[s.zero] * cols for _ in range(rows)]
    for i in range(u.rows):
        for j in range(u.cols):
            ent[i][j] = u.entries[i][j]
    for i in range(v.rows):
        for j in range(v.cols):
            ent[u.rows + i][u.cols + j] = v.entries[i][j]
    return tuple(map(tuple, ent))


def hom_from_matrix_by_loop(k, source, target):
    """The mapping of f -> sum over x of f(x) * row x of k, vector by
    vector."""
    s = source.scalars
    mapping = []
    for i in range(source.size):
        v = source.vector(i)
        w = tuple(s.sum(s.mul[v[x]][k.entries[x][y]] for x in range(k.rows))
                  for y in range(k.cols))
        mapping.append(target.index(w))
    return tuple(mapping)


def cover_by_loop(m, gens, free):
    """The mapping of the free cover of m on gens: each coefficient vector
    of free to its combination of the generators."""
    return tuple(m.sum(m.act(c, g) for c, g in zip(free.vector(i), gens))
                 for i in range(free.size))


def _hom_mask(m, n, img):
    """For each row of img, a (k, |m|) array of maps m -> n, whether it is
    a hom: it keeps zero, addition at every (x, y) and the action at every
    (a, x)."""
    k = len(img)
    scalars = np.arange(m.scalars.size)[:, None]
    zero = img[:, m.zero] != n.zero
    add = _additivity_mask(img, m.np_add, n.np_add)
    act = img[:, m.np_action] != n.np_action[scalars, img[:, None, :]]
    return ~(zero | add.reshape(k, -1).any(axis=1)
             | act.reshape(k, -1).any(axis=1))


def hom_rows_by_product(m, n, max_enum=MAX_ENUM):
    """Every hom m -> n as rows of (k, |m|) arrays, lazily, ordered
    lexicographically by generator images: every assignment of images to
    the minimal generators, a chunk of assignments at a time, extended
    along the derivation of each element and masked by the hom laws in
    one array sweep."""
    if not same_scalars(m.scalars, n.scalars):
        raise ScalarMismatch("hom set needs a common scalar semiring")
    gens = minimal_generating_set(m)
    order, deriv = _derivation(m.add, m.zero, m.action, gens)
    check_bound(EnumGuard, "hom-set candidate assignments",
                n.size ** len(gens), "max_enum", max_enum)
    n_add, n_act = n.np_add, n.np_action
    for assign in _assignments(n.size, len(gens),
                               m.size * (m.size + m.scalars.size)):
        img = np.empty((len(assign), m.size), dtype=np.intp)
        for x in order:
            kind, *args = deriv[x]
            if kind == "zero":
                img[:, x] = n.zero
            elif kind == "gen":
                img[:, x] = assign[:, args[0]]
            elif kind == "add":
                img[:, x] = n_add[img[:, args[0]], img[:, args[1]]]
            else:
                img[:, x] = n_act[args[0], img[:, args[1]]]
        yield img[_hom_mask(m, n, img)]
