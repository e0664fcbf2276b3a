"""The linear combinations of the matrix side written as plain Python
loops, each entry folded by semiring.fold from the scalar zero in index
order: the oracles of semiring._combine's callers in mvsr.matrix,
mvsr.projective and mvsr.grothendieck."""


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
