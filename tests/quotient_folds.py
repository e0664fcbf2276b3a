"""The tensor quotient's readers as they were before they read the step
table through semiring.fold and the one walk along the representative
links.

The join table folds the step table over the members of each entry's
representative. The generating pairs hold a scalar slide for every scalar,
pair and member, repeats and equal sides included. The induced action folds
the step table over the moved members of every distinct subset among the
generating pairs and representatives, for each scalar, and names the first
generating pair a scalar splits. A list of pairs is classed by folding the
step table over their bits in the order given, and extend folds the values
at each class's representative pairs, one _combine per class. They are the
oracles of TensorProduct.join_table, tensor_product's generating pairs,
scalar_structures, class_of_pairs and the naturality lift, and
TensorProduct.extend, which must give the same tables, a subsequence of the
same pairs, the same messages, the same classes and the same arrays."""
import itertools

import numpy as np

from mvsr.errors import IllDefinedAction
from mvsr.semimodule import FiniteSemimodule
from mvsr.semiring import _combine, _members
from mvsr.tensor import _class_labels


def join_table_by_folds(t):
    """join[c][d]: class c joined with the representative of d, member by
    member."""
    cong = t.congruence
    return tuple(tuple(cong.joined(c, cong.representatives[d])
                       for d in range(t.class_count))
                 for c in range(t.class_count))


def generators_with_every_slide(m, n):
    """The tensor congruence's generating pairs: a bottom and the binary
    joins in either slot, then (a x, y) ~ (x, a y) for every scalar a,
    every x and every y."""
    def p(x, y):
        return x * n.size + y

    pairs = []
    for y in range(n.size):
        pairs.append((1 << p(m.zero, y), 0))
        pairs += [(1 << p(m.plus(x, w), y), 1 << p(x, y) | 1 << p(w, y))
                  for x, w in itertools.combinations(range(m.size), 2)]
    for x in range(m.size):
        pairs.append((1 << p(x, n.zero), 0))
        pairs += [(1 << p(x, n.plus(y, w)), 1 << p(x, y) | 1 << p(x, w))
                  for y, w in itertools.combinations(range(n.size), 2)]
    for a in range(m.scalars.size):
        for x in range(m.size):
            for y in range(n.size):
                pairs.append((1 << p(m.act(a, x), y), 1 << p(x, n.act(a, y))))
    return pairs


def scalar_structures_by_generators(t, scalars, action):
    """The quotient as a module over scalars acting on the left slot, each
    scalar checked on every generating pair of the congruence."""
    cong, n = t.congruence, t.right.size
    pairs = [divmod(i, n) for i in range(cong.width)]
    image = dict.fromkeys([w for pair in cong.generators for w in pair]
                          + list(cong.representatives))
    members = [_members(mask) for mask in image]
    rows = []
    for b, row in enumerate(action):
        moved = [row[x] * n + y for x, y in pairs]
        for mask, bits in zip(image, members):
            c = 0
            for i in bits:
                c = cong.step[c][moved[i]]
            image[mask] = c
        for u, v in cong.generators:
            if image[u] != image[v]:
                raise IllDefinedAction(
                    f"scalar {b} sends the generating pair of subsets "
                    f"({u}, {v}) to distinct classes {image[u]} and "
                    f"{image[v]}")
        rows.append(tuple(image[rep] for rep in cong.representatives))
    return FiniteSemimodule(scalars, t.class_count, join_table_by_folds(t),
                            t.zero_class, tuple(rows), _class_labels(t))


def fold_pairs(t, pairs):
    """The class of the pairs (x, y) of carrier indices: the step table
    folded over their bits in the order given."""
    step, n = t.congruence.step, t.right.size
    c = 0
    for x, y in pairs:
        c = step[c][x * n + y]
    return c


def extend_by_folds(t, values, add, zero):
    """For each class, values[..., x, y] folded under add from zero over its
    representative's pairs, one _combine per class."""
    values = np.asarray(values)
    by_pair = np.moveaxis(values, (-2, -1), (0, 1))
    out = np.empty((*values.shape[:-2], t.class_count), np.intp)
    for c in range(t.class_count):
        xs, ys = np.array(t.pairs_of(c), np.intp).reshape(-1, 2).T
        out[..., c] = _combine(add, by_pair, zero, xs, ys)
    return out
