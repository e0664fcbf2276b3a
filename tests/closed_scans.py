"""The closed sets as they were found before semiring's closed-set sweep
grew each join from the member it adds.

The ideals and subsemimodules by testing or closing every one of the 2^n
subsets are the oracles of mv.ideals and projective.all_subsemimodules,
which must give the same member sets in the same order. The ideals are
tested by is_ideal's loop as it was before it read the sweep's closure,
so the oracle shares no code with the sweep; it is also the oracle of
is_ideal. The sweep that closes every join from scratch, with a closure
that applies implications until nothing changes, is the oracle of
semiring._closed_sets and of the tensor congruence, which must give the
same closed sets in the same order and the same step table."""
import itertools

from mvsr.semimodule import _span
from mvsr.semiring import _members


def closed_sets_from_scratch(width, close):
    """The fixed points of the closure operator close on the subsets of
    range(width), as bitmasks in the order found, with the step table:
    the closure of the empty set, then each closed set joined once with
    every singleton, each join that adds something closed from scratch."""
    closed = [close(0)]
    index = {closed[0]: 0}
    step = []
    while len(step) < len(closed):
        c = closed[len(step)]
        row = []
        for i in range(width):
            joined = c | 1 << i
            if joined != c:
                joined = close(joined)
            k = index.get(joined)
            if k is None:
                k = index[joined] = len(closed)
                closed.append(joined)
            row.append(k)
        step.append(row)
    return closed, step


def implication_closure(rules):
    """close for closed_sets_from_scratch: every rule (u, v) whose premise
    u the mask holds adds v, over and over until nothing changes."""
    def close(mask):
        while True:
            grown = mask
            for u, v in rules:
                if grown & u == u:
                    grown |= v
            if grown == mask:
                return mask
            mask = grown
    return close


def step_in_congruence_order(congruence, step):
    """The step table of closed_sets_from_scratch with its classes
    renumbered as the congruence numbers them: each class of the
    congruence is sent to the class of its representative. Raises if the
    two do not have the same number of classes, one to one."""
    def oracle_class(mask):
        k = 0
        for i in _members(mask):
            k = step[k][i]
        return k
    to_oracle = [oracle_class(r) for r in congruence.representatives]
    if sorted(to_oracle) != list(range(len(step))):
        raise AssertionError(f"{len(congruence)} classes, not one to one "
                             f"with {len(step)} closed sets")
    back = {k: c for c, k in enumerate(to_oracle)}
    return tuple(tuple(back[k] for k in step[to_oracle[c]])
                 for c in range(len(step)))


def is_ideal_by_loop(a, subset):
    """Whether subset holds zero and is closed under the sum and downward,
    every pair of members and every member's down-set read in a loop."""
    members = set(subset)
    if a.zero not in members:
        return False
    for x in members:
        for y in members:
            if a.oplus[x][y] not in members:
                return False
        for y in range(a.size):
            if a.leq(y, x) and y not in members:
                return False
    return True


def ideals_by_scan(a):
    """Every nonempty subset that is_ideal_by_loop accepts, by size then
    members."""
    found = []
    for mask in range(2 ** a.size):
        subset = [x for x in range(a.size) if mask >> x & 1]
        if subset and is_ideal_by_loop(a, subset):
            found.append(tuple(subset))
    found.sort(key=lambda t: (len(t), t))
    return tuple(found)


def subsemimodules_by_scan(m):
    """The span of every subset, each once, by size then members."""
    found = set()
    for r in range(m.size + 1):
        for subset in itertools.combinations(range(m.size), r):
            found.add(tuple(sorted(_span(m, subset))))
    return tuple(sorted(found, key=lambda t: (len(t), t)))
