"""The ideals and subsemimodules as they were found before semiring's
closed-set sweep: by testing or closing every one of the 2^n subsets.
They are the oracles of mv.ideals and projective.all_subsemimodules,
which must give the same member sets in the same order."""
import itertools

from mvsr.mv import is_ideal
from mvsr.semimodule import _span


def ideals_by_scan(a):
    """Every nonempty subset that is_ideal accepts, by size then members."""
    found = []
    for mask in range(2 ** a.size):
        subset = [x for x in range(a.size) if mask >> x & 1]
        if subset and is_ideal(a, subset):
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
