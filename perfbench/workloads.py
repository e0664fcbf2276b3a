"""Workload inputs, job lists and the label-invariant answer of every job.

Every input is built here from literal tables, in the JSON schema of
``mvsr.jsonio``, and never by calling the package: set-up runs no package
kernel, so work that a change moves into import time or into a cache shows
in ``setup_s`` and not as a faster job. Each pass relabels every carrier,
zero included, with a permutation drawn from the pass's random generator,
so the program sees isomorphic but differently labelled tables on every
pass. Small inputs have few labelled tables (c2 x c2 has twelve, and k0
runs all of them on every pass), so a cache keyed on the tables can still
carry work from one pass to the next; the timed metrics count a cache's
fill once per run, as a session would. Every expected answer (a class
count, a K0 rank and torsion, a hom or idempotent count, a verdict, an
exit code) is invariant under relabelling and is recorded in
``expected.json``.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("tensor-up", "k0", "scalars", "cli")


@dataclass
class Job:
    """One closed-loop request: a CLI invocation or library calls in turn.

    ``key`` names the template the job was made from; the expected answer
    is looked up under it. A library call is resolved by module and function
    name when it runs, so traced wrappers are used when they are installed.
    """

    key: str
    family: str
    argv: Optional[List[str]] = None
    calls: Optional[List[Tuple[str, str, tuple, dict]]] = None


# ----- literal tables ---------------------------------------------------------

def _chain_mv(k: int) -> dict:
    top = k - 1
    return {"kind": "mv", "size": k,
            "oplus": [[min(i + j, top) for j in range(k)] for i in range(k)],
            "star": [top - i for i in range(k)], "zero": 0,
            "labels": [str(Fraction(i, top)) for i in range(k)]}


def _product_mv(a: dict, b: dict) -> dict:
    na, nb = a["size"], b["size"]
    pairs = [(x, y) for x in range(na) for y in range(nb)]

    def idx(x, y):
        return x * nb + y

    return {"kind": "mv", "size": na * nb,
            "oplus": [[idx(a["oplus"][x1][x2], b["oplus"][y1][y2])
                       for (x2, y2) in pairs] for (x1, y1) in pairs],
            "star": [idx(a["star"][x], b["star"][y]) for (x, y) in pairs],
            "zero": idx(a["zero"], b["zero"]),
            "labels": [f"({a['labels'][x]},{b['labels'][y]})"
                       for (x, y) in pairs]}


def _mv_derived(a: dict):
    n, oplus, star = a["size"], a["oplus"], a["star"]
    times = [[star[oplus[star[x]][star[y]]] for y in range(n)]
             for x in range(n)]
    vee = [[oplus[times[x][star[y]]][y] for y in range(n)] for x in range(n)]
    wedge = [[star[vee[star[x]][star[y]]] for y in range(n)]
             for x in range(n)]
    return times, vee, wedge


def _vee_odot(a: dict) -> dict:
    times, vee, _ = _mv_derived(a)
    return {"kind": "semiring", "size": a["size"], "add": vee, "mul": times,
            "zero": a["zero"], "one": a["star"][a["zero"]],
            "labels": list(a["labels"])}


def _wedge_oplus(a: dict) -> dict:
    _, _, wedge = _mv_derived(a)
    return {"kind": "semiring", "size": a["size"], "add": wedge,
            "mul": [list(r) for r in a["oplus"]],
            "zero": a["star"][a["zero"]], "one": a["zero"],
            "labels": list(a["labels"])}


def _module_over_self(s: dict) -> dict:
    return {"kind": "semimodule", "scalars": s, "size": s["size"],
            "add": s["add"], "zero": s["zero"], "action": s["mul"]}


def _free_module(s: dict, points: int) -> dict:
    n = s["size"]
    vecs = [()]
    for _ in range(points):
        vecs = [v + (c,) for v in vecs for c in range(n)]
    index = {v: i for i, v in enumerate(vecs)}
    return {"kind": "semimodule", "scalars": s, "size": len(vecs),
            "add": [[index[tuple(s["add"][a][b] for a, b in zip(u, v))]
                     for v in vecs] for u in vecs],
            "zero": index[(s["zero"],) * points],
            "action": [[index[tuple(s["mul"][a][c] for c in v)]
                        for v in vecs] for a in range(n)]}


def _submodule(m: dict, members: Sequence[int]) -> dict:
    """The given member set, which must already be closed, on its own
    indices in member order."""
    pos = {x: i for i, x in enumerate(members)}
    return {"kind": "semimodule", "scalars": m["scalars"],
            "size": len(members),
            "add": [[pos[m["add"][x][y]] for y in members] for x in members],
            "zero": pos[m["zero"]],
            "action": [[pos[row[x]] for x in members]
                       for row in m["action"]]}


def _lattice_module(s: dict, join: List[List[int]]) -> dict:
    """A finite lattice with bottom 0 as a module over the Boolean semiring:
    the scalar zero sends everything to bottom, the scalar one fixes it."""
    n = len(join)
    action = [None, None]
    action[s["zero"]] = [0] * n
    action[s["one"]] = list(range(n))
    return {"kind": "semimodule", "scalars": s, "size": n, "add": join,
            "zero": 0, "action": action}


# The eleven lattice classes of criterion 6: every lattice on at most five
# elements, one per isomorphism class, plus the six-element chain. Join
# tables with bottom 0 and top 1 (except the chains).
def _chain_join(n: int) -> List[List[int]]:
    return [[max(i, j) for j in range(n)] for i in range(n)]


LATTICES: Dict[str, List[List[int]]] = {
    "c1": _chain_join(1),
    "c2": _chain_join(2),
    "c3": [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
    "b2": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 1], [3, 1, 1, 3]],
    "c4": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 2], [3, 1, 2, 3]],
    "m3": [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1], [2, 1, 2, 1, 1],
           [3, 1, 1, 3, 1], [4, 1, 1, 1, 4]],
    "n5": [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1], [2, 1, 2, 1, 1],
           [3, 1, 1, 3, 3], [4, 1, 1, 3, 4]],
    "1+b2": [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1], [2, 1, 2, 1, 2],
             [3, 1, 1, 3, 3], [4, 1, 2, 3, 4]],
    "b2+1": [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1], [2, 1, 2, 2, 2],
             [3, 1, 2, 3, 2], [4, 1, 2, 2, 4]],
    "c5": [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1], [2, 1, 2, 2, 2],
           [3, 1, 2, 3, 3], [4, 1, 2, 3, 4]],
    "c6": _chain_join(6),
}

BOOLEAN = _vee_odot(_chain_mv(2))
CHAIN3 = _vee_odot(_chain_mv(3))


# ----- relabelling --------------------------------------------------------------

def _perm(rng: random.Random, n: int) -> List[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _move_table(t, p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return [[p[t[inv[i]][inv[j]]] for j in range(len(p))]
            for i in range(len(p))]


def _move_labels(labels, p):
    out = [None] * len(p)
    for i, v in enumerate(p):
        out[v] = labels[i]
    return out


def relabel_mv(a: dict, p: List[int]) -> dict:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return {"kind": "mv", "size": a["size"],
            "oplus": _move_table(a["oplus"], p),
            "star": [p[a["star"][inv[i]]] for i in range(len(p))],
            "zero": p[a["zero"]], "labels": _move_labels(a["labels"], p)}


def relabel_semiring(s: dict, p: List[int]) -> dict:
    return {"kind": "semiring", "size": s["size"],
            "add": _move_table(s["add"], p), "mul": _move_table(s["mul"], p),
            "zero": p[s["zero"]], "one": p[s["one"]],
            "labels": _move_labels(s["labels"], p)}


def relabel_module(m: dict, scalars: dict, q: List[int],
                   p: List[int]) -> dict:
    """Move the carrier by p; ``scalars`` is m's scalar semiring already
    moved by q, shared by every module of the pass that lives over it."""
    action = [None] * len(q)
    for a, row in enumerate(m["action"]):
        moved = [0] * len(p)
        for x, v in enumerate(row):
            moved[p[x]] = p[v]
        action[q[a]] = moved
    return {"kind": "semimodule", "scalars": scalars, "size": m["size"],
            "add": _move_table(m["add"], p), "zero": p[m["zero"]],
            "action": action}


class _Relabeller:
    """One pass's relabelling: one permutation per scalar semiring, shared
    by all modules over it so that their scalars stay identical."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._scalars: Dict[str, Tuple[dict, List[int]]] = {}

    def scalars(self, name: str, s: dict) -> Tuple[dict, List[int]]:
        if name not in self._scalars:
            q = _perm(self.rng, s["size"])
            self._scalars[name] = (relabel_semiring(s, q), q)
        return self._scalars[name]

    def module(self, m: dict, scalar_name: str) -> dict:
        s, q = self.scalars(scalar_name, m["scalars"])
        return relabel_module(m, s, q, _perm(self.rng, m["size"]))

    def mv(self, a: dict) -> dict:
        return relabel_mv(a, _perm(self.rng, a["size"]))

    def semiring(self, s: dict) -> dict:
        return relabel_semiring(s, _perm(self.rng, s["size"]))


def _write(directory: str, name: str, payload) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload if isinstance(payload, str) else json.dumps(payload))
    return path


# ----- tensor-up -----------------------------------------------------------------

TENSOR_PAIRS = [(a, b) for a in LATTICES for b in LATTICES
                if len(LATTICES[a]) * len(LATTICES[b]) <= 10]


def _tensor_up(rng: random.Random, directory: str) -> List[Job]:
    rel = _Relabeller(rng)
    files = {name: _write(directory, f"{name}.json",
                          rel.module(_lattice_module(BOOLEAN, join), "B"))
             for name, join in LATTICES.items()}
    jobs = [Job(f"{a}*{b}", "tensor",
                argv=["tensor", "--left", files[a], "--right", files[b]])
            for a, b in TENSOR_PAIRS]
    rng.shuffle(jobs)
    return jobs


# ----- k0 -------------------------------------------------------------------------

K0_ALGEBRAS = {f"c{k}": _chain_mv(k) for k in range(2, 8)}
K0_ALGEBRAS["c2xc2"] = _product_mv(_chain_mv(2), _chain_mv(2))


# c2 x c2 has only twelve labelled tables: an automorphism swaps its atoms,
# so a table is fixed by where zero and top land. Its cost depends on the
# table (from 0.14 s to about 2.7 s on one machine), so every pass runs all
# twelve, the atoms placed at random, and the c2 x c2 work of a pass does
# not depend on the seed.
# The chains run relabelled at random, the three cheapest several times per
# pass, so that the median of a run's job times falls among the copies of
# c4 and its 90th percentile on the two c2 x c2 tables that cost about
# 0.73 s, each inside a group of like jobs and away from the wide gaps
# between c6, the costliest c2 x c2 table and c7. With 44 jobs a pass, the
# 90th percentile sits halfway between the 5th and 4th costliest jobs,
# which are those two tables, and the median at the 10th of 17 copies of c4.
K0_PRODUCT = "c2xc2"
K0_COPIES = {"c2": 6, "c3": 6, "c4": 17}


def _product_placements(rng: random.Random) -> List[List[int]]:
    """One permutation per (zero, top) placement of c2 x c2, whose zero is
    element 0, whose top is element 3 and whose atoms are 1 and 2."""
    out = []
    for zero in range(4):
        for top in range(4):
            if zero != top:
                atoms = [x for x in range(4) if x not in (zero, top)]
                rng.shuffle(atoms)
                out.append([zero, atoms[0], atoms[1], top])
    return out


def _distinct_perms(rng: random.Random, n: int,
                    count: int) -> List[List[int]]:
    """``count`` labellings of an n-element carrier, none repeated before
    all n! have been used. A repeated table hits the package's table-keyed
    cache of idempotent matrices, so the number of repeats in a pass must
    not depend on the seed."""
    every = [list(p) for p in itertools.permutations(range(n))]
    rng.shuffle(every)
    return [every[c % len(every)] for c in range(count)]


def _k0(rng: random.Random, directory: str) -> List[Job]:
    jobs = []
    for name, alg in K0_ALGEBRAS.items():
        if name == K0_PRODUCT:
            perms = _product_placements(rng)
        else:
            perms = _distinct_perms(rng, alg["size"],
                                    K0_COPIES.get(name, 1))
        for c, p in enumerate(perms):
            path = _write(directory, f"{name}.{c}.json", relabel_mv(alg, p))
            jobs.append(Job(name, "k0", argv=["k0", "--input", path,
                                              "--nmax", "2"]))
    rng.shuffle(jobs)
    return jobs


# ----- scalars --------------------------------------------------------------------

def _square(n1: int, n2: int) -> dict:
    return _vee_odot(_product_mv(_chain_mv(n1), _chain_mv(n2)))


# Onto scalar maps as (source, target, mapping). Product elements (x, y) sit
# at x * |second| + y. The criterion-7 quotient of c2 x c2 by the ideal
# {(0,0), (0,1)} is the first projection onto the quotient algebra, whose
# labels differ from the plain Boolean semiring's.
_QUOTIENT = dict(BOOLEAN, labels=["[(0,0)]", "[(1,0)]"])
ONTO_MAPS = {
    "c2xc2->c2:first": (_square(2, 2), BOOLEAN, (0, 0, 1, 1)),
    "c2xc2->c2:second": (_square(2, 2), BOOLEAN, (0, 1, 0, 1)),
    "c2xc2->quotient": (_square(2, 2), _QUOTIENT, (0, 0, 1, 1)),
    "c2xc3->c3": (_square(2, 3), CHAIN3, (0, 1, 2, 0, 1, 2)),
    "c2xc3->c2": (_square(2, 3), BOOLEAN, (0, 0, 0, 1, 1, 1)),
}
# Relabelled copies per pass. Job times fall into groups far apart (zeta
# and truncation_demo 1-100 ms, the c2 x c2 maps and c2xc3->c2 0.1-0.15 s,
# c2xc3->c3 4-7 s on one machine). The copies put the median of a run's job
# times inside the middle group and its 90th percentile inside c2xc3->c3,
# which dominates wall_ref, not between two groups: a pass has 2 small, 14
# middle and 2 large jobs, and over a run of two passes the median falls
# between the 14th and 15th of 28 middle jobs and the 90th percentile
# between the 1st and 2nd of 4 large ones.
ONTO_COPIES = {"c2xc2->c2:first": 4, "c2xc2->c2:second": 4,
               "c2xc2->quotient": 4, "c2xc3->c3": 2, "c2xc3->c2": 2}
ZETA_TRIPLES = (("self", "self", "self"), ("free2", "self", "self"),
                ("self", "free2", "free2"))


def _semiring_obj(d: dict):
    from mvsr.semiring import FiniteSemiring
    return FiniteSemiring(d["size"], d["add"], d["mul"], d["zero"], d["one"],
                          d.get("labels"))


def _module_obj(d: dict, scalars):
    from mvsr.semimodule import FiniteSemimodule
    return FiniteSemimodule(scalars, d["size"], d["add"], d["zero"],
                            d["action"])


def _scalars(rng: random.Random, directory: str) -> List[Job]:
    from mvsr.semiring import SemiringHom
    jobs = []
    for name, (source, target, mapping) in ONTO_MAPS.items():
        for _ in range(ONTO_COPIES[name]):
            p, q = _perm(rng, source["size"]), _perm(rng, target["size"])
            moved = [0] * len(p)
            for a, v in enumerate(mapping):
                moved[p[a]] = q[v]
            h = SemiringHom(_semiring_obj(relabel_semiring(source, p)),
                            _semiring_obj(relabel_semiring(target, q)),
                            tuple(moved))
            jobs.append(Job(name, "embedding",
                            calls=[("tensor", "full_embedding_check", (h,),
                                    {"size_bound": 4})]))
    rel = _Relabeller(rng)
    b, _ = rel.scalars("B", BOOLEAN)
    b_obj = _semiring_obj(b)
    mods = {"self": _module_obj(rel.module(_module_over_self(BOOLEAN), "B"),
                                b_obj),
            "free2": _module_obj(rel.module(_free_module(BOOLEAN, 2), "B"),
                                 b_obj)}
    # One job checks zeta on every triple in both variants: six calls of a
    # few ms, which as jobs of their own would fill the low end of the
    # pass and push its median to the edge of the middle group.
    jobs.append(Job("zeta:criterion-7", "zeta", calls=[
        ("tensor", "zeta_isomorphism",
         tuple(mods[t] for t in triple) + (variant,), {})
        for triple in ZETA_TRIPLES for variant in ("plain", "primed")]))
    jobs.append(Job("truncation_demo:1,2", "truncation",
                    calls=[("tensor", "truncation_demo", (1, 2), {})]))
    rng.shuffle(jobs)
    return jobs


# ----- cli ---------------------------------------------------------------------

CLI_MV = {f"c{k}": _chain_mv(k) for k in range(2, 7)}
CLI_MV["c2xc2"] = _product_mv(_chain_mv(2), _chain_mv(2))
CLI_SEMIRINGS = {"B": BOOLEAN, "C3": CHAIN3,
                 "C4": _vee_odot(_chain_mv(4)),
                 "W3": _wedge_oplus(_chain_mv(3))}
# Modules of at most nine elements over the Boolean semiring (B) and over
# the join-product reduct of the 3-chain (C3). C3half is the submodule of
# C3 over itself generated by the middle element, on which it acts as zero.
CLI_MODULES = {
    "Bself": ("B", _module_over_self(BOOLEAN)),
    "Bfree2": ("B", _free_module(BOOLEAN, 2)),
    "Bfree3": ("B", _free_module(BOOLEAN, 3)),
    "Lc3": ("B", _lattice_module(BOOLEAN, LATTICES["c3"])),
    "Ln5": ("B", _lattice_module(BOOLEAN, LATTICES["n5"])),
    "Lm3": ("B", _lattice_module(BOOLEAN, LATTICES["m3"])),
    "C3self": ("C3", _module_over_self(CHAIN3)),
    "C3free2": ("C3", _free_module(CHAIN3, 2)),
    "C3half": ("C3", _submodule(_module_over_self(CHAIN3), [0, 1])),
}
# Law violations that still parse: a multiplication without a unit, and an
# involution that fixes both elements, so that top does not absorb.
BAD_SEMIRING = dict(BOOLEAN, mul=[[0, 0], [0, 0]], one=1)
BAD_MV = dict(_chain_mv(2), star=[0, 1])

# Templates: (key, argv with {input names}, copies per pass). Names in
# braces are replaced by a file path; CLI_MV, CLI_SEMIRINGS and CLI_MODULES
# name relabelled inputs, the rest are fixed files.
COPIES = 4
ERROR_COPIES = 2


def _cli_templates() -> List[Tuple[str, List[str], int]]:
    t = []
    for name in list(CLI_MV) + list(CLI_SEMIRINGS) + list(CLI_MODULES):
        t.append((f"verify:{name}", ["verify", "--input", "{%s}" % name],
                  COPIES))
    t.append(("verify:bad-semiring", ["verify", "--input", "{bad-semiring}"],
              ERROR_COPIES))
    t.append(("verify:bad-mv", ["verify", "--input", "{bad-mv}"],
              ERROR_COPIES))
    for k in range(2, 7):
        t.append((f"chain:{k}", ["chain", str(k)], COPIES))
    for name in ("c3", "c4", "c5", "c6"):
        for variant in ("vee-odot", "wedge-oplus"):
            t.append((f"reduct:{variant}:{name}",
                      ["reduct", variant, "--input", "{%s}" % name], COPIES))
    for name, n in (("B", 1), ("B", 2), ("B", 3), ("C3", 1), ("C3", 2),
                    ("C4", 2), ("W3", 2)):
        t.append((f"idempotents:{name}:{n}",
                  ["idempotents", "--input", "{%s}" % name, "--n", str(n)],
                  COPIES))
    for name in ("Bself", "Bfree2", "Lc3", "Ln5", "C3self", "C3half",
                 "C3free2"):
        t.append((f"projective:{name}", ["projective", "--input",
                                         "{%s}" % name], COPIES))
    for name, n in (("c2", 1), ("c3", 1), ("c4", 1), ("c2", 2), ("c3", 2)):
        t.append((f"k0:{name}:{n}", ["k0", "--input", "{%s}" % name,
                                     "--nmax", str(n)], COPIES))
    # Bfree2 with Bself, both ways round, are eight like jobs at the 90th
    # percentile of a pass's job times, which would otherwise fall in the
    # gap between the tensor and projective templates around it.
    for left, right in (("Bself", "Bself"), ("Bself", "Lc3"),
                        ("Lc3", "Bself"), ("Bfree2", "Bself"),
                        ("Bself", "Bfree2")):
        t.append((f"tensor:{left}*{right}",
                  ["tensor", "--left", "{%s}" % left,
                   "--right", "{%s}" % right], COPIES))
    for u in ("1", "1/2", "3"):
        t.append((f"gamma:{u}", ["gamma", "--u", u, "--samples", "300",
                                 "--seed", "{gamma-seed}"], COPIES))
    for left, right in (("Bfree2", "Bself"), ("Bself", "Bfree2"),
                        ("Bfree2", "Bfree2"), ("Lc3", "Bfree2"),
                        ("Ln5", "Lm3"), ("C3self", "C3free2"),
                        ("C3free2", "C3self"), ("C3half", "C3self")):
        t.append((f"homset:{left}->{right}",
                  ["homset", "--left", "{%s}" % left,
                   "--right", "{%s}" % right], COPIES))
    # Malformed input (exit 1) and guard trips (exit 3).
    for key, argv in (
            ("malformed:truncated-json", ["verify", "--input", "{broken}"]),
            ("malformed:unknown-kind", ["verify", "--input", "{alien}"]),
            ("malformed:projective-on-mv", ["projective", "--input", "{c3}"]),
            ("malformed:tensor-on-mv", ["tensor", "--left", "{c3}",
                                        "--right", "{Bself}"]),
            ("malformed:k0-on-module", ["k0", "--input", "{Bself}"]),
            ("malformed:reduct-on-semiring", ["reduct", "vee-odot",
                                              "--input", "{C3}"]),
            ("guard:idempotents-n5", ["idempotents", "--input", "{B}",
                                      "--n", "5"]),
            ("guard:homset-max-enum", ["homset", "--left", "{Bfree3}",
                                       "--right", "{Bfree3}",
                                       "--max-enum", "10"]),
            ("guard:k0-nmax5", ["k0", "--input", "{c3}", "--nmax", "5"])):
        t.append((key, argv, ERROR_COPIES))
    return t


CLI_TEMPLATES = _cli_templates()
_FIXED_INPUTS = {"bad-semiring": BAD_SEMIRING, "bad-mv": BAD_MV,
                 "broken": '{"kind": "mv", "size": 2,\n  "oplus": [[0, 1], [1',
                 "alien": {"kind": "group", "size": 1}}


def _cli(rng: random.Random, directory: str) -> List[Job]:
    copies = []
    for c in range(COPIES):
        rel = _Relabeller(rng)
        files = {}
        for name, alg in CLI_MV.items():
            files[name] = _write(directory, f"{name}.{c}.json", rel.mv(alg))
        for name, s in CLI_SEMIRINGS.items():
            files[name] = _write(directory, f"{name}.{c}.json",
                                 rel.semiring(s))
        for name, (scalar_name, m) in CLI_MODULES.items():
            files[name] = _write(directory, f"{name}.{c}.json",
                                 rel.module(m, scalar_name))
        copies.append(files)
    for name, payload in _FIXED_INPUTS.items():
        path = _write(directory, f"{name}.json", payload)
        for files in copies:
            files[name] = path
    jobs = []
    for key, argv, count in CLI_TEMPLATES:
        for c in range(count):
            names = dict(copies[c], **{"gamma-seed": str(rng.randrange(10**6))})
            jobs.append(Job(key, key.split(":")[0], argv=[
                names[a[1:-1]] if a.startswith("{") else a for a in argv]))
    rng.shuffle(jobs)
    return jobs


_PASS_MAKERS = {"tensor-up": _tensor_up, "k0": _k0, "scalars": _scalars,
             "cli": _cli}


def build_pass(workload: str, seed: int, index: int,
               directory: str) -> List[Job]:
    """Inputs and job order of pass ``index`` of a run at ``seed``."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _PASS_MAKERS[workload](rng, directory)


# ----- label-invariant answers ---------------------------------------------------

def _count(table, pred) -> int:
    return sum(1 for row in table for v in row if pred(v))


def _cli_answer(family: str, code: int, out: str) -> dict:
    answer = {"exit": code}
    if code not in (0, 2) or not out:
        return answer
    r = json.loads(out)
    if family == "verify":
        answer.update(valid=r["valid"], failed=sorted(
            law["name"] for law in r["laws"] if not law["ok"]))
    elif family == "chain":
        top = r["star"][r["zero"]]
        answer.update(size=r["size"],
                      top_sums=_count(r["oplus"], lambda v: v == top))
    elif family == "reduct":
        answer.update(size=r["size"],
                      zero_products=_count(r["mul"], lambda v: v == r["zero"]),
                      mul_idempotents=sum(1 for a in range(r["size"])
                                          if r["mul"][a][a] == a),
                      top_sums=_count(r["add"], lambda v: v == r["one"]))
    elif family == "idempotents":
        answer.update(count=r["count"])
    elif family == "projective":
        answer.update(projective=r["projective"],
                      agree=r["witnesses"]["deciders_agree"],
                      generators=len(r["witnesses"]["minimal_generators"]))
    elif family == "k0":
        answer.update(classes=len(r["classes"]),
                      relations=len(r["relations"]), group=r["group"])
    elif family == "tensor":
        answer.update(classes=r["classes"],
                      universal_property=r["universal_property"])
    elif family == "gamma":
        answer.update(ok=r["ok"], samples=r["samples"],
                      meet_failures=r["meet_failures"],
                      truncated_sum_failures=r["truncated_sum_failures"])
    elif family == "homset":
        answer.update(count=r["count"])
    return answer


def _call_answer(family: str, value) -> dict:
    if family == "embedding":
        return {"ok": value["ok"], "modules": value["modules"],
                "fullness_pairs": value["fullness_pairs"],
                "homs_lost_by_restriction": value["homs_lost_by_restriction"],
                "unit_iso": all(value["unit_iso"])}
    if family == "zeta":
        return {"ok": value.ok, "outer": len(value.outer),
                "curried": len(value.curried)}
    return {"ok": value["ok"], "chain_size": value["chain_size"],
            "points": value["points"],
            "classes": value["tier"].get("classes")}


def _call_output(family: str, value):
    """A library result as JSON data, for the determinism check."""
    if family == "zeta":
        return {"forward": value.forward, "backward": value.backward,
                "outer": [h.mapping for h in value.outer],
                "curried": [h.mapping for h in value.curried],
                "join_preserving": value.join_preserving}
    return value


def answer(job: Job, result) -> Tuple[dict, str]:
    """The job's label-invariant answer and its canonical output text.

    ``result`` is ``(exit_code, stdout)`` for a CLI job and the list of
    returned values for library calls."""
    if job.argv is not None:
        code, out = result
        return _cli_answer(job.family, code, out), out
    return ([_call_answer(job.family, v) for v in result],
            json.dumps([_call_output(job.family, v) for v in result],
                       sort_keys=True, default=str))


def load_expected() -> Dict[str, Dict[str, dict]]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
