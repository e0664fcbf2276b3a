"""End-to-end acceptance run: ten numbered guarantees, one line each.

Every test prints its verdict as "criterion n: PASS/FAIL ..." (visible
under pytest -s) and then asserts it, so the suite both documents and
enforces the shipped behavior.
"""
import random
import time
from fractions import Fraction

from mvsr.cli import main
from mvsr.grothendieck import (AbelianGroupSNF, completion_from_triples,
                               compose_group_homs,
                               enumerate_projective_classes, k0_of_hom)
from mvsr.jsonio import (canonical_dumps, mv_to_dict, semimodule_to_dict,
                         semiring_to_dict)
from mvsr.matrix import eta, idempotent_matrices
from mvsr.mv import (MvHom, boolean_center, check_mv_axioms, gamma_chain,
                     gamma_property_report, lukasiewicz_chain, mv_product,
                     quotient, reduct_vee_odot, reduct_wedge_oplus,
                     star_reduct_isomorphism)
from mvsr.projective import (are_isomorphic, cyclic_mv_trichotomy, direct_sum,
                             is_projective_matrix_criterion,
                             is_projective_retract_oracle, row_space)
from mvsr.semimodule import (FiniteSemimodule, endmv_check, free_semimodule,
                             generate, is_strong, module_over_self,
                             xi_embedding)
from mvsr.semiring import SemiringHom, boolean_semiring, check_semiring_axioms
from mvsr.snf import smith_normal_form
from mvsr.tensor import (as_module, check_universal_property,
                         enumerate_modules, full_embedding_check,
                         tensor_product, zeta_isomorphism)
from mvsr.tropical import TropicalUSemifield

import corpus


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_axiom_suites():
    started = time.monotonic()
    algebras = [lukasiewicz_chain(n) for n in range(2, 7)]
    algebras.append(corpus.c2xc2())
    algebras.append(mv_product(lukasiewicz_chain(2), lukasiewicz_chain(3)))
    ok = True
    for a in algebras:
        ok = ok and check_mv_axioms(a).valid
        ok = ok and check_semiring_axioms(reduct_vee_odot(a)).valid
        ok = ok and check_semiring_axioms(reduct_wedge_oplus(a)).valid
        ok = ok and star_reduct_isomorphism(a).is_bijective()
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    _report(1, ok, f"all laws on {len(algebras)} algebras, both reducts and "
                   f"the involution isomorphism, in {elapsed:.2f}s")


def test_criterion_2_matrices_are_endomorphisms():
    started = time.monotonic()
    two = eta(corpus.chain(2), 2)
    three = eta(corpus.chain(3), 2)
    elapsed = time.monotonic() - started
    ok = (two.bijective and three.bijective
          and two.counts == (16, 16)
          and three.counts[0] == three.counts[1]
          and elapsed < 10.0)
    _report(2, ok, f"eta bijective at sizes (2,2) and (3,2) with matching "
                   f"counts {two.counts} and {three.counts}, in "
                   f"{elapsed:.2f}s")


def test_criterion_3_projectivity_deciders_agree():
    checked = 0
    agreements = 0
    for k in (2, 3):
        s = corpus.chain(k)
        for u in idempotent_matrices(s, 2):
            m = row_space(u)
            retract = is_projective_retract_oracle(m, 2)
            presented = is_projective_matrix_criterion(m, 2)
            checked += 1
            if (retract is None) == (presented is None):
                agreements += 1
    five = corpus.chain(5)
    interval = generate(module_over_self(five), (2,))
    rejected = (is_projective_retract_oracle(interval, 2) is None
                and is_projective_matrix_criterion(interval, 2) is None)
    ok = checked == 37 and agreements == checked and rejected
    _report(3, ok, f"both deciders agree on {agreements}/{checked} idempotent "
                   f"row spaces; the 3-element interval is rejected by both")


def test_criterion_4_cyclic_trichotomy():
    alg = corpus.c2xc2()
    self_mod = module_over_self(reduct_vee_odot(alg))
    consistent = 0
    for a in range(alg.size):
        res = cyclic_mv_trichotomy(alg, generate(self_mod, (a,)))
        if res.consistent:
            consistent += 1
    center = boolean_center(alg).elements
    splits = 0
    for u in center:
        left = generate(self_mod, (u,))
        right = generate(self_mod, (alg.star[u],))
        if are_isomorphic(direct_sum(left, right).module,
                          self_mod) is not None:
            splits += 1
    ok = consistent == alg.size and splits == len(center) == 4
    _report(4, ok, f"trichotomy consistent on {consistent}/{alg.size} cyclic "
                   f"modules; the algebra splits at all {splits} Boolean "
                   f"elements")


def test_criterion_5_k0_pipeline():
    boolean = corpus.chain(2)
    classes_ok = len(enumerate_projective_classes(boolean, 1).classes) == 2
    trivial_ok = completion_from_triples(1, [(0, 0, 0)]).group.is_trivial
    free_ok = completion_from_triples(1, []).group == AbelianGroupSNF(1, ())

    l2, square = lukasiewicz_chain(2), corpus.c2xc2()
    ident = k0_of_hom(MvHom(l2, l2, (0, 1)), 1)
    k_diag = k0_of_hom(MvHom(l2, square, (0, 3)), 1)
    k_proj = k0_of_hom(MvHom(square, l2, (0, 0, 1, 1)), 1)
    functor_ok = (ident.matrix == ((1, 0), (0, 1))
                  and k_diag.relations_respected and k_proj.relations_respected
                  and compose_group_homs(k_proj, k_diag) == ident.matrix)

    rng = random.Random(20260819)
    mismatches = 0
    for _ in range(1000):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(rows)
        if not snf.verify() or snf.diagonal != corpus.diagonal_by_minors(rows):
            mismatches += 1

    ok = classes_ok and trivial_ok and free_ok and functor_ok \
        and mismatches == 0
    _report(5, ok, f"2 classes at bound 1, completions and functor laws "
                   f"exact, {mismatches} normal-form mismatches in 1000 "
                   f"seeded matrices")


def _chain_module(s, size):
    add = tuple(tuple(max(i, j) for j in range(size)) for i in range(size))
    return FiniteSemimodule(s, size, add, 0,
                            ((0,) * size, tuple(range(size))))


def _canonical_bimorphism_ok(t) -> bool:
    m, n = t.left, t.right
    if any(t.tensor(m.zero, y) != t.zero_class for y in range(n.size)):
        return False
    if any(t.tensor(x, n.zero) != t.zero_class for x in range(m.size)):
        return False
    for x in range(m.size):
        for w in range(m.size):
            for y in range(n.size):
                if t.tensor(m.plus(x, w), y) != t.join(t.tensor(x, y),
                                                       t.tensor(w, y)):
                    return False
    for x in range(m.size):
        for y in range(n.size):
            for w in range(n.size):
                if t.tensor(x, n.plus(y, w)) != t.join(t.tensor(x, y),
                                                       t.tensor(x, w)):
                    return False
    for a in range(m.scalars.size):
        for x in range(m.size):
            for y in range(n.size):
                if t.tensor(m.act(a, x), y) != t.tensor(x, n.act(a, y)):
                    return False
    return True


def test_criterion_6_tensor_universal_property():
    boolean = boolean_semiring()
    reps = []
    for m in enumerate_modules(boolean, 5):
        if not any(are_isomorphic(m, r) is not None for r in reps):
            reps.append(m)
    reps.append(_chain_module(boolean, 6))
    pairs = [(m, n) for m in reps for n in reps if m.size * n.size <= 12]
    bim_failures = 0
    up_failures = 0
    for m, n in pairs:
        t = tensor_product(m, n)
        if not _canonical_bimorphism_ok(t):
            bim_failures += 1
        if not check_universal_property(t)["ok"]:
            up_failures += 1
    self_mod = module_over_self(boolean)
    unit_ok = all(
        are_isomorphic(as_module(tensor_product(self_mod, m)), m) is not None
        for m in reps)
    ok = (len(reps) == 11 and len(pairs) == 45
          and bim_failures == 0 and up_failures == 0 and unit_ok)
    _report(6, ok, f"{len(pairs)} factor pairs over {len(reps)} module "
                   f"classes: {bim_failures} bimorphism and {up_failures} "
                   f"universal-property failures; scalars act as a unit")


def test_criterion_7_hom_tensor_and_embedding():
    boolean = boolean_semiring()
    self_mod = module_over_self(boolean)
    free2 = free_semimodule(boolean, ["x", "y"])
    triples = [(self_mod, self_mod, self_mod),
               (free2, self_mod, self_mod),
               (self_mod, free2, free2)]
    zeta_ok = True
    for (m, n, p) in triples:
        for variant in ("plain", "primed"):
            z = zeta_isomorphism(m, n, p, variant)
            zeta_ok = zeta_ok and z.ok and len(z.outer) == len(z.curried)

    square = corpus.c2xc2()
    sq = reduct_vee_odot(square)
    toward = quotient(square, (0, 1))
    homs = (SemiringHom(sq, boolean, (0, 0, 1, 1)),
            SemiringHom(sq, reduct_vee_odot(toward.algebra),
                        toward.hom.mapping))
    emb_ok = True
    for h in homs:
        res = full_embedding_check(h, size_bound=4)
        emb_ok = (emb_ok and res["ok"] and res["modules"] == 13
                  and res["fullness_pairs"] == 169
                  and res["homs_lost_by_restriction"] == 0)
    ok = zeta_ok and emb_ok
    _report(7, ok, f"currying counts match on {len(triples)} triples in both "
                   f"variants; both onto scalar maps are full with an "
                   f"invertible unit on 13 modules")


def test_criterion_8_truncation():
    report = gamma_property_report(TropicalUSemifield(Fraction(1)),
                                   10000, 424242)
    sampled_ok = (report["ok"] and report["meet_failures"] == 0
                  and report["truncated_sum_failures"] == 0)
    tables_ok = True
    for k in (1, 2, 4):
        alg, cert = gamma_chain(k)
        chain = lukasiewicz_chain(k + 1)
        tables_ok = (tables_ok and alg.oplus == chain.oplus
                     and alg.star == chain.star and alg.zero == chain.zero
                     and cert["ok"])
    ok = sampled_ok and tables_ok
    _report(8, ok, "10000 exact samples at u=1 with zero failures; truncated "
                   "chains match the standard ones for k in (1, 2, 4)")


def test_criterion_9_strong_modules():
    pairs = []
    for k in (2, 3, 4):
        alg = lukasiewicz_chain(k)
        pairs.append((alg, module_over_self(reduct_vee_odot(alg))))
    square = corpus.c2xc2()
    pairs.append((square, module_over_self(reduct_vee_odot(square))))
    five = lukasiewicz_chain(5)
    pairs.append((five, generate(module_over_self(reduct_vee_odot(five)),
                                 (2,))))

    agreements = 0
    nonstrong_caught = False
    for alg, m in pairs:
        verdict = is_strong(alg, m)
        transported = endmv_check(alg, m)
        if verdict.strong == transported.well_defined:
            agreements += 1
        if not verdict.strong:
            nonstrong_caught = (verdict.witness is not None
                                and transported.conflict is not None)

    scalars = [reduct_vee_odot(a) for a, _ in pairs[:4]]
    scalars += [reduct_wedge_oplus(lukasiewicz_chain(k)) for k in (2, 3, 4)]
    scalars.append(boolean_semiring())
    xi_ok = all(xi_embedding(s).injective and xi_embedding(s).unit_witness
                for s in scalars)
    ok = agreements == len(pairs) and nonstrong_caught and xi_ok
    _report(9, ok, f"strongness deciders agree on {agreements}/{len(pairs)} "
                   f"pairs including the non-strong interval; translation "
                   f"embedding injective for {len(scalars)} semirings")


def test_criterion_10_cli_determinism(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(canonical_dumps(payload), encoding="utf-8")
        return str(path)

    boolean = boolean_semiring()
    chain3 = write("chain3.json", mv_to_dict(lukasiewicz_chain(3)))
    boolf = write("bool.json", semiring_to_dict(boolean))
    selff = write("self.json", semimodule_to_dict(module_over_self(boolean)))
    free2 = write("free2.json",
                  semimodule_to_dict(free_semimodule(boolean, ["x", "y"])))
    commands = [
        ["verify", "--input", chain3],
        ["chain", "4"],
        ["reduct", "vee-odot", "--input", chain3],
        ["idempotents", "--input", boolf, "--n", "2"],
        ["projective", "--input", selff],
        ["k0", "--input", chain3, "--nmax", "1"],
        ["tensor", "--left", selff, "--right", selff],
        ["gamma", "--u", "1", "--samples", "500", "--seed", "9"],
        ["homset", "--left", free2, "--right", selff],
    ]
    identical = 0
    for i, argv in enumerate(commands):
        first = tmp_path / f"run{i}a.json"
        second = tmp_path / f"run{i}b.json"
        code_a = main(argv + ["--out", str(first)])
        code_b = main(argv + ["--out", str(second)])
        if code_a == code_b == 0 and first.read_bytes() == second.read_bytes():
            identical += 1
    ok = identical == len(commands)
    _report(10, ok, f"{identical}/{len(commands)} subcommands byte-identical "
                    f"across repeated runs")
