import itertools
import random

import numpy as np
import pytest

from mvsr.errors import (NoDecomposition, NotFreeBasis, ShapeMismatch,
                         SizeGuard)
from mvsr.matrix import (SemiringMatrix, eta, hom_from_matrix,
                         idempotent_matrices, is_mult_idempotent, lift_hom,
                         mat_add, mat_identity, mat_star_mul, mat_zero,
                         matrix_from_hom, matrix_law_report, matrix_semiring)
from mvsr.mv import lukasiewicz_chain, mv_product, reduct_vee_odot
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom,
                             free_semimodule, generate, hom_set,
                             minimal_generating_set, module_over_self,
                             trivial_module)
from mvsr.semiring import (FiniteSemiring, boolean_semiring,
                           check_semiring_axioms)


@pytest.fixture
def boolean():
    return boolean_semiring()


@pytest.fixture
def three():
    return reduct_vee_odot(lukasiewicz_chain(3))


def mk(s, rows):
    return SemiringMatrix(s, len(rows), len(rows[0]),
                          tuple(map(tuple, rows)))


def test_identity_and_zero(boolean):
    i2 = mat_identity(boolean, 2)
    z2 = mat_zero(boolean, 2, 2)
    a = mk(boolean, [[0, 1], [1, 1]])
    assert mat_star_mul(a, i2).entries == a.entries
    assert mat_star_mul(i2, a).entries == a.entries
    assert mat_add(a, z2).entries == a.entries
    assert mat_star_mul(a, z2).entries == z2.entries


def test_product_uses_join_and_product(three):
    a = mk(three, [[1, 2], [0, 1]])
    b = mk(three, [[2, 0], [1, 1]])
    # entry (0,0) is (1*2) join (2*1) = 0 join 1 = 1
    assert mat_star_mul(a, b).entries[0][0] == 1


def test_shape_mismatch(boolean):
    a = mk(boolean, [[0, 1]])
    with pytest.raises(ShapeMismatch):
        mat_star_mul(a, a)
    with pytest.raises(ShapeMismatch):
        mat_add(a, mat_identity(boolean, 2))


def test_idempotent_counts_frozen(boolean, three):
    assert len(idempotent_matrices(boolean, 2)) == 11
    assert len(idempotent_matrices(three, 2)) == 26


def test_idempotents_contain_identity_and_zero(three):
    mats = idempotent_matrices(three, 2)
    entries = {m.entries for m in mats}
    assert mat_identity(three, 2).entries in entries
    assert mat_zero(three, 2, 2).entries in entries
    assert all(is_mult_idempotent(m) for m in mats)


def test_idempotent_guard(three):
    with pytest.raises(SizeGuard, match=r"^candidate idempotent matrices: "
                       r"43046721 exceeds max_enum=1000$"):
        idempotent_matrices(three, 4, max_enum=1000)


def _idempotent_matrices_by_loop(s, n):
    """Every candidate built as a matrix and squared with mat_star_mul,
    in entry-lexicographic order."""
    out = []
    for flat in itertools.product(range(s.size), repeat=n * n):
        m = SemiringMatrix(s, n, n,
                           tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        if is_mult_idempotent(m):
            out.append(m)
    return tuple(out)


# breaks the semiring laws: zero is no additive identity and addition
# does not commute
LAWLESS = FiniteSemiring(3, ((0, 2, 2), (1, 1, 0), (0, 2, 0)),
                         ((0, 0, 0), (2, 2, 2), (1, 2, 2)), 1, 2)


@pytest.mark.parametrize("name,n_top", [("boolean", 3), ("three", 2),
                                        ("square", 2), ("lawless", 2)])
def test_idempotent_matrices_match_the_loop(name, n_top):
    s = {"boolean": boolean_semiring(),
         "three": reduct_vee_odot(lukasiewicz_chain(3)),
         "square": reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                              lukasiewicz_chain(2))),
         "lawless": LAWLESS}[name]
    for n in range(n_top + 1):
        assert idempotent_matrices(s, n) == _idempotent_matrices_by_loop(s, n)


def _idempotent_matrices_by_decoder(s, n, chunk=1 << 15):
    """Candidates decoded from their entry-lex positions, chunk by chunk,
    each squared through the scalar tables from the scalar zero."""
    total = s.size ** (n * n)
    weights = s.size ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    out = []
    for lo in range(0, total, chunk):
        flat = (np.arange(lo, min(lo + chunk, total),
                          dtype=np.int64)[:, None] // weights % s.size)
        u = flat.reshape(len(flat), n, n)
        keep = np.ones(len(flat), dtype=bool)
        for i in range(n):
            for j in range(n):
                acc = np.full(len(flat), s.zero, dtype=np.int64)
                for k in range(n):
                    acc = s.np_add[acc, s.np_mul[u[:, i, k], u[:, k, j]]]
                keep &= acc == u[:, i, j]
        out.extend(SemiringMatrix(s, n, n, tuple(tuple(row[i * n:(i + 1) * n])
                                                 for i in range(n)))
                   for row in flat[keep].tolist())
    return tuple(out)


def test_idempotent_matrices_match_the_decoder():
    """The same matrices in the same order on c2 to c7 and c2 x c2 at
    n <= 2, and across chunk edges on the three-chain at n = 2."""
    scalars = [reduct_vee_odot(lukasiewicz_chain(k)) for k in range(2, 8)]
    scalars += [reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                           lukasiewicz_chain(2)))]
    for s in scalars:
        for n in range(3):
            assert idempotent_matrices(s, n) == \
                _idempotent_matrices_by_decoder(s, n)
    three = scalars[1]
    assert idempotent_matrices(three, 2) == \
        _idempotent_matrices_by_decoder(three, 2, chunk=7)


def _two_element_tables(count):
    """Seeded random two-element tables, most of them lawless."""
    rng = random.Random(0)
    return [FiniteSemiring(2, *(tuple(tuple(rng.randrange(2) for _ in "ab")
                                      for _ in "ab") for _ in "+*"),
                           rng.randrange(2), rng.randrange(2))
            for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_semiring_products_are_mat_star_mul(n):
    """Each product in the table is mat_star_mul's, its terms folded from
    the scalar zero, over lawless tables as over B, c3 and c2 x c2."""
    scalars = _two_element_tables(40 if n == 1 else 12)
    assert sum(not check_semiring_axioms(s).valid for s in scalars) > 20 / n
    scalars += [boolean_semiring(), reduct_vee_odot(lukasiewicz_chain(3)),
                reduct_vee_odot(mv_product(lukasiewicz_chain(2),
                                           lukasiewicz_chain(2)))]
    for s in scalars:
        if s.size ** (n * n) > 81:
            continue
        ring = matrix_semiring(s, n)
        for a, b in itertools.product(range(ring.semiring.size), repeat=2):
            product = mat_star_mul(ring.matrices[a], ring.matrices[b])
            assert ring.matrices[ring.semiring.mul[a][b]].entries == \
                product.entries


def test_matrix_semiring_boolean(boolean):
    ring = matrix_semiring(boolean, 2)
    assert ring.semiring.size == 16
    assert check_semiring_axioms(ring.semiring).valid
    # the table multiplication matches the direct one on a spot pair
    a = mk(boolean, [[0, 1], [1, 0]])
    b = mk(boolean, [[1, 1], [0, 1]])
    ij = ring.semiring.mul[ring.index_of(a)][ring.index_of(b)]
    assert ring.matrices[ij].entries == mat_star_mul(a, b).entries


def test_matrix_law_report_routes(three):
    exhaustive = matrix_law_report(three, 2)
    assert exhaustive["route"] == "exhaustive"
    assert exhaustive["ok"]
    sampled = matrix_law_report(three, 4, samples=300, seed=5)
    assert sampled["route"] == "sampled"
    assert sampled["ok"]
    assert not any(sampled["failures"].values())


def test_right_action_is_diagrammatic(three):
    """Acting by a then by b is the same as acting by the product a*b."""
    free = free_semimodule(three, ["x", "y"])
    a = mk(three, [[1, 2], [0, 1]])
    b = mk(three, [[2, 2], [1, 0]])
    ha, hb = hom_from_matrix(a, free, free), hom_from_matrix(b, free, free)
    hab = hom_from_matrix(mat_star_mul(a, b), free, free)
    assert tuple(hb.mapping[v] for v in ha.mapping) == hab.mapping


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
def test_eta_bijective(k, n):
    s = reduct_vee_odot(lukasiewicz_chain(k))
    result = eta(s, n)
    assert result.bijective
    assert result.counts[0] == result.counts[1] == s.size ** (n * n)


def test_hom_matrix_round_trip(three):
    src = free_semimodule(three, ["x", "y"])
    dst = free_semimodule(three, ["z"])
    k = mk(three, [[1], [2]])
    h = hom_from_matrix(k, src, dst).validate()
    assert matrix_from_hom(h).entries == k.entries


def test_hom_from_matrix_needs_free_modules(three):
    sub = generate(module_over_self(three), (1,))
    free = free_semimodule(three, ["x"])
    with pytest.raises(NotFreeBasis):
        matrix_from_hom(SemimoduleHom(sub, sub, (0, 1)))
    with pytest.raises(ShapeMismatch):
        hom_from_matrix(mk(three, [[0], [0]]), free, free)


def test_lift_hom_square_commutes(three):
    m = module_over_self(three)
    sub = generate(m, (1,))
    inclusion = SemimoduleHom(sub, m, sub.members).validate()
    lifted = lift_hom(inclusion, (1,), (2,))
    assert lifted.square_commutes
    assert lifted.matrix.rows == 1 and lifted.matrix.cols == 1


def _lift_rows_by_search(h, gens_source, gens_target):
    """The coefficient rows lift_hom took before it read them off its cover:
    for each source generator, the first coefficient tuple in
    lexicographic order whose combination of the target generators is
    the generator's image."""
    n, s = h.target, h.source.scalars
    rows = []
    for g in gens_source:
        want = h.mapping[g]
        for coeffs in itertools.product(range(s.size),
                                        repeat=len(gens_target)):
            if n.sum(n.act(c, y) for c, y in zip(coeffs, gens_target)) == want:
                rows.append(coeffs)
                break
        else:
            raise NoDecomposition(f"no combination reaches element {want}")
    return tuple(rows)


def _small_modules(s):
    """Trivial, self, free on two points and the cyclic submodules of self,
    plus one lawless module where 1 + 1 = 2: its generator 1 spans 2, yet
    no scalar multiple of 1 is 2, so no hom onto 2 lifts."""
    self_mod = module_over_self(s)
    doubling = FiniteSemimodule(s, 3, ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0,
                                ((0, 0, 0),) * (s.size - 1) + ((0, 1, 2),))
    return [trivial_module(s), self_mod, free_semimodule(s, ["x", "y"]),
            *(generate(self_mod, (x,)) for x in range(1, s.size)), doubling]


@pytest.mark.parametrize("scalars", ["B", "c3"])
def test_lift_hom_matches_the_search(scalars, three):
    """On every hom between small modules over B and c3, with their minimal
    generating sets, lift_hom gives the matrix the search gives, or the
    same refusal."""
    s = boolean_semiring() if scalars == "B" else three
    modules = _small_modules(s)
    lifted = refused = 0
    for m in modules:
        for n in modules:
            gm, gn = minimal_generating_set(m), minimal_generating_set(n)
            for h in hom_set(m, n).homs:
                try:
                    want = _lift_rows_by_search(h, gm, gn)
                except NoDecomposition as exc:
                    with pytest.raises(NoDecomposition, match=str(exc)):
                        lift_hom(h, gm, gn)
                    refused += 1
                    continue
                got = lift_hom(h, gm, gn)
                assert got.matrix.entries == want
                lifted += 1
    assert lifted > len(modules) ** 2 and refused > 0
