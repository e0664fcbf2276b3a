import hashlib
import itertools
import random

import numpy as np
import pytest

import corpus
from folds import (block_diag_by_loop, cover_by_loop,
                   hom_from_matrix_by_loop, is_idempotent_by_loop,
                   product_by_loop)
from mvsr.cli import main
from mvsr.errors import (MalformedTable, NoDecomposition, NotFreeBasis,
                         ScalarMismatch, ShapeMismatch, SizeGuard)
from mvsr.jsonio import canonical_dumps, mv_to_dict, semiring_to_dict
from mvsr.matrix import (SemiringMatrix, _block_sum, _cover, block_diag, eta,
                         hom_from_matrix, idempotent_matrices,
                         is_mult_idempotent, lift_hom, mat_add,
                         mat_identity, mat_star_mul, mat_zero,
                         matrix_from_hom, matrix_law_report, matrix_semiring)
from mvsr.mv import lukasiewicz_chain
from mvsr.semimodule import (FiniteSemimodule, SemimoduleHom,
                             free_semimodule, free_universal_property,
                             generate, hom_set, minimal_generating_set,
                             module_over_self, trivial_module)
from mvsr.semiring import (FiniteSemiring, boolean_semiring,
                           check_semiring_axioms)
from mvsr.tensor import enumerate_modules


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
    """Every candidate built as a matrix and squared by the Python loop,
    in entry-lexicographic order."""
    out = []
    for flat in itertools.product(range(s.size), repeat=n * n):
        m = SemiringMatrix(s, n, n,
                           tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        if is_idempotent_by_loop(m):
            out.append(m)
    return tuple(out)


@pytest.mark.parametrize("name,n_top", [("boolean", 3), ("three", 2),
                                        ("square", 2), ("lawless", 2)])
def test_idempotent_matrices_match_the_loop(name, n_top):
    s = {"boolean": boolean_semiring(),
         "three": corpus.chain(3),
         "square": corpus.square(),
         "lawless": corpus.lawless_semiring()}[name]
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
    scalars = [corpus.chain(k) for k in range(2, 8)]
    scalars += [corpus.square()]
    for s in scalars:
        for n in range(3):
            assert idempotent_matrices(s, n) == \
                _idempotent_matrices_by_decoder(s, n)
    three = scalars[1]
    assert idempotent_matrices(three, 2) == \
        _idempotent_matrices_by_decoder(three, 2, chunk=7)


# two lawless two-element tables: 0 + 0 = 1, so zero is no additive
# identity; and x + y = x with 0 * 0 = 1, so addition does not commute and
# zero does not absorb
LAWLESS_A = FiniteSemiring(2, ((1, 0), (0, 0)), ((0, 0), (0, 1)), 0, 1)
LAWLESS_B = FiniteSemiring(2, ((0, 0), (1, 1)), ((1, 0), (0, 1)), 0, 1)

SMALL = {
    "B": boolean_semiring,
    "c3": lambda: corpus.chain(3),
    "c2xc2": corpus.square,
    "lawless-a": lambda: LAWLESS_A,
    "lawless-b": lambda: LAWLESS_B,
}


def _two_element_tables(count):
    """Seeded random two-element tables, most of them lawless."""
    rng = random.Random(0)
    return [corpus.drawn_semiring(rng, 2) for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_semiring_products_are_mat_star_mul(n):
    """On every pair of n x n matrices, each product in the table is
    mat_star_mul's and the Python loop's, its terms folded from the scalar
    zero, over lawless tables as over B, c3 and c2 x c2."""
    scalars = _two_element_tables(40 if n == 1 else 12)
    assert sum(not check_semiring_axioms(s).valid for s in scalars) > 20 / n
    scalars += [make() for make in SMALL.values()]
    for s in scalars:
        ring = matrix_semiring(s, n)
        for a, b in itertools.product(range(ring.semiring.size), repeat=2):
            want = product_by_loop(ring.matrices[a], ring.matrices[b])
            assert mat_star_mul(ring.matrices[a],
                                ring.matrices[b]).entries == want
            assert ring.matrices[ring.semiring.mul[a][b]].entries == want


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
    s = corpus.chain(k)
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


def test_hom_from_matrix_refuses_other_scalars(three):
    """A 1x1 matrix over c4 with entry 2 read on the free module on one
    point: over c2 x c2, also of four elements, it would give the map
    (0, 0, 2, 2), a hom that validates; over B its entry is no scalar.
    Both are refused, and so is a target over other scalars than the
    source."""
    c4 = corpus.chain(4)
    square = corpus.square()
    k = mk(c4, [[2]])
    for s in (square, boolean_semiring()):
        free = free_semimodule(s, ["x"])
        with pytest.raises(ScalarMismatch):
            hom_from_matrix(k, free, free)
    with pytest.raises(ScalarMismatch):
        hom_from_matrix(mk(c4, [[2]]), free_semimodule(c4, ["x"]),
                        free_semimodule(square, ["y"]))


@pytest.mark.parametrize("gens", [(2.9,), ("2",), (7,)])
def test_lift_hom_refuses_generators_that_are_no_elements(three, gens):
    """2.9 and '2' were read as generator 2, and 7 ended in an
    IndexError."""
    m = module_over_self(three)
    identity = SemimoduleHom(m, m, (0, 1, 2))
    with pytest.raises(MalformedTable, match="^generators "):
        lift_hom(identity, gens, (2,))
    with pytest.raises(MalformedTable, match="^generators "):
        lift_hom(identity, (2,), gens)


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


def test_the_lawless_tables_break_the_laws():
    assert not check_semiring_axioms(LAWLESS_A).valid
    assert not check_semiring_axioms(LAWLESS_B).valid


@pytest.mark.parametrize("name", list(SMALL))
def test_idempotence_and_block_sums_match_the_loops(name):
    """On every 1x1 and 2x2 matrix, is_mult_idempotent and
    idempotent_matrices agree with the loop's idempotence; on every pair,
    the array block sum gives the loop's block sum, and block_diag gives it
    on every pair with a 1x1 factor."""
    s = SMALL[name]()
    mats = []
    for n in (1, 2):
        ms = matrix_semiring(s, n).matrices
        idempotent = [is_idempotent_by_loop(m) for m in ms]
        assert [is_mult_idempotent(m) for m in ms] == idempotent
        assert idempotent_matrices(s, n) == tuple(
            m for m, keep in zip(ms, idempotent) if keep)
        mats += ms
    for u, v in itertools.product(mats, repeat=2):
        want = block_diag_by_loop(u, v)
        assert _block_sum(s.zero, u.np_entries,
                          v.np_entries).tolist() == list(map(list, want))
        if u.rows == 1 or v.rows == 1:
            assert block_diag(u, v).entries == want


@pytest.mark.parametrize("name", ["B", "c3"])
def test_maps_of_matrices_match_the_loop(name):
    """hom_from_matrix of every matrix between free modules of 0 to 2
    points, and eta's map on 0 to 2 points, against the loop's maps."""
    s = SMALL[name]()
    frees = [free_semimodule(s, [f"p{i}" for i in range(n)])
             for n in range(3)]
    for source, target in itertools.product(frees, repeat=2):
        rows, cols = len(source.points), len(target.points)
        for flat in itertools.product(range(s.size), repeat=rows * cols):
            k = SemiringMatrix(s, rows, cols, tuple(
                flat[i * cols:(i + 1) * cols] for i in range(rows)))
            assert hom_from_matrix(k, source, target).mapping == \
                hom_from_matrix_by_loop(k, source, target)
    for n in range(3):
        result = eta(s, n)
        want = result.end.homs.positions([
            hom_from_matrix_by_loop(k, result.module, result.module)
            for k in result.matrices.matrices])
        assert result.hom.mapping == tuple(want.tolist())
        assert result.bijective


def test_covers_match_the_loop():
    """The free cover of every module of enumerate_modules(B, 3) on its
    minimal generating set, on all its elements and on no generator."""
    s = boolean_semiring()
    modules = enumerate_modules(s, 3)
    assert len(modules) > 3
    for m in modules:
        for gens in (minimal_generating_set(m), tuple(range(m.size)), ()):
            free, pi = _cover(m, gens, 4096)
            assert len(free.points) == len(gens)
            assert pi.mapping == cover_by_loop(m, gens, free)


def test_the_empty_cases():
    """0 x 0 and empty-sided matrices, the free module on no points and
    the cover with no generators: every combination of no terms is zero."""
    s = SMALL["c3"]()
    empty = SemiringMatrix(s, 0, 0, ())
    assert mat_star_mul(empty, empty).entries == ()
    assert is_mult_idempotent(empty)
    assert idempotent_matrices(s, 0) == (empty,)
    assert block_diag(empty, empty).entries == ()
    one = mk(s, [[1]])
    assert block_diag(empty, one).entries == block_diag(one, empty).entries \
        == ((1,),)
    tall, wide = SemiringMatrix(s, 2, 0, ((), ())), SemiringMatrix(s, 0, 2, ())
    assert mat_star_mul(tall, wide).entries == ((s.zero,) * 2,) * 2
    assert mat_star_mul(wide, tall).entries == ()
    assert matrix_semiring(s, 0).semiring.size == 1

    nothing = free_semimodule(s, [])
    line = free_semimodule(s, ["x"])
    assert hom_from_matrix(SemiringMatrix(s, 0, 1, ()), nothing,
                           line).mapping == (line.zero,)
    assert hom_from_matrix(SemiringMatrix(s, 1, 0, ((),)), line,
                           nothing).mapping == (0,) * line.size
    assert free_universal_property(nothing, module_over_self(s))["ok"]

    m = module_over_self(s)
    free, pi = _cover(m, (), 4096)
    assert free.size == 1 and pi.mapping == (m.zero,)


def _idempotents_report(tmp_path, capsys, payload):
    path = tmp_path / "scalars.json"
    path.write_text(canonical_dumps(payload), encoding="utf-8")
    assert main(["idempotents", "--input", str(path), "--n", "3"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name,digest", [
    ("B", "21bdfebcd99d238f8422bdb1ab899b6837684acf"),
    ("c3", "eca96092fe5e2023ef3bb3df57f89d7593ed60ec"),
])
def test_idempotents_report_bytes_at_n_3(tmp_path, capsys, name, digest):
    """`mvsr idempotents --n 3` on B (as a semiring) and on the 3-chain
    (as an MV-algebra), pinned by digest."""
    payload = (semiring_to_dict(boolean_semiring()) if name == "B"
               else mv_to_dict(lukasiewicz_chain(3)))
    out = _idempotents_report(tmp_path, capsys, payload)
    assert hashlib.sha1(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("samples", [0, -5])
def test_the_sampled_route_needs_a_sample(three, samples):
    with pytest.raises(ValueError, match=f"samples={samples} must be at "
                                         f"least 1"):
        matrix_law_report(three, 3, samples=samples)
    assert matrix_law_report(three, 2, samples=samples)["ok"]


def test_sampled_reports_are_pinned():
    """The sampled reports at seeds 0 to 9, over c3 and over a lawless
    table whose failures are counted, pinned by digest."""
    for s, digest in ((SMALL["c3"](),
                       "db6a98c8b92bd60c7cb683b67b9dfd7b6f1dc308"),
                      (corpus.lawless_semiring(),
                       "b7f0889b05bf1f757769d07deace4816f8fd684d")):
        reports = [matrix_law_report(s, 3, samples=40, seed=seed)
                   for seed in range(10)]
        assert hashlib.sha1(canonical_dumps(reports).encode()).hexdigest() \
            == digest
