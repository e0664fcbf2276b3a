import random

import pytest

from mvsr.snf import (int_determinant, int_matrix_mul, smith_normal_form)

import corpus


def test_single_entries():
    assert smith_normal_form([[1]]).diagonal == (1,)
    assert smith_normal_form([[-6]]).diagonal == (6,)
    assert smith_normal_form([[0]]).diagonal == (0,)


def test_identity():
    snf = smith_normal_form([[1, 0], [0, 1]])
    assert snf.diagonal == (1, 1)
    assert snf.rank == 2


def test_diagonal_gets_sorted_into_divisibility():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == (1, 6)
    assert snf.verify()


def test_textbook_three_by_three():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    snf = smith_normal_form(m)
    assert snf.diagonal == (2, 6, 12)
    assert snf.verify()
    assert snf.diagonal == corpus.diagonal_by_minors(m)


def test_rectangular_shapes():
    snf = smith_normal_form([[1, 2, 3]])
    assert snf.diagonal == (1,)
    snf = smith_normal_form([[2], [4], [6]])
    assert snf.diagonal == (2,)
    assert snf.verify()


def test_zero_matrix():
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == (0, 0)
    assert snf.rank == 0
    assert snf.invariant_factors == ()


def test_transform_matrices_are_unimodular():
    snf = smith_normal_form([[4, 7, 2], [9, 1, 5]])
    assert abs(int_determinant([list(r) for r in snf.u])) == 1
    assert abs(int_determinant([list(r) for r in snf.v])) == 1
    assert snf.verify()


def test_ragged_input_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_int_matrix_mul():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert int_matrix_mul(a, b) == ((2, 1), (4, 3))


def test_determinant_bareiss():
    assert int_determinant([[2, 0], [0, 3]]) == 6
    assert int_determinant([[0, 1], [1, 0]]) == -1
    assert int_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_against_minor_oracle_seeded():
    """A thousand random matrices up to 4x4 with entries in [-9, 9]; the
    reduction and the gcd-of-minors route must never disagree."""
    rng = random.Random(4242)
    for _ in range(1000):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(m)
        assert snf.verify(), m
        assert snf.diagonal == corpus.diagonal_by_minors(m), m


def test_divisibility_chain_on_random_factors():
    rng = random.Random(99)
    for _ in range(200):
        m = [[rng.randint(-30, 30) for _ in range(3)] for _ in range(3)]
        factors = smith_normal_form(m).invariant_factors
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


@pytest.mark.parametrize("rows", [[[1.5]], [[True]], [[2, "3"]], [[None]]],
                         ids=["float", "bool", "str", "none"])
def test_entries_that_are_not_integers_are_refused(rows):
    """1.5 and True were read as 1 and "3" as 3, a wrong form with no
    error, and None raised a bare TypeError."""
    with pytest.raises(ValueError, match=r"^matrix entry=.* must be an "
                                         r"integer$"):
        smith_normal_form(rows)
