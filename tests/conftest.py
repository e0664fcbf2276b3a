"""Fixtures shared by the test files. The structures they return are named
in corpus.py, where a test draws the rest of its small cases from."""
import pytest

import corpus
from mvsr.semiring import boolean_semiring


@pytest.fixture
def boolean():
    """The Boolean semiring B."""
    return boolean_semiring()


@pytest.fixture
def three():
    """The (vee, odot) reduct of the three-element chain."""
    return corpus.chain(3)


@pytest.fixture
def square():
    """The MV-algebra c2 x c2; corpus.square() is its reduct."""
    return corpus.c2xc2()
