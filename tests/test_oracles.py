"""Input validation of the test helpers in oracles.py.

These check the reference code the other tests build on, not the rotsym
package: a helper that silently accepted bad input could make an oracle
agree with the code under test for the wrong reason.
"""

import pytest

from oracles import (
    AffineTransform,
    BitString,
    concatenate,
    xor_tables,
    zeros_table,
)


def test_truth_table_xor_requires_same_n():
    with pytest.raises(ValueError):
        xor_tables(zeros_table(3), zeros_table(4))


def test_concatenate_requires_same_n():
    with pytest.raises(ValueError):
        concatenate(zeros_table(3), zeros_table(4))


def test_affine_singular_matrix_rejected():
    with pytest.raises(ValueError):
        AffineTransform(3, (0b100, 0b100, 0b001))


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(0, 0)
    with pytest.raises(ValueError):
        BitString(2, 0b100)
    s = BitString.from_bits([1, 0, 1])
    assert len(s) == 3 and s[0] == 1 and s[1] == 0 and s[2] == 1


def test_bitstring_rejects_an_unknown_block():
    with pytest.raises(ValueError):
        BitString.from_blocks("Q")
