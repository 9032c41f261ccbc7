import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.blocks import Block, bandwidth, block_distance, pairwise_decompose
from lrlab.errors import ValidationError
from lrlab.locality import a_mu_pointwise

from _oracles import apply_permutation, random_hermitian

label_sets = st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=8)


def test_empty_block_rejected():
    with pytest.raises(ValidationError):
        Block([])


def test_block_refuses_a_negative_label():
    with pytest.raises(ValidationError, match="labels must be nonnegative, got -1"):
        Block([2, -1])


def test_block_normalizes_labels():
    b = Block([4, 1, 4, 2])
    assert b.labels == (1, 2, 4)
    assert b.size == 3


def test_block_distance_examples():
    assert block_distance(Block([0, 1]), Block([4, 7])) == 3
    assert block_distance(Block([2]), Block([2, 5])) == 0
    assert block_distance(Block([0]), Block([10])) == 10


@given(label_sets, label_sets)
def test_block_distance_symmetric(a, b):
    assert block_distance(Block(a), Block(b)) == block_distance(Block(b), Block(a))


@given(label_sets)
def test_size_at_most_diameter_plus_one(labels):
    """Labels are sorted and distinct, so a block fits in its label span."""
    b = Block(labels)
    assert b.size <= b.labels[-1] - b.labels[0] + 1
    assert list(b.labels) == sorted(set(labels))


def test_pairwise_decompose_diagonal():
    """A diagonal H has singleton terms only, so its load does not depend on
    the rate: a_mu is its largest |H_ii|."""
    H = pairwise_decompose(np.diag([1.0, 2.0]))
    assert H.dtype == np.float64
    np.testing.assert_array_equal(H, np.diag([1.0, 2.0]))
    for mu in (0.1, 3.0):
        assert a_mu_pointwise(H, mu) == 2.0


def test_pairwise_decompose_single_coupling_norm():
    """One pair term of norm 1/2 loads each of its two levels with
    2 * 1/2 * e^(mu |0 - 1|)."""
    H = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    assert np.abs(pairwise_decompose(H)[0, 1]) == 0.5
    for mu in (0.1, 3.0):
        assert a_mu_pointwise(H, mu) == pytest.approx(np.exp(mu), rel=1e-15)


def test_pairwise_decompose_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        pairwise_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_bandwidth_of_a_zero_matrix_is_zero():
    assert bandwidth(np.zeros((3, 3))) == 0
    assert bandwidth(np.diag([0.0, 1e-300, 0.0])) == 0


def test_pairwise_decompose_rejects_a_non_square_matrix():
    with pytest.raises(ValidationError, match=r"square matrix, got shape \(2, 3\)"):
        pairwise_decompose(np.zeros((2, 3)))


def test_pairwise_roundtrip_random():
    """The decomposition is H itself: its checked copy holds every entry of
    H bit for bit and cannot be written."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        H = random_hermitian(rng, n)
        terms = pairwise_decompose(H)
        np.testing.assert_array_equal(terms, H)
        assert terms is not H and not terms.flags.writeable


def test_apply_permutation_moves_entries():
    H = np.diag([1.0, 2.0, 3.0])
    perm = np.array([2, 0, 1])  # old label i gets new label perm[i]
    out = apply_permutation(H, perm)
    np.testing.assert_allclose(np.diagonal(out), [2.0, 3.0, 1.0])
