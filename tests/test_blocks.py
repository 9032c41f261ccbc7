import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.blocks import Block, bandwidth, block_distance, pairwise_decompose
from lrlab.errors import ValidationError
from lrlab.models import build_example_ramp

from _oracles import apply_permutation, random_hermitian

label_sets = st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=8)


def test_diameter_examples():
    assert Block([5]).diameter == 0
    assert Block([0, 3, 7]).diameter == 7
    assert Block([2, 4]).diameter == 2


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
    b = Block(labels)
    assert b.size <= b.diameter + 1
    assert b.diameter >= 0


def test_pairwise_decompose_diagonal():
    decomp = pairwise_decompose(np.diag([1.0, 2.0]))
    assert decomp.dimension == 2
    assert [b.labels for b, _ in decomp.terms] == [(0,), (1,)]
    assert [entry for _, entry in decomp.terms] == [1.0, 2.0]


def test_pairwise_decompose_single_coupling_norm():
    H = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    decomp = pairwise_decompose(H)
    assert len(decomp.terms) == 1
    block, norm = decomp.term_norms()[0]
    assert block.labels == (0, 1)
    assert norm == pytest.approx(0.5, abs=1e-15)


def test_pairwise_decompose_example_ramp_endpoint():
    # the level-0 diagonal entry is exactly zero, so it contributes no term:
    # 10 singletons (levels 1..10) plus 10 nearest-neighbor pairs of norm 1/2
    H_f = build_example_ramp(1.0).h_final
    decomp = pairwise_decompose(H_f)
    singles = [b for b, _ in decomp.terms if b.size == 1]
    pairs = [(b, n) for b, n in decomp.term_norms() if b.size == 2]
    assert len(singles) == 10
    assert {b.labels[0] for b in singles} == set(range(1, 11))
    assert len(pairs) == 10
    for block, norm in pairs:
        assert block.diameter == 1
        assert norm == pytest.approx(0.5, abs=1e-15)


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
    """Each term stores its block's entry of H; singletons and upper-triangle
    pairs rebuild H, and every term has the norm |entry|."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        H = random_hermitian(rng, n)
        decomp = pairwise_decompose(H)
        assert decomp.dimension == n
        rebuilt = np.zeros((n, n), dtype=complex)
        for block, entry in decomp.terms:
            i, j = block.labels[0], block.labels[-1]
            assert entry == H[i, j]
            rebuilt[i, j] = entry
            rebuilt[j, i] = np.conj(entry)
        np.testing.assert_array_equal(rebuilt, H)
        for (block, norm), (_, entry) in zip(decomp.term_norms(), decomp.terms):
            assert norm == abs(entry)


def test_apply_permutation_moves_entries():
    H = np.diag([1.0, 2.0, 3.0])
    perm = np.array([2, 0, 1])  # old label i gets new label perm[i]
    out = apply_permutation(H, perm)
    np.testing.assert_allclose(np.diagonal(out), [2.0, 3.0, 1.0])
