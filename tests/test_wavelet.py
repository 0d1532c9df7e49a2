"""Transform correctness against a dense-matrix oracle built from scratch.

The oracle assembles the full N x N analysis matrix row by row from the
2x2 block definition, independently of the strided implementation, so the
two can only agree if both encode the same linear map.
"""

import numpy as np
import pytest

from pmtk.errors import DimensionError
from pmtk.wavelet import SubbandSet, blocks, dwt2, idwt2, merge

from subbands import detail_magnitude


def haar_matrix(h: int, w: int) -> np.ndarray:
    """Dense analysis matrix mapping vec(u) to vec(ll|lh|hl|hh)."""
    n = h * w
    W = np.zeros((n, n))
    hh_, wh = h // 2, w // 2
    band_size = hh_ * wh

    def flat(i, j):
        return i * w + j

    for bi in range(hh_):
        for bj in range(wh):
            out = bi * wh + bj
            a, b = flat(2 * bi, 2 * bj), flat(2 * bi, 2 * bj + 1)
            c, d = flat(2 * bi + 1, 2 * bj), flat(2 * bi + 1, 2 * bj + 1)
            for band, signs in enumerate(((1, 1, 1, 1), (1, -1, 1, -1),
                                          (1, 1, -1, -1), (1, -1, -1, 1))):
                row = band * band_size + out
                for col, s in zip((a, b, c, d), signs):
                    W[row, col] = 0.5 * s
    return W


def stack_bands(s: SubbandSet) -> np.ndarray:
    return np.concatenate([band.reshape(-1) for band in s])


@pytest.mark.parametrize("shape", [(2, 2), (4, 6), (8, 8), (16, 10)])
def test_matches_dense_oracle(shape):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(shape)
    W = haar_matrix(*shape)
    expect = W @ u.reshape(-1)
    got = stack_bands(dwt2(u))
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_analysis_matrix_is_orthonormal():
    W = haar_matrix(6, 8)
    np.testing.assert_allclose(W.T @ W, np.eye(48), atol=1e-12)


def test_single_block_butterfly_is_symmetric_involution():
    # on one 2x2 block the band order coincides with the butterfly's own
    # output order, so the dense matrix is its own inverse; larger fields
    # interleave blocks into stacked bands and lose the symmetry (but not
    # the orthogonality, covered above)
    W = haar_matrix(2, 2)
    np.testing.assert_allclose(W, W.T, atol=1e-12)
    np.testing.assert_allclose(W @ W, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (6, 4), (32, 32), (64, 64)])
def test_perfect_reconstruction(shape):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(shape)
    np.testing.assert_allclose(idwt2(dwt2(u)), u, atol=1e-12)


def test_parseval_energy_equality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.standard_normal((16, 16))
        s = dwt2(u)
        e_bands = sum(float(np.sum(b * b)) for b in s)
        assert abs(e_bands - float(np.sum(u * u))) <= 1e-10 * max(1.0, e_bands)


def test_self_adjoint_under_inner_product():
    # <dwt2(u), s> == <u, idwt2(s)> elementwise over stacked bands
    rng = np.random.default_rng(3)
    u = rng.standard_normal((8, 8))
    s = SubbandSet(*(rng.standard_normal((4, 4)) for _ in range(4)))
    lhs = float(np.dot(stack_bands(dwt2(u)), stack_bands(s)))
    rhs = float(np.dot(u.reshape(-1), idwt2(s).reshape(-1)))
    assert abs(lhs - rhs) <= 1e-10


def test_batched_axes_match_loop():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2, 8, 8))
    s = dwt2(x)
    for b in range(3):
        for c in range(2):
            single = dwt2(x[b, c])
            for got, want in zip(s, single):
                np.testing.assert_array_equal(got[b, c], want)


def test_constant_field_concentrates_in_ll():
    s = dwt2(np.full((6, 6), 2.5))
    np.testing.assert_allclose(s.ll, 5.0)
    for band in (s.lh, s.hl, s.hh):
        np.testing.assert_array_equal(band, 0.0)


def test_detail_magnitude_ignores_hh():
    s = SubbandSet(ll=np.zeros((2, 2)), lh=np.full((2, 2), 3.0),
                   hl=np.full((2, 2), 4.0), hh=np.full((2, 2), 99.0))
    np.testing.assert_allclose(detail_magnitude(s), 5.0)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (1, 4), (4,), (5, 5), (0, 4), (4, 0)])
def test_odd_or_short_extents_rejected(shape):
    for fn in (dwt2, blocks):
        with pytest.raises(DimensionError):
            fn(np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 2), (6, 8), (2, 3, 8, 6)])
def test_merge_inverts_blocks(shape, dtype):
    u = np.random.default_rng(5).standard_normal(shape).astype(dtype)
    got = merge(blocks(u))
    assert got.dtype == u.dtype
    assert got.tobytes() == u.tobytes()


def test_merge_of_planes_is_a_new_array():
    u = np.arange(48.0).reshape(6, 8)
    planes = np.stack(blocks(u))
    got = merge(planes)
    assert not np.shares_memory(got, planes)
    assert not np.shares_memory(got, u)
    np.testing.assert_array_equal(got, u)


def test_mismatched_subband_shapes_rejected():
    good = np.zeros((2, 2))
    with pytest.raises(DimensionError):
        idwt2(SubbandSet(good, good, good, np.zeros((2, 3))))
