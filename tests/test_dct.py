import numpy as np
import pytest

from scseg import build_basis
from scseg.dct import dct_atom, dct_vectors, zigzag_order

# First ten pairs of the zig-zag walk, enumerated by hand.
FIRST_TEN = [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (0, 3), (1, 2), (2, 1), (3, 0)]


def test_zigzag_small():
    assert zigzag_order(8, 3) == [(0, 0), (0, 1), (1, 0)]


def test_zigzag_first_ten():
    assert zigzag_order(64, 10) == FIRST_TEN


def test_zigzag_exhausts_plane():
    assert zigzag_order(2, 4) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_zigzag_is_permutation():
    order = zigzag_order(5, 25)
    assert sorted(order) == [(u, v) for u in range(5) for v in range(5)]


def test_zigzag_frequency_sum_nondecreasing():
    order = zigzag_order(7, 49)
    sums = [u + v for u, v in order]
    assert sums == sorted(sums)


@pytest.mark.parametrize("k", [0, 65])
def test_zigzag_k_out_of_range(k):
    with pytest.raises(ValueError):
        zigzag_order(8, k)


@pytest.mark.parametrize(
    "n, k, name", [(8, 3.0, "k"), (8.0, 3, "n"), (8, True, "k"), (8, np.float64(3), "k"), (np.True_, 1, "n")]
)
def test_sizes_must_be_integers(n, k, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build_basis(n, k)


def test_sizes_accept_numpy_integers():
    basis = build_basis(np.int64(8), np.int32(3))
    np.testing.assert_array_equal(basis.atoms, build_basis(8, 3).atoms)


def test_atom_dc_is_constant():
    np.testing.assert_allclose(dct_atom(0, 0, 4), np.full(16, 0.25))


def test_atom_unit_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        assert np.linalg.norm(dct_atom(u, v, n)) == pytest.approx(1.0, abs=1e-12)


def test_atom_vertical_frequency_layout():
    # varies down the rows, constant along each row, flattened row-major
    np.testing.assert_allclose(dct_atom(1, 0, 2), [0.5, 0.5, -0.5, -0.5], atol=1e-15)


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_atom_bits_are_one_frequency_at_a_time(n):
    # the solver's bits depend on the atoms': each is the outer product of two cosines
    # computed one frequency at a time, times the product of their two scales, and
    # build_basis's columns are those atoms
    grid = np.arange(n)
    basis = build_basis(n, min(n * n, 40))
    for j, (u, v) in enumerate(basis.freq_pairs):
        cu = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
        cv = np.sqrt(1.0 / n) if v == 0 else np.sqrt(2.0 / n)
        rows = np.cos(np.pi * u * (2 * grid + 1) / (2 * n))
        cols = np.cos(np.pi * v * (2 * grid + 1) / (2 * n))
        np.testing.assert_array_equal(dct_atom(u, v, n), (cu * cv) * np.outer(rows, cols).ravel())
        np.testing.assert_array_equal(basis.atoms[:, j], dct_atom(u, v, n))


@pytest.mark.parametrize("n", [2, 7, 64])
def test_vectors_are_the_atoms_factors(n):
    vectors = dct_vectors(range(n), n)
    assert vectors.shape == (n, n)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-12)
    for u, v in zigzag_order(n, min(n * n, 12)):
        np.testing.assert_allclose(np.outer(vectors[:, u], vectors[:, v]).ravel(), dct_atom(u, v, n), rtol=0, atol=1e-15)


@pytest.mark.parametrize("u,v", [(-1, 0), (0, 8), (8, 0)])
def test_atom_out_of_range(u, v):
    with pytest.raises(ValueError):
        dct_atom(u, v, 8)


def test_basis_orthonormal():
    basis = build_basis(64, 10)
    assert basis.atoms.shape == (4096, 10)
    gram = basis.atoms.T @ basis.atoms
    assert np.abs(gram - np.eye(10)).max() <= 1e-10


def test_basis_single_constant_column():
    basis = build_basis(4, 1)
    assert basis.atoms.shape == (16, 1)
    np.testing.assert_allclose(basis.atoms[:, 0], np.full(16, 0.25))


def test_basis_freq_pairs_follow_zigzag():
    basis = build_basis(8, 8)
    assert list(basis.freq_pairs) == zigzag_order(8, 8)


def test_basis_orthonormal_odd_sizes():
    basis = build_basis(5, 7)
    gram = basis.atoms.T @ basis.atoms
    assert np.abs(gram - np.eye(7)).max() <= 1e-10
