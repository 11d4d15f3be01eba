"""bslab.dense against numpy's LAPACK as the oracle, at round-off."""

import math

import numpy as np
from hypothesis import given, strategies as st

from bslab import dense
from bslab.birman_schwinger import regularized_det

sizes = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def assert_matches_slogdet(A):
    log_abs, angle = dense.logdet(A)
    sign, ref = np.linalg.slogdet(A)
    assert abs(log_abs - ref) <= 1e-12 * A.shape[0] * max(1.0, abs(ref))
    assert abs(angle) <= math.pi
    assert abs(np.exp(1j * angle) - sign) <= 1e-12 * A.shape[0]
    return log_abs, angle


@given(sizes, seeds)
def test_logdet_matches_slogdet(n, seed):
    assert_matches_slogdet(random_complex(n, seed))


@given(sizes, seeds)
def test_logdet_leaves_c_and_f_ordered_inputs_unchanged(n, seed):
    for A in (random_complex(n, seed), np.asfortranarray(random_complex(n, seed))):
        before = A.copy(order="K")
        assert_matches_slogdet(A)
        assert np.array_equal(A, before)


@given(st.integers(min_value=2, max_value=40), seeds, st.integers(min_value=0, max_value=7))
def test_each_row_swap_adds_pi(n, seed, swaps):
    rng = np.random.default_rng(seed)
    A = random_complex(n, seed)
    perm = np.arange(n)
    for _ in range(swaps):
        i, j = rng.choice(n, size=2, replace=False)
        perm[[i, j]] = perm[[j, i]]
    log_abs, angle = assert_matches_slogdet(A[perm])
    base_log, base_angle = dense.logdet(A)
    assert abs(log_abs - base_log) <= 1e-12 * n * max(1.0, abs(base_log))
    assert abs(np.exp(1j * angle) - (-1) ** swaps * np.exp(1j * base_angle)) <= 1e-12 * n


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=40), seeds)
def test_negative_diagonal_has_phase_pi_per_negative_entry(mags, seed):
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=len(mags))
    A = np.diag(signs * np.array(mags)).astype(complex)
    log_abs, angle = assert_matches_slogdet(A)
    assert abs(log_abs - np.sum(np.log(mags))) <= 1e-12 * len(mags)
    assert abs(abs(angle) - math.pi * (np.count_nonzero(signs < 0) % 2)) <= 1e-12 * len(mags)


@given(sizes, seeds, st.data())
def test_exactly_singular_matrix_gives_minus_inf_and_zero(n, seed, data):
    A = random_complex(n, seed)
    A[:, data.draw(st.integers(min_value=0, max_value=n - 1))] = 0.0
    assert dense.logdet(A) == (-math.inf, 0.0)
    assert np.linalg.slogdet(A) == (0.0, -math.inf)
    M = A - np.eye(n)  # I + M = A: the zero column survives the round trip exactly
    for order in (1, 2, 3):
        dv = regularized_det(M, order)
        assert dv.log_abs == -math.inf


@given(st.integers(min_value=1, max_value=200), seeds, st.integers(min_value=0, max_value=3), st.sampled_from([1.0, 1e-4, 1e-12]))
def test_hessenberg_logdet_matches_slogdet(n, seed, cuts, small):
    # zeros below the diagonal blocks make the Hessenberg form reducible; a
    # small subdiagonal overflows an unscaled back-substitution at n = 200,
    # and 1e-12 overflows ztrsv within one block of rows
    rng = np.random.default_rng([seed, 1])  # a stream apart from random_complex's
    A = np.triu(random_complex(n, seed), -1)
    A[np.arange(1, n), np.arange(n - 1)] *= small
    for cut in rng.integers(1, max(n, 2), size=cuts if n > 1 else 0):
        A[cut, cut - 1] = 0.0
    z = complex(*rng.standard_normal(2))
    logdet = dense.hessenberg_logdet(A.copy(order="F"))
    log_abs, angle = logdet(z)
    sign, ref = np.linalg.slogdet(A - z * np.eye(n))
    assert abs(log_abs - ref) <= 1e-12 * n * max(1.0, abs(ref))
    assert abs(angle) <= math.pi
    assert abs(np.exp(1j * angle) - sign) <= 1e-12 * n
    assert logdet(z) == (log_abs, angle)  # the shifted superdiagonals were restored bit for bit


def test_hessenberg_logdet_at_an_eigenvalue_gives_minus_inf_and_zero():
    logdet = dense.hessenberg_logdet(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert logdet(2.0) == (-math.inf, 0.0)
    assert logdet(2.5)[0] == math.log(0.5 * 0.5 * 1.5)


def assert_same_multiset(w, ref, tol):
    # LAPACK order can differ between BLAS builds; match each value to its nearest
    assert w.shape == ref.shape
    assert np.abs(w[:, None] - ref[None, :]).min(axis=1).max() <= tol
    assert np.abs(ref[:, None] - w[None, :]).min(axis=1).max() <= tol


@given(sizes, seeds)
def test_eigvals_match_numpy(n, seed):
    A = random_complex(n, seed)
    tol = 1e-10 * np.linalg.norm(A, 1)
    assert_same_multiset(dense.eigvals(A), np.linalg.eigvals(A), tol)


@given(sizes, seeds)
def test_eig_matches_numpy(n, seed):
    A = random_complex(n, seed)
    tol = 1e-10 * np.linalg.norm(A, 1)
    w, vecs = dense.eig(A)
    assert_same_multiset(w, np.linalg.eigvals(A), tol)
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-13)
    assert np.linalg.norm(A @ vecs - vecs * w, axis=0).max() <= tol


@given(sizes, seeds)
def test_eigvalsh_solves_the_hermitian_matrix_of_the_upper_triangle(n, seed):
    A = random_complex(n, seed)  # its lower triangle is not the upper one's adjoint
    H = np.triu(A, 1) + np.triu(A, 1).conj().T + np.diag(A.diagonal().real)
    w = dense.eigvalsh(np.asfortranarray(A))
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - np.linalg.eigvalsh(H)).max() <= 1e-13 * n * np.linalg.norm(H, 1)


@given(sizes, seeds)
def test_svdvals_match_numpy(n, seed):
    A = random_complex(n, seed)
    sv, ref = dense.svdvals(A), np.linalg.svd(A, compute_uv=False)
    assert np.all(np.diff(sv) <= 0)
    assert np.abs(sv - ref).max() <= 1e-13 * n * ref[0]
