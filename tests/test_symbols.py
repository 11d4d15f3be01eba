"""Symbol table, Clifford algebra, and dispersion branches."""

import numpy as np
import pytest

from bslab.symbols import (
    SymbolKind,
    SymbolSpec,
    clifford_generators,
    critical_values,
    dispersion_values,
    exchange_unitary,
    symbol_values,
)
from bslab.lattice import TorusGrid


@pytest.mark.parametrize("d", [1, 2, 3])
def test_clifford_relations(d):
    alphas, beta = clifford_generators(d)
    n = alphas[0].shape[0]
    eye = np.eye(n)
    for i, ai in enumerate(alphas):
        assert np.allclose(ai, ai.conj().T)
        for j, aj in enumerate(alphas):
            anti = ai @ aj + aj @ ai
            assert np.allclose(anti, 2.0 * (i == j) * eye, atol=1e-15)
        assert np.allclose(ai @ beta + beta @ ai, 0.0, atol=1e-15)
    assert np.allclose(beta @ beta, eye, atol=1e-15)
    assert np.allclose(beta, beta.conj().T)


def test_scalar_symbol_values():
    frac = SymbolSpec(SymbolKind.FRACTIONAL_LAPLACIAN, d=2, s=1.5)
    assert symbol_values(frac, [0.0, 0.0]) == 0.0
    assert symbol_values(frac, [3.0, 4.0]) == pytest.approx(5.0**1.5, rel=1e-15)
    rel = SymbolSpec(SymbolKind.RELATIVISTIC, d=1, s=1.0)
    assert symbol_values(rel, [0.0]) == 0.0
    # 1 + xi^2 = 4 -> sqrt(4) - 1 = 1
    assert symbol_values(rel, [np.sqrt(3.0)]) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize(
    "kind,d,n", [("dirac_massless", 1, 2), ("dirac_massless", 2, 2),
                 ("dirac_massless", 3, 4), ("dirac_massive", 2, 2), ("dirac_massive", 3, 4)]
)
def test_dirac_symbol_eigenvalues(kind, d, n):
    spec = SymbolSpec(kind, d=d)
    assert spec.n == n
    rng = np.random.default_rng(3)
    for _ in range(25):
        xi = rng.standard_normal(d)
        mat = symbol_values(spec, xi)
        assert np.allclose(mat, mat.conj().T)
        lam = np.linalg.norm(xi) if kind == "dirac_massless" else np.sqrt(1 + xi @ xi)
        expected = np.sort(np.r_[[-lam] * (n // 2), [lam] * (n // 2)])
        assert np.allclose(np.sort(np.linalg.eigvalsh(mat)), expected, atol=1e-12)
        # square of the symbol is lambda^2 * identity (drives the factorization)
        assert np.allclose(mat @ mat, lam**2 * np.eye(n), atol=1e-12)


def test_dispersion_matches_eigenvalues():
    rng = np.random.default_rng(11)
    spec = SymbolSpec("dirac_massive", d=3)
    xis = rng.standard_normal((40, 3))
    branches = dispersion_values(spec, xis)
    for xi, branch in zip(xis, branches):
        assert np.allclose(np.sort(branch), np.sort(np.linalg.eigvalsh(symbol_values(spec, xi))), atol=1e-12)


@pytest.mark.parametrize("kind", list(SymbolKind))
@pytest.mark.parametrize("d, N", [(2, 64), (3, 16)])
def test_exchange_unitary_carries_the_swapped_symbol_onto_the_symbol(kind, d, N):
    # U m(swap xi) U^H = m(xi) on every mode of the largest d = 2 and d = 3 grids;
    # massive Dirac in d = 2 has no such U (it would flip beta)
    spec = SymbolSpec(kind, d=d)
    U = exchange_unitary(spec)
    if kind is SymbolKind.DIRAC_MASSIVE and d == 2:
        assert U is None
        return
    n = spec.n
    assert U.shape == (n, n)
    assert np.abs(U - U.conj().T).max() <= 1e-15
    assert np.abs(U @ U - np.eye(n)).max() <= 1e-15
    xi = TorusGrid(d=d, N=N, L=7.3).xi()
    swapped = xi[..., [1, 0, 2][:d]]
    m, m_swapped = symbol_values(spec, xi), symbol_values(spec, swapped)
    if not spec.is_dirac:
        m, m_swapped = m[..., None, None], m_swapped[..., None, None]
    assert np.abs(U @ m_swapped @ U.conj().T - m).max() <= 1e-14


@pytest.mark.parametrize("kind", list(SymbolKind))
def test_exchange_unitary_needs_two_axes(kind):
    assert exchange_unitary(SymbolSpec(kind, d=1)) is None


def test_critical_value_table():
    assert critical_values(SymbolSpec("fractional_laplacian", d=2, s=1.5)) == (0.0,)
    assert critical_values(SymbolSpec("fractional_laplacian", d=2, s=1.0)) == ()
    assert critical_values(SymbolSpec("fractional_laplacian", d=2, s=0.7)) == ()
    assert critical_values(SymbolSpec("relativistic", d=3, s=0.5)) == (0.0,)
    assert critical_values(SymbolSpec("dirac_massless", d=2)) == ()
    assert critical_values(SymbolSpec("dirac_massive", d=2)) == (1.0, -1.0)


def test_validation():
    with pytest.raises(ValueError):
        SymbolSpec("fractional_laplacian", d=4, s=1.0)
    with pytest.raises(ValueError):
        SymbolSpec("fractional_laplacian", d=1, s=0.0)
    with pytest.raises(ValueError):
        SymbolSpec("fractional_laplacian", d=1, s=-1.0)
    with pytest.raises(ValueError):
        SymbolSpec("dirac_massless", d=2, s=1.5)
    with pytest.raises(ValueError):
        SymbolSpec("custom", d=1)
    with pytest.raises(ValueError):
        SymbolSpec("nonsense", d=1)
    # the acceptance configurations d=1, s=1.5 must construct
    SymbolSpec("fractional_laplacian", d=1, s=1.5)


@pytest.mark.parametrize("kind", list(SymbolKind))
@pytest.mark.parametrize("d", [True, 1.0, None])
def test_dimension_must_be_an_integer(kind, d):
    with pytest.raises(TypeError, match="d="):
        SymbolSpec(kind, d=d)
    assert SymbolSpec(kind, d=np.int64(2)).d == 2
