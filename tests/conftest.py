import numpy as np
import pytest

from darkpulse import FieldParams, dark_basis, relax_closed
from witnesses import relax_repumped


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_field(rng, **overrides) -> FieldParams:
    """A random field configuration covering the full angle ranges."""
    kwargs = dict(
        theta=rng.uniform(0.0, np.pi),
        phi=rng.uniform(0.0, 2.0 * np.pi),
        mu_minus=rng.uniform(0.0, 2.0 * np.pi),
        mu_plus=rng.uniform(0.0, 2.0 * np.pi),
        xi=rng.uniform(0.0, 2.0 * np.pi),
        omega_peak=rng.uniform(0.2, 3.0),
        delta=rng.uniform(-1.0, 1.0),
    )
    kwargs.update(overrides)
    return FieldParams(**kwargs)


def random_pure_ground(rng) -> np.ndarray:
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    return psi / np.linalg.norm(psi)


def random_density(rng, ground_only: bool = False) -> np.ndarray:
    """A random full-rank trace-one 4x4 density matrix (optionally ground-supported)."""
    dim = 3 if ground_only else 4
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    m = m / np.trace(m).real
    full = np.zeros((4, 4), dtype=complex)
    full[:dim, :dim] = m
    return full


def hermitian_with_min_eigenvalue(rng, lam: float, n: int = 1) -> np.ndarray:
    """n random trace-one Hermitian (n, 4, 4) matrices, each with smallest eigenvalue lam."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    eigs = rng.uniform(0.1, 1.0, size=(n, 4))
    eigs[:, 1:] *= (1.0 - lam) / eigs[:, 1:].sum(axis=1, keepdims=True)
    eigs[:, 0] = lam
    return (q * eigs[:, None, :]) @ q.conj().swapaxes(-1, -2)


def trajectory_states(table: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) snapshots held by the rows of a trajectory CSV's 19-column table.

    Columns 1-4 are the real diagonal, and 5-16 the real and imaginary parts of the
    upper triangle in row-major order, whose conjugates are the lower triangle.  Each
    part is set on its own, so no complex arithmetic rounds it.
    """
    rho = np.zeros((len(table), 4, 4), dtype=complex)
    i, j = np.triu_indices(4, 1)
    rho.real[:, range(4), range(4)] = table[:, 1:5]
    rho.real[:, i, j] = rho.real[:, j, i] = table[:, 5:17:2]
    rho.imag[:, i, j] = table[:, 6:17:2]
    rho.imag[:, j, i] = -table[:, 6:17:2]
    return rho


def fold_repumped(rho: np.ndarray, steps) -> np.ndarray:
    """The steps applied with the literal lossy + repumped map, the beta-regime reference."""
    for fp in steps:
        rho = relax_repumped(rho, fp)
    return rho


def fold_closed(rho: np.ndarray, steps) -> np.ndarray:
    """The steps applied one at a time with the literal closed-manifold map."""
    for fp in steps:
        rho = relax_closed(rho, dark_basis(fp).projector)
    return rho
