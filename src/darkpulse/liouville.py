"""Vectorized master-equation generator, its spectrum, and zero subspaces.

Density operators are flattened row-major, ``r[4*(i-1)+j] = rho_ij`` in
1-based index notation, so ``vec``/``unvec`` are plain reshapes.  The scalar
product between vectorized operators is the conjugating one,
``(r1|r2) = sum_s conj(r1_s) r2_s = Tr{rho1 rho2}`` for Hermitian operators.

The generator splits as ``dr/dt = M r + d``: ``M`` carries the commutator,
the three internal-decay dissipators, the external-loss anticommutator, and
the linear part of the repump; ``d`` is the constant repump feed.  With no
external loss the equation is homogeneous and the kernel of ``M`` is
four-dimensional (left and right kernels differ); with loss and repump the
kernel of the homogeneous part is three-dimensional and self-dual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (DarkBasis, DensityOperator, FieldParams, Mode, _readonly,
                   build_hamiltonian, embed_ground)
from .errors import SingularSystem, UnexpectedDimension, UnstableSpectrum
from .maps import repump_steady_state

__all__ = [
    "Mode",
    "Rates",
    "Liouvillian",
    "ZeroSubspace",
    "vec",
    "unvec",
    "build_liouvillian",
    "zero_subspace",
    "closed_form_zero_modes",
    "steady_affine",
    "slowest_rate",
    "transpose_convention_diagnostic",
]

NULL_SPACE_RTOL = 1e-10

_EXCITED_PROJECTOR = np.zeros((4, 4))
_EXCITED_PROJECTOR[3, 3] = 1.0
_TRACE_ROW = np.eye(4).reshape(16)


@dataclass(frozen=True)
class Rates:
    """Decay and repump rates, with the regime they imply.

    Mode alpha requires gamma_ext = r_pump = 0; mode beta requires both
    positive.  gamma_in sets the unit system and must be positive.
    """

    gamma_in: float
    gamma_ext: float = 0.0
    r_pump: float = 0.0
    mode: Mode = Mode.ALPHA

    def __post_init__(self) -> None:
        if not (self.gamma_in > 0):
            raise ValueError(f"gamma_in must be positive, got {self.gamma_in}")
        if self.gamma_ext < 0 or self.r_pump < 0:
            raise ValueError("gamma_ext and r_pump must be nonnegative")
        if self.mode is Mode.ALPHA and (self.gamma_ext != 0 or self.r_pump != 0):
            raise ValueError("mode alpha requires gamma_ext = r_pump = 0")
        if self.mode is Mode.BETA and not (self.gamma_ext > 0 and self.r_pump > 0):
            raise ValueError("mode beta requires gamma_ext > 0 and r_pump > 0")

    @classmethod
    def alpha(cls, gamma_in: float = 1.0) -> "Rates":
        return cls(gamma_in=gamma_in, mode=Mode.ALPHA)

    @classmethod
    def beta(cls, gamma_in: float = 1.0, gamma_ext: float = 1.0, r_pump: float = 1.0) -> "Rates":
        return cls(gamma_in=gamma_in, gamma_ext=gamma_ext, r_pump=r_pump, mode=Mode.BETA)


@dataclass(frozen=True)
class Liouvillian:
    """The 16x16 generator ``m``, constant drive ``d``, and their provenance."""

    m: np.ndarray
    d: np.ndarray
    rates: Rates
    field: FieldParams

    def __post_init__(self) -> None:
        for name in ("m", "d"):
            a = np.asarray(getattr(self, name), dtype=complex)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ZeroSubspace:
    """Biorthonormal right/left null vectors of a generator.

    Rows of ``right`` and ``left`` are vectorized operators satisfying
    ``m @ right_k = 0`` and ``left_k^dagger @ m = 0``, normalized so that
    ``(left_k | right_l) = delta_kl`` under the conjugating scalar product.
    """

    right: np.ndarray
    left: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        for name in ("right", "left"):
            a = np.asarray(getattr(self, name), dtype=complex)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def vec(rho: np.ndarray) -> np.ndarray:
    """Flatten a 4x4 operator row-major into a 16-vector."""
    return np.asarray(rho, dtype=complex).reshape(16)


def unvec(r: np.ndarray) -> np.ndarray:
    """Reshape a 16-vector back into a 4x4 operator."""
    return np.asarray(r, dtype=complex).reshape(4, 4)


@functools.lru_cache(maxsize=16)
def _relaxation_part(rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """The field-independent ``(m, d)`` of ``rates``: decay, loss and repump, read-only.

    The three internal channels |g_q><e| decay at rate gamma_in/3 each; their
    jump operators sum to the excited projector in the anticommutator.  The
    repump R_p (1 - Tr rho) |e><e| gives its linear part to ``m`` and its
    constant part to ``d``.
    """
    eye4 = np.eye(4)
    m = np.zeros((16, 16), dtype=complex)
    for q in range(3):
        jump = np.zeros((4, 4))
        jump[q, 3] = 1.0 / np.sqrt(3.0)
        m = m + rates.gamma_in * np.kron(jump, jump)
    half_loss = (rates.gamma_in + rates.gamma_ext) / 2.0
    m = m - half_loss * (np.kron(_EXCITED_PROJECTOR, eye4) + np.kron(eye4, _EXCITED_PROJECTOR))
    m = m - rates.r_pump * np.outer(vec(_EXCITED_PROJECTOR), _TRACE_ROW)
    d = rates.r_pump * vec(_EXCITED_PROJECTOR)
    return _readonly(m), _readonly(d)


def build_liouvillian(fp: FieldParams, rates: Rates, envelope_value: float = 1.0) -> Liouvillian:
    """Assemble the vectorized generator for one instantaneous envelope value.

    Uses vec(A rho B) = (A kron B^T) vec(rho) for the row-major convention.
    Only the commutator depends on the field; the relaxation part is built
    once per ``Rates``.
    """
    h = build_hamiltonian(fp, envelope_value)
    eye4 = np.eye(4)
    relaxation, d = _relaxation_part(rates)
    m = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T)) + relaxation
    return Liouvillian(m=m, d=d, rates=rates, field=fp)


def _null_space(a: np.ndarray) -> np.ndarray:
    """Rows spanning the right null space of ``a``, by SVD thresholding."""
    _, s, vh = np.linalg.svd(a)
    return vh[s < NULL_SPACE_RTOL * s[0]].conj()


def zero_subspace(liou: Liouvillian) -> ZeroSubspace:
    """Biorthonormalized zero-eigenvalue subspaces of the homogeneous generator.

    Right vectors span ker(m); left vectors span ker(m^dagger) and are
    rescaled so the pairing (left_k | right_l) is the identity.  The detected
    dimension must be 4 in mode alpha and 3 in mode beta.

    Raises
    ------
    UnexpectedDimension
        If SVD thresholding finds a different null dimension on either side.
    """
    expected = 4 if liou.rates.mode is Mode.ALPHA else 3
    right = _null_space(liou.m)
    left = _null_space(liou.m.conj().T)
    if right.shape[0] != expected or left.shape[0] != expected:
        raise UnexpectedDimension(
            f"null dimensions (right={right.shape[0]}, left={left.shape[0]}) "
            f"differ from {expected} expected in mode {liou.rates.mode.value}")
    # rescale the left family so the cross Gram matrix becomes the identity:
    # with left'_k = sum_j conj(inv(G))_kj left_j the pairing becomes delta_kl
    gram = left.conj() @ right.T
    left = np.linalg.inv(gram).conj() @ left
    return ZeroSubspace(right=right, left=left, dimension=expected)


def closed_form_zero_modes(basis: DarkBasis, mode: Mode) -> ZeroSubspace:
    """Zero modes assembled from the dark vectors instead of numerics.

    The right modes are the four Hermitian combinations of the dark dyads
    (difference, real and imaginary cross terms, and the dark projector), each
    divided by sqrt(2).  The left modes coincide with the right ones except
    for the fourth, which is the identity over sqrt(2).  Mode beta keeps only
    the first three, which are self-dual.  The family is biorthonormal as
    returned.
    """
    v1, v2 = embed_ground(basis.n1), embed_ground(basis.n2)
    d11 = np.outer(v1, v1.conj())
    d22 = np.outer(v2, v2.conj())
    d12 = np.outer(v1, v2.conj())
    d21 = np.outer(v2, v1.conj())
    s = 1.0 / np.sqrt(2.0)
    rights = [s * (d11 - d22), s * (d12 + d21), 1j * s * (d21 - d12), s * (d11 + d22)]
    lefts = rights[:3] + [s * np.eye(4, dtype=complex)]
    if mode is Mode.BETA:
        rights, lefts = rights[:3], lefts[:3]
    right = np.array([vec(r) for r in rights])
    left = np.array([vec(l) for l in lefts])
    return ZeroSubspace(right=right, left=left, dimension=right.shape[0])


def steady_affine(liou: Liouvillian) -> DensityOperator:
    """The constant offset state of the repumped dynamics, solving m r + d = 0.

    The minimum-norm least-squares solution fixes the component outside the
    kernel; the kernel component is then matched to the closed-form offset
    state (the second dark dyad), and the combined vector is verified to
    solve the system.

    Raises
    ------
    SingularSystem
        If no solution within tolerance matches the closed form.
    """
    if liou.rates.mode is not Mode.BETA:
        raise ValueError("steady_affine requires mode beta (gamma_ext, r_pump > 0)")
    particular, *_ = np.linalg.lstsq(liou.m, -liou.d, rcond=None)
    closed = vec(repump_steady_state(liou.field).matrix)
    # the two solutions may only differ inside the kernel
    gap = closed - particular
    if np.linalg.norm(liou.m @ gap) > 1e-9 * max(np.linalg.norm(liou.m), 1.0):
        raise SingularSystem("least-squares solution is not reconcilable with the closed form")
    residual = np.linalg.norm(liou.m @ closed + liou.d)
    if residual > 1e-10:
        raise SingularSystem(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return DensityOperator(unvec(closed))


def slowest_rate(liou: Liouvillian) -> float:
    """Smallest |Re lambda| over the nonzero spectrum; the convergence bottleneck.

    Eigenvalues with modulus below 1e-9 of the spectral radius count as zero
    modes and are excluded.  Every retained eigenvalue must sit in the closed
    left half plane, and the smallest retained |Re lambda| must be nonzero.

    Raises
    ------
    UnstableSpectrum
        If any eigenvalue has real part above 1e-9, a retained one above 1e-12,
        or the slowest retained rate is exactly 0 (no finite duration damps it).
    """
    lam = np.linalg.eigvals(liou.m)
    radius = float(np.abs(lam).max())
    if float(lam.real.max()) > 1e-9:
        raise UnstableSpectrum(f"eigenvalue with Re = {lam.real.max():.3e} > 1e-9")
    nonzero = lam[np.abs(lam) > 1e-9 * radius]
    if nonzero.size == 0:
        raise UnstableSpectrum("no nonzero eigenvalues found")
    if float(nonzero.real.max()) > 1e-12:
        raise UnstableSpectrum(f"nonzero eigenvalue with Re = {nonzero.real.max():.3e} > 1e-12")
    rate = float(np.min(np.abs(nonzero.real)))
    if rate == 0.0:
        raise UnstableSpectrum("slowest nonzero eigenvalue has Re = 0: the rate is not resolved")
    return rate


def transpose_convention_diagnostic(liou: Liouvillian) -> dict:
    """Compare the plain-transpose left kernel against the conjugate-transpose one.

    Left eigenvectors can be read either as ker(m^T) or as ker(m^dagger);
    these differ for complex generators.  Returns the maximum principal angle
    between the two subspaces and whether they coincide to 1e-9.
    """
    left_conj = _null_space(liou.m.conj().T)
    left_plain = _null_space(liou.m.T)
    if left_conj.shape[0] != left_plain.shape[0]:
        return {"coincide": False, "max_principal_angle_rad": float(np.pi / 2),
                "dim_conjugate": int(left_conj.shape[0]), "dim_plain": int(left_plain.shape[0])}
    angles = scipy.linalg.subspace_angles(left_conj.T, left_plain.T)
    max_angle = float(angles.max()) if angles.size else 0.0
    return {"coincide": bool(max_angle < 1e-9), "max_principal_angle_rad": max_angle,
            "dim_conjugate": int(left_conj.shape[0]), "dim_plain": int(left_plain.shape[0])}
