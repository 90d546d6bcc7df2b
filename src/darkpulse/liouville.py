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

from dataclasses import dataclass

import numpy as np

from .core import (DarkBasis, FieldParams, Mode, _readonly, build_hamiltonian, embed_ground,
                   pure_state_dyads)
from .errors import UnexpectedDimension, UnstableSpectrum
from .maps import _TRACE_ROW

__all__ = [
    "Rates",
    "Liouvillian",
    "ZeroSubspace",
    "vec",
    "unvec",
    "build_liouvillian",
    "zero_subspace",
    "closed_form_zero_modes",
    "slowest_rate",
    "principal_angles",
    "transpose_convention_diagnostic",
]

NULL_SPACE_RTOL = 1e-10

_EXCITED_PROJECTOR = np.zeros((4, 4))
_EXCITED_PROJECTOR[3, 3] = 1.0


@dataclass(frozen=True)
class Rates:
    """Decay and repump rates; the regime is read off them.

    gamma_ext = r_pump = 0 is mode alpha and both positive is mode beta; a
    mixed pair is rejected.  gamma_in sets the unit system and must be positive.
    """

    gamma_in: float
    gamma_ext: float = 0.0
    r_pump: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.gamma_in < np.inf:
            raise ValueError(f"gamma_in must be positive and finite, got {self.gamma_in}")
        for name in ("gamma_ext", "r_pump"):
            if not 0 <= (value := getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        if (self.gamma_ext > 0) != (self.r_pump > 0):
            raise ValueError(f"mixed rates gamma_ext = {self.gamma_ext} and r_pump = {self.r_pump}: "
                             "both must be 0 (mode alpha) or both positive (mode beta)")

    @property
    def mode(self) -> Mode:
        return Mode.BETA if self.gamma_ext > 0 else Mode.ALPHA

    @classmethod
    def alpha(cls, gamma_in: float = 1.0) -> "Rates":
        return cls(gamma_in=gamma_in)

    @classmethod
    def beta(cls, gamma_in: float = 1.0, gamma_ext: float = 1.0, r_pump: float = 1.0) -> "Rates":
        return cls(gamma_in=gamma_in, gamma_ext=gamma_ext, r_pump=r_pump)


@dataclass(frozen=True)
class Liouvillian:
    """The 16x16 generator ``m``, constant drive ``d``, and their provenance."""

    m: np.ndarray
    d: np.ndarray
    rates: Rates
    field: FieldParams

    def __post_init__(self) -> None:
        for name in ("m", "d"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))


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
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))


def vec(rho: np.ndarray) -> np.ndarray:
    """Flatten a 4x4 operator row-major into a 16-vector."""
    return np.asarray(rho, dtype=complex).reshape(16)


def unvec(r: np.ndarray) -> np.ndarray:
    """Reshape a 16-vector back into a 4x4 operator."""
    return np.asarray(r, dtype=complex).reshape(4, 4)


def _relaxation_part(rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """The field-independent ``(m, d)`` of ``rates``: decay, loss and repump.

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
    return m, d


def build_liouvillian(fp: FieldParams, rates: Rates, envelope_value: float = 1.0) -> Liouvillian:
    """Assemble the vectorized generator for one instantaneous envelope value.

    Uses vec(A rho B) = (A kron B^T) vec(rho) for the row-major convention.
    Only the commutator depends on the field; the relaxation part comes from
    ``rates`` alone.  Raises UnstableSpectrum if an entry overflows the double range.
    """
    h = build_hamiltonian(fp, envelope_value)
    eye4 = np.eye(4)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        relaxation, d = _relaxation_part(rates)
        m = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T)) + relaxation
    if not np.isfinite(m).all():
        raise UnstableSpectrum("generator entries overflow the double range")
    return Liouvillian(m=m, d=d, rates=rates, field=fp)


def zero_subspace(liou: Liouvillian) -> ZeroSubspace:
    """Biorthonormalized zero-eigenvalue subspaces of the homogeneous generator.

    Right vectors span ker(m) and left vectors ker(m^dagger), both read off one SVD
    of ``m`` at its zero singular values; the left ones are rescaled so the pairing
    (left_k | right_l) is the identity.  The dimension must be 4 in alpha, 3 in beta.

    Raises
    ------
    UnexpectedDimension
        If SVD thresholding finds a different null dimension.
    """
    expected = 4 if liou.rates.mode is Mode.ALPHA else 3
    u, s, vh = np.linalg.svd(liou.m)
    zero = s < NULL_SPACE_RTOL * s[0]
    right, left = vh[zero].conj(), u[:, zero].T
    if right.shape[0] != expected:
        raise UnexpectedDimension(
            f"null dimensions (right=left={right.shape[0]}) "
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
    v1, v2 = embed_ground(np.stack([basis.n1, basis.n2]))
    d11, d22 = pure_state_dyads(np.stack([basis.n1, basis.n2]))
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


def _orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the column span of ``a``, by SVD with scipy's ``orth`` rank cut."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cut = s[0] * max(a.shape) * np.finfo(float).eps
    return u[:, s > cut]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of ``a`` and ``b``, largest first.

    Both bases are orthonormalized; with ``Q2`` the smaller one, the cosines
    are the singular values of ``Q1^H Q2`` and the sines those of
    ``Q2 - Q1 (Q1^H Q2)`` (Bjorck & Golub 1973).  Each angle is taken from its
    sine and cosine together, so angles near 0 are resolved from the sines,
    where ``arccos`` of a cosine cannot go below about 1e-8.
    """
    q1, q2 = _orthonormal_columns(a), _orthonormal_columns(b)
    if q1.shape[1] < q2.shape[1]:
        q1, q2 = q2, q1
    cross = q1.conj().T @ q2
    cosines = np.linalg.svd(cross, compute_uv=False)
    sines = np.linalg.svd(q2 - q1 @ cross, compute_uv=False)
    # cosines fall and sines rise along the angles, smallest angle first
    return np.arctan2(sines[::-1], cosines)[::-1]


def transpose_convention_diagnostic(subspace: ZeroSubspace) -> dict:
    """Compare the plain-transpose left kernel against the conjugate-transpose one.

    Left eigenvectors can be read either as ker(m^T) or as ker(m^dagger), which differ for
    complex generators; the first is exactly the conjugate of ``subspace.left``, the second.
    Returns the maximum principal angle between them and whether they coincide to 1e-9.
    """
    max_angle = float(principal_angles(subspace.left.T, subspace.left.T.conj()).max())
    return {"coincide": bool(max_angle < 1e-9), "max_principal_angle_rad": max_angle}
