"""State space, field parameterization, and dark-state geometry of the four-level system.

The system is a degenerate lambda scheme: three ground states coupled to one
excited state by a single elliptically polarized pulse.  Everything in this
module is expressed in the ordered basis ``{|g->, |gpi>, |g+>, |e>}``; ground
space vectors are length-3 complex arrays over ``{|g->, |gpi>, |g+>}``.
Rates and times are dimensionless (units of the internal decay rate and its
inverse).

The drive is parameterized by two polarization angles (theta, phi), two
relative phases (mu-, mu+), a global phase xi, a peak Rabi amplitude, a
detuning, and an envelope.  For every such field the ground space splits into
a two-dimensional dark subspace (decoupled from the drive) and one bright
direction; ``dark_bases`` returns that geometry for a stack of fields (and
``dark_basis`` for one), and ``field_for_span`` solves the inverse problem of
aiming the dark subspace at a prescribed span.  Pure states are built from
ground vectors by ``pure_state_dyads`` alone.  A state is checked once, where it
enters (``DensityOperator.validate``); past that it is a plain ``(..., 4, 4)``
array.  ``smallest_eigenvalues`` decides positivity for the validation and the
integrator's monitor alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AngleUnderdetermined, DegenerateSpan

__all__ = [
    "Mode",
    "Envelope",
    "FieldParams",
    "DensityOperator",
    "DarkBasis",
    "TargetState",
    "embed_ground",
    "pure_state_dyads",
    "build_hamiltonian",
    "bright_vector",
    "bright_vector_jacobian",
    "dark_basis",
    "dark_bases",
    "field_for_span",
    "bloch_coords",
    "smallest_eigenvalues",
]

TWO_PI = 2.0 * np.pi
EPS = float(np.finfo(float).eps)

# indices in the ordered basis
G_MINUS, G_PI, G_PLUS, EXCITED = 0, 1, 2, 3


class Mode(str, Enum):
    """Relaxation regime: closed ground manifold (alpha) or lossy + repumped (beta)."""

    ALPHA = "alpha"
    BETA = "beta"


class Envelope(str, Enum):
    """Shared temporal envelope of the three polarization components."""

    SQUARE = "square"
    SINE_SQUARED = "sine_squared"

    def value_at(self, t: np.ndarray, duration: float) -> np.ndarray:
        """The envelope at the times ``t`` of a pulse of ``duration``."""
        if self is Envelope.SQUARE:
            return np.ones_like(t)
        return np.sin(np.pi * t / duration) ** 2


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _wrap_angle(a: float) -> float:
    # np.mod of a tiny negative rounds to exactly 2*pi; fold that back to 0
    w = float(np.mod(a, TWO_PI))
    return 0.0 if w == TWO_PI else w


@dataclass(frozen=True)
class FieldParams:
    """One pulse: polarization angles, relative phases, amplitude, detuning, envelope.

    Angles are canonicalized on construction: theta into [0, pi] (a reflected
    theta is absorbed by shifting phi by pi, which leaves the couplings
    unchanged), the remaining angles into [0, 2*pi).  Comparisons of field
    configurations should be made on reconstructed dark bases, never on raw
    angles, because of this aliasing.
    """

    theta: float
    phi: float
    mu_minus: float
    mu_plus: float
    xi: float = 0.0
    omega_peak: float = 1.0
    delta: float = 0.0
    envelope: Envelope = Envelope.SQUARE

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "mu_minus", "mu_plus", "xi", "delta"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 < self.omega_peak < np.inf:
            raise ValueError(f"omega_peak must be positive and finite, got {self.omega_peak}")
        theta = _wrap_angle(self.theta)
        phi = float(self.phi)
        if theta > np.pi:
            theta = TWO_PI - theta
            phi += np.pi
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", _wrap_angle(phi))
        object.__setattr__(self, "mu_minus", _wrap_angle(self.mu_minus))
        object.__setattr__(self, "mu_plus", _wrap_angle(self.mu_plus))
        object.__setattr__(self, "xi", _wrap_angle(self.xi))

    @property
    def angles(self) -> tuple[float, float, float, float]:
        return (self.theta, self.phi, self.mu_minus, self.mu_plus)


class DensityOperator:
    """A 4x4 Hermitian, positive-semidefinite matrix with trace in (0, 1].

    The matrix is validated on construction and stored read-only; :meth:`validate`
    checks a whole stack the same way, once, where the stack enters.
    """

    __slots__ = ("matrix",)

    HERMITICITY_TOL = 1e-12
    PSD_TOL = 1e-10
    TRACE_TOL = 1e-12

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        self.validate(m)
        object.__setattr__(self, "matrix", _readonly(m))

    @classmethod
    def validate(cls, matrices: np.ndarray) -> None:
        """Check a (..., 4, 4) stack of matrices as the constructor checks one.

        Raises the constructor's ValueError, naming a non-finite entry, the largest
        asymmetry, the smallest eigenvalue, or the smallest or largest trace of the stack.
        """
        if not np.isfinite(matrices).all():
            raise ValueError("matrix has a non-finite entry")
        herm = np.max(np.abs(matrices - matrices.swapaxes(-1, -2).conj()))
        if herm >= cls.HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
        min_eigs = smallest_eigenvalues(matrices, -cls.PSD_TOL)
        if min_eigs is not None and (min_eig := float(min_eigs.min())) < -cls.PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e}")
        traces = np.trace(matrices, axis1=-2, axis2=-1).real
        low, high = float(traces.min()), float(traces.max())
        if not (0.0 < low and high <= 1.0 + cls.TRACE_TOL):
            raise ValueError(f"trace {(high if 0.0 < low else low)!r} outside (0, 1]")


def smallest_eigenvalues(stack: np.ndarray, floor: float | None = None) -> np.ndarray | None:
    """The smallest eigenvalue of each matrix of a Hermitian (..., n, n) stack, nan if not finite.

    Given a ``floor`` below 0, None instead when a Cholesky factorization of the stack
    shifted by ``|floor| / 2`` shows every eigenvalue at least ``floor``: a completed one
    is exact for a matrix within ``(n + 1) u`` times the shifted trace (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.3), so it counts where four
    times that is below the shift.  Any other stack takes ``eigvalsh``, so the decision
    is always the eigenvalues'.  Both read the lower triangle.
    """
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if floor is not None and finite.all():
        shift, n = -0.5 * floor, stack.shape[-1]
        shifted = stack + shift * np.eye(n)
        if np.trace(shifted, axis1=-2, axis2=-1).real.max() * 2 * (n + 1) * EPS < shift:
            try:
                np.linalg.cholesky(shifted)
                return None
            except np.linalg.LinAlgError:
                pass
    if not finite.all():
        stack = np.where(finite[..., None, None], stack, 0.0)  # eigvalsh fails on these
    return np.where(finite, np.linalg.eigvalsh(stack)[..., 0], np.nan)


@dataclass(frozen=True)
class DarkBasis:
    """Orthonormal dark vectors, the bright ground vector, and the dark projector.

    ``n1`` and ``n2`` span the dark subspace, ``phi_perp`` is the unique ground
    direction that couples to the excited state, and ``projector`` is the 4x4
    projector onto span{n1, n2}.  One basis holds (3,) vectors; the bases of a
    stack of fields (:func:`dark_bases`) hold (S, 3) rows and (S, 4, 4) projectors.
    """

    n1: np.ndarray
    n2: np.ndarray
    phi_perp: np.ndarray
    projector: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "phi_perp"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))
        d1, d2 = pure_state_dyads(np.stack([self.n1, self.n2]))
        object.__setattr__(self, "projector", _readonly(d1 + d2))


@dataclass(frozen=True)
class TargetState:
    """A weighted pair of ground-space vectors defining the destination state.

    Weights and norms within 1e-9 of 1 are accepted, then normalized to trace 1.
    """

    weights: tuple[float, float]
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self) -> None:
        p1, p2 = self.weights
        if not (p1 >= 0 and p2 >= 0 and abs(p1 + p2 - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError(f"weights must be nonnegative and sum to 1, got {self.weights}")
        psi1 = np.asarray(self.psi1, dtype=complex)
        psi2 = np.asarray(self.psi2, dtype=complex)
        for name, psi in (("psi1", psi1), ("psi2", psi2)):
            if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:
                raise ValueError(f"{name} must be a unit vector")
        _span_normal(psi1, psi2)  # raises unless the pair are 3-vectors spanning a plane
        object.__setattr__(self, "weights", (p1 / (p1 + p2), p2 / (p1 + p2)))
        object.__setattr__(self, "psi1", _readonly(psi1 / np.linalg.norm(psi1)))
        object.__setattr__(self, "psi2", _readonly(psi2 / np.linalg.norm(psi2)))

    def density_matrix(self) -> np.ndarray:
        """The 4x4 target state p1 |psi1><psi1| + p2 |psi2><psi2|."""
        p1, p2 = self.weights
        d1, d2 = pure_state_dyads(np.stack([self.psi1, self.psi2]))
        return p1 * d1 + p2 * d2


def embed_ground(psi: np.ndarray) -> np.ndarray:
    """Lift a (..., 3) stack of ground-space vectors into the full space, shape (..., 4)."""
    full = np.zeros(np.shape(psi)[:-1] + (4,), dtype=complex)
    full[..., :3] = psi
    return full


def pure_state_dyads(states: np.ndarray) -> np.ndarray:
    """Pure states |psi><psi| of (..., 3) unit ground vectors (not normalized), (..., 4, 4)."""
    full = embed_ground(states)
    return full[..., :, None] * full.conj()[..., None, :]


def build_hamiltonian(fp: FieldParams, envelope_value: float = 1.0) -> np.ndarray:
    """Rotating-frame Hamiltonian (divided by hbar) for one instantaneous envelope value.

    The Rabi frequencies are the bright vector times the drive's complex
    amplitude; each ground state couples to the excited state with half its
    Rabi frequency, and the detuning sits on the excited-state projector.
    """
    if envelope_value < 0:
        raise ValueError("envelope_value must be nonnegative")
    omegas = bright_vector(np.array(fp.angles),
                           fp.omega_peak * envelope_value / 3.0 * np.exp(1j * fp.xi))
    h = np.zeros((4, 4), dtype=complex)
    h[:3, EXCITED] = omegas / 2.0
    h[EXCITED, :3] = omegas.conj() / 2.0
    h[EXCITED, EXCITED] = fp.delta
    return h


def bright_vector(angles: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """Bright ground vector for rows of angles (theta, phi, mu-, mu+), times ``scale``.

    The unit vector that couples to the excited state,
    ``[e^{i mu-} sin(theta) sin(phi), -cos(theta), e^{i mu+} sin(theta) cos(phi)]``;
    shape (..., 4) -> (..., 3).  Raw angles need no canonicalization: the
    reflection FieldParams applies to theta leaves this vector unchanged.
    """
    th, ph, mm, mp = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    # scale is multiplied in first, so each component is rounded in one fixed
    # order; scale * bright_vector(angles) would move the Hamiltonian's last bits
    return np.stack([
        scale * np.exp(1j * mm) * np.sin(th) * np.sin(ph),
        -scale * np.cos(th),
        scale * np.exp(1j * mp) * np.sin(th) * np.cos(ph),
    ], axis=-1)


def bright_vector_jacobian(angles: np.ndarray) -> np.ndarray:
    """Derivatives of :func:`bright_vector` by (theta, phi, mu-, mu+).

    Shape (..., 4) -> (..., 4, 3): entry [..., a, :] is d(bright vector)/d(angle a).
    """
    th, ph, mm, mp = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    em, ep = np.exp(1j * mm), np.exp(1j * mp)
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    out = np.zeros(th.shape + (4, 3), dtype=complex)
    out[..., 0, :] = np.stack([em * ct * sp, st, ep * ct * cp], axis=-1)
    out[..., 1, 0] = em * st * cp
    out[..., 1, 2] = -ep * st * sp
    out[..., 2, 0] = 1j * em * st * sp
    out[..., 3, 2] = 1j * ep * st * cp
    return out


def dark_basis(fp: FieldParams) -> DarkBasis:
    """Dark vectors, bright vector, and dark projector for a field configuration.

    Depends only on (theta, phi, mu-, mu+); amplitude, global phase, detuning,
    and envelope do not move the dark subspace.  The one-field case of
    :func:`dark_bases`.
    """
    return dark_bases(np.array(fp.angles))


def dark_bases(angles: np.ndarray) -> DarkBasis:
    """The dark bases of rows of angles (theta, phi, mu-, mu+), as one stacked DarkBasis.

    Shape (..., 4) -> ``n1``, ``n2``, ``phi_perp`` (..., 3) and ``projector``
    (..., 4, 4).  Every entry is computed elementwise, so a field's basis has the
    same bits in a stack as alone.
    """
    th, ph, mm, mp = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    n1 = np.stack([
        np.exp(1j * mm) * np.cos(th) * np.sin(ph),
        np.sin(th),
        np.exp(1j * mp) * np.cos(th) * np.cos(ph),
    ], axis=-1)
    n2 = np.stack([
        -np.exp(-1j * mp) * np.cos(ph),
        np.zeros_like(th),
        np.exp(-1j * mm) * np.sin(ph),
    ], axis=-1)
    return DarkBasis(n1=n1, n2=n2, phi_perp=bright_vector(angles))


def _span_normal(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Unit normal of span{psi1, psi2} in ground space, phase-canonicalized.

    The global phase is fixed so the pi component is real and nonnegative;
    if that component vanishes, the sigma- component is made real nonnegative
    instead (then the sigma+ one).  This pins the one-parameter gauge freedom.
    Raises ValueError unless both are finite 3-vectors, DegenerateSpan unless they span a plane.
    """
    psi1, psi2 = np.asarray(psi1, dtype=complex), np.asarray(psi2, dtype=complex)
    for name, psi in (("psi1", psi1), ("psi2", psi2)):
        if psi.shape != (3,) or not np.isfinite(psi).all():
            raise ValueError(f"{name} must be a finite ground-space 3-vector")
    # rows <psi_i|: one SVD gives sigma_min and, as the last right-singular
    # vector, the direction annihilated by both overlaps
    _, s, vh = np.linalg.svd(np.vstack([psi1.conj(), psi2.conj()]))
    if s[-1] < 1e-10:
        raise DegenerateSpan(f"psi1 and psi2 are linearly dependent (sigma_min={s[-1]:.3e})")
    c = vh[-1].conj()
    for idx in (G_PI, G_MINUS, G_PLUS):
        if abs(c[idx]) > 1e-12:
            c = c * np.exp(-1j * np.angle(c[idx]))
            break
    return c


def field_for_span(psi1: np.ndarray, psi2: np.ndarray) -> FieldParams:
    """Field angles whose dark subspace is span{psi1, psi2}, at the default drive.

    Solves the inverse problem: the bright vector of the returned field is the
    unit normal of the requested span, so both target vectors are annihilated
    by the drive.  Only when the normal is pi-polarized to rounding (sin theta
    < 1e-15) are phi and mu+- unobservable; they are then set to 0 and an
    :class:`AngleUnderdetermined` warning is emitted.

    Raises
    ------
    ValueError
        If psi1 or psi2 is not a finite 3-vector.
    DegenerateSpan
        If psi1 and psi2 do not span a two-dimensional subspace.
    """
    c = _span_normal(psi1, psi2)
    # theta from both its sine and cosine; arccos of -c_pi loses half the digits near 0 and pi
    theta = float(np.arctan2(np.hypot(abs(c[G_MINUS]), abs(c[G_PLUS])), -c[G_PI].real))
    if np.sin(theta) < 1e-15:
        warnings.warn("span normal is pi-polarized; phi and mu+- set to 0 by convention",
                      AngleUnderdetermined, stacklevel=2)
        return FieldParams(theta=theta, phi=0.0, mu_minus=0.0, mu_plus=0.0)
    return FieldParams(
        theta=theta,
        phi=float(np.arctan2(abs(c[G_MINUS]), abs(c[G_PLUS]))),
        mu_minus=float(np.angle(c[G_MINUS])),
        mu_plus=float(np.angle(c[G_PLUS])),
    )


def bloch_coords(matrices: np.ndarray, basis: DarkBasis) -> np.ndarray:
    """Bloch coordinates of the dark-subspace block of a (..., 4, 4) stack.

    Each state is projected into span{n1, n2} and the 2x2 block is expanded in
    Pauli operators with the z axis aligned to ``n1`` (z = +1 at |n1><n1|).
    Returns columns (x, y, z, in_span_weight): the raw (unnormalized) Pauli
    expectations and the trace of the block, so each point lies inside the
    sphere of radius ``in_span_weight``.  The map is affine in the state.  The
    matrices are not validated; check them once with
    :meth:`DensityOperator.validate`.
    """
    v1, v2 = embed_ground(basis.n1), embed_ground(basis.n2)
    rows = np.stack([v1.conj(), v2.conj()]) @ matrices  # <n1| rho and <n2| rho
    r11, r22, r12 = rows[..., 0, :] @ v1, rows[..., 1, :] @ v2, rows[..., 0, :] @ v2
    return np.stack([2.0 * r12.real, -2.0 * r12.imag, (r11 - r22).real, (r11 + r22).real],
                    axis=-1)
