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
direction; ``dark_basis`` returns that geometry and ``field_for_span`` solves
the inverse problem of aiming the dark subspace at a prescribed span.
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
    "build_hamiltonian",
    "bright_vector",
    "bright_vector_jacobian",
    "dark_basis",
    "field_for_span",
    "bloch_coords",
]

TWO_PI = 2.0 * np.pi

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

    def value_at(self, t: float, duration: float) -> float:
        if self is Envelope.SQUARE:
            return 1.0
        return float(np.sin(np.pi * t / duration) ** 2)


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
    duration: float = 1.0

    def __post_init__(self) -> None:
        angles = (self.theta, self.phi, self.mu_minus, self.mu_plus, self.xi)
        if not all(np.isfinite(a) for a in angles):
            raise ValueError("all angles must be finite")
        if not (self.omega_peak > 0):
            raise ValueError(f"omega_peak must be positive, got {self.omega_peak}")
        if not (self.duration > 0):
            raise ValueError(f"duration must be positive, got {self.duration}")
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

    The matrix is validated on construction and stored read-only.  ``trace_tol``
    and ``psd_tol`` exist for states produced by a finite-tolerance integrator,
    where transient excursions scale with the local error; analytic states use
    the defaults.  ``min_eigenvalue`` is passed on to :meth:`validate`.
    """

    __slots__ = ("matrix",)

    HERMITICITY_TOL = 1e-12
    PSD_TOL = 1e-10
    TRACE_TOL = 1e-12

    def __init__(self, matrix: np.ndarray, *, psd_tol: float | None = None,
                 trace_tol: float | None = None, min_eigenvalue: float | None = None) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        self.validate(m, psd_tol=psd_tol, trace_tol=trace_tol, min_eigenvalue=min_eigenvalue)
        object.__setattr__(self, "matrix", _readonly(m))

    @classmethod
    def validate(cls, matrices: np.ndarray, *, psd_tol: float | None = None,
                 trace_tol: float | None = None, min_eigenvalue: float | None = None) -> None:
        """Check a (..., 4, 4) stack of matrices as the constructor checks one.

        Raises the constructor's ValueError, naming the largest asymmetry, the
        smallest eigenvalue, or the smallest or largest trace of the stack.  A
        caller that already holds the stack's smallest eigenvalue passes it as
        ``min_eigenvalue`` and saves the ``eigvalsh``.
        """
        herm = np.max(np.abs(matrices - matrices.swapaxes(-1, -2).conj()))
        if herm >= cls.HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
        min_eig = (float(np.linalg.eigvalsh(matrices).min()) if min_eigenvalue is None
                   else min_eigenvalue)
        if min_eig < -(psd_tol if psd_tol is not None else cls.PSD_TOL):
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e}")
        traces = np.trace(matrices, axis1=-2, axis2=-1).real
        low, high = float(traces.min()), float(traces.max())
        slack = trace_tol if trace_tol is not None else cls.TRACE_TOL
        if not (0.0 < low and high <= 1.0 + slack):
            raise ValueError(f"trace {(high if 0.0 < low else low)!r} outside (0, 1]")

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityOperator":
        """Projector onto a pure state; accepts a ground 3-vector or full 4-vector."""
        psi = embed_ground(np.asarray(state, dtype=complex))
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def __repr__(self) -> str:
        return f"DensityOperator(trace={self.trace:.6f}, purity={self.purity():.6f})"


@dataclass(frozen=True)
class DarkBasis:
    """Orthonormal dark vectors, the bright ground vector, and the dark projector.

    ``n1`` and ``n2`` span the dark subspace, ``phi_perp`` is the unique ground
    direction that couples to the excited state, and ``projector`` is the 4x4
    projector onto span{n1, n2}.
    """

    n1: np.ndarray
    n2: np.ndarray
    phi_perp: np.ndarray
    projector: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "phi_perp"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))
        v1, v2 = embed_ground(self.n1), embed_ground(self.n2)
        object.__setattr__(self, "projector",
                           _readonly(np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())))

    def maximally_mixed(self) -> DensityOperator:
        """The maximally mixed state of the dark subspace, P_D / 2."""
        return DensityOperator(self.projector / 2.0)


@dataclass(frozen=True)
class TargetState:
    """A weighted pair of ground-space vectors defining the destination state."""

    weights: tuple[float, float]
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self) -> None:
        p1, p2 = self.weights
        if p1 < 0 or p2 < 0 or abs(p1 + p2 - 1.0) > 1e-9:
            raise ValueError(f"weights must be nonnegative and sum to 1, got {self.weights}")
        psi1 = np.asarray(self.psi1, dtype=complex)
        psi2 = np.asarray(self.psi2, dtype=complex)
        if psi1.shape != (3,) or psi2.shape != (3,):
            raise ValueError("psi1 and psi2 must be ground-space 3-vectors")
        for name, psi in (("psi1", psi1), ("psi2", psi2)):
            if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be a unit vector")
        smin = np.linalg.svd(np.column_stack([psi1, psi2]), compute_uv=False)[-1]
        if smin < 1e-10:
            raise DegenerateSpan(f"psi1 and psi2 are linearly dependent (sigma_min={smin:.3e})")
        object.__setattr__(self, "psi1", _readonly(psi1))
        object.__setattr__(self, "psi2", _readonly(psi2))

    def density_matrix(self) -> DensityOperator:
        p1, p2 = self.weights
        v1, v2 = embed_ground(self.psi1), embed_ground(self.psi2)
        return DensityOperator(p1 * np.outer(v1, v1.conj()) + p2 * np.outer(v2, v2.conj()))


def embed_ground(psi: np.ndarray) -> np.ndarray:
    """Lift a ground-space 3-vector into the full 4-dimensional space."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape == (4,):
        return psi
    if psi.shape != (3,):
        raise ValueError(f"expected a 3- or 4-vector, got shape {psi.shape}")
    full = np.zeros(4, dtype=complex)
    full[:3] = psi
    return full


def _coupling_components(fp: FieldParams, envelope_value: float) -> np.ndarray:
    """Rabi frequencies (Omega_-, Omega_pi, Omega_+) at the given envelope value."""
    om = fp.omega_peak * envelope_value / 3.0
    phase = np.exp(1j * fp.xi)
    return np.array([
        om * phase * np.exp(1j * fp.mu_minus) * np.sin(fp.theta) * np.sin(fp.phi),
        -om * phase * np.cos(fp.theta),
        om * phase * np.exp(1j * fp.mu_plus) * np.sin(fp.theta) * np.cos(fp.phi),
    ])


def build_hamiltonian(fp: FieldParams, envelope_value: float = 1.0) -> np.ndarray:
    """Rotating-frame Hamiltonian (divided by hbar) for one instantaneous envelope value.

    Each ground state couples to the excited state with half its Rabi
    frequency; the detuning sits on the excited-state projector.
    """
    if envelope_value < 0:
        raise ValueError("envelope_value must be nonnegative")
    omegas = _coupling_components(fp, envelope_value)
    h = np.zeros((4, 4), dtype=complex)
    h[:3, EXCITED] = omegas / 2.0
    h[EXCITED, :3] = omegas.conj() / 2.0
    h[EXCITED, EXCITED] = fp.delta
    return h


def bright_vector(angles: np.ndarray) -> np.ndarray:
    """Bright ground vector for rows of angles (theta, phi, mu-, mu+).

    The unit vector that couples to the excited state,
    ``[e^{i mu-} sin(theta) sin(phi), -cos(theta), e^{i mu+} sin(theta) cos(phi)]``;
    shape (..., 4) -> (..., 3).  Raw angles need no canonicalization: the
    reflection FieldParams applies to theta leaves this vector unchanged.
    """
    th, ph, mm, mp = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    return np.stack([
        np.exp(1j * mm) * np.sin(th) * np.sin(ph),
        -np.cos(th),
        np.exp(1j * mp) * np.sin(th) * np.cos(ph),
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
    envelope, and duration do not move the dark subspace.
    """
    th, ph, mm, mp = fp.theta, fp.phi, fp.mu_minus, fp.mu_plus
    n1 = np.array([
        np.exp(1j * mm) * np.cos(th) * np.sin(ph),
        np.sin(th),
        np.exp(1j * mp) * np.cos(th) * np.cos(ph),
    ])
    n2 = np.array([
        -np.exp(-1j * mp) * np.cos(ph),
        0.0,
        np.exp(-1j * mm) * np.sin(ph),
    ])
    return DarkBasis(n1=n1, n2=n2, phi_perp=bright_vector(np.array(fp.angles)))


def _span_normal(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Unit normal of span{psi1, psi2} in ground space, phase-canonicalized.

    The global phase is fixed so the pi component is real and nonnegative;
    if that component vanishes, the sigma- component is made real nonnegative
    instead (then the sigma+ one).  This pins the one-parameter gauge freedom.
    """
    psi1 = np.asarray(psi1, dtype=complex)[:3]
    psi2 = np.asarray(psi2, dtype=complex)[:3]
    smin = np.linalg.svd(np.column_stack([psi1, psi2]), compute_uv=False)[-1]
    if smin < 1e-10:
        raise DegenerateSpan(f"target vectors are linearly dependent (sigma_min={smin:.3e})")
    # rows <psi_i| ; the right-singular vector of the smallest singular value
    # is the direction annihilated by both overlaps
    overlaps = np.vstack([psi1.conj(), psi2.conj()])
    _, _, vh = np.linalg.svd(overlaps)
    c = vh[-1].conj()
    for idx in (G_PI, G_MINUS, G_PLUS):
        if abs(c[idx]) > 1e-12:
            c = c * np.exp(-1j * np.angle(c[idx]))
            break
    return c


def field_for_span(psi1: np.ndarray, psi2: np.ndarray, *, omega_peak: float = 1.0,
                   duration: float = 1.0, envelope: Envelope = Envelope.SQUARE) -> FieldParams:
    """Field angles whose dark subspace is span{psi1, psi2}.

    Solves the inverse problem: the bright vector of the returned field is the
    unit normal of the requested span, so both target vectors are annihilated
    by the drive.  When the normal is purely pi-polarized the angles phi and
    mu+- are unobservable; they are set to 0 and an :class:`AngleUnderdetermined`
    warning is emitted.

    Raises
    ------
    DegenerateSpan
        If psi1 and psi2 do not span a two-dimensional subspace.
    """
    c = _span_normal(psi1, psi2)
    theta = float(np.arccos(np.clip(-c[G_PI].real, -1.0, 1.0)))
    if np.sin(theta) < 1e-12:
        warnings.warn("span normal is pi-polarized; phi and mu+- set to 0 by convention",
                      AngleUnderdetermined, stacklevel=2)
        return FieldParams(theta=theta, phi=0.0, mu_minus=0.0, mu_plus=0.0,
                           omega_peak=omega_peak, duration=duration, envelope=envelope)
    return FieldParams(
        theta=theta,
        phi=float(np.arctan2(abs(c[G_MINUS]), abs(c[G_PLUS]))),
        mu_minus=float(np.angle(c[G_MINUS])),
        mu_plus=float(np.angle(c[G_PLUS])),
        omega_peak=omega_peak, duration=duration, envelope=envelope,
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
