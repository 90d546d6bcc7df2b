"""Pulse dynamics under the full master equation, and certification of the analytic maps.

Within one pulse the generator is ``dr/dt = (M0 + E(t) Mdrive) r + d``; on
the augmented state ``y = [r; 1]`` it is ``dy/dt = A(t) y`` with
``A = [[M, d], [0, 0]]`` (Van Loan 1978).  A square envelope makes ``A``
constant, so :func:`propagate_exact` takes the exact snapshots from one matrix
exponential.  Time-dependent envelopes are integrated by
:func:`integrate_master` with an embedded adaptive Runge-Kutta pair
(Dormand-Prince 5(4)) under local error control; it accepts square pulses too.
These two are the one-state witnesses of :func:`run_sequence`.

:func:`run_sequence` drives a block of states through a whole sequence.  The
relaxation part of the generator is invariant under ground-space unitaries,
so two pulses that share ``(omega_peak, delta, envelope)`` (a key) differ only
by a ground rotation ``U``: ``M(fp) = W M_ref W^dagger`` with
``W = U kron conj(U)``.  The first pulse of each key is its reference: it gets
the key's one duration and its one propagator, the exponential step of a
square pulse or, for other envelopes, one RK45 solve of the 17-column
propagator at its 65 snapshot times.  Every pulse of the key then maps a state
as ``rho(t_k) = U P_k[U^dagger rho U] U^dagger`` on the 4x4 stack; the
reference pulse itself takes ``U = 1``.  A time-dependent pulse whose key does
not recur has nothing to share, so its states are integrated directly.  So
one state through one pulse (:func:`run_pulse`) is its witness bit for bit.
A pulse record charges the solve's right-hand-side evaluations
(``nfev``) to the pulse that made it and 0 to the pulses that reuse it.  The
propagator lives for one call: nothing is kept between calls.

Pulse durations come from the spectral gap: driving for
``ln(1/residual) / |Re lambda_slow|`` leaves the distance between the endpoint
and the analytic relaxation map at roughly the requested residual, which
:func:`verify_map` measures directly.  The spectrum is the same for every
pulse of a key, so one duration serves them all.  The map is the same in both
relaxation regimes; only the driven dynamics differ.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import write_csv
from .core import DarkBasis, DensityOperator, Envelope, FieldParams, dark_basis
from .errors import PositivityViolation, StepSizeUnderflow, TraceViolation
from .liouville import Liouvillian, Rates, build_liouvillian, slowest_rate
from .maps import hs_distance, relax_closed

__all__ = [
    "PulseRecord",
    "Trajectory",
    "integrate_master",
    "propagate_exact",
    "propagator_name",
    "recommended_duration",
    "run_pulse",
    "run_pulse_block",
    "run_sequence",
    "verify_map",
    "write_trajectory_csv",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
MIN_SNAPSHOTS = 65


def __getattr__(name: str):
    # scipy.integrate costs most of a second to import and only time-dependent
    # envelopes use it, so solve_ivp is loaded on first use and kept as a module
    # global; _integrate calls it through the module, so a rebinding is seen
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PulseRecord(NamedTuple):
    """The work done on one pulse and the worst excursions among its snapshots.

    ``nfev`` counts right-hand-side evaluations (0 for the exact propagator);
    ``min_eigenvalue`` is the smallest snapshot eigenvalue and
    ``max_trace_error`` the largest ``|trace - 1|``.
    """

    propagator: str
    nfev: int
    min_eigenvalue: float
    max_trace_error: float


@dataclass(frozen=True)
class Trajectory:
    """Density-operator snapshots along one pulse, with the record of how they were made.

    ``states`` is the read-only (n, 4, 4) stack at ``times``; ``final`` is its last matrix.
    """

    times: np.ndarray
    states: np.ndarray
    final: DensityOperator
    record: PulseRecord | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)


# The degree-13 Pade approximant r = (V - U)^-1 (V + U) of exp (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005)): the 1-norm theta_13 up to which r is exact
# to double precision, and the numerator coefficients b_0..b_13 as rows
# (U1, U2, V1, V2) over the even powers I, A^2, A^4, A^6, with
# U = A (A^6 U2 + U1) and V = A^6 V2 + V1.
_THETA_13 = 5.371920351148152
_B_13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                  1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
                  33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])
_PADE_13 = np.stack([_B_13[1:8:2], np.r_[0.0, _B_13[9::2]],
                     _B_13[0:8:2], np.r_[0.0, _B_13[8::2]]])


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` by Pade approximation with scaling and squaring (Higham 2005, Algorithm 2.3).

    ``a`` is scaled by ``2**-s`` to 1-norm at most ``theta_13`` and the
    degree-13 approximant is squared ``s`` times.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not np.isfinite(norm):
        raise ValueError("matrix exponential of a non-finite matrix")
    s = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    a = a * 2.0 ** -s
    powers = np.empty((4, *a.shape), dtype=a.dtype)
    powers[0] = np.eye(len(a))
    powers[1] = a @ a
    powers[2] = powers[1] @ powers[1]
    powers[3] = powers[2] @ powers[1]
    u1, u2, v1, v2 = (_PADE_13 @ powers.reshape(4, -1)).reshape(4, *a.shape)
    u = a @ (powers[3] @ u2 + u1)
    v = powers[3] @ v2 + v1
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _trajectory(times: np.ndarray, snapshots: np.ndarray, atol: float, propagator: str,
                nfev: int) -> tuple[Trajectory, ...]:
    """Symmetrize an (S, n, 16) or (S, n, 4, 4) block of snapshots and validate it as one stack.

    Returns one trajectory per state, holding its slice of one read-only copy
    of the block.  Hermiticity is preserved by the flow, so snapshots are
    symmetrized only against roundoff.  Positivity and the trace are monitored,
    not enforced, because the repump term is not of Lindblad form: the earliest
    snapshot with an eigenvalue below ``-100 * atol`` raises
    :class:`PositivityViolation`, and the earliest with a trace outside
    ``(0, 1 + slack]`` raises :class:`TraceViolation`, naming its state and
    time.  The same eigenvalues decide every PSD check.
    """
    n_states, n = snapshots.shape[:2]
    snaps = snapshots.reshape(n_states, n, 4, 4)
    snaps = 0.5 * (snaps + snaps.swapaxes(-1, -2).conj())
    floor = -100.0 * atol
    min_eigs = np.linalg.eigvalsh(snaps)[..., 0]
    below = np.argwhere(min_eigs.T < floor)
    if below.size:
        k, s = below[0]
        raise PositivityViolation(f"state {s}: snapshot at t={times[k]:.6g} has eigenvalue "
                                  f"{min_eigs[s, k]:.3e} < {floor:.3e}")
    # the trace slack scales with the integrator tolerance, mirroring the
    # positivity monitor; the exact flow keeps trace <= 1 in both regimes
    slack = max(DensityOperator.TRACE_TOL, 100.0 * atol)
    traces = np.trace(snaps, axis1=-2, axis2=-1).real
    if not (traces.min() > 0.0 and traces.max() <= 1.0 + slack):
        k, s = np.argwhere(~((traces > 0.0) & (traces <= 1.0 + slack)).T)[0]
        raise TraceViolation(f"state {s}: snapshot at t={times[k]:.6g} has trace "
                             f"{float(traces[s, k])!r} outside (0, 1 + {slack:.3e}]")
    tols = dict(psd_tol=-floor, trace_tol=slack)
    trace_errors = np.abs(traces - 1.0).max(axis=1)
    # C-contiguous, so the CSV trace column sums in one order; an RK45 block is not
    stack = np.ascontiguousarray(snaps)
    DensityOperator.validate(stack, **tols, min_eigenvalue=min_eigs.min())
    stack.setflags(write=False)
    return tuple(Trajectory(times=times, states=stack[s],
                            final=DensityOperator(stack[s, -1], **tols,
                                                  min_eigenvalue=min_eigs[s, -1]),
                            record=PulseRecord(propagator, nfev, float(min_eigs[s].min()),
                                               float(trace_errors[s])))
                 for s in range(n_states))


def _solve(fp: FieldParams, on: Liouvillian, t_final: float, y0: np.ndarray, feed: np.ndarray,
           rtol: float, atol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """RK45 of ``dY/dt = (M0 + E(t) Mdrive) Y + feed`` through one pulse, in one ``solve_ivp``.

    ``on`` is the generator at envelope 1, ``fp`` carries the envelope, which
    runs over ``t_final``; ``y0`` is a (16, n) block and ``feed`` broadcasts
    against it.  The error norm is taken over the whole block.  Returns the
    snapshot times, the (16, n, 65) snapshots and the number of right-hand-side
    evaluations.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    m0 = build_liouvillian(fp, on.rates, 0.0).m
    m_drive = on.m - m0
    envelope = fp.envelope

    def rhs(t, y):
        # a square envelope reads 1.0, and m0 + 1.0 * m_drive is m0 + m_drive exactly
        return ((m0 + envelope.value_at(t, t_final) * m_drive) @ y.reshape(y0.shape)
                + feed).ravel()

    times = np.linspace(0.0, t_final, MIN_SNAPSHOTS)
    sol = sys.modules[__name__].solve_ivp(rhs, (0.0, t_final), y0.ravel(), method="RK45",
                                          rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise StepSizeUnderflow(f"integrator failed: {sol.message}")
    return sol.t.copy(), sol.y.reshape(*y0.shape, -1), int(sol.nfev)


def _integrate(states, fp: FieldParams, on: Liouvillian, t_final: float, rtol: float,
               atol: float) -> tuple[Trajectory, ...]:
    """RK45 through one pulse for a block of states; see :func:`_solve`."""
    y0 = np.stack([state.matrix.reshape(16) for state in states], axis=1)
    times, snapshots, nfev = _solve(fp, on, t_final, y0, on.d[:, None], rtol, atol)
    return _trajectory(times, snapshots.transpose(1, 2, 0), atol, "rk45", nfev)


def _step(liou: Liouvillian, t_final: float) -> np.ndarray:
    """The exact augmented step ``expm(dt A)`` of a square pulse, ``dt = t_final / 64``."""
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if liou.field.envelope is not Envelope.SQUARE:
        raise ValueError("the exact propagator needs a square envelope")
    a = np.zeros((17, 17), dtype=complex)
    a[:16, :16] = liou.m
    a[:16, 16] = liou.d
    return _expm((t_final / (MIN_SNAPSHOTS - 1)) * a)


def _snapshots(propagator: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """The (S, 65, 16) snapshots of an (S, 4, 4) stack under one pulse's propagator.

    ``propagator`` is either the (17, 17) step of a square pulse, applied 64
    times, or the (65, 16, 17) stack of snapshot propagators of a solved
    pulse.  Each state takes its own matrix-vector products, so a state's
    snapshots are bit-identical to its one-state run.
    """
    y0 = np.ones((len(matrices), 17, 1), dtype=complex)
    y0[:, :16, 0] = matrices.reshape(-1, 16)
    if propagator.ndim == 3:
        return (propagator[:, None] @ y0)[..., 0].transpose(1, 0, 2)
    y = np.empty((MIN_SNAPSHOTS, *y0.shape), dtype=complex)
    y[0] = y0
    for k in range(MIN_SNAPSHOTS - 1):
        y[k + 1] = propagator @ y[k]
    return y[:, :, :16, 0].transpose(1, 0, 2)


def _propagate(states, liou: Liouvillian, t_final: float, atol: float) -> tuple[Trajectory, ...]:
    """Exact snapshots of one square pulse for a block of states; see :func:`propagate_exact`."""
    if atol <= 0:
        raise ValueError("atol must be positive")
    step = _step(liou, t_final)
    return _trajectory(np.linspace(0.0, t_final, MIN_SNAPSHOTS),
                       _snapshots(step, np.stack([state.matrix for state in states])),
                       atol, "exact", 0)


def integrate_master(rho0: DensityOperator, fp: FieldParams, rates: Rates,
                     t_final: float, rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate the master equation through one pulse with RK45.

    Snapshots are taken at 65 evenly spaced output times including both
    endpoints and validated by the same rules as :func:`propagate_exact`.

    Raises
    ------
    StepSizeUnderflow
        If the adaptive controller stalls.
    PositivityViolation
        If any snapshot eigenvalue falls below -100 * atol.
    TraceViolation
        If any snapshot trace leaves (0, 1 + max(1e-12, 100 * atol)].
    """
    return _integrate([rho0], fp, build_liouvillian(fp, rates, 1.0), t_final, rtol, atol)[0]


def propagate_exact(rho0: DensityOperator, liou: Liouvillian, t_final: float,
                    atol: float = DEFAULT_ATOL) -> Trajectory:
    """Exact snapshots of one square pulse from the matrix exponential.

    With a constant generator the augmented state ``y = [r; 1]`` obeys
    ``dy/dt = A y`` with ``A = [[m, d], [0, 0]]``.  One ``step = expm(dt A)``
    at ``dt = t_final / 64`` then gives the 65 snapshots of
    :func:`integrate_master` by 64 products ``y_{k+1} = step @ y_k``.  ``atol``
    only sets the positivity floor and the trace slack.

    Raises
    ------
    PositivityViolation
        If any snapshot eigenvalue falls below -100 * atol.
    TraceViolation
        If any snapshot trace leaves (0, 1 + max(1e-12, 100 * atol)].
    """
    return _propagate([rho0], liou, t_final, atol)[0]


def propagator_name(envelope: Envelope) -> str:
    """The propagator a pulse takes: ``"exact"`` for a square envelope, else ``"rk45"``."""
    return "exact" if envelope is Envelope.SQUARE else "rk45"


def recommended_duration(liou: Liouvillian, residual: float) -> float:
    """Pulse duration that damps the slowest mode down to ``residual``."""
    if not (0.0 < residual < 1.0):
        raise ValueError("residual must lie strictly between 0 and 1")
    return float(np.log(1.0 / residual) / slowest_rate(liou))


def _ground_frame(fp: FieldParams) -> np.ndarray:
    """Columns ``n1, n2, e^{i xi} b``: the unitary that takes the third axis to the coupling."""
    basis = dark_basis(fp)
    return np.column_stack([basis.n1, basis.n2, np.exp(1j * fp.xi) * basis.phi_perp])


def _ground_rotation(fp: FieldParams, reference: FieldParams) -> np.ndarray:
    """The 4x4 unitary ``U`` with ``H(fp) = U H(reference) U^dagger``, identity on ``|e>``.

    ``U = V(fp) V(reference)^dagger`` on the ground space, with ``V`` from
    :func:`_ground_frame`; the two fields must share amplitude, detuning and
    envelope.  The relaxation part commutes with ``U``, so the generators obey
    ``M(fp) = W M(reference) W^dagger`` with ``W = U kron conj(U)``.
    """
    u = np.eye(4, dtype=complex)
    u[:3, :3] = _ground_frame(fp) @ _ground_frame(reference).conj().T
    return u


def _reference_propagator(fp: FieldParams, liou: Liouvillian, t_final: float, rtol: float,
                          atol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The snapshot times, propagator and ``nfev`` of ``fp`` driven for ``t_final``.

    ``liou`` is the generator of ``fp`` at envelope 1.  A square pulse gives
    its (17, 17) exponential step and 0 evaluations; any other envelope one
    RK45 solve of the (16, 17) block ``[Phi | c]`` from ``[1 | 0]``, where
    ``Phi`` is the homogeneous flow and ``c`` the repump feed's response, at
    the states' ``rtol`` and ``atol``.
    """
    if propagator_name(fp.envelope) == "exact":
        return np.linspace(0.0, t_final, MIN_SNAPSHOTS), _step(liou, t_final), 0
    feed = np.zeros((16, 17), dtype=complex)
    feed[:, 16] = liou.d
    times, snapshots, nfev = _solve(fp, liou, t_final, np.eye(16, 17, dtype=complex), feed,
                                    rtol, atol)
    return times, snapshots.transpose(2, 0, 1), nfev


def run_sequence(states, steps, rates: Rates, residual: float, rtol: float = DEFAULT_RTOL,
                 atol: float = DEFAULT_ATOL) -> tuple[tuple[Trajectory, ...], ...]:
    """Drive a block of states through a sequence of pulses, each for its key's duration.

    Returns one tuple of trajectories per pulse, one trajectory per state in
    order; each pulse starts from the previous pulse's final states.  The
    first pulse of each ``(omega_peak, delta, envelope)`` key makes the key's
    propagator (:func:`_reference_propagator`); every other pulse of the key
    rotates the states into the reference frame, applies it, and rotates each
    snapshot back (:func:`_ground_rotation`).  The propagators are local to
    this call.  A time-dependent pulse whose key does not recur integrates
    its states directly instead: with no pulse to reuse it, the 17-column
    propagator costs more than the states' own solve.
    """
    if atol <= 0:
        raise ValueError("atol must be positive")
    keys = [(fp.omega_peak, fp.delta, fp.envelope) for fp in steps]
    references = {}
    out = []
    for fp, key in zip(steps, keys):
        nfev = 0
        if key not in references:
            liou = build_liouvillian(fp, rates, 1.0)
            t_final = recommended_duration(liou, residual)
            if propagator_name(fp.envelope) == "rk45" and keys.count(key) == 1:
                out.append(_integrate(states, fp, liou, t_final, rtol, atol))
                states = [traj.final for traj in out[-1]]
                continue
            times, propagator, nfev = _reference_propagator(fp, liou, t_final, rtol, atol)
            references[key] = (fp, times, propagator)
        reference, times, propagator = references[key]
        matrices = np.stack([state.matrix for state in states])
        if fp is reference:
            snapshots = _snapshots(propagator, matrices)
        else:
            u = _ground_rotation(fp, reference)
            u_dag = u.conj().T
            rotated = _snapshots(propagator, u_dag @ matrices @ u)
            snapshots = u @ rotated.reshape(len(matrices), MIN_SNAPSHOTS, 4, 4) @ u_dag
        out.append(_trajectory(times, snapshots, atol, propagator_name(fp.envelope), nfev))
        states = [traj.final for traj in out[-1]]
    return tuple(out)


def run_pulse_block(states, fp: FieldParams, rates: Rates, residual: float,
                    rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL) -> tuple[Trajectory, ...]:
    """Drive a block of states through one pulse: :func:`run_sequence` of ``[fp]``."""
    return run_sequence(states, [fp], rates, residual, rtol=rtol, atol=atol)[0]


def run_pulse(rho0: DensityOperator, fp: FieldParams, rates: Rates, residual: float,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Trajectory:
    """:func:`run_pulse_block` for one state."""
    return run_pulse_block([rho0], fp, rates, residual, rtol=rtol, atol=atol)[0]


def verify_map(rho0: DensityOperator, fp: FieldParams, rates: Rates,
               residual: float, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> float:
    """Distance between the driven endpoint and the analytic relaxation map.

    Drives the dynamics of ``rates`` through :func:`run_pulse` for the
    recommended duration at the given residual (the exact propagator for a
    square pulse, RK45 for a time-dependent envelope) and returns the
    Hilbert-Schmidt distance between the endpoint and the relaxation map,
    which both regimes share.
    """
    traj = run_pulse(rho0, fp, rates, residual, rtol=rtol, atol=atol)
    return hs_distance(traj.final.matrix, relax_closed(rho0, dark_basis(fp)).matrix)


def write_trajectory_csv(traj: Trajectory, basis: DarkBasis, path) -> None:
    """Write a trajectory as CSV: time, all matrix entries, populations, trace, dark weight."""
    labels = ("gm", "gpi", "gp", "e")
    header = ["time"] + [f"{part}_{a}{b}" for a in labels for b in labels for part in ("re", "im")]
    header += [f"pop_{l}" for l in labels] + ["trace", "dark_weight"]
    stack = traj.states
    p = basis.projector
    table = np.column_stack([
        traj.times,
        np.stack([stack.real, stack.imag], axis=-1).reshape(len(stack), 32),
        stack.diagonal(axis1=1, axis2=2).real,
        np.trace(stack, axis1=1, axis2=2).real,
        np.trace(p @ stack @ p, axis1=1, axis2=2).real,
    ])
    write_csv(path, header, table)
