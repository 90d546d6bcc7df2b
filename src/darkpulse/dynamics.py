"""Pulse dynamics under the full master equation, and certification of the analytic maps.

Within one pulse the generator is ``dr/dt = (M0 + E(t) Mdrive) r + d``.  A
square envelope makes it constant, so :func:`propagate_exact` takes the exact
state from the matrix exponential of the augmented generator
``[[M, d], [0, 0]]`` (Van Loan 1978).  Time-dependent envelopes are integrated
by :func:`integrate_master` with an embedded adaptive Runge-Kutta pair
(Dormand-Prince 5(4)) under local error control; it accepts square pulses too
and serves as the independent cross-check of the exact path.
:func:`run_pulse_block` is the one place that picks between them, for a block
of states at once: one exponential, or one RK45 solve of the (16, S) block with
its error norm over all states.  The one-state functions wrap the block code.

Pulse durations come from the spectral gap: driving for
``ln(1/residual) / |Re lambda_slow|`` leaves the distance between the endpoint
and the analytic relaxation map at roughly the requested residual, which
:func:`verify_map` measures directly.  The map is the same in both relaxation
regimes; only the driven dynamics differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .config import write_csv
from .core import DarkBasis, DensityOperator, Envelope, FieldParams, dark_basis
from .errors import PositivityViolation, StepSizeUnderflow
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
    "verify_map",
    "write_trajectory_csv",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
MIN_SNAPSHOTS = 65


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


def _trajectory(times: np.ndarray, snapshots: np.ndarray, atol: float, propagator: str,
                nfev: int) -> tuple[Trajectory, ...]:
    """Symmetrize an (S, n, 16) block of vectorized snapshots and validate it as one stack.

    Returns one trajectory per state, holding its slice of one read-only copy
    of the block.  Hermiticity is preserved by the flow, so snapshots are
    symmetrized only against roundoff.  Positivity is monitored, not enforced,
    because the repump term is not of Lindblad form: the earliest snapshot with
    an eigenvalue below ``-100 * atol`` raises :class:`PositivityViolation`,
    naming its state and time.  The same eigenvalues decide every PSD check.
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
    # validation slack scales with the integrator tolerance, mirroring the
    # positivity monitor; the exact flow keeps trace <= 1 in both regimes
    tols = dict(psd_tol=-floor, trace_tol=max(DensityOperator.TRACE_TOL, 100.0 * atol))
    trace_errors = np.abs(np.trace(snaps, axis1=-2, axis2=-1).real - 1.0).max(axis=1)
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


def _integrate(states, fp: FieldParams, on: Liouvillian, t_final: float, rtol: float,
               atol: float) -> tuple[Trajectory, ...]:
    """RK45 through one pulse for a block of states, as one ``solve_ivp`` call.

    ``on`` is the generator at envelope 1 and ``fp`` carries the envelope and
    its duration; the error norm is taken over the whole (16, S) block.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    off = build_liouvillian(fp, on.rates, 0.0)
    m0, d, m_drive = off.m, off.d[:, None], on.m - off.m
    envelope, duration = fp.envelope, fp.duration
    y0 = np.stack([state.matrix.reshape(16) for state in states], axis=1)

    def rhs(t, y):
        # a square envelope reads 1.0, and m0 + 1.0 * m_drive is m0 + m_drive exactly
        return ((m0 + envelope.value_at(t, duration) * m_drive) @ y.reshape(y0.shape)
                + d).ravel()

    times = np.linspace(0.0, t_final, MIN_SNAPSHOTS)
    sol = solve_ivp(rhs, (0.0, t_final), y0.ravel(), method="RK45",
                    rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise StepSizeUnderflow(f"integrator failed: {sol.message}")
    snapshots = sol.y.reshape(*y0.shape, -1).transpose(1, 2, 0)
    return _trajectory(sol.t.copy(), snapshots, atol, "rk45", int(sol.nfev))


def _propagate(states, liou: Liouvillian, t_final: float, atol: float) -> tuple[Trajectory, ...]:
    """Exact snapshots of one square pulse for a block of states; see :func:`propagate_exact`."""
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if atol <= 0:
        raise ValueError("atol must be positive")
    if liou.field.envelope is not Envelope.SQUARE:
        raise ValueError("the exact propagator needs a square envelope")
    a = np.zeros((17, 17), dtype=complex)
    a[:16, :16] = liou.m
    a[:16, 16] = liou.d
    step = expm((t_final / (MIN_SNAPSHOTS - 1)) * a)
    y0 = np.stack([state.matrix.reshape(16) for state in states])
    # (S, 17, 1) per snapshot: one matrix-vector product per state, so each
    # state's snapshots are bit-identical to its one-state run
    y = np.empty((MIN_SNAPSHOTS, len(y0), 17, 1), dtype=complex)
    y[0, :, :16, 0] = y0
    y[0, :, 16] = 1.0
    for k in range(MIN_SNAPSHOTS - 1):
        y[k + 1] = step @ y[k]
    return _trajectory(np.linspace(0.0, t_final, MIN_SNAPSHOTS),
                       y[:, :, :16, 0].transpose(1, 0, 2), atol, "exact", 0)


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
    """
    return _propagate([rho0], liou, t_final, atol)[0]


def propagator_name(envelope: Envelope) -> str:
    """The propagator :func:`run_pulse` uses: ``"exact"`` for a constant (square) envelope."""
    return "exact" if envelope is Envelope.SQUARE else "rk45"


def recommended_duration(liou: Liouvillian, residual: float) -> float:
    """Pulse duration that damps the slowest mode down to ``residual``."""
    if not (0.0 < residual < 1.0):
        raise ValueError("residual must lie strictly between 0 and 1")
    return float(np.log(1.0 / residual) / slowest_rate(liou))


def run_pulse_block(states, fp: FieldParams, rates: Rates, residual: float,
                    rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL) -> tuple[Trajectory, ...]:
    """Drive a block of states through one pulse for its recommended duration at ``residual``.

    The generator at envelope 1 is built once, for the duration rule and for
    the propagator.  A square pulse takes :func:`propagate_exact`'s matrix
    exponential; other envelopes take RK45 under ``rtol`` and ``atol``, one
    solve for the whole block.  Returns one trajectory per state, in order.
    """
    liou = build_liouvillian(fp, rates, 1.0)
    t_final = recommended_duration(liou, residual)
    if propagator_name(fp.envelope) == "exact":
        return _propagate(states, liou, t_final, atol)
    return _integrate(states, replace(fp, duration=t_final), liou, t_final, rtol, atol)


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
    return hs_distance(traj.final, relax_closed(rho0, dark_basis(fp)))


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
