"""Full master-equation integration and certification of the analytic maps.

The generator is piecewise constant per pulse up to the scalar envelope, so a
trajectory solves ``dr/dt = (M0 + E(t) Mdrive) r + d`` with an embedded
adaptive Runge-Kutta pair (Dormand-Prince 5(4)) under local error control.
Pulse durations come from the spectral gap: integrating for
``ln(1/residual) / |Re lambda_slow|`` leaves the distance between the ODE
endpoint and the analytic relaxation map at roughly the requested residual,
which :func:`verify_map` measures directly.  The map is the same in both
relaxation regimes; only the integrated dynamics differ.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .core import DarkBasis, DensityOperator, Envelope, FieldParams, dark_basis
from .errors import PositivityViolation, StepSizeUnderflow
from .liouville import Liouvillian, Rates, build_liouvillian, slowest_rate
from .maps import hs_distance, relax_closed

__all__ = [
    "Trajectory",
    "integrate_master",
    "recommended_duration",
    "verify_map",
    "write_trajectory_csv",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
MIN_SNAPSHOTS = 65


@dataclass(frozen=True)
class Trajectory:
    """Density-operator snapshots along one integrated pulse."""

    times: np.ndarray
    states: tuple[DensityOperator, ...]
    final: DensityOperator

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))


def integrate_master(rho0: DensityOperator, fp: FieldParams, rates: Rates,
                     t_final: float, rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate the master equation through one pulse.

    Snapshots are taken at 65 evenly spaced output times including both
    endpoints.  Hermiticity is preserved by the flow, so snapshots are
    symmetrized only against roundoff; positivity is monitored, not enforced,
    because the repump term is not of Lindblad form.

    Raises
    ------
    StepSizeUnderflow
        If the adaptive controller stalls.
    PositivityViolation
        If any snapshot eigenvalue falls below -100 * atol.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    m_off = build_liouvillian(fp, rates, 0.0)
    m_drive = build_liouvillian(fp, rates, 1.0).m - m_off.m
    m0, d = m_off.m, m_off.d
    envelope, duration = fp.envelope, fp.duration

    if envelope is Envelope.SQUARE:
        m_const = m0 + m_drive

        def rhs(t, y):
            return m_const @ y + d
    else:
        def rhs(t, y):
            return (m0 + envelope.value_at(t, duration) * m_drive) @ y + d

    times = np.linspace(0.0, t_final, MIN_SNAPSHOTS)
    sol = solve_ivp(rhs, (0.0, t_final), rho0.matrix.reshape(16), method="RK45",
                    rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise StepSizeUnderflow(f"integrator failed: {sol.message}")

    # validation slack scales with the integrator tolerance, mirroring the
    # positivity monitor; the exact flow keeps trace <= 1 in both regimes
    trace_slack = max(DensityOperator.TRACE_TOL, 100.0 * atol)
    floor = -100.0 * atol
    states = []
    for k in range(sol.y.shape[1]):
        snap = sol.y[:, k].reshape(4, 4)
        snap = 0.5 * (snap + snap.conj().T)
        min_eig = float(np.linalg.eigvalsh(snap).min())
        if min_eig < floor:
            raise PositivityViolation(
                f"snapshot at t={sol.t[k]:.6g} has eigenvalue {min_eig:.3e} < {floor:.3e}")
        states.append(DensityOperator(snap, psd_tol=-floor, trace_tol=trace_slack))
    return Trajectory(times=sol.t.copy(), states=tuple(states), final=states[-1])


def recommended_duration(liou: Liouvillian, residual: float) -> float:
    """Pulse duration that damps the slowest mode down to ``residual``."""
    if not (0.0 < residual < 1.0):
        raise ValueError("residual must lie strictly between 0 and 1")
    return float(np.log(1.0 / residual) / slowest_rate(liou))


def verify_map(rho0: DensityOperator, fp: FieldParams, rates: Rates,
               residual: float, rtol: float = DEFAULT_RTOL,
               atol: float = DEFAULT_ATOL) -> float:
    """Distance between the ODE endpoint and the analytic relaxation map.

    Integrates the dynamics of ``rates`` for the recommended duration at the
    given residual and returns the Hilbert-Schmidt distance between the
    endpoint and the relaxation map, which both regimes share.
    """
    liou = build_liouvillian(fp, rates, 1.0)
    t_final = recommended_duration(liou, residual)
    traj = integrate_master(rho0, replace(fp, duration=t_final), rates, t_final,
                            rtol=rtol, atol=atol)
    return hs_distance(traj.final, relax_closed(rho0, dark_basis(fp)))


def write_trajectory_csv(traj: Trajectory, basis: DarkBasis, path) -> None:
    """Write a trajectory as CSV: time, all matrix entries, populations, trace, dark weight."""
    labels = ("gm", "gpi", "gp", "e")
    header = ["time"]
    for i in range(4):
        for j in range(4):
            header += [f"re_{labels[i]}{labels[j]}", f"im_{labels[i]}{labels[j]}"]
    header += [f"pop_{l}" for l in labels] + ["trace", "dark_weight"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t, state in zip(traj.times, traj.states):
            m = state.matrix
            row = [f"{t:.17g}"]
            for i in range(4):
                for j in range(4):
                    row += [f"{m[i, j].real:.17g}", f"{m[i, j].imag:.17g}"]
            row += [f"{m[i, i].real:.17g}" for i in range(4)]
            row += [f"{state.trace:.17g}", f"{state.dark_weight(basis):.17g}"]
            writer.writerow(row)
