"""Pulse dynamics under the full master equation, and certification of the analytic maps.

Within one pulse the generator is ``dr/dt = (M0 + E(t) Mdrive) r + d``; on
the augmented state ``y = [r; 1]`` it is ``dy/dt = A(t) y`` with
``A = [[M, d], [0, 0]]`` (Van Loan 1978).  A square envelope makes ``A``
constant, so one matrix exponential gives its exact snapshots.  Time-dependent
envelopes are integrated by the package's own RK45 in numpy (Dormand-Prince 5(4)
under local error control), so no command imports scipy.  It runs in the Hermitian
coordinates ``r = (rho_ii, Re rho_ij, Im rho_ij for i < j)``, exact linear maps of
``vec rho`` in which the generator, the feed and the states are real (the
coherence-vector form), so each step makes real matrix products; the snapshots
map back exactly.  :func:`integrate_master`
runs it on a block of states through any one pulse, square ones included, and
is the RK45 witness of :func:`run_sequence`, which drives a block of states
through a sequence, and of :func:`verify_map`, which drives a batch of cases,
each state through its own field.  All three take one validated (S, 4, 4)
stack of states and one ``IntegratorSettings``, checked when it was made.

Both share propagators through one key table.  The relaxation part of the
generator is invariant under ground-space unitaries, so fields that share
``(omega_peak, delta, envelope)`` (a key) differ only by a ground rotation
``U``, ``M(fp) = W M_ref W^dagger`` with ``W = U kron conj(U)``, and share their
spectrum.  The first field of a key in a call is its reference: it sets the
key's duration and makes its propagator, the 65 snapshot propagators ``P_k``
(the powers of a square pulse's exponential step, or one RK45 solve of the
17-column propagator in the Hermitian coordinates), which every field of the key
applies as
``rho(t_k) = U P_k[U^dagger rho U] U^dagger``; ``U`` is exactly 1 for the
reference, so its states keep every bit.  A time-dependent key that does not
recur integrates its states directly.  Nothing is kept between calls.
Spectrum and trace do not change under ``U``, so :func:`verify_map` drives a
key's cases in blocks of eight, monitors them in the key's frame, and rotates
back only their final snapshots.

Pulse durations come from the spectral gap: driving for
``ln(1/residual) / |Re lambda_slow|`` (:func:`recommended_duration`) leaves the
distance between the endpoint and the analytic relaxation map at roughly the
requested residual, which :func:`verify_map` measures directly.  The map is
the same in both relaxation regimes; only the driven dynamics differ.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import IntegratorSettings, write_csv
from .core import DarkBasis, DensityOperator, Envelope, FieldParams, _readonly, dark_basis
from .errors import PositivityViolation, StepSizeUnderflow, TraceViolation, UnstableSpectrum
from .liouville import Liouvillian, Rates, build_liouvillian, slowest_rate
from .maps import _check_trace_one, hs_distance, relax_closed

__all__ = [
    "MapCheck",
    "PulseRecord",
    "Trajectory",
    "integrate_master",
    "recommended_duration",
    "run_sequence",
    "verify_map",
    "write_trajectory_csv",
]

MIN_SNAPSHOTS = 65
_BLOCK = 8  # the cases of a key whose snapshots verify_map holds at once


class PulseRecord(NamedTuple):
    """The worst excursions among one state's snapshots along one pulse.

    ``min_eigenvalue`` is the smallest snapshot eigenvalue and
    ``max_trace_error`` the largest ``|trace - 1|``.
    """

    min_eigenvalue: float
    max_trace_error: float


@dataclass(frozen=True)
class Trajectory:
    """Density-operator snapshots of a block of states along one pulse, and how they were made.

    ``states`` is the read-only (S, n, 4, 4) block at ``times`` (read-only too), made by
    ``propagator`` (``"exact"`` or ``"rk45"``) in ``nfev`` right-hand-side evaluations.
    ``records`` holds one :class:`PulseRecord` per state, and ``basis`` is the pulse's dark basis.
    """

    times: np.ndarray
    states: np.ndarray
    propagator: str
    nfev: int
    records: tuple[PulseRecord, ...]
    basis: DarkBasis


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
    with np.errstate(over="ignore", invalid="ignore"):  # the monitor reports a non-finite step
        for _ in range(s):
            r = r @ r
    return r


def _symmetrized(snapshots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (S, n, 16) or (S, n, 4, 4) block of snapshots symmetrized against roundoff.

    Returns the read-only (S, n, 4, 4) stack with its smallest eigenvalues (nan if not
    finite) and its traces, each (S, n); the flow itself preserves Hermiticity.
    """
    snaps = snapshots.reshape(*snapshots.shape[:2], 4, 4)
    # one C-contiguous copy, made in place (the CSV trace column then sums in one order)
    stack = np.conj(snaps.swapaxes(-1, -2), order="C")
    stack += snaps
    stack *= 0.5
    finite = np.isfinite(stack).all(axis=(-2, -1))
    stack[~finite] = 0.0  # eigvalsh fails on these; the monitor raises on their nan
    min_eigs = np.where(finite, np.linalg.eigvalsh(stack)[..., 0], np.nan)
    traces = np.trace(stack, axis1=-2, axis2=-1).real
    stack.setflags(write=False)
    return stack, min_eigs, traces


def _monitor(times: np.ndarray, min_eigs: np.ndarray, traces: np.ndarray, atol: float) -> None:
    """Check the smallest eigenvalues and traces of S states' snapshots, each (S, n).

    ``times`` holds the n times of every state, or a row per state.  Positivity
    and the trace are monitored, not enforced (the repump term is not of
    Lindblad form): the earliest eigenvalue below ``-100 * atol`` (or nan) or
    trace outside ``(0, 1 + slack]`` raises :class:`PositivityViolation` or
    :class:`TraceViolation`, naming the state's index and the time.
    """
    times = np.broadcast_to(times, min_eigs.shape)
    # the trace slack scales with the integrator tolerance like the floor
    floor, slack = -100.0 * atol, max(DensityOperator.TRACE_TOL, 100.0 * atol)
    below = np.argwhere(~(min_eigs.T >= floor))
    if below.size:
        k, s = below[0]
        raise PositivityViolation(f"state {s}: snapshot at t={times[s, k]:.6g} has eigenvalue "
                                  f"{min_eigs[s, k]:.3e}, not >= {floor:.3e}")
    if not (traces.min() > 0.0 and traces.max() <= 1.0 + slack):
        k, s = np.argwhere(~((traces > 0.0) & (traces <= 1.0 + slack)).T)[0]
        raise TraceViolation(f"state {s}: snapshot at t={times[s, k]:.6g} has trace "
                             f"{float(traces[s, k])!r} outside (0, 1 + {slack:.3e}]")


def _trajectory(times: np.ndarray, snapshots: np.ndarray, atol: float, propagator: str,
                nfev: int, basis: DarkBasis) -> Trajectory:
    """The trajectory of a block of snapshots that passes :func:`_monitor`."""
    stack, min_eigs, traces = _symmetrized(snapshots)
    _monitor(times, min_eigs, traces, atol)
    return Trajectory(times, stack, propagator, nfev, tuple(
        PulseRecord(float(eigs.min()), float(np.abs(trace - 1.0).max()))
        for eigs, trace in zip(min_eigs, traces)), basis)


def _stack(states, n_fields: int | None = None) -> np.ndarray:
    """``states`` as one validated (S, 4, 4) stack; with ``n_fields``, one state per field."""
    states = np.asarray(states)
    if states.ndim != 3 or states.shape[1:] != (4, 4) or n_fields not in (None, len(states)):
        raise ValueError("expected an (S, 4, 4) stack of states"
                         + ("" if n_fields is None else " and one field per state"))
    DensityOperator.validate(states)
    return states.astype(complex, copy=False)


# The Hermitian coordinates r = (rho_ii, Re rho_ij, Im rho_ij for i < j) of a row-major
# vec rho: r = _TO vec rho and vec rho = _BACK r.  _BACK holds only 0, 1 and +-i, and _TO
# (its inverse) only 0, 1, 1/2 and +-i/2, so neither map rounds a product.  A Lindblad
# generator maps Hermitian operators to Hermitian operators, so in these coordinates it is
# the real matrix _TO M _BACK (the coherence-vector form; Alicki and Lendi, Quantum
# Dynamical Semigroups and Applications, LNP 286 (1987)).
def _coordinate_maps() -> tuple[np.ndarray, np.ndarray]:
    """The maps ``_BACK`` and ``_TO`` between ``vec rho`` and the Hermitian coordinates.

    Column c of ``_BACK`` is vec of the c-th basis operator: ``|i><i|``, then
    ``|i><j| + |j><i|`` and ``i|i><j| - i|j><i|`` for i < j.  ``_TO`` is its inverse.
    """
    back = [[0j] * 16 for _ in range(16)]
    c = 4
    for i in range(4):
        back[5 * i][i] = 1
        for j in range(i + 1, 4):
            back[4 * i + j][c] = back[4 * j + i][c] = 1
            back[4 * i + j][c + 6], back[4 * j + i][c + 6] = 1j, -1j
            c += 1
    # from Python lists: building them by numpy item assignment raised peak RSS by 0.13 MB
    to = [[back[r][c].conjugate() / (1 if c < 4 else 2) for r in range(16)] for c in range(16)]
    return np.array(back), np.array(to)


_BACK, _TO = _coordinate_maps()


def _hermitian(liou: Liouvillian) -> tuple[np.ndarray, np.ndarray]:
    """The (2, 16, 16) generators ``M0`` and ``Mdrive`` of ``liou`` and its feed, real.

    Both are in the Hermitian coordinates; their imaginary parts, dropped here, are 0.
    """
    m0 = build_liouvillian(liou.field, liou.rates, 0.0).m
    with np.errstate(invalid="ignore"):  # a non-finite entry gives the solve a nan norm
        return (_TO @ np.stack([m0, liou.m - m0]) @ _BACK).real, (_TO @ liou.d).real


# Dormand and Prince's 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) as scipy's RK45
# runs it: times _C and weights _A of stages 1..5 (stage 0 is the last step's final
# derivative, stage 6 the new one), fifth-order weights _B, error weights _E, and
# Shampine's quartic dense output _P (Math. Comp. 46, 135 (1986)), column j for x^(j+1).
_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_A = [np.array(row) for row in ([1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
                                [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
                                [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                 -5103 / 18656])]
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


class Solution(NamedTuple):
    """The (len(times), 16, n) snapshots of one solve and its right-hand-side evaluations."""

    y: np.ndarray
    nfev: int


def solve_ivp(generators: np.ndarray, envelope: Envelope, times: np.ndarray, y0: np.ndarray,
              feed: np.ndarray, tols: IntegratorSettings) -> Solution:
    """RK45 of ``dY/dt = (M0 + E(t) Mdrive) Y + feed`` through one pulse, in numpy alone.

    ``generators`` stacks ``M0`` and ``Mdrive`` in the coordinates of the (16, n) block
    ``y0``, whose dtype the solve keeps; ``envelope`` gives ``E`` over ``times[-1]``, and
    ``feed`` broadcasts against ``y0``.  It takes scipy's RK45 steps, in scipy's arithmetic
    order, without importing scipy: the initial step of Hairer, Norsett and Wanner (Solving
    ODEs I, Sec. II.4), an RMS error norm over the whole block with scale
    ``atol + max(|y|, |y_new|) rtol``, step factors ``0.9 err^(-1/5)`` within [0.2, 10] and
    none above 1 right after a rejection, a least step of 10 ulp of ``t``, and the quartic
    interpolant at ``times``.

    Returns a :class:`Solution`; raises :class:`StepSizeUnderflow` if the step falls
    below its least size or the error norm is not finite (a non-finite derivative).
    """
    t_final = float(times[-1])
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    m0, m_drive = generators

    def generator(t):
        return m0 + envelope.value_at(np.array([t]), t_final)[0] * m_drive

    shape, rtol, atol, grid = y0.shape, tols.rtol, tols.atol, times.tolist()
    stages = np.empty((7, *shape), dtype=y0.dtype)
    flat, out = stages.reshape(7, -1), np.empty((len(times), *shape), dtype=y0.dtype)
    # the step's buffers, reused by every step: y and y_new, |y| and |y_new|, the error
    # scale, a stage's input, a weighted sum of stages (as a block, flat, and its real and
    # imaginary parts, which numpy's 2-norm sums in turn; a real block's are fixed zeros),
    # and the generators at the stages' times
    y = np.array(y0, order="C")
    y_new, y_in, block = np.empty((3, *shape), dtype=y0.dtype)
    abs_y, abs_new, scale = np.abs(y), np.empty(shape), np.empty(shape)
    dy = block.reshape(-1)
    re, im = dy.real, dy.imag
    m = np.empty((len(_C), *m0.shape), dtype=m0.dtype)
    # each stage s = 1..5: its weights, the stages they weigh, its generator and its buffer
    rows = [(a, flat[:s], m[s - 1], stages[s]) for s, a in enumerate(_A, start=1)]
    root = y0.size ** 0.5  # an RMS norm is the 2-norm over root
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
        stages[0] = generator(0.0) @ y0 + feed
        scale0 = atol + abs_y * rtol
        d0, d1 = np.linalg.norm(y0 / scale0) / root, np.linalg.norm(stages[0] / scale0) / root
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
        d2 = np.linalg.norm((generator(h0) @ (y0 + h0 * stages[0]) + feed
                             - stages[0]) / scale0) / root / h0
        h_abs = float(min(100 * h0, t_final, max(1e-6, h0 * 1e-3)
                          if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2))
        t, nfev, k = 0.0, 2, 0
        while t < t_final:
            min_step, rejected = 10 * math.ulp(t), False
            h_abs = max(h_abs, min_step)
            while True:
                if h_abs < min_step:
                    raise StepSizeUnderflow(f"RK45 at t={t:.6g}: step size {h_abs:.3g} is "
                                            f"below 10 ulp of t")
                t_new = min(t + h_abs, t_final)
                h = t_new - t
                # the generators at the step's stage times at once
                np.multiply(envelope.value_at(t + _C * h, t_final)[:, None, None], m_drive,
                            out=m)
                m += m0
                for a, weighed, generator_s, stage in rows:  # at y + (a . stages[:s]) h
                    np.matmul(a, weighed, out=dy)
                    dy *= h
                    np.add(y, block, out=y_in)
                    np.matmul(generator_s, y_in, out=stage)
                    stage += feed
                np.matmul(_B, flat[:6], out=dy)
                dy *= h
                np.add(y, block, out=y_new)
                np.matmul(m[4], y_new, out=stages[6])
                stages[6] += feed
                nfev += 6
                np.abs(y_new, out=abs_new)
                np.maximum(abs_y, abs_new, out=scale)
                scale *= rtol
                scale += atol
                np.matmul(_E, flat, out=dy)
                dy *= h
                block /= scale
                error = math.sqrt(re @ re + im @ im) / root
                if error < 1:
                    factor = 10.0 if error == 0 else min(10.0, 0.9 * error ** -0.2)
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                if not math.isfinite(error):
                    raise StepSizeUnderflow(f"RK45 at t={t:.6g}: error norm {error!r} "
                                            f"is not finite (a non-finite derivative)")
                h_abs, rejected = h * max(0.2, 0.9 * error ** -0.2), True
            j = bisect.bisect_right(grid, t_new)
            if j > k:  # the outputs in (t, t_new] from the step's quartic interpolant
                x = np.cumprod(np.tile((times[k:j] - t) / h, (4, 1)), axis=0)
                out[k:j] = y + h * (x.T @ (_P.T @ flat)).reshape(-1, *shape)
                k = j
            t, y, y_new, abs_y, abs_new = t_new, y_new, y, abs_new, abs_y
            stages[0] = stages[6]
    return Solution(out, nfev)


def _step(liou: Liouvillian, t_final: float) -> np.ndarray:
    """A square pulse's (65, 16, 17) snapshot propagators: rows 0..15 of ``expm(dt A)^k``."""
    a = np.zeros((17, 17), dtype=complex)
    a[:16, :16] = liou.m
    a[:16, 16] = liou.d
    step = _expm((t_final / (MIN_SNAPSHOTS - 1)) * a)
    powers = np.empty((MIN_SNAPSHOTS, 17, 17), dtype=complex)
    powers[0] = np.eye(17)
    for k in range(MIN_SNAPSHOTS - 1):
        powers[k + 1] = step @ powers[k]
    return powers[:, :16]


def _snapshots(propagator: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The (S, 65, 16) snapshots of S states under one pulse's propagator.

    ``propagator`` is the pulse's (65, 16, 17) stack of snapshot propagators,
    applied to each augmented state ``[rho; 1]``, and ``states`` an (S, 4, 4) or
    (S, 16) stack in its coordinates.  Each state takes its own matrix-vector
    products, so a state's snapshots are bit-identical to its one-state run.
    """
    y0 = np.ones((len(states), 17, 1), dtype=propagator.dtype)
    y0[:, :16, 0] = states.reshape(-1, 16)
    return (propagator[:, None] @ y0)[..., 0].transpose(1, 0, 2)


def _solve_states(liou: Liouvillian, times: np.ndarray, r: np.ndarray,
                  tols: IntegratorSettings) -> tuple[np.ndarray, int]:
    """The (S, 65, 16) snapshots of an (S, 16) stack under one RK45 solve, and its ``nfev``.

    States and snapshots are in the Hermitian coordinates.
    """
    generators, feed = _hermitian(liou)
    y, nfev = solve_ivp(generators, liou.field.envelope, times, r.T, feed[:, None], tols)
    return y.transpose(2, 0, 1), nfev


def integrate_master(states, fp: FieldParams, rates: Rates, t_final: float,
                     tols: IntegratorSettings = IntegratorSettings()) -> Trajectory:
    """Integrate the master equation through one pulse with RK45, for an (S, 4, 4) stack.

    The block takes one solve, whose error norm spans all its states.
    Snapshots are taken at 65 evenly spaced output times including both
    endpoints and monitored as :func:`run_sequence` monitors them.

    Raises
    ------
    StepSizeUnderflow
        If the adaptive controller stalls.
    PositivityViolation
        If any snapshot eigenvalue falls below -100 * atol.
    TraceViolation
        If any snapshot trace leaves (0, 1 + max(1e-12, 100 * atol)].
    """
    states = _stack(states)
    liou = build_liouvillian(fp, rates, 1.0)
    times = _readonly(np.linspace(0.0, t_final, MIN_SNAPSHOTS))
    snapshots, nfev = _solve_states(liou, times, (states.reshape(-1, 16) @ _TO.T).real, tols)
    return _trajectory(times, snapshots @ _BACK.T, tols.atol, "rk45", nfev, dark_basis(fp))


def recommended_duration(rate: float, residual: float) -> float:
    """Pulse duration ``ln(1/residual) / rate`` that damps the slowest mode to ``residual``.

    Raises :class:`UnstableSpectrum` if the duration is not a finite positive
    number (a subnormal rate overflows it).
    """
    if not (0.0 < residual < 1.0):
        raise ValueError("residual must lie strictly between 0 and 1")
    with np.errstate(over="ignore"):
        duration = float(np.log(1.0 / residual) / rate)
    if not 0.0 < duration < np.inf:
        raise UnstableSpectrum(f"slowest rate {float(rate)!r} gives pulse duration {duration!r} "
                               f"at residual {residual:g}")
    return duration


def _ground_frame(fp: FieldParams, basis: DarkBasis) -> np.ndarray:
    """Columns ``n1, n2, e^{i xi} b`` of ``fp``'s basis: the unitary taking axis 3 to coupling."""
    return np.column_stack([basis.n1, basis.n2, np.exp(1j * fp.xi) * basis.phi_perp])


class _Key(NamedTuple):
    """A key's first field, generator, slowest rate, times and propagator (name, stack, nfev)."""

    first: int
    liou: Liouvillian
    rate: float
    times: np.ndarray
    name: str
    propagator: np.ndarray | None
    nfev: int


def _key_table(fields, rates: Rates,
               tols: IntegratorSettings) -> list[tuple[DarkBasis, _Key, np.ndarray]]:
    """Each field's dark basis, key and rotation: the only per-field set-up.

    The key is the only place that decides which fields share a propagator, and
    which propagator they take: ``"exact"`` for a square envelope, else ``"rk45"``.
    Its propagator is its (65, 16, 17) stack of snapshot propagators: the
    powers of the exponential step (square), or one RK45 solve of ``[Phi | c]``
    from ``[1 | 0]`` (the homogeneous flow and the repump feed's response), real,
    in the Hermitian coordinates.  A time-dependent key that occurs once gets
    None, and its states take their own solve.  The rotation is
    ``U = V(fp) V(ref)^dagger``, exactly 1 for the key's first field.
    """
    keys = [(fp.omega_peak, fp.delta, fp.envelope) for fp in fields]
    table, frames, out = {}, {}, []
    for i, (fp, key) in enumerate(zip(fields, keys)):
        basis, u = dark_basis(fp), np.eye(4, dtype=complex)
        if key not in table:
            liou = build_liouvillian(fp, rates, 1.0)
            rate = slowest_rate(liou)
            times = _readonly(np.linspace(0.0, recommended_duration(rate, tols.residual),
                                          MIN_SNAPSHOTS))
            name = "exact" if fp.envelope is Envelope.SQUARE else "rk45"
            propagator, nfev = None, 0
            if name == "exact":
                propagator = _step(liou, times[-1])
            elif keys.count(key) > 1:
                generators, feed = _hermitian(liou)
                propagator, nfev = solve_ivp(generators, fp.envelope, times, np.eye(16, 17),
                                             np.column_stack([np.zeros((16, 16)), feed]), tols)
            table[key] = _Key(i, liou, rate, times, name, propagator, nfev)
            frames[key] = _ground_frame(fp, basis).conj().T
        elif fp is not table[key].liou.field:
            u[:3, :3] = _ground_frame(fp, basis) @ frames[key]
        out.append((basis, table[key], u))
    return out


def _drive(key: _Key, matrices: np.ndarray, u: np.ndarray,
           tols: IntegratorSettings) -> tuple[np.ndarray, int]:
    """The (S, 65, 16) snapshots of an (S, 4, 4) stack under ``key``'s propagator, in its frame.

    ``u`` (the rotation of :func:`_key_table`, one for all states or one each) takes
    them in as ``U^dagger rho U``, so a snapshot ``X`` is ``U X U^dagger`` in their
    frame.  An RK45 key's states go in and its snapshots come back through the
    Hermitian coordinates.  A lone key takes one RK45 solve, whose ``nfev`` is
    returned (else 0).
    """
    matrices = u.conj().swapaxes(-1, -2) @ matrices @ u
    if key.name == "exact":
        return _snapshots(key.propagator, matrices), 0
    r = (matrices.reshape(-1, 16) @ _TO.T).real  # drops anti-Hermitian roundoff
    snapshots, nfev = (_solve_states(key.liou, key.times, r, tols) if key.propagator is None
                       else (_snapshots(key.propagator, r), 0))
    return snapshots @ _BACK.T, nfev


def run_sequence(states, steps, rates: Rates,
                 tols: IntegratorSettings = IntegratorSettings()) -> tuple[Trajectory, ...]:
    """Drive an (S, 4, 4) stack through a sequence of pulses, each for its key's duration.

    Returns one trajectory per pulse; each pulse starts from the previous
    pulse's final snapshots.  A trajectory's ``nfev`` charges a solve's evaluations
    to the pulse that made it, 0 to the others.
    """
    matrices = _stack(states)
    out = []
    for i, (basis, key, u) in enumerate(_key_table(steps, rates, tols)):
        snapshots, nfev = _drive(key, matrices, u, tols)
        snapshots = (u @ snapshots.reshape(-1, MIN_SNAPSHOTS, 4, 4)
                     @ u.conj().T).reshape(snapshots.shape)
        nfev += key.nfev if i == key.first else 0
        out.append(_trajectory(key.times, snapshots, tols.atol, key.name, nfev, basis))
        matrices = out[-1].states[:, -1]
    return tuple(out)


class MapCheck(NamedTuple):
    """Each case's distance, and each key's ``first_case``, ``duration``, ``slowest_rate``,
    ``propagator`` and ``nfev`` (the evaluations of its shared solve and its cases' own).
    """

    distances: np.ndarray
    keys: tuple[dict, ...]


def verify_map(states, fields, rates: Rates,
               tols: IntegratorSettings = IntegratorSettings()) -> MapCheck:
    """Distances between driven endpoints and the analytic relaxation map, one per case.

    Case ``s`` drives ``states[s]``, of one validated (S, 4, 4) stack, through ``fields[s]``
    for its key's duration at ``tols.residual``, sharing propagators as :func:`run_sequence`
    does, and is compared with the relaxation map, which both regimes share.  An
    integrator error names a case by its index in the batch and its own time.
    """
    states = _stack(states, len(fields))
    _check_trace_one(states)  # the map's own check, made before any propagator is built
    bases, table, u = zip(*_key_table(fields, rates, tols))
    mapped = relax_closed(states, np.stack([basis.projector for basis in bases]))
    u = np.stack(u)
    finals = np.empty(states.shape, dtype=complex)
    min_eigs, traces = np.empty((2, len(fields), MIN_SNAPSHOTS))
    records = []
    for key in {key.first: key for key in table}.values():
        cases, nfev = np.flatnonzero([k is key for k in table]), key.nfev
        for block in np.split(cases, range(_BLOCK, len(cases), _BLOCK)):
            snapshots, solved = _drive(key, states[block], u[block], tols)
            stack, min_eigs[block], traces[block] = _symmetrized(snapshots)
            finals[block] = u[block] @ stack[:, -1] @ u[block].conj().swapaxes(-1, -2)
            nfev += solved
        records.append({"first_case": key.first, "duration": float(key.times[-1]),
                        "slowest_rate": key.rate, "propagator": key.name, "nfev": nfev})
    _monitor(np.stack([key.times for key in table]), min_eigs, traces, tols.atol)
    return MapCheck(hs_distance(finals, mapped), tuple(records))


def write_trajectory_csv(traj: Trajectory, state: int, path) -> None:
    """Write one state of a trajectory as CSV: time, entries, populations, trace, dark weight."""
    labels = ("gm", "gpi", "gp", "e")
    header = ["time"] + [f"{part}_{a}{b}" for a in labels for b in labels for part in ("re", "im")]
    header += [f"pop_{l}" for l in labels] + ["trace", "dark_weight"]
    stack = traj.states[state]
    p = traj.basis.projector
    table = np.column_stack([
        traj.times,
        np.stack([stack.real, stack.imag], axis=-1).reshape(len(stack), 32),
        stack.diagonal(axis1=1, axis2=2).real,
        np.trace(stack, axis1=1, axis2=2).real,
        np.trace(p @ stack @ p, axis1=1, axis2=2).real,
    ])
    write_csv(path, header, table)
