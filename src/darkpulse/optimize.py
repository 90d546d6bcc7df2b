"""Search for a fixed pulse sequence steering every initial state to one target.

The search space is the 4N polarization/phase angles of an N-step sequence.
On trace-one ground-state inputs one step is the linear map
rho -> P rho P + (b^dagger rho b) P / 2 of the 3x3 ground block, where b is
the bright vector and P = I - b b^dagger; the map is the same in both
relaxation regimes.  A candidate sequence therefore collapses to one 9x9
matrix A, and the objective, the root-mean-square Hilbert-Schmidt distance to
the target over a grid of initial states, needs only the grid's first and
second moments (the maximum is reported alongside).

Descent is multi-start L-BFGS with a strong-Wolfe line search, in numpy
(Nocedal & Wright, Numerical Optimization, 2nd ed., Alg. 3.5-3.6 and 7.5).
The gradient is analytic and computed in reverse mode through the N-step
composition from prefix and suffix products of the step maps, as in GRAPE
(Khaneja et al., J. Magn. Reson. 172, 296 (2005)); one kernel returns value
and gradient from the angle array alone.  Every restart draws fresh random angles except the
last pulse, which is seeded (optionally pinned) from the inverse dark-span
solver so the final dark subspace starts out containing the target span.
Grid states enter as ``core.pure_state_dyads`` projectors.  The search takes
one ``OptimizerSettings`` and no drive: its steps carry ``FieldParams``'
default amplitude and envelope.  Results are deterministic for a fixed seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import OptimizerSettings
from .core import (FieldParams, TargetState, bright_vector, bright_vector_jacobian,
                   field_for_span, pure_state_dyads)
from .maps import compose_sequence, hs_distance, mismatch

__all__ = [
    "RestartRecord",
    "OptimizationResult",
    "initial_state_grid",
    "random_pure_states",
    "state_distances",
    "optimize_sequence",
]

# positions of the 3x3 ground block in a row-major vectorized 4x4 matrix
_GROUND = np.array([0, 1, 2, 4, 5, 6, 8, 9, 10])

MEMORY = 10  # (step, gradient change) pairs kept by the L-BFGS two-loop recursion
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9  # sufficient decrease and curvature constants
STATIONARY_NORM = 1e-14  # a gradient this small stops a restart
LINE_SEARCH_TRIALS = 20  # evaluations one line search may spend


class RestartRecord(NamedTuple):
    """Work done by one optimizer restart and why it stopped."""

    iterations: int
    function_evals: int  # each one is a value and its gradient
    final_value: float
    termination: str  # "tol", "maxiter", "stationary", "line search" or "no free angles"


@dataclass(frozen=True)
class OptimizationResult:
    """Best sequence found, its objective, and per-state quality on the grid."""

    sequence: tuple[FieldParams, ...]
    objective_value: float
    per_state_distances: np.ndarray  # (G, 2) columns: hs_distance, mismatch
    converged: bool
    restarts: tuple[RestartRecord, ...]

    def __post_init__(self) -> None:
        d = np.asarray(self.per_state_distances, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "per_state_distances", d)

    @property
    def iterations(self) -> int:
        """Iterations summed over the restarts."""
        return sum(r.iterations for r in self.restarts)

    @property
    def restart_history(self) -> tuple[float, ...]:
        """Best value so far after each restart."""
        return tuple(accumulate((r.final_value for r in self.restarts), min))


def initial_state_grid(resolution: int) -> np.ndarray:
    """Pure ground states on a uniform grid of two amplitude angles and two phases.

    The parameterization is |psi> = [cos(chi1), sin(chi1) cos(chi2) e^{i b2},
    sin(chi1) sin(chi2) e^{i b3}] with chi in [0, pi/2] endpoint-included and
    the phases on [0, 2 pi) endpoint-excluded, so the read-only (G, 3) array
    has G = resolution^4 rows and the three basis states sit at corner points.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    chi = np.linspace(0.0, np.pi / 2.0, resolution)
    beta = np.arange(resolution) * 2.0 * np.pi / resolution
    # "ij" indexing runs the last phase fastest, so row g is the g-th point
    # of the nested loop over (chi1, chi2, b2, b3)
    c1, c2, b2, b3 = np.meshgrid(chi, chi, beta, beta, indexing="ij")
    states = np.stack([np.cos(c1),
                       np.sin(c1) * np.cos(c2) * np.exp(1j * b2),
                       np.sin(c1) * np.sin(c2) * np.exp(1j * b3)], axis=-1)
    states = states.reshape(-1, 3)
    states.setflags(write=False)
    return states


def random_pure_states(n: int, seed) -> np.ndarray:
    """Haar-like random pure ground states (complex Gaussian, normalized)."""
    rng = np.random.default_rng(seed)
    psis = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return psis / np.linalg.norm(psis, axis=1)[:, None]


def state_distances(states: np.ndarray, steps, target: TargetState) -> np.ndarray:
    """Per-state (hs_distance, mismatch) to the target after the steps, columns stacked."""
    out = compose_sequence(pure_state_dyads(states), steps)
    rho_f = target.density_matrix()
    return np.column_stack([hs_distance(out, rho_f), mismatch(out, rho_f)])


def _grid_moments(states: np.ndarray, target: TargetState
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second moment C, mean m of the grid's ground blocks, and the target block t."""
    vecs = pure_state_dyads(states).reshape(-1, 16)[:, _GROUND]
    moment = vecs.T @ vecs.conj() / vecs.shape[0]
    target_vec = target.density_matrix().reshape(16)[_GROUND]
    return moment, vecs.mean(axis=0), target_vec


def _kron_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched x kron y^T of 3x3 matrices: the row-major vec form of rho -> x rho y."""
    e = x[..., :, None, :, None] * np.swapaxes(y, -1, -2)[..., None, :, None, :]
    return e.reshape(e.shape[:-4] + (9, 9))


def _rms_and_gradient(free: np.ndarray, moment: np.ndarray, mean_vec: np.ndarray,
                      target_vec: np.ndarray, pinned: np.ndarray | None
                      ) -> tuple[float, np.ndarray]:
    """Grid RMS distance to the target and its gradient in the free angles.

    ``free`` holds four angles per step; ``pinned``, when given, is appended
    as the fixed last step and gets no gradient.  With step maps A_l, prefix
    products Pre_l = A_{l-1}...A_1 and suffix products Suf_l = A_N...A_{l+1},
    the mean squared distance is Q = tr(A C A^dagger) - 2 Re(t^dagger A m) + |t|^2
    for A = A_N...A_1, and dQ/dx = 2 Re tr(dA_l/dx Pre_l G Suf_l) with
    G = C A^dagger - m t^dagger.
    """
    angles = (free if pinned is None else np.concatenate([free, pinned])).reshape(-1, 4)
    n = angles.shape[0]
    b = bright_vector(angles)                    # (n, 3)
    db = bright_vector_jacobian(angles)          # (n, 4, 3)
    bc, dbc = b.conj(), db.conj()
    proj = np.eye(3) - b[:, :, None] * bc[:, None, :]
    dproj = -(db[..., :, None] * bc[:, None, None, :] + b[:, None, :, None] * dbc[..., None, :])
    # vec of conj(b) b^T, so that b^dagger rho b = w . vec(rho)
    w = (bc[:, :, None] * b[:, None, :]).reshape(n, 9)
    dw = (dbc[..., :, None] * b[:, None, None, :]
          + bc[:, None, :, None] * db[..., None, :]).reshape(n, 4, 9)
    vproj, dvproj = proj.reshape(n, 9), dproj.reshape(n, 4, 9)
    steps = _kron_t(proj, proj) + 0.5 * vproj[:, :, None] * w[:, None, :]
    dsteps = (_kron_t(dproj, proj[:, None]) + _kron_t(proj[:, None], dproj)
              + 0.5 * (dvproj[..., :, None] * w[:, None, None, :]
                       + vproj[:, None, :, None] * dw[..., None, :]))

    prefix = np.empty((n, 9, 9), dtype=complex)
    suffix = np.empty((n, 9, 9), dtype=complex)
    total = np.eye(9, dtype=complex)
    for l in range(n):
        prefix[l] = total
        total = steps[l] @ total
    suffix[n - 1] = np.eye(9)
    for l in range(n - 1, 0, -1):
        suffix[l - 1] = suffix[l] @ steps[l]

    quad = np.vdot(total, total @ moment).real
    cross = np.vdot(target_vec, total @ mean_vec).real
    value = float(np.sqrt(max(quad - 2.0 * cross + np.vdot(target_vec, target_vec).real, 0.0)))

    g = moment @ total.conj().T - np.outer(mean_vec, target_vec.conj())
    dq = 2.0 * np.einsum("lapq,lqp->la", dsteps, prefix @ g @ suffix).real
    grad = dq / (2.0 * value) if value > 0.0 else np.zeros_like(dq)
    if pinned is not None:
        grad = grad[:-1]
    return value, grad.ravel()


def _cubic_step(lo: tuple, hi: tuple) -> float:
    """The minimizer of the cubic through two (step, value, slope) ends (N&W eq. 3.59),
    if it lies in the bracket's inner 80 percent, else the bracket's midpoint."""
    (a0, f0, d0), (a1, f1, d1) = lo, hi
    e1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    radicand = e1 * e1 - d0 * d1
    if radicand >= 0.0:
        e2 = float(np.copysign(np.sqrt(radicand), a1 - a0))
        denominator = d1 - d0 + 2.0 * e2
        if denominator != 0.0:
            step = a1 - (a1 - a0) * (d1 + e2 - e1) / denominator
            if abs(step - 0.5 * (a0 + a1)) <= 0.4 * abs(a1 - a0):
                return step
    return 0.5 * (a0 + a1)


def _line_search(fun, x: np.ndarray, value: float, grad: np.ndarray, direction: np.ndarray,
                 step: float):
    """Evaluations spent, and (step, value, gradient) at a strong-Wolfe point or None.

    Doubles the step until a (step, value, slope) bracket [lo, hi] holds such a
    point, then zooms in by cubic interpolation (N&W Alg. 3.5-3.6).
    """
    slope0 = float(grad @ direction)
    lo, hi = (0.0, value, slope0), None
    for trials in range(1, LINE_SEARCH_TRIALS + 1):
        trial_value, trial_grad = fun(x + step * direction)
        slope = float(trial_grad @ direction)
        if trial_value > value + WOLFE_C1 * step * slope0 or trial_value >= lo[1]:
            hi = (step, trial_value, slope)
        elif abs(slope) <= -WOLFE_C2 * slope0:
            return trials, (step, trial_value, trial_grad)
        else:
            # a slope pointing back at lo puts a minimizer between lo and the trial
            if slope * (1.0 if hi is None else hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (step, trial_value, slope)
        step = 2.0 * lo[0] if hi is None else _cubic_step(lo, hi)
    return LINE_SEARCH_TRIALS, None


def minimize(fun, x0, settings: OptimizerSettings) -> tuple[np.ndarray, RestartRecord]:
    """L-BFGS (N&W Alg. 7.4-7.5) on ``fun``, which returns a value and its gradient.

    Stops when the value drops below ``settings.tol`` ("tol"), after
    ``settings.max_iter`` iterations ("maxiter"), at a gradient norm of at most
    ``STATIONARY_NORM`` ("stationary"), or when the line search finds no Wolfe
    point ("line search").  Returns the last iterate and the restart's record.
    """
    x = np.array(x0, dtype=float)
    value, grad = fun(x)
    evaluations = 1
    pairs: deque = deque(maxlen=MEMORY)  # (s, y, 1 / y.s)
    iterations, termination = 0, None
    while termination is None:
        if value < settings.tol:
            termination = "tol"
        elif iterations == settings.max_iter:
            termination = "maxiter"
        elif np.linalg.norm(grad) <= STATIONARY_NORM:
            termination = "stationary"
        else:
            direction = -grad
            alphas = []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * (s @ direction))
                direction = direction - alphas[-1] * y
            if pairs:
                s, y, rho = pairs[-1]
                direction = direction / (rho * (y @ y))  # initial H = (s.y / y.y) I
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                direction = direction + (alpha - rho * (y @ direction)) * s
            first = 1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(grad)))
            trials, found = _line_search(fun, x, value, grad, direction, first)
            evaluations += trials
            if found is None:
                termination = "line search"
            else:
                step, value, new_grad = found
                s, y = step * direction, new_grad - grad
                if s @ y > 0.0:
                    pairs.append((s, y, 1.0 / (s @ y)))
                x, grad = x + s, new_grad
                iterations += 1
    return x, RestartRecord(iterations, evaluations, float(value), termination)


def optimize_sequence(n_steps: int, target: TargetState, grid: np.ndarray,
                      settings: OptimizerSettings) -> OptimizationResult:
    """Multi-start L-BFGS search for an N-step steering sequence.

    Each restart draws angles uniformly from a generator seeded with
    ``settings.seed``; the last pulse is always initialized from
    :func:`field_for_span` on the target vectors and held fixed when
    ``pin_last`` is set.  Each restart is one :func:`minimize` run, whose
    record says why it stopped; the whole search stops early when the best
    value is below ``tol``, and ``converged`` reports exactly that test.  The
    reported ``objective_value`` is recomputed from the per-state distances;
    it differs from the moment-formula value the search stops on by rounding,
    about 1e-10 near an optimum of 1e-6, so it can sit on the other side of
    ``tol``.  Results are bit-reproducible for fixed arguments.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    moments = _grid_moments(grid, target)
    last_angles = np.array(field_for_span(target.psi1, target.psi2).angles)
    pinned = last_angles if settings.pin_last else None

    def objective(free):
        return _rms_and_gradient(free, *moments, pinned)

    rng = np.random.default_rng(settings.seed)
    best_value, best_params = np.inf, None
    records: list[RestartRecord] = []
    for _ in range(settings.restarts):
        x0 = rng.uniform(0.0, 2.0 * np.pi, size=4 * n_steps)
        x0[-4:] = last_angles
        free0 = x0[:-4] if settings.pin_last else x0
        if free0.size == 0:
            params, record = x0, RestartRecord(0, 1, objective(free0)[0], "no free angles")
        else:
            free, record = minimize(objective, free0, settings)
            params = np.concatenate([free, last_angles]) if settings.pin_last else free
        records.append(record)
        if record.final_value < best_value:
            best_value, best_params = record.final_value, params
        if best_value < settings.tol:
            break

    steps = tuple(FieldParams(*angles) for angles in best_params.reshape(-1, 4))
    per_state = state_distances(grid, steps, target)
    return OptimizationResult(
        sequence=steps,
        objective_value=float(np.sqrt(np.mean(per_state[:, 0] ** 2))),
        per_state_distances=per_state,
        converged=bool(best_value < settings.tol),
        restarts=tuple(records),
    )
