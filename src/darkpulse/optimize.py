"""Search for a fixed pulse sequence steering every initial state to one target.

The search space is the 4N polarization/phase angles of an N-step sequence.
On trace-one ground-state inputs one step is the linear map
rho -> P rho P + (b^dagger rho b) P / 2 of the 3x3 ground block, where b is
the bright vector and P = I - b b^dagger; the map is the same in both
relaxation regimes.  A candidate sequence therefore collapses to one 9x9
matrix A, and the objective, the root-mean-square Hilbert-Schmidt distance to
the target over a grid of initial states, needs only the grid's second
moment (the maximum is reported alongside).

The mean square is a nonlinear least-squares objective, so descent is
multi-start Levenberg-Marquardt on the Gauss-Newton model (More, LNM 630,
1978), with NL2SOL's structured secant correction for targets the sequence
cannot reach (Dennis, Gay & Welsch, ACM TOMS 7, 348 (1981)), in numpy.  The
derivatives are analytic and computed in reverse mode through the N-step
composition from prefix and suffix products of the step maps, as in GRAPE
(Khaneja et al., J. Magn. Reson. 172, 296 (2005)); one kernel returns value,
gradient and Gauss-Newton matrix from the angle array alone.  The value is
formed from the residual map itself, so it is the per-state RMS to rounding.
Every restart draws fresh random angles except the last pulse, which is
seeded (optionally pinned) from the inverse dark-span solver so the final
dark subspace starts out containing the target span.
Grid states enter as ``core.pure_state_dyads`` projectors.  The search takes
one ``OptimizerSettings`` and no drive: its steps carry ``FieldParams``'
default amplitude and envelope.  Results are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
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

_TRACE = np.eye(3).reshape(9)  # vec(I_3): its inner product with vec(rho) is tr(rho)

ACCEPT_RATIO = 1e-4  # least share of the model's decrease that takes a step
START_DAMPING = 1e-3  # lam of each restart's first step
MAX_DAMPING = 1e16  # a lam above this stops a restart
STATIONARY_NORM = 1e-14  # a gradient this small stops a restart


class RestartRecord(NamedTuple):
    """Work done by one optimizer restart and why it stopped."""

    iterations: int
    function_evals: int  # each one is a value, its gradient and Gauss-Newton matrix
    final_value: float
    gradient_norm: float  # of half the mean square, at the last iterate
    termination: str  # "tol", "maxiter", "stationary", "no progress" or "no free angles"


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


def _grid_moments(states: np.ndarray, target: TargetState) -> tuple[np.ndarray, np.ndarray]:
    """Second moment C of the grid's ground blocks, and the target block t."""
    vecs = pure_state_dyads(states).reshape(-1, 16)[:, _GROUND]
    moment = vecs.T @ vecs.conj() / vecs.shape[0]
    return moment, target.density_matrix().reshape(16)[_GROUND]


def _kron_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched x kron y^T of 3x3 matrices: the row-major vec form of rho -> x rho y."""
    e = x[..., :, None, :, None] * np.swapaxes(y, -1, -2)[..., None, :, None, :]
    return e.reshape(e.shape[:-4] + (9, 9))


def _step_maps(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each step's 9x9 ground-block map and its derivatives by the step's four angles.

    Shapes (n, 4) -> (n, 9, 9) and (n, 4, 9, 9).
    """
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
    return steps, dsteps


def _least_squares(free: np.ndarray, moment: np.ndarray, target_vec: np.ndarray,
                   pinned: np.ndarray | None) -> tuple[float, np.ndarray, np.ndarray]:
    """Half the grid's mean squared distance to the target, its gradient and Gauss-Newton matrix.

    ``free`` holds four angles per step; ``pinned``, when given, is appended
    as the fixed last step and gets no derivatives.  A trace-one input v
    leaves the sequence A = A_N...A_1 with residual E v, E = A - t u^dagger
    and u = vec(I_3), so the value f = Re tr(E C E^dagger) / 2 is formed from
    E, not from moments whose terms cancel.  With prefix products
    Pre_l = A_{l-1}...A_1 and suffix products Suf_l = A_N...A_{l+1}, each angle
    x_i of step l has dA_i = Suf_l dA_l/dx_i Pre_l, the gradient is
    g_i = Re tr(dA_i C E^dagger) and the Gauss-Newton matrix is
    H_ij = Re tr(dA_i C dA_j^dagger).
    """
    angles = (free if pinned is None else np.concatenate([free, pinned])).reshape(-1, 4)
    n = angles.shape[0]
    steps, dsteps = _step_maps(angles)
    prefix = np.empty((n, 9, 9), dtype=complex)
    suffix = np.empty((n, 9, 9), dtype=complex)
    total = np.eye(9, dtype=complex)
    for l in range(n):
        prefix[l] = total
        total = steps[l] @ total
    suffix[n - 1] = np.eye(9)
    for l in range(n - 1, 0, -1):
        suffix[l - 1] = suffix[l] @ steps[l]
    k = n if pinned is None else n - 1  # steps with free angles

    residual = total - np.outer(target_vec, _TRACE)
    d_total = suffix[:k, None] @ dsteps[:k] @ prefix[:k, None]          # (k, 4, 9, 9)
    weighted = (d_total @ moment).reshape(4 * k, 81)
    value = 0.5 * max(np.vdot(residual, residual @ moment).real, 0.0)  # rounding, singular C
    grad = (weighted @ residual.conj().ravel()).real
    gauss_newton = (weighted @ d_total.reshape(4 * k, 81).conj().T).real
    return float(value), grad, gauss_newton


def _secant_update(secant: np.ndarray, s: np.ndarray, y: np.ndarray,
                   gauss_newton: np.ndarray) -> np.ndarray:
    """NL2SOL's correction S_+, sized and symmetric, with (H_+ + S_+) s = y.

    S is first scaled by min(1, |s.y#| / |s.S s|) for y# = y - H_+ s, then
    takes the symmetric rank-two update that maps s to y# (Dennis, Gay &
    Welsch, ACM TOMS 7, 348 (1981)).  Skipped, S unchanged, when s.y <= 0.
    """
    sy = s @ y
    if sy <= 0.0:
        return secant
    y_sharp = y - gauss_newton @ s
    curvature = s @ secant @ s
    if curvature != 0.0:
        secant = secant * min(1.0, abs(s @ y_sharp) / abs(curvature))
    w = y_sharp - secant @ s
    return secant + (np.outer(w, y) + np.outer(y, w)) / sy - (w @ s) * np.outer(y, y) / sy ** 2


def minimize(fun, x0, settings: OptimizerSettings) -> tuple[np.ndarray, RestartRecord]:
    """Damped structured quasi-Newton descent on a least-squares ``fun``.

    ``fun`` returns half a squared residual norm f, its gradient g and its
    Gauss-Newton matrix H.  A step solves (H + S + lam D) d = -g, where S is
    :func:`_secant_update`'s correction and D the running maximum of diag H
    (More, LNM 630, 1978).  A step is taken when the actual decrease is above
    ``ACCEPT_RATIO`` of the model's, and lam then follows Nielsen's rule
    (IMM-REP-1999-05).  The value is the residual norm sqrt(2 f).  Stops when
    there is nothing to vary ("no free angles"), the value drops below
    ``settings.tol`` ("tol"), after ``settings.max_iter`` taken steps
    ("maxiter"), at a gradient norm of at most ``STATIONARY_NORM``
    ("stationary"), or when lam exceeds ``MAX_DAMPING`` ("no progress").
    Returns the last iterate and the restart's record.
    """
    x = np.array(x0, dtype=float)
    half_square, grad, gauss_newton = fun(x)
    evaluations, iterations, termination = 1, 0, None
    secant = np.zeros_like(gauss_newton)
    scale = np.diag(gauss_newton).copy()
    scale[scale == 0.0] = 1.0  # an angle with no effect yet is damped as in MINPACK's lmder
    damping, growth = START_DAMPING, 2.0
    while termination is None:
        if x.size == 0:
            termination = "no free angles"
        elif np.sqrt(2.0 * half_square) < settings.tol:
            termination = "tol"
        elif iterations == settings.max_iter:
            termination = "maxiter"
        elif np.linalg.norm(grad) <= STATIONARY_NORM:
            termination = "stationary"
        elif damping > MAX_DAMPING:
            termination = "no progress"
        else:
            model = gauss_newton + secant
            step = np.linalg.solve(model + damping * np.diag(scale), -grad)
            predicted = -(grad @ step + 0.5 * step @ model @ step)
            trial = fun(x + step)
            evaluations += 1
            ratio = (half_square - trial[0]) / predicted if predicted > 0.0 else -np.inf
            if ratio > ACCEPT_RATIO:
                secant = _secant_update(secant, step, trial[1] - grad, trial[2])
                x = x + step
                half_square, grad, gauss_newton = trial
                scale = np.maximum(scale, np.diag(gauss_newton))
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth = 2.0
                iterations += 1
            else:
                damping, growth = damping * growth, 2.0 * growth
    return x, RestartRecord(iterations, evaluations, float(np.sqrt(2.0 * half_square)),
                            float(np.linalg.norm(grad)), termination)


def optimize_sequence(n_steps: int, target: TargetState, grid: np.ndarray,
                      settings: OptimizerSettings) -> OptimizationResult:
    """Multi-start least-squares search for an N-step steering sequence.

    Each restart draws angles uniformly from a generator seeded with
    ``settings.seed``; the last pulse is always initialized from
    :func:`field_for_span` on the target vectors and held fixed when
    ``pin_last`` is set.  Each restart is one :func:`minimize` run, whose
    record says why it stopped; the whole search stops early when the best
    value is below ``tol``, and ``converged`` reports exactly that test.  The
    reported ``objective_value`` is recomputed from the per-state distances.
    Results are bit-reproducible for fixed arguments.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    moments = _grid_moments(grid, target)
    last_angles = np.array(field_for_span(target.psi1, target.psi2).angles)
    pinned = last_angles if settings.pin_last else None

    def objective(free):
        return _least_squares(free, *moments, pinned)

    rng = np.random.default_rng(settings.seed)
    best_value, best_params = np.inf, None
    records: list[RestartRecord] = []
    for _ in range(settings.restarts):
        x0 = rng.uniform(0.0, 2.0 * np.pi, size=4 * n_steps)
        x0[-4:] = last_angles
        free, record = minimize(objective, x0[:-4] if settings.pin_last else x0, settings)
        records.append(record)
        if record.final_value < best_value:
            best_value = record.final_value
            best_params = np.concatenate([free, last_angles]) if settings.pin_last else free
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
