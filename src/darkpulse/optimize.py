"""Search for a fixed pulse sequence steering every initial state to one target.

The search space is the 4N polarization/phase angles of an N-step sequence.
On trace-one ground-state inputs one step is the linear map
rho -> P rho P + (b^dagger rho b) P / 2 of the 3x3 ground block, where b is
the bright vector and P = I - b b^dagger; the map is the same in both
relaxation regimes.  A candidate sequence therefore collapses to one 9x9
matrix A, and the objective, the root-mean-square Hilbert-Schmidt distance to
the target over a grid of initial states, needs only the grid's first and
second moments (the maximum is reported alongside).

Descent is multi-start nonlinear conjugate gradient.  The gradient is
analytic and computed in reverse mode through the N-step composition from
prefix and suffix products of the step maps, as in GRAPE (Khaneja et al.,
J. Magn. Reson. 172, 296 (2005)); one kernel returns value and gradient from
the angle array alone.  Every restart draws fresh random angles except the
last pulse, which is seeded (optionally pinned) from the inverse dark-span
solver so the final dark subspace starts out containing the target span.
Grid states enter as ``core.pure_state_dyads`` projectors.  The search takes
one ``OptimizerSettings`` and no drive: its steps carry ``FieldParams``'
default amplitude and envelope.  Results are deterministic for a fixed seed.
"""

from __future__ import annotations

import sys
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


def __getattr__(name: str):
    # scipy.optimize costs most of a second to import and only the optimizer
    # uses it, so minimize is loaded on first use and kept as a module global;
    # optimize_sequence calls it through the module, so a rebinding is seen
    if name == "minimize":
        from scipy.optimize import minimize
        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RestartRecord(NamedTuple):
    """Work done by one optimizer restart and why it stopped."""

    iterations: int
    function_evals: int  # each one is a value and its gradient
    final_value: float
    termination: str  # "tol", "maxiter", "no free angles", or scipy's message


@dataclass(frozen=True)
class OptimizationResult:
    """Best sequence found, its objective, and per-state quality on the grid."""

    sequence: tuple[FieldParams, ...]
    objective_value: float
    per_state_distances: np.ndarray  # (G, 2) columns: hs_distance, mismatch
    iterations: int
    converged: bool
    restart_history: tuple[float, ...]  # best-so-far after each restart
    restarts: tuple[RestartRecord, ...]

    def __post_init__(self) -> None:
        d = np.asarray(self.per_state_distances, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "per_state_distances", d)


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


def _termination(res, tol: float) -> str:
    if res.fun < tol:
        return "tol"
    if res.status == 1:
        return "maxiter"
    return str(res.message)


def optimize_sequence(n_steps: int, target: TargetState, grid: np.ndarray,
                      settings: OptimizerSettings) -> OptimizationResult:
    """Multi-start conjugate-gradient search for an N-step steering sequence.

    Each restart draws angles uniformly from a generator seeded with
    ``settings.seed``; the last pulse is always initialized from
    :func:`field_for_span` on the target vectors and held fixed when
    ``pin_last`` is set.  A restart stops once the objective drops below
    ``tol`` or after ``max_iter`` iterations; the whole search stops early
    when the best value is below ``tol``, and ``converged`` reports exactly
    that test.  The reported ``objective_value`` is recomputed from the
    per-state distances; it differs from the moment-formula value the search
    stops on by rounding, about 1e-10 near an optimum of 1e-6, so it can sit
    on the other side of ``tol``.  Results are bit-reproducible for fixed
    arguments.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    moments = _grid_moments(grid, target)
    last_angles = np.array(field_for_span(target.psi1, target.psi2).angles)
    pinned = last_angles if settings.pin_last else None

    def stop_below_tol(intermediate_result):
        if intermediate_result.fun < settings.tol:
            raise StopIteration

    rng = np.random.default_rng(settings.seed)
    best_value, best_params = np.inf, None
    history: list[float] = []
    records: list[RestartRecord] = []
    for _ in range(settings.restarts):
        x0 = rng.uniform(0.0, 2.0 * np.pi, size=4 * n_steps)
        x0[-4:] = last_angles
        free0 = x0[:-4] if settings.pin_last else x0
        if free0.size == 0:
            value = _rms_and_gradient(free0, *moments, pinned)[0]
            params = x0
            records.append(RestartRecord(0, 1, value, "no free angles"))
        else:
            res = sys.modules[__name__].minimize(
                _rms_and_gradient, free0, args=(*moments, pinned), method="CG", jac=True,
                callback=stop_below_tol, options={"maxiter": settings.max_iter, "gtol": 1e-14})
            value = float(res.fun)
            params = np.concatenate([res.x, last_angles]) if settings.pin_last else res.x.copy()
            records.append(RestartRecord(int(res.nit), int(res.nfev), value,
                                         _termination(res, settings.tol)))
        if value < best_value:
            best_value, best_params = value, params
        history.append(best_value)
        if best_value < settings.tol:
            break

    steps = tuple(FieldParams(theta=a[0], phi=a[1], mu_minus=a[2], mu_plus=a[3])
                  for a in best_params.reshape(-1, 4))
    per_state = state_distances(grid, steps, target)
    return OptimizationResult(
        sequence=steps,
        objective_value=float(np.sqrt(np.mean(per_state[:, 0] ** 2))),
        per_state_distances=per_state,
        iterations=sum(r.iterations for r in records),
        converged=bool(best_value < settings.tol),
        restart_history=tuple(history),
        restarts=tuple(records),
    )
