"""Independent witnesses of the repumped regime, kept with the tests that call them.

The package relaxes every state with the closed-manifold map, which the physics
says the lossy + repumped regime coincides with.  These functions build that
regime's answer another way: :func:`relax_repumped` is the literal lossy map,
:func:`repump_steady_state` its constant offset state from the angles, and
:func:`steady_affine` the same state solved from the generator.  No command runs
them; the acceptance criteria and the unit tests check the package against them.
"""

import numpy as np

from darkpulse import DarkpulseError, FieldParams, Liouvillian, Mode, dark_basis, unvec, vec
from darkpulse.maps import _check_trace_one


class SingularSystem(DarkpulseError):
    """The affine steady-state linear system has no solution matching the closed form."""


def repump_steady_state(fp: FieldParams) -> np.ndarray:
    """Constant offset state of the lossy + repumped dynamics.

    Built from the polarization angles alone; equals the dyad of the second
    dark vector, which makes it invisible to the relaxation map itself.
    """
    ph, mm, mp = fp.phi, fp.mu_minus, fp.mu_plus
    out = np.zeros((4, 4), dtype=complex)
    out[2, 2] = np.sin(ph) ** 2
    out[0, 0] = np.cos(ph) ** 2
    cross = -0.5 * np.exp(1j * (mp - mm)) * np.sin(2.0 * ph)
    out[2, 0] = cross
    out[0, 2] = np.conj(cross)
    return out


def relax_repumped(rho: np.ndarray, fp: FieldParams) -> np.ndarray:
    """Relaxation map with external loss compensated by repumping, on one 4x4 state.

    The offset state minus its own dark block cancels, so this coincides with
    the closed-manifold map; it is kept as the literal lossy-regime form and
    exercises the offset-state construction.
    """
    _check_trace_one(rho)
    p = dark_basis(fp).projector
    tilde = repump_steady_state(fp)
    block = p @ rho @ p
    return tilde - p @ tilde @ p + block + 0.5 * (1.0 - np.trace(block).real) * p


def steady_affine(liou: Liouvillian) -> np.ndarray:
    """The constant offset state of the repumped dynamics, solving m r + d = 0.

    The minimum-norm least-squares solution fixes the component outside the
    kernel; the kernel component is then matched to the closed-form offset
    state (the second dark dyad), and the combined vector is verified to
    solve the system.

    Raises
    ------
    SingularSystem
        If no solution within tolerance matches the closed form.
    """
    if liou.rates.mode is not Mode.BETA:
        raise ValueError("steady_affine requires mode beta (gamma_ext, r_pump > 0)")
    particular, *_ = np.linalg.lstsq(liou.m, -liou.d, rcond=None)
    closed = vec(repump_steady_state(liou.field))
    # the two solutions may only differ inside the kernel
    gap = closed - particular
    if np.linalg.norm(liou.m @ gap) > 1e-9 * max(np.linalg.norm(liou.m), 1.0):
        raise SingularSystem("least-squares solution is not reconcilable with the closed form")
    residual = np.linalg.norm(liou.m @ closed + liou.d)
    if residual > 1e-10:
        raise SingularSystem(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return unvec(closed)
