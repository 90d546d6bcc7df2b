"""Asymptotic input-output relaxation maps, sequence composition, and metrics.

For a fixed drive the system relaxes into the dark subspace of that drive.
The t -> infinity limit is an affine map of the input state: with a closed
ground manifold the dark block survives and the lost weight is refilled as
the maximally mixed dark state; with external loss plus repump the same map
emerges, because the constant offset state (the second dark dyad) lies inside
the dark block and cancels.  The map therefore depends only on the four
polarization/phase angles, never on the relaxation regime, amplitude, global
phase, detuning, envelope, or duration.  Sequences and affine forms use the
closed-manifold map; the tests keep the literal lossy-regime form as the
reference they check it against.

A pulse sequence is the composition of these maps, one per step; because each
step is affine on the trace-one hyperplane, convex mixtures commute with the
whole sequence.  States come in and go out as plain (..., 4, 4) arrays, checked
here only for the unit trace the maps rely on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import FieldParams, dark_basis
from .errors import NegativeRadicand, TraceMismatch

__all__ = [
    "relax_closed",
    "compose_sequence",
    "mismatch",
    "hs_distance",
    "relaxation_affine",
    "sequence_affine",
]

TRACE_TOL = 1e-9

_TRACE_ROW = np.eye(4).reshape(16)


def _check_trace_one(matrices: np.ndarray) -> None:
    traces = np.trace(matrices, axis1=-2, axis2=-1).real
    worst = float(np.abs(traces - 1.0).max(initial=0.0))
    if worst > TRACE_TOL:
        raise TraceMismatch(f"input trace differs from 1 by {worst!r}, beyond {TRACE_TOL}")


def relax_closed(states: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Relaxation map with a closed ground manifold (no external loss).

    Keeps the dark block of each (..., 4, 4) input and redistributes everything
    else as the maximally mixed dark state, so the output has trace 1 and is
    supported on the dark subspace.  Idempotent for a fixed projector.  The
    dark projectors broadcast against the stack, which is checked for trace 1
    only.
    """
    _check_trace_one(states)
    block = projectors @ states @ projectors
    weight = 1.0 - np.trace(block, axis1=-2, axis2=-1).real
    return block + 0.5 * weight[..., None, None] * projectors


def compose_sequence(states: np.ndarray, steps: Sequence[FieldParams]) -> np.ndarray:
    """A (..., 4, 4) stack of trace-one states after the steps, in order.

    Applies the sequence's affine form once to the whole stack; with no steps
    the input comes back unchanged.
    """
    states = np.asarray(states)
    _check_trace_one(states)
    if not steps:
        return states
    k, c = sequence_affine(steps)
    return (states.reshape(-1, 16) @ k.T + c).reshape(states.shape)


def mismatch(rho_bar: np.ndarray, rho_f: np.ndarray):
    """Overlap mismatch (1 - Tr{rho_bar rho_f})^(1/2) of (..., 4, 4) stacks, broadcast.

    Vanishes only when both states are pure and equal; for a mixed reference
    it has a strictly positive floor sqrt(1 - Tr rho_f^2), which is why the
    optimizer minimizes :func:`hs_distance` instead.  Radicands within 1e-9
    below zero are clamped to 0.
    """
    overlap = np.einsum("...ij,...ji->...", rho_bar, rho_f).real
    radicand = 1.0 - overlap
    if np.any(radicand < -1e-9):
        raise NegativeRadicand(f"state overlap {float(overlap.max())!r} exceeds 1 + 1e-9")
    return np.sqrt(np.maximum(radicand, 0.0))


def hs_distance(rho_bar: np.ndarray, rho_f: np.ndarray):
    """Hilbert-Schmidt distance sqrt(Tr{(rho_bar - rho_f)^2}) of (..., 4, 4) stacks, broadcast.

    Vanishes exactly at equality; equals sqrt(2) times the mismatch when both
    states are pure.
    """
    return np.linalg.norm(np.subtract(rho_bar, rho_f), axis=(-2, -1))


def relaxation_affine(fp: FieldParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized affine form (K, c) of one relaxation step: vec_out = K vec_in + c.

    Exact rewrite of the map for row-major vectorization, the same in both
    relaxation regimes; used to evaluate whole sequences on batches of states
    and by cross-checks against the spectral projection onto the zero subspace.
    """
    p = dark_basis(fp).projector
    # vec(P rho P) = (P kron P^T) vec(rho)
    sandwich = np.kron(p, p.T)
    pd = p.reshape(16)
    k = sandwich - 0.5 * np.outer(pd, sandwich.T @ _TRACE_ROW)
    return k, 0.5 * pd


def sequence_affine(steps: Iterable[FieldParams]) -> tuple[np.ndarray, np.ndarray]:
    """Affine form of a whole sequence, composed step by step."""
    k_total = np.eye(16, dtype=complex)
    c_total = np.zeros(16, dtype=complex)
    for fp in steps:
        k, c = relaxation_affine(fp)
        k_total = k @ k_total
        c_total = k @ c_total + c
    return k_total, c_total
