"""Engineering pure and mixed states in the dark subspace of a four-level lambda system.

The package splits into the state space and dark-state geometry (:mod:`core`),
the vectorized master-equation generator and its zero subspaces
(:mod:`liouville`), the asymptotic relaxation maps and metrics (:mod:`maps`),
full master-equation integration and certification (:mod:`dynamics`), the
pulse-sequence optimizer (:mod:`optimize`), config (:mod:`config`) and CLI (:mod:`cli`).
"""

from .config import IntegratorSettings, OptimizerSettings
from .core import (DarkBasis, DensityOperator, Envelope, FieldParams, Mode, TargetState,
                   bloch_coords, build_hamiltonian, dark_basis, embed_ground, field_for_span,
                   pure_state_dyads)
from .dynamics import (PulseRecord, Trajectory, integrate_master, recommended_duration,
                       run_sequence, verify_map)
from .errors import (AngleUnderdetermined, ConfigError, DarkpulseError, DegenerateSpan,
                     NegativeRadicand, PositivityViolation, StepSizeUnderflow,
                     TraceMismatch, TraceViolation, UnexpectedDimension, UnstableSpectrum)
from .liouville import (Liouvillian, Rates, ZeroSubspace, build_liouvillian,
                        closed_form_zero_modes, slowest_rate, unvec, vec, zero_subspace)
from .maps import (compose_sequence, hs_distance, mismatch, relax_closed, relaxation_affine,
                   sequence_affine)
from .optimize import (OptimizationResult, initial_state_grid, optimize_sequence,
                       random_pure_states)

__version__ = "0.1.0"

__all__ = [
    "AngleUnderdetermined", "ConfigError", "DarkBasis", "DarkpulseError",
    "DegenerateSpan", "DensityOperator", "Envelope", "FieldParams", "IntegratorSettings",
    "Liouvillian", "Mode", "NegativeRadicand", "OptimizationResult", "OptimizerSettings",
    "PositivityViolation", "PulseRecord", "Rates", "StepSizeUnderflow",
    "TargetState", "TraceMismatch", "TraceViolation", "Trajectory", "UnexpectedDimension",
    "UnstableSpectrum", "ZeroSubspace", "bloch_coords",
    "build_hamiltonian", "build_liouvillian", "closed_form_zero_modes",
    "compose_sequence", "dark_basis", "embed_ground", "field_for_span", "hs_distance",
    "initial_state_grid", "integrate_master", "mismatch", "optimize_sequence",
    "pure_state_dyads", "random_pure_states",
    "recommended_duration", "relax_closed", "relaxation_affine", "run_sequence",
    "sequence_affine", "slowest_rate", "unvec", "vec",
    "verify_map", "zero_subspace",
]
