"""Engineering pure and mixed states in the dark subspace of a four-level lambda system.

The package splits into the state space and dark-state geometry (:mod:`core`),
the vectorized master-equation generator and its zero subspaces
(:mod:`liouville`), the asymptotic relaxation maps and metrics (:mod:`maps`),
full master-equation integration and certification (:mod:`dynamics`), the
pulse-sequence optimizer (:mod:`optimize`), and the CLI (:mod:`cli`).
"""

from .core import (DarkBasis, DensityOperator, Envelope, FieldParams, Mode, TargetState,
                   bloch_coords, build_hamiltonian, dark_basis, embed_ground, field_for_span)
from .dynamics import (PulseRecord, Trajectory, integrate_master, propagate_exact,
                       recommended_duration, run_pulse, run_pulse_block, verify_map)
from .errors import (AngleUnderdetermined, ConfigError, DarkpulseError, DegenerateSpan,
                     NegativeRadicand, PositivityViolation, SingularSystem,
                     StepSizeUnderflow, TraceMismatch, UnexpectedDimension,
                     UnstableSpectrum)
from .liouville import (Liouvillian, Rates, ZeroSubspace, build_liouvillian,
                        closed_form_zero_modes, slowest_rate, steady_affine, unvec, vec,
                        zero_subspace)
from .maps import (PulseSequence, compose_sequence, hs_distance, mismatch, relax_closed,
                   relax_repumped, relaxation_affine, repump_steady_state, sequence_affine)
from .optimize import (OptimizationResult, StateGrid, initial_state_grid, optimize_sequence,
                       purity_sweep, random_pure_states, sequence_objective)

__version__ = "0.1.0"

__all__ = [
    "AngleUnderdetermined", "ConfigError", "DarkBasis", "DarkpulseError",
    "DegenerateSpan", "DensityOperator", "Envelope", "FieldParams", "Liouvillian",
    "Mode", "NegativeRadicand", "OptimizationResult", "PositivityViolation",
    "PulseRecord", "PulseSequence", "Rates", "SingularSystem", "StateGrid",
    "StepSizeUnderflow", "TargetState", "TraceMismatch", "Trajectory",
    "UnexpectedDimension", "UnstableSpectrum", "ZeroSubspace", "bloch_coords",
    "build_hamiltonian", "build_liouvillian", "closed_form_zero_modes",
    "compose_sequence", "dark_basis", "embed_ground", "field_for_span", "hs_distance",
    "initial_state_grid", "integrate_master", "mismatch", "optimize_sequence",
    "propagate_exact", "purity_sweep", "random_pure_states",
    "recommended_duration", "relax_closed", "relax_repumped", "relaxation_affine",
    "repump_steady_state", "run_pulse", "run_pulse_block", "sequence_affine",
    "sequence_objective", "slowest_rate", "steady_affine", "unvec", "vec", "verify_map",
    "zero_subspace",
]
