"""Exception and warning types shared across the package."""


class DarkpulseError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSpan(DarkpulseError):
    """The two target vectors do not span a two-dimensional subspace."""


class TraceMismatch(DarkpulseError):
    """A relaxation map received a state whose trace is not 1."""


class NegativeRadicand(DarkpulseError):
    """The overlap Tr{rho_a rho_b} exceeded 1 beyond numerical tolerance."""


class UnexpectedDimension(DarkpulseError):
    """The numerically detected null-space dimension is not the expected one."""


class UnstableSpectrum(DarkpulseError):
    """A generator eigenvalue has a positive real part beyond tolerance."""


class StepSizeUnderflow(DarkpulseError):
    """The adaptive step-size controller stalled during integration."""


class PositivityViolation(DarkpulseError):
    """An integrated snapshot developed an eigenvalue below the monitoring threshold."""


class TraceViolation(DarkpulseError):
    """An integrated snapshot's trace left (0, 1] by more than the monitoring slack."""


class ConfigError(DarkpulseError):
    """An experiment configuration failed validation; the message names the field."""


class AngleUnderdetermined(UserWarning):
    """Flag: a normal pi-polarized to rounding (sin theta < 1e-15) leaves phi, mu+- unset (0)."""
