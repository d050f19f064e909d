"""Exception types shared across the simulator."""


class LambdaDetError(Exception):
    """Base class for all simulator errors."""


class InvalidCutoffError(LambdaDetError, ValueError):
    """Photon-number cutoff too small for the requested physics."""


class NonStaticFrameError(LambdaDetError, ValueError):
    """A static Hamiltonian was requested in a frame where the drive oscillates."""


class LambdaModeError(LambdaDetError, ValueError):
    """Nesting condition 0 < omega_ge - omega_d < 2*chi violated."""


class MatchingPointError(LambdaDetError, RuntimeError):
    """No impedance-matching drive amplitude found in the scanned interval."""

    def __init__(self, message, scan_rabi=None, scan_diff=None):
        super().__init__(message)
        self.scan_rabi = scan_rabi
        self.scan_diff = scan_diff


class IntegrationError(LambdaDetError, RuntimeError):
    """Master-equation propagation failed: a per-sample check or a step underflow."""


class SteadyStateError(LambdaDetError, RuntimeError):
    """Liouvillian steady state is singular or degenerate."""

    def __init__(self, message, nullity=None):
        super().__init__(message)
        self.nullity = nullity


class DipResolutionError(LambdaDetError, RuntimeError):
    """Two impedance-matching dips could not be resolved along the power axis."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan


class ConfigError(LambdaDetError, ValueError):
    """Configuration file problem, annotated with the offending line."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class RenderError(LambdaDetError, ValueError):
    """CSV-to-SVG rendering failed (missing column, empty grid)."""
