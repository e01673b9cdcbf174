"""Exception types shared across the library."""


class MoebiusError(Exception):
    """Base class for library errors."""


class DomainError(MoebiusError, ValueError):
    """Argument outside an operation's mathematical domain (wrong half-plane,
    x < 1, s at an excluded point such as the zeta pole)."""


class CapacityError(MoebiusError, RuntimeError):
    """A configured memory/size budget would be exceeded (sieve span,
    breakpoint-partition size)."""


class PrecisionError(MoebiusError, RuntimeError):
    """A requested error radius is unreachable at the configured precision
    or within the evaluator's cutoff limits."""


class UnsupportedKernelError(MoebiusError, ValueError):
    """Integrand outside the closed-form t^p log^k t family."""


class CoverageError(MoebiusError, ValueError):
    """A sequence table is too short for the requested range."""


class InapplicabilityError(MoebiusError, ValueError):
    """An imported bound was requested outside its validity range."""
