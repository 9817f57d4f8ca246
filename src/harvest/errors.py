"""Exception hierarchy for the harvester toolkit."""


class HarvestError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(HarvestError, ValueError):
    """A parameter violates its physical-validity constraint."""


class BistabilityLossError(HarvestError):
    """The effective stiffness correction removed the double well (delta1 <= delta_eff)."""


class SeparatrixBandError(HarvestError):
    """Requested energy lies inside the separatrix exclusion band where the period diverges."""


class ConvergenceError(HarvestError):
    """An iterative solver failed to converge within its iteration cap."""


class EnergyRangeError(HarvestError):
    """Energy outside the admissible range for the requested motion regime or table."""


class LinearResponseError(HarvestError):
    """The two-state linear-response expansion fails: the signal's share of the switching is q >= 1."""


class ConfigError(HarvestError, ValueError):
    """Run configuration document violates the schema."""
