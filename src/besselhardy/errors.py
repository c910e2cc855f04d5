"""Exception types shared across the package."""


class BesselHardyError(Exception):
    pass


class DegeneratePotential(BesselHardyError):
    """Stopping functional never exceeds 1, so no maximal interval exists."""


class BalanceUnreachable(BesselHardyError):
    """No balanced interval exists between the doubled interval and its parent."""


class SupportViolation(BesselHardyError):
    """Atom support leaves the region its kind allows."""


class CutoffViolation(BesselHardyError):
    """Cutoff function fails its plateau/support/slope envelope."""


class MixedGrids(BesselHardyError):
    """Operands live on different grids."""


class QuadratureBudgetExceeded(BesselHardyError):
    """Adaptive quadrature failed to meet tolerance within its budget."""


class InvalidInput(BesselHardyError, ValueError):
    """An argument is outside the domain an entry point accepts."""


class NonLocallyIntegrable(InvalidInput):
    """Potential fails the local integrability requirement for the weight."""


class ConfigError(BesselHardyError):
    """Invalid run configuration."""
