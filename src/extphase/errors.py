"""Exception hierarchy shared by all extphase modules."""


class ExtphaseError(Exception):
    """Base class for all errors raised by this package."""


class DomainEvaluationError(ExtphaseError):
    """A scalar field produced a non-finite value (overflow, division by zero)."""


class IntegrationStallError(ExtphaseError):
    """The adaptive step fell below its floor short of the end; ``trajectory``
    holds the samples so far, and ``s_last``/``state_last`` read its last."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory

    @property
    def s_last(self):
        return float(self.trajectory.s[-1])

    @property
    def state_last(self):
        return self.trajectory.states[-1]


class StepBudgetError(ExtphaseError):
    """The integrator attempted more steps than ``numkit.MAX_STEPS`` short of
    the end; unlike a stall, the step size had not collapsed."""


class ImplicitSolveError(ExtphaseError):
    """Damped Newton iteration failed to converge within its iteration budget."""


class DegeneracyError(ExtphaseError):
    """A generating function is degenerate (vanishing Hessian / unsolvable exchange)."""


class DegenerateTimeError(ExtphaseError):
    """The induced time map has vanishing derivative dt'/dt at the probe point."""


class SuperluminalError(ExtphaseError):
    """A boost was requested with |beta| >= 1."""


class UnphysicalMapError(ExtphaseError):
    """The oscillator map was evaluated at xi <= 0 where it has no physical meaning."""


class CoefficientSingularityError(ExtphaseError):
    """Auxiliary-system coefficients hit the q^2 floor (trajectory too close to origin)."""


class CollisionChartError(ExtphaseError):
    """The KS momentum solve is singular at u = 0."""
