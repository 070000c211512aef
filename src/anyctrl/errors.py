"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class CertificateViolation(RuntimeError):
    """The supplied (V, kappa, rho) triple failed the per-step decrease test.

    Carries the prediction index at which the test failed and, when known,
    the step k whose tentative sequence failed and the run it belongs to.
    """

    def __init__(self, step_index, start_step=None, run=None):
        self.step_index = step_index
        self.start_step = start_step
        self.run = run
        where = "" if start_step is None else f" of the sequence computed at step {start_step} in run {run}"
        super().__init__(f"Lyapunov decrease test failed at prediction step {step_index}{where}")


class DivergenceError(ArithmeticError):
    """A closed-form certificate does not converge (e.g. p0*alpha >= 1)."""
