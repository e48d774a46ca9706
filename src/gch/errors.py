"""Exception types shared across the package."""

__all__ = ["GchError", "ConfigError", "BlowUpError"]


class GchError(Exception):
    """Base class for package-specific failures."""


class ConfigError(GchError):
    """Raised with the full list of configuration problems, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class BlowUpError(GchError):
    """Simulation aborted because the sup norm exceeded the blow-up guard."""

    def __init__(self, t, step, peak, threshold):
        self.t = t
        self.step = step
        self.peak = peak
        self.threshold = threshold
        super().__init__(
            f"possible blow-up at t={t:.6g} (step {step}): "
            f"max|u|={peak:.6g} exceeds guard {threshold:.6g}"
        )
