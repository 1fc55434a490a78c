"""Exception hierarchy.

``BoundNotApplicable`` and its subclasses mean "the inequality's hypotheses are
not met for this input"; they are semantically different from malformed input
(``InvalidDistributionError``), and the CLI maps them to a distinct exit code.
"""


class BoundNotApplicable(Exception):
    """A bound's hypotheses do not hold for the given input."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = dict(details or {})


class HypothesisError(BoundNotApplicable):
    """A required log-concavity (or similar) certificate failed."""


class AbsoluteContinuityError(HypothesisError):
    """The target puts mass where the reference has none."""


class NotApplicableError(BoundNotApplicable):
    """A parameter-domain precondition (e.g. a ratio < 1) is violated."""


class InvalidDistributionError(ValueError):
    """Malformed masses, parameters out of range, or broken normalization."""


class MatroidAxiomError(ValueError):
    """A set system violates the hereditary or exchange axiom."""
