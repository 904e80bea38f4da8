"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class ValidationError(ValueError):
    """A value violates one of its type invariants or preconditions."""


class IdentityComponentError(ValidationError):
    """A Hermitian input carries a nonzero identity (trace) component."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            f"matrix has a nonzero identity component: trace = {trace:.6e}; "
            "subtract (trace / dim) * I before decomposing"
        )


class BranchCutError(ValueError):
    """The principal chart logarithm is undefined at this point.

    Raised when the relative rotation has an eigenvalue too close to -1,
    where the principal branch of the logarithm is discontinuous.
    """

    def __init__(self, eigenvalue, gap):
        self.eigenvalue = eigenvalue
        self.gap = gap
        super().__init__(
            f"eigenvalue {eigenvalue:.12f} lies within {gap:.1e} of -1; "
            "the principal logarithm is not defined here"
        )


class EvaluationError(RuntimeError):
    """The distortion sampler drew a zero sample or got a non-finite ratio; nothing else raises it."""


class CoefficientBoundError(ValidationError):
    """A slice-mean coefficient exceeds the unit bound assumed by synthesis."""

    def __init__(self, value):
        self.value = value
        super().__init__(
            f"slice-mean coefficient {value:.6f} exceeds 1 in absolute value; "
            "rescale the schedule (the gate-angle accounting assumes |y_i| <= 1)"
        )
