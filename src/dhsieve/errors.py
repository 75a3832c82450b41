"""Exception types shared across the package."""


class DhsieveError(Exception):
    pass


class QubitConsumedError(DhsieveError):
    """A phase qubit was used twice; single-use discipline violated."""


class BackendMismatchError(DhsieveError):
    """Qubits from different backends were combined."""


class SieveExhaustedError(DhsieveError):
    """A sieve's demand stayed unmet after its last pass (run_passes);
    the caller may retry.  stats is the run's SieveStats summed over its
    passes, when it ran any."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class NoHiddenReflectionError(DhsieveError):
    """Verification kept failing: the oracle hides no reflection."""


class InsufficientCopiesError(DhsieveError):
    """Too few qubit copies for the requested tomography accuracy."""
