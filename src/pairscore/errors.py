"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than bare ValueError.
"""


class PairscoreError(Exception):
    """Base class for all package-specific errors."""


class DataError(PairscoreError):
    """Malformed, missing, or schema-incompatible input data."""


class NumericError(PairscoreError):
    """A numerical precondition failed (zero variance, non-finite value, ...)."""


class TrainingDiverged(NumericError):
    """Loss became non-finite; carries the last good parameters and history."""

    def __init__(self, step: int, last_good=None, history=None):
        super().__init__(f"training loss became non-finite at step {step}")
        self.step = step
        self.last_good = last_good
        self.history = list(history) if history is not None else []


class ScorerProtocolError(PairscoreError):
    """An external scorer or translator subprocess violated the line protocol.

    ``message`` is the one-line description the CLI prints; ``transcript``
    holds the request/response lines exchanged so far, which is usually
    enough to debug the child process.  ``str()`` gives both.
    """

    def __init__(self, message: str, transcript=()):
        lines = "\n".join(transcript)
        super().__init__(f"{message}\n--- transcript ---\n{lines}" if lines else message)
        self.message = message
        self.transcript = tuple(transcript)


class UsageError(PairscoreError):
    """Bad configuration or command-line usage."""
