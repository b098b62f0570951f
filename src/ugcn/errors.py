"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`UgcnError`, so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""


class UgcnError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # Subclass __init__ signatures differ from `args` (the formatted message),
        # so rebuild without calling __init__; errors raised in `gen --jobs`
        # workers must survive the trip back to the parent process.
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class InvalidGraph(UgcnError):
    """Grid graph violates a structural invariant (self-loop, duplicate edge, ...)."""


class NotRadial(InvalidGraph):
    """Distribution graph whose in-service branches are not a rooted spanning tree."""


class Disconnected(InvalidGraph):
    """Transmission graph whose in-service branches do not connect all buses."""


class DanglingBranch(UgcnError):
    """Branch endpoint refers to an undeclared bus."""

    def __init__(self, bus):
        super().__init__(f"branch endpoint refers to undeclared bus {bus}")
        self.bus = bus


class ZeroImpedance(UgcnError):
    """In-service branch with |z| below the numeric floor."""


class DegenerateMatrix(UgcnError):
    """Matrix is numerically zero where a nonzero operator is required."""


class DimensionMismatch(UgcnError):
    """Operands are not conformal."""


class ParseError(UgcnError):
    """Case-file text could not be parsed."""

    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else f" (line {line}" + ("" if col is None else f", col {col}") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class SchemaVersionMismatch(UgcnError):
    """Container was written with an unsupported schema version."""

    def __init__(self, found, expected):
        super().__init__(f"schema version {found}, expected {expected}")
        self.found = found
        self.expected = expected


class CorruptFile(UgcnError):
    """Container failed a structural or checksum validation."""


class WouldDisconnectRoot(UgcnError):
    """Reconfiguration would sever buses from the root/slack."""


class CycleCreated(UgcnError):
    """Reconfiguration would introduce a cycle into a radial network."""


class UnknownElement(UgcnError):
    """Reconfiguration names a bus or branch that does not exist."""


class ExhaustedRetries(UgcnError):
    """Augmentation could not satisfy its constraints within the retry budget."""


class MissingCell(UgcnError):
    """Profile CSV lacks a (time, bus) entry."""

    def __init__(self, t, bus):
        super().__init__(f"missing profile cell for t={t}, bus={bus}")
        self.t = t
        self.bus = bus


class NonNumeric(UgcnError):
    """Profile CSV field is not a number."""


class NoConvergence(UgcnError):
    """Iterative solver failed to converge."""

    def __init__(self, iterations, mismatch):
        super().__init__(f"no convergence after {iterations} iterations (mismatch {mismatch:.3e})")
        self.iterations = iterations
        self.mismatch = mismatch


class OutsideSanityBand(UgcnError):
    """Solved voltage magnitudes leave the band a plausible operating point stays in."""

    def __init__(self, band, low, high):
        super().__init__(
            f"|v| spans [{low:.3f}, {high:.3f}] p.u., outside the sanity band "
            f"({band[0]}, {band[1]})"
        )
        self.band = band
        self.low = low
        self.high = high


class WindowOutOfRange(UgcnError):
    """Feature window or target index falls outside the recorded series."""


class InfeasibleAttack(UgcnError):
    """Stealth condition admits only the zero perturbation for the chosen sensors."""


class TooFewNodes(UgcnError):
    """Pooling requested more clusters than there are nodes."""


class NoForwardRecorded(UgcnError):
    """Backward pass invoked without a recorded forward pass."""


class DivergedLoss(UgcnError):
    """Training loss became non-finite; carries the best finite model reached."""

    def __init__(self, epoch, model=None):
        super().__init__(f"loss diverged at epoch {epoch}")
        self.epoch = epoch
        self.model = model


class ConfigError(UgcnError):
    """CLI or run configuration is invalid."""
