"""Exception types shared across the toolkit."""


class SraugError(Exception):
    """Base class for all toolkit errors."""


class IoFailure(SraugError):
    """Underlying OS-level read or write failed."""


class MalformedContainer(SraugError):
    """File container is damaged or not what its extension claims."""


class UnsupportedFormat(SraugError):
    """Container is valid but uses an encoding we do not handle."""


class ConfigMismatch(SraugError):
    """Two values built against incompatible configurations were combined."""


class DegenerateWindowSum(SraugError):
    """Overlap-add normalization denominator vanished somewhere."""


class InputTooShort(SraugError):
    """Signal shorter than a single analysis frame."""


class DegenerateVariance(SraugError):
    """Correlation requested on an (effectively) constant sequence."""


class InsufficientVoicedOverlap(SraugError):
    """Too few frames are voiced in both pitch tracks to correlate."""


class DimensionMismatch(SraugError):
    """Operands have incompatible shapes."""


class NonFinite(SraugError):
    """A value that must be finite is NaN or infinite."""


class VocoderProcessFailure(SraugError):
    """External vocoder command exited abnormally.

    Carries whatever diagnostics the subprocess produced so batch logs
    stay useful.
    """

    def __init__(self, message, returncode=None, stderr=None):
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


class VocoderOutputMissing(SraugError):
    """External vocoder exited cleanly but produced no output file."""


class EmptyCorpus(SraugError):
    """No input audio found under the requested path."""


class OutputCollision(SraugError):
    """Two inputs of one run would write the same output file."""


class StageFailure(SraugError):
    """A pipeline stage failed for one input file.

    Wraps the original exception and records which file and stage broke,
    so one bad file can be reported without killing the batch.
    """

    def __init__(self, path, stage, cause):
        super().__init__(f"{path}: stage '{stage}' failed: {cause}")
        self.path = str(path)
        self.stage = stage
        self.cause = cause
