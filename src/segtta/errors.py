"""Exception hierarchy shared by all segtta modules.

Every error message names the offending field or parameter so callers can
diagnose bad files and configs without a debugger.
"""


class SegTTAError(Exception):
    """Base class for all errors raised by this package."""


# --- file format errors -----------------------------------------------------

class CorruptHeader(SegTTAError, ValueError):
    """A header field is malformed or an unsupported file variant."""


class UnsupportedDatatype(SegTTAError, ValueError):
    """The file uses a datatype code this reader does not handle."""


class DimensionMismatch(SegTTAError, ValueError):
    """Array dimensions disagree with what the operation requires."""


class IoFailure(SegTTAError, OSError):
    """Reading or writing the underlying file failed."""


class UnrepresentableValue(SegTTAError, ValueError):
    """A value cannot be stored in the requested datatype without clamping."""


class NotProbabilistic(SegTTAError, ValueError):
    """Per-voxel class probabilities do not sum to one within tolerance."""


class InvalidLabels(SegTTAError, ValueError):
    """Label mask voxels are not integers in [0, num_classes)."""


# --- parameter errors -------------------------------------------------------

class InvalidSigma(SegTTAError, ValueError):
    """Blur or noise sigma outside its valid range."""


class InvalidConfidence(SegTTAError, ValueError):
    """A backend's confidence does not make its assigned class the argmax."""


class InvalidGamma(SegTTAError, ValueError):
    """Gamma exponent outside its valid range."""


class InvalidAlpha(SegTTAError, ValueError):
    """Contrast scale outside its valid range."""


class InvalidTau(SegTTAError, ValueError):
    """Voting threshold outside (0, 1]."""


class ConfigError(SegTTAError, ValueError):
    """A config object holds a field its type or kind does not use, or a
    value the run cannot use (a class count or class out of range, an
    unknown kind)."""


# --- backend and pipeline errors --------------------------------------------

class GroundTruthMissing(SegTTAError, ValueError):
    """An oracle backend was asked to predict without a ground-truth mask."""


class ProcessFailure(SegTTAError, RuntimeError):
    """An external backend process failed, timed out, or produced bad output."""


class InconsistentMaps(SegTTAError, ValueError):
    """Probability maps being fused disagree in dims or class count."""


class InsufficientAugmentations(SegTTAError, ValueError):
    """The ablation protocol needs at least two augmentations."""
