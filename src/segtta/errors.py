"""Exception hierarchy shared by all segtta modules.

Every rejection of input from outside the program (NIfTI files, manifests,
configs, result documents, command-line values, external backend output)
raises a :class:`SegTTAError`, so catching it is the one test for bad
input and any other exception is a bug. Errors for bad values keep
``ValueError`` as a base, so ``except ValueError`` still catches them.
Every message names the offending field or parameter.

One rule picks the class: a config or argument value the run cannot use
is a :class:`ConfigError` naming the field, whatever the value and
whichever field; a fault in data (files, maps, labels, volumes) keeps a
class of its own.
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


class MapFileFailure(IoFailure):
    """The file that holds a map's values could not be created or written:
    a fault of the machine, not of the input the map is read from."""


class NotProbabilistic(SegTTAError, ValueError):
    """Per-voxel class probabilities do not sum to one within tolerance."""


class InvalidLabels(SegTTAError, ValueError):
    """Label mask voxels are not integers in [0, num_classes)."""


class InvalidVolume(SegTTAError, ValueError):
    """Non-finite voxels or spacing, or negative intensities for gamma."""


# --- config and argument errors ---------------------------------------------

class ConfigError(SegTTAError, ValueError):
    """A config or argument value the run cannot use, named by its field.

    The value comes from a config, manifest or result document, an object
    built from one, or a function's argument. Its field is missing,
    mistyped or unknown, or it is out of range: an unknown kind; a sigma,
    gamma, alpha, tau or confidence; a class count, class, seed or format;
    fewer than two augmentations to ablate. Whatever the value, the field
    is refused with this one class."""


# --- backend and pipeline errors --------------------------------------------

class GroundTruthMissing(SegTTAError, ValueError):
    """An oracle backend was asked to predict without a ground-truth mask."""


class ProcessFailure(SegTTAError, RuntimeError):
    """An external backend process failed, timed out, or produced bad output."""


class InconsistentMaps(SegTTAError, ValueError):
    """Probability maps being fused disagree in dims or class count."""
