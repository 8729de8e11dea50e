"""Exception types shared across the toolkit.

A DevfpError subclass names a fault of an input as a whole: a capture, a
dataset CSV, a registry, a model file, or a dataset a step cannot work on.
A ValueError names one value that breaks a function's stated contract, such
as an unknown variant, an unlabeled row or a model's malformed arrays. The
CLI reports both, and OSError, with exit status 2; any other exception is a
bug. Each error carries only its message, so it pickles back from a forked
worker (`devfp.workers`) with its type and text.
"""


class DevfpError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# Capture / decoding


class CaptureError(DevfpError):
    """Problem with a pcap file as a whole."""


class UnknownMagic(CaptureError):
    """File does not start with one of the four classic-pcap magic numbers."""


class TruncatedHeader(CaptureError):
    """The 24-byte pcap global header is incomplete."""


class UnsupportedLinkType(CaptureError):
    """Capture link type is not Ethernet (1)."""


# ---------------------------------------------------------------------------
# Datasets / registry / CSV


class EmptyRegistry(DevfpError):
    """Device registry holds no entries."""


class RegistryFormatError(DevfpError):
    """A registry or attribute-meta file line is malformed."""


class HeaderMismatch(DevfpError):
    """CSV header row differs from the canonical dataset header."""


class RaggedRow(DevfpError):
    """CSV row has the wrong number of fields, a carriage return, or no final line feed."""


class NonNumericCell(DevfpError):
    """CSV feature cell is neither empty nor a decimal integer."""


# ---------------------------------------------------------------------------
# Selection / training / evaluation


class EmptyDataset(DevfpError):
    """Operation requires at least one (usually two) rows."""


class SingleClassDataset(DevfpError):
    """Operation requires at least two distinct class labels."""


class MissingMeta(DevfpError):
    """An attribute has no entry in the attribute-meta registry."""


class SchemaMismatch(DevfpError):
    """Model schema and vector/dataset schema differ."""


class EmptyMatrix(DevfpError):
    """Confusion matrix has no counts to compute metrics from."""


class ClassTooSmall(DevfpError):
    """Stratified split needs at least 2 rows per class."""


class ModelFormatError(DevfpError):
    """Persisted model file is malformed or has an unsupported version."""
