"""Exception types shared across the toolkit.

Every error raised on purpose derives from DevfpError, so callers (and the
CLI) can distinguish expected failures from bugs.
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

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class HeaderMismatch(DevfpError):
    """CSV header row differs from the canonical dataset header."""


class RaggedRow(DevfpError):
    """CSV row has the wrong number of fields, a carriage return, or no final line feed."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class NonNumericCell(DevfpError):
    """CSV feature cell is neither empty nor a decimal integer."""

    def __init__(self, row_index: int, column: str, cell: str):
        super().__init__(f"row {row_index}, column {column}: not an integer: {cell!r}")
        self.row_index = row_index
        self.column = column


# ---------------------------------------------------------------------------
# Selection / training / evaluation


class EmptyDataset(DevfpError):
    """Operation requires at least one (usually two) rows."""


class SingleClassDataset(DevfpError):
    """Operation requires at least two distinct class labels."""


class MissingMeta(DevfpError):
    """An attribute has no entry in the attribute-meta registry."""

    def __init__(self, name: str):
        super().__init__(f"no attribute metadata for {name!r}")
        self.name = name


class SchemaMismatch(DevfpError):
    """Model schema and vector/dataset schema differ."""


class EmptyMatrix(DevfpError):
    """Confusion matrix has no counts to compute metrics from."""


class ClassTooSmall(DevfpError):
    """Stratified split needs at least 2 rows per class."""

    def __init__(self, name: str, size: int):
        super().__init__(f"class {name!r} has {size} row(s); stratified split needs >= 2")
        self.name = name


class ModelFormatError(DevfpError):
    """Persisted model file is malformed or has an unsupported version."""
