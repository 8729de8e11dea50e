"""devfp: device fingerprinting from TCP/IP packet-header features.

Pipeline: parse classic pcap captures, extract a 9-feature header
fingerprint per device-originated packet, rank attributes by gain ratio,
train any of six classic classifiers, and evaluate device-type or
individual-device identification.
"""

__version__ = "0.1.0"

from .features import CANONICAL_ATTRIBUTES, CSV_HEADER, Dataset
from .pcap import CaptureFile, parse_capture

__all__ = [
    "__version__",
    "CANONICAL_ATTRIBUTES",
    "CSV_HEADER",
    "Dataset",
    "CaptureFile",
    "parse_capture",
]
