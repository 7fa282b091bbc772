"""Canonical JSON codec with an optional compiled fast path.

``dumps`` here is the single source of bytes for every hash, signature,
ledger entry, wire frame, and transcript line in the package. Import
order: the Cython extension if built, otherwise the pure encoder, which
escapes strings with the stdlib's C escaper
(``json.encoder.encode_basestring``). ATCPIP_PURE_CANON=1 forces the
fallback (useful for benchmarking and for debugging encoder
discrepancies).

Callers that already hold a value's canonical bytes splice them into a
larger document instead of encoding the value again: the simulator
builds each ``ledger`` transcript line around the payload bytes that
``Ledger.append`` hashed.
"""

import hashlib
import os

from . import pure
from .pure import INT_MAX, INT_MIN, QUANTUM, ZERO4, fixed4, format_decimal, loads

if os.environ.get("ATCPIP_PURE_CANON") == "1":
    _impl = pure
else:
    try:
        from . import _speedups as _impl
    except ImportError:
        _impl = pure

dumps = _impl.dumps
BACKEND = "pure" if _impl is pure else "speedups"


def sha256_hex(data):
    """Hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def hash_value(value):
    """Hex digest of a value's canonical bytes."""
    return hashlib.sha256(dumps(value)).hexdigest()


__all__ = [
    "BACKEND",
    "INT_MAX",
    "INT_MIN",
    "QUANTUM",
    "ZERO4",
    "dumps",
    "fixed4",
    "format_decimal",
    "hash_value",
    "loads",
    "pure",
    "sha256_hex",
]
