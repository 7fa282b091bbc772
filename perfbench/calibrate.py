"""Host-speed calibration.

The shared host this benchmark runs on changes speed by up to twice,
for stretches from a fraction of a second to several minutes, and a
stretch can outlast a whole run. ``slice_seconds`` times a fixed slice
of pure-Python work; the benchmark runs one slice right before and one
right after every timed call and scales the call's seconds by
``REFERENCE_S`` over the mean of the two, which gives the time the call
would have taken on a host where the slice takes ``REFERENCE_S``. The
slice imports nothing from atcpip, so a change to atcpip moves the
call's time and not the slice's.

The slice mixes what atcpip's own hot paths do: nested dicts and lists
walked by a recursive Python function, string building, sorting, small
object creation, ``Decimal`` arithmetic and sha256.
"""

import hashlib
import time
from dataclasses import dataclass
from decimal import Decimal

# Seconds one slice takes on the host the benchmark was written on, in
# its faster stretches (Intel Xeon, 2.0 GHz, Python 3.11).
REFERENCE_S = 0.0135
ROWS = 60
REPEATS = 30


@dataclass(frozen=True)
class _Row:
    key: str
    count: int
    fee: Decimal


def _encode(value, out):
    if isinstance(value, dict):
        out.append("{")
        for key in sorted(value):
            out.append(key)
            _encode(value[key], out)
        out.append("}")
    elif isinstance(value, list):
        out.append("[")
        for item in value:
            _encode(item, out)
        out.append("]")
    else:
        out.append(str(value))


def _work():
    rows = [_Row(f"k{index}", index, Decimal(index) * Decimal("0.0500")) for index in range(ROWS)]
    digests = []
    for row in rows:
        value = {
            "key": row.key,
            "count": row.count,
            "fee": row.fee.quantize(Decimal("0.0001")),
            "tags": sorted([row.key, "b", "a", str(row.count % 7)]),
            "body": {"nested": [row.count, row.count + 1, {"x": row.key}]},
        }
        out = []
        _encode(value, out)
        digests.append(hashlib.sha256("".join(out).encode()).hexdigest())
    return digests


def slice_seconds():
    """Run the fixed slice and return its seconds."""
    started = time.perf_counter()
    for _ in range(REPEATS):
        _work()
    return time.perf_counter() - started

