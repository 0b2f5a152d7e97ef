"""The binary container shared by checkpoints (TXNM), temporal models (TXNT) and bundle
column indexes (TXNI).

Layout: a 4-byte magic, a 4-byte field (the TXNM or TXNI version, or the
TXNT kind tag), a little-endian u32 header length, the JSON header with
sorted keys, then little-endian arrays of one dtype (float64, or int64 in a
column index), row-major, in the order the format fixes. No bytes follow the
last array, and no float array holds NaN or infinity.

This module checks the layout and the array values; each format makes its
own decisions (what the field means, which header keys it needs, the shapes
of its arrays) and names the error class every fault raises.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

_PREFIX = struct.Struct("<4s4sI")  # magic, field, header length


def write_container(path, magic: bytes, field: bytes, header: dict, arrays,
                    dtype: str = "<f8") -> None:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, field, len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.asarray(arr, dtype=dtype).tobytes())


class Container:
    """A container file read whole: its ``field`` and ``header``, then its arrays.

    Every fault raises ``error`` with a message that names the path.
    """

    def __init__(self, path, magic: bytes, error):
        self.path, self._error = path, error
        with open(path, "rb", buffering=0) as fh:  # unbuffered: the last read is one allocation
            prefix = fh.read(_PREFIX.size)
            if len(prefix) < _PREFIX.size:
                raise error(f"{path}: truncated header")
            found, self.field, hlen = _PREFIX.unpack(prefix)
            if found != magic:
                raise error(f"{path}: bad magic {found!r}")
            blob = fh.read(hlen)
            # the arrays' bytes alone, so the first starts on the object's aligned boundary: a
            # matrix product copies an unaligned operand on every call
            self._data, self._offset = fh.read(), 0
        if len(blob) < hlen:
            raise error(f"{path}: truncated header")
        try:
            self.header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # also UnicodeDecodeError
            raise error(f"{path}: header is not valid JSON ({exc})") from None
        if not isinstance(self.header, dict):
            raise error(f"{path}: header is not a JSON object")

    def arrays(self, shapes, dtype: str = "<f8") -> list[np.ndarray]:
        """The arrays of the given shapes, which must end the file; float arrays must be
        finite. Each is a read-only view of the file's bytes, which it keeps alive."""
        out, size = [], np.dtype(dtype).itemsize
        for shape in shapes:
            if not all(type(n) is int and n >= 0 for n in shape):
                raise self._error(f"{self.path}: array shape {list(shape)!r} in the header"
                                  " is not made of non-negative integers")
            count = math.prod(shape)
            if len(self._data) < self._offset + size * count:
                raise self._error(f"{self.path}: truncated array")
            arr = np.frombuffer(self._data, dtype=dtype, count=count, offset=self._offset)
            if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                raise self._error(f"{self.path}: array holds NaN or infinity")
            out.append(arr.reshape(shape))
            self._offset += size * count
        if len(self._data) > self._offset:
            raise self._error(f"{self.path}: trailing bytes after the last array")
        return out
