"""Binary snapshot files.

Layout (little-endian, no padding):

    magic   5 bytes  b"VBGK1"
    version u16      format version, currently 1
    n       u32      grid points per axis
    ncomp   u8       number of field components
    time    f64      simulation time
    payload ncomp * n * n f64 values, row-major within a component,
            component-major overall
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError

MAGIC = b"VBGK1"
VERSION = 1
_HEADER = struct.Struct("<5sHIBd")


def write_snapshot(path, fields: np.ndarray, time: float) -> None:
    """Write a (ncomp, n, n) float array with its time stamp; an OSError
    becomes a ConfigError."""
    fields = np.ascontiguousarray(np.asarray(fields, dtype="<f8"))
    if fields.ndim != 3 or fields.shape[1] != fields.shape[2]:
        raise ValueError(f"snapshot fields must be (ncomp, n, n), got {fields.shape}")
    ncomp, n, _ = fields.shape
    header = _HEADER.pack(MAGIC, VERSION, n, ncomp, float(time))
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(fields.tobytes())
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def read_snapshot(path) -> tuple[np.ndarray, float]:
    """Read back (fields, time); validates magic, version, payload length."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from None
    if len(raw) < _HEADER.size:
        raise ConfigError(f"snapshot {path} truncated before header")
    magic, version, n, ncomp, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ConfigError(f"snapshot {path} has bad magic {magic!r}")
    if version != VERSION:
        raise ConfigError(f"snapshot {path} has unsupported version {version}")
    expected = ncomp * n * n * 8
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise ConfigError(
            f"snapshot {path} payload is {len(payload)} bytes, expected {expected}"
        )
    fields = np.frombuffer(payload, dtype="<f8").reshape(ncomp, n, n).copy()
    return fields, time
