"""Bit-level framing: sync word, length field, CRC-16.

The paper fixes the payload length by out-of-band agreement (§7); this
layer adds the minimal structure a deployed stack needs on top — a sync
word for symbol alignment, an explicit length, and a CRC-16/CCITT so
corrupted payloads are detected rather than silently delivered.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Final

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import ProtocolError

__all__ = [
    "SYNC_WORD_BITS",
    "crc16_ccitt",
    "bytes_to_bits",
    "bits_to_bytes",
    "encode_frame",
    "decode_frame",
    "FrameHeader",
    "find_sync",
]

#: Barker-13-derived sync pattern, good autocorrelation for alignment.
SYNC_WORD_BITS: Final[NDArray[np.uint8]] = np.array(
    [1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1], dtype=np.uint8
)

_CRC_INIT: Final[int] = 0xFFFF

#: Maximum payload the 16-bit length field admits.
MAX_PAYLOAD_BYTES: Final[int] = 65_535


def crc16_ccitt(data: bytes, init: int = _CRC_INIT) -> int:
    """CRC-16/CCITT-FALSE over ``data``: polynomial 0x1021, MSB first,
    no reflection or final XOR, which is :func:`binascii.crc_hqx`."""
    return binascii.crc_hqx(data, init)


def bytes_to_bits(data: bytes) -> NDArray[np.uint8]:
    """MSB-first bit expansion."""
    if not data:
        return np.zeros(0, dtype=np.uint8)
    arr = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(arr)


def bits_to_bytes(bits: ArrayLike) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a multiple of 8."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size % 8:
        raise ProtocolError(f"bit count {arr.size} is not a whole number of bytes")
    return np.packbits(arr).tobytes()


@dataclass(frozen=True)
class FrameHeader:
    """Decoded frame metadata."""

    payload_length: int
    crc_ok: bool


def encode_frame(payload: bytes) -> NDArray[np.uint8]:
    """sync(16) | length(16) | payload | crc16 as a bit vector."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload too long ({len(payload)} bytes)")
    length_field = len(payload).to_bytes(2, "big")
    crc = crc16_ccitt(length_field + payload).to_bytes(2, "big")
    body_bits = bytes_to_bits(length_field + payload + crc)
    return np.concatenate([SYNC_WORD_BITS, body_bits])


def find_sync(bits: ArrayLike, max_errors: int = 1) -> int:
    """Index right after the best sync-word match.

    Tolerates up to ``max_errors`` bit flips inside the sync pattern so a
    noisy first symbol doesn't lose the whole frame.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = SYNC_WORD_BITS.size
    if arr.size < n:
        raise ProtocolError("bit stream shorter than the sync word")
    best_pos, best_err = -1, n + 1
    limit = arr.size - n
    for pos in range(limit + 1):
        err = int(np.count_nonzero(arr[pos : pos + n] != SYNC_WORD_BITS))
        if err < best_err:
            best_pos, best_err = pos, err
            if err == 0:
                break
    if best_err > max_errors:
        raise ProtocolError(f"no sync word found (best match has {best_err} errors)")
    return best_pos + n


def decode_frame(bits: ArrayLike, max_sync_errors: int = 1) -> tuple[FrameHeader, bytes]:
    """Parse a frame out of a received bit stream.

    Returns the header (with CRC verdict) and the payload bytes. Raises
    :class:`ProtocolError` when no sync is found or the stream truncates
    mid-frame; CRC failures are *reported*, not raised, so callers can
    count them as bit-error statistics.
    """
    stream = np.asarray(bits, dtype=np.uint8)
    start = find_sync(stream, max_sync_errors)
    rest = stream[start:]
    if rest.size < 16:
        raise ProtocolError("frame truncated before length field")
    length = int.from_bytes(bits_to_bytes(rest[:16]), "big")
    need = 16 + 8 * length + 16
    if rest.size < need:
        raise ProtocolError(
            f"frame truncated: need {need} bits after sync, have {rest.size}"
        )
    length_field = bits_to_bytes(rest[:16])
    payload = bits_to_bytes(rest[16 : 16 + 8 * length])
    crc_rx = int.from_bytes(bits_to_bytes(rest[16 + 8 * length : need]), "big")
    crc_ok = crc16_ccitt(length_field + payload) == crc_rx
    return FrameHeader(payload_length=length, crc_ok=crc_ok), payload
