"""Definite-length BER tag-length-value primitives.

Only what the reduced sampled-value wire format needs: single-octet tags
and definite lengths up to two long-form octets (65535 max). Encoding
writes a TLV's header, which the codec joins with its value; decoding
reads one TLV. Indefinite lengths are rejected.
"""

from __future__ import annotations

from .errors import OversizeValue, Truncated, UnsupportedLength

MAX_VALUE_LEN = 0xFFFF


def decode_length(buf: bytes, cursor: int) -> tuple[int, int]:
    """Return (length, cursor past the length octets)."""
    if cursor >= len(buf):
        raise Truncated(f"missing length octet at offset {cursor}")
    first = buf[cursor]
    cursor += 1
    if first < 0x80:
        return first, cursor
    if first == 0x80:
        raise UnsupportedLength("indefinite length is not supported")
    count = first & 0x7F
    if count > 2:
        raise UnsupportedLength(f"{count} length octets exceeds the 2-octet cap")
    if cursor + count > len(buf):
        raise Truncated(f"length octets truncated at offset {cursor}")
    length = int.from_bytes(buf[cursor:cursor + count], "big")
    return length, cursor + count


def encode_header(tag: int, length: int) -> bytes:
    """Tag octet and definite-form length octets of a value of ``length``
    (at least 0) octets, built as one ``bytes``."""
    if not 0 <= tag <= 0xFF:
        raise OversizeValue(f"tag {tag:#x} is not a single octet")
    if length < 0x80:
        return bytes((tag, length))
    if length <= 0xFF:
        return bytes((tag, 0x81, length))
    if length <= MAX_VALUE_LEN:
        return bytes((tag, 0x82, length >> 8, length & 0xFF))
    raise OversizeValue(
        f"value of {length} octets exceeds the {MAX_VALUE_LEN}-octet cap")


def decode_tlv(buf: bytes, cursor: int = 0) -> tuple[int, bytes, int]:
    """Read one TLV at ``cursor``; return (tag, value, cursor past the value)."""
    if cursor >= len(buf):
        raise Truncated(f"no tag at offset {cursor}")
    tag = buf[cursor]
    length, pos = decode_length(buf, cursor + 1)
    if pos + length > len(buf):
        raise Truncated(
            f"value of {length} octets at offset {pos} overruns the buffer "
            f"({len(buf) - pos} remaining)")
    return tag, bytes(buf[pos:pos + length]), pos + length

