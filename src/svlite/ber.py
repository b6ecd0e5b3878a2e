"""Definite-length BER tag-length-value primitives.

Only what the reduced sampled-value wire format needs: single-octet tags,
definite lengths up to two long-form octets (65535 max), and big-endian
fixed-width integers. Indefinite lengths are rejected.
"""

from __future__ import annotations

from .errors import BadWidth, Overflow, OversizeValue, Truncated, UnsupportedLength

MAX_VALUE_LEN = 0xFFFF

_INT_WIDTHS = (1, 2, 4, 8)


def encode_length(length: int) -> bytes:
    """Encode a definite-form length, short form below 128."""
    if length < 0:
        raise OversizeValue(f"negative length {length}")
    if length < 0x80:
        return bytes([length])
    if length <= 0xFF:
        return bytes([0x81, length])
    if length <= MAX_VALUE_LEN:
        return bytes([0x82, length >> 8, length & 0xFF])
    raise OversizeValue(f"{length} octets exceeds the {MAX_VALUE_LEN}-octet cap")


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


def encode_tlv(tag: int, value: bytes) -> bytes:
    """Tag octet, definite-form length, then the value verbatim."""
    if not 0 <= tag <= 0xFF:
        raise OversizeValue(f"tag {tag:#x} is not a single octet")
    n = len(value)
    if n < 0x80:  # short form: the header is the tag and the length
        return bytes((tag, n)) + value
    return encode_header(tag, n) + bytes(value)


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


def encode_int_fixed(value: int, width: int, signed: bool = False) -> bytes:
    """Big-endian integer in exactly ``width`` octets, two's complement when signed."""
    if width not in _INT_WIDTHS:
        raise BadWidth(f"unsupported width {width}, expected one of {_INT_WIDTHS}")
    try:
        return value.to_bytes(width, "big", signed=signed)
    except OverflowError:
        kind = "signed" if signed else "unsigned"
        raise Overflow(f"{value} does not fit {width} {kind} octets") from None
