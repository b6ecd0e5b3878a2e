"""Domain model of the reduced sampled-value service.

Integer scaling to and from engineering units, the two-attribute
quality, the sampling-rate rule and the dataset layout that
governs how seqData octets are packed.

The wire never carries floating point: a transmitted sample is an integer
``i`` that the receiver maps to engineering units as
``(i + offset) * 10**scale_factor``. Offset and scale factor are
configuration, not payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from decimal import ROUND_HALF_EVEN, Decimal
from enum import IntEnum

from .errors import BadQuality, Overflow, UnsupportedRate

# Points per nominal period the profile samples at.
SUPPORTED_POINTS = (80, 256)


def check_points(points_per_period: int) -> None:
    """Raise :class:`UnsupportedRate` unless the profile samples at this rate."""
    if points_per_period not in SUPPORTED_POINTS:
        raise UnsupportedRate(
            f"points_per_period must be "
            f"{' or '.join(map(str, SUPPORTED_POINTS))}, got {points_per_period}")


def check_wrap(wrap: int, name: str = "smpCnt wrap") -> None:
    """Raise :class:`UnsupportedRate` unless smpCnt, 2 octets that wrap once
    a second, counts ``wrap`` values: 2..65536."""
    if not 2 <= wrap <= 0x10000:
        raise UnsupportedRate(
            f"{name} = {wrap}, outside the 2..65536 values smpCnt counts in a second")


def samples_per_second(nominal_hz: int, points_per_period: int) -> int:
    """The smpCnt wrap ``nominal_hz * points_per_period`` of a stream the
    profile carries; at 80 or 256 points a ``nominal_hz`` below 1 fails too."""
    check_points(points_per_period)
    rate = nominal_hz * points_per_period
    check_wrap(rate, "nominal_hz * points_per_period")
    return rate


_INT8 = (-0x80, 0x7F)
_INT32 = (-0x8000_0000, 0x7FFF_FFFF)


def int_range(width: int, signed: bool) -> tuple[int, int]:
    bits = 8 * width
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def check_range(name: str, value: int, lo: int, hi: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool) and
    ``lo <= value <= hi``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be of type int, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


_POW10 = tuple(float(10 ** k) for k in range(23))  # each exact in binary64


def to_engineering(raw: int, scale_factor: int, offset: int = 0) -> Decimal:
    """Exact decimal engineering value ``(raw + offset) * 10**scale_factor``."""
    return Decimal(raw + offset).scaleb(scale_factor)


def from_engineering(
    x,
    scale_factor: int,
    offset: int = 0,
    width: int = 4,
    signed: bool = True,
) -> int:
    """Quantise an engineering value to the raw integer ``i`` for the wire.

    Rounds half to even so repeated sampling does not bias up or down.
    Floats are interpreted at their shortest decimal representation;
    pass a Decimal or string to control precision explicitly. A value
    that is not finite or does not fit raises :class:`Overflow`.

    Exact float path: with ``-22 <= scale_factor <= 22``, ``y = x *
    10**-scale_factor`` in one rounded float operation is within 1.5 ulp(y)
    of the product of ``repr(x)``; ``round(y)`` is returned when ``abs(y)
    < 2**49`` and ``y`` is over 4 ulp(y) from a half-integer, else Decimal.
    """
    return quantiser(scale_factor, offset, width, signed)(x)


def quantiser(scale_factor: int, offset: int = 0, width: int = 4,
              signed: bool = True):
    """:func:`from_engineering` with its scaling bound once: a callable that
    quantises an engineering value to the raw integer of one member.

    The scale's divisor or multiplier, the offset and the range are looked
    up here, so a call makes only the checks, in the same order.
    """
    lo, hi = int_range(width, signed)

    def misfit(raw: int) -> Overflow:
        return Overflow(
            f"raw value {raw} does not fit {width} octets (signed={signed})")

    def by_decimal(x) -> int:
        x = Decimal(str(x) if isinstance(x, float) else x)
        if not x.is_finite():
            raise Overflow(f"engineering value {x} is not finite")
        raw = int(x.scaleb(-scale_factor).to_integral_value(ROUND_HALF_EVEN)) - offset
        if not lo <= raw <= hi:
            raise misfit(raw)
        return raw

    if not -22 <= scale_factor <= 22:
        return by_decimal
    unit = _POW10[abs(scale_factor)]
    ulp = math.ulp

    def quantise(x) -> int:
        if not isinstance(x, float):
            return by_decimal(x)
        y = x / unit if scale_factor > 0 else x * unit
        if abs(y) < 2.0 ** 49:
            r = round(y)
            if abs(abs(y - r) - 0.5) > 4 * ulp(y):
                r -= offset
                if not lo <= r <= hi:
                    raise misfit(r)
                return r
        return by_decimal(x)

    return quantise


class Validity(IntEnum):
    GOOD = 0
    INVALID = 1
    QUESTIONABLE = 2


@dataclass(frozen=True)
class Quality:
    """Reduced quality: validity plus the test flag, nothing else."""

    validity: Validity = Validity.GOOD
    test: bool = False


def quality_word(q: Quality) -> int:
    """Validity in bits 0-1, test in bit 2, rest zero."""
    return int(q.validity) | (int(q.test) << 2)


# Quality of each low quality octet, shared and immutable so a reader
# builds none per sample; None where validity is 0b11. Only the low three
# bits count, so eight entries repeat over the 256.
QUALITY_OF_OCTET = tuple(
    None if word & 0x03 == 0x03
    else Quality(validity=Validity(word & 0x03), test=bool(word & 0x04))
    for word in range(8)) * 32


def quality_from_word(word: int) -> Quality:
    """Quality of the low quality octet, from :data:`QUALITY_OF_OCTET`;
    undefined validity bits 0b11 raise :class:`BadQuality`."""
    quality = QUALITY_OF_OCTET[word & 0xFF]
    if quality is None:
        raise BadQuality(f"quality validity bits 0b11 in word 0x{word:02x}")
    return quality


@dataclass(frozen=True)
class SchemaMember:
    """One packed attribute: dotted name, wire width and scaling."""

    name: str
    width: int
    signed: bool = True
    scale_factor: int = 0
    offset: int = 0
    include_quality: bool = False

    def __post_init__(self):
        if type(self.width) is not int or self.width not in (2, 4):
            raise ValueError(f"member width must be 2 or 4, got {self.width!r}")
        for name in ("signed", "include_quality"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ValueError(f"{name} must be of type bool, got {value!r}")
        check_range("scale_factor", self.scale_factor, *_INT8)
        check_range("offset", self.offset, *_INT32)

    @property
    def packed_width(self) -> int:
        return self.width + (2 if self.include_quality else 0)

    @property
    def struct_code(self) -> str:
        """``struct`` code of the value: ``h``/``H`` or ``i``/``I``."""
        code = "h" if self.width == 2 else "i"
        return code if self.signed else code.upper()


# Top-level data attributes a dataset may reference.
MAX_DATA_ATTRIBUTES = 2


def _attribute_key(name: str) -> str:
    # Dataset members reference LN.DO; deeper components are the packed
    # leaves underneath one data attribute.
    parts = name.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else name


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered attribute layout governing seqData packing."""

    members: tuple[SchemaMember, ...]

    def __init__(self, members):
        object.__setattr__(self, "members", tuple(members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def packed_width(self) -> int:
        return self.seq_struct.size  # big-endian: no padding, each member's width

    @cached_property
    def seq_struct(self) -> struct.Struct:
        """Big-endian seqData layout, built on first use: ``h``/``H`` or
        ``i``/``I`` per member, and a quality word as a pad octet and ``B``
        (a zero high octet, then the low one :func:`quality_word` gives and
        :func:`quality_from_word` reads)."""
        codes = [">"]
        for m in self.members:
            codes.append(m.struct_code)
            if m.include_quality:
                codes.append("xB")
        return struct.Struct("".join(codes))

    @cached_property
    def value_layout(self) -> tuple[tuple[int, bool], ...]:
        """Per member, the index of its value among the fields of
        :attr:`seq_struct` and whether its quality word follows it."""
        layout, index = [], 0
        for m in self.members:
            layout.append((index, m.include_quality))
            index += 2 if m.include_quality else 1
        return tuple(layout)

    @property
    def data_attribute_count(self) -> int:
        """Distinct top-level data attributes referenced by the members."""
        return len({_attribute_key(m.name) for m in self.members})
