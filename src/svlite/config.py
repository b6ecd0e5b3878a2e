"""Line-based run configuration: ``key = value``, ``#`` comments.

Repeated ``member`` lines define the dataset layout in packing order and
repeated ``channel`` lines bind one simulated source to each member, in
the same order. The format is deliberately flat so a dumped config
reloads to an identical object and diffs line by line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import SVID_MAX_LEN, SmpSynch, SvFrame, SavApdu, Asdu, \
    UtcTimestamp, VlanTag, mac_from_str, mac_to_str
from .errors import ConfigError
from .model import MAX_DATA_ATTRIBUTES, DatasetSchema, SchemaMember, \
    check_points, check_range, samples_per_second
from .sources import ChannelSpec, WaveKind
from .transport import PORT_RANGE, TTL_RANGE, EndpointConfig, Mode

DEFAULT_CHANNELS = (
    ChannelSpec(SchemaMember("TMGF1.MagFld.instMag.i", width=4, signed=True),
                WaveKind.SINE, amplitude=1000.0),
    ChannelSpec(SchemaMember("TMGF1.MagFld.GeoCrd.B", width=4, signed=True,
                             scale_factor=-4), dc_offset=26.0745),
    ChannelSpec(SchemaMember("TMGF1.MagFld.GeoCrd.L", width=4, signed=True,
                             scale_factor=-4), dc_offset=119.3064),
    ChannelSpec(SchemaMember("TMGF1.MagFld.GeoCrd.H", width=2, signed=True,
                             scale_factor=-1), dc_offset=12.0),
)


@dataclass(frozen=True)
class RunConfig:
    sv_id: str = "xxxxMUnn01"
    appid: int = 0x4000
    dst_mac: bytes = mac_from_str("18:cc:18:8a:bc:db")
    src_mac: bytes = mac_from_str("b8:27:eb:47:1f:d7")
    vlan_priority: int = 4
    vlan_id: int = 0
    conf_rev: int = 1
    smp_synch: SmpSynch = SmpSynch.NONE
    nominal_hz: int = 50
    points_per_period: int = 80
    endpoint: EndpointConfig = EndpointConfig()
    # One source per dataset member, in packing order.
    channels: tuple[ChannelSpec, ...] = DEFAULT_CHANNELS

    def __post_init__(self):
        # The checks of parse_config, which makes them first with line
        # numbers, so that every RunConfig dumps to a file that reloads.
        if type(self.endpoint) is not EndpointConfig:
            raise ValueError("endpoint must be of type EndpointConfig, "
                             f"got {self.endpoint!r}")
        for key, value, _ in _scalars(self):
            _check_value(key, value)
        if type(self.channels) is not tuple:  # a reload holds a tuple
            raise ValueError(f"channels must be of type tuple, got "
                             f"{type(self.channels).__name__}")
        for channel in self.channels:
            if type(channel) is not ChannelSpec:
                raise ValueError(
                    f"channel must be of type ChannelSpec, got {channel!r}")
        samples_per_second(self.nominal_hz, self.points_per_period)
        _check_schema(self.schema)

    @property
    def schema(self) -> DatasetSchema:
        return DatasetSchema(c.member for c in self.channels)

    @property
    def samples_per_second(self) -> int:
        return self.nominal_hz * self.points_per_period


# Inclusive bounds of the integer scalars, by config key.
_BOUNDS = {"appid": (0, 0xFFFF), "vlan_priority": (0, 7), "vlan_id": (0, 0x0FFF),
           "conf_rev": (0, 0xFFFF_FFFF),
           "endpoint_port": PORT_RANGE, "endpoint_ttl": TTL_RANGE}


def _check_value(key: str, value) -> None:
    """Raise ``ValueError`` unless a config file can hold ``value`` for
    scalar ``key``."""
    kind = _PARSED_TYPES[_KEYS[key][1]]
    if type(value) is not kind:  # so a bool is no int
        if value is None and key == "bind_interface":  # unset
            return
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    if key in _BOUNDS:
        check_range(key, value, *_BOUNDS[key])
    elif key == "points_per_period":
        check_points(value)
    elif key == "sv_id" and (not value or not value.isascii()
                             or len(value) > SVID_MAX_LEN):
        raise ValueError(f"sv_id must be 1..{SVID_MAX_LEN} ASCII characters")
    elif key.endswith("_mac") and len(value) != 6:
        raise ValueError(f"{key} needs 6 octets, got {len(value)}")
    elif kind is str:
        _check_line(key, value)


def _check_line(key: str, text: str, forbidden: str = "#") -> None:
    # A config line ends at a line break, drops a comment after '#' and the
    # spaces at either end, and a member line splits at ':'.
    if type(text) is not str:
        raise ValueError(f"{key} must be of type str, got {text!r}")
    if (text != text.strip() or len(text.splitlines()) > 1
            or any(c in text for c in forbidden)):
        raise ValueError(f"{key} {text!r} does not fit on one config line")


def _check_schema(schema: DatasetSchema) -> None:
    if not len(schema):
        raise ValueError("dataset needs at least one member")
    for member in schema:
        _check_line("member name", member.name, "#:")
    count = schema.data_attribute_count
    if count > MAX_DATA_ATTRIBUTES:
        raise ValueError(f"dataset spans {count} data attributes, "
                         f"at most {MAX_DATA_ATTRIBUTES} are allowed")


def build_template(cfg: RunConfig) -> SvFrame:
    """Frame skeleton the publisher updates tick by tick."""
    schema = cfg.schema
    asdu = Asdu(
        sv_id=cfg.sv_id,
        smp_cnt=0,
        conf_rev=cfg.conf_rev,
        refr_tm=UtcTimestamp(),
        smp_synch=cfg.smp_synch,
        seq_data=bytes(schema.packed_width),
    )
    return SvFrame(
        dst_mac=cfg.dst_mac,
        src_mac=cfg.src_mac,
        vlan=VlanTag(priority=cfg.vlan_priority, vid=cfg.vlan_id),
        appid=cfg.appid,
        apdu=SavApdu([asdu]),
    )


def _fail(lineno: int, message: str):
    raise ConfigError(f"line {lineno}: {message}")


def _parse_int(lineno: int, key: str, value: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        _fail(lineno, f"{key} expects an integer, got {value!r}")


def _parse_member(lineno: int, value: str) -> SchemaMember:
    parts = value.split(":")
    if len(parts) != 6:
        _fail(lineno, "member expects name:width:signed:scale_factor:offset:q|noq")
    name, width, signedness, sf, offset, quality = (p.strip() for p in parts)
    if signedness not in ("signed", "unsigned"):
        _fail(lineno, f"member signedness must be signed|unsigned, got {signedness!r}")
    if quality not in ("q", "noq"):
        _fail(lineno, f"member quality must be q|noq, got {quality!r}")
    try:
        return SchemaMember(
            name=name,
            width=_parse_int(lineno, "width", width),
            signed=signedness == "signed",
            scale_factor=_parse_int(lineno, "scale_factor", sf),
            offset=_parse_int(lineno, "offset", offset),
            include_quality=quality == "q",
        )
    except ValueError as exc:
        _fail(lineno, str(exc))


_CHANNEL_KINDS = {k.value: k for k in WaveKind}
_CHANNEL_KEYS = ("amp", "phase", "dc", "sigma", "invalid_every")


def _parse_channel(lineno: int, value: str, member: SchemaMember) -> ChannelSpec:
    tokens = value.split()  # parse_config has checked the kind up front
    params = {}
    for token in tokens[1:]:
        key, sep, raw = token.partition("=")
        if not sep or key not in _CHANNEL_KEYS:
            _fail(lineno, f"bad channel parameter {token!r}, "
                          f"expected key=value with key in {_CHANNEL_KEYS}")
        try:
            params[key] = int(raw) if key == "invalid_every" else float(raw)
        except ValueError:
            _fail(lineno, f"bad number in channel parameter {token!r}")
    try:
        return ChannelSpec(
            member=member,
            kind=_CHANNEL_KINDS[tokens[0]],
            amplitude=params.get("amp", 0.0),
            phase_rad=params.get("phase", 0.0),
            dc_offset=params.get("dc", 0.0),
            noise_sigma=params.get("sigma", 0.0),
            invalid_every_nth=params.get("invalid_every", 0),
        )
    except ValueError as exc:
        _fail(lineno, str(exc))


def parse_config(text: str) -> RunConfig:
    scalars: dict[str, tuple[int, str]] = {}
    members: list[tuple[int, SchemaMember]] = []
    channel_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            _fail(lineno, "expected key = value")
        key, value = key.strip(), value.strip()
        if key == "member":
            members.append((lineno, _parse_member(lineno, value)))
        elif key == "channel":
            tokens = value.split()
            if not tokens or tokens[0] not in _CHANNEL_KINDS:
                _fail(lineno,
                      f"channel expects one of {sorted(_CHANNEL_KINDS)} first")
            channel_lines.append((lineno, value))
        elif key in _KEYS:
            if key in scalars:
                _fail(lineno, f"duplicate key {key!r}")
            scalars[key] = (lineno, value)
        else:
            _fail(lineno, f"unknown key {key!r}")

    fields = {}
    endpoint = {}
    for key, (lineno, value) in scalars.items():
        field, parse, _ = _KEYS[key]
        parsed = parse(lineno, key, value)
        try:
            _check_value(key, parsed)
        except ValueError as exc:
            _fail(lineno, str(exc))
        if field is None:
            fields[key] = parsed
        else:
            endpoint[field] = parsed
    try:  # a bad points_per_period has failed at its own line
        samples_per_second(fields.get("nominal_hz", RunConfig.nominal_hz),
                           fields.get("points_per_period", RunConfig.points_per_period))
    except ValueError as exc:
        _fail(max(scalars[key][0] for key in ("nominal_hz", "points_per_period")
                  if key in scalars), str(exc))

    if not members:
        members = [(0, c.member) for c in DEFAULT_CHANNELS]
    schema = DatasetSchema(m for _, m in members)
    try:
        _check_schema(schema)
    except ValueError as exc:
        _fail(members[-1][0], str(exc))
    members = schema.members
    if channel_lines:
        if len(channel_lines) != len(members):
            _fail(channel_lines[-1][0],
                  f"{len(channel_lines)} channel lines for {len(members)} members")
        channels = [_parse_channel(lineno, value, member)
                    for (lineno, value), member in zip(channel_lines, members)]
    else:
        # The built-in sources in order, then a zero constant per extra member.
        channels = [replace(c, member=m)
                    for c, m in zip(DEFAULT_CHANNELS, members)]
        channels += [ChannelSpec(m) for m in members[len(channels):]]
    fields["channels"] = tuple(channels)
    try:
        if endpoint:
            fields["endpoint"] = EndpointConfig(**endpoint)
        return RunConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _conv_str(lineno, key, value):
    return value


def _conv_mac(lineno, key, value):
    try:
        return mac_from_str(value)
    except ValueError as exc:
        _fail(lineno, str(exc))


def _conv_smp_synch(lineno, key, value):
    try:
        return SmpSynch[value.upper()]
    except KeyError:
        _fail(lineno, f"{key} must be none|local|global, got {value!r}")


def _conv_mode(lineno, key, value):
    try:
        return Mode(value.lower())
    except ValueError:
        _fail(lineno, f"{key} must be unicast|multicast, got {value!r}")


# The type of what each parser returns, which the value of its key must have.
_PARSED_TYPES = {_parse_int: int, _conv_str: str, _conv_mac: bytes,
                 _conv_smp_synch: SmpSynch, _conv_mode: Mode}

# Every scalar key in file order: the EndpointConfig field it sets (None
# for a RunConfig field of the same name), its parser and its renderer;
# _check_value checks what the parser reads.
_KEYS = {
    "sv_id": (None, _conv_str, str),
    "appid": (None, _parse_int, "0x{:04x}".format),
    "dst_mac": (None, _conv_mac, mac_to_str),
    "src_mac": (None, _conv_mac, mac_to_str),
    "vlan_priority": (None, _parse_int, str),
    "vlan_id": (None, _parse_int, str),
    "conf_rev": (None, _parse_int, str),
    "smp_synch": (None, _conv_smp_synch, lambda s: s.name.lower()),
    "nominal_hz": (None, _parse_int, str),
    "points_per_period": (None, _parse_int, str),
    "endpoint_mode": ("mode", _conv_mode, lambda m: m.value),
    "endpoint_address": ("address", _conv_str, str),
    "endpoint_port": ("port", _parse_int, str),
    "endpoint_ttl": ("multicast_ttl", _parse_int, str),
    "bind_interface": ("bind_interface", _conv_str, str),
}


def _scalars(cfg: RunConfig):
    """``(key, value, renderer)`` of every scalar key, in file order."""
    for key, (field, _, render) in _KEYS.items():
        yield key, getattr(cfg.endpoint, field) if field else getattr(cfg, key), render


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; reloads to an equal RunConfig."""
    lines = ["# svlite stream configuration"]
    for key, value, render in _scalars(cfg):
        if value is not None:  # an unset bind_interface writes no line
            lines.append(f"{key} = {render(value)}")
    for member in cfg.schema:
        lines.append(
            "member = {m.name}:{m.width}:{s}:{m.scale_factor}:{m.offset}:{q}"
            .format(m=member, s="signed" if member.signed else "unsigned",
                    q="q" if member.include_quality else "noq"))
    for channel in cfg.channels:
        lines.append(
            f"channel = {channel.kind.value} amp={channel.amplitude!r} "
            f"phase={channel.phase_rad!r} "
            f"dc={channel.dc_offset!r} sigma={channel.noise_sigma!r} "
            f"invalid_every={channel.invalid_every_nth}")
    return "\n".join(lines) + "\n"
