import hashlib
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from fractions import Fraction
from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from helpers import GOLDEN_HEX, GOLDEN_SCHEMA, GOLDEN_WIRE, golden_frame
from svlite import budget, transport
from svlite.analyzer import StreamAnalyzer, format_link_stats
from svlite.cli import _parse_duration, main, simulate
from svlite.codec import SmpSynch, refr_tm_octets
from svlite.config import (
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)
from svlite.errors import ConfigError
from svlite.model import SchemaMember
from svlite.netsim import Channel, LinkSpec
from svlite.sources import ChannelSpec, WaveKind
from svlite.transport import EndpointConfig, Mode, frame_ticks, subscribe


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBudgetCommand:
    def test_headline_fits(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--payload", "84",
                               "--hz", "50", "--points", "80",
                               "--capacity", "30M")
        assert code == 0
        assert "4.032 Mbps" in out
        assert "fits                yes" in out
        assert "4032000" in out

    def test_over_budget_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--payload", "84",
                               "--capacity", "4M")
        assert code == 3
        assert "fits                no" in out

    def test_unsupported_points(self, capsys):
        code, _, err = run_cli(capsys, "budget", "--payload", "84",
                               "--points", "100")
        assert code == 2
        assert "100" in err

    def test_capacity_suffixes(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--payload", "84",
                               "--capacity", "30000k")
        assert code == 0
        assert "30000000" in out

    def test_interval_shown_three_significant_figures(self, capsys):
        _, out, _ = run_cli(capsys, "budget", "--payload", "84")
        assert "sample_interval     250 us (exact 1/4000 s)" in out
        _, out, _ = run_cli(capsys, "budget", "--payload", "84",
                            "--points", "256")
        assert "78.1 us" in out
        _, out, _ = run_cli(capsys, "budget", "--payload", "84", "--hz", "60")
        assert "208 us (exact 1/4800 s)" in out

    def test_bad_capacity(self, capsys):
        code, _, err = run_cli(capsys, "budget", "--payload", "84",
                               "--capacity", "lots")
        assert code == 2

    @pytest.mark.parametrize("capacity", ["inf", "1e400", "nan", "1e308G", "0", "-30M"])
    def test_capacity_must_be_finite_and_above_0(self, capacity, capsys):
        code, out, err = run_cli(capsys, "budget", "--payload", "84",
                                 f"--capacity={capacity}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--payload", "-5"), ("--payload", "0"),
                                       ("--payload", "84", "--overhead", "-1000")])
    def test_impossible_sizes_exit_2(self, flags, capsys):
        code, out, err = run_cli(capsys, "budget", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestModuleEntryPoint:
    def test_python_dash_m_svlite_runs_the_cli(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "svlite", "budget", "--payload", "84"],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "4.032 Mbps" in result.stdout


    def test_closed_stdout_exits_1_without_a_traceback(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            result = subprocess.run(
                [sys.executable, "-m", "svlite", "simulate", "--frames", "200"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b"")


class TestArgparseContract:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["budget", "--payload", "84", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [
        [], ["publish"], ["subscribe"], ["decode"], ["budget"], ["simulate"]])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--help"])
        assert excinfo.value.code == 0


class TestDecodeCommand:
    def test_golden_hex_file(self, tmp_path, capsys):
        path = tmp_path / "frame.hex"
        spaced = " ".join(GOLDEN_HEX[i:i + 2]
                          for i in range(0, len(GOLDEN_HEX), 2))
        path.write_text(spaced + "\n")
        code, out, _ = run_cli(capsys, "decode", "--hex", str(path))
        assert code == 0
        assert "svID: xxxxMUnn01" in out
        assert "smpCnt: 1" in out
        assert "1 datagrams, 0 warnings" in out

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.hex"
        path.write_text("")
        code, out, _ = run_cli(capsys, "decode", "--hex", str(path))
        assert code == 0
        assert "0 datagrams" in out

    def test_truncated_frame_warns_but_exits_0(self, tmp_path, capsys):
        path = tmp_path / "cut.hex"
        path.write_text(GOLDEN_WIRE[:40].hex())
        code, out, _ = run_cli(capsys, "decode", "--hex", str(path))
        assert code == 0
        assert "TRUNCATED at offset 40" in out
        assert "1 warnings" in out

    def test_wrong_ethertype_is_a_warning(self, tmp_path, capsys):
        path = tmp_path / "ipv4.hex"
        path.write_text((GOLDEN_WIRE[:16] + b"\x08\x00" + GOLDEN_WIRE[18:]).hex())
        code, out, _ = run_cli(capsys, "decode", "--hex", str(path))
        assert code == 0
        assert "EtherType: 0x0800 (not IEC 61850/SV)" in out
        assert "1 datagrams, 1 warnings" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decode", "--hex", "/no/such/file")
        assert code == 2

    def test_bad_hex(self, tmp_path, capsys):
        path = tmp_path / "bad.hex"
        path.write_text("zz 01")
        code, _, err = run_cli(capsys, "decode", "--hex", str(path))
        assert code == 2

    def test_raw_capture_two_datagrams(self, tmp_path, capsys):
        path = tmp_path / "capture.raw"
        record = len(GOLDEN_WIRE).to_bytes(2, "big") + GOLDEN_WIRE
        path.write_bytes(record + record)
        code, out, _ = run_cli(capsys, "decode", "--raw", str(path))
        assert code == 0
        assert out.count("svID: xxxxMUnn01") == 2
        assert "2 datagrams, 0 warnings" in out

    def test_nonzero_reserved_octets_are_a_warning(self, tmp_path, capsys):
        path = tmp_path / "reserved.hex"
        path.write_text((GOLDEN_WIRE[:22] + b"\x01\x00" + GOLDEN_WIRE[24:]).hex())
        code, out, _ = run_cli(capsys, "decode", "--hex", str(path))
        assert code == 0
        assert "1 datagrams, 1 warnings" in out
        # The warning row, and only it, ends in the mark.
        lines = out.splitlines()
        assert "Reserved1: 0x0100  [warning]" in lines
        assert "Reserved2: 0x0000" in lines
        assert sum(line.endswith("  [warning]") for line in lines) == 1

    def test_empty_record_and_bad_smp_synch_are_warnings(self, tmp_path, capsys):
        at = GOLDEN_WIRE.index(bytes.fromhex("850100")) + 2
        synch_3 = GOLDEN_WIRE[:at] + b"\x03" + GOLDEN_WIRE[at + 1:]
        path = tmp_path / "capture.raw"
        path.write_bytes(bytes(2) + len(synch_3).to_bytes(2, "big") + synch_3)
        code, out, _ = run_cli(capsys, "decode", "--raw", str(path))
        assert code == 0
        assert "empty capture" in out and "smpSynch: 3 (?)" in out
        assert "2 datagrams, 2 warnings" in out

    def test_raw_capture_truncated_record(self, tmp_path, capsys):
        path = tmp_path / "cut.raw"
        record = len(GOLDEN_WIRE).to_bytes(2, "big") + GOLDEN_WIRE
        path.write_bytes(record + (500).to_bytes(2, "big") + GOLDEN_WIRE[:30])
        code, out, _ = run_cli(capsys, "decode", "--raw", str(path))
        assert code == 0
        assert "2 datagrams" in out
        assert "warnings" in out

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decode"])
        assert excinfo.value.code == 2


CUSTOM_CONFIG = "\n".join([
    "sv_id = fieldMU07",
    "appid = 0x4abc",
    "dst_mac = 01:0c:cd:04:00:01",
    "src_mac = 00:11:22:33:44:55",
    "vlan_priority = 5",
    "vlan_id = 7",
    "conf_rev = 9",
    "smp_synch = local",
    "nominal_hz = 60",
    "points_per_period = 256",
    "endpoint_mode = unicast",
    "endpoint_address = 127.0.0.1",
    "endpoint_port = 15000",
    "member = TCTR1.AmpSv.instMag.i:4:signed:-2:0:q",
    "member = TCTR1.AmpSv.GeoCrd.H:2:signed:-1:0:noq",
    "channel = sine amp=250.5 phase=0.5",
    "channel = const dc=88.0",
])


def line_text(forbidden: str = "#", max_size: int = 64):
    """Printable ASCII that one config line can hold as a value."""
    alphabet = [chr(c) for c in range(0x20, 0x7F) if chr(c) not in forbidden]
    return st.text(alphabet, min_size=1, max_size=max_size).map(str.strip) \
        .filter(bool)


def endpoints(mode: Mode, addresses):
    return st.builds(
        EndpointConfig, mode=st.just(mode),
        address=addresses.map(lambda n: str(IPv4Address(n))),
        port=st.integers(1, 0xFFFF), multicast_ttl=st.integers(0, 255),
        bind_interface=st.none() | st.just("") | line_text())


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MAGNITUDE = st.floats(min_value=0, allow_infinity=False)
# Two data attributes at most, as the profile allows.
MEMBERS = st.builds(
    SchemaMember,
    name=st.builds("{}.{}".format, st.sampled_from(["TCTR1.AmpSv", "VCVR1.VolSv"]),
                   line_text("#:", 16)),
    width=st.sampled_from([2, 4]), signed=st.booleans(),
    scale_factor=st.integers(-128, 127), offset=st.integers(-2**31, 2**31 - 1),
    include_quality=st.booleans())
CHANNELS = st.builds(
    ChannelSpec, member=MEMBERS, kind=st.sampled_from(WaveKind),
    amplitude=MAGNITUDE, phase_rad=FINITE, dc_offset=FINITE,
    noise_sigma=MAGNITUDE, invalid_every_nth=st.integers(0, 10**6))
# nominal_hz and points_per_period whose product fits smpCnt's 65536 values.
RATES = st.sampled_from([80, 256]).flatmap(lambda points: st.fixed_dictionaries(
    {"nominal_hz": st.integers(1, 0x10000 // points),
     "points_per_period": st.just(points)}))
# A RunConfig of the profile with every field drawn from its whole range.
VALID_CONFIGS = st.builds(
    lambda rate, **fields: RunConfig(**rate, **fields), RATES,
    sv_id=line_text(), appid=st.integers(0, 0xFFFF),
    dst_mac=st.binary(min_size=6, max_size=6),
    src_mac=st.binary(min_size=6, max_size=6),
    vlan_priority=st.integers(0, 7), vlan_id=st.integers(0, 0x0FFF),
    conf_rev=st.integers(0, 2**32 - 1), smp_synch=st.sampled_from(SmpSynch),
    endpoint=(endpoints(Mode.UNICAST, st.integers(0, 2**32 - 1))
              | endpoints(Mode.MULTICAST, st.integers(0xE000_0000, 0xEFFF_FFFF))),
    channels=st.lists(CHANNELS, min_size=1, max_size=4).map(tuple))


# Every scalar field a RunConfig holds, by the object that holds it.
SCALAR_FIELDS = (
    [("config", f.name) for f in fields(RunConfig)
     if f.name not in ("endpoint", "channels")]
    + [("endpoint", f.name) for f in fields(EndpointConfig)]
    + [("member", f.name) for f in fields(SchemaMember)]
    + [("channel", f.name) for f in fields(ChannelSpec) if f.name != "member"])


def _config_with(owner: str, name: str, value) -> RunConfig:
    """The built-in config, over a unicast endpoint and its first channel
    only, with field ``name`` of ``owner`` set to ``value``."""
    endpoint = EndpointConfig(mode=Mode.UNICAST, address="127.0.0.1")
    channel = RunConfig().channels[0]
    if owner == "config":
        return RunConfig(endpoint=endpoint, channels=(channel,), **{name: value})
    if owner == "endpoint":
        endpoint = replace(endpoint, **{name: value})
    elif owner == "member":
        channel = replace(channel, member=replace(channel.member, **{name: value}))
    else:
        channel = replace(channel, **{name: value})
    return RunConfig(endpoint=endpoint, channels=(channel,))


class TestConfigRoundTrip:
    @given(VALID_CONFIGS)
    def test_any_valid_config_dump_reloads(self, cfg):
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("fields", [
        {"appid": 0x1_0000}, {"appid": -1}, {"vlan_priority": 8},
        {"vlan_priority": 9}, {"vlan_id": 0x1000}, {"conf_rev": -1},
        {"conf_rev": 1 << 32}, {"nominal_hz": 0}, {"nominal_hz": 5000},
        {"points_per_period": 100}, {"nominal_hz": 820},
        {"nominal_hz": 257, "points_per_period": 256},
    ])
    def test_out_of_range_scalar_raises_value_error(self, fields):
        # Raised when the config is built, not later as struct.error.
        with pytest.raises(ValueError, match=next(iter(fields))):
            RunConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"port": 0}, {"port": 0x1_0000}, {"multicast_ttl": -1},
        {"multicast_ttl": 256},
    ])
    def test_out_of_range_endpoint_scalar_raises_value_error(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            EndpointConfig(mode=Mode.UNICAST, address="127.0.0.1", **fields)

    @pytest.mark.parametrize("fields", [
        {"sv_id": "a#b"}, {"sv_id": " ab"}, {"sv_id": "a\nb"},
        {"endpoint": EndpointConfig(bind_interface="10.0.0.1 # eth0")},
        {"channels": (ChannelSpec(SchemaMember("TCTR1.AmpSv.i:x", 4)),)},
        {"channels": ()},
        {"dst_mac": bytes(5)},
    ])
    def test_what_a_config_file_cannot_hold_raises_value_error(self, fields):
        with pytest.raises(ValueError):
            RunConfig(**fields)

    @pytest.mark.parametrize("build", [
        lambda: RunConfig(smp_synch=1),
        lambda: RunConfig(endpoint=EndpointConfig(mode="unicast",
                                                  address="127.0.0.1")),
        lambda: RunConfig(nominal_hz=50.0),
        lambda: RunConfig(vlan_priority=True),
        lambda: RunConfig(points_per_period=80.0),
        lambda: EndpointConfig(port=61850.0),
        lambda: SchemaMember("TCTR1.AmpSv.instMag.i", width=4.0),
        lambda: SchemaMember("TCTR1.AmpSv.instMag.i", 4, scale_factor=1.5),
        lambda: ChannelSpec(SchemaMember("TCTR1.AmpSv.instMag.i", 4),
                            invalid_every_nth=2.5),
        lambda: RunConfig(sv_id=b"abc"),
        lambda: RunConfig(channels=list(RunConfig().channels)),
        lambda: RunConfig(endpoint=None),
        lambda: RunConfig(channels=(None,)),
        lambda: ChannelSpec(member="TCTR1.AmpSv.instMag.i"),
    ], ids=["smp_synch", "mode", "nominal_hz", "vlan_priority",
            "points_per_period", "port", "width", "scale_factor",
            "invalid_every_nth", "sv_id", "channels", "endpoint", "channel",
            "member"])
    def test_scalar_of_another_type_raises_value_error(self, build):
        # Each of these was accepted, then failed to dump or to reload equal,
        # except endpoint and channel, which raised AttributeError, and
        # member, which failed only when a provider quantised through it.
        with pytest.raises(ValueError, match="must be"):
            build()

    @given(field=st.sampled_from(SCALAR_FIELDS),
           value=st.integers() | st.floats() | st.booleans() | st.text()
           | st.binary() | st.none())
    def test_any_scalar_dump_reloads_or_raises_value_error(self, field, value):
        try:
            cfg = _config_with(*field, value)
        except ValueError:
            return
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("hz, points", [(256, 256), (819, 80)])
    def test_fastest_rates_dump_reload(self, hz, points):
        cfg = RunConfig(nominal_hz=hz, points_per_period=points)
        assert parse_config(dump_config(cfg)) == cfg

    def test_default_dump_reloads_identically(self):
        cfg = RunConfig()
        assert parse_config(dump_config(cfg)) == cfg

    def test_dataclass_default_is_the_builtin_stream(self, capsys):
        assert RunConfig() == parse_config("")
        analyzer, _ = simulate(
            RunConfig(), LinkSpec(loss_probability=0.01, seed=42), 2000, 42)
        code, out, _ = run_cli(capsys, "simulate", "--loss", "0.01",
                               "--frames", "2000", "--seed", "42")
        assert code == 0
        assert out.startswith(format_link_stats(analyzer.report()) + "\n")

    def test_custom_config_round_trip(self, tmp_path):
        cfg = parse_config(CUSTOM_CONFIG)
        assert cfg.sv_id == "fieldMU07"
        assert cfg.samples_per_second == 60 * 256
        assert cfg.schema.members[0].include_quality is True
        assert cfg.channels[0].amplitude == 250.5
        assert cfg.channels[0].member.scale_factor == -2
        again = parse_config(dump_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("text,digest", [
        pytest.param(
            "",
            "b18c4bf6e2b10e25d28f66d61bb49069057e7ece99d17370663a38655c726020",
            id="builtin"),
        pytest.param(
            CUSTOM_CONFIG,
            "ecb96ade7a42d13af2f28b241dd67563f1de3198199c9c30c3a2941b1b7a2f44",
            id="custom"),
        pytest.param(
            "bind_interface = 10.0.0.1\n",
            "7a616c3188aa38768ce0db929ce7fbf2eb99a4a4748601ed6eb4cd9db88b674f",
            id="bind-interface"),
    ])
    def test_pinned_dump(self, text, digest):
        dumped = dump_config(parse_config(text))
        assert hashlib.sha256(dumped.encode()).hexdigest() == digest

    def test_empty_bind_interface_round_trips(self):
        cfg = parse_config("bind_interface =\n")
        assert cfg.endpoint.bind_interface == ""
        assert parse_config(dump_config(cfg)) == cfg

    def test_one_member_without_channels_gets_the_builtin_sine(self):
        cfg = parse_config("member = TCTR1.AmpSv.instMag.i:4:signed:-2:0:q\n")
        member = SchemaMember("TCTR1.AmpSv.instMag.i", 4, scale_factor=-2,
                              include_quality=True)
        assert cfg.channels == (
            ChannelSpec(member, WaveKind.SINE, amplitude=1000.0),)

    def test_extra_members_without_channels_get_a_zero_constant(self):
        text = "\n".join([
            "member = TMGF1.MagFld.instMag.i:4:signed:0:0:noq",
            "member = TMGF1.MagFld.GeoCrd.B:4:signed:-4:0:noq",
            "member = TMGF1.MagFld.GeoCrd.L:4:signed:-4:0:noq",
            "member = TCTR1.AmpSv.instMag.i:4:signed:-2:0:q",
            "member = TCTR1.AmpSv.GeoCrd.H:2:signed:-1:0:noq",
        ])
        cfg = parse_config(text)
        members = cfg.schema.members
        assert [m.name for m in members][3:] == [
            "TCTR1.AmpSv.instMag.i", "TCTR1.AmpSv.GeoCrd.H"]
        assert cfg.channels == (
            ChannelSpec(members[0], WaveKind.SINE, amplitude=1000.0),
            ChannelSpec(members[1], dc_offset=26.0745),
            ChannelSpec(members[2], dc_offset=119.3064),
            ChannelSpec(members[3], dc_offset=12.0),
            ChannelSpec(members[4], dc_offset=0.0),
        )

    def test_dump_config_flag_writes_reloadable_file(self, tmp_path, capsys):
        target = tmp_path / "dumped.cfg"
        code, out, _ = run_cli(capsys, "simulate",
                               "--dump-config", str(target))
        assert code == 0
        assert load_config(target) == RunConfig()

    @pytest.mark.parametrize("command", ["publish", "subscribe", "simulate"])
    def test_dump_config_to_an_unwritable_path_exits_2(self, command, tmp_path,
                                                       capsys):
        # Once an uncaught FileNotFoundError, exit 1 with a traceback.
        target = tmp_path / "missing" / "dumped.cfg"
        code, out, err = run_cli(capsys, command, "--dump-config", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("line,fragment", [
        ("bogus_key = 1", "unknown key"),
        ("appid = 0x1FFFF", "outside"),
        ("vlan_priority = 9", "outside"),
        ("points_per_period = 100", "80 or 256"),
        ("nominal_hz = 1000", "65536"),
        ("nominal_hz = 0", "nominal_hz * points_per_period = 0, outside"),
        ("member = short:line", "member expects"),
        ("member = a.b:3:signed:0:0:noq", "width"),
        ("channel = square dc=1", "channel expects"),
        ("smp_synch = never", "none|local|global"),
        ("dst_mac = 18:cc:18", "MAC"),
        ("dst_mac = 01:02:03:04:05:+6", "bad MAC address '01:02:03:04:05:+6'"),
        ("just a line without equals", "key = value"),
    ])
    def test_bad_lines_report_line_numbers(self, line, fragment):
        text = "sv_id = ok\n" + line + "\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert "line 2" in str(excinfo.value)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("text, line", [
        ("nominal_hz = 300\npoints_per_period = 256\n", 2),
        ("points_per_period = 256\nsv_id = ok\nnominal_hz = 300\n", 3),
    ])
    def test_rate_past_16_bit_smp_cnt_reports_the_later_line(self, text, line):
        with pytest.raises(ConfigError, match=f"line {line}: .*65536"):
            parse_config(text)

    def test_bad_points_reports_its_own_line(self):
        with pytest.raises(ConfigError,
                           match="line 1: points_per_period must be 80 or 256"):
            parse_config("points_per_period = 100\nnominal_hz = 5000\n")

    def test_freq_is_not_a_channel_key(self):
        text = "\n".join([
            "member = TCTR1.AmpSv.instMag.i:4:signed:0:0:noq",
            "channel = sine freq=60",
        ])
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert "line 2" in str(excinfo.value)
        assert "bad channel parameter" in str(excinfo.value)
        assert "freq=" not in dump_config(RunConfig())

    def test_channel_count_must_match_members(self):
        text = "\n".join([
            "member = TCTR1.AmpSv.instMag.i:4:signed:0:0:noq",
            "channel = const dc=1",
            "channel = const dc=2",
        ])
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_attribute_limit_enforced_at_load(self):
        text = "\n".join([
            "member = TCTR1.AmpSv.instMag.i:4:signed:0:0:noq",
            "member = VCVR1.VolSv.instMag.i:4:signed:0:0:noq",
            "member = TTMP1.Tmp.instMag.i:2:signed:0:0:noq",
        ])
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert "line 3" in str(excinfo.value)
        assert "3 data attributes" in str(excinfo.value)

    def test_attribute_limit_enforced_in_code(self):
        channels = tuple(ChannelSpec(SchemaMember(name, 4))
                         for name in ("A.B.i", "C.D.i", "E.F.i"))
        with pytest.raises(ValueError,
                           match="dataset spans 3 data attributes"):
            RunConfig(channels=channels)
        two = RunConfig(channels=channels[:2])
        assert parse_config(dump_config(two)) == two

    @pytest.mark.parametrize("sv_id", ["x" * 65, "x" * 200, "", "caf\u00e9"])
    def test_sv_id_rule_enforced_in_code(self, sv_id):
        with pytest.raises(ValueError, match="sv_id must be 1..64 ASCII"):
            RunConfig(sv_id=sv_id)

    def test_longest_sv_id_round_trips(self):
        cfg = RunConfig(sv_id="x" * 64)
        assert parse_config(dump_config(cfg)) == cfg

    def test_two_attributes_load_fine(self):
        text = "\n".join([
            "member = TCTR1.AmpSv.instMag.i:4:signed:0:0:noq",
            "member = VCVR1.VolSv.instMag.i:4:signed:0:0:noq",
            "channel = sine amp=10",
            "channel = sine amp=10",
        ])
        assert len(parse_config(text).schema.members) == 2

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\nsv_id = abc  # trailing comment\n"
        assert parse_config(text).sv_id == "abc"


def _unicast_config(tmp_path):
    """The default config, sent over unicast 127.0.0.1 to a free port."""
    port = _free_port()
    cfg_text = dump_config(RunConfig()).replace(
        "endpoint_mode = multicast", "endpoint_mode = unicast").replace(
        "endpoint_address = 239.255.61.85",
        "endpoint_address = 127.0.0.1").replace(
        "endpoint_port = 61850", f"endpoint_port = {port}")
    path = tmp_path / "stream.cfg"
    path.write_text(cfg_text)
    return path


class TestPublishCommand:
    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "publish", "--config", "missing.cfg")
        assert code == 2
        assert "missing.cfg" in err

    @pytest.mark.parametrize("flags", [
        ("--duration", "inf"), ("--duration", "nan"), ("--duration", "1e400"),
        ("--duration", "1e308"), ("--rate-limit", "inf"), ("--rate-limit", "nan"),
        ("--rate-limit", "-5"), ("--rate-limit", "0")])
    def test_non_finite_number_exits_2(self, flags, capsys):
        code, out, err = run_cli(capsys, "publish", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_small_run_summary(self, tmp_path, capsys):
        path = _unicast_config(tmp_path)
        code, out, _ = run_cli(capsys, "publish", "--config", str(path),
                               "--frames", "40")
        assert code == 0
        assert "frames_sent      40" in out

    def test_rate_limit_paces_slowly(self, tmp_path, capsys):
        path = _unicast_config(tmp_path)
        t0 = time.monotonic()
        code, out, _ = run_cli(capsys, "publish", "--config", str(path),
                               "--rate-limit", "10", "--duration", "0.5s")
        elapsed = time.monotonic() - t0
        assert code == 0
        assert "frames_sent      5" in out
        assert elapsed >= 0.35


class TestSubscribeCommand:
    @pytest.mark.parametrize("text", ["nan", "nans", "inf", "-inf", "1e400s", "-1s"])
    def test_duration_must_be_finite(self, text):
        # A nan deadline never passes, so subscribe would never stop.
        with pytest.raises(ValueError, match="finite"):
            _parse_duration(text)

    @pytest.mark.parametrize("interval", ["0", "-1", "nan", "inf"])
    def test_stats_interval_must_be_finite_and_positive(self, interval, capsys,
                                                         monkeypatch):
        def no_socket(*args, **kwargs):
            raise AssertionError("subscribe bound a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        code, out, err = run_cli(capsys, "subscribe", "--stats-interval", interval,
                                 "--duration", "0s")
        assert code == 2
        assert out == ""
        assert err.startswith("error: stats interval")

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_max_frames_must_be_at_least_one(self, count, capsys, monkeypatch):
        # 0 read as "no limit" and -1 stopped at once with an empty report.
        def no_socket(*args, **kwargs):
            raise AssertionError("subscribe bound a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        code, out, err = run_cli(capsys, "subscribe", "--max-frames", count,
                                 "--duration", "0s")
        assert code == 2
        assert out == ""
        assert err == f"error: max frames must be at least 1, got {count}\n"

    def test_receives_published_frames(self, tmp_path, capsys):
        path = _unicast_config(tmp_path)

        publisher = threading.Thread(
            target=lambda: (time.sleep(0.3),
                            main(["publish", "--config", str(path),
                                  "--frames", "60"])),
            daemon=True)
        publisher.start()
        code, out, _ = run_cli(capsys, "subscribe", "--config", str(path),
                               "--max-frames", "60", "--duration", "8s")
        publisher.join(timeout=10)
        assert code == 0
        assert "received" in out
        assert "datagrams" in out

    def test_immediate_stop(self, tmp_path, capsys):
        path = _unicast_config(tmp_path)
        code, out, _ = run_cli(capsys, "subscribe", "--config", str(path),
                               "--duration", "0s")
        assert code == 0
        assert "received" in out

    def test_report_values_share_one_column(self, tmp_path, capsys):
        # The datagrams and kernel_dropped rows, printed after the stats,
        # pad to their column.
        path = _unicast_config(tmp_path)
        code, out, _ = run_cli(capsys, "subscribe", "--config", str(path),
                               "--duration", "0s")
        assert code == 0
        rows = out.splitlines()
        assert [row.split() for row in rows[-2:]] == [
            ["datagrams", "0"], ["kernel_dropped", "0"]]
        assert {len(row) - len(row.split(maxsplit=1)[1]) for row in rows} == {22}

    def test_interim_stats_print_once_per_stall(self, capsys, monkeypatch):
        """After a silence of many stats intervals, the next datagram
        prints one interim line and the ones that follow print none until
        the next interval boundary."""
        clock = iter([0.0, 0.5, 1.2, 11.0, 11.1, 11.2, 11.3, 11.4, 12.5])
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))

        def fake_receive(endpoint, stop, summary):
            for arrival in range(8):
                summary.datagrams += 1
                yield GOLDEN_WIRE, float(arrival)

        monkeypatch.setattr(transport, "receive", fake_receive)
        code, out, _ = run_cli(capsys, "subscribe", "--stats-interval", "1")
        assert code == 0
        assert [line.split("s ")[0] for line in out.splitlines()
                if line.startswith("t=")] == ["t=   1.2", "t=  11.0", "t=  12.5"]

    def test_bad_bind_exits_1(self, tmp_path, capsys):
        cfg_text = dump_config(RunConfig()).replace(
            "endpoint_mode = multicast", "endpoint_mode = unicast").replace(
            "endpoint_address = 239.255.61.85",
            "endpoint_address = 192.0.2.1")
        path = tmp_path / "stream.cfg"
        path.write_text(cfg_text)
        code, _, err = run_cli(capsys, "subscribe", "--config", str(path),
                               "--duration", "1s")
        assert code == 1
        assert "transport error" in err

    def test_second_subscriber_on_a_unicast_port_exits_1(self, tmp_path,
                                                          capsys):
        # A unicast port is not shared: the subscriber that binds it first
        # keeps every datagram, and a second one fails to bind.
        path = _unicast_config(tmp_path)
        endpoint = load_config(str(path)).endpoint
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

        def stop():
            tx.sendto(b"x", (endpoint.address, endpoint.port))
            return False

        first = transport.receive(endpoint, stop, transport.ReceiveSummary())
        try:
            assert next(first)[0] == b"x"
            code, out, err = run_cli(capsys, "subscribe", "--config",
                                     str(path), "--duration", "1s")
        finally:
            first.close()
            tx.close()
        assert (code, out) == (1, "")
        assert err.startswith(
            f"transport error: bind/join 127.0.0.1:{endpoint.port} failed")


# 50 Hz x 256 with quality on every member, a channel that goes invalid
# every 7th tick and a noise channel.
IMPAIRED_256 = "\n".join([
    "nominal_hz = 50",
    "points_per_period = 256",
    "member = TCTR1.AmpSv.instMag.i:4:signed:-3:0:q",
    "member = TCTR1.AmpSv.instMag.n:4:signed:-2:0:q",
    "member = VCVR1.VolSv.instMag.c:2:signed:-1:0:q",
    "channel = sine amp=120.5 phase=0.3 invalid_every=7",
    "channel = noise dc=1.5 sigma=2.0",
    "channel = const dc=12.3",
])


class TestSimulateCommand:
    def test_loss_free(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--loss", "0",
                               "--frames", "1000")
        assert code == 0
        assert "lost                  0" in out.replace("lost     ", "lost     ")
        assert "measured_loss_rate    0.000000" in out

    def test_total_loss(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--loss", "1",
                               "--frames", "10")
        assert code == 0
        assert "received              0" in out

    def test_measured_loss_near_injected(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--loss", "0.01",
                               "--frames", "20000", "--seed", "42")
        assert code == 0
        measured = float(out.split("measured_loss_rate")[1].split()[0])
        assert 0.005 <= measured <= 0.015
        assert "ground_truth_check    ok" in out

    def test_bad_probability_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--loss", "1.5",
                               "--frames", "10")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--jitter", "--latency"])
    @pytest.mark.parametrize("number", ["nan", "inf"])
    def test_non_finite_link_parameter_exits_2(self, flag, number, capsys):
        code, out, err = run_cli(capsys, "simulate", "--frames", "50",
                                 flag, number)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--jitter", "1e308"),
        ("--latency", "1e308", "--jitter", "1e308"),
    ])
    def test_overflowing_jitter_span_exits_2(self, flags, capsys):
        code, out, err = run_cli(capsys, "simulate", "--frames", "50", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: base_latency + 2 * jitter must be finite")
        assert "Traceback" not in err

    def test_delay_past_an_hour_exits_2(self, capsys):
        # Squared inter-arrival deviations of a 1e200 s jitter overflowed:
        # the run printed an infinite stddev and exited 0.
        code, out, err = run_cli(capsys, "simulate", "--frames", "50",
                                 "--jitter", "1e200")
        assert (code, out) == (2, "")
        assert err.startswith("error: base_latency + 2 * jitter must be "
                              "finite and at most 3600 s")

    def test_longest_delay_keeps_inter_arrival_statistics_finite(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--frames", "50",
                               "--jitter", "1200", "--latency", "1200")
        assert code == 0
        stats = dict(line.split(None, 1) for line in out.splitlines())
        for key in ("inter_arrival_mean", "inter_arrival_stddev"):
            assert 0 < float(stats[key].split()[0]) < 3600

    def test_negative_frame_count_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--frames", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: frame count must be >= 0, got -5\n"

    def test_zero_frames_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--frames", "0")
        assert code == 0
        assert "frames_transmitted    0" in out

    def test_sample_that_does_not_fit_its_member_exits_2(self, tmp_path,
                                                         capsys):
        path = tmp_path / "narrow.cfg"
        path.write_text("member = TCTR1.AmpSv.instMag.i:2:signed:0:0:noq\n"
                        "channel = const dc=40000\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--frames", "10")
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["amp", "phase", "dc", "sigma"])
    @pytest.mark.parametrize("number", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_channel_number_is_a_config_error(self, key, number,
                                                         tmp_path, capsys):
        path = tmp_path / "non-finite.cfg"
        path.write_text("member = A.B.i:4:signed:0:0:noq\n"
                        f"channel = const {key}={number}\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--frames", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("config error: line 2: ")
        assert "must be finite" in err
        assert "Traceback" not in err

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--loss", "0.02", "--jitter", "1e-4",
                "--frames", "3000", "--seed", "7"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("config,args,stdout_sha,datagrams_sha", [
        pytest.param(
            None, ["--loss", "0.01", "--frames", "5000", "--seed", "42"],
            "68d7da55ff1b72f51d5b75385ea24e26635d4f183660c8bc2d5740568766c41f",
            "f6e6d6152f53eb3dd25449eea18ecb4a67a29bfcf8fec3cb8d3927c1ae892f7a",
            id="builtin-loss"),
        pytest.param(
            IMPAIRED_256, ["--loss", "0.02", "--jitter", "5e-5", "--reorder",
                           "0.02", "--frames", "13000", "--seed", "3"],
            "cc436ca89c3bbab92783e2450465ca41c6bc25b19050f8ff9a11fa4ef6f2c176",
            "afd4ce309f59502f2163e3169e6d62ac8d9569af233e7a0c3d72f893b56dd5d9",
            id="256q-impaired"),
        pytest.param(
            None, ["--jitter", "1e-4", "--reorder", "0.05", "--frames", "5000",
                   "--seed", "9"],
            "4b9f63716bd3fa91f68fb643904dfa7c863a07c72915bd6d293df972da67ac80",
            "f6e6d6152f53eb3dd25449eea18ecb4a67a29bfcf8fec3cb8d3927c1ae892f7a",
            id="builtin-jitter-reorder"),
    ])
    def test_pinned_output(self, config, args, stdout_sha, datagrams_sha,
                           tmp_path, monkeypatch, capsys):
        """Report text and every datagram offered to the channel, byte
        for byte, across smpCnt wrap, quality, loss, jitter and reorder."""
        offered = hashlib.sha256()
        transmit = Channel.transmit

        def recording_transmit(channel, datagram, send_time):
            offered.update(datagram)
            return transmit(channel, datagram, send_time)

        monkeypatch.setattr(Channel, "transmit", recording_transmit)
        if config is not None:
            path = tmp_path / "stream.cfg"
            path.write_text(config)
            args = ["--config", str(path), *args]
        code, out, _ = run_cli(capsys, "simulate", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
        assert offered.hexdigest() == datagrams_sha


class TestVirtualStamp:
    """simulate's refrTm of tick / wrap seconds against the exact rational
    conversion, which rounds half to even to 2**-24 s."""

    @staticmethod
    def exact(tick, wrap):
        return (round(Fraction(tick, wrap) * 2**24) << 8).to_bytes(8, "big")

    @pytest.mark.parametrize("wrap", [4000, 12800])
    def test_three_wraps(self, wrap):
        for tick in range(3 * wrap):
            assert refr_tm_octets(tick, wrap) == self.exact(tick, wrap), tick

    def test_exact_halves_round_to_even(self):
        wrap = 2 ** 25  # odd ticks fall on half a fraction step
        for tick in range(10_000):
            assert refr_tm_octets(tick, wrap) == self.exact(tick, wrap), tick
        assert refr_tm_octets(1, wrap)[4:7] == bytes(3)
        assert refr_tm_octets(3, wrap)[4:7] == (2).to_bytes(3, "big")

    def test_fraction_carries_into_seconds(self):
        wrap = 2 ** 25 + 1  # the last tick of a second rounds up to 1 s
        for tick in (wrap - 1, 2 * wrap - 1):
            assert refr_tm_octets(tick, wrap) == self.exact(tick, wrap)
        assert refr_tm_octets(2 * wrap - 1, wrap) == bytes([0, 0, 0, 2]) + bytes(4)


def _accepts(call, *args) -> bool:
    try:
        call(*args)
    except (ValueError, ConfigError):
        return False
    return True


def _budget_command_accepts(hz: int, points: int) -> bool:
    code = main(["budget", "--payload", "84", f"--hz={hz}", f"--points={points}"])
    assert code in (0, 2, 3)
    return code != 2


def _rate_verdicts(hz: int, points: int) -> dict:
    """Whether each layer that takes a sampling rate accepts ``hz`` x
    ``points``; frame_ticks and the analyzer take the product as a wrap."""
    verdicts = {
        "RunConfig": _accepts(lambda: RunConfig(nominal_hz=hz,
                                                points_per_period=points)),
        "parse_config": _accepts(parse_config, f"nominal_hz = {hz}\n"
                                               f"points_per_period = {points}\n"),
        "project_bitrate": _accepts(budget.project_bitrate, 84, hz, points,
                                    30_000_000),
        "sample_interval": _accepts(budget.sample_interval, hz, points),
        "svlite budget": _budget_command_accepts(hz, points),
    }
    if points in (80, 256):  # a wrap carries no points, so 50 x 100 is 5000
        verdicts["frame_ticks"] = _accepts(
            frame_ticks, golden_frame(), GOLDEN_SCHEMA, lambda tick: bytes(14),
            hz * points, lambda tick: bytes(8))
        verdicts["StreamAnalyzer"] = _accepts(StreamAnalyzer, hz * points,
                                              GOLDEN_SCHEMA)
    return verdicts


class TestRateRuleParity:
    """One rate rule: 80 or 256 points per period, and a product that
    smpCnt's 2 octets count in a second, judged alike by every layer."""

    @pytest.mark.parametrize("hz, points, legal", [
        (1, 80, True), (50, 80, True), (819, 80, True), (820, 80, False),
        (256, 256, True), (257, 256, False), (0, 80, False), (-1, 80, False),
        (50, 100, False),
    ])
    def test_pinned_rates_parity(self, hz, points, legal):
        verdicts = _rate_verdicts(hz, points)
        assert verdicts == dict.fromkeys(verdicts, legal)

    @given(hz=st.integers(-10, 1000) | st.integers(),
           points=st.sampled_from([80, 256]))
    def test_any_rate_parity(self, hz, points):
        legal = 1 <= hz and hz * points <= 0x10000
        verdicts = _rate_verdicts(hz, points)
        assert verdicts == dict.fromkeys(verdicts, legal)


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port
