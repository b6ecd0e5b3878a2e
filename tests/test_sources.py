import math
import statistics
from decimal import Decimal

import pytest

from svlite.codec import DecodeMode, UtcTimestamp, decode_frame
from svlite.config import build_template, parse_config
from svlite.errors import Overflow, UnsupportedRate
from svlite.model import SchemaMember, Validity, to_engineering
from svlite.sources import ChannelSpec, WaveKind, sample_at, sample_provider
from svlite.transport import frame_ticks


def _member(scale_factor=0, width=4, signed=True):
    return SchemaMember("TCTR1.AmpSv.instMag.i", width, signed=signed,
                        scale_factor=scale_factor)


def _sine(amplitude=100.0, scale_factor=-2, **kwargs):
    return ChannelSpec(_member(scale_factor), kind=WaveKind.SINE,
                       amplitude=amplitude, **kwargs)


def _const(dc_offset=0.0, scale_factor=0, **kwargs):
    return ChannelSpec(_member(scale_factor), kind=WaveKind.CONSTANT,
                       dc_offset=dc_offset, **kwargs)


def _noise(sigma, scale_factor):
    return ChannelSpec(_member(scale_factor), kind=WaveKind.GAUSSIAN_NOISE,
                       noise_sigma=sigma)


def _validity(spec, ticks):
    provide = sample_provider([spec], 80)
    return [provide(t)[0][1].validity for t in range(ticks)]


class TestSine:
    def test_tick_zero_is_zero(self):
        assert sample_at(_sine(), 0, 80) == 0

    def test_quarter_period_hits_amplitude(self):
        raw = sample_at(_sine(), 20, 80)
        assert raw == 10_000
        assert to_engineering(raw, -2) == Decimal("100.00")

    def test_three_quarter_period(self):
        assert sample_at(_sine(), 60, 80) == -10_000

    def test_phase_shift(self):
        shifted = _sine(phase_rad=math.pi / 2)
        assert sample_at(shifted, 0, 80) == 10_000

    def test_dc_offset(self):
        spec = _sine(dc_offset=50.0)
        assert sample_at(spec, 0, 80) == 5000

    def test_mean_over_one_period(self):
        spec = _sine(dc_offset=7.5)
        total = sum(
            to_engineering(sample_at(spec, tick, 80), -2)
            for tick in range(80))
        quantisation_bound = Decimal(80) * Decimal(10) ** -2 / 2
        assert abs(total - Decimal("600.0")) <= quantisation_bound


class TestConstant:
    def test_fixed_raw_at_every_tick(self):
        spec = _const(22.5, scale_factor=-1)
        for tick in (0, 1, 17, 4000):
            assert sample_at(spec, tick, 80) == 225


class TestNoise:
    def test_deterministic_per_tick_and_seed(self):
        spec = _noise(3.0, -3)
        a = sample_at(spec, 123, 80, seed=42)
        b = sample_at(spec, 123, 80, seed=42)
        assert a == b

    def test_seed_changes_stream(self):
        spec = _noise(3.0, -3)
        a = [sample_at(spec, t, 80, seed=1) for t in range(50)]
        b = [sample_at(spec, t, 80, seed=2) for t in range(50)]
        assert a != b

    def test_distribution_sanity(self):
        spec = _noise(1.0, -4)
        values = [
            float(to_engineering(sample_at(spec, t, 80, seed=9), -4))
            for t in range(2000)
        ]
        assert abs(statistics.fmean(values)) < 0.1
        assert 0.93 < statistics.pstdev(values) < 1.07


class TestQualityProfile:
    def test_always_good_by_default(self):
        assert all(v is Validity.GOOD for v in _validity(_const(), 30))

    def test_invalid_every_nth_exact_count(self):
        flags = _validity(_const(invalid_every_nth=10), 1000)
        assert flags.count(Validity.INVALID) == 100

    def test_short_run_below_n_has_none(self):
        flags = _validity(_const(invalid_every_nth=10), 5)
        assert Validity.INVALID not in flags

    def test_every_sample_when_n_is_one(self):
        flags = _validity(_const(invalid_every_nth=1), 10)
        assert all(v is Validity.INVALID for v in flags)


class TestMemberQuantisation:
    UNSIGNED_16 = "member = TCTR1.AmpSv.instMag.i:2:unsigned:0:0:noq\n"

    def test_unsigned_member_publishes_full_range(self):
        cfg = parse_config(self.UNSIGNED_16 + "channel = const dc=40000\n")
        provide = sample_provider(cfg.channels, cfg.points_per_period)
        ticks = frame_ticks(build_template(cfg), cfg.schema, provide,
                            cfg.samples_per_second, 0,
                            lambda _: UtcTimestamp().to_octets())
        frame = decode_frame(bytes(next(ticks)), DecodeMode.STRICT)
        assert frame.apdu.asdus[0].seq_data == bytes.fromhex("9c40")

    def test_unsigned_member_rejects_negative_before_first_tick(self):
        cfg = parse_config(self.UNSIGNED_16 + "channel = const dc=-5\n")
        with pytest.raises(Overflow):
            sample_provider(cfg.channels, cfg.points_per_period)


class TestValidation:
    def test_points_per_period_checked(self):
        with pytest.raises(UnsupportedRate):
            sample_at(_const(), 0, 100)

    def test_quantisation_overflow_propagates(self):
        spec = ChannelSpec(_member(width=2), kind=WaveKind.CONSTANT,
                           dc_offset=1e9)
        with pytest.raises(Overflow):
            sample_at(spec, 0, 80)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(_member(), amplitude=-1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(_member(), noise_sigma=-0.5)


class TestProvider:
    def test_yields_one_pair_per_channel(self):
        channels = [_sine(), _const(5.0)]
        provide = sample_provider(channels, 80, seed=3)
        values = provide(20)
        assert len(values) == 2
        assert values[0][0] == 10_000
        assert values[1][0] == 5

    def test_deterministic(self):
        channels = [_noise(2.0, -3)]
        a = sample_provider(channels, 80, seed=11)
        b = sample_provider(channels, 80, seed=11)
        assert [a(t) for t in range(100)] == [b(t) for t in range(100)]
