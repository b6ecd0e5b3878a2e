import hashlib
import math
import statistics
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import reference_noise_raw
from svlite.codec import DecodeMode, decode_frame, \
    pack_seq_data, unpack_seq_data
from svlite.config import build_template, parse_config
from svlite.errors import Overflow, UnsupportedRate
from svlite.model import DatasetSchema, Quality, SchemaMember, Validity, \
    to_engineering
from svlite.sources import ChannelSpec, WaveKind, _normal_source, \
    _sampler, sample_provider
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
    """Validity on the wire of ``spec`` over a member that carries quality."""
    spec = replace(spec, member=replace(spec.member, include_quality=True))
    schema = DatasetSchema([spec.member])
    provide = sample_provider([spec], 80)
    return [unpack_seq_data(provide(t), schema)[0][1].validity
            for t in range(ticks)]


class TestSine:
    def test_tick_zero_is_zero(self):
        assert _sampler(_sine(), 80, 0)(0) == 0

    def test_quarter_period_hits_amplitude(self):
        raw = _sampler(_sine(), 80, 0)(20)
        assert raw == 10_000
        assert to_engineering(raw, -2) == Decimal("100.00")

    def test_three_quarter_period(self):
        assert _sampler(_sine(), 80, 0)(60) == -10_000

    def test_phase_shift(self):
        shifted = _sine(phase_rad=math.pi / 2)
        assert _sampler(shifted, 80, 0)(0) == 10_000

    def test_dc_offset(self):
        spec = _sine(dc_offset=50.0)
        assert _sampler(spec, 80, 0)(0) == 5000

    def test_mean_over_one_period(self):
        spec = _sine(dc_offset=7.5)
        total = sum(
            to_engineering(_sampler(spec, 80, 0)(tick), -2)
            for tick in range(80))
        quantisation_bound = Decimal(80) * Decimal(10) ** -2 / 2
        assert abs(total - Decimal("600.0")) <= quantisation_bound


class TestConstant:
    def test_fixed_raw_at_every_tick(self):
        spec = _const(22.5, scale_factor=-1)
        for tick in (0, 1, 17, 4000):
            assert _sampler(spec, 80, 0)(tick) == 225


class TestNoise:
    def test_deterministic_per_tick_and_seed(self):
        spec = _noise(3.0, -3)
        a = _sampler(spec, 80, 42)(123)
        b = _sampler(spec, 80, 42)(123)
        assert a == b

    def test_seed_changes_stream(self):
        spec = _noise(3.0, -3)
        a = [_sampler(spec, 80, 1)(t) for t in range(50)]
        b = [_sampler(spec, 80, 2)(t) for t in range(50)]
        assert a != b

    def test_distribution_sanity(self):
        spec = _noise(1.0, -4)
        values = [
            float(to_engineering(_sampler(spec, 80, 9)(t), -4))
            for t in range(2000)
        ]
        assert abs(statistics.fmean(values)) < 0.1
        assert 0.93 < statistics.pstdev(values) < 1.07

    def test_pinned_gauss_stream(self):
        """Every draw of three seeds over ticks 0..9999 and near 2**32 and
        2**62, bit for bit: a change to the keyed PCG shows up here."""
        ticks = [*range(10000), *(2 ** 32 + d for d in range(-3, 4)),
                 *(2 ** 62 + d for d in range(-3, 4))]
        digest = hashlib.sha256()
        for seed in (0, 1, 2 ** 63 - 1):
            normal = _normal_source(seed)
            for tick in ticks:
                digest.update(float.hex(normal(tick)).encode() + b"\n")
        assert digest.hexdigest() == (
            "5b1f0cff05d3d228c708957da90e7743e0ec361177e837ed87cee2e9a6475e6f")


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
                            lambda _: bytes(8))
        frame = decode_frame(bytes(next(ticks)), DecodeMode.STRICT)
        assert frame.apdu.asdus[0].seq_data == bytes.fromhex("9c40")

    def test_unsigned_member_rejects_negative_before_first_tick(self):
        cfg = parse_config(self.UNSIGNED_16 + "channel = const dc=-5\n")
        with pytest.raises(Overflow):
            sample_provider(cfg.channels, cfg.points_per_period)


class TestValidation:
    def test_points_per_period_checked(self):
        with pytest.raises(UnsupportedRate):
            sample_provider([_const()], 100)

    def test_quantisation_overflow_propagates(self):
        spec = ChannelSpec(_member(width=2), kind=WaveKind.CONSTANT,
                           dc_offset=1e9)
        with pytest.raises(Overflow):
            _sampler(spec, 80, 0)(0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(_member(), amplitude=-1.0)

    @pytest.mark.parametrize("field", [
        "amplitude", "phase_rad", "dc_offset", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChannelSpec(_member(), **{field: value})

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(_member(), noise_sigma=-0.5)


class TestProvider:
    def test_yields_seq_data_octets(self):
        channels = [_sine(), _const(5.0)]
        provide = sample_provider(channels, 80, seed=3)
        assert provide(20) == bytes.fromhex("00002710" "00000005")
        assert provide(100) == provide(20)  # one period later

    def test_deterministic(self):
        channels = [_noise(2.0, -3)]
        a = sample_provider(channels, 80, seed=11)
        b = sample_provider(channels, 80, seed=11)
        assert [a(t) for t in range(100)] == [b(t) for t in range(100)]

    @pytest.mark.parametrize("channels", [
        [], [_noise(1.0, 0)], [_const()], [_sine(), _noise(1.0, 0)]],
        ids=["none", "noise", "const", "sine-noise"])
    def test_unsupported_rate_raises_when_built(self, channels):
        with pytest.raises(UnsupportedRate):
            sample_provider(channels, 100)

    def test_noise_that_does_not_fit_raises_at_its_tick(self):
        spec = ChannelSpec(_member(width=2), kind=WaveKind.GAUSSIAN_NOISE,
                           dc_offset=32767.0, noise_sigma=1.0)
        provide = sample_provider([spec], 80)  # nothing is sampled yet
        with pytest.raises(Overflow):
            for tick in range(100):
                provide(tick)


def _member_strategy():
    return st.builds(
        lambda name, width, signed, scale_factor, quality: SchemaMember(
            name, width, signed=signed, scale_factor=scale_factor,
            include_quality=quality),
        st.sampled_from(["TCTR1.AmpSv.instMag.i", "TCTR1.AmpSv.q",
                         "VCVR1.VolSv.instMag.i"]),
        st.sampled_from([2, 4]), st.booleans(), st.sampled_from([0, -1]),
        st.booleans())


@st.composite
def _channels(draw):
    """A channel whose every sample fits its member: engineering values
    stay within 1000 + 1000 + 6.7 * 100 of the centre, times 10 at most."""
    member = draw(_member_strategy())
    centre = 0.0 if member.signed else 3000.0
    return ChannelSpec(
        member,
        kind=draw(st.sampled_from(list(WaveKind))),
        amplitude=draw(st.floats(0, 1000)),
        phase_rad=draw(st.floats(0, 6.3)),
        dc_offset=centre + draw(st.floats(-1000, 1000)),
        noise_sigma=draw(st.floats(0, 100)),
        invalid_every_nth=draw(st.one_of(
            st.sampled_from([0, 1]), st.integers(2, 300))),
    )


class TestProviderProperty:
    @settings(max_examples=60, deadline=None)
    @given(channels=st.lists(_channels(), max_size=5),
           points=st.sampled_from([80, 256]),
           seed=st.integers(0, 2**32),
           start=st.integers(0, 10**6))
    def test_matches_packing_each_sample(self, channels, points, seed, start):
        """Over three periods, every tick's octets are seqData packed from
        each channel's :func:`_sampler` and the invalid_every rule."""
        schema = DatasetSchema(c.member for c in channels)
        provide = sample_provider(channels, points, seed)
        invalid = Quality(validity=Validity.INVALID)
        for tick in range(start, start + 3 * points):
            expected = pack_seq_data([
                (_sampler(c, points, seed)(tick),
                 invalid if c.invalid_every_nth
                 and (tick + 1) % c.invalid_every_nth == 0 else Quality())
                for c in channels], schema)
            assert provide(tick) == expected


def _outcome(provide, tick):
    try:
        return provide(tick)
    except Overflow as exc:
        return f"Overflow: {exc}"


def _reference_outcome(spec, schema, seed, tick, lead):
    try:
        raw = reference_noise_raw(spec.member, spec.dc_offset,
                                  spec.noise_sigma, seed, tick)
    except Overflow as exc:
        return f"Overflow: {exc}"
    return pack_seq_data([*lead, raw], schema)


@st.composite
def _noise_specs(draw):
    """A noise channel over any member: spread over a few hundred raw
    steps of its scale, sigma 0 with dc on or an ulp beside a decimal tie
    at a scale of the float path (which falls back to Decimal near one),
    or sigma near the float limit, where ``dc + sigma * g`` overflows to
    inf on some ticks."""
    shape = draw(st.sampled_from(["spread", "tie", "huge"]))
    scale_factor = draw(st.integers(-22, 22) if shape == "tie"
                        else st.integers(-22, 22) | st.integers(-128, 127))
    member = SchemaMember(
        "TCTR1.AmpSv.instMag.i", draw(st.sampled_from([2, 4])),
        signed=draw(st.booleans()), scale_factor=scale_factor,
        offset=draw(st.integers(-1000, 1000)
                    | st.integers(-(2 ** 31), 2 ** 31 - 1)),
        include_quality=draw(st.booleans()))
    unit = 10.0 ** scale_factor
    if shape == "tie":
        k = draw(st.integers(-(10 ** 4), 10 ** 4))
        dc = draw(st.sampled_from([float(f"{k}.5e{scale_factor}"),
                                   float(f"{k}.5") * unit]))
        step = draw(st.sampled_from([0, 0, 1, -1]))
        if step:
            dc = math.nextafter(dc, step * math.inf)
        sigma = 0.0
    elif shape == "huge":
        dc = draw(st.floats(-1e308, 1e308))
        sigma = draw(st.floats(1e308, 1.79e308))
    else:
        dc = draw(st.floats(-(10 ** 5), 10 ** 5)) * unit
        sigma = draw(st.floats(0, 300)) * unit
    return ChannelSpec(member, kind=WaveKind.GAUSSIAN_NOISE, dc_offset=dc,
                       noise_sigma=sigma)


class TestNoiseParity:
    """The provider's compiled noise sampler against the PCG and Box-Muller
    written out step by step and ``from_engineering``. Examples per run
    come from the active hypothesis profile."""

    @settings(deadline=None)
    @given(spec=_noise_specs(),
           seed=st.integers(-(2 ** 70), -1) | st.just(0)
           | st.integers(1, 2 ** 64 - 1) | st.integers(2 ** 64, 2 ** 80),
           start=st.integers(0, 2 ** 63),
           points=st.sampled_from([80, 256]),
           lead=st.booleans())
    # Ticks 1, 2 and 5 reach inf; the others overflow the member.
    @example(spec=ChannelSpec(_member(), kind=WaveKind.GAUSSIAN_NOISE,
                              noise_sigma=1.79e308),
             seed=0, start=0, points=80, lead=False)
    @example(spec=ChannelSpec(_member(-2), kind=WaveKind.GAUSSIAN_NOISE,
                              dc_offset=0.545),  # 54.50000000000001 scaled
             seed=0, start=0, points=80, lead=True)
    def test_noise_parity_with_reference(self, spec, seed, start, points, lead):
        """Octets, or the Overflow and its message, at each of eight ticks;
        ``lead`` puts a constant channel first, so the noise packs at an
        offset."""
        channels = [_const(7.0)] * lead + [spec]
        schema = DatasetSchema(c.member for c in channels)
        provide = sample_provider(channels, points, seed)
        for tick in range(start, start + 8):
            assert _outcome(provide, tick) == _reference_outcome(
                spec, schema, seed, tick, [7] * lead)
