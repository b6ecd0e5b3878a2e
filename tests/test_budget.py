from fractions import Fraction

import pytest

from svlite.budget import OVERHEAD_UDP_IPV6, project_bitrate, sample_interval
from svlite.errors import UnsupportedRate


class TestProjectBitrate:
    def test_headline_figures(self):
        report = project_bitrate(84, 50, 80, 30_000_000)
        assert report.wire_octets == 126
        assert report.wire_octets * 8 == 1008
        assert report.samples_per_second == 4000
        assert report.bits_per_second == 4_032_000
        assert report.fits is True
        assert report.margin_bps == 25_968_000

    def test_own_frame_size(self):
        report = project_bitrate(86, 50, 80, 30_000_000)
        assert report.wire_octets == 128
        assert report.bits_per_second == 4_096_000
        assert report.fits is True

    def test_unsupported_points(self):
        with pytest.raises(UnsupportedRate):
            project_bitrate(84, 50, 96, 30_000_000)

    def test_256_points(self):
        report = project_bitrate(84, 50, 256, 30_000_000)
        assert report.samples_per_second == 12_800
        assert report.bits_per_second == 126 * 8 * 12_800

    def test_over_capacity(self):
        report = project_bitrate(84, 50, 80, 4_000_000)
        assert report.fits is False
        assert report.margin_bps == -32_000

    def test_exact_capacity_fits(self):
        report = project_bitrate(84, 50, 80, 4_032_000)
        assert report.fits is True
        assert report.margin_bps == 0

    def test_ipv6_overhead(self):
        report = project_bitrate(84, 50, 80,
                                 30_000_000, overhead_octets=OVERHEAD_UDP_IPV6)
        assert report.wire_octets == 84 + 62

    def test_monotonic_in_payload(self):
        rates = [project_bitrate(p, 50, 80, 30_000_000).bits_per_second
                 for p in range(60, 200, 7)]
        assert rates == sorted(rates) and len(set(rates)) == len(rates)

    def test_monotonic_in_points(self):
        slow = project_bitrate(84, 50, 80, 30_000_000).bits_per_second
        fast = project_bitrate(84, 50, 256, 30_000_000).bits_per_second
        assert fast > slow

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            project_bitrate(84, 0, 80, 30_000_000)

    @pytest.mark.parametrize("payload", [0, -5])
    def test_rejects_payload_below_one_octet(self, payload):
        with pytest.raises(ValueError, match="payload"):
            project_bitrate(payload, 50, 80, 30_000_000)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError, match="overhead"):
            project_bitrate(84, 50, 80, 30_000_000, overhead_octets=-1000)

    def test_zero_overhead_and_one_octet_payload_are_valid(self):
        report = project_bitrate(1, 50, 80, 30_000_000, overhead_octets=0)
        assert report.wire_octets == 1 and report.bits_per_second == 32_000


class TestSampleInterval:
    def test_250_microseconds(self):
        assert sample_interval(50, 80) == Fraction(250, 1_000_000)

    def test_78_125_microseconds(self):
        assert sample_interval(50, 256) == Fraction(78_125, 10 ** 9)

    def test_60_hz(self):
        assert sample_interval(60, 80) == Fraction(1, 4800)

    def test_interval_times_rate_is_one(self):
        for hz in (50, 60):
            for points in (80, 256):
                assert sample_interval(hz, points) * (hz * points) == 1

    def test_unsupported_points(self):
        with pytest.raises(UnsupportedRate):
            sample_interval(50, 100)
