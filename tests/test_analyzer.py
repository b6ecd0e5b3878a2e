import contextlib
import copy
import gc
import math
import random
import tracemalloc
from dataclasses import replace
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import GOLDEN_SCHEMA, golden_frame, plan_offsets, \
    random_valid_frame, reference_judge, reference_sequence
from svlite import analyzer as analyzer_module, codec
from svlite.analyzer import StreamAnalyzer, format_link_stats
from svlite.cli import simulate
from svlite.codec import FramePlan, UtcTimestamp, encode_frame, pack_seq_data, \
    seq_data_values
from svlite.config import parse_config
from svlite.errors import SchemaMismatch
from svlite.model import DatasetSchema, Quality, SchemaMember, Validity
from svlite.netsim import Channel, LinkSpec

QUALITY_SCHEMA = DatasetSchema([
    SchemaMember("TMGF1.MagFld.instMag.i", 4, include_quality=True)])


def make_wire(smp_cnt, schema=GOLDEN_SCHEMA, values=None):
    frame = golden_frame()
    asdu = frame.apdu.asdus[0]
    asdu.smp_cnt = smp_cnt
    if values is not None:
        asdu.seq_data = pack_seq_data(values, schema)
    return encode_frame(frame, schema)


def feed(analyzer, smp_cnts, interval=250e-6):
    for index, smp_cnt in enumerate(smp_cnts):
        analyzer.ingest(make_wire(smp_cnt), index * interval)


def accepted_values(analyzer) -> list:
    """The analyzer's accepted records as the values the reference judge
    builds: each record's fields through ``seq_data_values``."""
    return [seq_data_values(fields, analyzer.schema) for fields in analyzer.accepted]


class TestGapAccounting:
    def test_fresh_state_all_zero(self):
        stats = StreamAnalyzer(4000, GOLDEN_SCHEMA).report()
        assert (stats.received, stats.lost, stats.out_of_order,
                stats.quality_discarded, stats.decode_failures) == (0,) * 5
        assert stats.loss_rate == 0.0

    def test_in_order_run(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, range(100))
        stats = analyzer.report()
        assert stats.received == 100
        assert stats.lost == 0

    def test_single_gap(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [0, 1, 2, 4])
        assert analyzer.report().lost == 1

    def test_wide_gap_counts_every_frame(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [0, 100])
        assert analyzer.report().lost == 99

    def test_wrap_is_not_loss(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [3998, 3999, 0, 1])
        stats = analyzer.report()
        assert stats.lost == 0
        assert stats.received == 4

    def test_gap_across_wrap(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [3999, 2])
        assert analyzer.report().lost == 2

    def test_duplicate_is_out_of_order_not_loss(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [5, 5])
        stats = analyzer.report()
        assert stats.out_of_order == 1
        assert stats.lost == 0

    def test_backward_step(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [5, 6, 4])
        stats = analyzer.report()
        assert stats.out_of_order == 1
        assert stats.lost == 0

    def test_reordered_frame_does_not_reset_expectation(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [0, 2, 1, 3])
        stats = analyzer.report()
        assert stats.lost == 1     # the jump 0 -> 2
        assert stats.out_of_order == 1
        assert stats.received == 4

    def test_first_frame_sets_baseline(self):
        """A lone first datagram is in order and has no inter-arrival
        delta; the next in-order one loses none."""
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        analyzer.ingest(make_wire(1234), 7.25)
        stats = analyzer.report()
        assert (stats.received, stats.lost, stats.out_of_order,
                stats.inter_arrival_mean, stats.inter_arrival_stddev) \
            == (1, 0, 0, 0.0, 0.0)
        analyzer.ingest(make_wire(1235), 7.5)
        assert (analyzer.lost, analyzer.out_of_order) == (0, 0)

    def test_counters_monotonic(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        previous = (0, 0, 0)
        for smp_cnt in [0, 1, 5, 3, 9, 9, 10, 2, 20]:
            analyzer.ingest(make_wire(smp_cnt), 0.0)
            stats = analyzer.report()
            current = (stats.received, stats.lost, stats.out_of_order)
            assert all(c >= p for c, p in zip(current, previous))
            previous = current


class TestDecodeFailures:
    def test_garbage_counts_only_decode_failures(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        analyzer.ingest(b"\x00\x01garbage", 0.0)
        stats = analyzer.report()
        assert stats.decode_failures == 1
        assert stats.received == 0

    def test_corrupt_frame_does_not_advance_expectation(self):
        """Junk between two datagrams, or before the first, changes only
        the decode failures: its arrival is no inter-arrival sample."""
        for datagrams in ([make_wire(0), b"junk", make_wire(1)],
                          [b"junk", make_wire(0), make_wire(1)]):
            analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
            for datagram, arrival in zip(datagrams, (0.0, 1e-4, 3e-4)):
                analyzer.ingest(datagram, arrival)
            stats = analyzer.report()
            assert stats.lost == 0
            assert stats.decode_failures == 1
            assert stats.received == 2
            assert stats.inter_arrival_stddev == 0.0

    def test_wrong_seq_data_width_counts_decode_failure(self):
        analyzer = StreamAnalyzer(4000, QUALITY_SCHEMA)
        analyzer.ingest(make_wire(0), 0.0)  # golden schema payload, 14 octets
        stats = analyzer.report()
        assert stats.received == 1
        assert stats.decode_failures == 1
        assert len(analyzer.accepted) == 0

    def test_multi_asdu_datagrams_are_decode_failures(self, monkeypatch):
        """The profile's frame carries one ASDU. A lossless stream of
        three-ASDU datagrams is neither received nor sequenced, teaches no
        plan, and leaves the first one-ASDU datagram to set the baseline."""
        plans = _count_calls(monkeypatch, "FramePlan")
        datagrams = [multi_asdu_wire(GOLDEN_SCHEMA, [bytes(14)] * 3, 3 * index)
                     for index in range(300)]
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        for index, datagram in enumerate(datagrams):
            analyzer.ingest(datagram, index * 750e-6)
        stats = analyzer.report()
        assert (stats.received, stats.lost, stats.decode_failures,
                len(analyzer.accepted)) == (0, 0, 300, 0)
        assert plans == []
        analyzer.ingest(make_wire(2000), 1.0)
        stats = analyzer.report()
        assert (stats.received, stats.lost, stats.inter_arrival_mean) == (1, 0, 0.0)


class TestQualityPolicy:
    def test_invalid_member_discards_record(self):
        analyzer = StreamAnalyzer(4000, QUALITY_SCHEMA)
        bad = [(7, Quality(validity=Validity.INVALID))]
        analyzer.ingest(make_wire(0, QUALITY_SCHEMA, bad), 0.0)
        stats = analyzer.report()
        assert stats.quality_discarded == 1
        assert analyzer.accepted == []

    def test_questionable_is_also_discarded(self):
        analyzer = StreamAnalyzer(4000, QUALITY_SCHEMA)
        dubious = [(7, Quality(validity=Validity.QUESTIONABLE))]
        analyzer.ingest(make_wire(0, QUALITY_SCHEMA, dubious), 0.0)
        assert analyzer.report().quality_discarded == 1

    def test_good_record_accepted(self):
        analyzer = StreamAnalyzer(4000, QUALITY_SCHEMA)
        analyzer.ingest(make_wire(0, QUALITY_SCHEMA, [(7, Quality())]), 0.0)
        stats = analyzer.report()
        assert stats.quality_discarded == 0
        assert accepted_values(analyzer) == [[(7, Quality())]]

    def test_undefined_validity_is_a_decode_failure(self):
        analyzer = StreamAnalyzer(4000, QUALITY_SCHEMA)
        wire = bytearray(make_wire(0, QUALITY_SCHEMA, [(7, Quality())]))
        wire[-1] = 0x03  # the quality word ends the frame: validity 0b11
        analyzer.ingest(bytes(wire), 0.0)
        stats = analyzer.report()
        assert (stats.received, stats.decode_failures,
                stats.quality_discarded) == (1, 1, 0)
        assert analyzer.accepted == []

    def test_members_without_quality_always_accepted(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, range(10))
        assert len(analyzer.accepted) == 10


class TestLossRate:
    def test_rate_formula(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [0, 2, 4, 6])  # 3 gaps of 1
        stats = analyzer.report()
        assert stats.loss_rate == pytest.approx(3 / 7)

    def test_against_channel_ground_truth(self):
        channel = Channel(LinkSpec(loss_probability=0.05, seed=7))
        sent = 10_000
        interval = 250e-6
        for tick in range(sent):
            channel.transmit(make_wire(tick % 4000), tick * interval)
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        for at, payload in channel.drain():
            analyzer.ingest(payload, at)
        stats = analyzer.report()
        assert stats.received + stats.lost == sent
        assert stats.lost == channel.lost


class TestInterArrival:
    def test_constant_cadence(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, range(5), interval=250e-6)
        stats = analyzer.report()
        assert stats.inter_arrival_mean == pytest.approx(250e-6)
        assert stats.inter_arrival_stddev == pytest.approx(0.0, abs=1e-12)

    def test_variable_cadence(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        arrivals = [0.0, 1.0, 3.0]  # deltas 1 and 2
        for index, at in enumerate(arrivals):
            analyzer.ingest(make_wire(index), at)
        stats = analyzer.report()
        assert stats.inter_arrival_mean == pytest.approx(1.5)
        assert stats.inter_arrival_stddev == pytest.approx(0.5)


class TestReport:
    def test_idempotent(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, [0, 1, 3])
        assert analyzer.report() == analyzer.report()

    def test_format_is_aligned_key_value(self):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, range(3))
        text = format_link_stats(analyzer.report())
        lines = text.splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("received")
        value_columns = set()
        for line in lines:
            key = line.split()[0]
            rest = line[len(key):]
            value_columns.add(len(key) + len(rest) - len(rest.lstrip()))
        assert len(value_columns) == 1

    def test_requires_sane_modulus(self):
        with pytest.raises(ValueError):
            StreamAnalyzer(1, GOLDEN_SCHEMA)

    def test_modulus_fits_16_bit_smp_cnt(self):
        assert StreamAnalyzer(0x10000, GOLDEN_SCHEMA).wrap_modulus == 0x10000
        with pytest.raises(ValueError, match="65536"):
            StreamAnalyzer(0x10001, GOLDEN_SCHEMA)


def _varied_stream(seed: int) -> tuple:
    """Datagrams of one ``random_valid_frame`` layout with smpCnt, refrTm
    and seqData varied, mixed with mutated copies: bit flips anywhere,
    truncations, quality validity 0b11 and another svID."""
    rng = random.Random(seed)
    frame, schema = random_valid_frame(rng)
    quality_ends = []  # seqData offset just past each quality word
    cursor = 0
    for member in schema:
        cursor += member.packed_width
        if member.include_quality:
            quality_ends.append(cursor)
    counter = rng.randrange(0x10000)
    datagrams = []
    for index in range(80):
        counter = (counter + rng.choice((1, 1, 1, 2, 5, -1, 3000))) % 0x10000
        varied = copy.deepcopy(frame)
        for offset, asdu in enumerate(varied.apdu.asdus):
            asdu.smp_cnt = (counter + offset) % 0x10000
            asdu.refr_tm = UtcTimestamp(rng.randrange(1 << 32),
                                        rng.randrange(1 << 24), rng.randrange(256))
            asdu.seq_data = rng.randbytes(schema.packed_width)
            for end in quality_ends:  # mostly valid quality, any high octet
                if rng.random() < 0.8:
                    word = bytearray(asdu.seq_data)
                    word[end - 1] &= rng.choice((0x00, 0x01, 0x02, 0x04, 0xf6))
                    asdu.seq_data = bytes(word)
        wire = bytearray(encode_frame(varied, schema))
        kind = rng.random() if index else 1.0  # the plan is learned first
        if kind < 0.1:
            wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        elif kind < 0.15:
            del wire[rng.randrange(len(wire)):]
        elif kind < 0.2 and quality_ends:
            seq_start = plan_offsets(FramePlan(wire))[0][2]
            wire[seq_start + rng.choice(quality_ends) - 1] |= 0x03
        elif kind < 0.25:
            varied.apdu.asdus[0].sv_id += "x"
            wire = bytearray(encode_frame(varied, schema))
        datagrams.append(bytes(wire))
    return schema, datagrams


def _ingested(schema, datagrams, times=None) -> StreamAnalyzer:
    """An analyzer fed ``datagrams``, arriving at ``times`` or 250 us
    apart."""
    if times is None:
        times = [index * 250e-6 for index in range(len(datagrams))]
    analyzer = StreamAnalyzer(4000, schema)
    for datagram, arrival in zip(datagrams, times, strict=True):
        analyzer.ingest(datagram, arrival)
    return analyzer


def _state(schema, datagrams, times=None):
    """The report, decode failures and accepted values of an analyzer fed
    as :func:`_ingested` feeds it."""
    analyzer = _ingested(schema, datagrams, times)
    return analyzer.report(), analyzer.decode_failures, accepted_values(analyzer)


class UnmatchedPlan(FramePlan):
    """A plan whose fixed octets no datagram unpacks to."""

    def __init__(self, wire):
        super().__init__(wire)
        self.fixed_octets = None


@contextlib.contextmanager
def forced_decoding():
    """The analyzer decodes every datagram: its planned-branch check
    compares with an :class:`UnmatchedPlan`'s fixed octets. Yields the
    arguments of each ``decode_frame`` call."""
    calls = []
    decode = analyzer_module.decode_frame

    def counting(*args):
        calls.append(args)
        return decode(*args)

    with mock.patch.object(analyzer_module, "FramePlan", UnmatchedPlan), \
            mock.patch.object(analyzer_module, "decode_frame", counting):
        yield calls


def _forced_state(schema, datagrams, times=None):
    """:func:`_state` with every datagram decoded, once."""
    with forced_decoding() as calls:
        state = _state(schema, datagrams, times)
    assert len(calls) == len(datagrams)
    return state


def _count_calls(monkeypatch, name):
    """Arguments of every call the analyzer makes to its ``name``."""
    calls = []
    function = getattr(analyzer_module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(analyzer_module, name, counting)
    return calls


@pytest.fixture
def decode_calls(monkeypatch):
    return _count_calls(monkeypatch, "decode_frame")


@pytest.fixture
def unpack_calls(monkeypatch):
    return _count_calls(monkeypatch, "unpack_seq_data")


# Two members with a quality word around one without, so that the words
# sit at uneven field indices.
MIXED_SCHEMA = DatasetSchema([
    SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True),
    SchemaMember("TCTR1.AmpSv.instMag.n", 2, signed=False),
    SchemaMember("VCVR1.VolSv.instMag.i", 2, include_quality=True),
])

# Low quality octets: good, good with test set or high bits, invalid,
# questionable, and the undefined validity 0b11.
QUALITY_OCTETS = (0x00, 0x04, 0xf0, 0x01, 0x02, 0x03, 0x07)


def multi_asdu_wire(schema, seq_data, smp_cnt=0):
    """The golden frame's header and ASDU fields, one ASDU per seqData."""
    frame = golden_frame()
    first = frame.apdu.asdus[0]
    frame.apdu.asdus = [replace(first, smp_cnt=(smp_cnt + i) % 0x10000,
                                seq_data=octets)
                        for i, octets in enumerate(seq_data)]
    return encode_frame(frame, schema)


def mixed_seq_data(rng, words):
    """One MIXED_SCHEMA seqData of random values with the two quality
    words' low octets set to ``words``."""
    octets = bytearray(rng.randbytes(MIXED_SCHEMA.packed_width))
    octets[5], octets[11] = words
    return bytes(octets)


def off_layout_wire(smp_cnt, values, long_form):
    """``make_wire``'s golden datagram with its ASDU laid out as the
    encoder never writes it, which strict decoding reads as the same
    frame: smpCnt moved in front of svID, or seqData's length in the long
    form 0x81 with every enclosing length one more."""
    wire = make_wire(smp_cnt, GOLDEN_SCHEMA, values)
    if not long_form:  # svID 35..47, smpCnt 47..51
        return wire[:35] + wire[47:51] + wire[35:47] + wire[51:]
    grown = bytearray(wire[:71] + b"\x81" + wire[71:])  # seqData's tag at 70
    for at in (21, 27, 32, 34):  # Length's low octet, savPdu, seqASDU, ASDU
        grown[at] += 1
    return bytes(grown)


def planned_stream(seed, frames=60, asdus=1):
    """MIXED_SCHEMA datagrams of ``asdus`` ASDUs with every pairing of
    quality octets, each datagram of the first one's layout."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in QUALITY_OCTETS for b in QUALITY_OCTETS]
    datagrams = [multi_asdu_wire(MIXED_SCHEMA,
                                 [mixed_seq_data(rng, (0, 0))] * asdus)]
    for index in range(1, frames):
        seq_data = [mixed_seq_data(rng, rng.choice(pairs)) for _ in range(asdus)]
        datagrams.append(multi_asdu_wire(MIXED_SCHEMA, seq_data, asdus * index))
    return datagrams


FAST_PATH_SEEDS = range(40)

# Each seed's stream, then three edge inputs of the planned branch, each
# with the plain inputs it must report as.
FAST_PATH_CASES = [*(pytest.param(seed, None, id=str(seed))
                     for seed in FAST_PATH_SEEDS),
                   pytest.param(0, "integer arrival times",
                                id="fast_path_integer_arrival_times"),
                   pytest.param(0, "smpCnt at or above the wrap",
                                id="fast_path_smp_cnt_at_or_above_wrap"),
                   pytest.param(0, "a layout the encoder never writes",
                                id="fast_path_layout_the_encoder_never_writes")]


def _fast_path_case(seed, edge):
    """``(schema, datagrams, times)`` of a case, and for an edge case the
    ``(datagrams, times)`` that must leave the same state: float times for
    integer ones, each wire smpCnt reduced below the 4000 wrap, and the
    encoder's layout of each datagram that ``FramePlan`` refuses."""
    rng = random.Random(seed)
    if edge == "a layout the encoder never writes":
        counts = accumulate((rng.choice((1, 1, 2, -1, 7)) for _ in range(40)),
                            initial=100)
        records = [(count, [rng.randrange(-2 ** 15, 2 ** 15) for _ in range(4)])
                   for count in counts]
        return (GOLDEN_SCHEMA, [off_layout_wire(*record, rng.random() < 0.5)
                                for record in records], None,
                ([make_wire(count, GOLDEN_SCHEMA, values)
                  for count, values in records], None))
    if edge == "smpCnt at or above the wrap":
        counts = [4000, 4001, 7999, 8000, 8003, 65535, 65535, 65534, 61999, 62000]
        counts += [rng.randrange(4000, 0x10000) for _ in range(30)]
        return (GOLDEN_SCHEMA, [make_wire(count) for count in counts], None,
                ([make_wire(count % 4000) for count in counts], None))
    schema, datagrams = _varied_stream(seed)
    if edge is None:
        return schema, datagrams, None, None
    # Past 2**53, where an odd integer has no float of its own.
    times = list(accumulate((rng.choice((0, 1, 1, 2, 7)) for _ in datagrams),
                            initial=2 ** 53))[1:]
    return schema, datagrams, times, (datagrams, list(map(float, times)))


def _planned(datagrams):
    """Whether the stream's first datagram, where its plan is learned, has
    a plan of one ASDU."""
    try:
        return len(FramePlan(datagrams[0]).slots) == 1
    except SchemaMismatch:  # laid out as the encoder never writes it
        return False


class TestFramePlanFastPath:
    """Datagrams read at the learned plan's offsets leave the analyzer in
    the same state as a lenient decode of every datagram, and the records
    of both are judged as the reference judge does. Only a one-ASDU
    datagram yields a record; one of any other ASDU count is decoded and
    fails, and one that ``FramePlan`` refuses is decoded and judged. Both
    branches share one record judge and one sequencing tail, so this
    parity checks how a plan is read; ``reference_sequence`` checks the
    sequencing, in ``test_sequencing_parity_with_reference``."""

    def test_seeds_cover_schemas_with_and_without_quality(self):
        """Both sides of the analyzer's quality scan run below."""
        assert {any(member.include_quality for member in _varied_stream(seed)[0])
                for seed in FAST_PATH_SEEDS} == {False, True}

    def test_seeds_cover_single_and_multi_asdu_streams(self):
        """Both one-ASDU streams, which a plan reads, and multi-ASDU ones,
        whose every datagram is decoded and fails, run below."""
        assert {_planned(_varied_stream(seed)[1])
                for seed in FAST_PATH_SEEDS} == {False, True}

    @pytest.mark.parametrize("seed, edge", FAST_PATH_CASES)
    def test_same_state_as_decoding_every_datagram(self, seed, edge, decode_calls,
                                                   unpack_calls):
        schema, datagrams, times, plain = _fast_path_case(seed, edge)
        fast = _state(schema, datagrams, times)
        if _planned(datagrams):
            assert len(decode_calls) < len(datagrams) / 2  # the fast path ran
        else:
            assert len(decode_calls) == len(datagrams)  # never planned
        stats, decode_failures, accepted = fast
        assert (decode_failures, stats.quality_discarded, accepted) \
            == reference_judge(schema, datagrams)
        assert fast == _forced_state(schema, datagrams, times)
        assert unpack_calls == []
        if plain is not None:
            assert fast == _state(schema, *plain)

    def test_wrong_width_stream_fails_every_asdu_on_both_paths(
            self, decode_calls):
        datagrams = [make_wire(smp_cnt) for smp_cnt in range(50)]
        fast = _state(QUALITY_SCHEMA, datagrams)  # 14 octets against 6
        assert len(decode_calls) == 50  # a plan of another width is not read
        stats, decode_failures, accepted = fast
        assert (stats.received, decode_failures, accepted) == (50, 50, [])
        assert fast == _forced_state(QUALITY_SCHEMA, datagrams)

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_asdu_quality_words(self, seed):
        """The quality words of three-ASDU datagrams are never judged: each
        datagram is one decode failure. The same pairings one ASDU a
        datagram, each decoded leniently, are judged as by the reference
        judge and as on the planned branch."""
        stats, decode_failures, accepted = _state(
            MIXED_SCHEMA, planned_stream(seed, asdus=3))
        assert (stats.received, decode_failures, stats.quality_discarded,
                len(accepted)) == (0, 60, 0, 0)
        datagrams = planned_stream(seed)
        decoded = _forced_state(MIXED_SCHEMA, datagrams)
        stats, decode_failures, accepted = decoded
        assert stats.received == len(datagrams)
        assert decode_failures and stats.quality_discarded and accepted
        assert decode_failures + stats.quality_discarded + len(accepted) \
            == len(datagrams)
        assert all(quality.validity == Validity.GOOD
                   for record in accepted for _, quality in record[::2])
        assert (decode_failures, stats.quality_discarded, accepted) \
            == reference_judge(MIXED_SCHEMA, datagrams)
        assert decoded == _state(MIXED_SCHEMA, datagrams)

    def test_undefined_validity_fails_only_its_asdu(self):
        """An undefined validity fails its record; the datagram is still
        received and sequenced, on either branch."""
        rng = random.Random(5)
        good = mixed_seq_data(rng, (0x04, 0x00))
        undefined = mixed_seq_data(rng, (0x01, 0x03))
        datagrams = [multi_asdu_wire(MIXED_SCHEMA, [octets], smp_cnt)
                     for smp_cnt, octets in enumerate((good, undefined, good))]
        decoded = _forced_state(MIXED_SCHEMA, datagrams)
        stats, decode_failures, accepted = decoded
        assert (stats.received, stats.lost, decode_failures,
                stats.quality_discarded, len(accepted)) == (3, 0, 1, 0, 2)
        assert accepted[-1][0][1] == Quality(test=True)
        assert decoded == _state(MIXED_SCHEMA, datagrams)

    def test_invalid_every_channels_on_the_plan(self, decode_calls):
        cfg = parse_config("\n".join((
            "points_per_period = 256",
            "member = TCTR1.AmpSv.instMag.i:4:signed:-3:0:q",
            "member = TCTR1.AmpSv.instMag.n:2:signed:-1:0:noq",
            "member = VCVR1.VolSv.instMag.i:4:signed:-2:0:q",
            "channel = sine amp=120.5 phase=0.3 invalid_every=7",
            "channel = noise dc=1.5 sigma=2.0",
            "channel = const dc=12.3 invalid_every=5",
        )))
        link = LinkSpec(loss_probability=0.05, jitter=5e-5,
                        reorder_probability=0.02, seed=3)
        fast, channel = simulate(cfg, link, 3000, 3)
        assert len(decode_calls) == 1
        assert fast.quality_discarded > 0 and fast.received == channel.delivered
        with forced_decoding() as calls:
            slow, _ = simulate(cfg, link, 3000, 3)
        assert len(calls) == channel.delivered
        assert (fast.report(), fast.decode_failures, fast.accepted) \
            == (slow.report(), slow.decode_failures, slow.accepted)

    def test_planned_datagrams_call_neither_decoder(self, decode_calls,
                                                    unpack_calls):
        datagrams = planned_stream(7)
        analyzer = StreamAnalyzer(4000, MIXED_SCHEMA)
        analyzer.ingest(datagrams[0], 0.0)
        assert (len(decode_calls), len(unpack_calls)) == (1, 0)
        for index, datagram in enumerate(datagrams[1:], 1):
            analyzer.ingest(datagram, index * 250e-6)
        assert (len(decode_calls), len(unpack_calls)) == (1, 0)
        stats = analyzer.report()
        assert stats.received == len(datagrams)
        assert (stats.decode_failures, stats.quality_discarded,
                accepted_values(analyzer)) == reference_judge(MIXED_SCHEMA, datagrams)

    def test_clean_stream_decodes_once(self, decode_calls):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        feed(analyzer, range(100))
        assert len(decode_calls) == 1
        assert analyzer.report().received == 100
        assert len(analyzer.accepted) == 100

    def test_warning_frame_teaches_no_plan(self, decode_calls):
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        sloppy = bytearray(make_wire(0))
        sloppy[20:22] = (92).to_bytes(2, "big")  # Length field warning
        analyzer.ingest(bytes(sloppy), 0.0)
        feed(analyzer, range(1, 4))
        assert len(decode_calls) == 2  # the sloppy frame, then the plan's source
        assert analyzer.report().received == 4

    def test_fast_path_relearns_after_a_foreign_first_datagram(self, decode_calls):
        """A plan learned from another stream's datagram, one with a longer
        svID, is learned again from the real stream."""
        rng = random.Random(3)
        foreign = golden_frame()
        foreign.apdu.asdus[0].sv_id += "x"
        datagrams = [encode_frame(foreign, GOLDEN_SCHEMA)] + [
            make_wire(smp_cnt, GOLDEN_SCHEMA,
                      [rng.randrange(-2 ** 15, 2 ** 15) for _ in range(4)])
            for smp_cnt in range(1, 80)]
        fast = _state(GOLDEN_SCHEMA, datagrams)
        assert len(decode_calls) <= 3
        assert fast[0].received == 80 and len(fast[2]) == 80
        assert fast == _forced_state(GOLDEN_SCHEMA, datagrams)

    def test_fast_path_alternating_streams_build_at_most_two_plans(
            self, decode_calls, monkeypatch):
        """Two interleaved clean streams: the plan is learned again at most
        once, so the analyzer does not rebuild it datagram by datagram."""
        plans = []

        class CountedPlan(FramePlan):
            def __init__(self, wire):
                plans.append(wire)
                super().__init__(wire)

        monkeypatch.setattr(analyzer_module, "FramePlan", CountedPlan)
        other = golden_frame()
        other.apdu.asdus[0].sv_id = "other"
        datagrams = []
        for smp_cnt in range(40):
            other.apdu.asdus[0].smp_cnt = smp_cnt
            datagrams += [make_wire(smp_cnt), encode_frame(other, GOLDEN_SCHEMA)]
        fast = _state(GOLDEN_SCHEMA, datagrams)
        assert len(plans) <= 2
        assert len(decode_calls) < len(datagrams)
        assert fast == _forced_state(GOLDEN_SCHEMA, datagrams)


def test_accepted_record_retains_under_300_bytes():
    """A record of three members, each with its quality word and a raw
    value mostly outside the small-int cache, is kept as its struct fields
    (about 190 bytes under tracemalloc on CPython 3.11), not a list of
    ``(raw, Quality)`` pairs (about 360)."""
    cfg = parse_config("\n".join((
        "points_per_period = 256",
        "member = TCTR1.AmpSv.instMag.i:4:signed:-3:0:q",
        "member = TCTR1.AmpSv.instMag.n:4:signed:-3:0:q",
        "member = VCVR1.VolSv.instMag.c:2:signed:-3:0:q",
        "channel = sine amp=120.5 phase=0.3",
        "channel = noise dc=1.5 sigma=2.0",
        "channel = const dc=12.3",
    )))
    link = LinkSpec(loss_probability=0.01, seed=5)
    simulate(cfg, link, 100, 5)  # first-use caches are not records
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        analyzer, _ = simulate(cfg, link, 5000, 5)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(analyzer.accepted) > 4900
    assert retained / len(analyzer.accepted) <= 300


@st.composite
def planned_datagrams(draw):
    """A random schema and ASDU count, and datagrams of that layout with
    drawn quality octets, some with a bit flipped in seqData, smpCnt or a
    fixed octet. Other seqData octets and smpCnt come from a drawn seed."""
    members = draw(st.lists(st.tuples(st.sampled_from((2, 4)), st.booleans(),
                                      st.booleans()), min_size=1, max_size=3))
    schema = DatasetSchema(
        SchemaMember(f"TCTR{index + 1}.AmpSv.instMag.i", width, signed=signed,
                     include_quality=quality)
        for index, (width, signed, quality) in enumerate(members))
    quality_octets, cursor = [], 0
    for member in schema:
        cursor += member.packed_width
        if member.include_quality:
            quality_octets.append(cursor - 1)
    asdu_count = draw(st.integers(1, 3))
    template = multi_asdu_wire(schema, [bytes(schema.packed_width)] * asdu_count)
    offsets = plan_offsets(FramePlan(template))
    changing = {at for smp_cnt, refr_tm, start, end in offsets
                for at in (smp_cnt, smp_cnt + 1, *range(refr_tm, refr_tm + 8),
                           *range(start, end))}
    fixed = [at for at in range(len(template)) if at not in changing]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    datagrams = []
    for _ in range(draw(st.integers(1, 6))):
        seq_data = []
        for _ in range(asdu_count):
            octets = bytearray(rng.randbytes(schema.packed_width))
            for at in quality_octets:
                octets[at] = draw(st.sampled_from(QUALITY_OCTETS))
            seq_data.append(bytes(octets))
        wire = bytearray(multi_asdu_wire(schema, seq_data, rng.randrange(0x10000)))
        smp_cnt, _, start, end = offsets[draw(st.integers(0, asdu_count - 1))]
        region = draw(st.sampled_from((None, range(start, end),
                                       range(smp_cnt, smp_cnt + 2), fixed)))
        if region is not None:
            wire[draw(st.sampled_from(region))] ^= 1 << draw(st.integers(0, 7))
        datagrams.append(bytes(wire))
    return schema, datagrams


@settings(deadline=None)
@given(planned_datagrams())
def test_fast_path_state_equals_decoding_every_datagram(stream):
    schema, datagrams = stream
    with mock.patch.object(codec, "seq_data_values",
                           wraps=codec.seq_data_values) as built:
        analyzer = _ingested(schema, datagrams)
    assert built.call_count == 0  # ingest keeps fields and builds no values
    assert all(type(fields) is tuple for fields in analyzer.accepted)
    fast = analyzer.report(), analyzer.decode_failures, accepted_values(analyzer)
    stats, decode_failures, accepted = fast
    assert (decode_failures, stats.quality_discarded, accepted) \
        == reference_judge(schema, datagrams)
    assert fast == _forced_state(schema, datagrams)


@st.composite
def sequenced_datagrams(draw):
    """A wrap, and datagrams with arrival times: the golden stream's, one
    of another svID (which misses its plan) and garbage. smpCnt steps by
    +1, +k, 0, -k or half the wrap and more, and a wire value may sit a
    multiple of the wrap above its own. Times are all integers or all
    floats, in arrival order."""
    # Small wraps often land a step on exactly half the wrap.
    wrap = draw(st.one_of(st.integers(2, 8), st.integers(2, 0x10000)))
    other = golden_frame()
    other.apdu.asdus[0].sv_id = "other"
    if draw(st.booleans()):
        clock, ticks = draw(st.integers(0, 2 ** 60)), st.integers(0, 10 ** 6)
    else:
        clock = draw(st.floats(0, 1e9))
        ticks = st.floats(0, 1e3, allow_nan=False, allow_infinity=False)
    counter = draw(st.integers(0, wrap - 1))
    datagrams, times = [], []
    for _ in range(draw(st.integers(1, 30))):
        counter = (counter + draw(st.one_of(
            st.just(1), st.just(0), st.integers(1, wrap),
            st.integers(-wrap, -1), st.integers(wrap // 2, wrap)))) % wrap
        smp_cnt = counter + wrap * draw(st.integers(0, (0xFFFF - counter) // wrap))
        kind = draw(st.sampled_from(("planned", "other", "garbage")))
        if kind == "planned":
            datagrams.append(make_wire(smp_cnt))
        elif kind == "other":
            other.apdu.asdus[0].smp_cnt = smp_cnt
            datagrams.append(encode_frame(other, GOLDEN_SCHEMA))
        else:
            datagrams.append(draw(st.binary(max_size=40)))
        clock += draw(ticks)
        times.append(clock)
    return wrap, datagrams, times


@settings(deadline=None)
@given(sequenced_datagrams())
def test_sequencing_parity_with_reference(stream):
    """The counters and inter-arrival statistics of both branches match
    the reference sequencing of each received datagram."""
    wrap, datagrams, times = stream
    analyzer = StreamAnalyzer(wrap, GOLDEN_SCHEMA)
    for datagram, arrival in zip(datagrams, times):
        analyzer.ingest(datagram, arrival)
    stats = analyzer.report()
    received, lost, out_of_order, mean, stddev = \
        reference_sequence(wrap, datagrams, times)
    assert (stats.received, stats.lost, stats.out_of_order) \
        == (received, lost, out_of_order)
    # Rounding is relative to the deltas, at most the span of the times;
    # a delta under 1e-154 s has a square that underflows to 0.
    tolerance = 1e-9 * (float(times[-1]) - float(times[0])) + 1e-150
    assert math.isclose(stats.inter_arrival_mean, mean, rel_tol=1e-9,
                        abs_tol=tolerance)
    assert math.isclose(stats.inter_arrival_stddev, stddev, rel_tol=1e-9,
                        abs_tol=tolerance)
