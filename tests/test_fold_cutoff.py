"""The dataset fold's ``--truncate-min`` cutoff equals truncating a packet list.

``cli._capture_tally`` counts the packets before the cutoff (earliest packet
+ M minutes, half-open) as it classifies them, and it does not decode the
frames at the tail that cannot reach the cutoff. Its tally must equal
``tally(truncate_packets(every packet classified, M))`` on any capture:
every fixture, shuffled frame orders, leading frames that are not records,
a cutoff on a packet's own timestamp, no records at all, and nanosecond and
big-endian files. A frame past the bound is never handed to the decoder,
and a truncated tail still ends the command with exit 3.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest
from helpers import PCAP_MAGIC_NS_LE, eth, ip4, ip6, pcap_file, tcp, udp
from test_report_goldens import FIXTURE_NAMES, FIXTURES

from appcap import cli, ingest
from appcap.analytics import tally
from appcap.classify import FlowTable, classify_capture
from appcap.cli import main
from appcap.dataset import truncate_packets
from appcap.ingest import decode_stream, read_capture
from appcap.synth import build_client_hello, build_dns_query, build_server_hello, tls_record

MINUTES = (0.25, 1, 1.5, 5, 10_000)
NS = 1_000_000_000


def reference(data: bytes, minutes: float):
    """Every packet classified, then truncated, then tallied."""
    return tally(truncate_packets(classify_capture(decode_stream(read_capture(data))), minutes))


def folded(path: Path, minutes: float):
    return cli._capture_tally(path, minutes)[0]


def write(tmp_path: Path, data: bytes, name="com.app_20250101T000000Z_300.pcap") -> Path:
    path = tmp_path / name
    path.write_bytes(data)
    return path


def split_records(data: bytes) -> tuple[bytes, list[bytes]]:
    """A classic pcap's global header and its records, header and body each."""
    offsets = read_capture(data).offsets
    ends = list(offsets[1:]) + [len(data)]
    return data[: offsets[0]] if offsets else data, [data[o:e] for o, e in zip(offsets, ends)]


@pytest.fixture(scope="module")
def fixture_captures(tmp_path_factory) -> list[Path]:
    root = tmp_path_factory.mktemp("fold")
    captures = []
    for name in FIXTURE_NAMES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", str(FIXTURES / f"{name}.json"), str(root / name)]) == 0
        captures += sorted((root / name).glob("*.pcap"))
    return captures


def _quic(ts_sec: int, sport: int, long_header: bool) -> tuple[int, int, bytes]:
    first = b"\xc0\x00\x00\x00\x01" if long_header else b"\x40"
    return ts_sec, 0, eth(ip4(udp(first + b"\x00" * 40, sport=sport, dport=443)))


def _tls_flow(ts_sec: int, sport: int) -> list[tuple[int, int, bytes]]:
    """A TLS 1.3 handshake and one application-data record, a second apart."""
    hello = build_client_hello(b"\x01" * 32, supported_versions=(0x0304,))
    reply = build_server_hello(b"\x02" * 32, selected_version=0x0304)
    app = tls_record(23, 0x0303, b"\x00" * 64)
    client = dict(src="10.0.2.16", dst="203.0.113.7")
    server = dict(src="203.0.113.7", dst="10.0.2.16")
    return [
        (ts_sec, 0, eth(ip4(tcp(hello, sport=sport, dport=443), proto=6, **client))),
        (ts_sec + 1, 0, eth(ip4(tcp(reply, sport=443, dport=sport), proto=6, **server))),
        (ts_sec + 2, 0, eth(ip4(tcp(app, sport=sport, dport=443), proto=6, **client))),
    ]


def mixed_frames(rng: random.Random, count: int) -> list[tuple[int, int, bytes]]:
    """QUIC, DNS and TLS frames, spread over ten minutes."""
    frames = []
    for i in range(count):
        ts = rng.randrange(600)
        kind = rng.randrange(3)
        if kind == 0:
            frames.append(_quic(ts, 50000 + i % 4, long_header=rng.random() < 0.3))
        elif kind == 1:
            frames.append((ts, rng.randrange(1_000_000), eth(ip4(udp(build_dns_query(i, "a.example"))))))
        else:
            frames += _tls_flow(ts, 40000 + i)
    return frames


class TestEqualsTruncatedList:
    def test_every_fixture(self, fixture_captures):
        for path in fixture_captures:
            data = path.read_bytes()
            for minutes in MINUTES:
                assert folded(path, minutes) == reference(data, minutes), (path.name, minutes)

    def test_shuffled_fixture_frames(self, fixture_captures, tmp_path):
        rng = random.Random(3)
        for path in fixture_captures:
            header, records = split_records(path.read_bytes())
            rng.shuffle(records)
            data = header + b"".join(records)
            shuffled = write(tmp_path, data)
            for minutes in MINUTES:
                assert folded(shuffled, minutes) == reference(data, minutes), (path.name, minutes)

    def test_random_orders(self, tmp_path):
        rng = random.Random(11)
        for case in range(25):
            frames = mixed_frames(rng, rng.randrange(1, 30))
            rng.shuffle(frames)
            data = pcap_file(frames)
            path = write(tmp_path, data)
            for minutes in (0.5, 1, 2.5, 9):
                assert folded(path, minutes) == reference(data, minutes), (case, minutes)

    def test_leading_non_ip_and_malformed_frames(self, tmp_path):
        arp = eth(b"\x00" * 28, ethertype=0x0806)
        short_ip = eth(b"\x45\x00\x00")
        gre = eth(ip4(b"\x00" * 8, proto=47))
        rest = mixed_frames(random.Random(5), 12)
        for leading_ts in (0, 200, 10_000):
            lead = [(leading_ts, 0, arp), (leading_ts, 1, short_ip), (leading_ts, 2, gre)]
            data = pcap_file(lead + rest)
            path = write(tmp_path, data)
            for minutes in (0.5, 1, 3):
                assert folded(path, minutes) == reference(data, minutes), (leading_ts, minutes)

    def test_cutoff_on_a_packet_is_half_open(self, tmp_path):
        # Packets at 100 s, 159.999999 s and 160 s: a one-minute cut keeps
        # the first two, whatever the frame order.
        frames = [_quic(100, 50000, True), (159, 999_999, _quic(0, 50000, False)[2]), _quic(160, 50000, False)]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            data = pcap_file([frames[i] for i in order])
            path = write(tmp_path, data)
            counts = folded(path, 1)
            assert sum(counts.values()) == 2
            assert counts == reference(data, 1)

    def test_no_records(self, tmp_path):
        arp = eth(b"\x00" * 28, ethertype=0x0806)
        for frames in ([], [arp], [arp, eth(b"\x45\x00")]):
            data = pcap_file(frames)
            assert folded(write(tmp_path, data), 1) == reference(data, 1) == tally([])

    @pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
    def test_nanosecond_and_big_endian(self, tmp_path, little):
        rng = random.Random(8)
        frames = mixed_frames(rng, 20)
        rng.shuffle(frames)
        for kwargs in ({}, {"magic": PCAP_MAGIC_NS_LE}):
            data = pcap_file(frames, little=little, **kwargs)
            path = write(tmp_path, data)
            for minutes in (0.5, 1.5, 4):
                assert folded(path, minutes) == reference(data, minutes), (kwargs, minutes)

    def test_ipv6_and_out_of_order_tail(self, tmp_path):
        v6 = eth(ip6(udp(build_dns_query(1, "b.example")), next_header=17), ethertype=0x86DD)
        # A tail frame before the bound follows frames past it.
        frames = [(0, 0, v6), (500, 0, v6), (30, 0, v6), (900, 0, v6)]
        data = pcap_file(frames)
        path = write(tmp_path, data)
        for minutes in (0.25, 1, 10, 20):
            assert folded(path, minutes) == reference(data, minutes), minutes


class TestDecodesOnlyToTheBound:
    def _count_decodes(self, monkeypatch) -> list[int]:
        starts: list[int] = []
        decode = ingest._decode

        def counting(data, start, *rest):
            starts.append(start)
            return decode(data, start, *rest)

        monkeypatch.setattr(ingest, "_decode", counting)
        return starts

    @pytest.mark.parametrize(
        "planted",
        [eth(ip4(b"\x00" * 8, proto=47)), b"\xff" * 9],
        ids=["unsupported-protocol", "garbage"],
    )
    def test_frame_past_bound_is_not_decoded(self, tmp_path, monkeypatch, planted):
        # First record at 10 s; one minute makes the bound 70 s. The planted
        # frame at 70 s and the record after it lie at or past the bound.
        frames = [_quic(10, 50000, True), _quic(40, 50000, False), _quic(69, 50000, False)]
        frames += [(70, 0, planted), _quic(95, 50000, False)]
        data = pcap_file(frames)
        path = write(tmp_path, data)
        stream = read_capture(data)
        starts = self._count_decodes(monkeypatch)
        counts = folded(path, 1)
        assert sum(counts.values()) == 3
        assert len(starts) == 3
        planted_start = stream.offsets[3] + ingest.RECORD_HEADER_LEN
        assert planted_start not in starts

    def test_leading_frames_are_decoded_one_by_one(self, tmp_path, monkeypatch):
        arp = eth(b"\x00" * 28, ethertype=0x0806)
        frames = [(0, 0, arp), (1, 0, arp), _quic(5, 50000, True), _quic(30, 50000, False)]
        frames += [(65, 0, b"\xff" * 9), (66, 0, arp)]
        data = pcap_file(frames)
        starts = self._count_decodes(monkeypatch)
        assert sum(folded(write(tmp_path, data), 1).values()) == 2
        assert len(starts) == 4

    def test_only_the_first_record_when_the_rest_is_past_bound(self, tmp_path, monkeypatch):
        frames = [_quic(0, 50000, True), (60, 0, b"\xff" * 9), _quic(61, 50000, False)]
        starts = self._count_decodes(monkeypatch)
        assert sum(folded(write(tmp_path, pcap_file(frames)), 1).values()) == 1
        assert len(starts) == 1

    def test_classifies_up_to_the_last_record_before_cutoff(self, tmp_path, monkeypatch):
        # The first record (10 s) bounds the cutoff at 70 s; the earliest
        # (5 s) sets it at 65 s. The records at 66 s and 68 s are decoded
        # but follow every counted packet, so they are not classified.
        frames = [_quic(ts, 50000, ts == 10) for ts in (10, 5, 40, 66, 68)]
        data = pcap_file(frames)
        want = reference(data, 1)
        assert sum(want.values()) == 3
        classify = FlowTable.classify
        calls = []
        monkeypatch.setattr(FlowTable, "classify", lambda table, r: calls.append(r) or classify(table, r))
        starts = self._count_decodes(monkeypatch)
        assert folded(write(tmp_path, data), 1) == want
        assert len(starts) == 5
        assert [r.ts_ns // NS for r in calls] == [10, 5, 40]

    def test_truncated_tail_still_exits_3(self, tmp_path, capsys):
        frames = [_quic(ts, 50000, ts == 0) for ts in range(0, 300, 10)]
        dataset = tmp_path / "d"
        dataset.mkdir()
        write(dataset, pcap_file(frames)[:-5])
        assert main(["dataset", "stats", str(dataset), "--truncate-min", "1"]) == 3
        assert "frame record truncated after 29 frames" in capsys.readouterr().err
