import random
import struct
from datetime import datetime, timezone
from pathlib import Path

import pytest
from helpers import classify_capture, mk_record

from appcap.classify import ProtoTag
from appcap.dataset import (
    BackgroundKind,
    BadDate,
    BadDuration,
    BadExtension,
    CaptureLabel,
    attribute_background,
    http_request_host,
    parse_capture_filename,
    render_capture_filename,
    scan_dataset,
    truncate_packets,
)
from appcap.ingest import Transport
from appcap.synth import (
    build_app_data,
    build_client_hello,
    build_dns_query,
    build_dns_response,
    build_http_204,
    build_http_get,
    build_server_hello,
)

UTC = timezone.utc


class TestFilenameGrammar:
    def test_parse_spotify_example(self):
        label = parse_capture_filename("com.spotify.music_20250314T101500Z_300.pcap")
        assert label.app_name == "com.spotify.music"
        assert label.capture_date == datetime(2025, 3, 14, 10, 15, 0, tzinfo=UTC)
        assert label.duration_s == 300

    def test_underscore_app_name_preserved(self):
        label = parse_capture_filename("wsj.reader_sp_20250314T101500Z_300.pcap")
        assert label.app_name == "wsj.reader_sp"

    def test_missing_fields_bad_date(self):
        with pytest.raises(BadDate):
            parse_capture_filename("foo.pcap")

    def test_bad_extension(self):
        with pytest.raises(BadExtension):
            parse_capture_filename("com.chess_20250314T101500Z_300.pcapng")

    def test_bad_date_format(self):
        with pytest.raises(BadDate):
            parse_capture_filename("app_2025-03-14_300.pcap")

    def test_bad_duration(self):
        with pytest.raises(BadDuration):
            parse_capture_filename("app_20250314T101500Z_3x0.pcap")
        with pytest.raises(BadDuration):
            parse_capture_filename("app_20250314T101500Z_0.pcap")

    @pytest.mark.parametrize("duration", ["\u00b2", "\u0663", "\uff11\uff12", "1\u00b2"])
    def test_non_ascii_duration_digits(self, duration):
        # str.isdigit takes these, but none round-trips through render_capture_filename.
        with pytest.raises(BadDuration):
            parse_capture_filename(f"app_20250101T000000Z_{duration}.pcap")
        manifest = scan_dataset([Path(f"d/app_20250101T000000Z_{duration}.pcap")])
        assert manifest.entries == []
        assert manifest.unparseable == [Path(f"d/app_20250101T000000Z_{duration}.pcap")]

    def test_impossible_date_rejected(self):
        with pytest.raises(BadDate):
            parse_capture_filename("app_20251399T257777Z_300.pcap")

    def test_render_epoch_boundary(self):
        label = CaptureLabel("a", datetime(1970, 1, 1, tzinfo=UTC), 1)
        assert render_capture_filename(label) == "a_19700101T000000Z_1.pcap"

    def test_round_trip(self):
        label = CaptureLabel("my_app.with_underscores", datetime(2031, 12, 31, 23, 59, 59, tzinfo=UTC), 86400)
        assert parse_capture_filename(render_capture_filename(label)) == label

    def test_naive_dates_become_utc(self):
        label = CaptureLabel("a", datetime(2025, 1, 1, 12, 0, 0), 10)
        assert label.capture_date.tzinfo == UTC

    def test_capture_and_keylog_names_share_stem(self):
        from appcap.keylog import keylog_filename_for

        label = CaptureLabel("com.chess", datetime(2025, 3, 14, 10, 15, tzinfo=UTC), 300)
        capture_name = render_capture_filename(label)
        keylog_name = keylog_filename_for(label)
        assert capture_name == f"{label.stem}.pcap"
        assert keylog_name == f"sslkeylog_{label.stem}.txt"


class TestScan:
    def test_pairing_by_stem(self):
        paths = [
            Path("d/com.chess_20250314T101500Z_300.pcap"),
            Path("d/sslkeylog_com.chess_20250314T101500Z_300.txt"),
            Path("d/org.wikipedia_20250314T110000Z_300.pcap"),
        ]
        manifest = scan_dataset(paths)
        assert len(manifest.entries) == 2
        with_keys = [e for e in manifest.entries if e.keylog_path is not None]
        assert len(with_keys) == 1
        assert with_keys[0].label.app_name == "com.chess"
        assert manifest.unpaired_keylogs == []

    def test_unpaired_keylog_reported(self):
        manifest = scan_dataset([Path("d/sslkeylog_com.chess_20250314T101500Z_300.txt")])
        assert manifest.entries == []
        assert len(manifest.unpaired_keylogs) == 1

    def test_unparseable_capture_reported(self):
        manifest = scan_dataset([Path("d/notes.pcap"), Path("d/readme.md")])
        assert manifest.entries == []
        assert len(manifest.unparseable) == 1

    def test_manifest_conservation(self):
        good = [Path(f"d/app{i}_20250314T10150{i % 10}Z_300.pcap") for i in range(9)]
        bad = [Path("d/x.pcap"), Path("d/_20250314T101500Z_300.pcap")]
        manifest = scan_dataset(good + bad)
        assert len(manifest.entries) + len(manifest.unparseable) == len(good) + len(bad)

    def test_320_capture_fixture(self):
        paths = []
        for a in range(80):
            for c in range(4):
                paths.append(Path(f"d/com.app{a:02d}_2025031{c}T101500Z_300.pcap"))
        manifest = scan_dataset(paths)
        assert len(manifest.apps) == 80
        assert len(manifest.entries) == 320


def _at(seconds: float, payload=b"\x00\x01"):
    return mk_record(ts_ns=int(seconds * 1e9), dst_port=9999, payload=payload)


class TestTruncate:
    def test_half_open_boundary(self):
        packets = classify_capture([_at(0.0), _at(299.9), _at(300.0)])
        kept = truncate_packets(packets, 5)
        assert len(kept) == 2

    def test_idempotent(self):
        packets = classify_capture([_at(i * 7.0) for i in range(60)])
        once = truncate_packets(packets, 5)
        assert truncate_packets(once, 5) == once

    def test_constant_rate_half_retained(self):
        # 10 minutes at 2 pps; five-minute cut keeps half (+-1 for the edge).
        packets = classify_capture([_at(i * 0.5) for i in range(1200)])
        kept = truncate_packets(packets, 5)
        assert abs(len(kept) - 600) <= 1

    def test_empty_input(self):
        assert truncate_packets([], 5) == []

    def test_unsorted_input_sorted_first(self):
        packets = classify_capture([_at(400.0), _at(0.0), _at(100.0)])
        kept = truncate_packets(packets, 5)
        assert [cp.record.ts_ns for cp in kept] == [0, int(100e9)]

    def test_matches_sort_then_filter(self):
        rng = random.Random(21)
        for _ in range(50):
            seconds = [rng.choice([0.0, 30.0, 59.999, 60.0, 61.0, 90.0]) + rng.randrange(3)
                       for _ in range(rng.randrange(1, 12))]
            packets = classify_capture([_at(s) for s in seconds])
            ordered = sorted(packets, key=lambda cp: cp.record.ts_ns)
            cutoff = ordered[0].record.ts_ns + 60 * 10**9
            want = [cp for cp in ordered if cp.record.ts_ns < cutoff]
            assert truncate_packets(packets, 1) == want

    def test_output_is_prefix_of_sorted(self):
        packets = classify_capture([_at(s) for s in (5.0, 1.0, 9.0, 3.0)])
        kept = truncate_packets(packets, 5)
        ordered = sorted(packets, key=lambda cp: cp.record.ts_ns)
        assert kept == ordered[: len(kept)]


def http_flow(host: str, src_port=40000):
    return [
        mk_record(ts_ns=0, src_port=src_port, dst_ip="203.0.113.80", dst_port=80,
                  payload=build_http_get(host)),
        mk_record(ts_ns=1, src_ip="203.0.113.80", src_port=80, dst_ip="10.0.2.16",
                  dst_port=src_port, payload=build_http_204()),
    ]


def background(packets) -> tuple[dict, list[int]]:
    """``attribute_background``'s nonzero counts by kind, and the timestamps
    of the packets in its timeline."""
    counts, times = attribute_background(packets)
    return {kind: n for kind, n in counts.items() if n}, sorted(ts for ts, _ in times)


class TestBackground:
    def test_connectivity_http_request_and_response(self):
        result = background(classify_capture(http_flow("connectivitycheck.gstatic.com")))
        assert result == ({BackgroundKind.CONNECTIVITY_HTTP: 2}, [0, 1])

    def test_http_to_other_host_untagged(self):
        result = background(classify_capture(http_flow("example.com")))
        assert result == ({BackgroundKind.NONE: 2}, [])

    def test_connectivity_dns_query_and_response(self):
        records = [
            mk_record(ts_ns=0, transport=Transport.UDP, dst_ip="8.8.8.8", dst_port=53,
                      payload=build_dns_query(42, "www.google.com")),
            mk_record(ts_ns=1, transport=Transport.UDP, src_ip="8.8.8.8", src_port=53,
                      dst_ip="10.0.2.16", dst_port=40000,
                      payload=build_dns_response(42, "www.google.com")),
        ]
        result = background(classify_capture(records))
        assert result == ({BackgroundKind.CONNECTIVITY_DO53: 2}, [0, 1])

    def test_empty_do53_packet_stays_untagged(self):
        records = [
            mk_record(ts_ns=0, transport=Transport.UDP, dst_ip="8.8.8.8", dst_port=53,
                      payload=build_dns_query(42, "www.google.com")),
            mk_record(ts_ns=1, transport=Transport.UDP, dst_ip="8.8.8.8", dst_port=53,
                      payload=b""),
        ]
        classified = classify_capture(records)
        assert classified[1].protocol.tag is ProtoTag.DO53
        assert background(classified) == (
            {BackgroundKind.CONNECTIVITY_DO53: 1, BackgroundKind.NONE: 1},
            [0],
        )

    def test_connectivity_dns_over_tcp(self):
        query = build_dns_query(9, "www.google.com")
        response = build_dns_response(9, "www.google.com")
        records = [
            mk_record(ts_ns=0, dst_ip="8.8.8.8", dst_port=53,
                      payload=struct.pack(">H", len(query)) + query),
            mk_record(ts_ns=1, src_ip="8.8.8.8", src_port=53, dst_ip="10.0.2.16",
                      dst_port=40000, payload=struct.pack(">H", len(response)) + response),
        ]
        result = background(classify_capture(records))
        assert result == ({BackgroundKind.CONNECTIVITY_DO53: 2}, [0, 1])

    def test_other_dns_query_untagged(self):
        record = mk_record(transport=Transport.UDP, dst_ip="8.8.8.8", dst_port=53,
                           payload=build_dns_query(1, "api.example.com"))
        assert background(classify_capture([record])) == ({BackgroundKind.NONE: 1}, [])

    def test_tls_to_google_ip_untagged(self):
        record = mk_record(dst_ip="142.250.184.3", dst_port=443,
                           payload=build_client_hello(bytes(32)))
        assert background(classify_capture([record])) == ({BackgroundKind.NONE: 1}, [])

    def test_dot_to_system_resolver_is_system_dot(self):
        records = [
            mk_record(ts_ns=0, dst_ip="8.8.8.8", dst_port=853,
                      payload=build_client_hello(bytes(32), supported_versions=(0x0304,))),
            mk_record(ts_ns=1, src_ip="8.8.8.8", src_port=853, dst_ip="10.0.2.16", dst_port=40000,
                      payload=build_server_hello(bytes(32), selected_version=0x0304)),
        ]
        classified = classify_capture(records)
        assert background(classified) == ({BackgroundKind.SYSTEM_DOT: 2}, [0, 1])

    def test_dot_to_other_resolver_untagged(self):
        record = mk_record(dst_ip="1.1.1.1", dst_port=853, payload=build_client_hello(bytes(32)))
        assert background(classify_capture([record])) == ({BackgroundKind.NONE: 1}, [])

    def test_tags_partition_packets(self):
        records = http_flow("connectivitycheck.gstatic.com") + [
            mk_record(ts_ns=10, dst_port=443, payload=build_app_data(random.Random(1))),
            mk_record(ts_ns=11, transport=Transport.UDP, dst_ip="8.8.8.8", dst_port=53,
                      payload=build_dns_query(7, "www.google.com")),
        ]
        classified = classify_capture(records)
        counts, _ = attribute_background(classified)
        assert sum(counts.values()) == len(classified)
        assert background(classified) == (
            {
                BackgroundKind.CONNECTIVITY_HTTP: 2,
                BackgroundKind.NONE: 1,
                BackgroundKind.CONNECTIVITY_DO53: 1,
            },
            [0, 1, 11],
        )

    def test_request_host_parsing(self):
        assert http_request_host(b"GET /gen HTTP/1.1\r\nHost: a.example.com\r\n\r\n") == "a.example.com"
        assert http_request_host(b"GET http://b.example.com/x HTTP/1.1\r\n\r\n") == "b.example.com"
        assert http_request_host(b"HTTP/1.1 204 No Content\r\n\r\n") is None
