import random
import struct
from datetime import datetime, timezone
from pathlib import Path

import pytest
from helpers import classify_with_states, mk_record

from appcap.classify import ProtoTag
from appcap.dataset import CaptureLabel, render_capture_filename, scan_dataset
from appcap.keylog import (
    KeyIndex,
    KeyLogEntry,
    key_coverage,
    keylog_filename_for,
    parse_keylog,
    read_keylog,
    render_keylog,
)
from appcap.synth import (
    build_app_data,
    build_client_hello,
    build_dns_query,
    build_server_hello,
    tls_record,
)

LABEL_CHESS = CaptureLabel(
    app_name="com.chess",
    capture_date=datetime(2025, 3, 14, 10, 15, 0, tzinfo=timezone.utc),
    duration_s=300,
)


def entry(seed: int, label="CLIENT_HANDSHAKE_TRAFFIC_SECRET") -> KeyLogEntry:
    rng = random.Random(seed)
    return KeyLogEntry(label=label, client_random=rng.randbytes(32), secret=rng.randbytes(48))


def tls_flows_of(classified) -> set:
    """The flows with a packet tagged TLS or DoT, counted from the packets."""
    return {cp.flow for cp in classified if cp.protocol.tag in (ProtoTag.TLS, ProtoTag.DOT)}


def tls_flow_records(src_port: int, client_random: bytes, n_app=1):
    packets = [
        mk_record(ts_ns=0, src_port=src_port,
                  payload=build_client_hello(client_random, supported_versions=(0x0304,))),
        mk_record(ts_ns=1, src_ip="203.0.113.10", dst_ip="10.0.2.16", src_port=443,
                  dst_port=src_port, payload=build_server_hello(bytes(32), selected_version=0x0304)),
    ]
    packets += [mk_record(ts_ns=2 + k, src_port=src_port, payload=build_app_data(random.Random(k)))
                for k in range(n_app)]
    return packets


class TestParse:
    def test_single_tls13_line(self):
        e = entry(1)
        index = parse_keylog(render_keylog([e]))
        assert index.malformed_lines == 0
        assert index.by_random[e.client_random] == [e]

    def test_empty_file(self):
        index = parse_keylog("")
        assert index.by_random == {}
        assert index.malformed_lines == 0

    def test_garbage_line_tallied(self):
        index = parse_keylog("garbage\n")
        assert index.by_random == {}
        assert index.malformed_lines == 1

    def test_comments_and_blanks_ignored(self):
        e = entry(2)
        text = "# comment\n\n" + render_keylog([e]) + "\n  \n"
        index = parse_keylog(text)
        assert index.malformed_lines == 0
        assert len(index.by_random) == 1

    def test_hex_case_insensitive(self):
        e = entry(3)
        line = f"CLIENT_RANDOM {e.client_random.hex().upper()} {e.secret.hex().upper()}"
        index = parse_keylog(line)
        assert e.client_random in index

    def test_wrong_random_length_malformed(self):
        index = parse_keylog("CLIENT_RANDOM aabb 00ff\n")
        assert index.malformed_lines == 1

    def test_non_hex_malformed(self):
        index = parse_keylog(f"CLIENT_RANDOM {'zz' * 32} 00ff\n")
        assert index.malformed_lines == 1

    def test_undecodable_bytes_spoil_only_their_line(self):
        good, bad_label = entry(4), entry(5)
        index = read_keylog(
            render_keylog([good]).encode()
            + b"CLIENT_RANDOM \xff\xfe zz\n"
            + render_keylog([bad_label]).replace(" ", "\xff ", 1).encode("latin-1")
        )
        assert index.by_random == {good.client_random: [good]}
        assert index.malformed_lines == 2

    def test_extra_fields_malformed(self):
        e = entry(4)
        index = parse_keylog(f"A {e.client_random.hex()} {e.secret.hex()} extra\n")
        assert index.malformed_lines == 1

    def test_round_trip_multiple_entries(self):
        entries = [entry(i, label) for i, label in enumerate(
            ["CLIENT_RANDOM", "SERVER_TRAFFIC_SECRET_0", "EXPORTER_SECRET"])]
        index = parse_keylog(render_keylog(entries))
        recovered = [e for es in index.by_random.values() for e in es]
        assert sorted(recovered, key=lambda e: e.label) == sorted(entries, key=lambda e: e.label)


class TestCoverage:
    def test_two_of_three_flows_covered(self):
        randoms = [random.Random(i).randbytes(32) for i in (10, 11, 12)]
        records = []
        for i, cr in enumerate(randoms):
            records += tls_flow_records(40000 + i, cr)
        classified, states = classify_with_states(records)
        index = KeyIndex()
        index.add(KeyLogEntry("CLIENT_RANDOM", randoms[0], b"\x01"))
        index.add(KeyLogEntry("CLIENT_RANDOM", randoms[1], b"\x02"))
        report = key_coverage(index, states)
        assert report.tls_flows == 3
        assert report.flows_with_client_hello == 3
        assert report.flows_with_keys == 2
        assert report.coverage_fraction == pytest.approx(2 / 3)

    def test_no_tls_flows_reports_zero(self):
        classified, states = classify_with_states([mk_record(dst_port=9999, payload=b"\x00\x01")])
        report = key_coverage(KeyIndex(), states)
        assert report.tls_flows == 0
        assert report.coverage_fraction == 0.0

    def test_midstream_flow_excluded_from_denominator(self):
        records = tls_flow_records(40000, random.Random(20).randbytes(32))
        records.append(mk_record(ts_ns=50, src_port=40005,
                                 payload=build_app_data(random.Random(21))))
        classified, states = classify_with_states(records)
        report = key_coverage(KeyIndex(), states)
        assert report.tls_flows == 2
        assert report.flows_with_client_hello == 1

    def test_explicit_flow_states_accepted(self):
        from appcap.classify import FlowTable

        records = tls_flow_records(40000, random.Random(22).randbytes(32))
        table = FlowTable()
        classified = [table.classify(r) for r in records]
        report = key_coverage(KeyIndex(), table.states)
        assert report.flows_with_client_hello == 1

    def test_tcp53_flow_counts_after_tls_gives_way_to_do53(self):
        alert = tls_record(21, 0x0303, b"\x02\x28")  # too short to be a DNS message
        query = build_dns_query(7, "example.com")
        records = [
            mk_record(ts_ns=0, dst_port=53, payload=alert),
            mk_record(ts_ns=1, dst_port=53, payload=struct.pack(">H", len(query)) + query),
        ]
        classified, states = classify_with_states(records)
        assert [cp.protocol.tag for cp in classified] == [ProtoTag.TLS, ProtoTag.DO53]
        report = key_coverage(KeyIndex(), states)
        assert report.tls_flows == len(tls_flows_of(classified)) == 1
        assert report.flows_with_client_hello == 0

    def test_dot_port_flow_of_empty_packets_counts(self):
        records = [mk_record(ts_ns=k, dst_port=853, payload=b"") for k in range(2)]
        classified, states = classify_with_states(records)
        assert [cp.protocol.tag for cp in classified] == [ProtoTag.DOT] * 2
        report = key_coverage(KeyIndex(), states)
        assert report.tls_flows == len(tls_flows_of(classified)) == 1
        assert report.flows_with_client_hello == 0

    def test_adding_entries_never_decreases(self):
        randoms = [random.Random(i).randbytes(32) for i in range(30, 34)]
        records = []
        for i, cr in enumerate(randoms):
            records += tls_flow_records(41000 + i, cr)
        classified, states = classify_with_states(records)
        index = KeyIndex()
        last = key_coverage(index, states).coverage_fraction
        for cr in randoms:
            index.add(KeyLogEntry("CLIENT_RANDOM", cr, b"\x01"))
            now = key_coverage(index, states).coverage_fraction
            assert now >= last
            last = now
        assert last == 1.0


class TestFilenames:
    def test_chess_example(self):
        assert (
            keylog_filename_for(LABEL_CHESS)
            == "sslkeylog_com.chess_20250314T101500Z_300.txt"
        )

    def test_round_trip(self):
        paths = [Path(render_capture_filename(LABEL_CHESS)), Path(keylog_filename_for(LABEL_CHESS))]
        (entry,) = scan_dataset(paths).entries
        assert entry.label == LABEL_CHESS
        assert entry.keylog_path == paths[1]

    def test_underscore_app_name_right_anchored(self):
        label = CaptureLabel(
            app_name="wsj.reader_sp",
            capture_date=datetime(2025, 3, 14, 10, 15, 0, tzinfo=timezone.utc),
            duration_s=300,
        )
        name = keylog_filename_for(label)
        assert name == "sslkeylog_wsj.reader_sp_20250314T101500Z_300.txt"
        (entry,) = scan_dataset([Path(render_capture_filename(label)), Path(name)]).entries
        assert entry.label == label
        assert entry.keylog_path == Path(name)

    def test_bad_prefix_rejected(self):
        name = "keys_com.chess_20250314T101500Z_300.txt"
        manifest = scan_dataset([Path(render_capture_filename(LABEL_CHESS)), Path(name)])
        assert manifest.entries[0].keylog_path is None
        assert manifest.unpaired_keylogs == []
