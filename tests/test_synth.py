import json
from collections import Counter

import pytest
from helpers import classify_with_states

from appcap.classify import classify_capture
from appcap.dataset import parse_capture_filename, scan_directory
from appcap.ingest import decode_stream, read_capture
from appcap.keylog import key_coverage, parse_keylog
from appcap.synth import (
    CaptureSpec,
    FixtureSpec,
    FixtureSpecError,
    FlowSpec,
    build_capture,
    parse_fixture_spec,
    synth_dataset,
    total_packets,
)

SPEC_OBJ = {
    "seed": 5,
    "apps": [
        {
            "app_name": "com.example.app",
            "captures": [
                {
                    "duration_s": 300,
                    "flows": [
                        {"protocol_profile": "Tls13", "app_data_packets": 6, "rate_pps": 20},
                        {"protocol_profile": "Do53", "app_data_packets": 4,
                         "start_offset_s": 1, "rate_pps": 20},
                    ],
                }
            ],
        }
    ],
}


def capture_for(*flow_specs: tuple[str, int], seed=1, linktype="sll", resolution="us"):
    spec = FixtureSpec(apps=(), seed=seed, linktype=linktype, ts_resolution=resolution)
    capture = CaptureSpec(
        duration_s=300,
        flows=tuple(
            FlowSpec(protocol_profile=p, app_data_packets=n, start_offset_s=i, rate_pps=25)
            for i, (p, n) in enumerate(flow_specs)
        ),
    )
    return build_capture(spec, "com.test.app", 0, capture)


class TestSpecParsing:
    def test_valid_spec(self):
        spec = parse_fixture_spec(SPEC_OBJ)
        assert spec.seed == 5
        assert spec.apps[0].captures[0].flows[0].protocol_profile == "Tls13"

    def test_error_paths(self):
        bad = json.loads(json.dumps(SPEC_OBJ))
        bad["apps"][0]["captures"][0]["flows"][1]["rate_pps"] = -1
        with pytest.raises(FixtureSpecError) as excinfo:
            parse_fixture_spec(bad)
        assert excinfo.value.field_path == "apps[0].captures[0].flows[1].rate_pps"

    def test_unknown_profile(self):
        bad = json.loads(json.dumps(SPEC_OBJ))
        bad["apps"][0]["captures"][0]["flows"][0]["protocol_profile"] = "Smtp"
        with pytest.raises(FixtureSpecError) as excinfo:
            parse_fixture_spec(bad)
        assert "protocol_profile" in excinfo.value.field_path

    def test_missing_apps(self):
        with pytest.raises(FixtureSpecError) as excinfo:
            parse_fixture_spec({"seed": 1})
        assert excinfo.value.field_path == "apps"

    def test_bool_rejected_in_numeric_fields(self):
        bad = json.loads(json.dumps(SPEC_OBJ))
        bad["apps"][0]["captures"][0]["duration_s"] = True
        with pytest.raises(FixtureSpecError) as excinfo:
            parse_fixture_spec(bad)
        assert excinfo.value.field_path.endswith("duration_s")


class TestDeterminism:
    def test_identical_outputs_for_same_seed(self):
        a = capture_for(("Tls13", 5), ("QuicV1", 3), seed=9)
        b = capture_for(("Tls13", 5), ("QuicV1", 3), seed=9)
        assert a.pcap_bytes == b.pcap_bytes
        assert a.keylog_text == b.keylog_text

    def test_seed_changes_bytes(self):
        a = capture_for(("Tls13", 5), seed=1)
        b = capture_for(("Tls13", 5), seed=2)
        assert a.pcap_bytes != b.pcap_bytes


class TestRoundTrip:
    @pytest.mark.parametrize("linktype", ["ethernet", "sll", "sll2"])
    def test_decode_matches_plan(self, linktype):
        result = capture_for(("Tls13", 4), ("Do53", 4), ("QuicV1", 4), linktype=linktype)
        stream = read_capture(result.pcap_bytes)
        records = decode_stream(stream)
        assert records == result.records

    def test_nanosecond_resolution(self):
        result = capture_for(("Do53", 3), resolution="ns")
        stream = read_capture(result.pcap_bytes)
        assert decode_stream(stream) == result.records

    def test_ipv4_ident_wraps_past_65535_packets(self):
        result = capture_for(("QuicV1", 70_000))
        stream = read_capture(result.pcap_bytes)
        assert len(stream.frames) == 70_002
        # SLL header (16 bytes), then the IPv4 Identification field at offset 4.
        idents = [int.from_bytes(f.frame_bytes[20:22], "big") for f in stream.frames]
        assert idents[:2] == [1, 2]
        assert idents[65534:65537] == [65535, 0, 1]
        assert len(decode_stream(stream)) == 70_002

    def test_microsecond_timestamps_divisible(self):
        result = capture_for(("Do53", 3))
        assert all(r.ts_ns % 1000 == 0 for r in result.records)


PROFILE_EXPECTATIONS = {
    "Tls13": ("TCP", "TLSv1.3"),
    "Tls12": ("TCP", "TLSv1.2"),
    "Ssl2": ("TCP", "SSLv2"),
    "UnknownSsl": ("TCP", "SSL"),
    "QuicV1": ("UDP", "QUIC"),
    "Do53": ("UDP", "Do53"),
    "DoT": ("TCP", "DoT"),
    "ConnectivityHttp": ("TCP", "HTTP"),
}


class TestProfiles:
    @pytest.mark.parametrize("profile,expected", sorted(PROFILE_EXPECTATIONS.items()))
    def test_profiles_reclassify_exactly(self, profile, expected):
        result = capture_for((profile, 6))
        classified = classify_capture(result.records)
        transport, category = expected
        counts = Counter((cp.record.transport.value, cp.protocol.category) for cp in classified)
        assert counts == {(transport, category): total_packets(profile, 6)}

    @pytest.mark.parametrize("profile", sorted(PROFILE_EXPECTATIONS))
    def test_app_data_counts(self, profile):
        result = capture_for((profile, 6))
        classified = classify_capture(result.records)
        app_data = sum(1 for cp in classified if cp.is_app_data)
        assert app_data == (0 if profile == "Ssl2" else 6)

    def test_tls13_keylog_contains_client_random(self):
        result = capture_for(("Tls13", 2))
        index = parse_keylog(result.keylog_text)
        classified, states = classify_with_states(result.records)
        report = key_coverage(index, states)
        assert report.flows_with_client_hello == 1
        assert report.coverage_fraction == 1.0

    def test_quic_profile_marks_long_and_short(self):
        result = capture_for(("QuicV1", 4))
        classified = classify_capture(result.records)
        assert [cp.is_app_data for cp in classified] == [False, False, True, True, True, True]


class TestDatasetWriting:
    def test_files_written_and_scannable(self, tmp_path):
        spec = parse_fixture_spec(SPEC_OBJ)
        written = synth_dataset(spec, tmp_path)
        assert len(written) == 2
        manifest = scan_directory(tmp_path)
        assert len(manifest.entries) == 1
        entry = manifest.entries[0]
        assert entry.label.app_name == "com.example.app"
        assert entry.keylog_path is not None
        parse_capture_filename(entry.capture_path.name)

    def test_written_bytes_deterministic(self, tmp_path):
        spec = parse_fixture_spec(SPEC_OBJ)
        synth_dataset(spec, tmp_path / "one")
        synth_dataset(spec, tmp_path / "two")
        for sub in ("com.example.app_20250101T000000Z_300.pcap",
                    "sslkeylog_com.example.app_20250101T000000Z_300.txt"):
            assert (tmp_path / "one" / sub).read_bytes() == (tmp_path / "two" / sub).read_bytes()

    def test_multi_capture_dates_distinct(self, tmp_path):
        obj = json.loads(json.dumps(SPEC_OBJ))
        obj["apps"][0]["captures"].append(obj["apps"][0]["captures"][0])
        spec = parse_fixture_spec(obj)
        synth_dataset(spec, tmp_path)
        manifest = scan_directory(tmp_path)
        assert len(manifest.entries) == 2
        dates = {e.label.capture_date for e in manifest.entries}
        assert len(dates) == 2
