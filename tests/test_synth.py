import json
import os
import pickle
import struct
from collections import Counter

import pytest
import refdissect
from helpers import classify_capture, classify_with_states
from test_parallel import _pool_sizes
from test_reports import LOCALES, run_in_locale

from appcap import dataset
from appcap.cli import main
from appcap.dataset import parse_capture_filename, render_capture_filename, scan_directory
from appcap.ingest import Transport, decode_stream, read_capture
from appcap.keylog import key_coverage, keylog_filename_for, parse_keylog
from appcap.synth import (
    CaptureSpec,
    FixtureSpec,
    FixtureSpecError,
    FlowSpec,
    build_capture,
    parse_fixture_spec,
    synth_dataset,
)

def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def decoded(result):
    return decode_stream(read_capture(result.pcap_bytes))


def total_packets(profile: str, app_data_packets: int) -> int:
    """On-the-wire packet count a flow spec produces.

    Handshake-bearing profiles add their hello or long-header packets on top
    of the app-data count; Ssl2 emits exactly ``app_data_packets`` handshake
    records, which never classify as app data.
    """
    if profile in ("Tls12", "Tls13", "DoT", "QuicV1"):
        return app_data_packets + 2
    return app_data_packets


# Each profile's server endpoint and transport.
SERVERS = {
    "Tls12": (("203.0.113.10", 443), Transport.TCP),
    "Tls13": (("203.0.113.10", 443), Transport.TCP),
    "Ssl2": (("203.0.113.10", 443), Transport.TCP),
    "UnknownSsl": (("203.0.113.10", 443), Transport.TCP),
    "DoT": (("8.8.8.8", 853), Transport.TCP),
    "QuicV1": (("203.0.113.20", 443), Transport.UDP),
    "Do53": (("8.8.8.8", 53), Transport.UDP),
    "ConnectivityHttp": (("203.0.113.80", 80), Transport.TCP),
}
LINK_FIELDS = {
    "ethernet": refdissect.ethernet_fields,
    "sll": refdissect.sll_fields,
    "sll2": refdissect.sll2_fields,
}


def planned_packets(flow_specs, t0_ns: int, nanos: bool):
    """(ts_ns, src, dst, transport) of every packet ``capture_for`` plans, in
    capture order: flow i starts at i s and sends 25 packets/s from client
    port 40000 + i, alternating client to server and back."""
    planned = []
    for i, (profile, n) in enumerate(flow_specs):
        client = ("10.0.2.16", 40000 + i)
        server, transport = SERVERS[profile]
        for k in range(total_packets(profile, n)):
            offset_s = i + k / 25
            ts_ns = t0_ns + (round(offset_s * 1e9) if nanos else round(offset_s * 1e6) * 1000)
            ends = (client, server) if k % 2 == 0 else (server, client)
            planned.append((ts_ns, i, k, *ends, transport))
    planned.sort()
    return [(ts_ns, src, dst, transport) for ts_ns, _, _, src, dst, transport in planned]


def assert_decodes_as_planned(flow_specs, linktype="sll", resolution="us"):
    """Every decoded record matches the fields that ``refdissect`` reads off
    its frame and the packet that the spec plans for that position."""
    result = capture_for(*flow_specs, linktype=linktype, resolution=resolution)
    frames = list(_pcap_frames(result.pcap_bytes))
    records = decoded(result)
    t0_ns = int(result.label.capture_date.timestamp()) * 1_000_000_000
    planned = planned_packets(flow_specs, t0_ns, resolution == "ns")
    assert len(records) == len(frames) == len(planned)
    for record, (ts_ns, frame), (plan_ts, src, dst, transport) in zip(records, frames, planned):
        link = LINK_FIELDS[linktype](frame)
        assert link["protocol"] == 0x0800
        ip = refdissect.ipv4_fields(link["payload"])
        assert (ip["version"], ip["header_len"]) == (4, 20)
        assert ip["total_len"] == len(link["payload"])
        if transport is Transport.TCP:
            assert ip["protocol"] == 6
            l4 = refdissect.tcp_fields(ip["payload"])
            assert l4["flags"] == 0x18
        else:
            assert ip["protocol"] == 17
            l4 = refdissect.udp_fields(ip["payload"])
            assert l4["length"] == len(ip["payload"])
        assert (ip["src"], l4["src_port"]) == src == (record.src_ip, record.src_port)
        assert (ip["dst"], l4["dst_port"]) == dst == (record.dst_ip, record.dst_port)
        assert record.transport is transport
        assert record.payload == l4["payload"]
        assert record.packet_len == len(frame)
        assert record.ts_ns == ts_ns == plan_ts


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

    def test_error_pickles_with_its_field_path(self):
        error = FixtureSpecError("apps[0].captures[2].flows[1].rate_pps", "must be a number > 0")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is FixtureSpecError
        assert copy.field_path == error.field_path
        assert str(copy) == str(error)

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
        assert_decodes_as_planned([("Tls13", 4), ("Do53", 4), ("QuicV1", 4)], linktype=linktype)

    def test_nanosecond_resolution(self):
        assert_decodes_as_planned([("Do53", 3), ("Tls12", 3)], resolution="ns")

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
        assert all(r.ts_ns % 1000 == 0 for r in decoded(result))

    @pytest.mark.parametrize("linktype,ip_offset", [("ethernet", 14), ("sll", 16), ("sll2", 20)])
    def test_every_ipv4_header_checksum_verifies(self, linktype, ip_offset):
        """Checked as RFC 1071 does: the ones'-complement sum of a header,
        checksum included, is 0xFFFF. 65,604 TCP and UDP packets take the
        Identification field across its 65,535 -> 0 wrap."""
        result = capture_for(("Tls13", 32_000), ("QuicV1", 33_600), linktype=linktype)
        idents = set()
        for _, frame in _pcap_frames(result.pcap_bytes):
            header = frame[ip_offset : ip_offset + 20]
            assert header[0] == 0x45
            assert _ones_complement_sum(header) == 0xFFFF, header.hex()
            idents.add(int.from_bytes(header[4:6], "big"))
        assert len(idents) == 65_536


def _pcap_frames(data: bytes):
    """Each record's timestamp in ns and bytes, of a little-endian classic pcap."""
    ns_per_unit = 1 if data[:4] == struct.pack("<I", 0xA1B23C4D) else 1000
    offset = 24
    while offset < len(data):
        seconds, fraction, length = struct.unpack_from("<III", data, offset)
        yield seconds * 1_000_000_000 + fraction * ns_per_unit, data[offset + 16 : offset + 16 + length]
        offset += 16 + length


def _ones_complement_sum(data: bytes) -> int:
    total = sum(data[i] << 8 | data[i + 1] for i in range(0, len(data), 2))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


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
        classified = classify_capture(decoded(result))
        transport, category = expected
        counts = Counter((cp.record.transport.value, cp.protocol.category) for cp in classified)
        assert counts == {(transport, category): total_packets(profile, 6)}

    @pytest.mark.parametrize("profile", sorted(PROFILE_EXPECTATIONS))
    def test_app_data_counts(self, profile):
        result = capture_for((profile, 6))
        classified = classify_capture(decoded(result))
        app_data = sum(1 for cp in classified if cp.is_app_data)
        assert app_data == (0 if profile == "Ssl2" else 6)

    def test_tls13_keylog_contains_client_random(self):
        result = capture_for(("Tls13", 2))
        index = parse_keylog(result.keylog_text)
        classified, states = classify_with_states(decoded(result))
        report = key_coverage(index, states)
        assert report.flows_with_client_hello == 1
        assert report.coverage_fraction == 1.0

    def test_quic_profile_marks_long_and_short(self):
        result = capture_for(("QuicV1", 4))
        classified = classify_capture(decoded(result))
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


def test_names_and_bytes_do_not_depend_on_the_locale(tmp_path):
    # The spec holds the app name as UTF-8 bytes, not as a JSON escape.
    spec = {**SPEC_OBJ, "apps": [{**SPEC_OBJ["apps"][0], "app_name": "com.café"}]}
    (tmp_path / "spec.json").write_bytes(json.dumps(spec, ensure_ascii=False).encode())
    written = {}
    for locale in LOCALES:
        stdout = run_in_locale(["synth", "spec.json", locale], tmp_path, locale)
        out = os.path.join(os.fsencode(tmp_path), locale.encode())
        names = sorted(os.listdir(out))
        assert stdout.splitlines() == [os.path.join(locale.encode(), name) for name in names]
        written[locale] = []
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                written[locale].append((name, fh.read()))
    assert written["ascii"] == written["utf8"]
    assert [name for name, _ in written["utf8"]] == [
        b"com.caf\xc3\xa9_20250101T000000Z_300.pcap",
        b"sslkeylog_com.caf\xc3\xa9_20250101T000000Z_300.txt",
    ]


# Six captures of 3 to 1,500 packets, the largest first, so workers finish
# out of order; the apps are listed against their names' sort order.
MULTI_SPEC = {
    "seed": 3,
    "linktype": "ethernet",
    "apps": [
        {
            "app_name": f"com.multi.{name}",
            "captures": [
                {
                    "duration_s": 60,
                    "flows": [
                        {"protocol_profile": "QuicV1", "app_data_packets": n, "rate_pps": 30},
                        {"protocol_profile": "Tls12", "app_data_packets": n // 3, "start_offset_s": 2},
                    ],
                }
                for n in sizes
            ],
        }
        for name, sizes in [("zeta", (1500, 3, 400)), ("alpha", (3, 700, 90))]
    ],
}


class TestParallelSynthesis:
    def test_any_cpu_count_writes_the_same_bytes_in_spec_order(self, tmp_path, monkeypatch):
        spec = parse_fixture_spec(MULTI_SPEC)
        sizes = _pool_sizes(monkeypatch)
        outputs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(dataset, "usable_cpus", lambda: cpus)
            out = tmp_path / str(cpus)
            written = synth_dataset(spec, out)
            assert_no_child_left()
            assert {p.parent for p in written} == {out}
            outputs[cpus] = [(p.name, p.read_bytes()) for p in written]
        assert sizes == [2]
        assert outputs[2] == outputs[1]
        labels = [
            build_capture(spec, app.app_name, ci, capture).label
            for app in spec.apps
            for ci, capture in enumerate(app.captures)
        ]
        names = [name for lb in labels for name in (render_capture_filename(lb), keylog_filename_for(lb))]
        assert [name for name, _ in outputs[1]] == names

    def test_spec_error_in_a_worker_keeps_its_field_path(self, tmp_path, monkeypatch):
        parsed = parse_fixture_spec(MULTI_SPEC)
        spec = FixtureSpec(apps=parsed.apps, base_date="not a date")
        monkeypatch.setattr(dataset, "usable_cpus", lambda: 2)
        sizes = _pool_sizes(monkeypatch)
        with pytest.raises(FixtureSpecError) as excinfo:
            synth_dataset(spec, tmp_path)
        assert_no_child_left()
        assert sizes == [2]
        assert excinfo.value.field_path == "base_date"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_directory_at_a_capture_path_exits_2(self, cpus, tmp_path, monkeypatch, capfd):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(MULTI_SPEC))
        spec = parse_fixture_spec(MULTI_SPEC)
        blocked = tmp_path / "out" / render_capture_filename(
            build_capture(spec, spec.apps[1].app_name, 1, spec.apps[1].captures[1]).label
        )
        blocked.mkdir(parents=True)
        monkeypatch.setattr(dataset, "usable_cpus", lambda: cpus)
        sizes = _pool_sizes(monkeypatch)
        code = main(["synth", str(spec_path), str(tmp_path / "out")])
        assert_no_child_left()
        out, err = capfd.readouterr()
        assert code == 2
        assert err.startswith("appcap: ") and err.count("\n") == 1
        assert blocked.name in err
        assert out == ""
        assert sizes == ([2] if cpus == 2 else [])
