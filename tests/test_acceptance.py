"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion as it executes.
"""

import functools
import json
import os
import random
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
from helpers import classify_capture, classify_with_states, mk_classified, mk_record, proto
from refdissect import server_hello_fields, tls_record_fields

from appcap.analytics import (
    QuicBehavior,
    compare_datasets,
    dataset_mean_ppm,
    encryption_breakdown,
    mean_ppm_per_app,
    quic_behavior_for,
    tally,
)
from appcap.classify import ProtoTag
from appcap.dataset import CaptureLabel
from appcap.cli import main
from appcap.ingest import (
    CaptureError,
    Transport,
    TruncatedFrame,
    TruncatedHeader,
    UnknownMagic,
    read_capture,
)
from appcap.keylog import key_coverage, parse_keylog
from appcap.synth import (
    build_app_data,
    build_client_hello,
    build_server_hello,
    build_quic_initial,
    build_quic_short,
    build_server_hello as _sh,
)
from appcap.tlswire import TlsVersion, parse_tls_records, resolve_tls_version

UTC = timezone.utc


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:>2}] FAIL  {description}")
                raise
            print(f"[criterion {number:>2}] PASS  {description}")

        return wrapper

    return decorate


FIXTURES = Path(__file__).parent.parent / "fixtures"


@criterion(1, "Background closed loop: synth then analyze, exact counts, < 1 s")
def test_criterion_1_background_closed_loop(tmp_path):
    spec_path = FIXTURES / "background.json"
    started = time.perf_counter()
    assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 0
    capture = next((tmp_path / "data").glob("*.pcap"))
    out = tmp_path / "report.json"
    assert main(["analyze", str(capture), "--json", str(out)]) == 0
    elapsed = time.perf_counter() - started
    body = json.loads(out.read_text())["body"]
    counts = {(r["transport"], r["protocol"]): r["count"] for r in body["distribution"]["rows"]}
    assert counts == {
        ("UDP", "Do53"): 14,
        ("TCP", "HTTP"): 4,
        ("TCP", "TLSv1.3"): 489,
        ("TCP", "DoT"): 19,
    }
    assert body["distribution"]["total"] == 526
    assert elapsed < 1.0, f"closed loop took {elapsed:.2f}s"


@criterion(2, "ServerHello supported_versions wins over legacy version, zero tolerance")
def test_criterion_2_tls_version_resolution():
    random32 = bytes(range(32))
    with_ext = build_server_hello(random32, legacy_version=0x0303, selected_version=0x0304)
    without_ext = build_server_hello(random32, legacy_version=0x0303)

    # Independent reference dissection of both crafted messages first.
    ref_with = server_hello_fields(tls_record_fields(with_ext)["body"])
    ref_without = server_hello_fields(tls_record_fields(without_ext)["body"])
    assert ref_with["legacy_version"] == 0x0303
    assert ref_with["supported_version"] == 0x0304
    assert ref_without["legacy_version"] == 0x0303
    assert ref_without["supported_version"] is None

    view_with = parse_tls_records(with_ext)[0][0]
    view_without = parse_tls_records(without_ext)[0][0]
    assert resolve_tls_version(None, view_with) is TlsVersion.TLS1_3
    assert resolve_tls_version(None, view_without) is TlsVersion.TLS1_2

    # Same outcome at flow level: identical bytes minus the extension.
    def flow(server_hello):
        return [
            mk_record(ts_ns=0, payload=build_client_hello(random32)),
            mk_record(ts_ns=1, src_ip="203.0.113.10", dst_ip="10.0.2.16",
                      src_port=443, dst_port=40000, payload=server_hello),
        ]

    assert classify_capture(flow(with_ext))[1].protocol.tls_version is TlsVersion.TLS1_3
    assert classify_capture(flow(without_ext))[1].protocol.tls_version is TlsVersion.TLS1_2


def _version_flows(mix: dict, base_port=43000):
    """One TLS flow per (version-or-None, app_records) entry; None means no
    handshake, i.e. the unresolvable SSL bucket."""
    records = []
    rng = random.Random(42)
    for i, (wire_version, n) in enumerate(mix.items()):
        port = base_port + i
        if wire_version is not None:
            supported = (0x0304,) if wire_version == 0x0304 else None
            records.append(mk_record(ts_ns=i * 1000, src_port=port,
                                     payload=build_client_hello(rng.randbytes(32),
                                                                legacy_version=min(wire_version, 0x0303),
                                                                supported_versions=supported)))
            records.append(mk_record(ts_ns=i * 1000 + 1, src_ip="203.0.113.10",
                                     dst_ip="10.0.2.16", src_port=443, dst_port=port,
                                     payload=_sh(rng.randbytes(32),
                                                 legacy_version=min(wire_version, 0x0303),
                                                 selected_version=0x0304 if wire_version == 0x0304 else None)))
        for k in range(n):
            records.append(mk_record(ts_ns=i * 1000 + 2 + k, src_port=port,
                                     payload=build_app_data(rng)))
    return classify_capture(records)


@criterion(3, "Encryption-evolution shares 90.0/9.6 and 6.7/77.7/14.2 within 0.1")
def test_criterion_3_encryption_evolution():
    dataset_b = _version_flows({0x0304: 900, 0x0303: 96, 0x0301: 4})
    shares_b = encryption_breakdown(tally(dataset_b)).tcp_encrypted_pct
    assert shares_b[TlsVersion.TLS1_3] == pytest.approx(90.0, abs=0.1)
    assert shares_b[TlsVersion.TLS1_2] == pytest.approx(9.6, abs=0.1)

    dataset_a = _version_flows({0x0304: 67, 0x0303: 777, None: 142, 0x0301: 14})
    shares_a = encryption_breakdown(tally(dataset_a)).tcp_encrypted_pct
    assert shares_a[TlsVersion.TLS1_3] == pytest.approx(6.7, abs=0.1)
    assert shares_a[TlsVersion.TLS1_2] == pytest.approx(77.7, abs=0.1)
    assert shares_a[TlsVersion.UNKNOWN] == pytest.approx(14.2, abs=0.1)


@criterion(4, "DNS evolution 91.0/9.0 vs 18.9/81.1 within 0.1")
def test_criterion_4_dns_evolution(tmp_path):
    for name in ("a", "b"):
        spec_path = FIXTURES / f"dns_evolution_{name}.json"
        assert main(["synth", str(spec_path), str(tmp_path / name)]) == 0
    out = tmp_path / "cmp.json"
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--json", str(out)]) == 0
    dns = json.loads(out.read_text())["body"]["dns_evolution"]
    assert dns["do53_pct_a"] == pytest.approx(91.0, abs=0.1)
    assert dns["dot_pct_a"] == pytest.approx(9.0, abs=0.1)
    assert dns["do53_pct_b"] == pytest.approx(18.9, abs=0.1)
    assert dns["dot_pct_b"] == pytest.approx(81.1, abs=0.1)


# Calibrated per-app packet rates: (app, dataset-b ppm, dataset-a ppm).
REFERENCE_RATES = [
    ("app.sachnoi", 2278, 5626),
    ("com.facebook.katana", 20310, 6385),
    ("com.instagram.android", 8081, 10547),
    ("com.reddit.frontpage", 4047, 18142),
    ("com.skype.raider", 1588, 71584),
    ("com.soundcloud.android", 7988, 3424),
    ("com.spotify.music", 2248, 2443),
    ("fm.castbox.audiobook.radio.podcast", 3166, 14728),
    ("myradio.radio.fmradio.liveradio.radiostation", 3583, 24067),
    ("vn.vtv.vtvgo", 4516, 50444),
]


def _rate_capture(app, ppm, day=1):
    label = CaptureLabel(app, datetime(2025, 1, day, tzinfo=UTC), 300)
    packet = mk_classified(proto(ProtoTag.QUIC))
    return (label, tally([packet] * (ppm * 5)))


@criterion(5, "Per-app rates within 1 ppm; means ratio 5.3 +-0.05; top ratio 7.53 +-0.01")
def test_criterion_5_ppm_and_ratios():
    dataset_b = [_rate_capture(app, ppm_b) for app, ppm_b, _ in REFERENCE_RATES]
    dataset_a = [_rate_capture(app, ppm_a) for app, _, ppm_a in REFERENCE_RATES]
    by_app_b = {r.app_name: r.mean_ppm for r in mean_ppm_per_app(dataset_b)}
    by_app_a = {r.app_name: r.mean_ppm for r in mean_ppm_per_app(dataset_a)}
    for app, ppm_b, ppm_a in REFERENCE_RATES:
        assert abs(by_app_b[app] - ppm_b) <= 1
        assert abs(by_app_a[app] - ppm_a) <= 1

    a = [_rate_capture(f"common.app{i}", 21288) for i in range(4)]
    b = [_rate_capture(f"common.app{i}", 4019) for i in range(4)]
    mean_a = dataset_mean_ppm(mean_ppm_per_app(a))
    mean_b = dataset_mean_ppm(mean_ppm_per_app(b))
    assert mean_a == pytest.approx(21288)
    assert mean_b == pytest.approx(4019)
    assert mean_a / mean_b == pytest.approx(5.3, abs=0.05)

    chess = compare_datasets([_rate_capture("com.chess", 1000)],
                             [_rate_capture("com.chess", 7530)])
    assert chess.ppm_rows[0].ratio_b_over_a == pytest.approx(7.53, abs=0.01)


@criterion(6, "QUIC behavior taxonomy: four-fixture matrix plus exhaustiveness")
def test_criterion_6_quic_taxonomy():
    rng = random.Random(55)

    def quic_capture(app, present, day):
        label = CaptureLabel(app, datetime(2025, 1, day, tzinfo=UTC), 300)
        if present:
            records = [
                mk_record(ts_ns=0, transport=Transport.UDP, dst_ip="203.0.113.20",
                          payload=build_quic_initial(rng)),
                mk_record(ts_ns=1, transport=Transport.UDP, dst_ip="203.0.113.20",
                          payload=build_quic_short(rng)),
            ]
        else:
            records = [mk_record(ts_ns=0, payload=build_app_data(rng))]
        return (label, tally(classify_capture(records)))

    a = [quic_capture("both", True, 1), quic_capture("only.a", True, 1),
         quic_capture("adopted", False, 1), quic_capture("neither", False, 1)]
    b = [quic_capture("both", True, 2), quic_capture("only.a", False, 2),
         quic_capture("adopted", True, 2), quic_capture("neither", False, 2)]
    report = compare_datasets(a, b)
    assert report.quic_behavior == {
        "both": QuicBehavior.CONSISTENT_BOTH,
        "only.a": QuicBehavior.PRESENT_IN_A_ONLY_IN_B_ABSENT,
        "adopted": QuicBehavior.ADOPTED_IN_B,
        "neither": QuicBehavior.ABSENT_BOTH,
    }
    outcomes = {quic_behavior_for(a_n, b_n) for a_n in (0, 3) for b_n in (0, 7)}
    assert outcomes == set(QuicBehavior)


@criterion(7, "Property suites: >=1000 cases each, all green, < 30 s")
def test_criterion_7_property_suites():
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).parent / "test_properties.py"), "-q"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stdout + result.stderr
    assert "7 passed" in result.stdout
    assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"


@criterion(8, "Keylog closed loop: coverage 1.0; one removed entry drops it by 1/flows")
def test_criterion_8_keylog_closed_loop(tmp_path):
    spec = {
        "seed": 13,
        "apps": [{"app_name": "com.keys", "captures": [{
            "duration_s": 300,
            "flows": [{"protocol_profile": "Tls13", "app_data_packets": 3,
                       "start_offset_s": i, "rate_pps": 10} for i in range(4)]
                     + [{"protocol_profile": "DoT", "app_data_packets": 3,
                         "start_offset_s": 40, "rate_pps": 10}],
        }]}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", str(spec_path), str(tmp_path / "d")]) == 0
    capture = next((tmp_path / "d").glob("*.pcap"))
    keylog_path = next((tmp_path / "d").glob("sslkeylog_*.txt"))

    from appcap.ingest import decode_stream, read_capture as read

    classified, states = classify_with_states(decode_stream(read(capture.read_bytes())))
    full_index = parse_keylog(keylog_path.read_text())
    full = key_coverage(full_index, states)
    assert full.flows_with_client_hello == 5
    assert full.coverage_fraction == 1.0

    # Remove one flow's key material (all lines bearing its client random).
    dropped_random = sorted(full_index.by_random)[0].hex()
    kept_lines = [line for line in keylog_path.read_text().splitlines()
                  if dropped_random not in line]
    reduced = key_coverage(parse_keylog("\n".join(kept_lines)), states)
    assert reduced.coverage_fraction == pytest.approx(
        full.coverage_fraction - 1 / full.flows_with_client_hello
    )


@criterion(9, "Malformed inputs: specified errors surface; 10k-input fuzz never crashes")
def test_criterion_9_robustness():
    with pytest.raises(UnknownMagic):
        read_capture(b"\x0a\x0d\x0d\x0a" + b"\x00" * 24)
    with pytest.raises(TruncatedHeader):
        read_capture(b"\xd4\xc3\xb2\xa1" + b"\x00" * 10)
    with pytest.raises(TruncatedFrame):
        read_capture(b"\xd4\xc3\xb2\xa1" + b"\x00" * 20 + b"\xff" * 16)
    index = parse_keylog("garbage\nsecond bad line\n# fine\n")
    assert index.malformed_lines == 2

    rng = random.Random(0)
    valid_header = bytes.fromhex("d4c3b2a1020004000000000000000000ffff000001000000")
    failures = 0
    for i in range(10_000):
        size = rng.randrange(0, 120)
        blob = rng.randbytes(size)
        if i % 3 == 0:
            blob = valid_header[: rng.randrange(0, len(valid_header))] + blob
        elif i % 3 == 1:
            blob = valid_header + blob
        try:
            read_capture(blob)
        except CaptureError:
            pass
        except Exception:
            failures += 1
    assert failures == 0


@pytest.mark.skipif(
    "APPCAP_REAL_BACKGROUND_PCAP" not in os.environ,
    reason="optional: set APPCAP_REAL_BACKGROUND_PCAP to a real background capture",
)
@criterion(10, "Optional real-dataset reproduction (non-gating)")
def test_criterion_10_real_dataset(tmp_path):
    capture = Path(os.environ["APPCAP_REAL_BACKGROUND_PCAP"])
    out = tmp_path / "real.json"
    assert main(["analyze", str(capture), "--json", str(out)]) == 0
    body = json.loads(out.read_text())["body"]
    counts = {(r["transport"], r["protocol"]): r["count"] for r in body["distribution"]["rows"]}
    assert counts[("UDP", "Do53")] == 14
    assert counts[("TCP", "HTTP")] == 4
    assert counts[("TCP", "TLSv1.3")] == 489
    assert counts[("TCP", "DoT")] == 19
