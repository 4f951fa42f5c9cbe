"""Property suites: grammar round-trips, classification invariance and
counting conservation laws, each over at least 1,000 generated cases."""

import random
from datetime import datetime, timezone
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from helpers import classify_capture, mk_classified, mk_record, proto

from appcap.analytics import protocol_distribution, tally, temporal_histogram, timeline
from appcap.classify import FlowState, ProtoTag
from appcap.dataset import (
    CaptureLabel,
    parse_capture_filename,
    render_capture_filename,
    scan_dataset,
    truncate_packets,
)
from appcap.ingest import Transport
from appcap.keylog import KeyIndex, KeyLogEntry, key_coverage
from appcap.synth import (
    build_app_data,
    build_client_hello,
    build_dns_query,
    build_quic_initial,
    build_quic_short,
    build_server_hello,
)
from appcap.tlswire import TlsVersion

MANY = settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

app_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._", min_size=1, max_size=24
)
epoch_seconds = st.integers(min_value=0, max_value=2**31 - 1)
durations = st.integers(min_value=1, max_value=86400)


@MANY
@given(app=app_names, epoch=epoch_seconds, duration=durations)
def test_filename_grammar_round_trip(app, epoch, duration):
    label = CaptureLabel(
        app_name=app,
        capture_date=datetime.fromtimestamp(epoch, tz=timezone.utc),
        duration_s=duration,
    )
    assert parse_capture_filename(render_capture_filename(label)) == label


def _template_flows():
    rng = random.Random(1234)
    tls = [
        mk_record(ts_ns=0, src_port=41000,
                  payload=build_client_hello(rng.randbytes(32), supported_versions=(0x0304,))),
        mk_record(ts_ns=1, src_ip="203.0.113.10", dst_ip="10.0.2.16", src_port=443,
                  dst_port=41000, payload=build_server_hello(rng.randbytes(32),
                                                             selected_version=0x0304)),
        mk_record(ts_ns=2, src_port=41000, payload=build_app_data(rng)),
        mk_record(ts_ns=3, src_port=41000, payload=b""),
    ]
    dns = [
        mk_record(ts_ns=i, transport=Transport.UDP, src_port=41001, dst_ip="8.8.8.8",
                  dst_port=53, payload=build_dns_query(i, "www.google.com"))
        for i in range(4)
    ]
    quic = [
        mk_record(ts_ns=0, transport=Transport.UDP, src_port=41002, dst_ip="203.0.113.20",
                  payload=build_quic_initial(rng)),
        mk_record(ts_ns=1, transport=Transport.UDP, src_port=41002, dst_ip="203.0.113.20",
                  payload=build_quic_short(rng)),
        mk_record(ts_ns=2, transport=Transport.UDP, src_port=41002, dst_ip="203.0.113.20",
                  payload=build_quic_short(rng)),
    ]
    return [tls, dns, quic]


FLOWS = _template_flows()
_SLOTS = [i for i, flow in enumerate(FLOWS) for _ in flow]
_CONTIGUOUS = classify_capture([r for flow in FLOWS for r in flow])
_BASE_LABELS = {}
_cursor = 0
for _i, _flow in enumerate(FLOWS):
    for _k in range(len(_flow)):
        cp = _CONTIGUOUS[_cursor]
        _BASE_LABELS[(_i, _k)] = (cp.protocol, cp.is_app_data)
        _cursor += 1


@MANY
@given(order=st.permutations(_SLOTS))
def test_classification_invariant_under_interleaving(order):
    taken = [0] * len(FLOWS)
    merged = []
    keys = []
    for flow_id in order:
        k = taken[flow_id]
        taken[flow_id] += 1
        merged.append(FLOWS[flow_id][k])
        keys.append((flow_id, k))
    out = classify_capture(merged)
    for key, cp in zip(keys, out):
        assert (cp.protocol, cp.is_app_data) == _BASE_LABELS[key]


_HIST_PROTOS = [
    proto(ProtoTag.TLS, TlsVersion.TLS1_3),
    proto(ProtoTag.TLS, TlsVersion.UNKNOWN),
    proto(ProtoTag.DOT, TlsVersion.TLS1_3),
    proto(ProtoTag.DO53),
    proto(ProtoTag.QUIC),
    proto(ProtoTag.HTTP),
]

packet_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=600),
        st.integers(min_value=0, max_value=len(_HIST_PROTOS) - 1),
        st.booleans(),
    ),
    max_size=40,
)


def _build_packets(specs):
    return [
        mk_classified(_HIST_PROTOS[idx], ts_ns=int(sec * 1e9), is_app_data=app)
        for sec, idx, app in specs
    ]


@MANY
@given(specs=packet_specs)
def test_histogram_conservation(specs):
    packets = _build_packets(specs)
    hist = temporal_histogram(timeline(packets))
    expected = {}
    category = {
        ProtoTag.TLS: "tcp_encrypted",
        ProtoTag.DOT: "dot",
        ProtoTag.DO53: "do53",
        ProtoTag.QUIC: "quic",
        ProtoTag.HTTP: "http",
    }
    for cp in packets:
        if cp.is_app_data:
            key = category[cp.protocol.tag]
            expected[key] = expected.get(key, 0) + 1
    assert {k: sum(v) for k, v in hist.series.items() if sum(v)} == expected


@MANY
@given(specs=packet_specs)
def test_distribution_percentages_sum_to_100(specs):
    packets = _build_packets(specs)
    dist = protocol_distribution(tally(packets))
    if dist.total:
        assert abs(sum(dist.percentages.values()) - 100.0) <= 0.1
    else:
        assert dist.percentages == {}


@MANY
@given(
    seconds=st.lists(st.integers(min_value=0, max_value=3600), max_size=40),
    minutes=st.floats(min_value=0.05, max_value=30, allow_nan=False),
)
def test_truncation_idempotent(seconds, minutes):
    packets = [mk_classified(proto(ProtoTag.QUIC), ts_ns=int(s * 1e9)) for s in seconds]
    once = truncate_packets(packets, minutes)
    assert truncate_packets(once, minutes) == once


@MANY
@given(
    flow_seeds=st.sets(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=8),
    data=st.data(),
)
def test_coverage_monotone_in_index(flow_seeds, data):
    randoms = [seed.to_bytes(32, "big") for seed in sorted(flow_seeds)]
    states = {}
    for i, rnd in enumerate(randoms):
        cp = mk_classified(proto(ProtoTag.TLS, TlsVersion.TLS1_3), src_port=42000 + i)
        states[cp.flow] = FlowState(client_random=rnd, tls_seen=True)
    known = data.draw(st.sets(st.sampled_from(randoms)))
    index = KeyIndex()
    for rnd in known:
        index.add(KeyLogEntry("CLIENT_RANDOM", rnd, b"\x01"))
    before = key_coverage(index, states).coverage_fraction
    extra = data.draw(st.sampled_from(randoms))
    index.add(KeyLogEntry("SERVER_TRAFFIC_SECRET_0", extra, b"\x02"))
    after = key_coverage(index, states).coverage_fraction
    assert after >= before
    assert 0.0 <= before <= 1.0 and 0.0 <= after <= 1.0


valid_stems = st.builds(
    lambda app, epoch, dur: CaptureLabel(
        app, datetime.fromtimestamp(epoch, tz=timezone.utc), dur
    ).stem,
    app_names,
    epoch_seconds,
    durations,
)
bogus_names = st.sampled_from(
    ["x.pcap", "a_b_c.pcap", "app_20250101T000000Z_0.pcap", "readme.md",
     "_20250101T000000Z_3.pcap", "app_2025_300.pcap"]
)


@MANY
@given(
    stems=st.lists(valid_stems, max_size=6, unique=True),
    bogus=st.lists(bogus_names, max_size=4),
    keylog_picks=st.data(),
)
def test_manifest_conservation(stems, bogus, keylog_picks):
    paths = [Path(f"data/{stem}.pcap") for stem in stems]
    paths += [Path(f"data/{name}") for name in bogus]
    with_keys = keylog_picks.draw(st.sets(st.sampled_from(stems)) if stems else st.just(set()))
    paths += [Path(f"data/sslkeylog_{stem}.txt") for stem in with_keys]
    n_pcaps = sum(1 for p in paths if p.name.endswith(".pcap"))
    manifest = scan_dataset(paths)
    assert len(manifest.entries) + len(manifest.unparseable) == n_pcaps
    paired = {e.capture_path.name[: -len(".pcap")] for e in manifest.entries if e.keylog_path}
    assert paired == set(with_keys)
