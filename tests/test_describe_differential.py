"""``describe_packet`` against the re-parsing oracle in ``refdescribe``.

Generated captures hold TLS streams cut into segments at arbitrary points
(so records span packets and carried-over bytes occur), coalesced records,
SSLv2 hellos, garbage that breaks framing, truncated payloads, DoT, DNS
over UDP and TCP with compression pointers and malformed messages, QUIC v1
and v2 long headers and short headers, HTTP with non-ASCII first lines,
and empty payloads. For every packet the info must equal the oracle's, and
the TLS parser must run once per TCP payload packet in ``classify``, and in
``describe_packet`` only for a TLS packet whose records began in an earlier
segment.
"""

from __future__ import annotations

import struct
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import refdescribe
from helpers import classify_capture, mk_record

import appcap.classify
import appcap.reports
from appcap.classify import QUIC_V1, QUIC_V2, ProtoTag
from appcap.ingest import Transport
from appcap.reports import describe_packet, feature_rows
from appcap.synth import (
    build_client_hello,
    build_dns_query,
    build_dns_response,
    build_server_hello,
    sslv2_record,
    tls_record,
)
from appcap.tlswire import parse_tls_records

SETTINGS = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])

CLIENT_IP, SERVER_IP = "10.0.2.16", "203.0.113.10"
TLS_VERSIONS = [0x0300, 0x0301, 0x0302, 0x0303, 0x0304]

randoms32 = st.binary(min_size=32, max_size=32)
hello_versions = st.none() | st.lists(
    st.sampled_from(TLS_VERSIONS + [0x0A0A, 0x7F1C]), min_size=1, max_size=4
).map(tuple)
framed_records = st.one_of(
    st.builds(tls_record, st.sampled_from([20, 21, 22, 23]), st.sampled_from(TLS_VERSIONS),
              st.binary(max_size=24)),
    st.builds(build_client_hello, randoms32, st.sampled_from(TLS_VERSIONS), hello_versions),
    st.builds(build_server_hello, randoms32, st.sampled_from(TLS_VERSIONS),
              st.none() | st.sampled_from(TLS_VERSIONS)),
    st.builds(sslv2_record, st.integers(1, 4), st.binary(max_size=16)),
)
tls_records = st.one_of(
    framed_records,
    st.builds(sslv2_record, st.sampled_from([0, 5]), st.binary(max_size=4)),
    # Framing breakers: a bad version byte, an absurd length, plain garbage.
    st.builds(lambda t, body: bytes([t, 0x07, 0x01]) + body, st.sampled_from([20, 23]),
              st.binary(max_size=6)),
    st.just(struct.pack(">BHH", 23, 0x0303, 0x4800)),
    st.binary(min_size=1, max_size=6),
)


@st.composite
def tls_segments(draw) -> list[bytes]:
    """One TLS byte stream cut at arbitrary offsets; pieces may be empty."""
    stream = b"".join(draw(st.lists(tls_records, min_size=1, max_size=5)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    bounds = [0, *cuts, len(stream)]
    return [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


dns_names = st.one_of(
    st.lists(st.text("abcxyz-0", min_size=1, max_size=6), min_size=1, max_size=3).map(
        lambda labels: b"".join(bytes([len(x)]) + x.encode() for x in labels) + b"\x00"
    ),
    st.sampled_from([
        b"\xc0\x0c",  # points at itself
        b"\xc0",  # truncated pointer
        b"\xc0\xff",  # points past the end
        b"\x03abc\xc0\x0c",  # label, then a loop back
        b"\x03\xff\xfe\xfd\x00",  # not ASCII
        b"\x41abc\x00",  # reserved label type
        b"\x09ab\x00",  # label longer than the message
        b"\x03WwW\x06GooGle\x03cOm\x00",
        b"",
    ]),
)


@st.composite
def dns_messages(draw) -> bytes:
    kind = draw(st.sampled_from(["query", "response", "crafted", "short"]))
    if kind == "query":
        return build_dns_query(draw(st.integers(0, 0xFFFF)), "www.google.com")
    if kind == "response":
        return build_dns_response(draw(st.integers(0, 0xFFFF)), "connectivitycheck.gstatic.com")
    if kind == "short":
        return draw(st.binary(max_size=13))
    header = struct.pack(
        ">HHHHHH",
        draw(st.integers(0, 0xFFFF)),
        draw(st.sampled_from([0x0000, 0x0100, 0x8180, 0x8000])),
        draw(st.integers(0, 2)),
        0, 0, 0,
    )
    return header + draw(dns_names) + draw(st.binary(max_size=8))


def tcp_dns(msg: bytes) -> bytes:
    return struct.pack(">H", len(msg) & 0xFFFF) + msg


http_payloads = st.builds(
    lambda method, line, rest: method + line + rest,
    st.sampled_from([b"GET ", b"POST ", b"HTTP/", b"PUT "]),
    st.binary(max_size=100),
    st.sampled_from([b"", b"\r\nHost: x\r\n\r\n", b"\r\n"]),
)
quic_long = st.builds(
    lambda b0, version, rest: bytes([b0]) + struct.pack(">I", version) + rest,
    st.integers(0x80, 0xFF),
    st.sampled_from([QUIC_V1, QUIC_V2, 0xFF00001D, 0, 0x1A2A3A4A]),
    st.binary(max_size=12),
)
quic_short = st.builds(lambda b0, rest: bytes([b0]) + rest, st.integers(0x00, 0x7F),
                       st.binary(max_size=12))

one = st.builds(lambda payload: [payload], st.one_of(
    dns_messages().map(tcp_dns), http_payloads, st.just(b""), st.binary(max_size=20)
))
tcp_flows = st.tuples(
    st.just(Transport.TCP),
    st.sampled_from([443, 853, 53, 80, 8443]),
    st.lists(tls_segments() | one, min_size=1, max_size=4).map(lambda parts: sum(parts, [])),
)
udp_flows = st.tuples(
    st.just(Transport.UDP),
    st.sampled_from([53, 443, 5353]),
    st.lists(st.one_of(dns_messages(), quic_long, quic_short, st.binary(max_size=20), st.just(b"")),
             min_size=1, max_size=8),
)


@st.composite
def captures(draw) -> list:
    """Packet records of a few flows, each flow's packets in order."""
    records = []
    flows = draw(st.lists(tcp_flows | udp_flows, min_size=1, max_size=4))
    for index, (transport, port, payloads) in enumerate(flows):
        client_port = 40000 + index
        for payload in payloads:
            outbound = draw(st.booleans())
            ends = ((CLIENT_IP, client_port), (SERVER_IP, port))
            (src_ip, src_port), (dst_ip, dst_port) = ends if outbound else ends[::-1]
            records.append(mk_record(
                ts_ns=len(records), src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                dst_port=dst_port, transport=transport, payload=payload,
                payload_truncated=bool(payload) and draw(st.integers(0, 9)) == 0,
            ))
    return records


class _Counter:
    def __init__(self):
        self.calls = 0

    def __call__(self, data):
        self.calls += 1
        return parse_tls_records(data)


def _classify_and_describe(records):
    """Classified packets, their info, and the TLS parses each step made."""
    in_classify, in_reports = _Counter(), _Counter()
    with mock.patch.object(appcap.classify, "parse_tls_records", in_classify), \
         mock.patch.object(appcap.reports, "parse_tls_records", in_reports):
        classified = classify_capture(records)
        info = [row[7] for row in feature_rows(classified)]
    return classified, info, in_classify.calls, in_reports.calls


def _carried(classified) -> int:
    """TLS/DoT packets with payload whose records began in an earlier segment."""
    return sum(
        1 for cp in classified
        if cp.protocol.tag in (ProtoTag.TLS, ProtoTag.DOT) and cp.record.payload and cp.detail is None
    )


@SETTINGS
@given(captures())
def test_info_equals_the_reparsing_oracle(records):
    classified, info, in_classify, in_reports = _classify_and_describe(records)
    assert info == [refdescribe.describe_packet(cp) for cp in classified]
    assert info == [describe_packet(cp) for cp in classified]
    tcp_payload = sum(1 for r in records if r.transport is Transport.TCP and r.payload)
    assert in_classify == tcp_payload
    assert in_reports == _carried(classified)


whole_records = st.lists(
    st.lists(framed_records, min_size=1, max_size=3).map(b"".join), min_size=1, max_size=6
)


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from([443, 853]), whole_records), min_size=1, max_size=3))
def test_one_tls_parse_per_packet_without_carry_over(flows):
    records = [
        mk_record(ts_ns=k, src_port=40000 + index, dst_port=port, payload=payload)
        for index, (port, payloads) in enumerate(flows)
        for k, payload in enumerate(payloads)
    ]
    classified, info, in_classify, in_reports = _classify_and_describe(records)
    assert _carried(classified) == 0
    assert in_classify + in_reports <= len(records)
    assert info == [refdescribe.describe_packet(cp) for cp in classified]
