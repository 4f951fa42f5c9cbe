import random

import pytest
from helpers import classify_capture, mk_record

from appcap.classify import (
    QUIC_0RTT,
    QUIC_HANDSHAKE,
    QUIC_INITIAL,
    QUIC_RETRY,
    QUIC_V2,
    AppProtocol,
    ClassifiedPacket,
    FlowKey,
    FlowTable,
    ProtoTag,
    detect_quic,
    dns_query_name,
)
from appcap.ingest import Transport
from appcap.synth import (
    build_app_data,
    build_client_hello,
    build_dns_query,
    build_dns_response,
    build_http_204,
    build_http_get,
    build_quic_initial,
    build_quic_short,
    build_server_hello,
    build_sslv2_client_hello,
    sslv2_record,
)
from appcap.tlswire import TlsVersion

RNG = random.Random(99)
CH_RANDOM = bytes(range(32))
SH_RANDOM = bytes(range(32, 64))


def tls13_packets(dst_port=443, dst_ip="203.0.113.10", n_app=2, src_port=40000):
    """ClientHello, ServerHello, then n app-data packets, alternating."""
    rng = random.Random(7)
    packets = [
        mk_record(ts_ns=0, payload=build_client_hello(CH_RANDOM, supported_versions=(0x0304, 0x0303)),
                  dst_port=dst_port, dst_ip=dst_ip, src_port=src_port),
        mk_record(ts_ns=10, payload=build_server_hello(SH_RANDOM, selected_version=0x0304),
                  src_ip=dst_ip, dst_ip="10.0.2.16", src_port=dst_port, dst_port=src_port),
    ]
    for k in range(n_app):
        data = build_app_data(rng)
        if k % 2 == 0:
            packets.append(mk_record(ts_ns=20 + k, payload=data, dst_port=dst_port,
                                     dst_ip=dst_ip, src_port=src_port))
        else:
            packets.append(mk_record(ts_ns=20 + k, payload=data, src_ip=dst_ip,
                                     dst_ip="10.0.2.16", src_port=dst_port, dst_port=src_port))
    return packets


class TestTlsFlows:
    def test_empty_capture(self):
        assert classify_capture([]) == []

    def test_tls13_flow_labels(self):
        out = classify_capture(tls13_packets())
        assert [cp.protocol for cp in out] == [AppProtocol(ProtoTag.TLS, TlsVersion.TLS1_3)] * 4
        assert [cp.is_app_data for cp in out] == [False, False, True, True]

    def test_tls12_flow_labels(self):
        packets = [
            mk_record(ts_ns=0, payload=build_client_hello(CH_RANDOM)),
            mk_record(ts_ns=1, payload=build_server_hello(SH_RANDOM), src_ip="203.0.113.10",
                      dst_ip="10.0.2.16", src_port=443, dst_port=40000),
            mk_record(ts_ns=2, payload=build_app_data(random.Random(1))),
        ]
        out = classify_capture(packets)
        assert {cp.protocol.tls_version for cp in out} == {TlsVersion.TLS1_2}
        assert out[2].is_app_data

    def test_supported_versions_beats_legacy(self):
        # Identical ServerHello bytes minus the extension flip the flow
        # between TLS1.3 and TLS1.2.
        with_ext = classify_capture(
            [
                mk_record(ts_ns=0, payload=build_client_hello(CH_RANDOM, supported_versions=(0x0304,))),
                mk_record(ts_ns=1, payload=build_server_hello(SH_RANDOM, selected_version=0x0304),
                          src_ip="203.0.113.10", dst_ip="10.0.2.16", src_port=443, dst_port=40000),
            ]
        )
        without_ext = classify_capture(
            [
                mk_record(ts_ns=0, payload=build_client_hello(CH_RANDOM)),
                mk_record(ts_ns=1, payload=build_server_hello(SH_RANDOM),
                          src_ip="203.0.113.10", dst_ip="10.0.2.16", src_port=443, dst_port=40000),
            ]
        )
        assert with_ext[1].protocol.tls_version is TlsVersion.TLS1_3
        assert without_ext[1].protocol.tls_version is TlsVersion.TLS1_2

    def test_pure_ack_inherits_flow_protocol(self):
        packets = tls13_packets() + [mk_record(ts_ns=100, payload=b"")]
        out = classify_capture(packets)
        assert out[-1].protocol == AppProtocol(ProtoTag.TLS, TlsVersion.TLS1_3)
        assert not out[-1].is_app_data

    def test_version_monotone_after_server_hello(self):
        packets = tls13_packets(n_app=3)
        out = classify_capture(packets)
        for cp in out[1:]:
            assert cp.protocol.tls_version is TlsVersion.TLS1_3

    def test_sslv2_record_classified(self):
        packets = [
            mk_record(ts_ns=0, payload=build_sslv2_client_hello(random.Random(5))),
            mk_record(ts_ns=1, payload=sslv2_record(4, b"\x00" * 30), src_ip="203.0.113.10",
                      dst_ip="10.0.2.16", src_port=443, dst_port=40000),
        ]
        out = classify_capture(packets)
        assert all(cp.protocol == AppProtocol(ProtoTag.TLS, TlsVersion.SSLV2) for cp in out)
        assert not any(cp.is_app_data for cp in out)

    def test_unknown_ssl_without_handshake(self):
        packets = [mk_record(ts_ns=i, payload=build_app_data(random.Random(i))) for i in range(3)]
        out = classify_capture(packets)
        assert all(cp.protocol == AppProtocol(ProtoTag.TLS, TlsVersion.UNKNOWN) for cp in out)
        assert all(cp.is_app_data for cp in out)
        assert out[0].protocol.category == "SSL"

    def test_change_cipher_spec_not_app_data(self):
        ccs = bytes([0x14, 0x03, 0x03, 0x00, 0x01, 0x01])
        out = classify_capture([mk_record(payload=ccs)])
        assert out[0].protocol.tag is ProtoTag.TLS
        assert not out[0].is_app_data

    def test_record_split_across_segments(self):
        record = build_client_hello(CH_RANDOM, supported_versions=(0x0304,))
        packets = [
            mk_record(ts_ns=0, payload=record[:25]),
            mk_record(ts_ns=1, payload=record[25:]),
            mk_record(ts_ns=2, payload=build_app_data(random.Random(2))),
        ]
        out = classify_capture(packets)
        assert out[0].protocol.tag is ProtoTag.TLS
        assert not out[0].is_app_data
        # Hello completes on the second segment; hint applies from there on.
        assert out[2].protocol.tls_version is TlsVersion.TLS1_3

    def test_app_record_split_marks_both_packets(self):
        record = build_app_data(random.Random(3))
        packets = [
            mk_record(ts_ns=0, payload=record[:10]),
            mk_record(ts_ns=1, payload=record[10:]),
        ]
        out = classify_capture(packets)
        assert out[0].is_app_data  # partial header already shows type 23
        assert out[1].is_app_data

    def test_desync_keeps_tls_tag(self):
        packets = tls13_packets(n_app=1) + [
            mk_record(ts_ns=50, payload=bytes([0x17, 0x03, 0x03, 0xFF, 0xFF]) + b"x" * 40),
            mk_record(ts_ns=60, payload=build_app_data(random.Random(4))),
        ]
        out = classify_capture(packets)
        assert out[3].protocol.tag is ProtoTag.TLS
        assert not out[3].is_app_data
        # Fresh segment parses cleanly again after the reset.
        assert out[4].is_app_data

    def test_truncated_payload_does_not_poison_flow(self):
        record = build_app_data(random.Random(5))
        packets = tls13_packets(n_app=0) + [
            mk_record(ts_ns=30, payload=record[:12], payload_truncated=True),
            mk_record(ts_ns=40, payload=build_app_data(random.Random(6))),
        ]
        out = classify_capture(packets)
        assert out[2].is_app_data  # truncated packet still shows a type-23 record
        assert out[3].is_app_data  # and the next packet re-syncs


class TestDnsAndDot:
    def test_udp_do53_query(self):
        record = mk_record(transport=Transport.UDP, dst_ip="8.8.8.8", dst_port=53,
                           payload=build_dns_query(77, "www.google.com"))
        assert FlowTable().classify(record).protocol == AppProtocol(ProtoTag.DO53)
        out = classify_capture([record])
        assert out[0].protocol.tag is ProtoTag.DO53
        assert out[0].is_app_data

    def test_udp_do53_response(self):
        record = mk_record(transport=Transport.UDP, src_ip="8.8.8.8", src_port=53,
                           dst_port=40000, payload=build_dns_response(77, "www.google.com"))
        assert classify_capture([record])[0].protocol.tag is ProtoTag.DO53

    def test_tcp_do53_with_length_prefix(self):
        msg = build_dns_query(5, "example.com")
        payload = len(msg).to_bytes(2, "big") + msg
        record = mk_record(dst_port=53, payload=payload)
        assert classify_capture([record])[0].protocol.tag is ProtoTag.DO53

    def test_malformed_dns_falls_through(self):
        record = mk_record(transport=Transport.UDP, dst_port=53, payload=b"\x01\x02\x03")
        assert FlowTable().classify(record).protocol.tag is not ProtoTag.DO53
        assert classify_capture([record])[0].protocol.tag is ProtoTag.OTHER_UDP

    def test_dot_flow_versions_and_app_data(self):
        packets = tls13_packets(dst_port=853, dst_ip="8.8.8.8", n_app=2)
        out = classify_capture(packets)
        assert all(cp.protocol.tag is ProtoTag.DOT for cp in out)
        assert all(cp.protocol.tls_version is TlsVersion.TLS1_3 for cp in out)
        assert [cp.is_app_data for cp in out] == [False, False, True, True]

    def test_dot_wins_over_tls_tag_on_853(self):
        record = mk_record(dst_port=853, payload=build_client_hello(CH_RANDOM))
        assert classify_capture([record])[0].protocol.tag is ProtoTag.DOT

    def test_empty_syn_on_853_is_dot(self):
        record = mk_record(dst_port=853, payload=b"")
        out = classify_capture([record])
        assert out[0].protocol.tag is ProtoTag.DOT
        assert not out[0].is_app_data

    def test_dns_query_name_compression(self):
        msg = build_dns_response(9, "connectivitycheck.gstatic.com")
        assert dns_query_name(msg) == "connectivitycheck.gstatic.com"


class TestHttp:
    def test_get_on_port_80(self):
        record = mk_record(dst_port=80, payload=build_http_get("example.com"))
        out = classify_capture([record])
        assert out[0].protocol.tag is ProtoTag.HTTP
        assert out[0].is_app_data

    def test_status_line_on_port_80(self):
        record = mk_record(src_port=80, dst_port=40000, payload=build_http_204())
        assert classify_capture([record])[0].protocol.tag is ProtoTag.HTTP

    def test_binary_on_port_80_not_http(self):
        record = mk_record(dst_port=80, payload=b"\x01\x02\x03\x04binary")
        assert classify_capture([record])[0].protocol.tag is ProtoTag.OTHER_TCP

    def test_get_on_other_port_not_http(self):
        record = mk_record(dst_port=8081, payload=build_http_get("example.com"))
        assert classify_capture([record])[0].protocol.tag is ProtoTag.OTHER_TCP


class TestQuic:
    def test_long_header_v1(self):
        payload = build_quic_initial(random.Random(8))
        info = detect_quic(payload)
        assert info is not None and info.long_header
        assert info.version == 1
        assert info.long_packet_type == 0

    def test_long_header_detection_requires_known_version(self):
        payload = b"\xc3" + (0xDEADBEEF).to_bytes(4, "big") + b"\x00" * 20
        assert detect_quic(payload) is None

    def test_version_negotiation(self):
        payload = b"\xc0" + b"\x00\x00\x00\x00" + b"\x08" + b"\x00" * 16
        info = detect_quic(payload)
        assert info is not None and info.version == 0

    def test_short_header_needs_flow_state(self):
        payload = build_quic_short(random.Random(9))
        assert detect_quic(payload, quic_seen=False) is None
        info = detect_quic(payload, quic_seen=True)
        assert info is not None and not info.long_header

    def test_dns_payload_not_quic(self):
        assert detect_quic(build_dns_query(3, "a.example")) is None

    def test_flow_classification(self):
        rng = random.Random(10)
        packets = [
            mk_record(ts_ns=0, transport=Transport.UDP, dst_ip="203.0.113.20",
                      payload=build_quic_initial(rng)),
            mk_record(ts_ns=1, transport=Transport.UDP, dst_ip="203.0.113.20",
                      payload=build_quic_short(rng)),
        ]
        out = classify_capture(packets)
        assert [cp.protocol.tag for cp in out] == [ProtoTag.QUIC, ProtoTag.QUIC]
        assert [cp.is_app_data for cp in out] == [False, True]

    def test_short_header_without_prior_long_is_other(self):
        record = mk_record(transport=Transport.UDP, payload=build_quic_short(random.Random(11)))
        assert classify_capture([record])[0].protocol.tag is ProtoTag.OTHER_UDP

    def test_zero_rtt_counts_as_app_data(self):
        rng = random.Random(12)
        zero_rtt = b"\xd3" + (1).to_bytes(4, "big") + b"\x08" + rng.randbytes(8) + b"\x00" + rng.randbytes(40)
        packets = [
            mk_record(ts_ns=0, transport=Transport.UDP, payload=build_quic_initial(rng)),
            mk_record(ts_ns=1, transport=Transport.UDP, payload=zero_rtt),
        ]
        out = classify_capture(packets)
        assert out[1].protocol.tag is ProtoTag.QUIC
        assert out[1].is_app_data


    @staticmethod
    def _v2_long_header(type_bits: int, rng: random.Random) -> bytes:
        first = 0xC0 | (type_bits << 4) | 0x03
        return bytes([first]) + QUIC_V2.to_bytes(4, "big") + b"\x08" + rng.randbytes(8) + b"\x00" + rng.randbytes(40)

    def test_v2_packet_types_map_to_v1_numbering(self):
        # RFC 9369 section 3.2: 0b01 Initial, 0b10 0-RTT, 0b11 Handshake, 0b00 Retry.
        rng = random.Random(13)
        types = [detect_quic(self._v2_long_header(bits, rng)).long_packet_type for bits in range(4)]
        assert types == [QUIC_RETRY, QUIC_INITIAL, QUIC_0RTT, QUIC_HANDSHAKE]

    def test_v2_zero_rtt_counts_as_app_data(self):
        rng = random.Random(14)
        packets = [
            mk_record(ts_ns=0, transport=Transport.UDP, payload=self._v2_long_header(0b01, rng)),
            mk_record(ts_ns=1, transport=Transport.UDP, payload=self._v2_long_header(0b10, rng)),
        ]
        out = classify_capture(packets)
        assert [cp.protocol.tag for cp in out] == [ProtoTag.QUIC, ProtoTag.QUIC]
        assert [cp.is_app_data for cp in out] == [False, True]

    def test_v2_initial_is_not_app_data(self):
        # The same first byte is 0-RTT under v1 but Initial under v2.
        rng = random.Random(15)
        record = mk_record(transport=Transport.UDP, payload=self._v2_long_header(0b01, rng))
        out = classify_capture([record])
        assert out[0].protocol.tag is ProtoTag.QUIC
        assert not out[0].is_app_data


class TestFlowMechanics:
    def test_flow_key_direction_invariant(self):
        fwd = mk_record(payload=b"x")
        rev = mk_record(src_ip="203.0.113.10", dst_ip="10.0.2.16", src_port=443, dst_port=40000,
                        payload=b"y")
        assert FlowKey.from_record(fwd) == FlowKey.from_record(rev)

    def test_flow_key_is_a_checked_tuple(self):
        key = FlowKey.from_record(mk_record(payload=b"x"))
        assert type(key).__hash__ is tuple.__hash__ and type(key).__eq__ is tuple.__eq__
        assert key == tuple(key) and hash(key) == hash(tuple(key))
        with pytest.raises(ValueError):
            FlowKey(key.endpoint_hi, key.endpoint_lo, key.transport)
        with pytest.raises(ValueError):
            key._replace(endpoint_lo=("255.255.255.255", 65535))

    def test_interleaving_preserves_labels(self):
        flow_a = tls13_packets(n_app=4, src_port=40001)
        flow_b = [
            mk_record(ts_ns=i, transport=Transport.UDP, dst_port=53, dst_ip="8.8.8.8",
                      src_port=40002, payload=build_dns_query(i, "www.google.com"))
            for i in range(4)
        ]
        contiguous = classify_capture(flow_a + flow_b)
        rng = random.Random(13)
        merged, order = [], []
        ia = ib = 0
        while ia < len(flow_a) or ib < len(flow_b):
            take_a = ib >= len(flow_b) or (ia < len(flow_a) and rng.random() < 0.5)
            if take_a:
                merged.append(flow_a[ia]); order.append(("a", ia)); ia += 1
            else:
                merged.append(flow_b[ib]); order.append(("b", ib)); ib += 1
        interleaved = classify_capture(merged)
        by_flow = {("a", i): contiguous[i] for i in range(len(flow_a))}
        by_flow.update({("b", i): contiguous[len(flow_a) + i] for i in range(len(flow_b))})
        for key, got in zip(order, interleaved):
            want = by_flow[key]
            assert got.protocol == want.protocol
            assert got.is_app_data == want.is_app_data

    def test_classification_deterministic(self):
        packets = tls13_packets(n_app=6)
        first = classify_capture(packets)
        second = classify_capture(packets)
        assert [(c.protocol, c.is_app_data) for c in first] == [
            (c.protocol, c.is_app_data) for c in second
        ]

    def test_flow_table_classify(self):
        flows = FlowTable()
        cp = flows.classify(mk_record(payload=build_client_hello(CH_RANDOM)))
        assert cp.protocol.tag is ProtoTag.TLS
        assert flows.states[cp.flow].client_random == CH_RANDOM

    def test_app_data_without_payload_refused(self):
        record = mk_record(payload=b"")
        with pytest.raises(ValueError):
            ClassifiedPacket(record, AppProtocol(ProtoTag.OTHER_TCP), True, FlowKey.from_record(record))

    def test_replace_keeps_the_app_data_check(self):
        record = mk_record(payload=b"")
        cp = ClassifiedPacket(record, AppProtocol(ProtoTag.OTHER_TCP), False, FlowKey.from_record(record))
        with pytest.raises(ValueError):
            cp._replace(is_app_data=True)

    def test_classified_packet_is_read_only_and_hashable(self):
        first, second = (classify_capture([mk_record(payload=b"x")])[0] for _ in range(2))
        assert first == second and first is not second
        assert hash(first) == hash(second)
        with pytest.raises(AttributeError):
            first.is_app_data = True
        with pytest.raises(AttributeError):
            first.protocol = second.protocol

    def test_empty_payload_on_fresh_flow_is_other(self):
        out = classify_capture([mk_record(payload=b"")])
        assert out[0].protocol.tag is ProtoTag.OTHER_TCP

    def test_app_data_implies_payload(self):
        packets = tls13_packets() + [mk_record(ts_ns=99, payload=b"")]
        for cp in classify_capture(packets):
            if cp.is_app_data:
                assert cp.record.payload

    def test_every_packet_gets_one_tag(self):
        rng = random.Random(14)
        packets = tls13_packets() + [
            mk_record(ts_ns=200, transport=Transport.UDP, dst_port=5353, payload=rng.randbytes(20)),
            mk_record(ts_ns=201, dst_port=9999, payload=rng.randbytes(16)),
        ]
        out = classify_capture(packets)
        assert len(out) == len(packets)
        assert all(isinstance(cp.protocol, AppProtocol) for cp in out)

    def test_total_over_random_payloads(self):
        # Totality: arbitrary payloads on arbitrary ports never raise.
        rng = random.Random(15)
        interesting_ports = [53, 80, 443, 853, 8080, 5353]
        packets = []
        for i in range(1000):
            transport = Transport.TCP if rng.random() < 0.5 else Transport.UDP
            packets.append(
                mk_record(
                    ts_ns=i,
                    transport=transport,
                    src_port=rng.choice(interesting_ports + [40000 + i % 7]),
                    dst_port=rng.choice(interesting_ports),
                    payload=rng.randbytes(rng.randrange(0, 60)),
                )
            )
        out = classify_capture(packets)
        assert len(out) == 1000
        for cp in out:
            if cp.is_app_data:
                assert cp.record.payload
