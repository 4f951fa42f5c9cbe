"""Shared test builders.

Frame builders here are written independently of appcap.synth, straight from
the header layout tables, so ingest tests check the production decoder
against a second implementation rather than against itself.
"""

from __future__ import annotations

import struct

from appcap.classify import AppProtocol, ClassifiedPacket, FlowKey, FlowTable, ProtoTag, dns_query_name
from appcap.dataset import (
    CONNECTIVITY_DNS_NAMES,
    CONNECTIVITY_HTTP_HOST,
    SYSTEM_DNS_IPS,
    BackgroundKind,
    http_request_host,
)
from appcap.ingest import PacketRecord, Transport
from appcap.tlswire import TlsVersion

# --- pcap file bytes ---------------------------------------------------------

PCAP_MAGIC_US_LE = 0xA1B2C3D4
PCAP_MAGIC_NS_LE = 0xA1B23C4D


def pcap_header(magic=PCAP_MAGIC_US_LE, little=True, linktype=1, snaplen=65535) -> bytes:
    endian = "<" if little else ">"
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)


def pcap_record(frame: bytes, ts_sec=0, ts_sub=0, little=True, orig_len=None) -> bytes:
    endian = "<" if little else ">"
    if orig_len is None:
        orig_len = len(frame)
    return struct.pack(endian + "IIII", ts_sec, ts_sub, len(frame), orig_len) + frame


def pcap_file(frames, **header_kwargs) -> bytes:
    little = header_kwargs.pop("little", True)
    out = pcap_header(little=little, **header_kwargs)
    for item in frames:
        if isinstance(item, bytes):
            out += pcap_record(item, little=little)
        else:
            ts_sec, ts_sub, frame = item
            out += pcap_record(frame, ts_sec=ts_sec, ts_sub=ts_sub, little=little)
    return out


# --- link / network / transport layers ---------------------------------------


def eth(payload: bytes, ethertype=0x0800) -> bytes:
    return b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ethertype) + payload


def eth_vlan(payload: bytes, inner_ethertype=0x0800, tci=0x0064) -> bytes:
    return (
        b"\xaa" * 6
        + b"\xbb" * 6
        + struct.pack(">HHH", 0x8100, tci, inner_ethertype)
        + payload
    )


def sll(payload: bytes, proto=0x0800, pkt_type=0) -> bytes:
    # packet type, ARPHRD, addr len, addr (8), protocol
    return struct.pack(">HHH8sH", pkt_type, 1, 6, b"\xcc" * 6 + b"\x00\x00", proto) + payload


def sll2(payload: bytes, proto=0x0800) -> bytes:
    # protocol, reserved, ifindex, ARPHRD, packet type, addr len, addr (8)
    return struct.pack(">HHIHBB8s", proto, 0, 2, 1, 0, 6, b"\xcc" * 6 + b"\x00\x00") + payload


def ip4(payload: bytes, src="10.0.2.16", dst="8.8.8.8", proto=17, frag=0, ihl_words=5,
        total_len=None, options=b"") -> bytes:
    header_len = ihl_words * 4
    if total_len is None:
        total_len = header_len + len(payload)
    src_b = bytes(int(x) for x in src.split("."))
    dst_b = bytes(int(x) for x in dst.split("."))
    header = struct.pack(
        ">BBHHHBBH4s4s",
        (4 << 4) | ihl_words,
        0,
        total_len,
        1,
        frag,
        64,
        proto,
        0,
        src_b,
        dst_b,
    )
    return header + options + payload


def ip6(payload: bytes, src="2001:db8::1", dst="2001:db8::2", next_header=6,
        payload_len=None) -> bytes:
    import ipaddress

    if payload_len is None:
        payload_len = len(payload)
    return (
        struct.pack(">IHBB", 6 << 28, payload_len, next_header, 64)
        + ipaddress.IPv6Address(src).packed
        + ipaddress.IPv6Address(dst).packed
        + payload
    )


def udp(payload: bytes, sport=40000, dport=53, length=None) -> bytes:
    if length is None:
        length = 8 + len(payload)
    return struct.pack(">HHHH", sport, dport, length, 0) + payload


def tcp(payload: bytes, sport=40000, dport=443, flags=0x18, seq=1, ack=1) -> bytes:
    return struct.pack(">HHIIBBHHH", sport, dport, seq, ack, 0x50, flags, 65535, 0, 0) + payload


# --- quick record / classified-packet factories -------------------------------


def mk_record(
    ts_ns=0,
    src_ip="10.0.2.16",
    dst_ip="203.0.113.10",
    src_port=40000,
    dst_port=443,
    transport=Transport.TCP,
    payload=b"",
    packet_len=None,
    payload_truncated=False,
) -> PacketRecord:
    if packet_len is None:
        packet_len = len(payload) + 54
    return PacketRecord(
        ts_ns=ts_ns,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        transport=transport,
        packet_len=packet_len,
        payload=payload,
        payload_truncated=payload_truncated,
    )


def mk_classified(
    protocol: AppProtocol,
    ts_ns=0,
    is_app_data=True,
    transport=None,
    payload=b"\x00",
    src_port=40000,
    dst_port=None,
    src_ip="10.0.2.16",
    dst_ip="203.0.113.10",
) -> ClassifiedPacket:
    if transport is None:
        transport = (
            Transport.UDP
            if protocol.tag in (ProtoTag.QUIC, ProtoTag.DO53, ProtoTag.OTHER_UDP)
            else Transport.TCP
        )
    if dst_port is None:
        dst_port = {
            ProtoTag.HTTP: 80,
            ProtoTag.DO53: 53,
            ProtoTag.DOT: 853,
        }.get(protocol.tag, 443)
    record = mk_record(
        ts_ns=ts_ns,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        transport=transport,
        payload=payload,
    )
    return ClassifiedPacket(
        record=record,
        protocol=protocol,
        is_app_data=is_app_data,
        flow=FlowKey.from_record(record),
    )


def tls13_proto() -> AppProtocol:
    return AppProtocol(ProtoTag.TLS, TlsVersion.TLS1_3)


def proto(tag: ProtoTag, version: TlsVersion | None = None) -> AppProtocol:
    return AppProtocol(tag, version)


def classify_capture(packets) -> list[ClassifiedPacket]:
    """Classify a capture's packets in order with a fresh flow table."""
    flows = FlowTable()
    return [flows.classify(record) for record in packets]


def classify_with_states(records):
    """Classify records in order with one flow table; return packets and flow states."""
    flows = FlowTable()
    return [flows.classify(r) for r in records], flows.states


def attribute_background_two_pass(classified) -> list[BackgroundKind]:
    """Reference for ``dataset.attribute_background``: one tag per packet,
    from two passes over the list. The first finds each HTTP flow's host
    (from its first request) and the connectivity DNS transactions; the
    second tags each packet."""
    http_flow_host: dict = {}
    connectivity_txns: set = set()
    for cp in classified:
        if cp.protocol.tag is ProtoTag.HTTP and cp.record.payload:
            if cp.flow not in http_flow_host:
                host = http_request_host(cp.record.payload)
                if host is not None:
                    http_flow_host[cp.flow] = host
        elif cp.protocol.tag is ProtoTag.DO53 and cp.detail is not None:
            if dns_query_name(cp.detail) in CONNECTIVITY_DNS_NAMES:
                connectivity_txns.add((cp.flow, cp.detail[:2]))

    tags = []
    for cp in classified:
        tag = BackgroundKind.NONE
        if cp.protocol.tag is ProtoTag.HTTP or (
            cp.record.transport is Transport.TCP
            and 80 in (cp.record.src_port, cp.record.dst_port)
            and cp.flow in http_flow_host
        ):
            if http_flow_host.get(cp.flow) == CONNECTIVITY_HTTP_HOST:
                tag = BackgroundKind.CONNECTIVITY_HTTP
        elif cp.protocol.tag is ProtoTag.DO53:
            if cp.detail is not None and (cp.flow, cp.detail[:2]) in connectivity_txns:
                tag = BackgroundKind.CONNECTIVITY_DO53
        elif cp.protocol.tag is ProtoTag.DOT:
            if {cp.record.src_ip, cp.record.dst_ip} & SYSTEM_DNS_IPS:
                tag = BackgroundKind.SYSTEM_DOT
        tags.append(tag)
    return tags
