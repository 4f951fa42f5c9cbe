"""Differential test of the frame decoder against itself and a reference.

``decode_stream`` decodes each frame in place inside the capture's bytes,
bounded by the frame's end. Each frame is decoded again as its own one-frame
capture, where nothing follows it, and its record is checked against
``tests/refdissect.py``'s fields. Generated captures cover both byte orders
and timestamp resolutions, Ethernet/SLL/SLL2, VLAN tags, IPv4 options and
fragments, IPv6 extension and fragment headers, snaplen cuts through every
header, ``orig_len`` of 0 and truncated tails. Every frame is followed by
more bytes of the file, so a bound check that looked past the frame's end
would decode the next record's header instead of reporting a malformed frame.
A second generator cuts honest frames at, or 1-4 bytes before, the end of
one of their headers or of their declared segment, and follows each cut
frame with another record, so that a read a few bytes past the frame's end
sees the next record's header.
"""

from __future__ import annotations

import ipaddress
import struct

from helpers import (
    PCAP_MAGIC_NS_LE,
    PCAP_MAGIC_US_LE,
    eth,
    ip4,
    ip6,
    pcap_header,
    pcap_record,
    sll,
    sll2,
    tcp,
    udp,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from refdissect import ethernet_fields, ipv4_fields, ipv6_fields, sll2_fields, sll_fields, tcp_fields, udp_fields

from appcap.ingest import (
    LINKTYPE_ETHERNET,
    LINKTYPE_SLL,
    LINKTYPE_SLL2,
    DecodeSummary,
    PacketRecord,
    Transport,
    TruncatedFrame,
    decode_stream,
    read_capture,
)

ADDRESSES_V4 = ["10.0.2.16", "8.8.8.8", "203.0.113.10"]
ADDRESSES_V6 = ["2001:db8::1", "::1", "fe80::1:0:0:0"]


@st.composite
def transport_segments(draw) -> tuple[int, bytes]:
    """(IP protocol number, segment) with honest or lying header fields."""
    payload = draw(st.binary(max_size=40))
    kind = draw(st.sampled_from(["udp", "tcp", "icmp"]))
    if kind == "udp":
        length = draw(st.sampled_from([None, 0, 7, 8 + len(payload) // 2, 8 + len(payload) + 20]))
        return 17, udp(payload, sport=draw(st.integers(0, 65535)), length=length)
    if kind == "tcp":
        segment = bytearray(tcp(payload, dport=draw(st.sampled_from([80, 443, 853])),
                                flags=draw(st.integers(0, 255))))
        if draw(st.booleans()):
            segment[12] = draw(st.integers(0, 15)) << 4  # data offset, often wrong
        return 6, bytes(segment)
    return 1, b"\x08\x00\x00\x00" + payload


@st.composite
def ipv4_packets(draw) -> bytes:
    proto, segment = draw(transport_segments())
    ihl_words = draw(st.integers(5, 8))
    options = b"\x01" * ((ihl_words - 5) * 4)
    header_len = ihl_words * 4
    total_len = draw(st.sampled_from([None, header_len - 4, header_len + len(segment) + 30]))
    frag = draw(st.sampled_from([0, 0x2000, 0x2001, 0x4000, 0x0010]))
    packet = ip4(segment, src=draw(st.sampled_from(ADDRESSES_V4)), proto=proto, frag=frag,
                 ihl_words=ihl_words, total_len=total_len, options=options)
    if draw(st.integers(0, 3)) == 0:
        packet = bytes([draw(st.sampled_from([0x65, 0x43]))]) + packet[1:]  # bad version, IHL
    return packet


@st.composite
def ipv6_packets(draw) -> bytes:
    proto, segment = draw(transport_segments())
    chain = draw(st.lists(st.sampled_from([0, 43, 60, 44, 51]), max_size=3))
    body, next_header = segment, proto
    for ext in reversed(chain):
        if ext == 44:
            offset = draw(st.sampled_from([0, 1]))
            body = bytes([next_header, 0]) + (offset << 3).to_bytes(2, "big") + b"\x00" * 4 + body
        elif ext == 51:
            body = bytes([next_header, 1]) + b"\x00" * 10 + body  # (1 + 2) * 4 bytes
        else:
            units = draw(st.integers(0, 1))
            body = bytes([next_header, units]) + b"\x00" * (6 + 8 * units) + body
        next_header = ext
    if draw(st.integers(0, 9)) == 0:
        next_header = 132  # a protocol the decoder does not walk
    payload_len = draw(st.sampled_from([None, max(len(body) - 8, 0), len(body) + 16]))
    packet = ip6(body, src=draw(st.sampled_from(ADDRESSES_V6)), next_header=next_header,
                 payload_len=payload_len)
    if draw(st.integers(0, 9)) == 0:
        packet = b"\x40" + packet[1:]  # version 4 in an IPv6 frame
    return packet


@st.composite
def network_layers(draw) -> tuple[int, bytes]:
    """(ethertype, bytes after the link header), VLAN tags included."""
    kind = draw(st.sampled_from(["v4", "v4", "v6", "arp"]))
    if kind == "v4":
        ethertype, body = 0x0800, draw(ipv4_packets())
    elif kind == "v6":
        ethertype, body = 0x86DD, draw(ipv6_packets())
    else:
        ethertype, body = 0x0806, draw(st.binary(max_size=28))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        body = struct.pack(">HH", draw(st.integers(0, 0xFFFF)), ethertype) + body
        ethertype = 0x8100
    return ethertype, body


def framed(linktype: int, ethertype: int, body: bytes) -> bytes:
    if linktype == LINKTYPE_ETHERNET:
        return eth(body, ethertype=ethertype)
    if linktype == LINKTYPE_SLL:
        return sll(body, proto=ethertype)
    return sll2(body, proto=ethertype)


@st.composite
def captures(draw):
    """(file bytes, linktype, expected frames as (ts_ns, original_len, bytes),
    each frame's pcap record, truncated)."""
    little = draw(st.booleans())
    nanos = draw(st.booleans())
    linktype = draw(st.sampled_from([LINKTYPE_ETHERNET, LINKTYPE_SLL, LINKTYPE_SLL2]))
    magic = PCAP_MAGIC_NS_LE if nanos else PCAP_MAGIC_US_LE
    blob = pcap_header(magic=magic, little=little, linktype=linktype)
    expected, records = [], []
    for _ in range(draw(st.integers(0, 6))):
        full = framed(linktype, *draw(network_layers()))
        # Cuts land in the headers (the first 90 bytes) more often than not.
        cut = draw(st.sampled_from([None, None, 90, len(full)]))
        frame = full if cut is None else full[: draw(st.integers(0, min(cut, len(full))))]
        orig_len = draw(st.sampled_from([len(full), 0, len(frame)]))
        ts_sec = draw(st.integers(0, 2**32 - 1))
        ts_sub = draw(st.integers(0, 999_999_999 if nanos else 999_999))
        records.append(pcap_record(frame, ts_sec=ts_sec, ts_sub=ts_sub, little=little, orig_len=orig_len))
        blob += records[-1]
        ts_ns = ts_sec * 1_000_000_000 + ts_sub * (1 if nanos else 1000)
        expected.append((ts_ns, max(orig_len, len(frame)), frame))
    truncated = draw(st.booleans())
    if truncated:
        tail = pcap_record(b"\x00" * draw(st.integers(1, 60)), little=little)
        blob += tail[: draw(st.integers(1, len(tail) - 1))]
    return blob, linktype, expected, records, truncated


LINK_FIELDS = {LINKTYPE_ETHERNET: ethernet_fields, LINKTYPE_SLL: sll_fields, LINKTYPE_SLL2: sll2_fields}


def check_against_reference(record: PacketRecord, linktype: int, frame: bytes) -> None:
    """The record's addresses, ports, transport and payload, as ``refdissect``
    reads them from its frame. The reference walks no IPv6 extension header,
    so behind one only the addresses are checked."""
    link = LINK_FIELDS[linktype](frame)
    ethertype, body = link["protocol"], link["payload"]
    if ethertype == 0x8100:
        ethertype, body = int.from_bytes(body[2:4], "big"), body[4:]
    if ethertype == 0x0800:
        ip = ipv4_fields(body)
        assert (record.src_ip, record.dst_ip) == (ip["src"], ip["dst"])
        proto, start, end = ip["protocol"], ip["header_len"], ip["total_len"]
    else:
        assert ethertype == 0x86DD
        ip = ipv6_fields(body)
        assert (record.src_ip, record.dst_ip) == (str(ipaddress.IPv6Address(ip["src"])),
                                                  str(ipaddress.IPv6Address(ip["dst"])))
        if ip["next_header"] not in (6, 17):
            return
        proto, start, end = ip["next_header"], 40, 40 + ip["payload_len"]
    segment = body[start:end]  # the declared segment, cut where the capture ends
    if proto == 6:
        fields = tcp_fields(segment)
        assert record.transport is Transport.TCP
        payload, declared = fields["payload"], end - start - fields["header_len"]
    else:
        fields = udp_fields(segment)
        assert record.transport is Transport.UDP
        payload, declared = fields["payload"][: fields["length"] - 8], fields["length"] - 8
    assert (record.src_port, record.dst_port) == (fields["src_port"], fields["dst_port"])
    assert record.payload == payload
    assert record.payload_truncated == (len(payload) < declared)


def decode_each(header: bytes, records: list[bytes], linktype: int, expected):
    """What ``decode_stream`` returns, built from one-frame captures whose
    packets are each checked against the reference."""
    summary = DecodeSummary()
    decoded = []
    for record, (ts_ns, packet_len, frame) in zip(records, expected):
        one = decode_stream(read_capture(header + record), summary)
        for packet in one:
            assert (packet.ts_ns, packet.packet_len) == (ts_ns, packet_len)
            check_against_reference(packet, linktype, frame)
        decoded += one
    return decoded, summary


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(captures())
def test_stream_decode_equals_frame_by_frame(capture):
    blob, linktype, expected, records, truncated = capture
    try:
        stream = read_capture(blob)
    except TruncatedFrame as exc:
        assert truncated
        assert exc.frames_read == len(exc.stream.frames)
        stream = exc.stream
    else:
        assert not truncated
    assert stream.linktype_id == linktype
    assert [(f.ts_ns, f.original_len, f.frame_bytes) for f in stream.frames] == expected

    summary = DecodeSummary()
    decoded = decode_stream(stream, summary)
    want_decoded, want_summary = decode_each(blob[:24], records, linktype, expected)
    assert decoded == want_decoded
    assert summary == want_summary
    assert summary.total == len(expected)



@st.composite
def cut_frames(draw, linktype: int) -> tuple[bytes, bytes]:
    """(cut frame, whole frame): an honest TCP or UDP frame, cut at or 1-4
    bytes before one of its boundaries: the end of the link header, a VLAN
    tag, the IP header, an IPv6 extension header, the transport header or
    the declared segment."""
    def wrap(header_len: int, ends: list[int]) -> list[int]:
        """The boundaries behind a header of ``header_len`` bytes, its end first."""
        return [header_len] + [header_len + end for end in ends]

    payload = draw(st.binary(max_size=12))
    if draw(st.booleans()):
        options = b"\x01" * draw(st.sampled_from([0, 4, 8]))
        segment = bytearray(tcp(options + payload, dport=draw(st.sampled_from([80, 443, 853]))))
        segment[12] = (20 + len(options)) // 4 << 4
        proto, segment, ends = 6, bytes(segment), wrap(20 + len(options), [len(payload)])
    else:
        proto, segment, ends = 17, udp(payload), wrap(8, [len(payload)])
    if draw(st.booleans()):
        ihl_words = draw(st.integers(5, 7))
        packet = ip4(segment, src=draw(st.sampled_from(ADDRESSES_V4)), proto=proto,
                     ihl_words=ihl_words, options=b"\x01" * ((ihl_words - 5) * 4))
        ethertype, ends = 0x0800, wrap(ihl_words * 4, ends)
    else:
        if draw(st.booleans()):  # one 8-byte hop-by-hop header
            segment, proto, ends = bytes([proto, 0]) + b"\x00" * 6 + segment, 0, wrap(8, ends)
        packet = ip6(segment, src=draw(st.sampled_from(ADDRESSES_V6)), next_header=proto)
        ethertype, ends = 0x86DD, wrap(40, ends)
    if draw(st.booleans()):
        packet = struct.pack(">HH", draw(st.integers(0, 0xFFFF)), ethertype) + packet
        ethertype, ends = 0x8100, wrap(4, ends)
    whole = framed(linktype, ethertype, packet)
    ends = wrap(len(whole) - len(packet), ends)
    whole += b"\x00" * draw(st.sampled_from([0, 0, 6]))  # link-layer padding
    return whole[: max(draw(st.sampled_from(ends)) - draw(st.integers(0, 4)), 0)], whole


@st.composite
def cut_captures(draw):
    """(file bytes, linktype, expected frames as ``captures`` gives them, each
    frame's pcap record): cut frames, each followed by its whole frame."""
    linktype = draw(st.sampled_from([LINKTYPE_ETHERNET, LINKTYPE_SLL, LINKTYPE_SLL2]))
    little = draw(st.booleans())
    expected, records = [], []
    for _ in range(draw(st.integers(1, 4))):
        cut, whole = draw(cut_frames(linktype))
        for frame in (cut, whole):
            ts_sec = draw(st.integers(0, 2**32 - 1))
            records.append(pcap_record(frame, ts_sec=ts_sec, little=little, orig_len=len(whole)))
            expected.append((ts_sec * 1_000_000_000, len(whole), frame))
    return pcap_header(little=little, linktype=linktype) + b"".join(records), linktype, expected, records


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cut_captures())
def test_frame_cut_near_a_boundary_decodes_as_if_last(capture):
    blob, linktype, expected, records = capture
    summary = DecodeSummary()
    decoded = decode_stream(read_capture(blob), summary)
    want_decoded, want_summary = decode_each(blob[:24], records, linktype, expected)
    assert decoded == want_decoded
    assert summary == want_summary
    assert summary.total == len(expected)
