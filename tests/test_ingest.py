import ipaddress
import pickle

import pytest
from helpers import (
    PCAP_MAGIC_NS_LE,
    eth,
    eth_vlan,
    ip4,
    ip6,
    pcap_file,
    pcap_header,
    pcap_record,
    sll,
    sll2,
    tcp,
    udp,
)
from refdissect import ipv4_fields, sll_fields, udp_fields

from appcap.ingest import (
    ADDRESS_CACHE_SIZE,
    RawFrame,
    LINKTYPE_ETHERNET,
    LINKTYPE_SLL,
    LINKTYPE_SLL2,
    ByteOrder,
    CaptureError,
    DecodeSummary,
    PacketRecord,
    SkipReason,
    Transport,
    TruncatedFrame,
    TruncatedHeader,
    TsResolution,
    UnknownMagic,
    UnsupportedLinkType,
    address_text,
    decode_stream,
    read_capture,
)


class TestReadCapture:
    def test_empty_capture_microsecond(self):
        stream = read_capture(pcap_header())
        assert stream.frames == ()
        assert stream.ts_resolution is TsResolution.MICROSECOND
        assert stream.byte_order is ByteOrder.LITTLE
        assert stream.linktype_id == 1

    def test_nanosecond_magic_sets_resolution(self):
        stream = read_capture(pcap_header(magic=PCAP_MAGIC_NS_LE))
        assert stream.ts_resolution is TsResolution.NANOSECOND

    def test_big_endian_headers(self):
        stream = read_capture(pcap_header(little=False, linktype=113))
        assert stream.byte_order is ByteOrder.BIG
        assert stream.linktype_id == 113

    def test_big_endian_nanosecond(self):
        data = pcap_header(magic=0xA1B23C4D, little=False)
        assert data[:4] == b"\xa1\xb2\x3c\x4d"
        stream = read_capture(data)
        assert stream.ts_resolution is TsResolution.NANOSECOND
        assert stream.byte_order is ByteOrder.BIG

    def test_pcapng_rejected(self):
        with pytest.raises(UnknownMagic):
            read_capture(b"\x0a\x0d\x0d\x0a" + b"\x00" * 40)

    def test_garbage_rejected(self):
        with pytest.raises(UnknownMagic):
            read_capture(b"\x13\x37\x00\x00" + b"\x00" * 40)

    def test_short_input_rejected(self):
        with pytest.raises(UnknownMagic):
            read_capture(b"\xd4")

    def test_truncated_global_header(self):
        with pytest.raises(TruncatedHeader):
            read_capture(pcap_header()[:12])

    def test_microsecond_timestamps_normalized(self):
        frame = eth(ip4(udp(b"x")))
        data = pcap_file([(7, 123456, frame)])
        stream = read_capture(data)
        assert stream.frames[0].ts_ns == 7 * 10**9 + 123456 * 1000
        assert stream.frames[0].ts_ns % 1000 == 0

    def test_nanosecond_timestamps_kept(self):
        frame = eth(ip4(udp(b"x")))
        data = pcap_file([(7, 123456789, frame)], magic=PCAP_MAGIC_NS_LE)
        stream = read_capture(data)
        assert stream.frames[0].ts_ns == 7 * 10**9 + 123456789

    def test_truncated_frame_surfaces_count(self):
        good = eth(ip4(udp(b"x")))
        data = pcap_file([good]) + pcap_record(b"\x00" * 60)[:30]
        with pytest.raises(TruncatedFrame) as excinfo:
            read_capture(data)
        assert excinfo.value.frames_read == 1
        assert len(excinfo.value.stream.frames) == 1

    def test_frame_body_shorter_than_declared(self):
        header = pcap_header()
        record = pcap_record(b"\x01\x02\x03")
        # Declare 100 captured bytes but provide 3.
        bad = record[:8] + (100).to_bytes(4, "little") + record[12:]
        with pytest.raises(TruncatedFrame) as excinfo:
            read_capture(header + bad)
        assert excinfo.value.frames_read == 0

    def test_later_writes_to_the_input_do_not_reach_the_stream(self):
        buffer = bytearray(pcap_file([eth(ip4(udp(b"abc")))]))
        stream = read_capture(buffer)
        buffer[-3:] = b"xyz"
        assert stream.frames[0].frame_bytes.endswith(b"abc")
        assert decode_stream(stream)[0].payload == b"abc"

    def test_original_len_clamped_to_captured(self):
        frame = eth(ip4(udp(b"x")))
        data = pcap_header() + pcap_record(frame, orig_len=0)
        stream = read_capture(data)
        assert stream.frames[0].original_len == len(frame)


def _raised(call) -> CaptureError:
    with pytest.raises(CaptureError) as excinfo:
        call()
    return excinfo.value


def _capture_errors() -> dict[type, CaptureError]:
    """One instance of every CaptureError, raised from real input."""
    truncated = pcap_file([eth(ip4(udp(b"x")))]) + pcap_record(b"\x00" * 60)[:30]
    return {
        UnknownMagic: _raised(lambda: read_capture(b"\x00" * 32)),
        TruncatedHeader: _raised(lambda: read_capture(pcap_header()[:10])),
        TruncatedFrame: _raised(lambda: read_capture(truncated)),
        UnsupportedLinkType: _raised(lambda: decode_stream(read_capture(pcap_file([b"\\x00" * 32], linktype=228)))),
    }


def _subclasses(cls: type) -> set[type]:
    direct = set(cls.__subclasses__())
    return direct.union(*(_subclasses(c) for c in direct))


class TestCaptureErrorPickling:
    """Dataset commands fold captures in worker processes, so a capture's
    error crosses a process boundary by pickle."""

    def test_every_capture_error_is_covered(self):
        assert set(_capture_errors()) == _subclasses(CaptureError)

    @pytest.mark.parametrize("kind", sorted(_subclasses(CaptureError), key=lambda c: c.__name__))
    def test_round_trip_keeps_type_text_and_fields(self, kind):
        exc = _capture_errors()[kind]
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is kind
        assert str(copy) == str(exc)
        assert copy.args == exc.args
        assert vars(copy) == vars(exc)


class TestPerPacketInvariants:
    def test_payload_longer_than_packet_refused(self):
        with pytest.raises(ValueError):
            PacketRecord(0, "a", "b", 1, 2, Transport.UDP, 3, b"four")

    def test_replace_keeps_the_checks(self):
        record = PacketRecord(0, "a", "b", 1, 2, Transport.UDP, 60, b"x")
        assert record._replace(ts_ns=5).ts_ns == 5
        with pytest.raises(ValueError):
            record._replace(payload=b"y" * 61)
        with pytest.raises(ValueError):
            record._replace(packet_len=0)

    def test_record_fields_are_read_only(self):
        record = PacketRecord(0, "a", "b", 1, 2, Transport.TCP, 60, b"x")
        with pytest.raises(AttributeError):
            record.payload = b"y"
        with pytest.raises(AttributeError):
            record.ts_ns = 1

    def test_equal_records_hash_equal(self):
        first = PacketRecord(7, "::1", "::2", 1, 2, Transport.UDP, 60, bytes([1, 2]))
        second = PacketRecord(7, "::1", "::2", 1, 2, Transport.UDP, 60, b"\x01\x02")
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_raw_frame_length_mismatch_refused(self):
        with pytest.raises(ValueError):
            RawFrame(ts_ns=0, captured_len=3, original_len=3, frame_bytes=b"ab")

    def test_raw_frame_captured_above_original_refused(self):
        with pytest.raises(ValueError):
            RawFrame(ts_ns=0, captured_len=2, original_len=1, frame_bytes=b"ab")

    def test_raw_frame_negative_timestamp_refused(self):
        with pytest.raises(ValueError):
            RawFrame(ts_ns=-1, captured_len=2, original_len=2, frame_bytes=b"ab")

    def test_raw_frame_fields_are_read_only(self):
        frame = RawFrame(ts_ns=0, captured_len=2, original_len=2, frame_bytes=b"ab")
        with pytest.raises(AttributeError):
            frame.ts_ns = 1


def decode_one(frame_bytes: bytes, linktype=LINKTYPE_ETHERNET, orig_len=None):
    """The records and summary ``decode_stream`` gives for a one-frame capture."""
    summary = DecodeSummary()
    stream = read_capture(pcap_header(linktype=linktype) + pcap_record(frame_bytes, orig_len=orig_len))
    return decode_stream(stream, summary), summary


def record_of(frame_bytes: bytes, linktype=LINKTYPE_ETHERNET, orig_len=None) -> PacketRecord:
    records, summary = decode_one(frame_bytes, linktype, orig_len)
    assert summary == DecodeSummary(records=1)
    return records[0]


def summary_of(frame_bytes: bytes, linktype=LINKTYPE_ETHERNET) -> DecodeSummary:
    records, summary = decode_one(frame_bytes, linktype)
    assert records == []
    return summary


class TestDecodeFrame:
    """Each frame is decoded as a one-frame capture, the way every command decodes."""

    def test_sll_ipv4_udp(self):
        # Hand-assembled Linux cooked frame; offsets checked against the
        # reference dissector before asserting on the production decoder.
        payload = bytes(range(40))
        frame_bytes = sll(ip4(udp(payload, sport=40000, dport=53), proto=17))

        ref_sll = sll_fields(frame_bytes)
        assert ref_sll["protocol"] == 0x0800
        ref_ip = ipv4_fields(ref_sll["payload"])
        assert (ref_ip["src"], ref_ip["dst"]) == ("10.0.2.16", "8.8.8.8")
        ref_udp = udp_fields(ref_ip["payload"])
        assert (ref_udp["src_port"], ref_udp["dst_port"]) == (40000, 53)
        assert ref_udp["payload"] == payload

        record = record_of(frame_bytes, LINKTYPE_SLL)
        assert isinstance(record, PacketRecord)
        assert record.transport is Transport.UDP
        assert (record.src_ip, record.dst_ip) == (ref_ip["src"], ref_ip["dst"])
        assert (record.src_port, record.dst_port) == (40000, 53)
        assert record.payload == payload

    def test_sll2_ipv4_tcp(self):
        frame_bytes = sll2(ip4(tcp(b"hello", sport=1234, dport=80), proto=6))
        record = record_of(frame_bytes, LINKTYPE_SLL2)
        assert record.transport is Transport.TCP
        assert (record.src_port, record.dst_port) == (1234, 80)
        assert record.payload == b"hello"

    def test_ethernet_arp_skipped(self):
        arp = b"\x00\x01\x08\x00\x06\x04\x00\x01" + b"\x00" * 20
        assert summary_of(eth(arp, ethertype=0x0806)) == DecodeSummary(skipped={SkipReason.NON_IP: 1})

    def test_ipv6_tcp_syn(self):
        segment = tcp(b"", sport=50000, dport=443, flags=0x02)
        frame_bytes = eth(ip6(segment, next_header=6), ethertype=0x86DD)
        record = record_of(frame_bytes)
        assert record.transport is Transport.TCP
        assert record.payload == b""
        assert record.src_ip == "2001:db8::1"

    def test_ipv6_hop_by_hop_walked(self):
        segment = udp(b"zz", dport=443)
        hbh = bytes([17, 0]) + b"\x00" * 6  # next=UDP, one 8-byte unit
        frame_bytes = eth(ip6(hbh + segment, next_header=0), ethertype=0x86DD)
        record = record_of(frame_bytes)
        assert record.transport is Transport.UDP
        assert record.payload == b"zz"

    def test_ipv6_fragment_offset_skipped(self):
        frag = bytes([6, 0]) + (8).to_bytes(2, "big") + b"\x00" * 4  # offset 1
        frame_bytes = eth(ip6(frag + b"\x00" * 20, next_header=44), ethertype=0x86DD)
        assert summary_of(frame_bytes) == DecodeSummary(skipped={SkipReason.FRAGMENT: 1})

    def test_ipv6_first_fragment_decodes(self):
        segment = udp(b"q")
        frag = bytes([17, 0]) + (0).to_bytes(2, "big") + b"\x00" * 4
        frame_bytes = eth(ip6(frag + segment, next_header=44), ethertype=0x86DD)
        record = record_of(frame_bytes)
        assert record.transport is Transport.UDP

    def test_ipv6_unknown_next_header_skipped(self):
        frame_bytes = eth(ip6(b"\x00" * 8, next_header=132), ethertype=0x86DD)
        assert summary_of(frame_bytes) == DecodeSummary(skipped={SkipReason.OTHER_IP_PROTOCOL: 1})

    def test_vlan_unwrapped_once(self):
        frame_bytes = eth_vlan(ip4(udp(b"v"), proto=17))
        record = record_of(frame_bytes)
        assert record.transport is Transport.UDP
        assert record.payload == b"v"

    def test_double_vlan_skipped(self):
        inner = b"\x00\x64" + b"\x08\x00" + ip4(udp(b"v"))
        frame_bytes = eth_vlan(inner, inner_ethertype=0x8100)
        assert summary_of(frame_bytes) == DecodeSummary(skipped={SkipReason.NON_IP: 1})

    def test_ipv4_fragment_skipped(self):
        frame_bytes = eth(ip4(udp(b"x"), frag=0x2001))  # MF + offset 1
        assert summary_of(frame_bytes) == DecodeSummary(skipped={SkipReason.FRAGMENT: 1})

    def test_ipv4_first_fragment_decodes(self):
        frame_bytes = eth(ip4(udp(b"x"), frag=0x2000))  # MF, offset 0
        record = record_of(frame_bytes)
        assert record.transport is Transport.UDP

    def test_icmp_skipped(self):
        frame_bytes = eth(ip4(b"\x08\x00\x00\x00", proto=1))
        assert summary_of(frame_bytes) == DecodeSummary(skipped={SkipReason.OTHER_IP_PROTOCOL: 1})

    def test_unsupported_linktype(self):
        with pytest.raises(UnsupportedLinkType):
            decode_one(b"\x00" * 32, 101)

    def test_short_ipv4_header_malformed(self):
        assert summary_of(eth(b"\x45\x00\x00")) == DecodeSummary(malformed=1)

    def test_short_tcp_header_malformed(self):
        assert summary_of(eth(ip4(b"\x01\x02\x03\x04", proto=6))) == DecodeSummary(malformed=1)

    def test_short_udp_header_malformed(self):
        assert summary_of(eth(ip4(b"\x01\x02", proto=17))) == DecodeSummary(malformed=1)

    def test_ipv4_options_honored(self):
        options = b"\x01" * 8  # two NOP words
        frame_bytes = eth(ip4(udp(b"opt"), proto=17, ihl_words=7, options=options))
        record = record_of(frame_bytes)
        assert record.payload == b"opt"

    def test_ethernet_padding_stripped(self):
        inner = ip4(udp(b"pp"), proto=17)
        frame_bytes = eth(inner + b"\x00" * 12)  # pad to minimum frame size
        record = record_of(frame_bytes)
        assert record.payload == b"pp"
        assert not record.payload_truncated

    def test_snaplen_truncation_flags_payload(self):
        full = eth(ip4(tcp(b"A" * 200), proto=6))
        cut = full[: len(full) - 150]
        record = record_of(cut, orig_len=len(full))
        assert record.payload == b"A" * 50
        assert record.payload_truncated
        assert record.packet_len == len(full)

    def test_decode_is_pure(self):
        stream = read_capture(pcap_file([sll(ip4(udp(b"same"), proto=17))], linktype=LINKTYPE_SLL))
        assert decode_stream(stream) == decode_stream(stream)


IPV6_EDGE_ADDRESSES = [
    "::",
    "::1",
    "::ffff:192.0.2.1",  # IPv4-mapped
    "2001:db8:0:1:1:1:1:1",  # a single zero group is not compressed
    "2001:db8::1:0:0:1",  # the first of two equal zero runs is compressed
    "fe80::1:0:0:0",
    "1:0:0:0:0:0:0:0",
]


class TestAddressText:
    @pytest.mark.parametrize("text", IPV6_EDGE_ADDRESSES)
    def test_ipv6_edge_text_matches_ipaddress(self, text):
        packed = ipaddress.IPv6Address(text).packed
        assert address_text(packed) == str(ipaddress.IPv6Address(packed))

    @pytest.mark.parametrize("text", IPV6_EDGE_ADDRESSES)
    def test_decoded_ipv6_record_text(self, text):
        frame_bytes = eth(ip6(tcp(b"v6"), src=text, dst="::"), ethertype=0x86DD)
        record = record_of(frame_bytes)
        assert record.src_ip == str(ipaddress.IPv6Address(text))
        assert record.dst_ip == "::"

    def test_ipv4_text(self):
        assert address_text(bytes([10, 0, 2, 16])) == "10.0.2.16"

    def test_cache_is_bounded(self):
        assert address_text.cache_info().maxsize == ADDRESS_CACHE_SIZE
        for n in range(ADDRESS_CACHE_SIZE + 10):
            address_text(n.to_bytes(4, "big"))
        assert address_text.cache_info().currsize <= ADDRESS_CACHE_SIZE


class TestDecodeStream:
    def test_tally_conservation(self):
        frames = [
            eth(ip4(udp(b"ok"), proto=17)),
            eth(b"arp-ish", ethertype=0x0806),
            eth(ip4(b"\x00" * 3, proto=6)),  # malformed TCP
            eth(ip4(udp(b"x"), frag=0x2001)),
            eth(ip4(b"\x08\x00", proto=1)),
        ]
        stream = read_capture(pcap_file(frames))
        summary = DecodeSummary()
        records = decode_stream(stream, summary)
        assert len(records) == 1
        assert summary.records == 1
        assert summary.malformed == 1
        assert summary.skipped[SkipReason.NON_IP] == 1
        assert summary.skipped[SkipReason.FRAGMENT] == 1
        assert summary.skipped[SkipReason.OTHER_IP_PROTOCOL] == 1
        assert summary.total == len(frames)
