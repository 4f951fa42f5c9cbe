"""Classic PCAP reading and link/network/transport decoding.

Reads classic (libpcap) capture files only; pcapng is rejected. Frames from
Ethernet and Linux cooked (SLL v1/v2) captures are decoded down to normalized
TCP/UDP packet records. Everything else (ARP, ICMP, fragments, unknown
protocols) is skipped with a reason so callers can account for every frame.
"""

from __future__ import annotations

import enum
import functools
import ipaddress
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

# Classic pcap magic numbers as read from the first four file bytes.
MAGIC_LE_US = b"\xd4\xc3\xb2\xa1"
MAGIC_BE_US = b"\xa1\xb2\xc3\xd4"
MAGIC_LE_NS = b"\x4d\x3c\xb2\xa1"
MAGIC_BE_NS = b"\xa1\xb2\x3c\x4d"
PCAPNG_MAGIC = b"\x0a\x0d\x0d\x0a"

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

LINKTYPE_ETHERNET = 1
LINKTYPE_SLL = 113
LINKTYPE_SLL2 = 276

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100

IPPROTO_TCP = 6
IPPROTO_UDP = 17

_RECORD_HEADER = {"<": struct.Struct("<IIII"), ">": struct.Struct(">IIII")}
# A record header's captured length (incl_len), read at its offset + 8.
_INCL_LEN = {"<": struct.Struct("<I"), ">": struct.Struct(">I")}
_U16 = struct.Struct(">H")
# The fixed IPv4 header's version/IHL, length, fragment field, protocol, addresses.
_IPV4_HEADER = struct.Struct(">BxH2xHxB2x4s4s")
_PORTS = struct.Struct(">HH")
_UDP_HEADER = struct.Struct(">HHH")

# Distinct addresses seen by one run; a capture rarely has more than a few
# hundred, and a miss only costs one ipaddress conversion.
ADDRESS_CACHE_SIZE = 4096


class CaptureError(Exception):
    """Base for all controlled capture-parsing failures."""


class UnknownMagic(CaptureError):
    """Input does not start with a classic-pcap magic (pcapng included)."""


class TruncatedHeader(CaptureError):
    """Input shorter than the 24-byte global header."""


class TruncatedFrame(CaptureError):
    """A frame record is shorter than its declared captured length.

    The stream ends at the damaged record; ``frames_read`` counts the frames
    successfully read before it and ``stream`` holds them.
    """

    def __init__(self, frames_read: int, stream: "CaptureStream"):
        super().__init__(f"frame record truncated after {frames_read} frames")
        self.frames_read = frames_read
        self.stream = stream

    def __reduce__(self):
        # Rebuilt from its fields, so it survives a process pool's pickling.
        return TruncatedFrame, (self.frames_read, self.stream)


class UnsupportedLinkType(CaptureError):
    def __init__(self, linktype_id: int):
        super().__init__(f"unsupported link type {linktype_id}")
        self.linktype_id = linktype_id

    def __reduce__(self):
        return UnsupportedLinkType, (self.linktype_id,)


class ByteOrder(enum.Enum):
    LITTLE = "little"
    BIG = "big"


class TsResolution(enum.Enum):
    MICROSECOND = "microsecond"
    NANOSECOND = "nanosecond"


class Transport(enum.Enum):
    TCP = "TCP"
    UDP = "UDP"

    __hash__ = object.__hash__  # identity, in C; see tlswire.TlsVersion


class SkipReason(enum.Enum):
    NON_IP = "non_ip"
    OTHER_IP_PROTOCOL = "other_ip_protocol"
    FRAGMENT = "fragment"


@dataclass(frozen=True, slots=True)
class RawFrame:
    ts_ns: int
    captured_len: int
    original_len: int
    frame_bytes: bytes

    def __post_init__(self):
        if self.captured_len != len(self.frame_bytes):
            raise ValueError("captured_len must equal len(frame_bytes)")
        if self.captured_len > self.original_len:
            raise ValueError("captured_len must not exceed original_len")
        if self.ts_ns < 0:
            raise ValueError("ts_ns must be non-negative")


_ENDIAN = {ByteOrder.LITTLE: "<", ByteOrder.BIG: ">"}
_SUBSEC_SCALE = {TsResolution.MICROSECOND: 1000, TsResolution.NANOSECOND: 1}


@dataclass(frozen=True)
class CaptureStream:
    """A classic-pcap capture: its global header and where its records start.

    ``data`` is the whole file and ``offsets`` the offsets of the record
    headers that ``read_capture`` validated. ``decode_stream`` decodes the
    frames in place; ``frames`` copies them out as RawFrames on first use.
    """

    byte_order: ByteOrder
    ts_resolution: TsResolution
    linktype_id: int
    data: bytes = field(repr=False)
    offsets: tuple[int, ...] = field(repr=False)

    @functools.cached_property
    def frames(self) -> tuple[RawFrame, ...]:
        data = self.data
        return tuple(
            RawFrame(ts_ns, incl_len, packet_len, data[start : start + incl_len])
            for start, ts_ns, incl_len, packet_len in _record_headers(self, self.offsets)
        )

    def frames_before(self, bound_ns: int, start: int = 0) -> int:
        """One past the last frame from ``start`` on whose record header is
        stamped before ``bound_ns`` (``start`` if none is), read from the end."""
        end = len(self.offsets)
        for _, ts_ns, _, _ in _record_headers(self, reversed(self.offsets[start:])):
            if ts_ns < bound_ns:
                break
            end -= 1
        return end


def _record_headers(stream: CaptureStream, offsets: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Each record header at ``offsets`` as (frame start, ts_ns, incl_len,
    packet_len): the original length, raised to incl_len where a writer put 0
    or a stale value in orig_len, so that captured <= original holds."""
    unpack_record = _RECORD_HEADER[_ENDIAN[stream.byte_order]].unpack_from
    scale = _SUBSEC_SCALE[stream.ts_resolution]
    data = stream.data
    for offset in offsets:
        ts_sec, ts_sub, incl_len, orig_len = unpack_record(data, offset)
        yield (offset + RECORD_HEADER_LEN, ts_sec * 1_000_000_000 + ts_sub * scale, incl_len,
               orig_len if orig_len > incl_len else incl_len)


class _PacketRecordFields(NamedTuple):
    ts_ns: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    transport: Transport
    packet_len: int
    payload: bytes
    payload_truncated: bool = False


class PacketRecord(_PacketRecordFields):
    """One decoded TCP or UDP packet.

    ``packet_len`` is the original (on the wire) frame length; ``payload`` is
    the transport payload as captured, possibly shorter than what the IP
    headers declare (``payload_truncated`` is then set). Immutable and
    hashable; being a tuple, it equals a plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        ts_ns: int,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        transport: Transport,
        packet_len: int,
        payload: bytes,
        payload_truncated: bool = False,
    ):
        if len(payload) > packet_len:
            raise ValueError("payload longer than packet_len")
        return tuple.__new__(
            cls,
            (ts_ns, src_ip, dst_ip, src_port, dst_port, transport, packet_len, payload,
             payload_truncated),
        )

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here; keep it behind the checks.
        return cls(*iterable)


def read_capture(data: bytes) -> CaptureStream:
    """Parse classic-pcap framing: the global header and every record header.

    Raises UnknownMagic for anything that is not classic pcap (pcapng is
    deliberately unsupported), TruncatedHeader for a short global header and
    TruncatedFrame when a record ends early. Frame bodies are not copied or
    decoded here.
    """
    if not isinstance(data, bytes):
        data = bytes(data)  # the stream keeps the buffer; later writes must not reach it
    if len(data) >= 4 and data[:4] == PCAPNG_MAGIC:
        raise UnknownMagic("pcapng is not supported; use classic pcap")
    if len(data) >= 4 and data[:4] not in (MAGIC_LE_US, MAGIC_BE_US, MAGIC_LE_NS, MAGIC_BE_NS):
        raise UnknownMagic(f"not a classic pcap file (magic {data[:4].hex()})")
    if len(data) < GLOBAL_HEADER_LEN:
        if len(data) < 4:
            raise UnknownMagic("input shorter than a pcap magic number")
        raise TruncatedHeader(f"global header is {len(data)} bytes, need {GLOBAL_HEADER_LEN}")

    magic = data[:4]
    order = ByteOrder.LITTLE if magic in (MAGIC_LE_US, MAGIC_LE_NS) else ByteOrder.BIG
    resolution = (
        TsResolution.NANOSECOND if magic in (MAGIC_LE_NS, MAGIC_BE_NS) else TsResolution.MICROSECOND
    )
    endian = _ENDIAN[order]
    # The global header's last field is the link type.
    linktype = struct.unpack_from(endian + "I", data, GLOBAL_HEADER_LEN - 4)[0]

    def stream() -> CaptureStream:
        return CaptureStream(order, resolution, linktype, data, tuple(offsets))

    offsets: list[int] = []
    append = offsets.append
    unpack_incl_len = _INCL_LEN[endian].unpack_from
    size = len(data)
    offset = GLOBAL_HEADER_LEN
    while offset < size:
        body_start = offset + RECORD_HEADER_LEN
        if body_start > size:
            raise TruncatedFrame(len(offsets), stream())
        body_end = body_start + unpack_incl_len(data, offset + 8)[0]
        if body_end > size:
            raise TruncatedFrame(len(offsets), stream())
        append(offset)
        offset = body_end
    return stream()


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def address_text(packed: bytes) -> str:
    """Text form of a packed IPv4 or IPv6 address, exactly as ``ipaddress`` writes it.

    Cached by the packed bytes, so the packets of one flow share one string.
    """
    return str(ipaddress.ip_address(packed))


# Link header of each supported link type: name, ethertype offset, length.
_LINK_HEADERS = {
    LINKTYPE_ETHERNET: ("ethernet", 12, 14),
    LINKTYPE_SLL: ("sll", 14, 16),
    LINKTYPE_SLL2: ("sll2", 0, 20),
}

# Per-frame code reads these globals: an enum member lookup costs far more.
_NON_IP = SkipReason.NON_IP
_OTHER_IP_PROTOCOL = SkipReason.OTHER_IP_PROTOCOL
_FRAGMENT = SkipReason.FRAGMENT
_TCP = Transport.TCP
_UDP = Transport.UDP


def _link_header(linktype_id: int) -> tuple[str, int, int]:
    link = _LINK_HEADERS.get(linktype_id)
    if link is None:
        raise UnsupportedLinkType(linktype_id)
    return link


class _MalformedHeader(Exception):
    """A link, IP or transport header is shorter than its minimum length or
    contradicts itself. ``decode_stream`` counts the frame as malformed."""


def _decode(
    data: bytes, start: int, end: int, link: tuple[str, int, int], ts_ns: int, packet_len: int
) -> PacketRecord | SkipReason:
    """Decode the link, IP and transport headers of the frame held in
    ``data[start:end]``, to a record or the reason the frame is skipped;
    nothing past ``end`` is read."""
    name, type_at, offset = link
    offset += start
    if offset > end:
        raise _MalformedHeader(f"{name} header short")
    ethertype = _U16.unpack_from(data, start + type_at)[0]

    if ethertype == ETHERTYPE_VLAN:
        # One 802.1Q tag: 2 bytes TCI then the real ethertype.
        if offset + 4 > end:
            raise _MalformedHeader("vlan tag short")
        ethertype = _U16.unpack_from(data, offset + 2)[0]
        offset += 4
        if ethertype == ETHERTYPE_VLAN:
            return _NON_IP

    # Each IP branch finds the transport protocol, start and declared end.
    if ethertype == ETHERTYPE_IPV4:
        if offset + 20 > end:
            raise _MalformedHeader("ipv4 header short")
        vihl, total_len, fragment, proto, src, dst = _IPV4_HEADER.unpack_from(data, offset)
        if vihl >> 4 != 4:
            raise _MalformedHeader("ipv4 version mismatch")
        ihl = (vihl & 0x0F) * 4
        if ihl < 20:
            raise _MalformedHeader("ipv4 IHL below minimum")
        l4_start = offset + ihl
        if l4_start > end:
            raise _MalformedHeader("ipv4 options truncated")
        if total_len < ihl:
            raise _MalformedHeader("ipv4 total length below header length")
        if fragment & 0x1FFF:
            return _FRAGMENT
        l4_end = offset + total_len
    elif ethertype == ETHERTYPE_IPV6:
        if offset + 40 > end:
            raise _MalformedHeader("ipv6 header short")
        if data[offset] >> 4 != 6:
            raise _MalformedHeader("ipv6 version mismatch")
        l4_end = offset + 40 + _U16.unpack_from(data, offset + 4)[0]
        src = data[offset + 8 : offset + 24]
        dst = data[offset + 24 : offset + 40]
        walked = _ipv6_transport(data, offset + 40, end, data[offset + 6])
        if isinstance(walked, SkipReason):
            return walked
        proto, l4_start = walked
    else:
        return _NON_IP
    l4_declared = l4_end - l4_start
    # Honor the IP length so link-layer padding never leaks into the payload;
    # clamp to what was actually captured.
    if l4_end > end:
        l4_end = end
    l4_len = l4_end - l4_start

    if proto == IPPROTO_TCP:
        if l4_len < 20:
            raise _MalformedHeader("tcp header short")
        header_len = (data[l4_start + 12] >> 4) * 4
        if header_len < 20 or l4_len < header_len:
            raise _MalformedHeader("tcp header short")
        src_port, dst_port = _PORTS.unpack_from(data, l4_start)
        payload = data[l4_start + header_len : l4_end]
        return PacketRecord(
            ts_ns, address_text(src), address_text(dst), src_port, dst_port, _TCP, packet_len,
            payload, len(payload) < l4_declared - header_len,
        )
    if proto == IPPROTO_UDP:
        if l4_len < 8:
            raise _MalformedHeader("udp header short")
        src_port, dst_port, udp_len = _UDP_HEADER.unpack_from(data, l4_start)
        if udp_len < 8:
            raise _MalformedHeader("udp length below minimum")
        udp_end = l4_start + udp_len
        payload = data[l4_start + 8 : udp_end if udp_end < l4_end else l4_end]
        return PacketRecord(
            ts_ns, address_text(src), address_text(dst), src_port, dst_port, _UDP, packet_len,
            payload, len(payload) < udp_len - 8,
        )
    return _OTHER_IP_PROTOCOL


# IPv6 extension headers we can walk through (8-byte-multiple TLV shape).
_V6_WALKABLE = {0, 43, 60}
_V6_FRAGMENT = 44
_V6_AH = 51


def _ipv6_transport(data: bytes, offset: int, end: int, next_header: int) -> tuple[int, int] | SkipReason:
    """Walk IPv6 extension headers from ``offset`` to a TCP or UDP header's
    protocol number and offset, or to the reason to skip anything else."""
    for _ in range(8):
        if next_header in (IPPROTO_TCP, IPPROTO_UDP):
            return next_header, offset
        if next_header == _V6_FRAGMENT:
            if offset + 8 > end:
                raise _MalformedHeader("ipv6 fragment header truncated")
            frag_field = _U16.unpack_from(data, offset + 2)[0]
            if frag_field >> 3:
                return _FRAGMENT
            next_header = data[offset]
            offset += 8
        elif next_header in _V6_WALKABLE:
            if offset + 2 > end:
                raise _MalformedHeader("ipv6 extension header truncated")
            ext_len = (data[offset + 1] + 1) * 8
            if offset + ext_len > end:
                raise _MalformedHeader("ipv6 extension header truncated")
            next_header = data[offset]
            offset += ext_len
        elif next_header == _V6_AH:
            if offset + 2 > end:
                raise _MalformedHeader("ipv6 AH truncated")
            ext_len = (data[offset + 1] + 2) * 4
            if offset + ext_len > end:
                raise _MalformedHeader("ipv6 AH truncated")
            next_header = data[offset]
            offset += ext_len
        else:
            return _OTHER_IP_PROTOCOL
    return _OTHER_IP_PROTOCOL


@dataclass
class DecodeSummary:
    """Per-capture accounting: records + skips + malformed == frames seen."""

    records: int = 0
    skipped: dict[SkipReason, int] = field(default_factory=dict)
    malformed: int = 0

    @property
    def total(self) -> int:
        return self.records + sum(self.skipped.values()) + self.malformed


def decode_stream(stream: CaptureStream, summary: DecodeSummary | None = None) -> list[PacketRecord]:
    """Decode every frame of a stream in place, tallying skips and malformed
    frames (headers cut short or inconsistent). Raises UnsupportedLinkType
    for a link layer outside {Ethernet, SLL, SLL2} if there is a frame."""
    if summary is None:
        summary = DecodeSummary()
    records: list[PacketRecord] = []
    if not stream.offsets:
        return records  # the link type is checked only when there is a frame to decode
    link = _link_header(stream.linktype_id)
    data = stream.data
    skipped = summary.skipped
    append = records.append
    for start, ts_ns, incl_len, packet_len in _record_headers(stream, stream.offsets):
        try:
            outcome = _decode(data, start, start + incl_len, link, ts_ns, packet_len)
        except _MalformedHeader:
            summary.malformed += 1
            continue
        if outcome.__class__ is PacketRecord:
            append(outcome)
        else:
            skipped[outcome] = skipped.get(outcome, 0) + 1
    summary.records += len(records)
    return records
