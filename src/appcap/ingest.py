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
from dataclasses import dataclass, field

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
SUPPORTED_LINKTYPES = frozenset({LINKTYPE_ETHERNET, LINKTYPE_SLL, LINKTYPE_SLL2})

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100

IPPROTO_TCP = 6
IPPROTO_UDP = 17

_RECORD_HEADER = {"<": struct.Struct("<IIII"), ">": struct.Struct(">IIII")}
_U16 = struct.Struct(">H")
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


class UnsupportedLinkType(CaptureError):
    def __init__(self, linktype_id: int):
        super().__init__(f"unsupported link type {linktype_id}")
        self.linktype_id = linktype_id


class MalformedHeader(CaptureError):
    """IP or transport header shorter than its minimum length."""


class ByteOrder(enum.Enum):
    LITTLE = "little"
    BIG = "big"


class TsResolution(enum.Enum):
    MICROSECOND = "microsecond"
    NANOSECOND = "nanosecond"


class Transport(enum.Enum):
    TCP = "TCP"
    UDP = "UDP"


class SkipReason(enum.Enum):
    NON_IP = "non_ip"
    OTHER_IP_PROTOCOL = "other_ip_protocol"
    FRAGMENT = "fragment"


@dataclass(frozen=True)
class Skip:
    """Non-error outcome for frames that carry nothing we analyze."""

    reason: SkipReason


@dataclass(frozen=True, slots=True)
class RawFrame:
    ts_ns: int
    linktype_id: int
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


@dataclass(frozen=True)
class CaptureStream:
    byte_order: ByteOrder
    ts_resolution: TsResolution
    linktype_id: int
    snaplen: int
    frames: tuple[RawFrame, ...]


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One decoded TCP or UDP packet.

    ``packet_len`` is the original (on the wire) frame length; ``payload`` is
    the transport payload as captured, possibly shorter than what the IP
    headers declare (``payload_truncated`` is then set).
    """

    ts_ns: int
    ip_version: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    transport: Transport
    packet_len: int
    payload: bytes
    tcp_flags: int | None = None
    payload_truncated: bool = False

    def __post_init__(self):
        if (self.tcp_flags is not None) != (self.transport is Transport.TCP):
            raise ValueError("tcp_flags present iff transport is TCP")
        if len(self.payload) > self.packet_len:
            raise ValueError("payload longer than packet_len")


def read_capture(data: bytes) -> CaptureStream:
    """Parse classic-pcap bytes into a stream of raw frames.

    Raises UnknownMagic for anything that is not classic pcap (pcapng is
    deliberately unsupported), TruncatedHeader for a short global header and
    TruncatedFrame when a record body ends early.
    """
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
    endian = "<" if order is ByteOrder.LITTLE else ">"
    _vmaj, _vmin, _tz, _sig, snaplen, linktype = struct.unpack(
        endian + "HHiIII", data[4:GLOBAL_HEADER_LEN]
    )

    frames: list[RawFrame] = []
    offset = GLOBAL_HEADER_LEN
    subsec_scale = 1000 if resolution is TsResolution.MICROSECOND else 1
    unpack_record = _RECORD_HEADER[endian].unpack_from
    size = len(data)
    while offset < size:
        if offset + RECORD_HEADER_LEN > size:
            raise TruncatedFrame(len(frames), _finish(order, resolution, linktype, snaplen, frames))
        ts_sec, ts_sub, incl_len, orig_len = unpack_record(data, offset)
        body_start = offset + RECORD_HEADER_LEN
        if body_start + incl_len > size:
            raise TruncatedFrame(len(frames), _finish(order, resolution, linktype, snaplen, frames))
        body = data[body_start : body_start + incl_len]
        frames.append(
            RawFrame(
                ts_ns=ts_sec * 1_000_000_000 + ts_sub * subsec_scale,
                linktype_id=linktype,
                captured_len=incl_len,
                # Some writers put 0 or a stale value in orig_len; keep the
                # invariant captured <= original.
                original_len=max(orig_len, incl_len),
                frame_bytes=body,
            )
        )
        offset = body_start + incl_len
    return _finish(order, resolution, linktype, snaplen, frames)


def _finish(order, resolution, linktype, snaplen, frames) -> CaptureStream:
    return CaptureStream(
        byte_order=order,
        ts_resolution=resolution,
        linktype_id=linktype,
        snaplen=snaplen,
        frames=tuple(frames),
    )


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def address_text(packed: bytes) -> str:
    """Text form of a packed IPv4 or IPv6 address, exactly as ``ipaddress`` writes it.

    Cached by the packed bytes, so the packets of one flow share one string.
    """
    return str(ipaddress.ip_address(packed))


def decode_frame(frame: RawFrame, linktype_id: int | None = None) -> PacketRecord | Skip:
    """Decode one frame to a PacketRecord, or Skip for non-TCP/UDP traffic.

    Raises UnsupportedLinkType for link layers outside {Ethernet, SLL, SLL2}
    and MalformedHeader when an IP/transport header is shorter than its
    minimum length (including snaplen cuts through headers).
    """
    if linktype_id is None:
        linktype_id = frame.linktype_id
    data = frame.frame_bytes

    if linktype_id == LINKTYPE_ETHERNET:
        if len(data) < 14:
            raise MalformedHeader("ethernet header short")
        ethertype = _U16.unpack_from(data, 12)[0]
        offset = 14
    elif linktype_id == LINKTYPE_SLL:
        if len(data) < 16:
            raise MalformedHeader("sll header short")
        ethertype = _U16.unpack_from(data, 14)[0]
        offset = 16
    elif linktype_id == LINKTYPE_SLL2:
        if len(data) < 20:
            raise MalformedHeader("sll2 header short")
        ethertype = _U16.unpack_from(data, 0)[0]
        offset = 20
    else:
        raise UnsupportedLinkType(linktype_id)

    if ethertype == ETHERTYPE_VLAN:
        # One 802.1Q tag: 2 bytes TCI then the real ethertype.
        if len(data) < offset + 4:
            raise MalformedHeader("vlan tag short")
        ethertype = _U16.unpack_from(data, offset + 2)[0]
        offset += 4
        if ethertype == ETHERTYPE_VLAN:
            return Skip(SkipReason.NON_IP)

    if ethertype == ETHERTYPE_IPV4:
        return _decode_ipv4(frame, data, offset)
    if ethertype == ETHERTYPE_IPV6:
        return _decode_ipv6(frame, data, offset)
    return Skip(SkipReason.NON_IP)


def _decode_ipv4(frame: RawFrame, data: bytes, start: int) -> PacketRecord | Skip:
    if len(data) < start + 20:
        raise MalformedHeader("ipv4 header short")
    vihl = data[start]
    if vihl >> 4 != 4:
        raise MalformedHeader("ipv4 version mismatch")
    ihl = (vihl & 0x0F) * 4
    if ihl < 20:
        raise MalformedHeader("ipv4 IHL below minimum")
    if len(data) < start + ihl:
        raise MalformedHeader("ipv4 options truncated")
    total_len = _U16.unpack_from(data, start + 2)[0]
    if total_len < ihl:
        raise MalformedHeader("ipv4 total length below header length")
    if _U16.unpack_from(data, start + 6)[0] & 0x1FFF:
        return Skip(SkipReason.FRAGMENT)
    proto = data[start + 9]
    src = address_text(data[start + 12 : start + 16])
    dst = address_text(data[start + 16 : start + 20])
    # Honor total_length so link-layer padding never leaks into the payload;
    # clamp to what was actually captured.
    l4_end = min(len(data), start + total_len)
    return _decode_transport(frame, proto, src, dst, 4, data, start + ihl, l4_end, total_len - ihl)


# IPv6 extension headers we can walk through (8-byte-multiple TLV shape).
_V6_WALKABLE = {0, 43, 60}
_V6_FRAGMENT = 44
_V6_AH = 51


def _decode_ipv6(frame: RawFrame, data: bytes, start: int) -> PacketRecord | Skip:
    if len(data) < start + 40:
        raise MalformedHeader("ipv6 header short")
    if data[start] >> 4 != 6:
        raise MalformedHeader("ipv6 version mismatch")
    payload_len = _U16.unpack_from(data, start + 4)[0]
    next_header = data[start + 6]
    src = address_text(data[start + 8 : start + 24])
    dst = address_text(data[start + 24 : start + 40])
    end = min(len(data), start + 40 + payload_len)
    offset = start + 40
    declared_end = start + 40 + payload_len

    for _ in range(8):
        if next_header in (IPPROTO_TCP, IPPROTO_UDP):
            return _decode_transport(
                frame, next_header, src, dst, 6, data, offset, end, declared_end - offset
            )
        if next_header == _V6_FRAGMENT:
            if offset + 8 > len(data):
                raise MalformedHeader("ipv6 fragment header truncated")
            frag_field = _U16.unpack_from(data, offset + 2)[0]
            if frag_field >> 3:
                return Skip(SkipReason.FRAGMENT)
            next_header = data[offset]
            offset += 8
        elif next_header in _V6_WALKABLE:
            if offset + 2 > len(data):
                raise MalformedHeader("ipv6 extension header truncated")
            ext_len = (data[offset + 1] + 1) * 8
            if offset + ext_len > len(data):
                raise MalformedHeader("ipv6 extension header truncated")
            next_header = data[offset]
            offset += ext_len
        elif next_header == _V6_AH:
            if offset + 2 > len(data):
                raise MalformedHeader("ipv6 AH truncated")
            ext_len = (data[offset + 1] + 2) * 4
            if offset + ext_len > len(data):
                raise MalformedHeader("ipv6 AH truncated")
            next_header = data[offset]
            offset += ext_len
        else:
            return Skip(SkipReason.OTHER_IP_PROTOCOL)
    return Skip(SkipReason.OTHER_IP_PROTOCOL)


def _decode_transport(
    frame: RawFrame,
    proto: int,
    src: str,
    dst: str,
    ip_version: int,
    data: bytes,
    l4_start: int,
    l4_end: int,
    l4_declared: int,
) -> PacketRecord | Skip:
    """Decode the TCP or UDP header in ``data[l4_start:l4_end]`` (as captured)."""
    l4_len = l4_end - l4_start
    if proto == IPPROTO_TCP:
        if l4_len < 20:
            raise MalformedHeader("tcp header short")
        header_len = (data[l4_start + 12] >> 4) * 4
        if header_len < 20 or l4_len < header_len:
            raise MalformedHeader("tcp header short")
        src_port, dst_port = _PORTS.unpack_from(data, l4_start)
        payload = data[l4_start + header_len : l4_end]
        declared_payload = max(l4_declared - header_len, 0)
        return PacketRecord(
            ts_ns=frame.ts_ns,
            ip_version=ip_version,
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            transport=Transport.TCP,
            packet_len=frame.original_len,
            payload=payload,
            tcp_flags=data[l4_start + 13],
            payload_truncated=len(payload) < declared_payload,
        )
    if proto == IPPROTO_UDP:
        if l4_len < 8:
            raise MalformedHeader("udp header short")
        src_port, dst_port, udp_len = _UDP_HEADER.unpack_from(data, l4_start)
        if udp_len < 8:
            raise MalformedHeader("udp length below minimum")
        declared_payload = udp_len - 8
        payload = data[l4_start + 8 : min(l4_end, l4_start + udp_len)]
        return PacketRecord(
            ts_ns=frame.ts_ns,
            ip_version=ip_version,
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            transport=Transport.UDP,
            packet_len=frame.original_len,
            payload=payload,
            payload_truncated=len(payload) < declared_payload,
        )
    return Skip(SkipReason.OTHER_IP_PROTOCOL)


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
    """Decode every frame of a stream, tallying skips and malformed frames."""
    if summary is None:
        summary = DecodeSummary()
    records: list[PacketRecord] = []
    for raw in stream.frames:
        try:
            outcome = decode_frame(raw, stream.linktype_id)
        except MalformedHeader:
            summary.malformed += 1
            continue
        if isinstance(outcome, Skip):
            summary.skipped[outcome.reason] = summary.skipped.get(outcome.reason, 0) + 1
        else:
            records.append(outcome)
            summary.records += 1
    return records
