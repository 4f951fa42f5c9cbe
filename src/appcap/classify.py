"""Per-packet application-protocol resolution with per-flow state.

Each packet is tagged HTTP, Do53, DoT, TLS (with version), QUIC or Other*.
TLS versions come from two signals: the hello legacy version fields and the
supported-versions extension, carried across packets by a bounded per-flow
reassembly of the TCP byte stream. DoH and DoQ are indistinguishable from
HTTPS/QUIC on the wire and are deliberately not classified.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .ingest import PacketRecord, Transport
from .tlswire import (
    CONTENT_APPLICATION_DATA,
    HANDSHAKE_CLIENT_HELLO,
    HANDSHAKE_SERVER_HELLO,
    Desync,
    NotTls,
    TlsRecordView,
    TlsVersion,
    parse_tls_records,
    resolve_tls_version,
)

DNS_PORT = 53
DOT_PORT = 853
HTTP_PORT = 80

REASSEMBLY_CAP = 65536

_HTTP_PREFIXES = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ", b"HTTP/")

QUIC_V1 = 0x00000001
QUIC_V2 = 0x6B3343CF
_QUIC_DRAFT_VERSIONS = frozenset(range(0xFF00001D, 0xFF000021))
_QUIC_KNOWN_VERSIONS = frozenset({QUIC_V1, QUIC_V2}) | _QUIC_DRAFT_VERSIONS

# Long-header packet types in the v1 numbering (RFC 9000 §17.2).
QUIC_INITIAL = 0
QUIC_0RTT = 1
QUIC_HANDSHAKE = 2
QUIC_RETRY = 3
# QUIC v2 permutes the type bits (RFC 9369 §3.2): 0b00 Retry, 0b01 Initial,
# 0b10 0-RTT, 0b11 Handshake. Indexed by the v2 bits, gives the v1 number.
_QUIC_V2_TYPES = (QUIC_RETRY, QUIC_INITIAL, QUIC_0RTT, QUIC_HANDSHAKE)


class ProtoTag(enum.Enum):
    HTTP = "HTTP"
    DO53 = "Do53"
    DOT = "DoT"
    TLS = "TLS"
    QUIC = "QUIC"
    OTHER_TCP = "OtherTCP"
    OTHER_UDP = "OtherUDP"


@dataclass(frozen=True, slots=True)
class AppProtocol:
    tag: ProtoTag
    tls_version: TlsVersion | None = None
    # Display label; TLS expands by version, DoT collapses to one bucket.
    # Derived once here because reports read it for every packet.
    category: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        versioned = self.tag in (ProtoTag.TLS, ProtoTag.DOT)
        if versioned != (self.tls_version is not None):
            raise ValueError("tls_version present iff tag is TLS or DoT")
        label = self.tls_version.label if self.tag is ProtoTag.TLS else self.tag.value
        object.__setattr__(self, "category", label)


@dataclass(frozen=True, slots=True)
class FlowKey:
    endpoint_lo: tuple[str, int]
    endpoint_hi: tuple[str, int]
    transport: Transport

    @classmethod
    def from_record(cls, record: PacketRecord) -> "FlowKey":
        a = (record.src_ip, record.src_port)
        b = (record.dst_ip, record.dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        return cls(endpoint_lo=lo, endpoint_hi=hi, transport=record.transport)


@dataclass
class FlowState:
    negotiated_tls: TlsVersion | None = None
    client_hello_version_hint: TlsVersion | None = None
    quic_seen: bool = False
    client_random: bytes | None = None
    last_protocol: AppProtocol | None = None
    buffers: dict[tuple[str, int], bytes] = field(default_factory=dict)
    desync: dict[tuple[str, int], bool] = field(default_factory=dict)

    @property
    def tls_version(self) -> TlsVersion:
        return self.negotiated_tls or self.client_hello_version_hint or TlsVersion.UNKNOWN


class _ClassifiedPacketFields(NamedTuple):
    record: PacketRecord
    protocol: AppProtocol
    is_app_data: bool
    flow: FlowKey


class ClassifiedPacket(_ClassifiedPacketFields):
    """A packet with its application protocol and flow.

    Immutable and hashable; being a tuple, it equals a plain tuple of the
    same fields.
    """

    __slots__ = ()

    def __new__(cls, record: PacketRecord, protocol: AppProtocol, is_app_data: bool, flow: FlowKey):
        if is_app_data and not record.payload:
            raise ValueError("app-data packets must carry payload")
        return tuple.__new__(cls, (record, protocol, is_app_data, flow))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here; keep it behind the check.
        return cls(*iterable)


@dataclass(frozen=True)
class QuicInfo:
    """``long_packet_type`` uses the v1 numbering for every known version."""

    long_header: bool
    version: int | None = None
    long_packet_type: int | None = None


# Short headers carry no version or type, so one instance serves them all.
_SHORT_HEADER = QuicInfo(long_header=False)
_U32 = struct.Struct(">I")


def detect_quic(payload: bytes, quic_seen: bool = False) -> QuicInfo | None:
    """Recognize QUIC long headers, and short headers on known-QUIC flows.

    Detection is purely header-shaped: long headers need the form+fixed bits
    and a known version; short headers are only trusted once the flow has
    produced a long header.
    """
    if not payload:
        return None
    b0 = payload[0]
    if b0 & 0x80:
        if not b0 & 0x40 or len(payload) < 7:
            return None
        version = _U32.unpack_from(payload, 1)[0]
        if version == 0:
            return QuicInfo(long_header=True, version=0)
        if version not in _QUIC_KNOWN_VERSIONS:
            return None
        # v1 and the drafts share the Initial/0-RTT/Handshake/Retry layout.
        packet_type = (b0 & 0x30) >> 4
        if version == QUIC_V2:
            packet_type = _QUIC_V2_TYPES[packet_type]
        return QuicInfo(long_header=True, version=version, long_packet_type=packet_type)
    if quic_seen and b0 & 0x40:
        return _SHORT_HEADER
    return None


def dns_message(payload: bytes, transport: Transport) -> bytes | None:
    """Return the DNS message bytes if the payload is a plausible DNS message.

    TCP carries a two-byte length prefix. Well-formed means a full 12-byte
    header with QDCOUNT >= 1 or the QR response bit set.
    """
    msg = payload
    if transport is Transport.TCP:
        if len(payload) < 14:
            return None
        msg = payload[2:]
    if len(msg) < 12:
        return None
    flags, qdcount = struct.unpack(">HH", msg[2:6])
    if qdcount >= 1 or flags & 0x8000:
        return msg
    return None


def dns_query_name(payload: bytes, transport: Transport) -> str | None:
    """Extract the first question name (lowercase, dotted), if parseable."""
    msg = dns_message(payload, transport)
    if msg is None:
        return None
    labels = []
    pos = 12
    hops = 0
    while pos < len(msg):
        length = msg[pos]
        if length == 0:
            break
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(msg) or hops > 10:
                return None
            pos = ((length & 0x3F) << 8) | msg[pos + 1]
            hops += 1
            continue
        if length & 0xC0 or pos + 1 + length > len(msg):
            return None
        labels.append(msg[pos + 1 : pos + 1 + length])
        pos += 1 + length
    if not labels:
        return None
    try:
        return b".".join(labels).decode("ascii").lower()
    except UnicodeDecodeError:
        return None


class FlowTable:
    """Flow-confined classification state for one capture."""

    def __init__(self):
        self.states: dict[FlowKey, FlowState] = {}
        # Directional (src_ip, src_port, dst_ip, dst_port, is_tcp) to the
        # flow's key and state and the sender endpoint, so a FlowKey is built
        # and hashed once per flow direction rather than once per packet.
        self._directions: dict[tuple, tuple[FlowKey, FlowState, tuple[str, int]]] = {}

    def state_for(self, key: FlowKey) -> FlowState:
        state = self.states.get(key)
        if state is None:
            state = FlowState()
            self.states[key] = state
        return state

    def classify(self, record: PacketRecord) -> ClassifiedPacket:
        is_tcp = record.transport is Transport.TCP
        direction = (record.src_ip, record.src_port, record.dst_ip, record.dst_port, is_tcp)
        entry = self._directions.get(direction)
        if entry is None:
            key = FlowKey.from_record(record)
            entry = (key, self.state_for(key), (record.src_ip, record.src_port))
            self._directions[direction] = entry
        key, state, sender = entry
        payload = record.payload
        ports = (record.src_port, record.dst_port)
        is_dot_port = is_tcp and DOT_PORT in ports

        if not payload:
            if state.last_protocol is not None:
                protocol = state.last_protocol
            elif is_dot_port:
                protocol = AppProtocol(ProtoTag.DOT, state.tls_version)
            else:
                protocol = _other(record.transport)
            return ClassifiedPacket(record, protocol, False, key)

        tls_ok = False
        has_app_record = False
        if is_tcp:
            tls_ok, records, partial_app_data = _ingest_tls(
                state, sender, payload, record.payload_truncated
            )
            _absorb_hellos(state, records)
            has_app_record = partial_app_data or any(
                r.content_type == CONTENT_APPLICATION_DATA for r in records
            )

        protocol: AppProtocol
        is_app_data: bool
        if is_dot_port:
            protocol = _protocol(state, ProtoTag.DOT, state.tls_version)
            is_app_data = has_app_record
        elif DNS_PORT in ports and dns_message(payload, record.transport) is not None:
            protocol = _protocol(state, ProtoTag.DO53)
            is_app_data = True
        elif is_tcp and tls_ok:
            protocol = _protocol(state, ProtoTag.TLS, state.tls_version)
            is_app_data = has_app_record
        elif (
            is_tcp
            and state.last_protocol is not None
            and state.last_protocol.tag in (ProtoTag.TLS, ProtoTag.DOT)
        ):
            # Desynchronized tail of an established TLS flow: keep the tag,
            # treat the unparseable bytes as unknown (non-app) data.
            protocol = state.last_protocol
            is_app_data = False
        elif is_tcp and HTTP_PORT in ports and payload.startswith(_HTTP_PREFIXES):
            protocol = _protocol(state, ProtoTag.HTTP)
            is_app_data = True
        else:
            quic = None
            if not is_tcp:
                quic = detect_quic(payload, state.quic_seen)
            if quic is not None:
                if quic.long_header:
                    state.quic_seen = True
                protocol = _protocol(state, ProtoTag.QUIC)
                is_app_data = (not quic.long_header) or quic.long_packet_type == QUIC_0RTT
            else:
                protocol = _protocol(
                    state, ProtoTag.OTHER_TCP if is_tcp else ProtoTag.OTHER_UDP
                )
                is_app_data = False

        state.last_protocol = protocol
        return ClassifiedPacket(record, protocol, is_app_data, key)


def _protocol(state: FlowState, tag: ProtoTag, tls_version: TlsVersion | None = None) -> AppProtocol:
    """The flow's last protocol when it is unchanged, else a new one."""
    last = state.last_protocol
    if last is not None and last.tag is tag and last.tls_version is tls_version:
        return last
    return AppProtocol(tag, tls_version)


def _other(transport: Transport) -> AppProtocol:
    return AppProtocol(ProtoTag.OTHER_TCP if transport is Transport.TCP else ProtoTag.OTHER_UDP)


def _ingest_tls(
    state: FlowState, sender: tuple[str, int], payload: bytes, truncated: bool
) -> tuple[bool, list[TlsRecordView], bool]:
    """Feed one direction's payload through the record parser.

    Returns (parsed-as-TLS, complete records, partial-app-data-seen). The
    per-direction carryover buffer is bounded; truncation and desync reset it
    so the next packet re-syncs at its own segment boundary.
    """
    buf = b"" if state.desync.get(sender) else state.buffers.get(sender, b"")
    data = buf + payload
    try:
        records, remainder = parse_tls_records(data)
        broke = False
    except NotTls:
        state.buffers[sender] = b""
        if buf:
            state.desync[sender] = True
        return False, [], False
    except Desync as exc:
        records = exc.records
        remainder = b""
        broke = True

    partial_app_data = bool(remainder) and remainder[0] == CONTENT_APPLICATION_DATA

    if truncated or broke or len(remainder) > REASSEMBLY_CAP:
        state.buffers[sender] = b""
        state.desync[sender] = True
    else:
        state.buffers[sender] = remainder
        state.desync[sender] = False
    return True, records, partial_app_data


def _absorb_hellos(state: FlowState, records: list[TlsRecordView]) -> None:
    for view in records:
        if view.handshake_type == HANDSHAKE_CLIENT_HELLO:
            if state.client_random is None and view.random is not None:
                state.client_random = view.random
            state.client_hello_version_hint = resolve_tls_version(view, None)
        elif view.handshake_type == HANDSHAKE_SERVER_HELLO:
            if state.negotiated_tls is None:
                state.negotiated_tls = resolve_tls_version(None, view)


def classify_capture(packets) -> list[ClassifiedPacket]:
    """Classify a capture's packets in order with a fresh flow table."""
    flows = FlowTable()
    return [flows.classify(record) for record in packets]
