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
    CONTENT_HANDSHAKE,
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

    __hash__ = object.__hash__  # identity, in C; see tlswire.TlsVersion


@dataclass(frozen=True, slots=True, eq=False, init=False)
class AppProtocol:
    """A packet's application protocol, interned: equal values are one object.

    So ``==`` and ``hash`` are the C identity versions, and a tally keyed by
    protocols runs no Python code to hash or compare one. Every valid
    (tag, version) pair is made once, at import.
    """

    tag: ProtoTag
    tls_version: TlsVersion | None = None
    # Display label; TLS expands by version, DoT collapses to one bucket.
    # Derived once here because reports read it for every packet.
    category: str = field(default="", repr=False)

    def __new__(cls, tag: ProtoTag, tls_version: TlsVersion | None = None):
        try:
            return _PROTOCOLS[tag, tls_version]
        except KeyError:
            raise ValueError("tls_version present iff tag is TLS or DoT") from None

    def __reduce__(self):
        return AppProtocol, (self.tag, self.tls_version)


def _make_protocol(tag: ProtoTag, tls_version: TlsVersion | None) -> AppProtocol:
    protocol = object.__new__(AppProtocol)
    label = tls_version.label if tag is ProtoTag.TLS else tag.value
    for name, value in (("tag", tag), ("tls_version", tls_version), ("category", label)):
        object.__setattr__(protocol, name, value)
    return protocol


_PROTOCOLS = {
    (tag, version): _make_protocol(tag, version)
    for tag in ProtoTag
    for version in (TlsVersion if tag in (ProtoTag.TLS, ProtoTag.DOT) else [None])
}
# Per-packet code reads enum members from module globals, not their class.
_TLS_TAG, _DOT_TAG = ProtoTag.TLS, ProtoTag.DOT
_DO53 = AppProtocol(ProtoTag.DO53)
_HTTP = AppProtocol(ProtoTag.HTTP)
_QUIC = AppProtocol(ProtoTag.QUIC)
_OTHER_TCP = AppProtocol(ProtoTag.OTHER_TCP)
_OTHER_UDP = AppProtocol(ProtoTag.OTHER_UDP)
_TCP = Transport.TCP


class _FlowKeyFields(NamedTuple):
    endpoint_lo: tuple[str, int]
    endpoint_hi: tuple[str, int]
    transport: Transport


class FlowKey(_FlowKeyFields):
    """A flow's two endpoints, lower first, and its transport.

    A tuple, so sets and dicts of keys hash and compare it in C; it equals a
    plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(cls, endpoint_lo, endpoint_hi, transport):
        if endpoint_hi < endpoint_lo:
            raise ValueError("endpoint_lo must not sort after endpoint_hi")
        return tuple.__new__(cls, (endpoint_lo, endpoint_hi, transport))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here; keep it behind the check.
        return cls(*iterable)

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
    # Set once any packet of the flow is tagged TLS or DoT.
    tls_seen: bool = False
    client_random: bytes | None = None
    last_protocol: AppProtocol | None = None
    buffers: dict[tuple[str, int], bytes] = field(default_factory=dict)

    @property
    def tls_version(self) -> TlsVersion:
        return self.negotiated_tls or self.client_hello_version_hint or TlsVersion.UNKNOWN


class _ClassifiedPacketFields(NamedTuple):
    record: PacketRecord
    protocol: AppProtocol
    is_app_data: bool
    flow: FlowKey
    detail: str | bytes | QuicInfo | None = None


class ClassifiedPacket(_ClassifiedPacketFields):
    """A packet with its application protocol and flow.

    ``detail`` keeps what the classifier parsed: for TLS/DoT, ``tls_info``
    of the payload's own records (None when carried-over bytes came first,
    or without payload); for Do53, the validated DNS message; for QUIC, the
    header's ``QuicInfo``; otherwise None.

    Immutable and hashable; being a tuple, it equals a plain tuple of the
    same fields.
    """

    __slots__ = ()

    def __new__(cls, record, protocol, is_app_data, flow, detail=None):
        if is_app_data and not record.payload:
            raise ValueError("app-data packets must carry payload")
        return tuple.__new__(cls, (record, protocol, is_app_data, flow, detail))

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
# Likewise one per long header, keyed by version and type bits; a version
# negotiation (0) has no type, and v1 and the drafts share one numbering.
_LONG_HEADERS = {
    (v, bits << 4): QuicInfo(True, v, None if v == 0 else _QUIC_V2_TYPES[bits] if v == QUIC_V2 else bits)
    for v in _QUIC_KNOWN_VERSIONS | {0}
    for bits in range(4)
}
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
        return _LONG_HEADERS.get((_U32.unpack_from(payload, 1)[0], b0 & 0x30))
    if quic_seen and b0 & 0x40:
        return _SHORT_HEADER
    return None


def dns_message(payload: bytes, transport: Transport) -> bytes | None:
    """Return the DNS message bytes if the payload is a plausible DNS message.

    TCP carries a two-byte length prefix. Well-formed means a full 12-byte
    header with QDCOUNT >= 1 or the QR response bit set.
    """
    msg = payload
    if transport is _TCP:
        if len(payload) < 14:
            return None
        msg = payload[2:]
    if len(msg) < 12:
        return None
    flags, qdcount = struct.unpack(">HH", msg[2:6])
    if qdcount >= 1 or flags & 0x8000:
        return msg
    return None


def dns_query_name(msg: bytes) -> str | None:
    """The first question name (lowercase, dotted) of a message that
    ``dns_message`` accepted, if parseable."""
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

    def classify(self, record: PacketRecord) -> ClassifiedPacket:
        _, src_ip, dst_ip, src_port, dst_port, transport, _, payload, truncated = record
        is_tcp = transport is _TCP
        direction = (src_ip, src_port, dst_ip, dst_port, is_tcp)
        entry = self._directions.get(direction)
        if entry is None:
            key = FlowKey.from_record(record)
            state = self.states.setdefault(key, FlowState())
            entry = self._directions[direction] = (key, state, (src_ip, src_port))
        key, state, sender = entry
        ports = (src_port, dst_port)
        is_dot_port = is_tcp and DOT_PORT in ports

        if not payload:
            if state.last_protocol is not None:
                protocol = state.last_protocol
            elif is_dot_port:
                protocol = _PROTOCOLS[_DOT_TAG, state.tls_version]
                state.tls_seen = True
            else:
                protocol = _OTHER_TCP if is_tcp else _OTHER_UDP
            return ClassifiedPacket(record, protocol, False, key)

        tls_ok = False
        has_app_record = False
        tls_detail = None
        if is_tcp:
            tls_ok, records, partial_app_data, tls_detail = _ingest_tls(
                state, sender, payload, truncated
            )
            has_app_record = _absorb_records(state, records) or partial_app_data

        protocol: AppProtocol
        is_app_data: bool
        detail = None
        if is_dot_port:
            protocol = _PROTOCOLS[_DOT_TAG, state.tls_version]
            is_app_data = has_app_record
            detail = tls_detail
            state.tls_seen = True
        elif DNS_PORT in ports and (msg := dns_message(payload, transport)) is not None:
            protocol = _DO53
            is_app_data = True
            detail = msg
        elif is_tcp and tls_ok:
            protocol = _PROTOCOLS[_TLS_TAG, state.tls_version]
            is_app_data = has_app_record
            detail = tls_detail
            state.tls_seen = True
        elif (
            is_tcp
            and state.last_protocol is not None
            and state.last_protocol.tag in (_TLS_TAG, _DOT_TAG)
        ):
            # Desynchronized tail of an established TLS flow: keep the tag,
            # treat the unparseable bytes as unknown (non-app) data.
            protocol = state.last_protocol
            is_app_data = False
            detail = tls_detail
        elif is_tcp and HTTP_PORT in ports and payload.startswith(_HTTP_PREFIXES):
            protocol = _HTTP
            is_app_data = True
        else:
            quic = None
            if not is_tcp:
                quic = detect_quic(payload, state.quic_seen)
            if quic is not None:
                if quic.long_header:
                    state.quic_seen = True
                protocol = _QUIC
                is_app_data = (not quic.long_header) or quic.long_packet_type == QUIC_0RTT
                detail = quic
            else:
                protocol = _OTHER_TCP if is_tcp else _OTHER_UDP
                is_app_data = False

        state.last_protocol = protocol
        return ClassifiedPacket(record, protocol, is_app_data, key, detail)


_RECORD_NAMES = {20: "ChangeCipherSpec", 21: "Alert", 22: "Handshake", 23: "ApplicationData"}
_HELLO_NAMES = {HANDSHAKE_CLIENT_HELLO: "ClientHello", HANDSHAKE_SERVER_HELLO: "ServerHello"}


def tls_info(records: list[TlsRecordView]) -> str:
    """The feature table's info for one payload's records: their names, or
    ``Continuation`` when it holds no complete record."""
    names = []
    for view in records:
        if view.is_sslv2:
            names.append("SSLv2Handshake")
        elif view.content_type == CONTENT_HANDSHAKE and view.handshake_type in _HELLO_NAMES:
            names.append(_HELLO_NAMES[view.handshake_type])
        else:
            names.append(_RECORD_NAMES[view.content_type])
    return ",".join(names) or "Continuation"


def _ingest_tls(
    state: FlowState, sender: tuple[str, int], payload: bytes, truncated: bool
) -> tuple[bool, list[TlsRecordView], bool, str | None]:
    """Feed one direction's payload through the record parser.

    Returns (parsed-as-TLS, complete records, partial-app-data-seen, info):
    ``info`` is ``tls_info`` of the records, ``Continuation`` when the bytes
    are not TLS or break framing, and None when carried-over bytes came in
    front of the payload. The per-direction carryover buffer is bounded;
    truncation and desync reset it so the next packet re-syncs at its own
    segment boundary.
    """
    buf = state.buffers.get(sender, b"")
    data = buf + payload
    try:
        records, remainder = parse_tls_records(data)
        info = None if buf else tls_info(records)
        broke = False
    except NotTls:
        state.buffers[sender] = b""
        return False, [], False, None if buf else "Continuation"
    except Desync as exc:
        records = exc.records
        remainder = b""
        info = None if buf else "Continuation"
        broke = True

    partial_app_data = bool(remainder) and remainder[0] == CONTENT_APPLICATION_DATA

    reset = truncated or broke or len(remainder) > REASSEMBLY_CAP
    state.buffers[sender] = b"" if reset else remainder
    return True, records, partial_app_data, info


def _absorb_records(state: FlowState, records: list[TlsRecordView]) -> bool:
    """Take the hellos' version signals; True if a record is application data."""
    app_data = False
    for view in records:
        if view.content_type == CONTENT_APPLICATION_DATA:
            app_data = True
        elif view.handshake_type == HANDSHAKE_CLIENT_HELLO:
            if state.client_random is None and view.random is not None:
                state.client_random = view.random
            state.client_hello_version_hint = resolve_tls_version(view, None)
        elif view.handshake_type == HANDSHAKE_SERVER_HELLO:
            if state.negotiated_tls is None:
                state.negotiated_tls = resolve_tls_version(None, view)
    return app_data

