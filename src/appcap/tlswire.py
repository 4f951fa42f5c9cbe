"""TLS record and handshake-header parsing for version extraction.

Parses just enough of the TLS wire format to recover record content types and
the version signals carried by ClientHello/ServerHello messages: the legacy
version field and the supported-versions extension. SSLv2-framed records
(MSB-set two-byte length) are recognized as their own thing.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

CONTENT_CHANGE_CIPHER_SPEC = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23
_CONTENT_TYPES = frozenset({20, 21, 22, 23})

HANDSHAKE_CLIENT_HELLO = 1
HANDSHAKE_SERVER_HELLO = 2

EXT_SUPPORTED_VERSIONS = 43

# Largest on-wire record (5-byte header + body) we accept before declaring
# the stream desynchronized.
MAX_RECORD_WIRE = 16708

# SSLv2 message types that make an MSB-framed record plausible.
_SSLV2_MSG_TYPES = frozenset({1, 2, 3, 4})


class TlsVersion(enum.Enum):
    SSLV2 = "SSLv2"
    SSLV3 = "SSLv3"
    TLS1_0 = "TLSv1.0"
    TLS1_1 = "TLSv1.1"
    TLS1_2 = "TLSv1.2"
    TLS1_3 = "TLSv1.3"
    UNKNOWN = "SSL"

    # Members are singletons, so the C identity hash serves; Enum's own
    # __hash__ is Python code, and tallies hash a version per packet.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        return self.value


WIRE_TO_VERSION = {
    0x0002: TlsVersion.SSLV2,
    0x0300: TlsVersion.SSLV3,
    0x0301: TlsVersion.TLS1_0,
    0x0302: TlsVersion.TLS1_1,
    0x0303: TlsVersion.TLS1_2,
    0x0304: TlsVersion.TLS1_3,
}


class NotTls(Exception):
    """Input does not start with TLS or SSLv2 record framing."""


class Desync(Exception):
    """Record framing broke mid-stream; carries records parsed before it."""

    def __init__(self, records: list["TlsRecordView"]):
        super().__init__("record stream desynchronized")
        self.records = records


@dataclass(frozen=True)
class TlsRecordView:
    """One parsed record; handshake fields are None when absent."""

    content_type: int | None  # 20/21/22/23, None for SSLv2 framing
    is_sslv2: bool = False
    handshake_type: int | None = None
    legacy_version: int | None = None
    random: bytes | None = None
    supported_versions: tuple[int, ...] | None = None


# Views of records without a handshake header, one per content type: views
# are immutable, so one serves every such record.
_PLAIN_VIEWS = {content_type: TlsRecordView(content_type) for content_type in _CONTENT_TYPES}


def _is_grease(value: int) -> bool:
    return (value & 0x0F0F) == 0x0A0A and (value >> 12) == ((value >> 4) & 0x0F)


def parse_tls_records(data: bytes) -> tuple[list[TlsRecordView], bytes]:
    """Split a stream slice into complete records plus a trailing partial.

    Raises NotTls when the slice does not begin with plausible TLS/SSLv2
    framing (the caller falls back to other classifiers) and Desync when
    framing breaks later or a length field is absurd.
    """
    records: list[TlsRecordView] = []
    offset = 0
    n = len(data)
    while offset < n:
        rem = n - offset
        b0 = data[offset]
        if b0 in _CONTENT_TYPES:
            # Version sanity: 0x03 0x00..0x04 covers SSLv3 through TLS1.3.
            if rem >= 2 and data[offset + 1] != 0x03:
                _bail(records, offset)
            if rem >= 3 and data[offset + 2] > 0x04:
                _bail(records, offset)
            if rem < 5:
                break
            length = (data[offset + 3] << 8) | data[offset + 4]
            if 5 + length > MAX_RECORD_WIRE:
                raise Desync(records)
            if rem < 5 + length:
                break
            if b0 == CONTENT_HANDSHAKE and length >= 4:
                records.append(_handshake_view(data[offset + 5 : offset + 5 + length]))
            else:
                records.append(_PLAIN_VIEWS[b0])
            offset += 5 + length
        elif b0 & 0x80:
            if rem >= 3 and data[offset + 2] not in _SSLV2_MSG_TYPES:
                _bail(records, offset)
            if rem < 3:
                break
            length = ((b0 & 0x7F) << 8) | data[offset + 1]
            if length < 1:
                _bail(records, offset)
            if rem < 2 + length:
                break
            records.append(_sslv2_view(data[offset + 2 : offset + 2 + length]))
            offset += 2 + length
        else:
            _bail(records, offset)
    return records, data[offset:]


def _bail(records: list[TlsRecordView], offset: int):
    if offset == 0 and not records:
        raise NotTls("payload is not TLS-framed")
    raise Desync(records)


def _handshake_view(body: bytes) -> TlsRecordView:
    """A handshake record whose body holds at least a message header."""
    msg_type = body[0]
    if msg_type not in (HANDSHAKE_CLIENT_HELLO, HANDSHAKE_SERVER_HELLO):
        return TlsRecordView(content_type=CONTENT_HANDSHAKE, handshake_type=msg_type)
    msg_len = (body[1] << 16) | (body[2] << 8) | body[3]
    msg = body[4 : 4 + msg_len]
    legacy = struct.unpack(">H", msg[0:2])[0] if len(msg) >= 2 else None
    random = msg[2:34] if len(msg) >= 34 else None
    supported = _supported_versions(msg, msg_type)
    return TlsRecordView(
        content_type=CONTENT_HANDSHAKE,
        handshake_type=msg_type,
        legacy_version=legacy,
        random=random,
        supported_versions=supported,
    )


def _supported_versions(msg: bytes, msg_type: int) -> tuple[int, ...] | None:
    # Skip to the extensions block: version(2) random(32) session_id, then
    # cipher suites + compression (ClientHello) or suite + method (ServerHello).
    pos = 34
    if len(msg) < pos + 1:
        return None
    pos += 1 + msg[pos]
    if msg_type == HANDSHAKE_CLIENT_HELLO:
        if len(msg) < pos + 2:
            return None
        pos += 2 + struct.unpack(">H", msg[pos : pos + 2])[0]
        if len(msg) < pos + 1:
            return None
        pos += 1 + msg[pos]
    else:
        pos += 3
    if len(msg) < pos + 2:
        return None
    ext_total = struct.unpack(">H", msg[pos : pos + 2])[0]
    pos += 2
    end = min(len(msg), pos + ext_total)
    while pos + 4 <= end:
        ext_type, ext_len = struct.unpack(">HH", msg[pos : pos + 4])
        pos += 4
        ext = msg[pos : pos + ext_len]
        pos += ext_len
        if ext_type != EXT_SUPPORTED_VERSIONS or len(ext) < 2:
            continue
        if msg_type == HANDSHAKE_SERVER_HELLO:
            return (struct.unpack(">H", ext[0:2])[0],)
        count = ext[0] // 2
        versions = []
        for i in range(count):
            lo = 1 + i * 2
            if lo + 2 > len(ext):
                break
            versions.append(struct.unpack(">H", ext[lo : lo + 2])[0])
        return tuple(versions)
    return None


def _sslv2_view(body: bytes) -> TlsRecordView:
    # SSLv2 message types share no numbering with TLS handshake types; only
    # CLIENT-HELLO (1) maps onto the hello-tracking machinery.
    msg_type = body[0]
    legacy = None
    if msg_type == HANDSHAKE_CLIENT_HELLO and len(body) >= 3:
        legacy = struct.unpack(">H", body[1:3])[0]
    return TlsRecordView(
        content_type=None,
        is_sslv2=True,
        handshake_type=HANDSHAKE_CLIENT_HELLO if msg_type == HANDSHAKE_CLIENT_HELLO else None,
        legacy_version=legacy,
    )


def resolve_tls_version(
    client_hello: TlsRecordView | None, server_hello: TlsRecordView | None
) -> TlsVersion:
    """Pick the flow's TLS version from the hellos seen so far.

    A ServerHello supported-versions extension wins outright; otherwise the
    ServerHello legacy field decides; with only a ClientHello the best
    advertised version is a hint. Unmappable values collapse to UNKNOWN.
    """
    if client_hello is None and server_hello is None:
        raise ValueError("at least one hello required")
    if server_hello is not None:
        if server_hello.supported_versions:
            return WIRE_TO_VERSION.get(server_hello.supported_versions[0], TlsVersion.UNKNOWN)
        if server_hello.legacy_version is not None:
            return WIRE_TO_VERSION.get(server_hello.legacy_version, TlsVersion.UNKNOWN)
        return TlsVersion.UNKNOWN
    if client_hello.is_sslv2:
        return TlsVersion.SSLV2
    if client_hello.supported_versions:
        known = [
            v for v in client_hello.supported_versions if not _is_grease(v) and v in WIRE_TO_VERSION
        ]
        if known:
            return WIRE_TO_VERSION[max(known)]
        return TlsVersion.UNKNOWN
    if client_hello.legacy_version is not None:
        return WIRE_TO_VERSION.get(client_hello.legacy_version, TlsVersion.UNKNOWN)
    return TlsVersion.UNKNOWN
