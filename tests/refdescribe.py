"""The feature table's ``info`` as the package computed it before the
classifier kept its parse: a cross-check oracle for ``describe_packet``.

It re-parses each packet's own payload, as the old code did: TLS records
from the payload alone, the DNS message validated and its name read anew,
the QUIC header detected again. Keep it as it is; it is the reference.
"""

from __future__ import annotations

from appcap.classify import ClassifiedPacket, ProtoTag, detect_quic, dns_message
from appcap.ingest import Transport
from appcap.tlswire import Desync, NotTls, parse_tls_records

_RECORD_NAMES = {20: "ChangeCipherSpec", 21: "Alert", 22: "Handshake", 23: "ApplicationData"}
_HANDSHAKE_NAMES = {1: "ClientHello", 2: "ServerHello"}


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


def describe_packet(cp: ClassifiedPacket) -> str:
    """Short info string for the per-packet feature table."""
    record = cp.record
    tag = cp.protocol.tag
    if tag in (ProtoTag.TLS, ProtoTag.DOT) and record.payload:
        try:
            views, _ = parse_tls_records(record.payload)
        except (NotTls, Desync):
            return "Continuation"
        names = []
        for view in views:
            if view.is_sslv2:
                names.append("SSLv2Handshake")
            elif view.content_type == 22 and view.handshake_type in _HANDSHAKE_NAMES:
                names.append(_HANDSHAKE_NAMES[view.handshake_type])
            elif view.content_type in _RECORD_NAMES:
                names.append(_RECORD_NAMES[view.content_type])
        return ",".join(names) if names else "Continuation"
    if tag is ProtoTag.DO53:
        msg = dns_message(record.payload, record.transport)
        kind = "Response" if msg is not None and msg[2] & 0x80 else "Query"
        name = dns_query_name(record.payload, record.transport)
        return f"{kind} {name}" if name else kind
    if tag is ProtoTag.HTTP:
        line = record.payload.split(b"\r\n", 1)[0][:80]
        return line.decode("ascii", errors="replace")
    if tag is ProtoTag.QUIC:
        info = detect_quic(record.payload, quic_seen=True)
        if info is None:
            return ""
        return "LongHeader" if info.long_header else "ShortHeader"
    return ""
