"""Minimal independent dissector used as a cross-check oracle.

No packet library is available in this environment, so this module plays the
reference-dissector role: it decodes fields at explicit offsets taken from
the protocol layout tables (Ethernet, SLL, SLL2, IPv4, IPv6, TCP/UDP, TLS
records and hellos), sharing no code with the package under test. Keep it dumb: offsets
and slices only, no loops that could hide an off-by-one in both codebases.
"""

from __future__ import annotations

import struct


def ethernet_fields(frame: bytes) -> dict:
    return {
        "dst_mac": frame[0:6],
        "src_mac": frame[6:12],
        "protocol": int.from_bytes(frame[12:14], "big"),
        "payload": frame[14:],
    }


def sll_fields(frame: bytes) -> dict:
    return {
        "packet_type": int.from_bytes(frame[0:2], "big"),
        "arphrd": int.from_bytes(frame[2:4], "big"),
        "addr_len": int.from_bytes(frame[4:6], "big"),
        "protocol": int.from_bytes(frame[14:16], "big"),
        "payload": frame[16:],
    }


def sll2_fields(frame: bytes) -> dict:
    return {
        "protocol": int.from_bytes(frame[0:2], "big"),
        "ifindex": int.from_bytes(frame[4:8], "big"),
        "arphrd": int.from_bytes(frame[8:10], "big"),
        "packet_type": frame[10],
        "addr_len": frame[11],
        "payload": frame[20:],
    }


def ipv4_fields(packet: bytes) -> dict:
    ihl = (packet[0] & 0x0F) * 4
    return {
        "version": packet[0] >> 4,
        "header_len": ihl,
        "total_len": int.from_bytes(packet[2:4], "big"),
        "protocol": packet[9],
        "src": ".".join(str(b) for b in packet[12:16]),
        "dst": ".".join(str(b) for b in packet[16:20]),
        "payload": packet[ihl:],
    }


def ipv6_fields(packet: bytes) -> dict:
    return {
        "version": packet[0] >> 4,
        "payload_len": int.from_bytes(packet[4:6], "big"),
        "next_header": packet[6],
        "src": packet[8:24],
        "dst": packet[24:40],
        "payload": packet[40:],
    }


def udp_fields(segment: bytes) -> dict:
    return {
        "src_port": int.from_bytes(segment[0:2], "big"),
        "dst_port": int.from_bytes(segment[2:4], "big"),
        "length": int.from_bytes(segment[4:6], "big"),
        "payload": segment[8:],
    }


def tcp_fields(segment: bytes) -> dict:
    data_offset = (segment[12] >> 4) * 4
    return {
        "src_port": int.from_bytes(segment[0:2], "big"),
        "dst_port": int.from_bytes(segment[2:4], "big"),
        "flags": segment[13],
        "header_len": data_offset,
        "payload": segment[data_offset:],
    }


def tls_record_fields(data: bytes) -> dict:
    length = int.from_bytes(data[3:5], "big")
    return {
        "content_type": data[0],
        "version": int.from_bytes(data[1:3], "big"),
        "length": length,
        "body": data[5 : 5 + length],
        "rest": data[5 + length :],
    }


def server_hello_fields(body: bytes) -> dict:
    """Dissect one ServerHello handshake message body (after the record header).

    Layout: msg type (1), length (3), legacy version (2), random (32),
    session id (1+n), cipher suite (2), compression (1), extensions (2+...).
    """
    assert body[0] == 2, "not a ServerHello"
    pos = 4
    legacy = int.from_bytes(body[pos : pos + 2], "big")
    random = body[pos + 2 : pos + 34]
    pos += 34
    sid_len = body[pos]
    pos += 1 + sid_len
    cipher = int.from_bytes(body[pos : pos + 2], "big")
    pos += 3  # cipher suite + compression method
    supported_version = None
    extensions = {}
    if pos + 2 <= len(body):
        ext_total = int.from_bytes(body[pos : pos + 2], "big")
        pos += 2
        end = pos + ext_total
        while pos + 4 <= end:
            ext_type = int.from_bytes(body[pos : pos + 2], "big")
            ext_len = int.from_bytes(body[pos + 2 : pos + 4], "big")
            ext_body = body[pos + 4 : pos + 4 + ext_len]
            extensions[ext_type] = ext_body
            if ext_type == 43:
                supported_version = int.from_bytes(ext_body[0:2], "big")
            pos += 4 + ext_len
    return {
        "legacy_version": legacy,
        "random": random,
        "cipher_suite": cipher,
        "extensions": extensions,
        "supported_version": supported_version,
    }


def client_hello_fields(body: bytes) -> dict:
    """Dissect one ClientHello handshake message body."""
    assert body[0] == 1, "not a ClientHello"
    pos = 4
    legacy = int.from_bytes(body[pos : pos + 2], "big")
    random = body[pos + 2 : pos + 34]
    pos += 34
    sid_len = body[pos]
    pos += 1 + sid_len
    cs_len = int.from_bytes(body[pos : pos + 2], "big")
    cipher_suites = [
        int.from_bytes(body[pos + 2 + i : pos + 4 + i], "big") for i in range(0, cs_len, 2)
    ]
    pos += 2 + cs_len
    comp_len = body[pos]
    pos += 1 + comp_len
    supported_versions = None
    if pos + 2 <= len(body):
        ext_total = int.from_bytes(body[pos : pos + 2], "big")
        pos += 2
        end = pos + ext_total
        while pos + 4 <= end:
            ext_type = int.from_bytes(body[pos : pos + 2], "big")
            ext_len = int.from_bytes(body[pos + 2 : pos + 4], "big")
            ext_body = body[pos + 4 : pos + 4 + ext_len]
            if ext_type == 43:
                count = ext_body[0] // 2
                supported_versions = [
                    int.from_bytes(ext_body[1 + 2 * i : 3 + 2 * i], "big") for i in range(count)
                ]
            pos += 4 + ext_len
    return {
        "legacy_version": legacy,
        "random": random,
        "cipher_suites": cipher_suites,
        "supported_versions": supported_versions,
    }


def dns_header_fields(message: bytes) -> dict:
    ident, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", message[:12])
    return {"id": ident, "qr": bool(flags & 0x8000), "qdcount": qd, "ancount": an}
