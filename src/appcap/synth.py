"""Deterministic synthetic capture generation for calibration and testing.

A fixture spec declares apps, captures and flows; every protocol profile maps
to a fixed byte-level template that re-classifies to exactly that protocol.
Generation is seeded: the same spec and seed produce byte-identical pcap and
key log files anywhere.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
import struct
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .dataset import DATE_FORMAT, CaptureLabel, map_on_cpus, render_capture_filename, text_path
from .ingest import (
    LINKTYPE_ETHERNET,
    LINKTYPE_SLL,
    LINKTYPE_SLL2,
    Transport,
)
from .keylog import KeyLogEntry, keylog_filename_for, render_keylog

CLIENT_IP = "10.0.2.16"
TLS_SERVER_IP = "203.0.113.10"
QUIC_SERVER_IP = "203.0.113.20"
HTTP_SERVER_IP = "203.0.113.80"
DNS_SERVER_IP = "8.8.8.8"
DNS_ANSWER_IP = "142.250.184.3"

CONNECTIVITY_HOST = "connectivitycheck.gstatic.com"
_DNS_QUERY_NAMES = ("www.google.com", CONNECTIVITY_HOST)

PROFILES = ("Tls12", "Tls13", "Ssl2", "UnknownSsl", "QuicV1", "Do53", "DoT", "ConnectivityHttp")

_LINKTYPES = {"ethernet": LINKTYPE_ETHERNET, "sll": LINKTYPE_SLL, "sll2": LINKTYPE_SLL2}
_RESOLUTIONS = ("us", "ns")

DEFAULT_BASE_DATE = "20250101T000000Z"
DEFAULT_RATE_PPS = 10.0

_TCP_PSH_ACK = 0x18


class FixtureSpecError(ValueError):
    """Invalid fixture spec; ``field_path`` points at the offending field."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path

    def __reduce__(self):  # rebuilt from its fields, so it survives a process pool
        return FixtureSpecError, (self.field_path, str(self)[len(self.field_path) + 2 :])


@dataclass(frozen=True)
class FlowSpec:
    protocol_profile: str
    app_data_packets: int
    start_offset_s: float = 0.0
    rate_pps: float = DEFAULT_RATE_PPS


@dataclass(frozen=True)
class CaptureSpec:
    duration_s: int
    flows: tuple[FlowSpec, ...]
    date: datetime | None = None


@dataclass(frozen=True)
class AppSpec:
    app_name: str
    captures: tuple[CaptureSpec, ...]


@dataclass(frozen=True)
class FixtureSpec:
    apps: tuple[AppSpec, ...]
    seed: int = 0
    linktype: str = "sll"
    ts_resolution: str = "us"
    base_date: str = DEFAULT_BASE_DATE


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_fixture_spec(obj) -> FixtureSpec:
    if not isinstance(obj, dict):
        raise FixtureSpecError("$", "spec must be a JSON object")
    seed = obj.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise FixtureSpecError("seed", "must be a non-negative integer")
    linktype = obj.get("linktype", "sll")
    if linktype not in _LINKTYPES:
        raise FixtureSpecError("linktype", f"must be one of {sorted(_LINKTYPES)}")
    resolution = obj.get("ts_resolution", "us")
    if resolution not in _RESOLUTIONS:
        raise FixtureSpecError("ts_resolution", f"must be one of {_RESOLUTIONS}")
    base_date = obj.get("base_date", DEFAULT_BASE_DATE)
    _parse_date(base_date, "base_date")
    apps_obj = obj.get("apps")
    if not isinstance(apps_obj, list) or not apps_obj:
        raise FixtureSpecError("apps", "must be a non-empty list")
    apps = tuple(_parse_app(app, f"apps[{i}]") for i, app in enumerate(apps_obj))
    return FixtureSpec(
        apps=apps, seed=seed, linktype=linktype, ts_resolution=resolution, base_date=base_date
    )


def _parse_app(obj, path: str) -> AppSpec:
    if not isinstance(obj, dict):
        raise FixtureSpecError(path, "must be an object")
    name = obj.get("app_name")
    if not isinstance(name, str) or not name or "/" in name or "\\" in name:
        raise FixtureSpecError(f"{path}.app_name", "must be a non-empty name without separators")
    captures_obj = obj.get("captures")
    if not isinstance(captures_obj, list) or not captures_obj:
        raise FixtureSpecError(f"{path}.captures", "must be a non-empty list")
    captures = tuple(
        _parse_capture(c, f"{path}.captures[{i}]") for i, c in enumerate(captures_obj)
    )
    return AppSpec(app_name=name, captures=captures)


def _parse_capture(obj, path: str) -> CaptureSpec:
    if not isinstance(obj, dict):
        raise FixtureSpecError(path, "must be an object")
    duration = obj.get("duration_s")
    if not _is_int(duration) or duration < 1:
        raise FixtureSpecError(f"{path}.duration_s", "must be an integer >= 1")
    date = None
    if "date" in obj:
        date = _parse_date(obj["date"], f"{path}.date")
    flows_obj = obj.get("flows")
    if not isinstance(flows_obj, list) or not flows_obj:
        raise FixtureSpecError(f"{path}.flows", "must be a non-empty list")
    flows = tuple(_parse_flow(f, f"{path}.flows[{i}]") for i, f in enumerate(flows_obj))
    return CaptureSpec(duration_s=duration, flows=flows, date=date)


def _parse_flow(obj, path: str) -> FlowSpec:
    if not isinstance(obj, dict):
        raise FixtureSpecError(path, "must be an object")
    profile = obj.get("protocol_profile")
    if profile not in PROFILES:
        raise FixtureSpecError(f"{path}.protocol_profile", f"must be one of {PROFILES}")
    n = obj.get("app_data_packets")
    if not _is_int(n) or n < 0:
        raise FixtureSpecError(f"{path}.app_data_packets", "must be an integer >= 0")
    start = obj.get("start_offset_s", 0.0)
    if not _is_number(start) or start < 0:
        raise FixtureSpecError(f"{path}.start_offset_s", "must be a number >= 0")
    rate = obj.get("rate_pps", DEFAULT_RATE_PPS)
    if not _is_number(rate) or rate <= 0:
        raise FixtureSpecError(f"{path}.rate_pps", "must be a number > 0")
    return FlowSpec(
        protocol_profile=profile,
        app_data_packets=n,
        start_offset_s=float(start),
        rate_pps=float(rate),
    )


def _parse_date(text, path: str) -> datetime:
    if not isinstance(text, str):
        raise FixtureSpecError(path, "must be a string date")
    try:
        return datetime.strptime(text, DATE_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError as exc:
        raise FixtureSpecError(path, f"must match {DATE_FORMAT}: {exc}") from exc


# --- TLS wire builders -------------------------------------------------------


def tls_record(content_type: int, version: int, body: bytes) -> bytes:
    return struct.pack(">BHH", content_type, version, len(body)) + body


def _handshake(msg_type: int, body: bytes) -> bytes:
    return struct.pack(">B", msg_type) + len(body).to_bytes(3, "big") + body


def build_client_hello(
    random32: bytes,
    legacy_version: int = 0x0303,
    supported_versions: tuple[int, ...] | None = None,
    cipher_suites: tuple[int, ...] = (0x1301, 0x1302),
) -> bytes:
    """One TLS record carrying a ClientHello."""
    suites = b"".join(struct.pack(">H", s) for s in cipher_suites)
    body = (
        struct.pack(">H", legacy_version)
        + random32
        + b"\x00"  # empty session id
        + struct.pack(">H", len(suites))
        + suites
        + b"\x01\x00"  # null compression
    )
    extensions = b""
    if supported_versions is not None:
        versions = b"".join(struct.pack(">H", v) for v in supported_versions)
        ext_data = struct.pack(">B", len(versions)) + versions
        extensions = struct.pack(">HH", 43, len(ext_data)) + ext_data
    body += struct.pack(">H", len(extensions)) + extensions
    return tls_record(22, 0x0301, _handshake(1, body))


def build_server_hello(
    random32: bytes,
    legacy_version: int = 0x0303,
    selected_version: int | None = None,
    cipher_suite: int = 0x1301,
) -> bytes:
    """One TLS record carrying a ServerHello; the supported-versions
    extension is included only when ``selected_version`` is given."""
    body = (
        struct.pack(">H", legacy_version)
        + random32
        + b"\x00"
        + struct.pack(">H", cipher_suite)
        + b"\x00"
    )
    extensions = b""
    if selected_version is not None:
        extensions = struct.pack(">HHH", 43, 2, selected_version)
    body += struct.pack(">H", len(extensions)) + extensions
    return tls_record(22, 0x0303, _handshake(2, body))


def build_app_data(rng: random.Random, min_len: int = 80, max_len: int = 400) -> bytes:
    return tls_record(23, 0x0303, rng.randbytes(rng.randint(min_len, max_len)))


def sslv2_record(msg_type: int, body: bytes) -> bytes:
    length = 1 + len(body)
    return bytes([0x80 | (length >> 8), length & 0xFF, msg_type]) + body


def build_sslv2_client_hello(rng: random.Random) -> bytes:
    suites = b"\x01\x00\x80\x02\x00\x80\x04\x00\x80"
    challenge = rng.randbytes(16)
    body = struct.pack(">HHHH", 0x0002, len(suites), 0, len(challenge)) + suites + challenge
    return sslv2_record(1, body)


# --- DNS / HTTP / QUIC builders ----------------------------------------------


def encode_dns_name(name: str) -> bytes:
    out = b""
    for part in name.split("."):
        raw = part.encode("ascii")
        out += bytes([len(raw)]) + raw
    return out + b"\x00"


def build_dns_query(txn_id: int, qname: str) -> bytes:
    header = struct.pack(">HHHHHH", txn_id, 0x0100, 1, 0, 0, 0)
    return header + encode_dns_name(qname) + struct.pack(">HH", 1, 1)


def build_dns_response(txn_id: int, qname: str, answer_ip: str = DNS_ANSWER_IP) -> bytes:
    header = struct.pack(">HHHHHH", txn_id, 0x8180, 1, 1, 0, 0)
    question = encode_dns_name(qname) + struct.pack(">HH", 1, 1)
    rdata = bytes(int(b) for b in answer_ip.split("."))
    answer = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 300, len(rdata)) + rdata
    return header + question + answer


def build_http_get(host: str, path: str = "/generate_204") -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: appcap-fixture\r\n"
        f"Accept: */*\r\nConnection: keep-alive\r\n\r\n"
    ).encode("ascii")


def build_http_204() -> bytes:
    return b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n"


def build_quic_initial(rng: random.Random, version: int = 1) -> bytes:
    dcid = rng.randbytes(8)
    scid = rng.randbytes(8)
    payload = rng.randbytes(rng.randint(160, 320))
    length = 4 + len(payload)  # packet number + protected payload
    return (
        b"\xc3"
        + struct.pack(">I", version)
        + bytes([len(dcid)])
        + dcid
        + bytes([len(scid)])
        + scid
        + b"\x00"  # zero-length token
        + struct.pack(">H", 0x4000 | length)
        + rng.randbytes(4)
        + payload
    )


def build_quic_short(rng: random.Random) -> bytes:
    return b"\x45" + rng.randbytes(8) + rng.randbytes(2) + rng.randbytes(rng.randint(60, 300))


# --- Flow templates -----------------------------------------------------------


@dataclass
class _FlowPlan:
    server_ip: str
    server_port: int
    transport: Transport
    packets: list[tuple[bool, bytes]]  # (client_to_server, payload)
    keylog: list[KeyLogEntry] = field(default_factory=list)


def _tls_flow(rng: random.Random, n: int, tls13: bool, server_ip: str, port: int) -> _FlowPlan:
    client_random = rng.randbytes(32)
    server_random = rng.randbytes(32)
    if tls13:
        packets = [
            (True, build_client_hello(client_random, supported_versions=(0x0304, 0x0303))),
            (False, build_server_hello(server_random, selected_version=0x0304)),
        ]
        keylog = [
            KeyLogEntry(label, client_random, rng.randbytes(48))
            for label in (
                "CLIENT_HANDSHAKE_TRAFFIC_SECRET",
                "SERVER_HANDSHAKE_TRAFFIC_SECRET",
                "CLIENT_TRAFFIC_SECRET_0",
                "SERVER_TRAFFIC_SECRET_0",
            )
        ]
    else:
        packets = [
            (True, build_client_hello(client_random)),
            (False, build_server_hello(server_random)),
        ]
        keylog = [KeyLogEntry("CLIENT_RANDOM", client_random, rng.randbytes(48))]
    packets += [(k % 2 == 0, build_app_data(rng)) for k in range(n)]
    return _FlowPlan(server_ip, port, Transport.TCP, packets, keylog)


def _profile_flow(profile: str, n: int, rng: random.Random) -> _FlowPlan:
    if profile == "Tls13":
        return _tls_flow(rng, n, True, TLS_SERVER_IP, 443)
    if profile == "Tls12":
        return _tls_flow(rng, n, False, TLS_SERVER_IP, 443)
    if profile == "DoT":
        return _tls_flow(rng, n, True, DNS_SERVER_IP, 853)
    if profile == "UnknownSsl":
        packets = [(k % 2 == 0, build_app_data(rng)) for k in range(n)]
        return _FlowPlan(TLS_SERVER_IP, 443, Transport.TCP, packets)
    if profile == "Ssl2":
        packets = []
        for k in range(n):
            if k % 2 == 0:
                packets.append((True, build_sslv2_client_hello(rng)))
            else:
                packets.append((False, sslv2_record(4, rng.randbytes(rng.randint(40, 120)))))
        return _FlowPlan(TLS_SERVER_IP, 443, Transport.TCP, packets)
    if profile == "QuicV1":
        packets = [(True, build_quic_initial(rng)), (False, build_quic_initial(rng))]
        packets += [(k % 2 == 0, build_quic_short(rng)) for k in range(n)]
        return _FlowPlan(QUIC_SERVER_IP, 443, Transport.UDP, packets)
    if profile == "Do53":
        packets = []
        txn = 0
        qname = _DNS_QUERY_NAMES[0]
        for k in range(n):
            if k % 2 == 0:
                txn = rng.randint(0, 0xFFFF)
                qname = _DNS_QUERY_NAMES[(k // 2) % len(_DNS_QUERY_NAMES)]
                packets.append((True, build_dns_query(txn, qname)))
            else:
                packets.append((False, build_dns_response(txn, qname)))
        return _FlowPlan(DNS_SERVER_IP, 53, Transport.UDP, packets)
    if profile == "ConnectivityHttp":
        packets = [
            (True, build_http_get(CONNECTIVITY_HOST)) if k % 2 == 0 else (False, build_http_204())
            for k in range(n)
        ]
        return _FlowPlan(HTTP_SERVER_IP, 80, Transport.TCP, packets)
    raise FixtureSpecError("protocol_profile", f"unknown profile {profile!r}")


# --- Frame assembly -----------------------------------------------------------


_CLIENT_MAC = b"\x02\x00\x00\x00\x00\x01"
_SERVER_MAC = b"\x02\x00\x00\x00\x00\x02"
# TCP data offset 5 words, PSH|ACK, window 65535, zero checksum and urgent pointer.
_TCP_TAIL = struct.pack(">BBHHH", 0x50, _TCP_PSH_ACK, 65535, 0, 0)


def _link_header(linktype: int, client_to_server: bool) -> bytes:
    if linktype == LINKTYPE_ETHERNET:
        src, dst = (_CLIENT_MAC, _SERVER_MAC) if client_to_server else (_SERVER_MAC, _CLIENT_MAC)
        return dst + src + struct.pack(">H", 0x0800)
    pkt_type = 4 if client_to_server else 0
    mac = (_CLIENT_MAC if client_to_server else _SERVER_MAC).ljust(8, b"\x00")
    if linktype == LINKTYPE_SLL:
        return struct.pack(">HHH8sH", pkt_type, 1, 6, mac, 0x0800)
    if linktype == LINKTYPE_SLL2:
        return struct.pack(">HHIHBB8s", 0x0800, 0, 1, 1, pkt_type, 6, mac)
    raise ValueError(f"unsupported linktype {linktype}")


class _HeaderTemplate:
    """One flow direction's link, IPv4 and TCP/UDP headers. ``frame`` packs
    what varies per packet: IPv4 length, ident and checksum (folded onto the
    constant words' ones'-complement sum, RFC 1071), then the TCP sequence
    and acknowledgment numbers or the UDP length."""

    __slots__ = ("pack", "head", "middle", "ends", "header_len", "constant_sum")

    def __init__(self, linktype: int, client_to_server: bool, transport: Transport, src, dst):
        proto = 6 if transport is Transport.TCP else 17
        addresses = bytes(int(x) for x in f"{src[0]}.{dst[0]}".split("."))
        self.head = _link_header(linktype, client_to_server) + b"\x45\x00"
        self.middle = bytes([0x40, 0x00, 64, proto])  # don't fragment, TTL 64
        self.ends = addresses + struct.pack(">HH", src[1], dst[1])
        l4 = "II8s" if proto == 6 else "H2x"  # seq, ack, _TCP_TAIL; or the UDP length
        self.pack = struct.Struct(f">{len(self.head)}sHH4sH12s{l4}").pack
        self.header_len = 20 + (20 if proto == 6 else 8)  # IPv4 and TCP/UDP
        self.constant_sum = sum(struct.unpack(">6H", self.middle + addresses)) + 0x4500

    def frame(self, ident: int, payload: bytes, *l4_fields) -> bytes:
        total = self.header_len + len(payload)
        s = self.constant_sum + total + ident
        s = (s & 0xFFFF) + (s >> 16)
        s = (s & 0xFFFF) + (s >> 16)
        header = self.pack(self.head, total, ident, self.middle, ~s & 0xFFFF, self.ends, *l4_fields)
        return header + payload


@dataclass
class CaptureResult:
    label: CaptureLabel
    pcap_bytes: bytes
    keylog_text: str


def _derive_rng(seed: int, *parts) -> random.Random:
    digest = hashlib.sha256("|".join([str(seed), *map(str, parts)]).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def build_capture(
    spec: FixtureSpec, app_name: str, capture_index: int, capture: CaptureSpec
) -> CaptureResult:
    if capture.date is not None:
        date = capture.date
    else:
        base = _parse_date(spec.base_date, "base_date")
        date = base + timedelta(hours=capture_index)
    label = CaptureLabel(app_name=app_name, capture_date=date, duration_s=capture.duration_s)
    t0_ns = int(label.capture_date.timestamp()) * 1_000_000_000
    linktype = _LINKTYPES[spec.linktype]
    nanos = spec.ts_resolution == "ns"

    staged = []  # (ts_ns, flow_index, k, frame_bytes)
    keylog_entries: list[KeyLogEntry] = []
    ident = 1
    for fi, flow in enumerate(capture.flows):
        rng = _derive_rng(spec.seed, app_name, capture_index, fi, flow.protocol_profile)
        plan = _profile_flow(flow.protocol_profile, flow.app_data_packets, rng)
        keylog_entries.extend(plan.keylog)
        client = (CLIENT_IP, 40000 + fi)
        server = (plan.server_ip, plan.server_port)
        tcp = plan.transport is Transport.TCP
        ends = {True: (client, server), False: (server, client)}
        templates = {c2s: _HeaderTemplate(linktype, c2s, plan.transport, *ends[c2s]) for c2s in ends}
        seq = {True: 1000, False: 2000}
        for k, (c2s, payload) in enumerate(plan.packets):
            offset_s = flow.start_offset_s + k / flow.rate_pps
            if nanos:
                ts_ns = t0_ns + round(offset_s * 1_000_000_000)
            else:
                ts_ns = t0_ns + round(offset_s * 1_000_000) * 1000
            if tcp:
                ack = seq[not c2s] & 0xFFFFFFFF
                frame = templates[c2s].frame(ident, payload, seq[c2s] & 0xFFFFFFFF, ack, _TCP_TAIL)
                seq[c2s] += len(payload)
            else:
                frame = templates[c2s].frame(ident, payload, 8 + len(payload))
            # The IPv4 Identification field is 16 bits; wrap as stacks do.
            ident = (ident + 1) % 0x10000
            staged.append((ts_ns, fi, k, frame))

    # (ts_ns, flow_index, k) is unique, so the frames are never compared.
    staged.sort()
    pcap = write_pcap(linktype, nanos, [(ts, frame) for ts, _, _, frame in staged])
    return CaptureResult(label=label, pcap_bytes=pcap, keylog_text=render_keylog(keylog_entries))


def write_pcap(linktype: int, nanos: bool, frames: list[tuple[int, bytes]]) -> bytes:
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    out = [struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 262144, linktype)]
    divisor = 1 if nanos else 1000
    per_second = 1_000_000_000 if nanos else 1_000_000
    record_header = struct.Struct("<IIII").pack
    for ts_ns, frame in frames:
        seconds, fraction = divmod(ts_ns // divisor, per_second)
        out += (record_header(seconds, fraction, len(frame), len(frame)), frame)
    return b"".join(out)


def synth_dataset(spec: FixtureSpec, out_dir: Path) -> list[Path]:
    """Write every capture and its paired key log, built on every usable
    CPU (``dataset.map_on_cpus``) with the same bytes for any CPU count;
    returns the written paths in spec order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(app.app_name, ci, c) for app in spec.apps for ci, c in enumerate(app.captures)]
    # Each job carries its own capture, so workers are sent the spec without its apps.
    write = functools.partial(_write_capture, dataclasses.replace(spec, apps=()), out_dir)
    return [path for paths in map_on_cpus(write, jobs) for path in paths]


def _write_capture(spec: FixtureSpec, out_dir: Path, job: tuple[str, int, CaptureSpec]) -> tuple[Path, Path]:
    result = build_capture(spec, *job)
    pcap_path = out_dir / text_path(render_capture_filename(result.label))
    pcap_path.write_bytes(result.pcap_bytes)
    keylog_path = out_dir / text_path(keylog_filename_for(result.label))
    keylog_path.write_bytes(result.keylog_text.encode())
    return pcap_path, keylog_path
