"""Labeled-dataset layout: filename grammar, manifests, truncation, baseline.

A dataset is a flat directory of ``<app>_<date>_<duration>.pcap`` captures
with optional ``sslkeylog_<same stem>.txt`` key logs. App package names may
contain underscores, so filenames parse right-anchored: the last field is the
duration, the one before it the date, everything else the app name.
"""

from __future__ import annotations

import bisect
import enum
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .classify import ClassifiedPacket, ProtoTag, dns_query_name
from .ingest import Transport

DATE_FORMAT = "%Y%m%dT%H%M%SZ"
_DATE_RE = re.compile(r"\d{8}T\d{6}Z$")

KEYLOG_PREFIX = "sslkeylog_"
KEYLOG_SUFFIX = ".txt"
CAPTURE_SUFFIX = ".pcap"

CONNECTIVITY_HTTP_HOST = "connectivitycheck.gstatic.com"
CONNECTIVITY_DNS_NAMES = frozenset({CONNECTIVITY_HTTP_HOST, "www.google.com"})
SYSTEM_DNS_IPS = frozenset({"8.8.8.8", "8.8.4.4"})


class LabelError(ValueError):
    """Base for capture-filename grammar violations."""


class BadExtension(LabelError):
    pass


class BadDate(LabelError):
    pass


class BadDuration(LabelError):
    pass


@dataclass(frozen=True)
class CaptureLabel:
    app_name: str
    capture_date: datetime
    duration_s: int

    def __post_init__(self):
        if not self.app_name or "/" in self.app_name or "\\" in self.app_name:
            raise ValueError("app_name must be non-empty without path separators")
        if self.duration_s < 1:
            raise ValueError("duration_s must be >= 1")
        date = self.capture_date
        if date.tzinfo is None:
            date = date.replace(tzinfo=timezone.utc)
        else:
            date = date.astimezone(timezone.utc)
        object.__setattr__(self, "capture_date", date)

    @property
    def stem(self) -> str:
        return f"{self.app_name}_{self.capture_date.strftime(DATE_FORMAT)}_{self.duration_s}"


def parse_capture_stem(stem: str) -> CaptureLabel:
    parts = stem.rsplit("_", 2)
    if len(parts) != 3 or not parts[0]:
        raise BadDate(f"expected <app>_<date>_<duration>, got {stem!r}")
    app_name, date_text, duration_text = parts
    if not _DATE_RE.fullmatch(date_text):
        raise BadDate(f"date field {date_text!r} does not match YYYYMMDDThhmmssZ")
    try:
        date = datetime.strptime(date_text, DATE_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError as exc:
        raise BadDate(str(exc)) from exc
    if date.strftime(DATE_FORMAT) != date_text:
        raise BadDate(f"date field {date_text!r} does not round-trip {DATE_FORMAT!r}")
    # ASCII only: str.isdigit also takes digits like "²" and "١".
    if not (duration_text.isascii() and duration_text.isdigit()):
        raise BadDuration(f"duration field {duration_text!r} is not a positive integer")
    duration = int(duration_text)
    if duration < 1:
        raise BadDuration("duration must be >= 1")
    return CaptureLabel(app_name=app_name, capture_date=date, duration_s=duration)


def parse_capture_filename(name: str) -> CaptureLabel:
    if not name.endswith(CAPTURE_SUFFIX):
        raise BadExtension(f"expected {CAPTURE_SUFFIX} extension: {name!r}")
    return parse_capture_stem(name[: -len(CAPTURE_SUFFIX)])


def render_capture_filename(label: CaptureLabel) -> str:
    return label.stem + CAPTURE_SUFFIX


@dataclass(frozen=True)
class ManifestEntry:
    label: CaptureLabel
    capture_path: Path
    keylog_path: Path | None = None


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    unpaired_keylogs: list[Path] = field(default_factory=list)
    unparseable: list[Path] = field(default_factory=list)

    @property
    def apps(self) -> set[str]:
        return {entry.label.app_name for entry in self.entries}


def scan_dataset(paths: Iterable[Path]) -> DatasetManifest:
    """Pair captures with key logs by identical stem; report every leftover.

    Unparseable capture names and keylogs without a capture are listed in the
    manifest rather than dropped.
    """
    captures: dict[str, tuple[CaptureLabel, Path]] = {}
    keylogs: dict[str, Path] = {}
    unparseable: list[Path] = []
    for path in paths:
        name = path.name
        if name.endswith(CAPTURE_SUFFIX):
            try:
                label = parse_capture_filename(name)
            except LabelError:
                unparseable.append(path)
                continue
            captures[name[: -len(CAPTURE_SUFFIX)]] = (label, path)
        elif name.startswith(KEYLOG_PREFIX) and name.endswith(KEYLOG_SUFFIX):
            keylogs[name[len(KEYLOG_PREFIX) : -len(KEYLOG_SUFFIX)]] = path
    entries = [
        ManifestEntry(label=label, capture_path=path, keylog_path=keylogs.pop(stem, None))
        for stem, (label, path) in sorted(captures.items())
    ]
    return DatasetManifest(
        entries=entries,
        unpaired_keylogs=[keylogs[stem] for stem in sorted(keylogs)],
        unparseable=sorted(unparseable),
    )


def scan_directory(directory: Path) -> DatasetManifest:
    paths = [p for p in sorted(directory.iterdir()) if p.is_file()]
    return scan_dataset(paths)


def truncate_packets(
    packets: Sequence[ClassifiedPacket], minutes: float
) -> list[ClassifiedPacket]:
    """Keep the first ``minutes`` of traffic; half-open at the cutoff."""
    if minutes <= 0:
        raise ValueError("minutes must be positive")
    if not packets:
        return []
    ordered = list(packets)
    stamps = [cp.record.ts_ns for cp in ordered]
    if stamps != sorted(stamps):
        ordered.sort(key=lambda cp: cp.record.ts_ns)
        stamps.sort()
    return ordered[: bisect.bisect_left(stamps, truncation_cutoff(stamps[0], minutes))]


def truncation_cutoff(first_ns: int, minutes: float) -> int:
    """The end of the first ``minutes`` from ``first_ns``; packets before it are kept."""
    return first_ns + int(minutes * 60 * 1_000_000_000)


class BackgroundKind(enum.Enum):
    CONNECTIVITY_HTTP = "ConnectivityHttp"
    CONNECTIVITY_DO53 = "ConnectivityDo53"
    SYSTEM_DOT = "SystemDot"
    NONE = "None"


def http_request_host(payload: bytes) -> str | None:
    """Host targeted by an HTTP request payload, from the start line or Host header."""
    try:
        text = payload.decode("ascii", errors="strict")
    except UnicodeDecodeError:
        text = payload.decode("latin-1")
    lines = text.split("\r\n")
    start = lines[0].split(" ")
    if len(start) >= 2:
        target = start[1]
        if target.lower().startswith("http://"):
            rest = target[7:]
            return rest.split("/", 1)[0].split(":", 1)[0].lower() or None
    for line in lines[1:]:
        if not line:
            break
        if line.lower().startswith("host:"):
            return line.split(":", 1)[1].strip().split(":", 1)[0].lower() or None
    return None


def attribute_background(
    classified: Sequence[ClassifiedPacket], baseline_mode: bool = False
) -> list[BackgroundKind]:
    """Tag each packet's background cause; exactly one tag per packet.

    HTTP flows whose first request targets the connectivity-check host and
    Do53 connectivity queries (plus their responses, matched by transaction
    id) are always attributed. DoT to Google's public resolvers is tagged
    SystemDot only in baseline mode, because app captures legitimately carry
    their own DoT.
    """
    http_flow_host: dict = {}
    connectivity_txns: set = set()
    for cp in classified:
        if cp.protocol.tag is ProtoTag.HTTP and cp.record.payload:
            if cp.flow not in http_flow_host:
                host = http_request_host(cp.record.payload)
                if host is not None:
                    http_flow_host[cp.flow] = host
        elif cp.protocol.tag is ProtoTag.DO53 and cp.detail is not None:
            # The classifier's message; its first two bytes are the ID.
            if dns_query_name(cp.detail) in CONNECTIVITY_DNS_NAMES:
                connectivity_txns.add((cp.flow, cp.detail[:2]))

    tags: list[BackgroundKind] = []
    for cp in classified:
        tag = BackgroundKind.NONE
        if cp.protocol.tag is ProtoTag.HTTP or (
            cp.record.transport is Transport.TCP
            and 80 in (cp.record.src_port, cp.record.dst_port)
            and cp.flow in http_flow_host
        ):
            if http_flow_host.get(cp.flow) == CONNECTIVITY_HTTP_HOST:
                tag = BackgroundKind.CONNECTIVITY_HTTP
        elif cp.protocol.tag is ProtoTag.DO53:
            if cp.detail is not None and (cp.flow, cp.detail[:2]) in connectivity_txns:
                tag = BackgroundKind.CONNECTIVITY_DO53
        elif cp.protocol.tag is ProtoTag.DOT and baseline_mode:
            if {cp.record.src_ip, cp.record.dst_ip} & SYSTEM_DNS_IPS:
                tag = BackgroundKind.SYSTEM_DOT
        tags.append(tag)
    return tags
