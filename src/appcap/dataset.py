"""Labeled-dataset layout: filename grammar, manifests, truncation, baseline.

A dataset is a flat directory of ``<app>_<date>_<duration>.pcap`` captures
with optional ``sslkeylog_<same stem>.txt`` key logs. App package names may
contain underscores, so filenames parse right-anchored: the last field is the
duration, the one before it the date, everything else the app name.
"""

from __future__ import annotations

import bisect
import enum
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


def path_text(path: str | os.PathLike) -> str:
    """A path's own bytes as text, decoded as UTF-8 whatever the locale; bytes
    that are not UTF-8 become surrogate escapes, as the CSVs write them back."""
    return os.fsencode(path).decode("utf-8", "surrogateescape")


def text_path(text: str) -> str:
    """``path_text``'s inverse: the path whose own bytes are ``text`` as UTF-8,
    whatever the locale."""
    return os.fsdecode(text.encode("utf-8", "surrogateescape"))


def scan_dataset(paths: Iterable[Path]) -> DatasetManifest:
    """Pair captures with key logs by identical stem; report every leftover.

    Unparseable capture names and keylogs without a capture are listed in the
    manifest rather than dropped.
    """
    captures: dict[str, tuple[CaptureLabel, Path]] = {}
    keylogs: dict[str, Path] = {}
    unparseable: list[Path] = []
    for path in paths:
        name = path_text(path.name)
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
        unparseable=sorted(unparseable, key=path_text),
    )


def scan_directory(directory: Path) -> DatasetManifest:
    paths = [p for p in sorted(directory.iterdir()) if p.is_file()]
    return scan_dataset(paths)


def usable_cpus() -> int:
    """CPUs this process may run on; ``taskset`` narrows them."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def map_on_cpus(fn: Callable, items: Sequence, *more: Sequence) -> list:
    """``fn`` of each item (and, as ``map`` takes them, of the items of
    ``more`` at the same index), in item order, computed by one worker per
    usable CPU (at most one per item; with one, no pool is made). The first
    failing item in order raises its error, and no worker outlives the call.
    """
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return list(map(fn, items, *more))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: callers have started no thread by now, and each worker
    # inherits the imported package instead of starting an interpreter.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    # About eight chunks per worker: few round trips, a short last chunk.
    chunksize = max(1, len(items) // (8 * workers))
    try:
        return list(pool.map(fn, items, *more, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)


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

    __hash__ = object.__hash__  # identity, in C; see tlswire.TlsVersion


_HTTP, _DO53, _DOT, _TCP = ProtoTag.HTTP, ProtoTag.DO53, ProtoTag.DOT, Transport.TCP
_CONNECTIVITY_HTTP, _CONNECTIVITY_DO53, _SYSTEM_DOT, _NONE = BackgroundKind


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


def attribute_background(packets: Iterable[ClassifiedPacket]) -> tuple[Counter, Counter]:
    """Packet counts by cause (one per packet) from one pass over a background
    capture, and the timeline (as ``analytics.timeline``) of those with one.

    HTTP flows whose first request targets the connectivity-check host, Do53
    connectivity queries (plus their responses, matched by transaction id)
    and DoT to Google's public resolvers (SystemDot) are attributed: the
    capture is taken to hold background traffic only. A flow's host or a
    query's name can follow the packets it decides, so each packet that may
    have a cause is counted under what decides it, and decided at the end.
    """
    http_flow_host: dict = {}
    connectivity_txns: set = set()
    pending, unattributable = {}, 0
    for cp in packets:
        tag, record, flow = cp.protocol.tag, cp.record, cp.flow
        port_80 = record.transport is _TCP and 80 in (record.src_port, record.dst_port)
        fact = None
        if tag is _HTTP:
            if record.payload and flow not in http_flow_host and (host := http_request_host(record.payload)):
                http_flow_host[flow] = host
        elif tag is _DO53:
            # The classifier's message; its first two bytes are the ID.
            fact = cp.detail and cp.detail[:2]
            if fact and dns_query_name(cp.detail) in CONNECTIVITY_DNS_NAMES:
                connectivity_txns.add((flow, fact))
        elif tag is _DOT:
            fact = record.src_ip in SYSTEM_DNS_IPS or record.dst_ip in SYSTEM_DNS_IPS
        elif not port_80:
            unattributable += 1
            continue
        key = (flow, tag, port_80, fact), (record.ts_ns, tag if cp.is_app_data else None)
        pending[key] = pending.get(key, 0) + 1
    counts, times = Counter({_NONE: unattributable}), Counter()
    for ((flow, tag, port_80, fact), stamp), n in pending.items():
        if tag is _HTTP or (port_80 and flow in http_flow_host):
            kind = _CONNECTIVITY_HTTP if http_flow_host.get(flow) == CONNECTIVITY_HTTP_HOST else _NONE
        elif tag is _DO53:
            kind = _CONNECTIVITY_DO53 if (flow, fact) in connectivity_txns else _NONE
        else:
            kind = _SYSTEM_DOT if tag is _DOT and fact else _NONE
        counts[kind] += n
        if kind is not _NONE:
            times[stamp] += n
    return counts, times
