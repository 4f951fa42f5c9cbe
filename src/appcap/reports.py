"""Report envelopes and JSON/CSV serialization for the CLI.

Bodies are deterministic functions of the inputs: identical files and flags
produce byte-identical bodies. The envelope adds tool metadata, input digests
and a generation timestamp (the only varying field). The JSON shape is
described by report_schema.json shipped with the package.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

from . import __version__
from .analytics import (
    ComparisonReport,
    FlowGraph,
    PpmRecord,
    ProtocolDistribution,
    TemporalHistogram,
)
from .classify import ClassifiedPacket, ProtoTag, dns_query_name, tls_info
from .dataset import BackgroundKind, DatasetManifest, path_text
from .ingest import Transport
from .keylog import CoverageReport
from .tlswire import Desync, NotTls, parse_tls_records

REPORT_SCHEMA_VERSION = 1


def make_envelope(
    command: str, inputs: Sequence[Path], body: dict, digests: Mapping[Path, str] | None = None
) -> dict:
    """The report around ``body``; ``digests`` holds the SHA-256 of the
    bytes the command read from each of ``inputs``."""
    digests = digests or {}
    return {
        "report_schema": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "inputs": [{"path": path_text(p), "sha256": digests[p]} for p in inputs],
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "body": body,
    }


_INDENT = "  "
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_STR_TYPE = frozenset({str})


@functools.lru_cache(maxsize=64)
def _flat_encoder(depth: int):
    """C-accelerated encoder for one container of scalars at ``depth``.

    ``indent`` would force the pure-Python encoder, so the indentation is put
    into the item separator instead; the caller adds the opening and closing
    newlines.
    """
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * depth, ": ")).encode


def _dumps(value, depth: int, tables: list[PacketTable]) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value nested ``depth`` deep.

    A container whose items are all scalars goes to the C encoder in one
    call; Python walks only the containers above such ones. A ``PacketTable``
    renders as its brackets around ``_TABLE_MARK``, where ``write_envelope``
    copies its JSON file, or as ``[]`` when that file holds no rows.
    Anything else (non-str keys, subclasses of the JSON types, other
    objects) takes the stdlib's own path.
    """
    kind = type(value)
    if kind is PacketTable:
        if depth != _TABLE_DEPTH:
            raise ValueError(f"a packet table is rendered for depth {_TABLE_DEPTH}, not {depth}")
        tables.append(value)
        if not value.json_file.seek(0, io.SEEK_END):
            return "[]"
        return f"[\n{_ROW_PAD}{_TABLE_MARK}\n{_INDENT * depth}]"
    if kind in _SCALAR_TYPES:
        return _flat_encoder(0)(value)
    if kind is dict and _STR_TYPE.issuperset(map(type, value)):
        items = value.values()
    elif kind is list or kind is tuple:
        items = value
    else:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + _INDENT * depth)
    brackets = "{}" if kind is dict else "[]"
    if not value:
        return brackets
    pad = _INDENT * (depth + 1)
    if _SCALAR_TYPES.issuperset(map(type, items)):
        text = _flat_encoder(depth + 1)(value)[1:-1]
    elif kind is dict:
        text = (",\n" + pad).join(
            f"{encode_basestring_ascii(k)}: {_dumps(v, depth + 1, tables)}"
            for k, v in sorted(value.items())
        )
    else:
        text = (",\n" + pad).join(_dumps(v, depth + 1, tables) for v in value)
    return f"{brackets[0]}\n{pad}{text}\n{_INDENT * depth}{brackets[1]}"


def write_envelope(envelope: dict, path: Path | None, stream) -> None:
    """Write what ``json.dumps(envelope, indent=2, sort_keys=True)`` writes, plus a newline.

    A ``PacketTable`` in the envelope is written as its JSON file, copied
    between the text around it.
    """
    tables: list[PacketTable] = []
    texts = (_dumps(envelope, 0, tables) + "\n").split(_TABLE_MARK)
    if path is None:
        _write_report(texts, tables, lambda data: stream.write(data.decode("ascii")))
    else:
        with path.open("wb") as fh:
            _write_report(texts, tables, fh.write)


def _write_report(texts: list[str], tables: list[PacketTable], write) -> None:
    # The text is ASCII: every string in it went through ``ensure_ascii``.
    write(texts[0].encode("ascii"))
    for table, text in zip(tables, texts[1:]):
        _copy_file(table.json_file, write)
        write(text.encode("ascii"))


def _copy_file(fh: BinaryIO, write) -> None:
    fh.seek(0)
    for block in iter(functools.partial(fh.read, 1 << 20), b""):
        write(block)


def distribution_json(dist: ProtocolDistribution) -> dict:
    rows = [
        {
            "transport": transport,
            "protocol": protocol,
            "count": count,
            "pct": round(dist.percentages[(transport, protocol)], 4),
        }
        for (transport, protocol), count in sorted(dist.counts.items())
    ]
    transports = [
        {"transport": t, "count": c, "pct": round(p, 4)}
        for t, (c, p) in dist.transport_totals().items()
    ]
    return {
        "scope": dist.scope.value,
        "total": dist.total,
        "rows": rows,
        "transport_totals": transports,
    }


def histogram_json(hist: TemporalHistogram) -> dict:
    return {
        "bin_width_s": hist.bin_width_s,
        "t0_ns": hist.t0_ns,
        "n_bins": hist.n_bins,
        "series": {k: list(v) for k, v in sorted(hist.series.items())},
    }


def coverage_json(coverage: CoverageReport, malformed_lines: int) -> dict:
    return {
        "tls_flows": coverage.tls_flows,
        "flows_with_client_hello": coverage.flows_with_client_hello,
        "flows_with_keys": coverage.flows_with_keys,
        "coverage_fraction": round(coverage.coverage_fraction, 6),
        "keylog_malformed_lines": malformed_lines,
    }


def manifest_json(manifest: DatasetManifest) -> dict:
    return {
        "apps": sorted(manifest.apps),
        "n_apps": len(manifest.apps),
        "n_entries": len(manifest.entries),
        "entries": [
            {
                "app_name": e.label.app_name,
                "date": e.label.capture_date.isoformat(),
                "duration_s": e.label.duration_s,
                "capture": path_text(e.capture_path),
                "keylog": path_text(e.keylog_path) if e.keylog_path else None,
            }
            for e in manifest.entries
        ],
        "unpaired_keylogs": [path_text(p) for p in manifest.unpaired_keylogs],
        "unparseable": [path_text(p) for p in manifest.unparseable],
    }


def ppm_json(records: Sequence[PpmRecord]) -> list[dict]:
    return [
        {"app_name": r.app_name, "mean_ppm": round(r.mean_ppm, 3), "captures_used": r.captures_used}
        for r in records
    ]


def flow_graph_json(graph: FlowGraph) -> dict:
    return {
        "mode": "Sankey3",
        "nodes": [{"stage": stage, "label": label} for stage, label in graph.nodes],
        "links": [
            {"source": [src[0], src[1]], "target": [dst[0], dst[1]], "packets": count}
            for src, dst, count in graph.links
        ],
    }


def comparison_json(report: ComparisonReport) -> dict:
    ratio = report.ppm_ratio_a_over_b
    return {
        "common_apps": list(report.common_apps),
        "distribution_a": distribution_json(report.distribution_a),
        "distribution_b": distribution_json(report.distribution_b),
        "ppm": {
            "rows": [
                {
                    "app_name": row.app_name,
                    "ppm_a": round(row.ppm_a, 3),
                    "ppm_b": round(row.ppm_b, 3),
                    "ratio_b_over_a": round(row.ratio_b_over_a, 4)
                    if row.ratio_b_over_a is not None
                    else None,
                }
                for row in report.ppm_rows
            ],
            "mean_ppm_a": round(report.mean_ppm_a, 3),
            "mean_ppm_b": round(report.mean_ppm_b, 3),
            "ratio_a_over_b": round(ratio, 4) if ratio is not None else None,
        },
        "encryption_bihistogram": {
            app: {version: {"a": a, "b": b} for version, (a, b) in versions.items()}
            for app, versions in report.encryption_bihistogram.items()
        },
        "quic_behavior": {app: b.value for app, b in report.quic_behavior.items()},
        "dns_evolution": {
            "do53_pct_a": round(report.dns_evolution.do53_pct_a, 4),
            "dot_pct_a": round(report.dns_evolution.dot_pct_a, 4),
            "do53_pct_b": round(report.dns_evolution.do53_pct_b, 4),
            "dot_pct_b": round(report.dns_evolution.dot_pct_b, 4),
        },
    }


def background_json(counts: Mapping[BackgroundKind, int]) -> dict:
    return {kind.value: counts.get(kind, 0) for kind in BackgroundKind}


_TLS, _DOT, _DO53, _HTTP, _QUIC = ProtoTag.TLS, ProtoTag.DOT, ProtoTag.DO53, ProtoTag.HTTP, ProtoTag.QUIC


def describe_packet(cp: ClassifiedPacket) -> str:
    """The feature table's ``info``, formatted from ``cp.detail`` (see the
    README). TLS needs a parse here only when carried-over stream bytes came
    in front of the payload; then the payload alone is parsed."""
    tag = cp.protocol.tag
    detail = cp.detail
    if tag is _TLS or tag is _DOT:
        if detail is not None or not cp.record.payload:
            return detail or ""
        try:
            views, _ = parse_tls_records(cp.record.payload)
        except (NotTls, Desync):
            return "Continuation"
        return tls_info(views)
    if tag is _DO53:
        if detail is None:
            return "Query"
        name = dns_query_name(detail)
        kind = "Response" if detail[2] & 0x80 else "Query"
        return f"{kind} {name}" if name else kind
    if tag is _HTTP:
        line = cp.record.payload.split(b"\r\n", 1)[0][:80]
        return line.decode("ascii", errors="replace")
    if tag is _QUIC and detail is not None:
        return "LongHeader" if detail.long_header else "ShortHeader"
    return ""


FEATURE_COLUMNS = [
    "ts_ns",
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
    "transport",
    "protocol",
    "info",
    "app_data",
    "packet_len",
]
_TRANSPORT_NAMES = {t: t.value for t in Transport}


def feature_rows(classified: Sequence[ClassifiedPacket]) -> list[tuple]:
    """One row per packet, in FEATURE_COLUMNS order; ``info`` is ``describe_packet``."""
    return [
        (
            r.ts_ns, r.src_ip, r.src_port, r.dst_ip, r.dst_port, _TRANSPORT_NAMES[r.transport],
            cp.protocol.category, describe_packet(cp), cp.is_app_data, r.packet_len,
        )
        for cp in classified
        for r in (cp.record,)
    ]


class PacketTable:
    """``analyze``'s packet table, rendered into binary files.

    ``json_file`` holds ``write_feature_json`` output and ``csv_file``
    ``write_feature_csv`` output, appended one chunk of rows at a time in
    table order. A report holds the table as its ``body.packets``;
    ``write_envelope`` and ``write_table_csv`` copy the files into the
    outputs.
    """

    __slots__ = ("json_file", "csv_file")

    def __init__(self, json_file: BinaryIO | None = None, csv_file: BinaryIO | None = None):
        self.json_file, self.csv_file = json_file, csv_file


# ``body.packets`` sits two levels deep in a report, so its rows are at depth
# 3. The NUL marks the table in the envelope's text: a JSON text holds none,
# as every string in it is escaped.
_TABLE_DEPTH = 2
_ROW_PAD = _INDENT * (_TABLE_DEPTH + 1)
_TABLE_MARK = "\0"
_ROW_SEPARATOR = f",\n{_ROW_PAD}"
# A row's object with its keys sorted; ``write_feature_json`` fills the slots.
_ROW_TEMPLATE = "{%s\n%s}" % (
    ",".join(f"\n{_ROW_PAD}{_INDENT}{encode_basestring_ascii(c)}: %s" for c in sorted(FEATURE_COLUMNS)),
    _ROW_PAD,
)


def write_feature_json(rows: Sequence[tuple], fh: BinaryIO) -> None:
    """Append ``feature_rows`` output to a ``PacketTable`` JSON file: the
    rows' objects, keys sorted, joined by the table's separator, as
    ``json.dumps`` of the report writes them, after a separator when the
    file already holds rows. ``fh.tell()`` is the file's end: every writer
    appends. Strings go through the encoder's own escaping and ints through
    ``int.__repr__``; ``app_data`` is the one bool. No rows append nothing."""
    if rows and fh.tell():
        fh.write(_ROW_SEPARATOR.encode("ascii"))
    esc = encode_basestring_ascii
    json_bool = ("false", "true")
    fh.write(_ROW_SEPARATOR.join([
        _ROW_TEMPLATE % (
            json_bool[app_data], esc(dst_ip), dst_port, esc(info), packet_len,
            esc(protocol), esc(src_ip), src_port, esc(transport), ts_ns,
        )
        for ts_ns, src_ip, src_port, dst_ip, dst_port, transport, protocol, info, app_data, packet_len
        in rows
    ]).encode("ascii"))


def _csv_bytes(rows) -> bytes:
    """``rows`` as ``csv.writer`` writes them, in UTF-8 whatever the locale; a file
    name's bytes that are not UTF-8 (decoded to surrogate escapes) are written as they were."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode("utf-8", "surrogateescape")


# A feature row as ``csv.writer`` writes it when no field needs quoting.
_CSV_ROW = ",".join(["%s"] * len(FEATURE_COLUMNS)) + "\r\n"


def write_feature_csv(rows: Sequence[tuple], fh: BinaryIO) -> None:
    """Append ``feature_rows`` output to a ``PacketTable`` CSV file, as
    ``_csv_bytes`` writes it. The rows' fields are first joined as ``str``
    gives them, which is ``csv.writer``'s own text unless a field is None
    (written empty) or holds a comma, a quote or a line break (quoted); the
    counts below find every such chunk, and ``csv.writer`` writes it."""
    text, n = "".join([_CSV_ROW % row for row in rows]), len(rows)
    counts = (text.count(","), text.count("\r"), text.count("\n"))
    if '"' in text or "None" in text or counts != ((len(FEATURE_COLUMNS) - 1) * n, n, n):
        fh.write(_csv_bytes(rows))
    else:
        fh.write(text.encode("utf-8", "surrogateescape"))


def write_table_csv(table: PacketTable, path: Path) -> None:
    """Write the table's CSV: a header, then the rows of its CSV file."""
    with path.open("wb") as fh:
        fh.write(_csv_bytes([FEATURE_COLUMNS]))
        _copy_file(table.csv_file, fh.write)


COMPARE_COLUMNS = ["app", "ppm_a", "ppm_b", "ratio"]


def write_compare_csv(report: ComparisonReport, path: Path) -> None:
    rows = [
        [r.app_name, f"{r.ppm_a:.3f}", f"{r.ppm_b:.3f}",
         f"{r.ratio_b_over_a:.4f}" if r.ratio_b_over_a is not None else ""]
        for r in report.ppm_rows
    ]
    path.write_bytes(_csv_bytes([COMPARE_COLUMNS, *rows]))


STATS_COLUMNS = ["app", "captures", "mean_ppm"]


def write_stats_csv(records: Sequence[PpmRecord], path: Path) -> None:
    rows = [[r.app_name, r.captures_used, f"{r.mean_ppm:.3f}"] for r in records]
    path.write_bytes(_csv_bytes([STATS_COLUMNS, *rows]))
