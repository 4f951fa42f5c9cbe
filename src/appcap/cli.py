"""Command-line surface: analyze, dataset scan/stats, compare, keycov,
baseline and synth.

Exit codes: 0 success, 2 I/O problems, 3 domain problems (unparseable
capture, empty dataset, no common apps), 64 usage errors including invalid
fixture specs and a --bins width that gives too many bins. Relative
--json/--csv paths resolve against $APPCAP_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import gc
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import TypeVar

from .analytics import (
    NoCommonApps,
    Scope,
    Tally,
    Timeline,
    TooManyBins,
    compare_datasets,
    flow_graph,
    mean_ppm_per_app,
    merged,
    protocol_distribution,
    tally,
    temporal_histogram,
    timeline,
)
from .classify import ClassifiedPacket, FlowTable
from .dataset import (
    CaptureLabel,
    DatasetManifest,
    ManifestEntry,
    attribute_background,
    map_on_cpus,
    scan_directory,
    # Not called; kept so that bench/tracer.py, which wraps what this module
    # imports, still finds the boundary dataset.truncate_s is read off.
    truncate_packets,  # noqa: F401
    truncation_cutoff,
)
from .ingest import CaptureError, CaptureStream, PacketRecord, decode_stream, read_capture
from .keylog import key_coverage, read_keylog
from .reports import (
    PacketTable,
    background_json,
    comparison_json,
    coverage_json,
    distribution_json,
    feature_rows,
    flow_graph_json,
    histogram_json,
    make_envelope,
    manifest_json,
    ppm_json,
    write_compare_csv,
    write_envelope,
    write_feature_csv,
    write_feature_json,
    write_stats_csv,
    write_table_csv,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64

OUTPUT_DIR_ENV = "APPCAP_OUTPUT_DIR"

T = TypeVar("T")


class _DomainError(Exception):
    """Carries a user-facing message for exit code 3."""


class _RenderError(Exception):
    """Carries a user-facing message for exit code 2: the packet table
    could not be rendered."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _duration(ns_per_unit: int):
    """Argument type of a duration in ``ns_per_unit`` ns: finite, and at least 1 ns."""

    def duration(text: str) -> float:
        value = float(text)
        if not 1 <= value * ns_per_unit < math.inf:  # NaN fails both tests
            raise argparse.ArgumentTypeError("must be a finite number of at least 1 ns")
        return value

    return duration


def build_parser() -> _Parser:
    parser = _Parser(prog="appcap", description="Packet-capture analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="per-capture features, distribution, histogram")
    analyze.add_argument("capture", type=Path)
    analyze.add_argument("--keylog", type=Path, help="paired SSL key log for coverage")
    analyze.add_argument("--app-data-only", action="store_true")
    analyze.add_argument("--bins", type=_duration(1_000_000_000), default=10.0, metavar="SECONDS")
    _output_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    dataset = sub.add_parser("dataset", help="dataset directory operations")
    dsub = dataset.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    scan = dsub.add_parser("scan", help="inventory a labeled dataset directory")
    scan.add_argument("directory", type=Path)
    _output_flags(scan, csv=False)
    scan.set_defaults(func=cmd_dataset_scan)
    stats = dsub.add_parser("stats", help="per-app rates and dataset distribution")
    stats.add_argument("directory", type=Path)
    stats.add_argument("--truncate-min", type=_duration(60 * 1_000_000_000), metavar="MINUTES")
    stats.add_argument("--app-data-only", action="store_true")
    _output_flags(stats)
    stats.set_defaults(func=cmd_dataset_stats)

    compare = sub.add_parser("compare", help="cross-dataset comparison report")
    compare.add_argument("dir_a", type=Path)
    compare.add_argument("dir_b", type=Path)
    compare.add_argument("--truncate-min", type=_duration(60 * 1_000_000_000), metavar="MINUTES")
    compare.add_argument(
        "--common-only",
        action="store_true",
        help="restrict dataset-level distributions to common apps",
    )
    _output_flags(compare)
    compare.set_defaults(func=cmd_compare)

    keycov = sub.add_parser("keycov", help="key log coverage of a capture's TLS flows")
    keycov.add_argument("capture", type=Path)
    keycov.add_argument("keylog", type=Path)
    _output_flags(keycov, csv=False)
    keycov.set_defaults(func=cmd_keycov)

    baseline = sub.add_parser("baseline", help="background-traffic attribution")
    baseline.add_argument("capture", type=Path)
    baseline.add_argument("--bins", type=_duration(1_000_000_000), default=10.0, metavar="SECONDS")
    _output_flags(baseline, csv=False)
    baseline.set_defaults(func=cmd_baseline)

    synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    synth.add_argument("spec", type=Path)
    synth.add_argument(
        "out_dir",
        type=Path,
        nargs="?",
        help=f"output directory (default: ${OUTPUT_DIR_ENV})",
    )
    synth.add_argument("--seed", type=int, metavar="U64", help="override the spec's seed")
    synth.set_defaults(func=cmd_synth)

    return parser


def _output_flags(parser, csv: bool = True) -> None:
    parser.add_argument(
        "--json", dest="json_path", type=_json_path, metavar="PATH", help="write report JSON ('-' for stdout)"
    )
    if csv:
        parser.add_argument("--csv", dest="csv_path", type=_csv_path, metavar="PATH")


def _json_path(text: str) -> str:
    """Argument type of --json, refused before any work: '-' or a file path."""
    return text if text == "-" else _csv_path(text)


def _csv_path(text: str) -> str:
    """Argument type of --csv, refused before any work: a file path, not '-',
    '', a directory, or a path under a regular file."""
    path = _out_path(text)
    ancestor = next((p for p in path.parents if p.exists()), path.parent)
    if text in ("-", "") or path.is_dir() or not ancestor.is_dir():
        raise argparse.ArgumentTypeError(f"needs a file path, not {text!r}")
    return text


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_path, csv_path = getattr(args, "json_path", None), getattr(args, "csv_path", None)
    if json_path not in (None, "-") and csv_path is not None:
        if _out_path(json_path).resolve() == _out_path(csv_path).resolve():
            parser.error(f"--json and --csv name the same file: {csv_path!r}")
    # Per-packet objects hold no reference cycles, so the cyclic GC would
    # only walk them.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(args) -> int:
    try:
        return args.func(args)
    except CaptureError as exc:
        print(f"appcap: cannot parse capture: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NoCommonApps, _DomainError) as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TooManyBins as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, _RenderError) as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_IO


def _out_path(text: str) -> Path:
    """``text`` as a path; a relative one is under $APPCAP_OUTPUT_DIR when that is set."""
    return Path(os.environ.get(OUTPUT_DIR_ENV, "")) / text


def _resolve_out(path_text: str | None) -> Path | None:
    if path_text is None or path_text == "-":
        return None
    path = _out_path(path_text)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit(args, envelope: dict) -> None:
    if getattr(args, "json_path", None) is not None:
        write_envelope(envelope, _resolve_out(args.json_path), sys.stdout)


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout as UTF-8, each surrogate escape as the byte it
    stands for, whatever stdout's encoding; a stdout with no byte layer (a
    ``StringIO``) takes the text as it is."""
    sys.stdout.flush()
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        buffer.write(text.encode("utf-8", "surrogateescape"))


def _read_file(path: Path, parse: Callable[[bytes], T]) -> tuple[T, str]:
    """``parse`` of a file's bytes, read once, and the SHA-256 of those bytes."""
    # hashlib loads OpenSSL, about 3.6 MB of resident memory, so it is
    # imported only where bytes are hashed: the parent of a pool of dataset
    # workers never loads it.
    import hashlib

    data = path.read_bytes()
    return parse(data), hashlib.sha256(data).hexdigest()


# Frames decoded and classified per chunk; ``analyze`` renders each chunk's
# rows before the next chunk is decoded.
_CHUNK_FRAMES = 4096


def _classified(
    stream: CaptureStream, flows: FlowTable, truncate_min: float | None = None
) -> Iterator[list[ClassifiedPacket]]:
    """The capture's packets, classified by ``flows``, one list per
    ``_CHUNK_FRAMES`` frames. With ``truncate_min``, ``_records_to_cutoff``
    decides what is decoded, and only packets before its cutoff are yielded."""
    if truncate_min is None:
        for start in range(0, len(stream.offsets), _CHUNK_FRAMES):
            chunk = dataclasses.replace(stream, offsets=stream.offsets[start : start + _CHUNK_FRAMES])
            yield [flows.classify(r) for r in decode_stream(chunk)]
        return
    records, cutoff = _records_to_cutoff(stream, truncate_min)
    for start in range(0, len(records), _CHUNK_FRAMES):
        packets = [flows.classify(r) for r in records[start : start + _CHUNK_FRAMES]]
        yield [cp for cp in packets if cp.record.ts_ns < cutoff]


def _capture_tally(path: Path, truncate_min: float | None, counted: bool = True) -> tuple[Tally, str]:
    """One capture's tally (with ``truncate_min``, of the packets that
    ``truncate_packets`` keeps) and digest, built one chunk at a time. Of a
    capture not ``counted``, only the first frame is decoded, which checks
    the link type, and the tally is empty. Runs in a pool worker, so it
    takes and returns only small picklable values."""
    stream, digest = _read_file(path, read_capture)
    if not counted:
        decode_stream(dataclasses.replace(stream, offsets=stream.offsets[:1]))
        return Tally(), digest
    return sum(map(tally, _classified(stream, FlowTable(), truncate_min)), Tally()), digest


def _records_to_cutoff(stream: CaptureStream, minutes: float) -> tuple[list[PacketRecord], int]:
    """The records, in capture order, up to the last one before the cutoff
    (the earliest record + ``minutes``, half-open), and the cutoff.

    The first record + ``minutes`` bounds the cutoff from above, so the
    frames at the tail whose record headers are at or past that bound are
    not decoded: none is counted, and none precedes a counted packet, so
    none can change how one is classified.
    """
    offsets = stream.offsets
    first, records = 0, []
    while not records and first < len(offsets):
        records = decode_stream(dataclasses.replace(stream, offsets=offsets[first : first + 1]))
        first += 1
    if not records:
        return records, 0
    end = stream.frames_before(truncation_cutoff(records[0].ts_ns, minutes), first)
    records += decode_stream(dataclasses.replace(stream, offsets=offsets[first:end]))
    cutoff = truncation_cutoff(min(r.ts_ns for r in records), minutes)
    last = len(records)
    while last and records[last - 1].ts_ns >= cutoff:
        last -= 1
    return records[:last], cutoff


def _scan_dataset(directory: Path) -> DatasetManifest:
    if not directory.is_dir():
        raise _DomainError(f"not a dataset directory: {directory}")
    return scan_directory(directory)


def _fold_captures(
    entries: list[ManifestEntry], truncate_min: float | None, apps: set[str] | None = None
) -> tuple[list[tuple[CaptureLabel, Tally]], dict[Path, str]]:
    """Each capture reduced to its tally, in the order of ``entries``, and
    the digest of each capture file, folded by ``dataset.map_on_cpus``.
    With ``apps``, the captures of other apps are only read, hashed and
    checked for their link type, and their tallies are empty."""
    paths = [e.capture_path for e in entries]
    counted = [apps is None or e.label.app_name in apps for e in entries]
    results = map_on_cpus(_capture_tally, paths, [truncate_min] * len(paths), counted)
    captures = [(e.label, t) for e, (t, _) in zip(entries, results)]
    return captures, {p: digest for p, (_, digest) in zip(paths, results)}


def cmd_analyze(args) -> int:
    digests: dict[Path, str] = {}
    stream, digests[args.capture] = _read_file(args.capture, read_capture)
    if args.keylog is not None:
        index, digests[args.keylog] = _read_file(args.keylog, read_keylog)
    flows = FlowTable()
    counts, times = Tally(), Timeline()
    with contextlib.ExitStack() as stack:
        # One unnamed temporary file per requested output, for the whole command.
        table = PacketTable(*(
            stack.enter_context(tempfile.TemporaryFile()) if path is not None else None
            for path in (args.json_path, args.csv_path)
        ))
        for packets in _classified(stream, flows):
            _render(packets, table, args.app_data_only)
            counts.update(tally(packets))
            times.update(timeline(packets))
        scope = Scope.APP_DATA_ONLY if args.app_data_only else Scope.ALL_PACKETS
        dist = protocol_distribution(counts, scope)
        hist = temporal_histogram(times, bin_width_s=args.bins)
        body = {"distribution": distribution_json(dist), "histogram": histogram_json(hist)}
        if args.keylog is not None:
            coverage = key_coverage(index, flows.states)
            body["coverage"] = coverage_json(coverage, index.malformed_lines)
        body["packets"] = table
        inputs = [args.capture] + ([args.keylog] if args.keylog else [])
        envelope = make_envelope("analyze", inputs, body, digests)
        if args.csv_path is not None:
            write_table_csv(table, _resolve_out(args.csv_path))
        _emit(args, envelope)
    if args.json_path is None:
        _print_distribution(dist)
    return EXIT_OK


def _render(packets: list[ClassifiedPacket], table: PacketTable, app_data_only: bool) -> None:
    """Append the rows of ``packets`` to the table's files that are not None."""
    if table.json_file is None and table.csv_file is None:
        return
    try:
        rows = feature_rows([cp for cp in packets if cp.is_app_data] if app_data_only else packets)
        for fh, write in ((table.json_file, write_feature_json), (table.csv_file, write_feature_csv)):
            if fh is not None:
                write(rows, fh)
                fh.flush()  # a full disk fails here, before any output is opened
    except Exception as exc:
        raise _RenderError(f"cannot render the packet table: {exc}") from exc


def _print_distribution(dist) -> None:
    print(f"packets: {dist.total} ({dist.scope.value})")
    for (transport, protocol), count in sorted(dist.counts.items()):
        pct = dist.percentages[(transport, protocol)]
        print(f"  {transport:<4} {protocol:<10} {count:>8}  {pct:6.2f}%")


def cmd_dataset_scan(args) -> int:
    manifest = _scan_dataset(args.directory)
    envelope = make_envelope("dataset-scan", [], {"manifest": manifest_json(manifest)})
    _emit(args, envelope)
    if args.json_path is None:
        print(
            f"apps: {len(manifest.apps)}  captures: {len(manifest.entries)}  "
            f"unpaired keylogs: {len(manifest.unpaired_keylogs)}  "
            f"unparseable: {len(manifest.unparseable)}"
        )
    return EXIT_OK


def cmd_dataset_stats(args) -> int:
    manifest = _scan_dataset(args.directory)
    captures, digests = _fold_captures(manifest.entries, args.truncate_min)
    if not captures:
        raise _DomainError(f"no captures found in {args.directory}")
    scope = Scope.APP_DATA_ONLY if args.app_data_only else Scope.ALL_PACKETS
    dist = protocol_distribution(merged(captures), scope)
    ppm = mean_ppm_per_app(captures)
    body = {
        "manifest": manifest_json(manifest),
        "ppm": ppm_json(ppm),
        "distribution": distribution_json(dist),
    }
    envelope = make_envelope("dataset-stats", [e.capture_path for e in manifest.entries], body, digests)
    if args.csv_path:
        write_stats_csv(ppm, _resolve_out(args.csv_path))
    _emit(args, envelope)
    if args.json_path is None:
        # App names are file names: written as their own bytes, as in the CSVs.
        _write_stdout("".join(
            f"{record.app_name:<40} {record.mean_ppm:>12.1f} ppm ({record.captures_used} captures)\n"
            for record in ppm
        ))
        _print_distribution(dist)
    return EXIT_OK


def cmd_compare(args) -> int:
    entries_a = _scan_dataset(args.dir_a).entries
    entries_b = _scan_dataset(args.dir_b).entries
    common = {e.label.app_name for e in entries_a} & {e.label.app_name for e in entries_b}
    if not common:
        raise NoCommonApps("datasets share no app names")
    # One pool for both datasets' captures.
    captures, digests = _fold_captures(
        entries_a + entries_b, args.truncate_min, common if args.common_only else None
    )
    captures_a, captures_b = captures[: len(entries_a)], captures[len(entries_a) :]
    report = compare_datasets(captures_a, captures_b, common_only=args.common_only)
    body = comparison_json(report)
    for key, captures in (("sankey_a", captures_a), ("sankey_b", captures_b)):
        sankey = flow_graph(merged([(lab, t) for lab, t in captures if lab.app_name in common]))
        body[key] = flow_graph_json(sankey)
    inputs = [e.capture_path for e in entries_a + entries_b]
    envelope = make_envelope("compare", inputs, body, digests)
    if args.csv_path:
        write_compare_csv(report, _resolve_out(args.csv_path))
    _emit(args, envelope)
    if args.json_path is None:
        dns = report.dns_evolution
        print(f"common apps: {len(report.common_apps)}")
        print(f"mean ppm: a={report.mean_ppm_a:.0f} b={report.mean_ppm_b:.0f}")
        print(
            f"dns evolution: a Do53/DoT {dns.do53_pct_a:.1f}/{dns.dot_pct_a:.1f}  "
            f"b Do53/DoT {dns.do53_pct_b:.1f}/{dns.dot_pct_b:.1f}"
        )
    return EXIT_OK


def cmd_keycov(args) -> int:
    digests: dict[Path, str] = {}
    stream, digests[args.capture] = _read_file(args.capture, read_capture)
    index, digests[args.keylog] = _read_file(args.keylog, read_keylog)
    flows = FlowTable()
    collections.deque(_classified(stream, flows), maxlen=0)  # coverage reads only the flows' states
    coverage = key_coverage(index, flows.states)
    body = {"coverage": coverage_json(coverage, index.malformed_lines)}
    envelope = make_envelope("keycov", [args.capture, args.keylog], body, digests)
    _emit(args, envelope)
    if args.json_path is None:
        print(
            f"tls flows: {coverage.tls_flows}  with hello: {coverage.flows_with_client_hello}  "
            f"with keys: {coverage.flows_with_keys}  coverage: {coverage.coverage_fraction:.3f}"
        )
    return EXIT_OK


def cmd_baseline(args) -> int:
    stream, digest = _read_file(args.capture, read_capture)
    counts, times = attribute_background(cp for packets in _classified(stream, FlowTable()) for cp in packets)
    hist = temporal_histogram(times, bin_width_s=args.bins)
    body = {"tags": background_json(counts), "histogram": histogram_json(hist)}
    envelope = make_envelope("baseline", [args.capture], body, {args.capture: digest})
    _emit(args, envelope)
    if args.json_path is None:
        for kind, count in body["tags"].items():
            print(f"  {kind:<18} {count}")
    return EXIT_OK


def cmd_synth(args) -> int:
    # Imported here and in _synth: no other command needs the synthesizer.
    from .synth import FixtureSpecError

    try:
        return _synth(args)
    except FixtureSpecError as exc:
        print(f"appcap: invalid fixture spec: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _synth(args) -> int:
    from .dataset import path_text
    from .synth import FixtureSpecError, parse_fixture_spec, synth_dataset

    try:
        spec_obj = json.loads(args.spec.read_bytes().decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FixtureSpecError("$", f"not valid JSON: {exc}") from exc
    spec = parse_fixture_spec(spec_obj)
    if args.seed is not None:
        if args.seed < 0:
            raise FixtureSpecError("seed", "must be a non-negative integer")
        spec = dataclasses.replace(spec, seed=args.seed)
    out_dir = args.out_dir
    if out_dir is None:
        env = os.environ.get(OUTPUT_DIR_ENV)
        if env is None:
            print(
                f"appcap: synth needs an output directory (argument or ${OUTPUT_DIR_ENV})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        out_dir = Path(env)
    written = synth_dataset(spec, out_dir)
    _write_stdout("".join(f"{path_text(path)}\n" for path in written))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
