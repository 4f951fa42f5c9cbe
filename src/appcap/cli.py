"""Command-line surface: analyze, dataset scan/stats, compare, keycov,
baseline and synth.

Exit codes: 0 success, 2 I/O problems, 3 domain problems (unparseable
capture, empty dataset, no common apps), 64 usage errors including invalid
fixture specs. Relative --json/--csv paths resolve against $APPCAP_OUTPUT_DIR
when it is set.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import gc
import json
import math
import os
import signal
import sys
import tempfile
from pathlib import Path

from .analytics import (
    NoCommonApps,
    Scope,
    Tally,
    compare_datasets,
    flow_graph,
    mean_ppm_per_app,
    merged,
    protocol_distribution,
    tally,
    temporal_histogram,
)
from .classify import ClassifiedPacket, FlowTable
from .dataset import (
    BackgroundKind,
    CaptureLabel,
    DatasetManifest,
    ManifestEntry,
    attribute_background,
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


class _DomainError(Exception):
    """Carries a user-facing message for exit code 3."""


class _UsageError(Exception):
    """Carries a user-facing message for exit code 64."""


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
    parser.add_argument("--json", dest="json_path", metavar="PATH", help="write report JSON ('-' for stdout)")
    if csv:
        parser.add_argument("--csv", dest="csv_path", metavar="PATH")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Per-packet objects hold no reference cycles, so the cyclic GC would
    # only walk them; in ``analyze`` it would also write to pages that the
    # table's renderers share.
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
    except NoCommonApps as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _DomainError as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _UsageError as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, _RenderError) as exc:
        print(f"appcap: {exc}", file=sys.stderr)
        return EXIT_IO


def _resolve_out(path_text: str | None) -> Path | None:
    if path_text is None or path_text == "-":
        return None
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_csv(path_text: str) -> Path:
    path = _resolve_out(path_text)
    if path is None:
        raise _UsageError("--csv needs a file path, not '-'")
    return path


def _emit(args, envelope: dict) -> None:
    if getattr(args, "json_path", None) is not None:
        write_envelope(envelope, _resolve_out(args.json_path), sys.stdout)


def _read_file(path: Path) -> tuple[CaptureStream, str]:
    """A capture's framing and the SHA-256 of the bytes it was read from."""
    import hashlib  # see reports._file_sha256

    data = path.read_bytes()
    return read_capture(data), hashlib.sha256(data).hexdigest()


def _classify_file(path: Path) -> tuple[list[ClassifiedPacket], FlowTable, str]:
    stream, digest = _read_file(path)
    records = decode_stream(stream)
    del stream  # the file's bytes, freed before the records are classified
    flows = FlowTable()
    return [flows.classify(r) for r in records], flows, digest


def _capture_tally(path: Path, truncate_min: float | None) -> tuple[Tally, str]:
    """One capture's tally (with ``truncate_min``, of the packets that
    ``truncate_packets`` keeps) and digest, built without a packet list. Runs
    in a pool worker, so it takes and returns only small picklable values."""
    stream, digest = _read_file(path)
    if truncate_min is None:
        records, cutoff = decode_stream(stream), None
    else:
        records, cutoff = _records_to_cutoff(stream, truncate_min)
    del stream  # the file's bytes, freed before the records are classified
    classified = map(FlowTable().classify, records)
    if cutoff is not None:
        classified = (cp for cp in classified if cp.record.ts_ns < cutoff)
    return tally(classified), digest


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


def _usable_cpus() -> int:
    """CPUs this process may run on; ``taskset`` narrows them."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _scan_dataset(directory: Path) -> DatasetManifest:
    if not directory.is_dir():
        raise _DomainError(f"not a dataset directory: {directory}")
    return scan_directory(directory)


def _fold_captures(
    entries: list[ManifestEntry], truncate_min: float | None
) -> tuple[list[tuple[CaptureLabel, Tally]], dict[Path, str]]:
    """Each capture reduced to its tally, in the order of ``entries``, and
    the digest of each capture file.

    The captures are folded on every usable CPU, one worker per capture at
    most. Results come back in entry order, so reports equal a serial run's
    byte for byte, and the first failing capture in that order raises its
    error. With one worker no pool is made.
    """
    paths = [e.capture_path for e in entries]
    fold = functools.partial(_capture_tally, truncate_min=truncate_min)
    workers = min(_usable_cpus(), len(paths))
    if workers <= 1:
        results = list(map(fold, paths))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the CLI has started no thread by now, and each worker
        # inherits the imported package instead of starting an interpreter.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        # About eight chunks per worker: few round trips, and a short last
        # chunk when capture sizes differ.
        chunksize = max(1, len(paths) // (8 * workers))
        try:
            results = list(pool.map(fold, paths, chunksize=chunksize))
        finally:
            pool.shutdown(cancel_futures=True)
    captures = [(e.label, t) for e, (t, _) in zip(entries, results)]
    return captures, {p: digest for p, (_, digest) in zip(paths, results)}


# Frames that ``analyze`` decodes and classifies per step; each step's rows
# are rendered while the next step is classified.
_CHUNK_FRAMES = 4096


def cmd_analyze(args) -> int:
    stream, digest = _read_file(args.capture)
    flows = FlowTable()
    classified: list[ClassifiedPacket] = []
    want_json, want_csv = args.json_path is not None, bool(args.csv_path)
    with _TableRenderer(args.app_data_only, want_json, want_csv) as renderer:
        for start in range(0, len(stream.offsets), _CHUNK_FRAMES):
            chunk = dataclasses.replace(stream, offsets=stream.offsets[start : start + _CHUNK_FRAMES])
            packets = [flows.classify(r) for r in decode_stream(chunk)]
            renderer.render(packets)
            classified += packets
        scope = Scope.APP_DATA_ONLY if args.app_data_only else Scope.ALL_PACKETS
        dist = protocol_distribution(tally(classified), scope)
        hist = temporal_histogram(classified, bin_width_s=args.bins)
        body = {"distribution": distribution_json(dist), "histogram": histogram_json(hist)}
        if args.keylog is not None:
            index = read_keylog(args.keylog)
            coverage = key_coverage(index, flows.states)
            body["coverage"] = coverage_json(coverage, index.malformed_lines)
        body["packets"] = renderer.table()
        inputs = [args.capture] + ([args.keylog] if args.keylog else [])
        envelope = make_envelope("analyze", inputs, body, {args.capture: digest})
        if want_csv:
            write_table_csv(body["packets"], _resolve_csv(args.csv_path))
        _emit(args, envelope)
    if args.json_path is None:
        _print_distribution(dist)
    return EXIT_OK


class _TableRenderer:
    """Renders ``analyze``'s packet table one chunk of packets at a time.

    Each chunk's rows go to two unnamed temporary files, its pieces of the
    table. A forked child renders them from the packets it inherits, while
    the caller goes on classifying; at most one child per usable CPU but
    one is alive, and the oldest is reaped first. With one usable CPU, or
    without ``os.fork``, each chunk is rendered inline. A failed render
    raises ``_RenderError``; on leaving the ``with`` block, children still
    alive are killed and reaped and the pieces are closed.
    """

    def __init__(self, app_data_only: bool, json: bool, csv: bool):
        self.app_data_only = app_data_only
        self.json, self.csv = json, csv
        self.slots = _usable_cpus() - 1 if hasattr(os, "fork") else 0
        self.json_pieces: list = []
        self.csv_pieces: list = []
        self.live: collections.deque[tuple[int, int]] = collections.deque()  # (pid, error pipe)

    def __enter__(self) -> _TableRenderer:
        return self

    def __exit__(self, *exc_info) -> None:
        while self.live:
            pid, error_pipe = self.live.popleft()
            os.close(error_pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for piece in self.json_pieces + self.csv_pieces:
            piece.close()

    def render(self, packets: list[ClassifiedPacket]) -> None:
        if not (self.json or self.csv):
            return
        json_piece = csv_piece = None
        if self.json:
            json_piece = tempfile.TemporaryFile()
            self.json_pieces.append(json_piece)
        if self.csv:
            csv_piece = tempfile.TemporaryFile()
            self.csv_pieces.append(csv_piece)
        if self.slots < 1:
            self._render(packets, json_piece, csv_piece)
            return
        if len(self.live) >= self.slots:
            self._reap()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:  # the renderer: report a failure on the pipe, and never return
            status = 1
            try:
                os.close(read_end)
                self._render(packets, json_piece, csv_piece)
                status = 0
            except BaseException as exc:
                os.write(write_end, str(exc).encode("utf-8", "replace")[:4096])
            finally:
                os._exit(status)
        os.close(write_end)
        self.live.append((pid, read_end))

    def _render(self, packets, json_piece, csv_piece) -> None:
        """Write the rows of ``packets`` to the pieces that are not None."""
        try:
            rows = feature_rows([cp for cp in packets if cp.is_app_data] if self.app_data_only else packets)
            for piece, write in ((json_piece, write_feature_json), (csv_piece, write_feature_csv)):
                if piece is not None:
                    write(rows, piece)
                    piece.flush()
        except Exception as exc:
            raise _RenderError(f"cannot render the packet table: {exc}") from exc

    def _reap(self) -> None:
        pid, error_pipe = self.live[0]
        _, status = os.waitpid(pid, 0)
        self.live.popleft()
        try:
            message = os.read(error_pipe, 4096).decode("utf-8", "replace")
        finally:
            os.close(error_pipe)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise _RenderError(message or f"cannot render the packet table: renderer exited with {code}")

    def table(self) -> PacketTable:
        """The whole table, once every renderer has finished."""
        while self.live:
            self._reap()
        return PacketTable(self.json_pieces, self.csv_pieces)


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
        write_stats_csv(ppm, _resolve_csv(args.csv_path))
    _emit(args, envelope)
    if args.json_path is None:
        for record in ppm:
            print(f"{record.app_name:<40} {record.mean_ppm:>12.1f} ppm ({record.captures_used} captures)")
        _print_distribution(dist)
    return EXIT_OK


def cmd_compare(args) -> int:
    entries_a = _scan_dataset(args.dir_a).entries
    entries_b = _scan_dataset(args.dir_b).entries
    # One pool for both datasets' captures.
    captures, digests = _fold_captures(entries_a + entries_b, args.truncate_min)
    captures_a, captures_b = captures[: len(entries_a)], captures[len(entries_a) :]
    report = compare_datasets(captures_a, captures_b, common_only=args.common_only)
    common = set(report.common_apps)
    body = comparison_json(report)
    for key, captures in (("sankey_a", captures_a), ("sankey_b", captures_b)):
        sankey = flow_graph(merged([(lab, t) for lab, t in captures if lab.app_name in common]))
        body[key] = flow_graph_json(sankey)
    inputs = [e.capture_path for e in entries_a + entries_b]
    envelope = make_envelope("compare", inputs, body, digests)
    if args.csv_path:
        write_compare_csv(report, _resolve_csv(args.csv_path))
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
    _, flows, digest = _classify_file(args.capture)
    index = read_keylog(args.keylog)
    coverage = key_coverage(index, flows.states)
    body = {"coverage": coverage_json(coverage, index.malformed_lines)}
    envelope = make_envelope("keycov", [args.capture, args.keylog], body, {args.capture: digest})
    _emit(args, envelope)
    if args.json_path is None:
        print(
            f"tls flows: {coverage.tls_flows}  with hello: {coverage.flows_with_client_hello}  "
            f"with keys: {coverage.flows_with_keys}  coverage: {coverage.coverage_fraction:.3f}"
        )
    return EXIT_OK


def cmd_baseline(args) -> int:
    classified, _, digest = _classify_file(args.capture)
    tags = attribute_background(classified, baseline_mode=True)
    tagged = [cp for cp, tag in zip(classified, tags) if tag is not BackgroundKind.NONE]
    hist = temporal_histogram(tagged, bin_width_s=args.bins)
    body = {"tags": background_json(tags), "histogram": histogram_json(hist)}
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
    from .synth import FixtureSpec, FixtureSpecError, parse_fixture_spec, synth_dataset

    try:
        spec_obj = json.loads(args.spec.read_text())
    except json.JSONDecodeError as exc:
        raise FixtureSpecError("$", f"not valid JSON: {exc}") from exc
    spec = parse_fixture_spec(spec_obj)
    if args.seed is not None:
        if args.seed < 0:
            raise FixtureSpecError("seed", "must be a non-negative integer")
        spec = FixtureSpec(
            apps=spec.apps,
            seed=args.seed,
            linktype=spec.linktype,
            ts_resolution=spec.ts_resolution,
            base_date=spec.base_date,
        )
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
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
