"""Command-line surface: analyze, dataset scan/stats, compare, keycov,
baseline and synth.

Exit codes: 0 success, 2 I/O problems, 3 domain problems (unparseable
capture, empty dataset, no common apps), 64 usage errors including invalid
fixture specs. Relative --json/--csv paths resolve against $APPCAP_OUTPUT_DIR
when it is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
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
    truncate_packets,
)
from .ingest import CaptureError, PacketRecord, decode_stream, read_capture
from .keylog import key_coverage, read_keylog
from .reports import (
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
    write_stats_csv,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="appcap", description="Packet-capture analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="per-capture features, distribution, histogram")
    analyze.add_argument("capture", type=Path)
    analyze.add_argument("--keylog", type=Path, help="paired SSL key log for coverage")
    analyze.add_argument("--app-data-only", action="store_true")
    analyze.add_argument("--bins", type=_positive_float, default=10.0, metavar="SECONDS")
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
    stats.add_argument("--truncate-min", type=_positive_float, metavar="MINUTES")
    stats.add_argument("--app-data-only", action="store_true")
    _output_flags(stats)
    stats.set_defaults(func=cmd_dataset_stats)

    compare = sub.add_parser("compare", help="cross-dataset comparison report")
    compare.add_argument("dir_a", type=Path)
    compare.add_argument("dir_b", type=Path)
    compare.add_argument("--truncate-min", type=_positive_float, metavar="MINUTES")
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
    baseline.add_argument("--bins", type=_positive_float, default=10.0, metavar="SECONDS")
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
    except OSError as exc:
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


def _decode_file(path: Path) -> tuple[list[PacketRecord], str]:
    """A capture's records and the SHA-256 of the bytes they were read from.

    The bytes are freed on return, before the records are classified."""
    import hashlib  # see reports._file_sha256

    data = path.read_bytes()
    return decode_stream(read_capture(data)), hashlib.sha256(data).hexdigest()


def _classify_file(path: Path) -> tuple[list[ClassifiedPacket], FlowTable, str]:
    records, digest = _decode_file(path)
    flows = FlowTable()
    return [flows.classify(r) for r in records], flows, digest


def _capture_tally(path: Path, truncate_min: float | None) -> tuple[Tally, str]:
    """One capture classified, truncated when asked and reduced to its tally,
    with its digest. Runs in a pool worker, so it takes and returns only
    small picklable values."""
    classified, _, digest = _classify_file(path)
    if truncate_min is not None:
        classified = truncate_packets(classified, truncate_min)
    return tally(classified), digest


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


def cmd_analyze(args) -> int:
    classified, flows, digest = _classify_file(args.capture)
    scope = Scope.APP_DATA_ONLY if args.app_data_only else Scope.ALL_PACKETS
    rows_source = [cp for cp in classified if cp.is_app_data] if args.app_data_only else classified
    dist = protocol_distribution(tally(classified), scope)
    hist = temporal_histogram(classified, bin_width_s=args.bins)
    body = {
        "packets": feature_rows(rows_source),
        "distribution": distribution_json(dist),
        "histogram": histogram_json(hist),
    }
    if args.keylog is not None:
        index = read_keylog(args.keylog)
        coverage = key_coverage(index, flows.states)
        body["coverage"] = coverage_json(coverage, index.malformed_lines)
    inputs = [args.capture] + ([args.keylog] if args.keylog else [])
    envelope = make_envelope("analyze", inputs, body, {args.capture: digest})
    if args.csv_path:
        write_feature_csv(body["packets"], _resolve_csv(args.csv_path))
    _emit(args, envelope)
    if args.json_path is None:
        _print_distribution(dist)
    return EXIT_OK


def _print_distribution(dist) -> None:
    print(f"packets: {dist.total} ({dist.scope.value})")
    for (transport, protocol), count in sorted(dist.counts.items()):
        pct = dist.percentages[(transport, protocol)]
        print(f"  {transport:<4} {protocol:<10} {count:>8}  {pct:6.2f}%")


def cmd_dataset_scan(args) -> int:
    if not args.directory.is_dir():
        raise _DomainError(f"not a dataset directory: {args.directory}")
    manifest = scan_directory(args.directory)
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
