"""appcap benchmark: two CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload analyze_large --seed 1 --seconds 35 --trace 0

Each run synthesizes the workload's corpus with ``appcap synth`` from the
specs in ``bench/specs`` (reseeded with ``--seed``), verifies it, then runs the
workload's real CLI command in a fresh subprocess as a closed loop: one
client, each command starting after the previous one exits, for ``--seconds``
(and at least ``MIN_RUNS`` commands). Every command's report body and CSV are
checked against digests in ``bench/golden.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the loop
and then makes one traced run (``bench/tracer.py``), which times the calls
``appcap.cli`` makes into each module, and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Raw samples and the run's
context go to ``.bench_work/results/``.

Maintainers re-pin the golden digests after a deliberate change to the specs
or the program's output with ``--record-golden`` (default seed only).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPECS = BENCH / "specs"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1  # the specs' own seed; golden digests are pinned for it
SETUP_REPEATS = 5  # setup_s is the median of this many syntheses
MIN_RUNS = 3  # commands per loop even when --seconds runs out sooner
# A whole run must end within 180 s even when every command hangs.
COMMAND_TIMEOUT_S = 30.0
LOOP_CAP_S = 60.0  # never start a command after this, whatever MIN_RUNS says
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Workload:
    """One CLI command over one synthesized corpus.

    ``corpora`` maps a directory under the corpus root to the spec that
    fills it ("" is the root itself).
    """

    name: str
    corpora: dict[str, str]
    csv_invariant_drop: tuple[str, ...] = ()

    def argv(self, corpus: Path, out: Path) -> list[str]:
        outputs = ["--json", str(out / "report.json"), "--csv", str(out / "report.csv")]
        if self.name == "analyze_large":
            capture = next(corpus.glob("*.pcap"))
            keylog = next(corpus.glob("sslkeylog_*.txt"))
            return ["analyze", str(capture), "--keylog", str(keylog), *outputs]
        if self.name == "stats_small_udp":
            return ["dataset", "stats", str(corpus), "--truncate-min", "1.5", "--app-data-only", *outputs]
        raise ValueError(self.name)


# Why these two (sizes are fixed by the specs, not by --seed):
# - analyze_large: one 57,634-packet capture with 21 long flows. Nothing to
#   parallelize across captures; per-packet feature rows and the large JSON
#   and CSV weigh most, and TLS reassembly runs deep on few flow states.
# - stats_small_udp: 300 small captures of QUIC and DNS. Classify takes the
#   UDP path, and fixed per-capture costs (open, scan, hash) weigh most.
# A third workload, `compare` over 2 x 30 captures, was left out: at 8-11 s a
# command, a run holds too few commands for its median to be steady on a
# small shared host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze_large", {"": "analyze_large.json"}, ("packet_len",)),
        Workload("stats_small_udp", {"": "stats_small_udp.json"}),
    )
}

# End-to-end metrics (--trace 0) and per-layer metrics (--trace 1), with units.
END_TO_END = {
    "wall_s": "s",
    "pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "ingest.s": "s",
    "ingest.read_us_per_frame": "us",
    "ingest.decode_us_per_frame": "us",
    "ingest.frames": "count",
    "ingest.records": "count",
    "ingest.bytes": "B",
    "classify.s": "s",
    "classify.us_per_packet": "us",
    "classify.flows": "count",
    "classify.tls_flows_unresolved": "count",
    "keylog.s": "s",
    "dataset.scan_s": "s",
    "dataset.truncate_s": "s",
    "dataset.captures": "count",
    "analytics.s": "s",
    "analytics.us_per_packet": "us",
    "analytics.packets_in": "count",
    "reports.s": "s",
    "reports.feature_rows_s": "s",
    "reports.json_s": "s",
    "reports.json_bytes": "B",
    "reports.csv_s": "s",
    "reports.envelope_s": "s",
    "reports.bytes_hashed": "B",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class SetupError(Exception):
    """The corpus could not be synthesized or does not match its pins."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "APPCAP_OUTPUT_DIR")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Sample:
    """One command run: the closed loop's unit of work."""

    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int | None
    problem: str = ""  # empty when the run succeeded and its outputs are right

    @property
    def ok(self) -> bool:
        return not self.problem

    def as_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def run_child(argv: list[str], log: Path) -> tuple[float, float, float, int | None]:
    """Run one child to completion; return (wall s, peak RSS MB, CPU s, exit).

    Peak RSS comes from ``os.wait4`` on this child alone: ``ru_maxrss`` of
    ``getrusage(RUSAGE_CHILDREN)`` would be the maximum over every child
    ever waited for. ``ru_maxrss`` is still a maximum over the child's
    process tree, not a sum, so a future worker pool is under-reported.
    Exit is None when the child was killed for overrunning its timeout.
    """
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=err, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    exit_code = None if proc.returncode < 0 else proc.returncode
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, exit_code


def command_sample(argv: list[str], log: Path) -> Sample:
    sample = Sample(*run_child(argv, log))
    if sample.exit_code != 0:
        sample.problem = "timed out" if sample.exit_code is None else f"exit {sample.exit_code}; see {log}"
    return sample


# --- inputs -------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_pcap_frames(path: Path) -> int:
    """Frames in a classic pcap file, walked independently of appcap."""
    data = path.read_bytes()
    magic = data[:4]
    if magic in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1"):
        endian = "<"
    elif magic in (b"\xa1\xb2\xc3\xd4", b"\xa1\xb2\x3c\x4d"):
        endian = ">"
    else:
        raise SetupError(f"{path.name}: not a classic pcap file")
    incl = struct.Struct(endian + "8xI4x")
    offset, frames = 24, 0
    while offset < len(data):
        if offset + 16 > len(data):
            raise SetupError(f"{path.name}: truncated record header")
        (length,) = incl.unpack_from(data, offset)
        offset += 16 + length
        frames += 1
    if offset != len(data):
        raise SetupError(f"{path.name}: truncated last record")
    return frames


def synthesize(workload: Workload, seed: int, corpus: Path, log: Path) -> None:
    if corpus.exists():
        shutil.rmtree(corpus)
    for sub, spec in workload.corpora.items():
        argv = [sys.executable, "-m", "appcap.cli", "synth", str(SPECS / spec), str(corpus / sub)]
        _, _, _, code = run_child(argv + ["--seed", str(seed)], log)
        if code != 0:
            raise SetupError(f"appcap synth {spec} exited {code}; see {log}")


def inventory(corpus: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of every file under the corpus root, and its total frames."""
    digests, frames = {}, 0
    for path in sorted(p for p in corpus.rglob("*") if p.is_file()):
        digests[path.relative_to(corpus).as_posix()] = sha256_file(path)
        if path.suffix == ".pcap":
            frames += count_pcap_frames(path)
    return digests, frames


def check_inventory(digests: dict[str, str], frames: int, pinned: dict, first: tuple[dict, int] | None) -> None:
    """Fail setup, naming the file, on any difference from the pins.

    ``pinned`` is the golden entry (input digests only apply to the default
    seed; the frame count applies to every seed). ``first`` is the first
    synthesis of this run, which every repeat must reproduce exactly.
    """
    if first is not None:
        for name in sorted(set(digests) | set(first[0])):
            if digests.get(name) != first[0].get(name):
                raise SetupError(f"synthesis is not deterministic: {name} differs between repeats")
    if frames != pinned["frames"]:
        raise SetupError(f"corpus has {frames} frames, pinned {pinned['frames']}")
    expected = pinned.get("inputs")
    if expected is None:
        return
    for name in sorted(set(digests) | set(expected)):
        if name not in digests:
            raise SetupError(f"synthesis did not write {name}")
        if name not in expected:
            raise SetupError(f"synthesis wrote unexpected file {name}")
        if digests[name] != expected[name]:
            raise SetupError(f"{name}: sha256 {digests[name]} does not match pinned {expected[name]}")


# --- outputs ------------------------------------------------------------------


def normalize(value, root: str):
    """Report JSON with ``generated_at`` dropped and corpus paths relative.

    Bodies embed the absolute path of each capture (``dataset stats``
    manifests; envelope inputs), which differ between checkouts.
    """
    prefix = root.rstrip("/") + "/"
    if isinstance(value, dict):
        return {k: normalize(v, root) for k, v in value.items() if k != "generated_at"}
    if isinstance(value, list):
        return [normalize(v, root) for v in value]
    if isinstance(value, str) and value.startswith(prefix):
        return value[len(prefix):]
    return value


def _digest_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _drop_keys(value, keys: tuple[str, ...]):
    if isinstance(value, dict):
        return {k: _drop_keys(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [_drop_keys(v, keys) for v in value]
    return value


def _csv_digest(text: str, drop: tuple[str, ...]) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if drop and rows:
        keep = [i for i, name in enumerate(rows[0]) if name not in drop]
        rows = [[row[i] for i in keep] for row in rows]
    return _digest_json(rows)


def output_digests(workload: Workload, corpus: Path, out: Path) -> dict:
    """Digests of a command's outputs.

    ``body``/``csv`` cover everything; the ``*_invariant`` forms leave out
    the fields that depend on the synth seed (payload sizes), so they are
    pinned for every seed. ``inputs`` lists each input path (relative) with
    the digest the report claims for it.
    """
    envelope = normalize(json.loads((out / "report.json").read_text()), str(corpus))
    body = envelope["body"]
    csv_text = (out / "report.csv").read_text()
    drop = workload.csv_invariant_drop
    return {
        "command": envelope.get("command"),
        "inputs": {i["path"]: i["sha256"] for i in envelope.get("inputs", [])},
        "body": _digest_json(body),
        "csv": _csv_digest(csv_text, ()),
        "body_invariant": _digest_json(_drop_keys(body, drop)),
        "csv_invariant": _csv_digest(csv_text, drop),
    }


_DIGEST_KEYS = ("body", "csv")
_GENERATED_AT = re.compile(rb'"generated_at": *"[^"]*"')


def raw_digest(out: Path) -> str:
    """Cheap digest of the output files with only the timestamp blanked.

    Within one run the corpus paths do not change, so a command whose raw
    outputs equal an already verified command's needs no re-parsing. On
    ``analyze_large`` the full check (parse, normalize, re-serialize 18 MB of
    JSON) takes about 2 s against a 4 s command, on 2 vCPUs; this takes 0.1 s.
    """
    h = hashlib.sha256(_GENERATED_AT.sub(b"", (out / "report.json").read_bytes()))
    h.update((out / "report.csv").read_bytes())
    return h.hexdigest()


def check_outputs(got: dict, golden: dict, first: dict | None, inputs: dict[str, str], seed: int) -> str:
    """Empty string when the outputs are right, else what is wrong."""
    if got["command"] != golden["command"]:
        return f"command {got['command']!r}, expected {golden['command']!r}"
    if len(got["inputs"]) != golden["report_inputs"]:
        return f"report lists {len(got['inputs'])} inputs, expected {golden['report_inputs']}"
    for path, digest in got["inputs"].items():
        if inputs.get(path) != digest:
            return f"report claims sha256 {digest} for input {path}"
    for key in ("body_invariant", "csv_invariant"):
        if got[key] != golden[key]:
            return f"{key} digest {got[key]} != golden {golden[key]}"
    for key in _DIGEST_KEYS:
        if seed == DEFAULT_SEED and got[key] != golden[key]:
            return f"{key} digest {got[key]} != golden {golden[key]}"
        if first is not None and got[key] != first[key]:
            return f"{key} digest differs from this run's first command"
    return ""


# --- the benchmark --------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measured(samples: list[Sample]) -> list[Sample]:
    """The samples to take timings from: the correct ones, else all of them."""
    return [s for s in samples if s.ok] or samples


def run_context(seed: int, seconds: int, trace: int) -> dict:
    commit = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_repeats": SETUP_REPEATS,
        "min_runs": MIN_RUNS,
    }


def setup(workload: Workload, seed: int, corpus: Path, log: Path, golden: dict):
    """Synthesize and verify the corpus ``SETUP_REPEATS`` times.

    Returns the per-repeat seconds, the input digests and the frame count.
    """
    pinned = {"frames": golden["frames"]}
    if seed == DEFAULT_SEED:
        pinned["inputs"] = golden["inputs"]
    times, first = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        synthesize(workload, seed, corpus, log)
        digests, frames = inventory(corpus)
        check_inventory(digests, frames, pinned, first)
        times.append(time.perf_counter() - start)
        first = first or (digests, frames)
    return times, first[0], first[1]


class OutputCheck:
    """Checks each command's outputs; remembers the first verified ones."""

    def __init__(self, workload: Workload, corpus: Path, out: Path, golden: dict, inputs: dict, seed: int):
        self.workload, self.corpus, self.out = workload, corpus, out
        self.golden, self.inputs, self.seed = golden, inputs, seed
        self.first: dict | None = None
        self.first_raw: str | None = None

    def clear(self) -> None:
        for stale in ("report.json", "report.csv"):
            (self.out / stale).unlink(missing_ok=True)

    def problem(self) -> str:
        """Empty string when the outputs just written are right."""
        try:
            raw = raw_digest(self.out)
            if raw == self.first_raw:
                return ""
            got = output_digests(self.workload, self.corpus, self.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        problem = check_outputs(got, self.golden, self.first, self.inputs, self.seed)
        if not problem and self.first is None:
            self.first, self.first_raw = got, raw
        return problem


def closed_loop(workload: Workload, check: OutputCheck, seconds: int, log: Path) -> list[Sample]:
    argv = [sys.executable, "-m", "appcap.cli", *workload.argv(check.corpus, check.out)]
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(samples) >= MIN_RUNS):
            break
        check.clear()
        sample = command_sample(argv, log)
        if sample.ok:
            sample.problem = check.problem()
        samples.append(sample)
    return samples


def traced_run(workload: Workload, check: OutputCheck, log: Path) -> tuple[Sample, dict]:
    check.clear()
    spans_path = check.out / "spans.json"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--"]
    sample = command_sample(argv + workload.argv(check.corpus, check.out), log)
    trace: dict = {}
    if sample.ok:
        try:
            trace = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            sample.problem = f"unreadable spans: {exc!r}"
        else:
            sample.problem = check.problem()
    return sample, trace


# The boundaries each per-layer metric is read off: the tracer's names for
# the functions it wraps (``FlowTable.states`` is read, not wrapped, when a
# capture's classify span closes). A metric whose boundary is gone reads 0
# and is named, so the trace survives refactors of the program.
NEEDS = {
    "ingest.read_us_per_frame": ("read_capture",),
    "ingest.decode_us_per_frame": ("read_capture", "decode_stream"),
    "ingest.frames": ("read_capture",),
    "ingest.bytes": ("read_capture",),
    "ingest.records": ("decode_stream",),
    "classify.s": ("FlowTable.classify",),
    "classify.us_per_packet": ("FlowTable.classify",),
    "classify.flows": ("FlowTable.classify", "FlowTable.states"),
    "classify.tls_flows_unresolved": ("FlowTable.classify", "FlowTable.states"),
    "dataset.scan_s": ("scan_directory",),
    "dataset.captures": ("scan_directory",),
    "dataset.truncate_s": ("truncate_packets",),
    "reports.feature_rows_s": ("feature_rows",),
    "reports.json_s": ("write_envelope",),
    "reports.json_bytes": ("write_envelope",),
    "reports.envelope_s": ("make_envelope",),
    "reports.bytes_hashed": ("make_envelope",),
}


def layer_metrics(trace: dict, untraced: list[Sample], traced: Sample) -> tuple[dict, list[str]]:
    """Per-layer metrics from the tracer's spans; absent boundaries read 0.

    A span's self time is its busy time minus its children's; a layer's time
    is the self time of its spans, so nested calls are not counted twice.
    ``cli.self_s`` is the traced command's whole wall time (interpreter
    start, imports and tracer set-up included) minus the top-level spans.
    ``ingest.read_us_per_frame`` times ``read_capture``, which parses bytes
    already in memory: reading the file happens in ``appcap.cli`` and falls
    in ``cli.self_s``.
    """
    spans = trace.get("spans", [])
    counters = trace.get("counters", {})
    children: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0) + s["busy_ns"]
    by_name: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    top = 0
    for s in spans:
        own = s["busy_ns"] - children.get(s["id"], 0)
        by_name[s["name"]] = by_name.get(s["name"], 0) + own
        by_layer[s["layer"]] = by_layer.get(s["layer"], 0) + own
        if s["parent"] is None:
            top += s["busy_ns"]
    top_s = top / 1e9

    def secs(ns: float) -> float:
        return ns / 1e9

    def per(ns: float, count: float) -> float:
        return ns / 1e3 / count if count else 0.0

    frames = counters.get("ingest.frames", 0)
    csv_ns = sum(v for k, v in by_name.items() if k.startswith("write_") and k.endswith("_csv"))
    wall_untraced = median([s.wall_s for s in measured(untraced)])
    values = {
        "ingest.s": secs(by_layer.get("ingest", 0)),
        "ingest.read_us_per_frame": per(by_name.get("read_capture", 0), frames),
        "ingest.decode_us_per_frame": per(by_name.get("decode_stream", 0), frames),
        "ingest.frames": frames,
        "ingest.records": counters.get("ingest.records", 0),
        "ingest.bytes": counters.get("ingest.bytes", 0),
        "classify.s": secs(by_layer.get("classify", 0)),
        "classify.us_per_packet": per(by_name.get("FlowTable.classify", 0), counters.get("classify.calls", 0)),
        "classify.flows": counters.get("classify.flows", 0),
        "classify.tls_flows_unresolved": counters.get("classify.tls_flows_unresolved", 0),
        "keylog.s": secs(by_layer.get("keylog", 0)),
        "dataset.scan_s": secs(by_name.get("scan_directory", 0)),
        "dataset.truncate_s": secs(by_name.get("truncate_packets", 0)),
        "dataset.captures": counters.get("dataset.captures", 0),
        "analytics.s": secs(by_layer.get("analytics", 0)),
        "analytics.us_per_packet": per(by_layer.get("analytics", 0), counters.get("analytics.packets_in", 0)),
        "analytics.packets_in": counters.get("analytics.packets_in", 0),
        "reports.s": secs(by_layer.get("reports", 0)),
        "reports.feature_rows_s": secs(by_name.get("feature_rows", 0)),
        "reports.json_s": secs(by_name.get("write_envelope", 0)),
        "reports.json_bytes": counters.get("reports.json_bytes", 0),
        "reports.csv_s": secs(csv_ns),
        "reports.envelope_s": secs(by_name.get("make_envelope", 0)),
        "reports.bytes_hashed": counters.get("reports.bytes_hashed", 0),
        "cli.self_s": traced.wall_s - top_s,
        "cli.cpu_s": median([s.cpu_s for s in measured(untraced)]),
        "trace.overhead_s": traced.wall_s - wall_untraced,
        "trace.coverage": top_s / traced.wall_s if traced.wall_s else 0.0,
    }
    wrapped = set(trace.get("wrapped", []))
    gone = {b for boundaries in NEEDS.values() for b in boundaries if b not in wrapped}
    gone |= set(trace.get("absent_counters", []))
    missing = [m for m, boundaries in NEEDS.items() if gone.intersection(boundaries)]
    return values, sorted(missing)


def end_to_end_metrics(samples: list[Sample], setup_times: list[float], frames: int) -> dict:
    timed = measured(samples)
    wall = median([s.wall_s for s in timed])
    return {
        "wall_s": wall,
        "pkts_per_s": frames / wall if wall else 0.0,
        "peak_rss_mb": median([s.rss_mb for s in timed]),
        "ok_rate": sum(s.ok for s in samples) / len(samples) if samples else 0.0,
        "setup_s": median(setup_times),
    }


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return {}


def record_golden(workload: Workload, work: Path, log: Path) -> None:
    corpus, out = work / "corpus", work / "out"
    out.mkdir(parents=True, exist_ok=True)
    synthesize(workload, DEFAULT_SEED, corpus, log)
    digests, frames = inventory(corpus)
    argv = [sys.executable, "-m", "appcap.cli", *workload.argv(corpus, out)]
    _, _, _, code = run_child(argv, log)
    if code != 0:
        raise SetupError(f"{workload.name} exited {code}; see {log}")
    got = output_digests(workload, corpus, out)
    entry = {"frames": frames, "inputs": digests, "command": got["command"], "report_inputs": len(got["inputs"])}
    entry.update({k: got[k] for k in ("body", "csv", "body_invariant", "csv_invariant")})
    golden = load_golden()
    golden[workload.name] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {workload.name}: {frames} frames, {len(digests)} files")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="re-pin golden.json (default seed)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= LOOP_CAP_S:
        parser.error(f"--seconds must be from 1 to {LOOP_CAP_S:.0f}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "appcap" / "cli.py").is_file():
        print(f"bench: no appcap sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    log = work / "child.log"
    if args.record_golden:
        record_golden(workload, work, log)
        return 0
    golden = load_golden().get(workload.name)
    if golden is None:
        print(f"bench: no golden digests for {workload.name} in {GOLDEN}", file=sys.stderr)
        return 2

    context = run_context(args.seed, args.seconds, args.trace)
    corpus, out = work / "corpus", work / "out"
    out.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, inputs, frames = setup(workload, args.seed, corpus, log, golden)
    except SetupError as exc:
        print(f"bench: setup failed: {exc}", file=sys.stderr)
        return 1

    check = OutputCheck(workload, corpus, out, golden, inputs, args.seed)
    samples = closed_loop(workload, check, args.seconds, log)
    record = {
        "workload": workload.name,
        "context": context,
        "frames": frames,
        "setup_s": setup_times,
        "samples": [s.as_json() for s in samples],
    }
    attempted = list(samples)
    if args.trace:
        traced, trace = traced_run(workload, check, log)
        attempted.append(traced)
        metrics, absent = layer_metrics(trace, samples, traced)
        units = PER_LAYER
        record["traced"] = traced.as_json()
        record["trace"] = trace
        record["absent_metrics"] = absent
        if absent:
            print(f"bench: boundaries gone, these read 0: {', '.join(absent)}")
    else:
        metrics = end_to_end_metrics(samples, setup_times, frames)
        units = END_TO_END
    record["metrics"] = metrics

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    failed = [s for s in attempted if not s.ok]
    for s in failed:
        print(f"bench: failed run: {s.problem}", file=sys.stderr)
    print(f"bench: {len(attempted)} runs, raw samples in {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(attempted),
                "failed": len(failed),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
