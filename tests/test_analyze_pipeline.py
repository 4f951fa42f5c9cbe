"""``analyze`` renders its packet table one chunk at a time while it classifies.

The capture is decoded and classified in chunks of ``cli._CHUNK_FRAMES``
frames. Each chunk's rows are appended to one temporary file per output, in
the command's own process. These tests set the chunk size from 1 frame to
more than the capture holds, and require the same report bytes (apart from
``generated_at``) and CSV bytes each time, equal to the pinned report
goldens. They also require that the open files stay as many however many
chunks there are, that a failed render or an unusable temporary directory
exits 2 with a message and no output and leaves no child process, that
capture errors still exit 3, and that the cyclic GC is switched off for the
command only. The failure paths run with chunks of 1, 2 and 3 frames.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from test_report_goldens import _GENERATED_AT, FIXTURE_NAMES, GOLDEN, _capture_stem, synthesize
from test_synth import assert_no_child_left

from appcap import cli
from appcap.classify import ClassifiedPacket
from appcap.cli import main
from appcap.ingest import decode_stream, read_capture
from appcap.reports import FEATURE_COLUMNS

WHOLE = 10**9  # a chunk size larger than any capture here: one chunk
# Chunks of one frame run on the first HEAD_FRAMES frames of the smallest
# fixture only, to keep those runs short.
HEAD_FRAMES = 150

# Flag set name: (extra argv, JSON output, CSV output). JSON output is a file,
# "-" for stdout, or None; the golden command the output must match is
# named after the fixture.
FLAG_SETS = {
    "plain": ([], "out.json", "out.csv"),
    "app-data": (["--app-data-only", "--bins", "5"], "out.json", "out.csv"),
    "keylog": (["--keylog", "{keylog}"], "out.json", "out.csv"),
    "json-stdout": ([], "-", "out.csv"),
    "csv-only": ([], None, "out.csv"),
    "json-only": ([], "out.json", None),
}
GOLDEN_COMMAND = {"plain": "analyze", "app-data": "analyze-app-bins5", "keylog": "analyze-keylog"}


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    synthesize(root)
    empty = root / "empty" / "empty.pcap"
    empty.parent.mkdir()
    data = (root / FIXTURE_NAMES[0] / f"{_capture_stem(FIXTURE_NAMES[0])}.pcap").read_bytes()
    empty.write_bytes(data[:24])
    head = root / "head" / "head.pcap"
    head.parent.mkdir()
    head.write_bytes(data[: read_capture(data).offsets[HEAD_FRAMES]])
    return root


@pytest.fixture
def in_root(corpus_root, monkeypatch):
    monkeypatch.chdir(corpus_root)
    monkeypatch.delenv("APPCAP_OUTPUT_DIR", raising=False)
    return corpus_root


def _paths(name: str) -> tuple[str, str]:
    if name in ("empty", "head"):
        return f"{name}/{name}.pcap", ""
    return f"{name}/{_capture_stem(name)}.pcap", f"{name}/sslkeylog_{_capture_stem(name)}.txt"


def _frames(root: Path, name: str) -> int:
    return len(read_capture((root / _paths(name)[0]).read_bytes()).offsets)


def _run(root, monkeypatch, capfd, name, flags, chunk) -> tuple:
    """(exit code, JSON bytes, CSV bytes, stdout) of one ``analyze``; the
    JSON comes from its file or stdout, with ``generated_at`` blanked."""
    capture, keylog = _paths(name)
    extra, json_out, csv_out = FLAG_SETS[flags]
    argv = ["analyze", capture] + [arg.format(keylog=keylog) for arg in extra]
    argv += ["--json", json_out] if json_out else []
    argv += ["--csv", csv_out] if csv_out else []
    for out in ("out.json", "out.csv"):
        (root / out).unlink(missing_ok=True)
    monkeypatch.setattr(cli, "_CHUNK_FRAMES", chunk)
    code = main(argv)
    out, err = capfd.readouterr()
    assert err == ""
    report = out.encode() if json_out == "-" else (root / "out.json").read_bytes() if json_out else None
    if report is not None:
        report = _GENERATED_AT.sub(b'  "generated_at": "",', report)
    table = (root / "out.csv").read_bytes() if csv_out else None
    return code, report, table, out if json_out != "-" else ""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags", sorted(FLAG_SETS))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_outputs_equal_a_one_piece_render(name, flags, in_root, monkeypatch, capfd):
    reference = _run(in_root, monkeypatch, capfd, name, flags, WHOLE)
    assert reference[0] == 0
    frames = _frames(in_root, name)
    for chunk in (7 if name == FIXTURE_NAMES[0] else 97, frames, frames + 1):
        assert _run(in_root, monkeypatch, capfd, name, flags, chunk) == reference, chunk


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_one_piece_render_matches_the_goldens(name, in_root, monkeypatch, capfd):
    runs = {flags: _run(in_root, monkeypatch, capfd, name, flags, WHOLE) for flags in FLAG_SETS}
    for flags, command in GOLDEN_COMMAND.items():
        _, report, table, _ = runs[flags]
        assert {"json": _digest(report), "csv": _digest(table)} == GOLDEN[f"{name}:{command}"], flags
    plain = runs["plain"]
    assert runs["json-stdout"][1:3] == plain[1:3]
    assert runs["csv-only"][2] == plain[2]
    assert runs["json-only"][1] == plain[1]


@pytest.mark.parametrize("flags", ["plain", "app-data"])
def test_one_frame_chunks(flags, in_root, monkeypatch, capfd):
    """Every frame its own chunk; with ``--app-data-only`` many chunks hold no row."""
    name = "head"
    reference = _run(in_root, monkeypatch, capfd, name, flags, WHOLE)
    rows = json.loads(reference[1])["body"]["packets"]
    assert 0 < len(rows) <= _frames(in_root, name)
    if flags == "app-data":
        assert len(rows) < _frames(in_root, name)
    assert _run(in_root, monkeypatch, capfd, name, flags, 1) == reference


@pytest.mark.parametrize("flags", sorted(set(FLAG_SETS) - {"keylog"}))
def test_capture_without_packets(flags, in_root, monkeypatch, capfd):
    reference = _run(in_root, monkeypatch, capfd, "empty", flags, WHOLE)
    assert reference[0] == 0
    if reference[1] is not None:
        text = reference[1].decode()
        assert json.loads(text)["body"]["packets"] == []
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    if reference[2] is not None:
        assert reference[2] == (",".join(FEATURE_COLUMNS) + "\r\n").encode()
    for chunk in (1, 7):
        assert _run(in_root, monkeypatch, capfd, "empty", flags, chunk) == reference


@pytest.mark.parametrize("chunk", (1, 2))
def test_open_files_do_not_grow_with_chunks(chunk, in_root, monkeypatch, capfd):
    """150 one-frame or 75 two-frame chunks under a soft limit of 64 open files."""
    reference = _run(in_root, monkeypatch, capfd, "head", "plain", WHOLE)
    script = (
        "import resource, sys; from appcap import cli; "
        "resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1])); "
        f"cli._CHUNK_FRAMES = {chunk}; sys.exit(cli.main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", script, "analyze", _paths("head")[0], "--json", "out.json", "--csv", "out.csv"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(argv, cwd=in_root, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    report = _GENERATED_AT.sub(b'  "generated_at": "",', (in_root / "out.json").read_bytes())
    assert (report, (in_root / "out.csv").read_bytes()) == reference[1:3]


@pytest.mark.parametrize("chunk", (1, 2))
@pytest.mark.parametrize(
    "command, spied",
    [("analyze", "protocol_distribution"), ("keycov", "key_coverage"), ("baseline", "temporal_histogram")],
)
def test_commands_hold_at_most_one_chunk_of_packets(command, spied, chunk, in_root, monkeypatch, capfd):
    """Once the capture is classified, at most one chunk of its packets is alive."""
    capture, keylog = _paths(FIXTURE_NAMES[1])
    assert _frames(in_root, FIXTURE_NAMES[1]) > 10 * chunk

    def alive() -> int:
        return sum(isinstance(obj, ClassifiedPacket) for obj in gc.get_objects())

    seen: list[int] = []
    real = getattr(cli, spied)

    def spy(*args, **kwargs):
        seen.append(alive())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, spied, spy)
    monkeypatch.setattr(cli, "_CHUNK_FRAMES", chunk)
    argv = {"analyze": [command, capture, "--csv", "held.csv"], "keycov": [command, capture, keylog],
            "baseline": [command, capture]}[command]
    before = alive()
    assert main([*argv, "--json", "held.json"]) == 0
    capfd.readouterr()
    assert len(seen) == 1
    assert seen[0] - before <= chunk


@pytest.mark.parametrize("chunk", (1, 2, 3))
def test_renderer_failure_exits_2_and_leaves_no_child(chunk, in_root, monkeypatch, capfd):
    """Every chunk but the first fails to render."""
    capture = _paths(FIXTURE_NAMES[1])[0]
    first_ts = decode_stream(read_capture((in_root / capture).read_bytes()))[0].ts_ns
    feature_rows = cli.feature_rows

    def failing(packets):
        if packets and packets[0].record.ts_ns > first_ts:
            raise RuntimeError("renderer broke")
        return feature_rows(packets)

    monkeypatch.setattr(cli, "feature_rows", failing)
    monkeypatch.setattr(cli, "_CHUNK_FRAMES", chunk)
    code = main(["analyze", capture, "--json", "fail.json", "--csv", "fail.csv"])
    assert_no_child_left()
    out, err = capfd.readouterr()
    assert code == 2
    assert err == "appcap: cannot render the packet table: renderer broke\n"
    assert out == ""
    assert not (in_root / "fail.json").exists()
    assert not (in_root / "fail.csv").exists()


@pytest.mark.parametrize("chunk", (1, 2, 3))
def test_unusable_temporary_directory_exits_2(chunk, in_root, monkeypatch, capfd):
    """Each output that needs a temporary file fails the same way, before any chunk."""
    monkeypatch.setattr(cli, "_CHUNK_FRAMES", chunk)
    for outputs in (["--csv", "tmp.csv"], ["--json", "tmp.json"], ["--json", "tmp.json", "--csv", "tmp.csv"]):
        with monkeypatch.context() as patch:  # capfd needs a temporary directory on teardown
            patch.setattr(tempfile, "tempdir", str(in_root / "no-such-directory"))
            code = main(["analyze", _paths(FIXTURE_NAMES[0])[0], *outputs])
        out, err = capfd.readouterr()
        assert code == 2, outputs
        assert err.startswith("appcap: ") and err.count("\n") == 1
        assert "no-such-directory" in err
        assert out == ""
        assert not (in_root / "tmp.json").exists() and not (in_root / "tmp.csv").exists()


@pytest.fixture(scope="module")
def broken_captures(corpus_root, tmp_path_factory):
    """A capture cut inside its last record, one of link type 228, and the
    message each gives."""
    root = tmp_path_factory.mktemp("broken")
    data = (corpus_root / _paths(FIXTURE_NAMES[1])[0]).read_bytes()
    frames = len(read_capture(data).offsets)
    (root / "cut.pcap").write_bytes(data[:-5])
    (root / "relinked.pcap").write_bytes(data[:20] + (228).to_bytes(4, "little") + data[24:])
    return {
        root / "cut.pcap": f"appcap: cannot parse capture: frame record truncated after {frames - 1} frames\n",
        root / "relinked.pcap": "appcap: cannot parse capture: unsupported link type 228\n",
    }


@pytest.mark.parametrize("chunk", (1, 2, 3))
def test_capture_errors_exit_3(chunk, broken_captures, in_root, monkeypatch, capfd):
    monkeypatch.setattr(cli, "_CHUNK_FRAMES", chunk)
    for capture, message in broken_captures.items():
        code = main(["analyze", str(capture), "--json", "broken.json", "--csv", "broken.csv"])
        assert (code, capfd.readouterr()) == (3, ("", message))


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_is_restored(enabled, in_root, capfd):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["analyze", _paths(FIXTURE_NAMES[0])[0], "--json", "gc.json"]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_analyze_leaves_no_cycles_beyond_its_parser(in_root, capfd):
    """A collection after ``analyze`` finds only the argument parser's cycles,
    however many packets the capture holds."""
    found = {}
    was = gc.isenabled()
    gc.disable()  # no automatic collection in between
    try:
        gc.collect()
        for name in FIXTURE_NAMES[:2]:
            argv = ["analyze", _paths(name)[0], "--keylog", _paths(name)[1], "--json", "gc.json", "--csv", "gc.csv"]
            cli.build_parser().parse_args(argv)
            parser_only = gc.collect()
            assert main(argv) == 0
            found[name] = (gc.collect(), parser_only)
    finally:
        if was:
            gc.enable()
    assert _frames(in_root, FIXTURE_NAMES[1]) > 1.5 * _frames(in_root, FIXTURE_NAMES[0])
    assert found[FIXTURE_NAMES[0]] == found[FIXTURE_NAMES[1]]
    assert found[FIXTURE_NAMES[0]][0] == found[FIXTURE_NAMES[0]][1]
