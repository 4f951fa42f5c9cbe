"""Byte identity of the report writers with the standard library's output.

``write_envelope`` must write exactly ``json.dumps(envelope, indent=2,
sort_keys=True) + "\\n"``, with a ``PacketTable`` written as the rows it
holds, and ``write_table_csv`` exactly what ``csv.DictWriter`` writes, for
every tree and row the CLI can produce. Every CSV is UTF-8 whatever the
locale, with a file name's own bytes.
"""

import csv
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import classify_capture, eth, ip4, mk_record, pcap_file, tcp

from appcap.cli import main
from appcap.ingest import Transport
from appcap.reports import (
    FEATURE_COLUMNS,
    PacketTable,
    describe_packet,
    write_envelope,
    write_feature_csv,
    write_feature_json,
    write_table_csv,
)
from appcap.synth import build_dns_query, build_dns_response

FIXTURES = Path(__file__).parent.parent / "fixtures"

MANY = settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

EDGE_FLOATS = [-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf, 0.1]
EDGE_STRINGS = ["", "é", "日本語", "\x00\x01\x1f\x7f", 'quote " and \\ slash', "line\nbreak\ttab", "\ud800", "😀"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.text()
    | st.sampled_from(EDGE_STRINGS)
)
keys = st.text(max_size=8) | st.sampled_from(EDGE_STRINGS)
json_trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(keys, children, max_size=6)
    ),
    max_leaves=40,
)


def expected_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def assert_same_text(got: str, want: str, label: str = "") -> None:
    """Name the first differing offset instead of diffing whole reports."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"{label} differs at offset {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")


def written_text(value) -> str:
    stream = io.StringIO()
    write_envelope(value, None, stream)
    return stream.getvalue()


@MANY
@given(json_trees)
def test_envelope_text_equals_json_dumps(tree):
    assert_same_text(written_text(tree), expected_text(tree))


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ((), [[]], [{}])},
        {"rows": [{"x": 1, "y": "z"}, {}, {"n": None}], "flat": [1, 2.5, "s", True]},
        {"deep": [[[{"k": [1, {"j": 2}]}]]]},
        {"int_keys": {3: "c", 1: "a"}},
        {"mixed": [1, {2: [3]}, "x"]},
    ],
)
def test_envelope_edge_containers(value):
    assert_same_text(written_text(value), expected_text(value))


class _Color(str, enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


def test_subclasses_of_json_types_take_the_general_path():
    value = {"color": _Color.RED, "level": _Level.HIGH, "nested": {"c": [_Color.RED]}}
    assert_same_text(written_text(value), expected_text(value))


def test_envelope_written_to_path(tmp_path):
    value = {"b": [1, {"c": "é"}], "a": math.nan}
    path = tmp_path / "report.json"
    write_envelope(value, path, None)
    assert_same_text(path.read_text(), expected_text(value))


def test_unencodable_value_raises_like_json_dumps():
    with pytest.raises(TypeError):
        written_text({"a": [object()]})


row_text = st.text() | st.sampled_from(EDGE_STRINGS)
row_int = st.integers(min_value=0, max_value=2**16) | st.integers(min_value=-(2**200), max_value=2**200)
feature_row = st.tuples(
    row_int, row_text, row_int, row_text, row_int, row_text, row_text, row_text, st.booleans(), row_int
)


def nest(table, path):
    """Put ``table`` inside the containers that ``path`` names, innermost last."""
    for kind in reversed(path):
        table = {"a": 1, "packets": table, "z": [None]} if kind == "dict" else [table, {}]
    return table


def json_table(chunks) -> PacketTable:
    """A table whose JSON file holds ``chunks``' rows, appended one chunk at a time."""
    fh = io.BytesIO()
    for rows in chunks:
        write_feature_json(rows, fh)
    return PacketTable(fh)


# ``analyze`` puts its table two levels deep, as ``body.packets``.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.lists(feature_row, max_size=3), max_size=4),
    st.lists(st.sampled_from(["dict", "list"]), min_size=2, max_size=2),
)
def test_feature_table_equals_json_dumps_of_row_dicts(chunks, path):
    as_dicts = [dict(zip(FEATURE_COLUMNS, row)) for rows in chunks for row in rows]
    assert_same_text(written_text(nest(json_table(chunks), path)), expected_text(nest(as_dicts, path)))


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_feature_table_renders_only_as_body_packets(depth):
    with pytest.raises(ValueError):
        written_text(nest(json_table([[(1, "a", 2, "b", 3, "TCP", "TLS", "", True, 60)]]), ["dict"] * depth))


def dict_writer_text(rows) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=FEATURE_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def test_feature_csv_equals_dict_writer(tmp_path):
    rows = [
        dict.fromkeys(FEATURE_COLUMNS, ""),
        {
            "ts_ns": 1,
            "src_ip": "2001:db8::1",
            "src_port": 443,
            "dst_ip": "10.0.0.1",
            "dst_port": 40000,
            "transport": "TCP",
            "protocol": "TLSv1.3",
            "info": 'ClientHello,"quoted", comma\r\nnewline',
            "app_data": True,
            "packet_len": 1514,
        },
        {**dict.fromkeys(FEATURE_COLUMNS, None), "app_data": False, "info": "é"},
    ]
    path = tmp_path / "rows.csv"
    with tempfile.TemporaryFile() as table_file:
        for chunk in [[], rows[:1], [], rows[1:]]:
            write_feature_csv([tuple(r[column] for column in FEATURE_COLUMNS) for r in chunk], table_file)
        write_table_csv(PacketTable(csv_file=table_file), path)
    with path.open(newline="", encoding="utf-8") as fh:
        assert_same_text(fh.read(), dict_writer_text(rows))


@pytest.mark.parametrize("odd", [None, ",", '"', "\r", "\n", "None", " x ", ""])
@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(feature_row, max_size=4), max_size=4), st.integers(min_value=0, max_value=9))
def test_feature_csv_equals_csv_writer(odd, chunks, column):
    """Chunks of rows, the first row's field at ``column`` set to ``odd``."""
    if any(chunks):
        rows = next(rows for rows in chunks if rows)
        rows[0] = rows[0][:column] + (odd,) + rows[0][column + 1:]
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(row for rows in chunks for row in rows)
    fh = io.BytesIO()
    try:
        expected_bytes = expected.getvalue().encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # a surrogate that is no escaped byte
        with pytest.raises(UnicodeEncodeError):
            for rows in chunks:
                write_feature_csv(rows, fh)
        return
    for rows in chunks:
        write_feature_csv(rows, fh)
    assert fh.getvalue() == expected_bytes


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    dirs = {}
    for name in ("background", "dns_evolution_a", "dns_evolution_b"):
        assert main(["synth", str(FIXTURES / f"{name}.json"), str(out / name)]) == 0
        dirs[name] = out / name
    return dirs


def fixture_commands(dirs):
    for name, directory in dirs.items():
        capture = sorted(directory.glob("*.pcap"))[0]
        keylog = directory / f"sslkeylog_{capture.stem}.txt"
        yield f"{name}-analyze", ["analyze", str(capture), "--keylog", str(keylog)], True
        yield f"{name}-keycov", ["keycov", str(capture), str(keylog)], False
        yield f"{name}-baseline", ["baseline", str(capture)], False
        yield f"{name}-scan", ["dataset", "scan", str(directory)], False
        yield f"{name}-stats", ["dataset", "stats", str(directory), "--truncate-min", "1"], True
    yield "compare", ["compare", str(dirs["dns_evolution_a"]), str(dirs["dns_evolution_b"])], True


def test_every_command_writes_canonical_json(fixture_dirs, tmp_path):
    commands = list(fixture_commands(fixture_dirs))
    assert len(commands) == 16
    for name, argv, has_csv in commands:
        out = tmp_path / f"{name}.json"
        extra = ["--csv", str(tmp_path / f"{name}.csv")] if has_csv else []
        assert main(argv + ["--json", str(out)] + extra) == 0, name
        text = out.read_text()
        assert_same_text(text, expected_text(json.loads(text)), name)


def test_analyze_csv_equals_dict_writer_on_fixture(fixture_dirs, tmp_path):
    capture = sorted(fixture_dirs["background"].glob("*.pcap"))[0]
    out_json, out_csv = tmp_path / "a.json", tmp_path / "a.csv"
    assert main(["analyze", str(capture), "--json", str(out_json), "--csv", str(out_csv)]) == 0
    rows = json.loads(out_json.read_text())["body"]["packets"]
    assert rows
    with out_csv.open(newline="", encoding="utf-8") as fh:
        assert_same_text(fh.read(), dict_writer_text(rows))


LOCALES = {
    "utf8": {"LC_ALL": "C.UTF-8"},
    "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
}
# One HTTP request whose line is not ASCII: ``info`` holds two U+FFFD.
NON_ASCII_GET = b"GET /caf\xc3\xa9 HTTP/1.1\r\nHost: example.com\r\n\r\n"
CAPTURE = pcap_file([(1, 0, eth(ip4(tcp(NON_ASCII_GET, dport=80), proto=6)))])
LATIN1_NAME = b"com.caf\xe9_20250101T000000Z_60.pcap"
UTF8_NAME = "com.café_20250101T000000Z_60.pcap".encode()


def run_in_locale(argv, cwd: Path, locale: str, **env: str) -> bytes:
    """Run the CLI in a fresh interpreter under ``locale`` and ``env``: exit 0,
    nothing on stderr. Returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **LOCALES[locale], **env}
    done = subprocess.run([sys.executable, "-m", "appcap.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b""), (locale, argv, env)
    return done.stdout


@pytest.mark.parametrize(
    "name, argv, line",
    [
        ("capture.pcap", ["analyze", "a/capture.pcap"],
         b"1000000000,10.0.2.16,40000,8.8.8.8,80,TCP,HTTP,GET /caf\xef\xbf\xbd\xef\xbf\xbd HTTP/1.1,True,"),
        (LATIN1_NAME, ["dataset", "stats", "a"], b"com.caf\xe9,1,1.000\r\n"),
        (LATIN1_NAME, ["compare", "a", "b"], b"com.caf\xe9,1.000,1.000,1.0000\r\n"),
        (UTF8_NAME, ["dataset", "stats", "a"], b"com.caf\xc3\xa9,1,1.000\r\n"),
        (UTF8_NAME, ["compare", "a", "b"], b"com.caf\xc3\xa9,1.000,1.000,1.0000\r\n"),
    ],
    ids=["analyze-http", "stats-latin1", "compare-latin1", "stats-utf8", "compare-utf8"],
)
def test_csv_bytes_do_not_depend_on_the_locale(tmp_path, name, argv, line):
    # The names are made as bytes, so this test runs under any locale.
    for directory in (b"a", b"b"):
        os.mkdir(os.path.join(os.fsencode(tmp_path), directory))
        with open(os.path.join(os.fsencode(tmp_path), directory, os.fsencode(name)), "wb") as fh:
            fh.write(CAPTURE)
    outputs = {}
    for locale in LOCALES:
        run_in_locale([*argv, "--csv", f"{locale}.csv"], tmp_path, locale)
        outputs[locale] = (tmp_path / f"{locale}.csv").read_bytes()
    assert outputs["utf8"] == outputs["ascii"]
    assert line in outputs["utf8"]


def write_capture(tmp_path: Path, name: bytes) -> None:
    os.mkdir(tmp_path / "a")
    with open(os.path.join(os.fsencode(tmp_path), b"a", name), "wb") as fh:
        fh.write(CAPTURE)


def test_latin1_name_in_stats_json(tmp_path):
    write_capture(tmp_path, LATIN1_NAME)
    for locale in LOCALES:
        run_in_locale(["dataset", "stats", "a", "--json", f"{locale}.json"], tmp_path, locale)
        assert json.loads((tmp_path / f"{locale}.json").read_text())["body"]["ppm"][0]["captures_used"] == 1
        # The text summary writes the name's own bytes, whatever stdout's encoding.
        for encoding in ("utf-8", "ascii"):
            out = run_in_locale(["dataset", "stats", "a"], tmp_path, locale, PYTHONIOENCODING=encoding)
            assert out.startswith(b"com.caf\xe9 "), (locale, encoding)


@pytest.mark.parametrize("command", ["scan", "stats"])
def test_utf8_name_gives_one_report_in_every_locale(tmp_path, command):
    """The manifest, the app names and the inputs' paths are the file name's
    own bytes read as UTF-8, not as the locale reads them; so is the order
    of unparseable names, one of them not UTF-8."""
    write_capture(tmp_path, UTF8_NAME)
    for name in ("\U0001F600.pcap".encode(), b"\xf5.pcap"):
        open(os.path.join(os.fsencode(tmp_path), b"a", name), "wb").close()
    reports = {}
    for locale in LOCALES:
        out = run_in_locale(["dataset", command, "a", "--json", "-"], tmp_path, locale)
        reports[locale] = re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": ""', out)
    assert reports["utf8"] == reports["ascii"]
    report = json.loads(reports["utf8"])
    assert report["body"]["manifest"]["entries"][0]["app_name"] == "com.café"
    assert report["body"]["manifest"]["unparseable"] == ["a/\udcf5.pcap", "a/\U0001F600.pcap"]
    assert [entry["path"] for entry in report["inputs"]] == (["a/" + UTF8_NAME.decode()] if command == "stats" else [])


def test_dns_info_reads_the_classifier_message():
    def tcp_dns(message: bytes) -> bytes:
        return len(message).to_bytes(2, "big") + message

    udp = {"transport": Transport.UDP, "dst_ip": "8.8.8.8", "dst_port": 53}
    udp_back = {"transport": Transport.UDP, "src_ip": "8.8.8.8", "src_port": 53,
                "dst_ip": "10.0.2.16", "dst_port": 40000}
    tcp = {"dst_ip": "8.8.4.4", "dst_port": 53}
    tcp_back = {"src_ip": "8.8.4.4", "src_port": 53, "dst_ip": "10.0.2.16", "dst_port": 40000}
    records = [
        mk_record(ts_ns=0, payload=build_dns_query(1, "a.example"), **udp),
        mk_record(ts_ns=1, payload=build_dns_response(1, "a.example"), **udp_back),
        mk_record(ts_ns=2, payload=b"", **udp),
        mk_record(ts_ns=3, payload=tcp_dns(build_dns_query(2, "b.example")), **tcp),
        mk_record(ts_ns=4, payload=tcp_dns(build_dns_response(2, "b.example")), **tcp_back),
    ]
    assert [describe_packet(cp) for cp in classify_capture(records)] == [
        "Query a.example",
        "Response a.example",
        "Query",
        "Query b.example",
        "Response b.example",
    ]
