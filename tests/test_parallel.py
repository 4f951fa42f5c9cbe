"""Dataset commands fold captures in a process pool; reports equal a serial run's.

``dataset stats`` and ``compare`` use one worker per usable CPU, up to one
per capture. These tests set the usable-CPU count to 1, 2 and 3 and require
the same report bytes (apart from ``generated_at``) and CSV bytes each time,
the same exit code and message when a capture in the middle of a dataset
cannot be parsed, and no pool at all where one worker is enough. ``compare``
folds only what its report reads: nothing when the datasets share no app,
and under ``--common-only`` no capture of another app past its first frame.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from test_report_goldens import FIXTURES, _GENERATED_AT

from appcap import cli, dataset
from appcap.classify import FlowTable
from appcap.cli import main
from appcap.dataset import render_capture_filename, scan_directory
from appcap.ingest import read_capture

CPU_COUNTS = (1, 2, 3)

# Captures from 1,200 down to 3 packets, the largest first in manifest
# order, so workers finish out of order.
VARIED_SPEC = {
    "apps": [
        {
            "app_name": f"com.varied.app{i}",
            "captures": [
                {
                    "duration_s": 150,
                    "flows": [
                        {"protocol_profile": "QuicV1", "app_data_packets": packets, "rate_pps": 12},
                        {"protocol_profile": "Do53", "app_data_packets": max(1, packets // 10), "rate_pps": 2},
                        {"protocol_profile": "Tls13", "app_data_packets": packets // 4, "start_offset_s": 20},
                    ],
                }
                for packets in sizes
            ],
        }
        for i, sizes in enumerate([(1200, 900), (700, 3, 400), (3, 250, 60), (120, 3), (40, 3, 20)])
    ]
}

COMMANDS = {
    "stats": ["dataset", "stats", "{a}"],
    "stats-trunc-app": ["dataset", "stats", "{a}", "--truncate-min", "1.5", "--app-data-only"],
    "compare": ["compare", "{a}", "{b}"],
    "compare-common": ["compare", "{a}", "{b}", "--common-only"],
}
CORPORA = {
    "fixtures": ("dns_evolution_a", "dns_evolution_b"),
    "varied": ("varied_a", "varied_b"),
    "mixed": ("mixed_a", "mixed_b"),
}
# The varied corpora with some apps renamed, so that each dataset of the
# mixed pair holds apps the other lacks; the common pair holds only the
# captures of apps in both.
MIXED = {
    "mixed_a": ("varied_a", {"com.varied.app3": "org.only_a.app3", "com.varied.app4": "org.only_a.app4"}),
    "mixed_b": ("varied_b", {"com.varied.app0": "org.only_b.app0"}),
}
COMMON_APPS = {"com.varied.app1", "com.varied.app2"}


def _synth(spec_path: Path, out: Path, *extra: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(spec_path), str(out), *extra]) == 0


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel")
    for name in CORPORA["fixtures"]:
        _synth(FIXTURES / f"{name}.json", root / name)
    spec = root / "varied.json"
    spec.write_text(json.dumps(VARIED_SPEC))
    _synth(spec, root / "varied_a", "--seed", "5")
    _synth(spec, root / "varied_b", "--seed", "6")
    for name, (source, renames) in MIXED.items():
        for mixed, apps in ((name, None), (name.replace("mixed", "common"), COMMON_APPS)):
            _copy_captures(root / source, root / mixed, renames, apps)
    return root


def _copy_captures(source: Path, target: Path, renames: dict[str, str], apps: set[str] | None) -> None:
    """Copy the captures of ``source``, of ``apps`` only if given, under
    their app names as ``renames`` maps them."""
    target.mkdir()
    for entry in scan_directory(source).entries:
        app = entry.label.app_name
        if apps is None or app in apps:
            label = dataclasses.replace(entry.label, app_name=renames.get(app, app))
            shutil.copyfile(entry.capture_path, target / render_capture_filename(label))


@pytest.fixture
def in_root(corpus_root, monkeypatch):
    monkeypatch.chdir(corpus_root)
    monkeypatch.delenv("APPCAP_OUTPUT_DIR", raising=False)
    return corpus_root


def _set_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(dataset, "usable_cpus", lambda: count)


def _pool_sizes(monkeypatch) -> list[int]:
    """Record the worker count of every pool the CLI makes."""
    sizes: list[int] = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


def _forbid_pool(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was made")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


def _outputs(root: Path, argv: list[str]) -> tuple[bytes, bytes]:
    code = main(argv + ["--json", "out.json", "--csv", "out.csv"])
    assert code == 0
    body = _GENERATED_AT.sub(b'  "generated_at": "",', (root / "out.json").read_bytes())
    return body, (root / "out.csv").read_bytes()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_reports_equal_the_serial_run(corpus, command, in_root, monkeypatch):
    a, b = CORPORA[corpus]
    argv = [arg.format(a=a, b=b) for arg in COMMANDS[command]]
    sizes = _pool_sizes(monkeypatch)
    outputs = {}
    for count in CPU_COUNTS:
        _set_cpus(monkeypatch, count)
        outputs[count] = _outputs(in_root, argv)
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    captures = sum(len(scan_directory(in_root / arg).entries) for arg in (a, b) if arg in argv)
    assert sizes == [min(n, captures) for n in CPU_COUNTS if min(n, captures) > 1]


def test_one_capture_makes_no_pool(in_root, monkeypatch):
    _forbid_pool(monkeypatch)
    _set_cpus(monkeypatch, 3)
    assert len(scan_directory(in_root / "dns_evolution_a").entries) == 1
    _outputs(in_root, ["dataset", "stats", "dns_evolution_a"])


def test_one_cpu_makes_no_pool(in_root, monkeypatch):
    _forbid_pool(monkeypatch)
    _set_cpus(monkeypatch, 1)
    _outputs(in_root, ["compare", "varied_a", "varied_b"])
    _outputs(in_root, ["dataset", "stats", "varied_a"])


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    assert dataset.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert dataset.usable_cpus() == 1


def test_pool_parent_does_not_load_openssl(corpus_root):
    """Only processes that hash capture bytes import hashlib (and OpenSSL)."""
    script = (
        "import sys; from appcap import cli, dataset; dataset.usable_cpus = lambda: 2; "
        f"assert cli.main(['dataset', 'stats', {str(corpus_root / 'varied_a')!r}]) == 0; "
        "assert 'hashlib' not in sys.modules, 'hashlib imported'"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def broken_dir(tmp_path_factory):
    """24 captures, the 7th ending in a cut record and the 15th of link type
    228, and the message a serial run gives for the 7th."""
    spec = {
        "apps": [
            {
                "app_name": f"com.broken.app{i}",
                "captures": [{"duration_s": 30, "flows": [{"protocol_profile": "QuicV1", "app_data_packets": 40}]}] * 4,
            }
            for i in range(6)
        ]
    }
    root = tmp_path_factory.mktemp("broken")
    (root / "spec.json").write_text(json.dumps(spec))
    _synth(root / "spec.json", root / "data")
    entries = scan_directory(root / "data").entries
    assert len(entries) == 24
    cut = entries[6].capture_path
    data = cut.read_bytes()
    cut.write_bytes(data[:-5])
    frames = len(read_capture(data).offsets)
    relinked = entries[14].capture_path
    data = relinked.read_bytes()
    relinked.write_bytes(data[:20] + struct.pack("<I", 228) + data[24:])
    return root / "data", f"appcap: cannot parse capture: frame record truncated after {frames - 1} frames\n"


@pytest.fixture(scope="module")
def partner_dir(broken_dir, tmp_path_factory):
    """A copy of the broken dataset's first capture, which is whole: its app
    is the only one it shares with the broken dataset."""
    root = tmp_path_factory.mktemp("partner")
    first = scan_directory(broken_dir[0]).entries[0].capture_path
    shutil.copyfile(first, root / first.name)
    return root


@pytest.mark.parametrize("command", ["stats", "compare", "compare-common"])
def test_broken_capture_fails_as_in_a_serial_run(command, broken_dir, partner_dir, monkeypatch, capfd):
    broken_dir, message = broken_dir
    # Both broken captures are of apps the partner lacks, so --common-only
    # reads them without classifying them.
    argv = {
        "stats": ["dataset", "stats", str(broken_dir)],
        "compare": ["compare", str(partner_dir), str(broken_dir)],
        "compare-common": ["compare", str(partner_dir), str(broken_dir), "--common-only"],
    }[command]
    results = {}
    for count in CPU_COUNTS:
        _set_cpus(monkeypatch, count)
        code = main(argv)
        results[count] = (code, capfd.readouterr())
    assert results[1][0] == 3
    assert results[1][1].err == message
    assert results[1][1].out == ""
    assert results[2] == results[1]
    assert results[3] == results[1]


def test_common_only_checks_the_link_type_of_other_apps(broken_dir, partner_dir, tmp_path, monkeypatch, capfd):
    """Without the cut capture, the first broken one in manifest order has
    link type 228, and its app is not common: --common-only decodes its
    first frame, which refuses the link type."""
    entries = scan_directory(broken_dir[0]).entries
    relinked = tmp_path / "relinked"
    relinked.mkdir()
    for entry in entries[:6] + entries[7:]:
        shutil.copyfile(entry.capture_path, relinked / entry.capture_path.name)
    for count in CPU_COUNTS:
        _set_cpus(monkeypatch, count)
        assert main(["compare", str(partner_dir), str(relinked), "--common-only"]) == 3
        assert capfd.readouterr().err == "appcap: cannot parse capture: unsupported link type 228\n"


def test_no_common_app_exits_before_any_capture_is_read(broken_dir, corpus_root, monkeypatch, capfd):
    """The app names come from the file names, so datasets that share none
    are refused before any capture is read, even a broken one."""
    _forbid_pool(monkeypatch)

    def refuse(*args):
        raise AssertionError("a file was read")

    monkeypatch.setattr(cli, "_read_file", refuse)
    for count in CPU_COUNTS:
        _set_cpus(monkeypatch, count)
        assert main(["compare", str(corpus_root / "varied_a"), str(broken_dir[0])]) == 3
        assert capfd.readouterr() == ("", "appcap: datasets share no app names\n")


def test_common_only_classifies_only_common_captures(in_root, monkeypatch):
    """--common-only reports what it reports with only the common apps'
    captures on disk, and classifies as many packets to do so."""
    _set_cpus(monkeypatch, 1)  # classify runs in this process
    calls = collections.Counter()
    classify = FlowTable.classify

    def counting(table, record):
        calls[side] += 1
        return classify(table, record)

    monkeypatch.setattr(FlowTable, "classify", counting)
    outputs = {}
    for side in ("mixed", "common"):
        outputs[side] = _outputs(in_root, ["compare", f"{side}_a", f"{side}_b", "--common-only"])
    assert calls["mixed"] == calls["common"] > 0
    (mixed_json, mixed_csv), (common_json, common_csv) = outputs["mixed"], outputs["common"]
    assert mixed_csv == common_csv
    mixed, common = json.loads(mixed_json), json.loads(common_json)
    assert len(mixed["inputs"]) > len(common["inputs"])
    assert mixed["body"] == common["body"]
