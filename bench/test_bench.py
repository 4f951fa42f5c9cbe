"""Self-tests for the benchmark's own code (not for appcap).

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent / "specs"))
import gen_specs  # noqa: E402
import run as bench  # noqa: E402

TINY_SPEC = {
    "seed": 3,
    "apps": [
        {
            "app_name": "com.tiny",
            "captures": [
                {
                    "duration_s": 60,
                    "flows": [
                        {"protocol_profile": "Tls13", "app_data_packets": 6, "rate_pps": 2},
                        {"protocol_profile": "Do53", "app_data_packets": 4, "rate_pps": 1},
                        {"protocol_profile": "QuicV1", "app_data_packets": 3, "rate_pps": 1},
                    ],
                }
            ],
        }
    ],
}
TINY_FRAMES = (6 + 2) + 4 + (3 + 2)


@pytest.fixture
def tiny(tmp_path):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY_SPEC))
    return bench.Workload("tiny", {"": str(spec)}), tmp_path


def test_metric_names_and_units_are_valid():
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert all(bench.METRIC_NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in declared["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(bench.PER_LAYER)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        expected = {**bench.END_TO_END, **bench.PER_LAYER}[metric["name"]]
        assert metric["unit"] == expected
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)


def test_checked_in_specs_match_their_generator():
    assert sorted(gen_specs.SPECS) == sorted(p.name for p in bench.SPECS.glob("*.json"))
    for name, build in gen_specs.SPECS.items():
        assert (bench.SPECS / name).read_text() == gen_specs._dump(build()), name


def test_normalize_drops_timestamp_and_relativizes_corpus_paths():
    root = "/data/corpus"
    report = {
        "generated_at": "2026-01-01T00:00:00+00:00",
        "inputs": [{"path": "/data/corpus/a/x.pcap", "sha256": "ab"}],
        "body": {
            "manifest": {"entries": [{"capture": "/data/corpus/x.pcap", "keylog": None}]},
            "other": ["/data/corpus2/y.pcap", "/data/corpus", "TLSv1.3"],
        },
    }
    assert bench.normalize(report, root + "/") == {
        "inputs": [{"path": "a/x.pcap", "sha256": "ab"}],
        "body": {
            "manifest": {"entries": [{"capture": "x.pcap", "keylog": None}]},
            "other": ["/data/corpus2/y.pcap", "/data/corpus", "TLSv1.3"],
        },
    }


def test_tiny_synthesis_is_deterministic_and_pinned(tiny):
    workload, tmp = tiny
    log = tmp / "child.log"
    bench.synthesize(workload, 9, tmp / "one", log)
    bench.synthesize(workload, 9, tmp / "two", log)
    first = bench.inventory(tmp / "one")
    assert first == bench.inventory(tmp / "two")
    assert first[1] == TINY_FRAMES
    bench.check_inventory(*first, {"frames": TINY_FRAMES, "inputs": first[0]}, first)

    name = next(n for n in first[0] if n.endswith(".pcap"))
    tampered = dict(first[0], **{name: "0" * 64})
    with pytest.raises(bench.SetupError, match=name):
        bench.check_inventory(tampered, first[1], {"frames": TINY_FRAMES, "inputs": first[0]}, None)
    with pytest.raises(bench.SetupError, match="frames"):
        bench.check_inventory(first[0], first[1] + 1, {"frames": TINY_FRAMES}, None)


def test_layer_metrics_subtract_children_and_name_absent_boundaries():
    boundaries = {b for needed in bench.NEEDS.values() for b in needed}
    trace = {
        "wrapped": sorted(boundaries - {"decode_stream"}),
        "absent_counters": [],
        "counters": {"ingest.frames": 2, "analytics.packets_in": 4},
        "spans": [
            {"id": 0, "parent": None, "layer": "analytics", "name": "compare_datasets", "busy_ns": 600},
            {"id": 1, "parent": 0, "layer": "dataset", "name": "truncate_packets", "busy_ns": 200},
            {"id": 2, "parent": None, "layer": "ingest", "name": "read_capture", "busy_ns": 300},
        ],
    }
    untraced = [bench.Sample(0.1e-6, 1.0, 0.5, 0), bench.Sample(0.3e-6, 1.0, 0.7, 0)]
    traced = bench.Sample(1e-6, 1.0, 1.0, 0)  # whole traced wall: 1,000 ns
    values, absent = bench.layer_metrics(trace, untraced, traced)
    assert values["analytics.s"] == pytest.approx(400e-9)
    assert values["dataset.truncate_s"] == pytest.approx(200e-9)
    assert values["analytics.us_per_packet"] == pytest.approx(0.1)
    assert values["ingest.read_us_per_frame"] == pytest.approx(0.15)
    assert values["cli.self_s"] == pytest.approx(100e-9)
    assert values["trace.coverage"] == pytest.approx(0.9)
    assert values["trace.overhead_s"] == pytest.approx(0.8e-6)
    assert values["cli.cpu_s"] == pytest.approx(0.6)
    assert set(values) == set(bench.PER_LAYER)
    assert absent == ["ingest.decode_us_per_frame", "ingest.records"]


def test_tracer_covers_an_analyze_run(tiny):
    workload, tmp = tiny
    corpus, out = tmp / "corpus", tmp / "out"
    out.mkdir()
    bench.synthesize(workload, 1, corpus, tmp / "child.log")
    capture = next(corpus.glob("*.pcap"))
    spans = out / "spans.json"
    argv = [str(capture), "--json", str(out / "r.json"), "--csv", str(out / "r.csv")]
    subprocess.run(
        [sys.executable, str(bench.BENCH / "tracer.py"), str(spans), "--", "analyze", *argv],
        env=bench.child_env(),
        check=True,
        timeout=60,
    )
    trace = json.loads(spans.read_text())
    assert trace["exit_code"] == 0 and trace["absent_counters"] == []
    assert set(trace["wrapped"]) >= {b for needed in bench.NEEDS.values() for b in needed}
    assert trace["counters"]["ingest.frames"] == TINY_FRAMES
    assert trace["counters"]["classify.calls"] == TINY_FRAMES
    assert {s["layer"] for s in trace["spans"]} >= {"ingest", "classify", "analytics", "reports"}
