"""Regenerate the benchmark's fixture specs (the JSON files beside this one).

The specs are checked in and their synthesized outputs are pinned in
``bench/golden.json``; run this only to change a workload on purpose:

    python3 bench/specs/gen_specs.py

``bench/test_bench.py`` checks that the checked-in files are what this
script writes.

The flow layouts are fixed here, not drawn at benchmark time: the benchmark's
``--seed`` only reseeds ``appcap synth``, which changes payload bytes and
sizes but never packet counts, timestamps or protocols.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_SEED = 1


def _flow(profile: str, n: int, start: float, end: float) -> dict:
    """``n`` app-data packets spread evenly from ``start`` to about ``end`` s."""
    return {
        "protocol_profile": profile,
        "app_data_packets": n,
        "start_offset_s": start,
        "rate_pps": round((n + 2) / (end - start), 3),
    }


def analyze_large() -> dict:
    """One 300 s capture with 21 long flows (57,634 packets)."""
    layout = (
        [("Tls13", 4500)] * 8
        + [("Tls12", 2500)] * 4
        + [("QuicV1", 2000)] * 4
        + [("Do53", 1800), ("DoT", 1000), ("ConnectivityHttp", 200), ("UnknownSsl", 500), ("Ssl2", 100)]
    )
    flows = [_flow(p, n, 0.5 * i, 295.0) for i, (p, n) in enumerate(layout)]
    return {
        "seed": SPEC_SEED,
        "apps": [{"app_name": "com.bench.large", "captures": [{"duration_s": 300, "flows": flows}]}],
    }


def stats_small_udp() -> dict:
    """50 apps x 6 captures of 120 s, about 316 mostly-UDP packets each."""
    capture = {
        "duration_s": 120,
        "flows": [
            _flow("Do53", 80, 0.5, 110.0),
            _flow("QuicV1", 150, 2.0, 112.0),
            _flow("QuicV1", 60, 30.0, 100.0),
            _flow("DoT", 20, 10.0, 115.0),
        ],
    }
    apps = [{"app_name": f"com.bench.udp{i:02d}", "captures": [capture] * 6} for i in range(50)]
    return {"seed": SPEC_SEED, "apps": apps}


def _dump(spec: dict) -> str:
    """One flow per line: readable diffs without a multi-megabyte file."""
    lines = ["{", f'  "seed": {spec["seed"]},', '  "apps": [']
    for ai, app in enumerate(spec["apps"]):
        lines.append(f'    {{"app_name": {json.dumps(app["app_name"])}, "captures": [')
        for ci, cap in enumerate(app["captures"]):
            lines.append(f'      {{"duration_s": {cap["duration_s"]}, "flows": [')
            flows = [f"        {json.dumps(f)}" for f in cap["flows"]]
            lines.append(",\n".join(flows))
            lines.append("      ]}" + ("," if ci < len(app["captures"]) - 1 else ""))
        lines.append("    ]}" + ("," if ai < len(spec["apps"]) - 1 else ""))
    lines += ["  ]", "}", ""]
    return "\n".join(lines)


SPECS = {
    "analyze_large.json": analyze_large,
    "stats_small_udp.json": stats_small_udp,
}


def main() -> None:
    for name, build in SPECS.items():
        text = _dump(build())
        json.loads(text)
        (HERE / name).write_text(text)


if __name__ == "__main__":
    main()
