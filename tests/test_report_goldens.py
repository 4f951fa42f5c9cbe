"""Report bodies and CSVs pinned by digest over a command matrix.

Each command of the matrix runs on the corpora that ``appcap synth`` makes
from the three specs in ``fixtures/``. The JSON report is hashed with its
``generated_at`` value blanked, and the CSV as written. Paths in the
reports are relative to the corpus root, so the digests do not depend on
where the test runs.

After a deliberate change to the output, print the new table with

    PYTHONPATH=src python3 tests/test_report_goldens.py

and say in the change log which fields changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from appcap.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("background", "dns_evolution_a", "dns_evolution_b")
_GENERATED_AT = re.compile(rb'^  "generated_at": "[^"]*",$', re.MULTILINE)


def matrix() -> dict[str, tuple[list[str], bool]]:
    """Command name to (argv relative to the corpus root, writes a CSV)."""
    commands = {}
    for name in FIXTURE_NAMES:
        capture = f"{name}/{_capture_stem(name)}.pcap"
        keylog = f"{name}/sslkeylog_{_capture_stem(name)}.txt"
        commands[f"{name}:analyze"] = (["analyze", capture], True)
        commands[f"{name}:analyze-app-bins5"] = (["analyze", capture, "--app-data-only", "--bins", "5"], True)
        commands[f"{name}:analyze-keylog"] = (["analyze", capture, "--keylog", keylog], True)
        commands[f"{name}:baseline"] = (["baseline", capture], False)
        commands[f"{name}:keycov"] = (["keycov", capture, keylog], False)
        commands[f"{name}:stats"] = (["dataset", "stats", name], True)
        commands[f"{name}:stats-trunc-app"] = (
            ["dataset", "stats", name, "--truncate-min", "1.5", "--app-data-only"],
            True,
        )
    pair = ["compare", "dns_evolution_a", "dns_evolution_b"]
    commands["compare"] = (pair, True)
    commands["compare-common"] = (pair + ["--common-only"], True)
    return commands


def _capture_stem(name: str) -> str:
    app = "background" if name == "background" else "com.app"
    return f"{app}_20250101T000000Z_300"


def synthesize(root: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for name in FIXTURE_NAMES:
            assert main(["synth", str(FIXTURES / f"{name}.json"), str(root / name)]) == 0


def digests(root: Path, command: str, argv: list[str], has_csv: bool) -> dict[str, str]:
    """Run one command from ``root`` and hash what it wrote."""
    out = Path("out") / command.replace(":", "-")
    extra = ["--csv", f"{out}.csv"] if has_csv else []
    code = main(argv + ["--json", f"{out}.json"] + extra)
    assert code == 0, f"{command} exited {code}"
    body = _GENERATED_AT.sub(b'  "generated_at": "",', (root / f"{out}.json").read_bytes())
    found = {"json": hashlib.sha256(body).hexdigest()}
    if has_csv:
        found["csv"] = hashlib.sha256((root / f"{out}.csv").read_bytes()).hexdigest()
    return found


# Taken from the program before the feature table was read from the
# classifier's parse; every entry still holds.
GOLDEN = {
    "background:analyze": {"json": "7a68aa41a900b7a9e6290e380267524e6655ed9531a9c22b6583994cd6a40dc1", "csv": "5783138131cec4b850ead84be24b09e5ba237abbd492c8e4af8376743529ad66"},
    "background:analyze-app-bins5": {"json": "3328377d0d47a0660fef73cb1fe5bf45672dae076ca740a4f5d5f5c04bb52249", "csv": "c968873b3ff9527637adbc3ef1a5de05d5205cc36b1fc6c59fb7fd92e65433d5"},
    "background:analyze-keylog": {"json": "126a4820335e66adb3b6de5adc06b0d98d53d57d76019010998777b754ee66a6", "csv": "5783138131cec4b850ead84be24b09e5ba237abbd492c8e4af8376743529ad66"},
    "background:baseline": {"json": "fd1e05969f59b2a4be2bc50d3b20c1011c0df632b7f7491f9aee8b3538b8ab8b"},
    "background:keycov": {"json": "52a74ff6a572b3040a687465d03014d3d1de1ef12b0389d5c38c49fe1cf2ee0f"},
    "background:stats": {"json": "014416793f6a6039da2efc13baff2fd222aedbec6bc6044572a0bc7f9a4922c9", "csv": "fb9b5c2865e1217fdc59f14800f6afb3abdd55ac7b52c00764a1260cb2849f06"},
    "background:stats-trunc-app": {"json": "f707c2b9b18c15f8877caf5ea9943d1969a84f90394fdcde91ec8276c62f5196", "csv": "b0c9a6a8b1aca9bbc2856d910c4e354dade224011e25834d7203fdb6a35753c8"},
    "compare": {"json": "648024fbed96c2ea11ec45e55b426acca4400cbc2b9b7ecd785485457c8d839a", "csv": "8dcffdc09bcc47cff54af420309588ca5eaea237529e76aa6f19aae929cd9a0a"},
    "compare-common": {"json": "648024fbed96c2ea11ec45e55b426acca4400cbc2b9b7ecd785485457c8d839a", "csv": "8dcffdc09bcc47cff54af420309588ca5eaea237529e76aa6f19aae929cd9a0a"},
    "dns_evolution_a:analyze": {"json": "5e8480940bf8fcea38910af2c28bac0e6f89b1fd35a049ddd0d369d8da68c6e3", "csv": "49aa66ed41ceef33bfb5e017154d662a78dfc1d2f6a9f86af164be5d043de962"},
    "dns_evolution_a:analyze-app-bins5": {"json": "8ee75fcc421458911ee5e3b55f3840761596408aa2ca9d15cd65d441a7b5be27", "csv": "927ca2109b21d563ce3597f02e67b4d4ee621a863f083f481263b13fe5734a81"},
    "dns_evolution_a:analyze-keylog": {"json": "dc9c40daf1e1f897f2002c5a997b8de0e44e57ac0025c3ac804a37a631ba93dd", "csv": "49aa66ed41ceef33bfb5e017154d662a78dfc1d2f6a9f86af164be5d043de962"},
    "dns_evolution_a:baseline": {"json": "ff22041842bb23c6f32085552d35c699e539d2cee05405151c7d21b40477eebb"},
    "dns_evolution_a:keycov": {"json": "315ad1c462222849371545ef5876ce34e81aaa7640084d66b3b426173fb3d627"},
    "dns_evolution_a:stats": {"json": "4e0202fda56b087f6c8847871374307c2f09d50b32e28f4b35ee65523ee7de2b", "csv": "6fa698d88200adbf3a424242e5220bbf19877ba73eb69a88c94f0ab8877f6e68"},
    "dns_evolution_a:stats-trunc-app": {"json": "f92a0521cdd332edf139a5d603fa5b70e27a7380eb12a5778cb7d48beaf4fe18", "csv": "6fa698d88200adbf3a424242e5220bbf19877ba73eb69a88c94f0ab8877f6e68"},
    "dns_evolution_b:analyze": {"json": "912e1d05d040a58494369a5944b06de49fd1b02770f943c3d0d7ab49ac0987cd", "csv": "4fc5c6308e1d166f302df67770c030578b5474ebdd9201b12675382e4f540e21"},
    "dns_evolution_b:analyze-app-bins5": {"json": "24fcf0bb17dc443407cb32b37e2fbcaf102da8b76d51e8ad2991921ecb165fde", "csv": "ebbf19e29270aa4dee45109fce4e3d3e7e43c9850b419487875dc9758a6e00e7"},
    "dns_evolution_b:analyze-keylog": {"json": "09d885c0daee5a71d9bcc6e2e09feac5ab3574975af12514ab112dc14b326f83", "csv": "4fc5c6308e1d166f302df67770c030578b5474ebdd9201b12675382e4f540e21"},
    "dns_evolution_b:baseline": {"json": "bb83e47bd313d7b42c57f46e534c7b48c5f9f2e3ca118ffb5fa9b1788dd8163a"},
    "dns_evolution_b:keycov": {"json": "68ea765448fd4a62dceafbbc43f090c4cf9098743150ff3bd8619ccf2592bfb1"},
    "dns_evolution_b:stats": {"json": "9484230f8b6b450b41eef075bee32041d011013d07f6ab2450c513dd284b903b", "csv": "6fa698d88200adbf3a424242e5220bbf19877ba73eb69a88c94f0ab8877f6e68"},
    "dns_evolution_b:stats-trunc-app": {"json": "6e3dfc96e77c77837fb0c351c9a890dfbf8335b5217aab1815c17f0bbf84a479", "csv": "0a2e5753ed11c2ba1dbcc6066affee39e546d75570edd397b9e8c80fe7c33d67"},
}


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    synthesize(root)
    return root


@pytest.mark.parametrize("command", sorted(matrix()))
def test_report_matches_golden(command, corpus_root, monkeypatch):
    monkeypatch.chdir(corpus_root)
    monkeypatch.delenv("APPCAP_OUTPUT_DIR", raising=False)
    argv, has_csv = matrix()[command]
    assert digests(corpus_root, command, argv, has_csv) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(matrix()))
def test_inputs_carry_the_digest_of_each_file(command, corpus_root, monkeypatch):
    monkeypatch.chdir(corpus_root)
    monkeypatch.delenv("APPCAP_OUTPUT_DIR", raising=False)
    argv, _ = matrix()[command]
    assert main(argv + ["--json", "inputs.json"]) == 0
    inputs = json.loads((corpus_root / "inputs.json").read_text())["inputs"]
    assert inputs
    for entry in inputs:
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()


def test_matrix_is_pinned_in_full():
    assert sorted(GOLDEN) == sorted(matrix())


def _print_table() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        synthesize(root)
        os.chdir(root)
        os.environ.pop("APPCAP_OUTPUT_DIR", None)
        print("GOLDEN = {")
        for command, (argv, has_csv) in sorted(matrix().items()):
            print(f"    {command!r}: {digests(root, command, argv, has_csv)!r},".replace("'", '"'))
        print("}")


if __name__ == "__main__":
    _print_table()
