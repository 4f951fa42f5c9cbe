import hashlib
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from helpers import PCAP_MAGIC_NS_LE, eth, ip4, pcap_file, tcp

from appcap.classify import FlowTable
from appcap.cli import main
from appcap.synth import CONNECTIVITY_HOST, build_http_204, build_http_get

FIXTURES = Path(__file__).parent.parent / "fixtures"
BACKGROUND_SPEC = json.loads((FIXTURES / "background.json").read_text())


@pytest.fixture(scope="module")
def background_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("background")
    assert main(["synth", str(FIXTURES / "background.json"), str(out / "data")]) == 0
    return out / "data"


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--json", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def distribution_counts(body_distribution):
    return {
        (row["transport"], row["protocol"]): row["count"]
        for row in body_distribution["rows"]
    }


@pytest.fixture(scope="module")
def schema():
    text = resources.files("appcap").joinpath("report_schema.json").read_text()
    return json.loads(text)


def keylog_with_bad_bytes(background_dir, tmp_path):
    keylog = tmp_path / "sslkeylog_bad.txt"
    text = next(background_dir.glob("sslkeylog_*.txt")).read_bytes()
    keylog.write_bytes(text + b"CLIENT_RANDOM \xff\xfe zz\n")
    return keylog


class TestAnalyze:
    def test_background_distribution_matches(self, background_dir, tmp_path, schema):
        capture = next(background_dir.glob("*.pcap"))
        envelope = run_json(["analyze", str(capture)], tmp_path)
        jsonschema.validate(envelope, schema)
        counts = distribution_counts(envelope["body"]["distribution"])
        assert counts == {
            ("UDP", "Do53"): 14,
            ("TCP", "HTTP"): 4,
            ("TCP", "TLSv1.3"): 489,
            ("TCP", "DoT"): 19,
        }
        assert envelope["body"]["distribution"]["total"] == 526

    def test_body_deterministic(self, background_dir, tmp_path):
        capture = next(background_dir.glob("*.pcap"))
        one = run_json(["analyze", str(capture)], tmp_path, "one.json")
        two = run_json(["analyze", str(capture)], tmp_path, "two.json")
        assert json.dumps(one["body"], sort_keys=True) == json.dumps(two["body"], sort_keys=True)
        assert one["inputs"] == two["inputs"]

    def test_app_data_only_removes_handshakes(self, background_dir, tmp_path):
        capture = next(background_dir.glob("*.pcap"))
        envelope = run_json(["analyze", str(capture), "--app-data-only"], tmp_path)
        counts = distribution_counts(envelope["body"]["distribution"])
        assert counts[("TCP", "TLSv1.3")] == 487
        assert counts[("TCP", "DoT")] == 17
        assert len(envelope["body"]["packets"]) == 522

    def test_coverage_included_with_keylog(self, background_dir, tmp_path, schema):
        capture = next(background_dir.glob("*.pcap"))
        keylog = next(background_dir.glob("sslkeylog_*.txt"))
        envelope = run_json(["analyze", str(capture), "--keylog", str(keylog)], tmp_path)
        jsonschema.validate(envelope, schema)
        assert envelope["body"]["coverage"]["coverage_fraction"] == 1.0

    def test_non_utf8_keylog_line_counts_as_malformed(self, background_dir, tmp_path):
        capture = next(background_dir.glob("*.pcap"))
        keylog = keylog_with_bad_bytes(background_dir, tmp_path)
        envelope = run_json(["analyze", str(capture), "--keylog", str(keylog)], tmp_path)
        assert envelope["body"]["coverage"]["keylog_malformed_lines"] == 1
        assert envelope["body"]["coverage"]["coverage_fraction"] == 1.0

    def test_csv_columns_fixed(self, background_dir, tmp_path):
        capture = next(background_dir.glob("*.pcap"))
        csv_path = tmp_path / "features.csv"
        assert main(["analyze", str(capture), "--csv", str(csv_path)]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "ts_ns,src_ip,src_port,dst_ip,dst_port,transport,protocol,info,app_data,packet_len"

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.pcap")]) == 2

    def test_unparseable_capture_exit_3(self, tmp_path):
        bad = tmp_path / "x.pcap"
        bad.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 32)
        assert main(["analyze", str(bad)]) == 3

    def test_bad_flags_exit_64(self, background_dir, capsys):
        capture = next(background_dir.glob("*.pcap"))
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(capture), "--no-such-flag"])
        assert excinfo.value.code == 64

    def test_nonpositive_bins_exit_64(self, background_dir):
        capture = next(background_dir.glob("*.pcap"))
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(capture), "--bins", "0"])
        assert excinfo.value.code == 64


class TestFlagValues:
    """Flag values that cannot be used end in a usage error, not a traceback."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--bins", "nan"],
            ["--bins", "inf"],
            ["--bins", "-1"],
            ["--bins", "1e-12"],  # rounds to a 0 ns bin width
            ["--bins", "1e300"],  # overflows in nanoseconds
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    def test_bad_bins_exit_64(self, background_dir, capsys, command, flags):
        capture = next(background_dir.glob("*.pcap"))
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(capture), *flags])
        assert excinfo.value.code == 64
        assert "argument --bins" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1e300"])
    @pytest.mark.parametrize("command", ["stats", "compare"])
    def test_bad_truncate_min_exit_64(self, background_dir, capsys, command, value):
        argv = ["dataset", "stats", str(background_dir)] if command == "stats" else [
            "compare", str(background_dir), str(background_dir)]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--truncate-min", value])
        assert excinfo.value.code == 64
        assert "argument --truncate-min" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "stats", "compare"])
    def test_csv_to_stdout_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # Nothing exists to read: the flag is refused before any input is
        # opened. An empty path, a directory or a path under a regular file
        # is refused the same way, for either output; a relative path is
        # looked up under $APPCAP_OUTPUT_DIR, where the output would go.
        absent = str(tmp_path / "absent")
        argv = {"analyze": ["analyze", absent + ".pcap"], "stats": ["dataset", "stats", absent],
                "compare": ["compare", absent, absent]}[command]
        (tmp_path / "reports").mkdir()
        (tmp_path / "afile").write_bytes(b"")
        monkeypatch.setenv("APPCAP_OUTPUT_DIR", str(tmp_path))
        values = [("--csv", "-"), ("--csv", ""), ("--json", "")]
        not_files = (str(tmp_path), "reports", "afile/out.json", str(tmp_path / "afile" / "sub" / "out.json"))
        values += [(flag, path) for flag in ("--csv", "--json") for path in not_files]
        for flag, value in values:
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, flag, value])
            assert excinfo.value.code == 64
            assert f"argument {flag}: needs a file path, not {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "stats"])
    def test_json_and_csv_to_one_file_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # Without the check, the JSON would silently replace the CSV. The
        # paths are compared once resolved, under $APPCAP_OUTPUT_DIR.
        absent = str(tmp_path / "absent")
        argv = {"analyze": ["analyze", absent + ".pcap"], "stats": ["dataset", "stats", absent]}[command]
        monkeypatch.setenv("APPCAP_OUTPUT_DIR", str(tmp_path))
        for json_path, csv_path in [("same.out", "same.out"), ("./same.out", "same.out"),
                                    (str(tmp_path / "same.out"), "sub/../same.out")]:
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--json", json_path, "--csv", csv_path])
            assert excinfo.value.code == 64
            assert f"--json and --csv name the same file: {csv_path!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    def test_too_many_bins_exit_64(self, tmp_path, capsys, command):
        # Two connectivity-check requests 1 s apart, in 1 us bins: 1,000,001
        # bins, one over the limit (a few MB of list if it were built).
        get = eth(ip4(tcp(build_http_get(CONNECTIVITY_HOST), dport=80), proto=6))
        capture = tmp_path / "custom_20250101T000000Z_60.pcap"
        capture.write_bytes(pcap_file([(1, 0, get), (2, 0, get)]))
        code = main([command, str(capture), "--bins", "1e-6", "--json", str(tmp_path / "out.json")])
        assert code == 64
        out, err = capsys.readouterr()
        assert (out, err) == ("", "appcap: a 1e-06 s bin width needs 1,000,001 bins; the limit is 1,000,000\n")
        assert not (tmp_path / "out.json").exists()

    def test_one_ns_bins_accepted(self, tmp_path):
        # Two HTTP packets 5 ns apart in a nanosecond capture: six 1 ns bins.
        get = eth(ip4(tcp(build_http_get("example.com"), dport=80), proto=6))
        capture = tmp_path / "ns.pcap"
        capture.write_bytes(pcap_file([(1, 0, get), (1, 5, get)], magic=PCAP_MAGIC_NS_LE))
        body = run_json(["analyze", str(capture), "--bins", "1e-9"], tmp_path)["body"]
        assert body["histogram"]["bin_width_s"] == 1e-9
        assert body["histogram"]["series"]["http"] == [1, 0, 0, 0, 0, 1]


class TestDataset:
    def test_scan_reports_manifest(self, background_dir, tmp_path, schema):
        envelope = run_json(["dataset", "scan", str(background_dir)], tmp_path)
        jsonschema.validate(envelope, schema)
        manifest = envelope["body"]["manifest"]
        assert manifest["n_apps"] == 1
        assert manifest["n_entries"] == 1
        assert manifest["entries"][0]["keylog"] is not None

    def test_stats_reports_ppm(self, background_dir, tmp_path, schema):
        envelope = run_json(["dataset", "stats", str(background_dir)], tmp_path)
        jsonschema.validate(envelope, schema)
        rows = envelope["body"]["ppm"]
        assert rows[0]["app_name"] == "background"
        assert rows[0]["mean_ppm"] == pytest.approx(526 * 60 / 300, abs=0.001)

    def test_empty_dataset_exit_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["dataset", "stats", str(empty)]) == 3

    def test_80_apps_by_4_captures(self, tmp_path):
        spec = {"seed": 1, "apps": [
            {"app_name": f"com.app{a:02d}", "captures": [
                {"duration_s": 300,
                 "flows": [{"protocol_profile": "Do53", "app_data_packets": 2, "rate_pps": 10}]}
                for _ in range(4)]}
            for a in range(80)]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", str(spec_path), str(tmp_path / "d")]) == 0
        envelope = run_json(["dataset", "scan", str(tmp_path / "d")], tmp_path)
        manifest = envelope["body"]["manifest"]
        assert manifest["n_apps"] == 80
        assert manifest["n_entries"] == 320

    def test_non_ascii_duration_listed_unparseable(self, background_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for path in background_dir.iterdir():
            (data / path.name).write_bytes(path.read_bytes())
        stray = data / "app_20250101T000000Z_\u00b2.pcap"
        stray.write_bytes(b"")
        for argv in (["dataset", "scan", str(data)], ["dataset", "stats", str(data)]):
            manifest = run_json(argv, tmp_path)["body"]["manifest"]
            assert manifest["unparseable"] == [str(stray)]
            assert manifest["n_entries"] == 1
        assert run_json(["compare", str(data), str(data)], tmp_path)["body"]["common_apps"]

    def test_truncate_halves_constant_rate(self, tmp_path):
        spec = {
            "seed": 3,
            "apps": [{"app_name": "steady", "captures": [{
                "duration_s": 600,
                "flows": [{"protocol_profile": "Do53", "app_data_packets": 1200,
                           "rate_pps": 2}],
            }]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", str(spec_path), str(tmp_path / "d")]) == 0
        envelope = run_json(
            ["dataset", "stats", str(tmp_path / "d"), "--truncate-min", "5"], tmp_path
        )
        total = envelope["body"]["distribution"]["total"]
        assert abs(total - 600) <= 1


def write_dns_dataset(tmp_path, name: str, do53: int, dot: int, seed: int):
    spec = {
        "seed": seed,
        "apps": [{"app_name": "com.shared.app", "captures": [{
            "duration_s": 300,
            "flows": [
                {"protocol_profile": "Do53", "app_data_packets": do53, "rate_pps": 20},
                {"protocol_profile": "DoT", "app_data_packets": dot,
                 "start_offset_s": 60, "rate_pps": 20},
            ],
        }]}],
    }
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", str(spec_path), str(tmp_path / name)]) == 0
    return tmp_path / name


class TestCompare:
    def test_dns_evolution_through_cli(self, tmp_path, schema):
        dir_a = write_dns_dataset(tmp_path, "a", 910, 90, seed=20)
        dir_b = write_dns_dataset(tmp_path, "b", 189, 811, seed=21)
        envelope = run_json(["compare", str(dir_a), str(dir_b)], tmp_path)
        jsonschema.validate(envelope, schema)
        dns = envelope["body"]["dns_evolution"]
        assert dns["do53_pct_a"] == pytest.approx(91.0, abs=0.1)
        assert dns["dot_pct_a"] == pytest.approx(9.0, abs=0.1)
        assert dns["do53_pct_b"] == pytest.approx(18.9, abs=0.1)
        assert dns["dot_pct_b"] == pytest.approx(81.1, abs=0.1)
        assert envelope["body"]["sankey_a"]["links"]

    def test_swapped_order_mirrors(self, tmp_path):
        dir_a = write_dns_dataset(tmp_path, "a2", 300, 100, seed=22)
        dir_b = write_dns_dataset(tmp_path, "b2", 100, 300, seed=23)
        fwd = run_json(["compare", str(dir_a), str(dir_b)], tmp_path, "fwd.json")
        rev = run_json(["compare", str(dir_b), str(dir_a)], tmp_path, "rev.json")
        assert fwd["body"]["common_apps"] == rev["body"]["common_apps"]
        assert fwd["body"]["dns_evolution"]["do53_pct_a"] == rev["body"]["dns_evolution"]["do53_pct_b"]

    def test_disjoint_apps_exit_3(self, tmp_path, background_dir):
        other = write_dns_dataset(tmp_path, "c", 4, 4, seed=24)
        assert main(["compare", str(background_dir), str(other)]) == 3

    def test_truncated_sankey_matches_distribution(self, tmp_path):
        # Do53 runs 0-20 s and DoT 60-80 s, so a 66 s cutoff drops part of the DoT.
        dir_a = write_dns_dataset(tmp_path, "a4", 400, 400, seed=27)
        dir_b = write_dns_dataset(tmp_path, "b4", 400, 400, seed=28)
        full = run_json(["compare", str(dir_a), str(dir_b)], tmp_path, "full.json")["body"]
        cut = run_json(
            ["compare", str(dir_a), str(dir_b), "--truncate-min", "1.1"], tmp_path, "cut.json"
        )["body"]
        for side in ("a", "b"):
            total = cut[f"distribution_{side}"]["total"]
            assert total < full[f"distribution_{side}"]["total"]
            stage0 = [l for l in cut[f"sankey_{side}"]["links"] if l["source"][0] == 0]
            assert sum(l["packets"] for l in stage0) == total

    def test_compare_csv_shape(self, tmp_path):
        dir_a = write_dns_dataset(tmp_path, "a3", 20, 10, seed=25)
        dir_b = write_dns_dataset(tmp_path, "b3", 10, 20, seed=26)
        csv_path = tmp_path / "table.csv"
        assert main(["compare", str(dir_a), str(dir_b), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "app,ppm_a,ppm_b,ratio"
        assert lines[1].startswith("com.shared.app,")


class TestKeycov:
    def test_closed_loop(self, background_dir, tmp_path, schema):
        capture = next(background_dir.glob("*.pcap"))
        keylog = next(background_dir.glob("sslkeylog_*.txt"))
        envelope = run_json(["keycov", str(capture), str(keylog)], tmp_path)
        jsonschema.validate(envelope, schema)
        coverage = envelope["body"]["coverage"]
        assert coverage["coverage_fraction"] == 1.0
        assert coverage["flows_with_client_hello"] == 2  # Tls13 + DoT flows

    def test_non_utf8_keylog_line_counts_as_malformed(self, background_dir, tmp_path):
        capture = next(background_dir.glob("*.pcap"))
        keylog = keylog_with_bad_bytes(background_dir, tmp_path)
        envelope = run_json(["keycov", str(capture), str(keylog)], tmp_path)
        assert envelope["body"]["coverage"]["keylog_malformed_lines"] == 1
        assert envelope["body"]["coverage"]["coverage_fraction"] == 1.0


class TestInputDigests:
    @pytest.mark.parametrize("command", ["analyze", "keycov"])
    def test_keylog_read_once_and_hashed_as_parsed(self, background_dir, tmp_path, monkeypatch, command):
        """The key log is read once, and its digest is of the bytes parsed,
        even when the file grows after that read, as a log still being
        written does."""
        capture = next(background_dir.glob("*.pcap"))
        keylog = tmp_path / "keys.txt"
        keylog.write_bytes(next(background_dir.glob("sslkeylog_*.txt")).read_bytes())
        reads = []
        read_bytes = Path.read_bytes

        def read_then_grow(path):
            data = read_bytes(path)
            if path == keylog:
                reads.append(data)
                with keylog.open("ab") as fh:
                    fh.write(b"a line written after the read\n")
            return data

        monkeypatch.setattr(Path, "read_bytes", read_then_grow)
        flags = ["--keylog", str(keylog)] if command == "analyze" else [str(keylog)]
        envelope = run_json([command, str(capture), *flags], tmp_path)
        assert len(reads) == 1
        digests = {entry["path"]: entry["sha256"] for entry in envelope["inputs"]}
        assert digests[str(keylog)] == hashlib.sha256(reads[0]).hexdigest()
        assert envelope["body"]["coverage"]["keylog_malformed_lines"] == 0

    @pytest.mark.parametrize("command", ["analyze", "keycov"])
    def test_missing_keylog_exits_2_before_classifying(self, background_dir, tmp_path, monkeypatch, capsys, command):
        capture = next(background_dir.glob("*.pcap"))
        absent = tmp_path / "no-such.txt"
        classified = []
        classify = FlowTable.classify

        def spy(self, record):
            classified.append(record)
            return classify(self, record)

        monkeypatch.setattr(FlowTable, "classify", spy)
        flags = ["--keylog", str(absent)] if command == "analyze" else [str(absent)]
        assert main([command, str(capture), *flags, "--json", str(tmp_path / "out.json")]) == 2
        assert classified == []
        assert not (tmp_path / "out.json").exists()
        assert str(absent) in capsys.readouterr().err


class TestBaseline:
    def test_background_attribution(self, background_dir, tmp_path, schema):
        capture = next(background_dir.glob("*.pcap"))
        envelope = run_json(["baseline", str(capture)], tmp_path)
        jsonschema.validate(envelope, schema)
        tags = envelope["body"]["tags"]
        assert tags["ConnectivityHttp"] == 4
        assert tags["ConnectivityDo53"] == 14
        assert tags["SystemDot"] == 19
        assert tags["None"] == 489

    def test_no_background_traffic(self, tmp_path):
        spec = {"seed": 2, "apps": [{"app_name": "quiet", "captures": [{
            "duration_s": 60,
            "flows": [{"protocol_profile": "Tls13", "app_data_packets": 5, "rate_pps": 10}],
        }]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", str(spec_path), str(tmp_path / "d")]) == 0
        envelope = run_json(["baseline", str(next((tmp_path / "d").glob("*.pcap")))], tmp_path)
        tags = envelope["body"]["tags"]
        assert tags["ConnectivityHttp"] == 0
        assert tags["ConnectivityDo53"] == 0
        assert tags["None"] == 7

    def test_http_to_other_host_untagged(self, tmp_path):
        frames = [
            eth(ip4(tcp(build_http_get("example.com"), sport=40000, dport=80), proto=6)),
            eth(ip4(tcp(build_http_204(), sport=80, dport=40000, seq=5),
                    src="203.0.113.80", dst="10.0.2.16", proto=6)),
        ]
        capture = tmp_path / "custom_20250101T000000Z_60.pcap"
        capture.write_bytes(pcap_file([(i, 0, f) for i, f in enumerate(frames)]))
        envelope = run_json(["baseline", str(capture)], tmp_path)
        assert envelope["body"]["tags"]["ConnectivityHttp"] == 0
        assert envelope["body"]["tags"]["None"] == 2


class TestSynthCommand:
    def test_invalid_spec_exit_64_with_path(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"apps": [{"app_name": "", "captures": []}]}))
        assert main(["synth", str(spec_path), str(tmp_path / "out")]) == 64
        assert "apps[0].app_name" in capsys.readouterr().err

    def test_invalid_json_exit_64(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{nope")
        assert main(["synth", str(spec_path), str(tmp_path / "out")]) == 64

    def test_spec_not_utf8_exit_64(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_bytes(b'{"apps": [{"app_name": "com.caf\xe9", "captures": []}]}')
        assert main(["synth", str(spec_path), str(tmp_path / "out")]) == 64
        assert "'utf-8' codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_output(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(BACKGROUND_SPEC))
        assert main(["synth", str(spec_path), str(tmp_path / "s1"), "--seed", "1"]) == 0
        assert main(["synth", str(spec_path), str(tmp_path / "s2"), "--seed", "2"]) == 0
        a = next((tmp_path / "s1").glob("*.pcap")).read_bytes()
        b = next((tmp_path / "s2").glob("*.pcap")).read_bytes()
        assert a != b

    def test_output_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("APPCAP_OUTPUT_DIR", str(tmp_path / "envout"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(BACKGROUND_SPEC))
        assert main(["synth", str(spec_path)]) == 0
        assert list((tmp_path / "envout").glob("*.pcap"))

    def test_missing_output_dir_exit_64(self, tmp_path, monkeypatch):
        monkeypatch.delenv("APPCAP_OUTPUT_DIR", raising=False)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(BACKGROUND_SPEC))
        assert main(["synth", str(spec_path)]) == 64
