from collections import Counter
from datetime import datetime, timezone

import pytest
from helpers import classify_capture, mk_classified, proto
from hypothesis import given
from hypothesis import strategies as st
from test_properties import MANY, _build_packets, packet_specs

from appcap.analytics import (
    ENCRYPTED_TAGS,
    MAX_BINS,
    NoCommonApps,
    Scope,
    compare_datasets,
    dataset_mean_ppm,
    encryption_breakdown,
    flow_graph,
    mean_ppm_per_app,
    merged,
    packets_per_minute,
    protocol_distribution,
    quic_behavior_for,
    QuicBehavior,
    TooManyBins,
    tally,
    temporal_histogram,
    timeline,
)
from appcap.classify import ProtoTag
from appcap.dataset import CaptureLabel, truncate_packets
from appcap.ingest import decode_stream, read_capture
from appcap.synth import (
    CaptureSpec,
    FixtureSpec,
    FlowSpec,
    build_capture,
)
from appcap.tlswire import TlsVersion

UTC = timezone.utc


def label(app: str, duration=300, day=1) -> CaptureLabel:
    return CaptureLabel(app, datetime(2025, 1, day, tzinfo=UTC), duration)


def flows(*specs: tuple[str, int]) -> CaptureSpec:
    return CaptureSpec(
        duration_s=300,
        flows=tuple(
            FlowSpec(protocol_profile=p, app_data_packets=n, start_offset_s=5 * i, rate_pps=50)
            for i, (p, n) in enumerate(specs)
        ),
    )


def classified_capture(app: str, *specs: tuple[str, int], seed=0):
    spec = FixtureSpec(apps=(), seed=seed)
    result = build_capture(spec, app, 0, flows(*specs))
    return result.label, classify_capture(decode_stream(read_capture(result.pcap_bytes)))


def tallied_capture(app: str, *specs: tuple[str, int], seed=0):
    lab, classified = classified_capture(app, *specs, seed=seed)
    return lab, tally(classified)


BACKGROUND = [("Do53", 14), ("ConnectivityHttp", 4), ("Tls13", 487), ("DoT", 17)]


class TestDistribution:
    def test_background_fixture_counts(self):
        _, classified = classified_capture("background", *BACKGROUND)
        dist = protocol_distribution(tally(classified))
        assert dist.total == 526
        assert dist.counts == {
            ("UDP", "Do53"): 14,
            ("TCP", "HTTP"): 4,
            ("TCP", "TLSv1.3"): 489,
            ("TCP", "DoT"): 19,
        }

    def test_empty_input(self):
        dist = protocol_distribution(tally([]))
        assert dist.total == 0
        assert dist.counts == {}
        assert dist.percentages == {}

    def test_transport_split_percentages(self):
        packets = [mk_classified(proto(ProtoTag.TLS, TlsVersion.TLS1_3), ts_ns=i) for i in range(546)]
        packets += [mk_classified(proto(ProtoTag.QUIC), ts_ns=i) for i in range(454)]
        dist = protocol_distribution(tally(packets), Scope.APP_DATA_ONLY)
        totals = dist.transport_totals()
        assert totals["TCP"][1] == pytest.approx(54.6)
        assert totals["UDP"][1] == pytest.approx(45.4)

    def test_app_data_scope_filters(self):
        _, classified = classified_capture("bg", *BACKGROUND)
        dist = protocol_distribution(tally(classified), Scope.APP_DATA_ONLY)
        assert dist.counts[("TCP", "TLSv1.3")] == 487
        assert dist.counts[("TCP", "DoT")] == 17

    def test_nonzero_percentages_sum_to_100(self):
        _, classified = classified_capture("bg", *BACKGROUND)
        dist = protocol_distribution(tally(classified))
        assert sum(dist.percentages.values()) == pytest.approx(100.0, abs=0.1)


class TestPpm:
    def test_labeled_duration(self):
        packets = [mk_classified(proto(ProtoTag.QUIC), ts_ns=i) for i in range(600)]
        assert packets_per_minute(tally(packets), label("x", duration=120)) == 300.0

    def test_zero_packets(self):
        assert packets_per_minute(tally([]), label("x")) == 0.0

    def test_spotify_rate(self):
        one = mk_classified(proto(ProtoTag.QUIC))
        packets = [one] * 11240
        assert packets_per_minute(tally(packets), label("com.spotify.music", duration=300)) == 2248.0

    def test_duration_floored_at_one_second(self):
        packets = [mk_classified(proto(ProtoTag.QUIC), ts_ns=i) for i in range(10)]
        assert packets_per_minute(tally(packets), label("x", duration=1)) == 600.0
        with pytest.raises(ValueError):
            label("x", duration=0)

    def test_mean_per_app(self):
        one = mk_classified(proto(ProtoTag.QUIC))
        captures = [
            (label("app", day=1), tally([one] * 500)),   # 100 ppm over 300 s
            (label("app", day=2), tally([one] * 1500)),  # 300 ppm
        ]
        records = mean_ppm_per_app(captures)
        assert len(records) == 1
        assert records[0].mean_ppm == 200.0
        assert records[0].captures_used == 2

    def test_reordering_invariant(self):
        packets = [mk_classified(proto(ProtoTag.QUIC), ts_ns=t) for t in (5, 1, 9, 3)]
        shuffled = [packets[2], packets[0], packets[3], packets[1]]
        lab = label("x", duration=60)
        assert packets_per_minute(tally(packets), lab) == packets_per_minute(tally(shuffled), lab)

    def test_linear_in_packet_count(self):
        one = mk_classified(proto(ProtoTag.QUIC))
        lab = label("x", duration=120)
        base = packets_per_minute(tally([one] * 100), lab)
        assert packets_per_minute(tally([one] * 300), lab) == pytest.approx(3 * base)

    def test_dataset_means_and_ratio(self):
        one = mk_classified(proto(ProtoTag.QUIC))
        a = [(label(f"app{i}"), tally([one] * (21288 * 5))) for i in range(3)]
        b = [(label(f"app{i}"), tally([one] * (4019 * 5))) for i in range(3)]
        mean_a = dataset_mean_ppm(mean_ppm_per_app(a))
        mean_b = dataset_mean_ppm(mean_ppm_per_app(b))
        assert mean_a == 21288.0
        assert mean_b == 4019.0
        assert mean_a / mean_b == pytest.approx(5.3, abs=0.05)


class TestHistogram:
    def test_conservation(self):
        _, classified = classified_capture("bg", *BACKGROUND)
        hist = temporal_histogram(timeline(classified))
        totals = {
            "tcp_encrypted": 487,
            "dot": 17,
            "do53": 14,
            "http": 4,
        }
        for key, expected in totals.items():
            assert sum(hist.series[key]) == expected

    def test_five_minute_capture_bin_count(self):
        _, classified = classified_capture("bg", *BACKGROUND)
        hist = temporal_histogram(timeline(classified))
        assert hist.n_bins <= 30

    def test_single_packet(self):
        hist = temporal_histogram(timeline([mk_classified(proto(ProtoTag.QUIC), ts_ns=5)]))
        assert hist.n_bins == 1
        assert hist.series["quic"] == [1]

    def test_burst_then_quiet(self):
        packets = [
            mk_classified(proto(ProtoTag.TLS, TlsVersion.TLS1_3), ts_ns=int(t * 1e9))
            for t in [1, 11, 21, 31, 41, 299]
        ]
        hist = temporal_histogram(timeline(packets))
        series = hist.series["tcp_encrypted"]
        assert all(series[i] == 1 for i in range(5))
        assert all(series[i] == 0 for i in range(5, 29))
        assert series[29] == 1

    def test_empty(self):
        hist = temporal_histogram(timeline([]))
        assert hist.t0_ns is None
        assert hist.series == {}

    def test_bin_count_capped_before_any_series_grows(self):
        # 1 ns bins: packets MAX_BINS - 1 ns apart fill MAX_BINS bins, one ns
        # more needs one bin too many (a few MB of list if it were built).
        quic = proto(ProtoTag.QUIC)
        at_limit = [mk_classified(quic, ts_ns=7), mk_classified(quic, ts_ns=7 + MAX_BINS - 1)]
        assert temporal_histogram(timeline(at_limit), bin_width_s=1e-9).n_bins == MAX_BINS
        over = [mk_classified(quic, ts_ns=7), mk_classified(quic, ts_ns=7 + MAX_BINS)]
        with pytest.raises(TooManyBins, match="1,000,001 bins"):
            temporal_histogram(timeline(over), bin_width_s=1e-9)

    @pytest.mark.parametrize("width", [0, -1.0, 1e-12])
    def test_bin_width_under_one_ns_is_a_value_error(self, width):
        # 1e-12 s is positive but rounds to a 0 ns width.
        with pytest.raises(ValueError, match="at least 1 ns"):
            temporal_histogram(timeline([mk_classified(proto(ProtoTag.QUIC), ts_ns=5)]), bin_width_s=width)

    def test_non_app_data_excluded(self):
        packets = [
            mk_classified(proto(ProtoTag.TLS, TlsVersion.TLS1_3), ts_ns=0, is_app_data=False,
                          payload=b"\x16"),
            mk_classified(proto(ProtoTag.TLS, TlsVersion.TLS1_3), ts_ns=1),
        ]
        hist = temporal_histogram(timeline(packets))
        assert sum(hist.series["tcp_encrypted"]) == 1


def version_mix(counts: dict[TlsVersion, int], tag=ProtoTag.TLS):
    packets = []
    t = 0
    for version, n in counts.items():
        for _ in range(n):
            packets.append(mk_classified(proto(tag, version), ts_ns=t))
            t += 1
    return packets


class TestEncryptionBreakdown:
    def test_dominant_tls13_shares(self):
        packets = version_mix({TlsVersion.TLS1_3: 900, TlsVersion.TLS1_2: 96, TlsVersion.TLS1_0: 4})
        breakdown = encryption_breakdown(tally(packets))
        assert breakdown.tcp_encrypted_pct[TlsVersion.TLS1_3] == pytest.approx(90.0, abs=0.1)
        assert breakdown.tcp_encrypted_pct[TlsVersion.TLS1_2] == pytest.approx(9.6, abs=0.1)

    def test_dot_version_mix(self):
        packets = version_mix({TlsVersion.TLS1_3: 977, TlsVersion.TLS1_2: 23}, tag=ProtoTag.DOT)
        breakdown = encryption_breakdown(tally(packets))
        assert breakdown.dot_version_pct[TlsVersion.TLS1_3] == pytest.approx(97.7, abs=0.1)
        assert breakdown.dot_pct_of_total == pytest.approx(100.0)

    def test_quic_share(self):
        packets = version_mix({TlsVersion.TLS1_3: 547}) + [
            mk_classified(proto(ProtoTag.QUIC), ts_ns=1000 + i) for i in range(453)
        ]
        breakdown = encryption_breakdown(tally(packets))
        assert breakdown.quic_share_pct == pytest.approx(45.3, abs=0.1)

    def test_no_encrypted_traffic(self):
        packets = [mk_classified(proto(ProtoTag.HTTP), ts_ns=i) for i in range(5)]
        breakdown = encryption_breakdown(tally(packets))
        assert breakdown.tcp_encrypted_total == 0
        assert breakdown.tcp_encrypted_pct == {}
        assert breakdown.quic_share_pct == 0.0
        assert breakdown.dot_pct_of_total == 0.0


class TestFlowGraph:
    def test_sankey_single_https_flow(self):
        packets = [mk_classified(proto(ProtoTag.TLS, TlsVersion.TLS1_3), ts_ns=i) for i in range(10)]
        graph = flow_graph(tally(packets))
        links = {(src, dst): n for src, dst, n in graph.links}
        assert links[((0, "TCP"), (1, "Encrypted"))] == 10
        assert links[((1, "Encrypted"), (2, "TLSv1.3"))] == 10

    def test_sankey_cleartext_stage(self):
        packets = [mk_classified(proto(ProtoTag.DO53), ts_ns=i) for i in range(3)]
        graph = flow_graph(tally(packets))
        assert ((0, "UDP"), (1, "Cleartext")) in {(s, d) for s, d, _ in graph.links}

    def test_interior_conservation(self):
        _, classified = classified_capture("bg", *BACKGROUND)
        graph = flow_graph(tally(classified))
        inflow: dict = {}
        outflow: dict = {}
        for src, dst, n in graph.links:
            outflow[src] = outflow.get(src, 0) + n
            inflow[dst] = inflow.get(dst, 0) + n
        for node in graph.nodes:
            if node[0] == 1:  # interior stage
                assert inflow[node] == outflow[node]


def dns_dataset(app: str, do53: int, dot: int, seed=0):
    return tallied_capture(app, ("Do53", do53), ("DoT", dot), seed=seed)


class TestCompare:
    def test_common_apps_intersection(self):
        one = tally([mk_classified(proto(ProtoTag.QUIC))])
        a = [(label(app), one) for app in ("a", "b", "c")]
        b = [(label(app), one) for app in ("b", "c", "d")]
        report = compare_datasets(a, b)
        assert report.common_apps == ("b", "c")
        swapped = compare_datasets(b, a)
        assert swapped.common_apps == report.common_apps

    def test_no_common_apps(self):
        one = tally([mk_classified(proto(ProtoTag.QUIC))])
        with pytest.raises(NoCommonApps):
            compare_datasets([(label("a"), one)], [(label("b"), one)])

    def test_dns_evolution_paper_calibration(self):
        a = [dns_dataset("app", 910, 90, seed=1)]
        b = [dns_dataset("app", 189, 811, seed=2)]
        report = compare_datasets(a, b)
        dns = report.dns_evolution
        assert dns.do53_pct_a == pytest.approx(91.0, abs=0.1)
        assert dns.dot_pct_a == pytest.approx(9.0, abs=0.1)
        assert dns.do53_pct_b == pytest.approx(18.9, abs=0.1)
        assert dns.dot_pct_b == pytest.approx(81.1, abs=0.1)

    def test_quic_behavior_matrix(self):
        quic = [("QuicV1", 4)]
        tls = [("Tls13", 4)]
        a = [
            tallied_capture("both", *quic, seed=3),
            tallied_capture("only_a", *quic, seed=4),
            tallied_capture("adopted", *tls, seed=5),
            tallied_capture("neither", *tls, seed=6),
        ]
        b = [
            tallied_capture("both", *quic, seed=7),
            tallied_capture("only_a", *tls, seed=8),
            tallied_capture("adopted", *quic, seed=9),
            tallied_capture("neither", *tls, seed=10),
        ]
        report = compare_datasets(a, b)
        assert report.quic_behavior["both"] is QuicBehavior.CONSISTENT_BOTH
        assert report.quic_behavior["only_a"] is QuicBehavior.PRESENT_IN_A_ONLY_IN_B_ABSENT
        assert report.quic_behavior["adopted"] is QuicBehavior.ADOPTED_IN_B
        assert report.quic_behavior["neither"] is QuicBehavior.ABSENT_BOTH

    def test_quic_behavior_total_over_sign_pairs(self):
        assert quic_behavior_for(1, 1) is QuicBehavior.CONSISTENT_BOTH
        assert quic_behavior_for(1, 0) is QuicBehavior.PRESENT_IN_A_ONLY_IN_B_ABSENT
        assert quic_behavior_for(0, 1) is QuicBehavior.ADOPTED_IN_B
        assert quic_behavior_for(0, 0) is QuicBehavior.ABSENT_BOTH

    def test_bihistogram_versions(self):
        a = [tallied_capture("app", ("Tls12", 6), seed=11)]
        b = [tallied_capture("app", ("Tls13", 8), seed=12)]
        report = compare_datasets(a, b)
        hist = report.encryption_bihistogram["app"]
        assert hist["TLSv1.2"] == (8, 0)   # CH + SH + 6 app records
        assert hist["TLSv1.3"] == (0, 10)

    def test_per_app_fields_keyed_by_common(self):
        one = tally([mk_classified(proto(ProtoTag.QUIC))])
        a = [(label("a"), one), (label("shared"), one)]
        b = [(label("shared"), one), (label("d"), one)]
        report = compare_datasets(a, b)
        assert set(report.encryption_bihistogram) == {"shared"}
        assert set(report.quic_behavior) == {"shared"}
        assert {row.app_name for row in report.ppm_rows} == {"shared"}

    def test_truncation_noop_for_short_captures(self):
        a_lab, a_packets = classified_capture("app", ("Do53", 20), ("DoT", 10), seed=13)
        b_lab, b_packets = classified_capture("app", ("Do53", 10), ("DoT", 20), seed=14)
        untruncated = compare_datasets([(a_lab, tally(a_packets))], [(b_lab, tally(b_packets))])
        truncated = compare_datasets(
            [(a_lab, tally(truncate_packets(a_packets, 5)))],
            [(b_lab, tally(truncate_packets(b_packets, 5)))],
        )
        assert untruncated.dns_evolution == truncated.dns_evolution
        assert untruncated.mean_ppm_a == truncated.mean_ppm_a

    def test_chess_style_ratio(self):
        one = mk_classified(proto(ProtoTag.QUIC))
        a = [(label("com.chess"), tally([one] * (1000 * 5)))]
        b = [(label("com.chess"), tally([one] * (7530 * 5)))]
        report = compare_datasets(a, b)
        assert report.ppm_rows[0].ratio_b_over_a == pytest.approx(7.53, abs=0.01)


class TestTally:
    """Summed per-capture tallies reduce exactly as one tally of every packet,
    and each reducer counts what a pass over the packets counts."""

    @MANY
    @given(specs=packet_specs, data=st.data())
    def test_per_capture_tallies_merge_like_one_tally(self, specs, data):
        packets = _build_packets(specs)
        owners = data.draw(st.lists(st.integers(0, 4), min_size=len(packets), max_size=len(packets)))
        captures = [
            (label("app"), tally(cp for cp, owner in zip(packets, owners) if owner == capture))
            for capture in range(5)
        ]
        whole = tally(packets)
        parts = merged(captures)
        for scope in Scope:
            assert protocol_distribution(parts, scope) == protocol_distribution(whole, scope)
        assert encryption_breakdown(parts) == encryption_breakdown(whole)
        assert flow_graph(parts) == flow_graph(whole)
        times = Counter()
        for capture in range(5):
            times.update(timeline(cp for cp, owner in zip(packets, owners) if owner == capture))
        assert temporal_histogram(times) == temporal_histogram(timeline(packets))

        app_data = [cp for cp in packets if cp.is_app_data]
        for scope, scoped in ((Scope.ALL_PACKETS, packets), (Scope.APP_DATA_ONLY, app_data)):
            expected = Counter((cp.record.transport.value, cp.protocol.category) for cp in scoped)
            assert protocol_distribution(parts, scope).counts == expected
        tcp_versions = Counter(
            cp.protocol.tls_version for cp in app_data if cp.protocol.tag in (ProtoTag.TLS, ProtoTag.DOT)
        )
        breakdown = encryption_breakdown(parts)
        assert breakdown.tcp_encrypted_counts == tcp_versions
        assert breakdown.total_app_data == len(app_data)
        assert breakdown.quic_total == sum(cp.protocol.tag is ProtoTag.QUIC for cp in app_data)
        links = Counter()
        for cp in app_data:
            status = "Encrypted" if cp.protocol.tag in ENCRYPTED_TAGS else "Cleartext"
            links[((0, cp.record.transport.value), (1, status))] += 1
            links[((1, status), (2, cp.protocol.category))] += 1
        assert {(src, dst): n for src, dst, n in flow_graph(parts).links} == links
