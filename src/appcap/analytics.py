"""Dataset statistics: distributions, rates, histograms and comparisons.

``tally`` reduces one capture's classified packets to a Counter keyed by
(transport, protocol, is_app_data), and every dataset reducer reads tallies,
not packet lists. Tallies merge by addition, so per-capture work can run
independently and merge deterministically: the sum of per-capture tallies
gives the same results as one tally of all the packets. ``timeline`` does
the same for ``temporal_histogram``: packet counts keyed by timestamp and
protocol, which merge by addition too. Percentages are emitted for nonzero
categories only; display concerns like log scaling stay out of here.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classify import ClassifiedPacket, ProtoTag
from .dataset import CaptureLabel
from .ingest import Transport
from .tlswire import TlsVersion

NS_PER_SECOND = 1_000_000_000

# Packet counts keyed by (Transport, AppProtocol, is_app_data).
Tally = Counter


def tally(packets: Iterable[ClassifiedPacket]) -> Tally:
    """One pass over a capture's packets; the tally is all the dataset reducers read."""
    return Counter((cp.record.transport, cp.protocol, cp.is_app_data) for cp in packets)


class Scope(enum.Enum):
    ALL_PACKETS = "all_packets"
    APP_DATA_ONLY = "app_data_only"


@dataclass
class ProtocolDistribution:
    counts: dict[tuple[str, str], int]
    total: int
    percentages: dict[tuple[str, str], float]
    scope: Scope

    def transport_totals(self) -> dict[str, tuple[int, float]]:
        sums: Counter = Counter()
        for (transport, _), count in self.counts.items():
            sums[transport] += count
        return {
            t: (c, 100.0 * c / self.total if self.total else 0.0) for t, c in sorted(sums.items())
        }


def protocol_distribution(packets: Tally, scope: Scope = Scope.ALL_PACKETS) -> ProtocolDistribution:
    counts: Counter = Counter()
    for (transport, protocol, is_app_data), n in packets.items():
        if scope is Scope.APP_DATA_ONLY and not is_app_data:
            continue
        counts[(transport.value, protocol.category)] += n
    total = sum(counts.values())
    percentages = {key: 100.0 * count / total for key, count in counts.items()} if total else {}
    return ProtocolDistribution(
        counts=dict(counts), total=total, percentages=percentages, scope=scope
    )


# The five temporal-histogram series.
HIST_TCP_ENCRYPTED = "tcp_encrypted"
HIST_QUIC = "quic"
HIST_DO53 = "do53"
HIST_DOT = "dot"
HIST_HTTP = "http"

_HIST_CATEGORY = {
    ProtoTag.TLS: HIST_TCP_ENCRYPTED,
    ProtoTag.QUIC: HIST_QUIC,
    ProtoTag.DO53: HIST_DO53,
    ProtoTag.DOT: HIST_DOT,
    ProtoTag.HTTP: HIST_HTTP,
}


MAX_BINS = 1_000_000  # each bin costs a list entry per series


class TooManyBins(ValueError):
    """More than ``MAX_BINS`` bins from the first packet to the last."""


@dataclass
class TemporalHistogram:
    bin_width_s: float
    t0_ns: int | None
    series: dict[str, list[int]]

    @property
    def n_bins(self) -> int:
        return max((len(s) for s in self.series.values()), default=0)


# Packet counts keyed by (ts_ns, ProtoTag of an app-data packet, or None).
Timeline = Counter


def timeline(packets: Iterable[ClassifiedPacket]) -> Timeline:
    """One pass over packets for ``temporal_histogram``: each app-data packet
    counts in its protocol's series, and every packet counts for the bins."""
    return Counter((cp.record.ts_ns, cp.protocol.tag if cp.is_app_data else None) for cp in packets)


def temporal_histogram(times: Timeline, bin_width_s: float = 10.0) -> TemporalHistogram:
    """App-data packet counts per series, binned from the first packet of
    ``times`` onward; ``TooManyBins``, before any series grows, if they need
    too many bins, and ``ValueError`` for a width under 1 ns."""
    width_ns = int(bin_width_s * NS_PER_SECOND) if bin_width_s > 0 else 0
    if width_ns < 1:
        raise ValueError("bin_width_s must be at least 1 ns")
    if not times:
        return TemporalHistogram(bin_width_s=bin_width_s, t0_ns=None, series={})
    t0 = min(ts for ts, _ in times)
    n_bins = (max(ts for ts, _ in times) - t0) // width_ns + 1
    if n_bins > MAX_BINS:
        raise TooManyBins(f"a {bin_width_s:g} s bin width needs {n_bins:,} bins; the limit is {MAX_BINS:,}")
    series: dict[str, list[int]] = {}
    for (ts, tag), count in times.items():
        if (category := _HIST_CATEGORY.get(tag)) is None:
            continue
        idx = (ts - t0) // width_ns
        bins = series.setdefault(category, [])
        if len(bins) <= idx:
            bins.extend([0] * (idx + 1 - len(bins)))
        bins[idx] += count
    n = max((len(s) for s in series.values()), default=0)
    for bins in series.values():
        bins.extend([0] * (n - len(bins)))
    return TemporalHistogram(bin_width_s=bin_width_s, t0_ns=t0, series=series)


def packets_per_minute(capture: Tally, label: CaptureLabel) -> float:
    """Packet rate over the labeled duration (at least one second, by the label)."""
    return sum(capture.values()) * 60.0 / label.duration_s


@dataclass(frozen=True)
class PpmRecord:
    app_name: str
    mean_ppm: float
    captures_used: int


Captures = Sequence[tuple[CaptureLabel, Tally]]


def mean_ppm_per_app(captures: Captures) -> list[PpmRecord]:
    per_app: dict[str, list[float]] = defaultdict(list)
    for label, counts in captures:
        per_app[label.app_name].append(packets_per_minute(counts, label))
    return [
        PpmRecord(app_name=app, mean_ppm=sum(values) / len(values), captures_used=len(values))
        for app, values in sorted(per_app.items())
    ]


def dataset_mean_ppm(records: Sequence[PpmRecord]) -> float:
    """Unweighted mean over apps of per-app mean rates."""
    if not records:
        return 0.0
    return sum(r.mean_ppm for r in records) / len(records)


@dataclass
class EncryptionBreakdown:
    tcp_encrypted_counts: dict[TlsVersion, int]
    tcp_encrypted_pct: dict[TlsVersion, float]
    tcp_encrypted_total: int
    quic_total: int
    quic_share_pct: float
    dot_total: int
    dot_pct_of_total: float
    dot_version_counts: dict[TlsVersion, int]
    dot_version_pct: dict[TlsVersion, float]
    total_app_data: int


def encryption_breakdown(packets: Tally) -> EncryptionBreakdown:
    """Version shares of TCP-encrypted traffic plus QUIC and DoT shares.

    The TCP-encrypted denominator is every TLS or DoT app-data packet over
    TCP; QUIC and DoT shares are of all app-data packets.
    """
    tcp_counts: Counter = Counter()
    dot_counts: Counter = Counter()
    quic_total = 0
    dot_total = 0
    total_app_data = 0
    for (transport, protocol, is_app_data), n in packets.items():
        if not is_app_data:
            continue
        total_app_data += n
        tag = protocol.tag
        if tag in (ProtoTag.TLS, ProtoTag.DOT) and transport is Transport.TCP:
            tcp_counts[protocol.tls_version] += n
        if tag is ProtoTag.QUIC:
            quic_total += n
        elif tag is ProtoTag.DOT:
            dot_total += n
            dot_counts[protocol.tls_version] += n
    tcp_total = sum(tcp_counts.values())
    return EncryptionBreakdown(
        tcp_encrypted_counts=dict(tcp_counts),
        tcp_encrypted_pct={v: 100.0 * c / tcp_total for v, c in tcp_counts.items()},
        tcp_encrypted_total=tcp_total,
        quic_total=quic_total,
        quic_share_pct=100.0 * quic_total / total_app_data if total_app_data else 0.0,
        dot_total=dot_total,
        dot_pct_of_total=100.0 * dot_total / total_app_data if total_app_data else 0.0,
        dot_version_counts=dict(dot_counts),
        dot_version_pct={v: 100.0 * c / dot_total for v, c in dot_counts.items()},
        total_app_data=total_app_data,
    )


ENCRYPTED_TAGS = frozenset({ProtoTag.TLS, ProtoTag.DOT, ProtoTag.QUIC})

Node = tuple[int, str]


@dataclass
class FlowGraph:
    nodes: list[Node]
    links: list[tuple[Node, Node, int]]


def flow_graph(packets: Tally) -> FlowGraph:
    """Sankey of app-data packets: transport, then encryption status, then protocol.

    The interior stage conserves flow by construction.
    """
    links: Counter = Counter()
    for (transport, protocol, is_app_data), n in packets.items():
        if not is_app_data:
            continue
        status = "Encrypted" if protocol.tag in ENCRYPTED_TAGS else "Cleartext"
        stages = ((0, transport.value), (1, status), (2, protocol.category))
        links[(stages[0], stages[1])] += n
        links[(stages[1], stages[2])] += n
    nodes = sorted({node for pair in links for node in pair})
    ordered_links = [(src, dst, count) for (src, dst), count in sorted(links.items())]
    return FlowGraph(nodes=nodes, links=ordered_links)


class QuicBehavior(enum.Enum):
    CONSISTENT_BOTH = "ConsistentBoth"
    ADOPTED_IN_B = "AdoptedInB"
    PRESENT_IN_A_ONLY_IN_B_ABSENT = "PresentInAOnlyInB_Absent"
    ABSENT_BOTH = "AbsentBoth"


def quic_behavior_for(count_a: int, count_b: int) -> QuicBehavior:
    """Total over the sign pair of per-dataset QUIC packet counts."""
    if count_a > 0 and count_b > 0:
        return QuicBehavior.CONSISTENT_BOTH
    if count_a > 0:
        return QuicBehavior.PRESENT_IN_A_ONLY_IN_B_ABSENT
    if count_b > 0:
        return QuicBehavior.ADOPTED_IN_B
    return QuicBehavior.ABSENT_BOTH


class NoCommonApps(ValueError):
    """The two datasets share no app names."""


@dataclass(frozen=True)
class PpmComparison:
    app_name: str
    ppm_a: float
    ppm_b: float

    @property
    def ratio_b_over_a(self) -> float | None:
        return self.ppm_b / self.ppm_a if self.ppm_a else None


@dataclass(frozen=True)
class DnsEvolution:
    do53_pct_a: float
    dot_pct_a: float
    do53_pct_b: float
    dot_pct_b: float


@dataclass
class ComparisonReport:
    common_apps: tuple[str, ...]
    distribution_a: ProtocolDistribution
    distribution_b: ProtocolDistribution
    ppm_rows: list[PpmComparison]
    mean_ppm_a: float
    mean_ppm_b: float
    encryption_bihistogram: dict[str, dict[str, tuple[int, int]]]
    quic_behavior: dict[str, QuicBehavior]
    dns_evolution: DnsEvolution

    @property
    def ppm_ratio_a_over_b(self) -> float | None:
        return self.mean_ppm_a / self.mean_ppm_b if self.mean_ppm_b else None


def compare_datasets(a: Captures, b: Captures, common_only: bool = True) -> ComparisonReport:
    """Cross-dataset report over the apps present in both datasets.

    Per-app fields are keyed by the common apps; ``common_only`` controls
    whether the dataset-level distributions also drop non-common apps.
    """
    common_set = {label.app_name for label, _ in a} & {label.app_name for label, _ in b}
    if not common_set:
        raise NoCommonApps("datasets share no app names")
    common = tuple(sorted(common_set))
    a_common = [(label, counts) for label, counts in a if label.app_name in common_set]
    b_common = [(label, counts) for label, counts in b if label.app_name in common_set]

    distribution_a = protocol_distribution(merged(a_common if common_only else a), Scope.APP_DATA_ONLY)
    distribution_b = protocol_distribution(merged(b_common if common_only else b), Scope.APP_DATA_ONLY)

    ppm_a = {r.app_name: r for r in mean_ppm_per_app(a_common)}
    ppm_b = {r.app_name: r for r in mean_ppm_per_app(b_common)}
    ppm_rows = [
        PpmComparison(app_name=app, ppm_a=ppm_a[app].mean_ppm, ppm_b=ppm_b[app].mean_ppm)
        for app in common
    ]
    mean_a = dataset_mean_ppm(list(ppm_a.values()))
    mean_b = dataset_mean_ppm(list(ppm_b.values()))

    per_app_a = _per_app(a_common)
    per_app_b = _per_app(b_common)
    bihistogram: dict[str, dict[str, tuple[int, int]]] = {}
    for app in common:
        versions_a = _tls_versions(per_app_a[app])
        versions_b = _tls_versions(per_app_b[app])
        bihistogram[app] = {
            version: (versions_a[version], versions_b[version])
            for version in sorted(versions_a.keys() | versions_b.keys())
        }

    quic_behavior = {
        app: quic_behavior_for(
            _count(per_app_a[app], ProtoTag.QUIC), _count(per_app_b[app], ProtoTag.QUIC)
        )
        for app in common
    }

    return ComparisonReport(
        common_apps=common,
        distribution_a=distribution_a,
        distribution_b=distribution_b,
        ppm_rows=ppm_rows,
        mean_ppm_a=mean_a,
        mean_ppm_b=mean_b,
        encryption_bihistogram=bihistogram,
        quic_behavior=quic_behavior,
        dns_evolution=_dns_evolution(merged(a_common), merged(b_common)),
    )


def merged(captures: Captures) -> Tally:
    """The captures' tallies summed into one."""
    total: Tally = Counter()
    for _, counts in captures:
        total.update(counts)
    return total


def _per_app(captures: Captures) -> dict[str, Tally]:
    out: dict[str, Tally] = defaultdict(Counter)
    for label, counts in captures:
        out[label.app_name].update(counts)
    return out


def _count(packets: Tally, tag: ProtoTag, app_data_only: bool = False) -> int:
    return sum(
        n for (_, protocol, is_app_data), n in packets.items()
        if protocol.tag is tag and (is_app_data or not app_data_only)
    )


def _tls_versions(packets: Tally) -> Counter:
    """TLS-version packet counts over TLS and DoT (both TCP-only tags)."""
    versions: Counter = Counter()
    for (_, protocol, _), n in packets.items():
        if protocol.tag in (ProtoTag.TLS, ProtoTag.DOT):
            versions[protocol.tls_version.label] += n
    return versions


def _dns_evolution(a: Tally, b: Tally) -> DnsEvolution:
    do53_a, dot_a = _count(a, ProtoTag.DO53, True), _count(a, ProtoTag.DOT, True)
    do53_b, dot_b = _count(b, ProtoTag.DO53, True), _count(b, ProtoTag.DOT, True)
    return DnsEvolution(
        do53_pct_a=_pct(do53_a, do53_a + dot_a),
        dot_pct_a=_pct(dot_a, do53_a + dot_a),
        do53_pct_b=_pct(do53_b, do53_b + dot_b),
        dot_pct_b=_pct(dot_b, do53_b + dot_b),
    )


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0
