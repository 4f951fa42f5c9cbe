"""Packet-capture analysis toolkit for labeled mobile-app traffic datasets.

Reads classic pcap captures, classifies each packet's application protocol
(TLS versions, QUIC, plain and encrypted DNS, HTTP), correlates NSS SSL key
logs, and computes per-dataset and cross-dataset statistics. A deterministic
fixture synthesizer generates calibrated captures for testing.
"""

__version__ = "0.1.0"

from .analytics import (
    ComparisonReport,
    NoCommonApps,
    ProtocolDistribution,
    Scope,
    TemporalHistogram,
    compare_datasets,
    encryption_breakdown,
    flow_graph,
    mean_ppm_per_app,
    merged,
    protocol_distribution,
    tally,
    temporal_histogram,
    timeline,
)
from .classify import (
    AppProtocol,
    ClassifiedPacket,
    FlowKey,
    FlowState,
    FlowTable,
    ProtoTag,
    detect_quic,
)
from .dataset import (
    BackgroundKind,
    CaptureLabel,
    DatasetManifest,
    attribute_background,
    parse_capture_filename,
    render_capture_filename,
    scan_dataset,
    scan_directory,
    truncate_packets,
)
from .ingest import (
    CaptureError,
    CaptureStream,
    PacketRecord,
    RawFrame,
    Transport,
    TruncatedFrame,
    TruncatedHeader,
    UnknownMagic,
    UnsupportedLinkType,
    decode_stream,
    read_capture,
)
from .keylog import (
    CoverageReport,
    KeyIndex,
    KeyLogEntry,
    key_coverage,
    keylog_filename_for,
    parse_keylog,
    read_keylog,
)
from .tlswire import TlsRecordView, TlsVersion, parse_tls_records, resolve_tls_version
