"""NSS-format SSL key log parsing and capture coverage measurement.

The key log is line-oriented ``LABEL <client_random hex> <secret hex>`` text;
entries are indexed by the 32-byte ClientHello random so TLS flows in a
capture can be matched to their logged secrets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .classify import FlowKey, FlowState
from .dataset import KEYLOG_PREFIX, KEYLOG_SUFFIX, CaptureLabel


@dataclass(frozen=True)
class KeyLogEntry:
    label: str
    client_random: bytes
    secret: bytes

    def __post_init__(self):
        if len(self.client_random) != 32:
            raise ValueError("client_random must be exactly 32 bytes")
        if not self.secret:
            raise ValueError("secret must be non-empty")


@dataclass
class KeyIndex:
    by_random: dict[bytes, list[KeyLogEntry]] = field(default_factory=dict)
    malformed_lines: int = 0

    def add(self, entry: KeyLogEntry) -> None:
        self.by_random.setdefault(entry.client_random, []).append(entry)

    def __contains__(self, client_random: bytes) -> bool:
        return client_random in self.by_random


def read_keylog(data: bytes) -> KeyIndex:
    """Parse a key log file's bytes; bytes that are not UTF-8 spoil only their own line."""
    return parse_keylog(data.decode("utf-8", errors="replace"))


def parse_keylog(text: str) -> KeyIndex:
    """Tolerant parse: comments and blanks ignored, bad lines tallied.

    A line holding U+FFFD, which ``read_keylog`` puts in place of bytes that
    are not UTF-8, is malformed.
    """
    index = KeyIndex()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3 or "\ufffd" in line:
            index.malformed_lines += 1
            continue
        label, random_hex, secret_hex = fields
        if len(random_hex) != 64:
            index.malformed_lines += 1
            continue
        try:
            client_random = bytes.fromhex(random_hex)
            secret = bytes.fromhex(secret_hex)
        except ValueError:
            index.malformed_lines += 1
            continue
        if not secret:
            index.malformed_lines += 1
            continue
        index.add(KeyLogEntry(label=label, client_random=client_random, secret=secret))
    return index


def render_keylog(entries: Sequence[KeyLogEntry]) -> str:
    lines = [f"{e.label} {e.client_random.hex()} {e.secret.hex()}" for e in entries]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class CoverageReport:
    tls_flows: int
    flows_with_client_hello: int
    flows_with_keys: int
    coverage_fraction: float


def key_coverage(index: KeyIndex, flow_states: Mapping[FlowKey, FlowState]) -> CoverageReport:
    """How many TLS/DoT flows with an observed ClientHello have logged keys.

    ``flow_states`` is the table that classified the capture; a flow counts
    as TLS when any of its packets was tagged TLS or DoT. Mid-stream flows
    (no ClientHello seen) cannot be matched by random and are excluded from
    the denominator; they still count as TLS flows.
    """
    tls_flows = 0
    with_hello = 0
    with_keys = 0
    for state in flow_states.values():
        if not state.tls_seen:
            continue
        tls_flows += 1
        if state.client_random is None:
            continue
        with_hello += 1
        if state.client_random in index:
            with_keys += 1
    return CoverageReport(
        tls_flows=tls_flows,
        flows_with_client_hello=with_hello,
        flows_with_keys=with_keys,
        coverage_fraction=with_keys / max(with_hello, 1),
    )


def keylog_filename_for(label: CaptureLabel) -> str:
    return f"{KEYLOG_PREFIX}{label.stem}{KEYLOG_SUFFIX}"
