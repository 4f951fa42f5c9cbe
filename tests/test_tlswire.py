import random

import pytest
from refdissect import client_hello_fields, server_hello_fields, tls_record_fields

from appcap.synth import build_client_hello, build_server_hello, build_sslv2_client_hello
from appcap.tlswire import (
    Desync,
    NotTls,
    TlsVersion,
    parse_tls_records,
    resolve_tls_version,
)

RANDOM = bytes(range(32))


class TestParseRecords:
    def test_exact_length_application_data(self):
        records, remainder = parse_tls_records(bytes([0x17, 0x03, 0x03, 0x00, 0x05]) + b"12345")
        assert len(records) == 1
        assert records[0].content_type == 23
        assert remainder == b""

    def test_partial_record_carried_over(self):
        records, remainder = parse_tls_records(bytes([0x16, 0x03, 0x03]))
        assert records == []
        assert remainder == bytes([0x16, 0x03, 0x03])

    def test_partial_header_one_byte(self):
        records, remainder = parse_tls_records(b"\x17")
        assert records == []
        assert remainder == b"\x17"

    def test_empty_input(self):
        assert parse_tls_records(b"") == ([], b"")

    def test_multiple_records_one_slice(self):
        data = (
            bytes([0x14, 0x03, 0x03, 0x00, 0x01, 0x01])
            + bytes([0x17, 0x03, 0x03, 0x00, 0x02]) + b"ab"
        )
        records, remainder = parse_tls_records(data)
        assert [r.content_type for r in records] == [20, 23]
        assert remainder == b""

    def test_not_tls_on_http(self):
        with pytest.raises(NotTls):
            parse_tls_records(b"GET / HTTP/1.1\r\n")

    def test_not_tls_on_bad_version_major(self):
        with pytest.raises(NotTls):
            parse_tls_records(bytes([0x16, 0x04, 0x00, 0x00, 0x01, 0x00]))

    def test_desync_on_absurd_length(self):
        with pytest.raises(Desync):
            parse_tls_records(bytes([0x17, 0x03, 0x03, 0xFF, 0xFF]))

    def test_desync_midstream_keeps_parsed_records(self):
        good = bytes([0x17, 0x03, 0x03, 0x00, 0x01]) + b"z"
        with pytest.raises(Desync) as excinfo:
            parse_tls_records(good + b"\x00\x11\x22\x33\x44")
        assert len(excinfo.value.records) == 1

    def test_client_hello_supported_versions_parsed(self):
        # Crafted per the handshake wire layout; field offsets are checked
        # against the reference dissector before trusting the parser.
        record = build_client_hello(RANDOM, supported_versions=(0x0304, 0x0303))
        ref_rec = tls_record_fields(record)
        assert ref_rec["content_type"] == 22
        ref = client_hello_fields(ref_rec["body"])
        assert ref["legacy_version"] == 0x0303
        assert ref["random"] == RANDOM
        assert ref["supported_versions"] == [0x0304, 0x0303]

        records, remainder = parse_tls_records(record)
        assert remainder == b""
        view = records[0]
        assert view.handshake_type == 1
        assert view.legacy_version == 0x0303
        assert view.random == RANDOM
        assert view.supported_versions == (0x0304, 0x0303)

    def test_server_hello_with_extension(self):
        record = build_server_hello(RANDOM, selected_version=0x0304)
        ref = server_hello_fields(tls_record_fields(record)["body"])
        assert ref["supported_version"] == 0x0304

        view = parse_tls_records(record)[0][0]
        assert view.handshake_type == 2
        assert view.supported_versions == (0x0304,)

    def test_sslv2_record(self):
        record = build_sslv2_client_hello(random.Random(3))
        records, remainder = parse_tls_records(record)
        assert remainder == b""
        view = records[0]
        assert view.is_sslv2
        assert view.handshake_type == 1
        assert view.legacy_version == 0x0002

    def test_sslv2_partial(self):
        records, remainder = parse_tls_records(b"\x80\x40")
        assert records == []
        assert remainder == b"\x80\x40"

    def test_sslv2_bad_msg_type_not_tls(self):
        with pytest.raises(NotTls):
            parse_tls_records(b"\x80\x40\x99" + b"\x00" * 8)

    def test_record_spanning_split(self):
        record = build_client_hello(RANDOM, supported_versions=(0x0304,))
        first, second = record[:20], record[20:]
        records, remainder = parse_tls_records(first)
        assert records == [] and remainder == first
        records, remainder = parse_tls_records(remainder + second)
        assert records[0].handshake_type == 1
        assert remainder == b""


class TestResolveVersion:
    def test_server_hello_extension_wins(self):
        # TLS 1.3 downgrade-compatible encoding: legacy 0x0303 plus a
        # supported-versions extension selecting 0x0304.
        sh = parse_tls_records(build_server_hello(RANDOM, selected_version=0x0304))[0][0]
        assert resolve_tls_version(None, sh) is TlsVersion.TLS1_3

    def test_server_hello_legacy_mapping(self):
        for legacy, expected in [
            (0x0303, TlsVersion.TLS1_2),
            (0x0302, TlsVersion.TLS1_1),
            (0x0301, TlsVersion.TLS1_0),
            (0x0300, TlsVersion.SSLV3),
        ]:
            sh = parse_tls_records(build_server_hello(RANDOM, legacy_version=legacy))[0][0]
            assert resolve_tls_version(None, sh) is expected

    def test_extension_precedence_over_any_legacy(self):
        for legacy in (0x0300, 0x0301, 0x0302, 0x0303):
            sh = parse_tls_records(
                build_server_hello(RANDOM, legacy_version=legacy, selected_version=0x0304)
            )[0][0]
            assert resolve_tls_version(None, sh) is TlsVersion.TLS1_3

    def test_client_hello_legacy_fallback(self):
        ch = parse_tls_records(build_client_hello(RANDOM, legacy_version=0x0301))[0][0]
        assert resolve_tls_version(ch, None) is TlsVersion.TLS1_0

    def test_client_hello_max_supported(self):
        ch = parse_tls_records(
            build_client_hello(RANDOM, supported_versions=(0x0302, 0x0304, 0x0303))
        )[0][0]
        assert resolve_tls_version(ch, None) is TlsVersion.TLS1_3

    def test_client_hello_grease_filtered(self):
        ch = parse_tls_records(
            build_client_hello(RANDOM, supported_versions=(0x7A7A, 0x0303))
        )[0][0]
        assert resolve_tls_version(ch, None) is TlsVersion.TLS1_2

    def test_unmappable_values_unknown(self):
        ch = parse_tls_records(build_client_hello(RANDOM, legacy_version=0x0499))[0][0]
        assert resolve_tls_version(ch, None) is TlsVersion.UNKNOWN

    def test_server_hello_preferred_over_client(self):
        ch = parse_tls_records(
            build_client_hello(RANDOM, supported_versions=(0x0304,))
        )[0][0]
        sh = parse_tls_records(build_server_hello(RANDOM, legacy_version=0x0303))[0][0]
        assert resolve_tls_version(ch, sh) is TlsVersion.TLS1_2

    def test_sslv2_hint(self):
        ch = parse_tls_records(build_sslv2_client_hello(random.Random(1)))[0][0]
        assert resolve_tls_version(ch, None) is TlsVersion.SSLV2

    def test_requires_at_least_one_hello(self):
        with pytest.raises(ValueError):
            resolve_tls_version(None, None)
