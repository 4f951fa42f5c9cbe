"""``dataset.attribute_background`` folds any chunking of a capture's packets
in one pass, and must count exactly what the two-pass reference in
``helpers`` tags: the same packets per cause, and the same timeline of the
attributed packets."""

import itertools
import random
import struct
from collections import Counter

import pytest
from helpers import attribute_background_two_pass, classify_capture, mk_record
from hypothesis import given, settings
from hypothesis import strategies as st

from appcap.analytics import timeline
from appcap.dataset import CONNECTIVITY_HTTP_HOST, BackgroundKind, attribute_background
from appcap.ingest import Transport
from appcap.synth import (
    build_app_data,
    build_client_hello,
    build_dns_query,
    build_dns_response,
    build_http_204,
    build_http_get,
)

HTTP, DO53, DOT, NONE = (
    BackgroundKind.CONNECTIVITY_HTTP,
    BackgroundKind.CONNECTIVITY_DO53,
    BackgroundKind.SYSTEM_DOT,
    BackgroundKind.NONE,
)
CLIENTS = {4: "10.0.2.16", 6: "2001:db8::16"}
WEB = {4: "203.0.113.80", 6: "2001:db8::80"}
RESOLVERS = {4: ("8.8.8.8", "8.8.4.4", "1.1.1.1"), 6: ("2001:4860:4860::8888", "2606:4700:4700::1111")}


def unparseable_dns(txn_id: int) -> bytes:
    """A query that the classifier takes for DNS but whose name does not
    parse: the first label's length has the reserved 0x40 bit set."""
    return struct.pack(">HHHHHH", txn_id, 0x0100, 1, 0, 0, 0) + b"\x41a\x00" + struct.pack(">HH", 1, 1)


def packet(ts, server, port, payload=b"", *, to_server=True, udp=False, family=4, client_port=40000):
    """One packet between the client of ``family`` and ``server``:``port``."""
    client = (CLIENTS[family], client_port)
    ends = (client, (server, port)) if to_server else ((server, port), client)
    (src_ip, src_port), (dst_ip, dst_port) = ends
    return mk_record(ts_ns=ts, src_ip=src_ip, src_port=src_port, dst_ip=dst_ip, dst_port=dst_port,
                     transport=Transport.UDP if udp else Transport.TCP, payload=payload)


def dns_over_tcp(msg: bytes) -> bytes:
    return struct.pack(">H", len(msg)) + msg


# Each scenario: its records, and the reference's counts for them.
SCENARIOS = {
    "packets_without_payload_before_first_request": (
        [packet(0, WEB[4], 80), packet(1, WEB[4], 80, to_server=False),
         packet(2, WEB[4], 80, build_http_get(CONNECTIVITY_HTTP_HOST)),
         packet(3, WEB[4], 80, build_http_204(), to_server=False), packet(4, WEB[4], 80)],
        {HTTP: 5},
    ),
    "response_before_request": (
        [packet(0, WEB[4], 80, build_http_204(), to_server=False),
         packet(1, WEB[4], 80, build_http_get(CONNECTIVITY_HTTP_HOST))],
        {HTTP: 2},
    ),
    "host_from_first_request": (
        [packet(0, WEB[4], 80, build_http_get("example.com")),
         packet(1, WEB[4], 80, build_http_get(CONNECTIVITY_HTTP_HOST)),
         packet(2, WEB[4], 80, build_http_get(CONNECTIVITY_HTTP_HOST), client_port=40001),
         packet(3, WEB[4], 80, build_http_get("example.com"), client_port=40001)],
        {NONE: 2, HTTP: 2},
    ),
    "port_80_without_http": (
        [packet(0, WEB[4], 80), packet(1, WEB[4], 80, build_client_hello(bytes(32))),
         packet(2, WEB[4], 80, b"\x00junk", to_server=False, client_port=40001)],
        {NONE: 3},
    ),
    "non_http_payload_before_request": (
        [packet(0, WEB[4], 80, b"\x00junk"), packet(1, WEB[4], 80, build_http_get(CONNECTIVITY_HTTP_HOST))],
        {HTTP: 2},
    ),
    "dns_id_shared_by_two_flows": (
        [packet(0, "8.8.8.8", 53, build_dns_query(7, "www.google.com"), udp=True),
         packet(1, "8.8.8.8", 53, build_dns_query(7, "api.example.com"), udp=True, client_port=40001),
         packet(2, "8.8.8.8", 53, build_dns_response(7, "api.example.com"), udp=True,
                to_server=False, client_port=40001),
         packet(3, "8.8.8.8", 53, build_dns_response(7, "www.google.com"), udp=True, to_server=False)],
        {DO53: 2, NONE: 2},
    ),
    "unparseable_name_after_parseable": (
        [packet(0, "8.8.8.8", 53, build_dns_query(5, CONNECTIVITY_HTTP_HOST), udp=True),
         packet(1, "8.8.8.8", 53, unparseable_dns(5), udp=True),
         packet(2, "8.8.8.8", 53, unparseable_dns(6), udp=True)],
        {DO53: 2, NONE: 1},
    ),
    "unparseable_name_before_parseable": (
        [packet(0, "8.8.8.8", 53, unparseable_dns(5), udp=True),
         packet(1, "8.8.8.8", 53, build_dns_query(5, CONNECTIVITY_HTTP_HOST), udp=True)],
        {DO53: 2},
    ),
    "dns_over_tcp_response_first": (
        [packet(0, "8.8.4.4", 53, dns_over_tcp(build_dns_response(9, "www.google.com")), to_server=False),
         packet(1, "8.8.4.4", 53, dns_over_tcp(build_dns_query(9, "www.google.com")))],
        {DO53: 2},
    ),
    "dot_to_system_and_other_resolvers": (
        [packet(0, "8.8.8.8", 853, build_client_hello(bytes(32))), packet(1, "8.8.8.8", 853, to_server=False),
         packet(2, "8.8.4.4", 853, build_app_data(random.Random(1))),
         packet(3, "1.1.1.1", 853, build_client_hello(bytes(32))), packet(4, "1.1.1.1", 853)],
        {DOT: 3, NONE: 2},
    ),
    "ipv6": (
        [packet(0, WEB[6], 80, family=6),
         packet(1, WEB[6], 80, build_http_get(CONNECTIVITY_HTTP_HOST), family=6),
         packet(2, RESOLVERS[6][0], 53, build_dns_query(3, "www.google.com"), udp=True, family=6),
         packet(3, RESOLVERS[6][0], 853, build_client_hello(bytes(32)), family=6),
         packet(4, RESOLVERS[6][1], 443, build_app_data(random.Random(2)), family=6)],
        {HTTP: 2, DO53: 1, NONE: 2},
    ),
}


def chunked(packets, data):
    """``packets`` flattened from a drawn chunking, as ``cli`` feeds them."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(packets)), max_size=4), label="cuts"))
    bounds = [0, *cuts, len(packets)]
    return itertools.chain.from_iterable(packets[a:b] for a, b in zip(bounds, bounds[1:]))


def assert_matches_reference(packets, data) -> Counter:
    tags = attribute_background_two_pass(packets)
    counts, times = attribute_background(chunked(packets, data))
    assert counts == Counter(tags)
    assert times == timeline(cp for cp, tag in zip(packets, tags) if tag is not NONE)
    return counts


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scenario_matches_two_pass_reference(name, data):
    records, expected = SCENARIOS[name]
    assert assert_matches_reference(classify_capture(records), data) == Counter(expected)


@st.composite
def records(draw):
    family = draw(st.sampled_from((4, 6)))
    resolver = draw(st.sampled_from(RESOLVERS[family]))
    txn = draw(st.integers(1, 2))
    name = draw(st.sampled_from(("www.google.com", CONNECTIVITY_HTTP_HOST, "a.example")))
    host = draw(st.sampled_from((CONNECTIVITY_HTTP_HOST, "example.com")))
    server, port, payload, udp = draw(st.sampled_from((
        (WEB[family], 80, build_http_get(host), False),
        (WEB[family], 80, build_http_204(), False),
        (WEB[family], 80, b"", False),
        (WEB[family], 80, b"\x00junk", False),
        (resolver, 53, build_dns_query(txn, name), True),
        (resolver, 53, build_dns_response(txn, name), True),
        (resolver, 53, unparseable_dns(txn), True),
        (resolver, 53, dns_over_tcp(build_dns_query(txn, name)), False),
        (resolver, 853, build_client_hello(bytes(32)), False),
        (resolver, 853, b"", False),
        (resolver, 443, build_app_data(random.Random(txn)), False),
    )))
    return packet(draw(st.integers(0, 9)), server, port, payload, udp=udp, family=family,
                  to_server=draw(st.booleans()), client_port=draw(st.sampled_from((40000, 40001))))


@settings(max_examples=300, deadline=None)
@given(capture=st.lists(records(), max_size=24), data=st.data())
def test_random_captures_match_two_pass_reference(capture, data):
    assert_matches_reference(classify_capture(capture), data)
