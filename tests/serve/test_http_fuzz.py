"""Hypothesis-drawn malformed ``POST /compile`` requests over raw sockets.

A pool-backed daemon receives random bytes, truncated JSON, JSON
nested past the decoder's recursion limit and bodies that are not
UTF-8, each under a ``Content-Length`` that matches the body, exceeds
it, falls short of it, or exceeds ``MAX_BODY_BYTES``.  Every answer
must be a complete JSON response with a 4xx status (429 included):
never a 5xx, never a dropped connection.  A good request sent after
each one must still get its 200.
"""

import json
import socket
import urllib.parse

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve.daemon import MAX_BODY_BYTES, ServeDaemon
from repro.serve.service import ServeConfig

from .conftest import BENCHMARK_FINGERPRINT, bench_doc, post_compile

#: request documents whose encodings the strategies cut and corrupt
_DOCS = [
    json.dumps(bench_doc()).encode(),
    json.dumps({"table": [0, 1, 3, 2], "n_outputs": 2, "budget": "fast"}).encode(),
    json.dumps({"benchmark": "cos", "bits": 6, "architecture": "bto-normal"}).encode(),
]


@st.composite
def truncated_json(draw):
    doc = draw(st.sampled_from(_DOCS))
    return doc[: draw(st.integers(0, len(doc) - 1))]


@st.composite
def too_deep(draw):
    opener = draw(st.sampled_from([b"[", b'{"a":', b'{"benchmark":[']))
    return opener * draw(st.integers(2_000, 100_000))


@st.composite
def not_utf8(draw):
    doc = draw(st.sampled_from(_DOCS))
    at = draw(st.integers(0, len(doc)))
    bad = draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80"]))
    return doc[:at] + bad + doc[at:]


bodies = st.one_of(
    st.binary(max_size=256), truncated_json(), too_deep(), not_utf8()
)


@st.composite
def content_lengths(draw, body):
    mode = draw(st.sampled_from(["exact", "above", "below", "over-cap"]))
    if mode == "exact":
        return len(body)
    if mode == "above":
        return len(body) + draw(st.integers(1, 4096))
    if mode == "below":
        return draw(st.integers(0, max(0, len(body) - 1)))
    return MAX_BODY_BYTES + draw(st.integers(1, 1 << 20))


@st.composite
def requests(draw):
    body = draw(bodies)
    return draw(content_lengths(body)), body


def exchange(url, content_length, body):
    """Send one raw POST, half-close, read to EOF: ``(status, headers, body)``.

    A connection the daemon drops without a complete response raises
    (``ConnectionResetError``) or returns an empty response, which the
    status-line parse below turns into a failure.
    """
    address = urllib.parse.urlsplit(url)
    head = (
        "POST /compile HTTP/1.1\r\n"
        f"Host: {address.netloc}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "Connection: close\r\n\r\n"
    ).encode()
    with socket.create_connection((address.hostname, address.port), 10) as sock:
        sock.sendall(head + body)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, payload = response.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1."), f"no response: {response[:80]!r}"
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert len(payload) == int(headers["content-length"]), "truncated response"
    return int(status_line.split()[1]), headers, payload


@pytest.fixture(scope="module")
def daemon():
    with ServeDaemon(ServeConfig(jobs=1, batch_window=0.0), port=0) as running:
        yield running


class TestMalformedRequests:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(requests())
    def test_refused_with_json_4xx_and_the_daemon_serves_on(self, daemon, raw_request):
        content_length, body = raw_request
        status, headers, payload = exchange(daemon.url, content_length, body)
        assert 400 <= status < 500, (status, payload[:200])
        assert headers["content-type"] == "application/json"
        assert json.loads(payload)["error"]

        status, envelope, _ = post_compile(daemon.url, bench_doc())
        assert status == 200
        assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT
