"""Serving tier: the HTTP transport on raw sockets.

``http.client`` never sends a malformed request, so these tests write
bytes directly.  Bytes that cannot be framed as a request get exactly
one JSON error response with ``Connection: close`` and then a clean
close (FIN, not a reset); nothing reaches asyncio's unhandled-exception
log; and ``/stats`` route labels stay bounded whatever paths clients
send.  A hypothesis property fuzzes the whole byte stream.
"""

import json
import logging
import re
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import FairModel
from repro.ml import GaussianNaiveBayes
from repro.serving import FairnessService, ModelRegistry, serve_in_thread
from repro.serving.service import MAX_BODY_BYTES, MAX_HEADER_LINES

N_FEATURES = 3


class _ErrorLog(logging.Handler):
    """Collects ERROR records, from any thread."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def server():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(120, N_FEATURES))
    y = (X[:, 0] > 0).astype(np.int64)
    registry = ModelRegistry()
    registry.register(
        "m", FairModel(GaussianNaiveBayes().fit(X, y), "SP <= 0.1"),
    )
    log = _ErrorLog()
    asyncio_logger = logging.getLogger("asyncio")
    asyncio_logger.addHandler(log)
    try:
        with serve_in_thread(FairnessService(registry=registry)) as handle:
            handle.errors = log.records
            yield handle
    finally:
        asyncio_logger.removeHandler(log)


def exchange(port, data):
    """Send ``data``, half-close, and read until the server closes.

    A reset instead of a clean close raises ``ConnectionResetError``.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_responses(raw):
    """``[(status, headers, payload)]``; asserts each is well formed."""
    responses = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head: {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        match = re.fullmatch(r"HTTP/1\.1 (\d{3}) \S.*", status_line)
        assert match, status_line
        headers = {}
        for line in lines:
            key, sep, value = line.partition(": ")
            assert sep, line
            headers[key.lower()] = value
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        assert len(body) == length
        payload = json.loads(body)
        assert isinstance(payload, dict)
        responses.append((int(match.group(1)), headers, payload))
    return responses


def assert_one_closing_error(server, data, status):
    (response,) = parse_responses(exchange(server.port, data))
    assert response[0] == status
    assert response[1]["connection"] == "close"
    assert "error" in response[2]
    assert server.errors == []


def post(headers, body=b""):
    return (b"POST /predict HTTP/1.1\r\nHost: x\r\n" + headers
            + b"\r\n" + body)


class TestFraming:
    @pytest.mark.parametrize("value", [
        b"abc", b"-5", b"+5", b"1_000", b"0x10", b"", b"\xb2", b"5 5",
    ])
    def test_non_decimal_content_length_is_400(self, server, value):
        assert_one_closing_error(
            server, post(b"Content-Length: " + value + b"\r\n", b"{}"), 400,
        )

    def test_conflicting_content_lengths_are_400(self, server):
        headers = b"Content-Length: 2\r\nContent-Length: 20\r\n"
        assert_one_closing_error(server, post(headers, b"{}"), 400)

    def test_malformed_request_line_is_400(self, server):
        assert_one_closing_error(server, b"GARBAGE\r\n\r\n", 400)

    def test_overlong_request_line_is_431(self, server):
        line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        assert_one_closing_error(server, line, 431)

    def test_overlong_header_line_is_431(self, server):
        headers = b"X-Big: " + b"a" * 70_000 + b"\r\n"
        assert_one_closing_error(server, post(headers), 431)

    def test_header_line_bound(self, server):
        def request(n):
            lines = b"".join(b"X-%d: 1\r\n" % i for i in range(n))
            return b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"

        (ok,) = parse_responses(exchange(server.port,
                                         request(MAX_HEADER_LINES)))
        assert ok[0] == 200
        assert_one_closing_error(server, request(MAX_HEADER_LINES + 1), 431)

    def test_body_over_the_cap_is_413(self, server):
        headers = b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1)
        assert_one_closing_error(server, post(headers, b"{}"), 413)
        headers = b"Content-Length: " + b"9" * 5000 + b"\r\n"
        assert_one_closing_error(server, post(headers), 413)

    def test_refused_body_still_gets_a_clean_close(self, server):
        # the server reads and drops the body it refused: closing with
        # unread input would reset the connection under the response
        headers = b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1)
        assert_one_closing_error(server, post(headers, b"x" * 4_000_000), 413)

    def test_leading_zeros_are_a_plain_decimal(self, server):
        body = b'{"model": "m", "rows": [[0, 0, 0]]}'
        data = post(b"Content-Length: 000%d\r\n" % len(body), body)
        (response,) = parse_responses(exchange(server.port, data))
        assert response[0] == 200

    @pytest.mark.parametrize("encoding", [b"chunked", b"gzip", b""])
    def test_transfer_encoding_is_501(self, server, encoding):
        # the chunk bytes must not be read as the next request line
        body = b"5\r\nhello\r\n0\r\n\r\n"
        assert_one_closing_error(
            server, post(b"Transfer-Encoding: " + encoding + b"\r\n", body),
            501,
        )

    def test_well_formed_keep_alive_still_pipelines(self, server):
        one = b"GET /healthz HTTP/1.1\r\n\r\n"
        statuses = [r[0] for r in parse_responses(
            exchange(server.port, one * 3)
        )]
        assert statuses == [200, 200, 200]


class TestRouteLabels:
    def test_unknown_paths_share_one_label(self, server):
        def routes():
            (response,) = parse_responses(exchange(
                server.port, b"GET /stats HTTP/1.1\r\n\r\n",
            ))
            return response[2]["routes"]

        before = routes()
        paths = b"".join(
            b"GET /nope-%d HTTP/1.1\r\n\r\n" % i for i in range(300)
        )
        statuses = {r[0] for r in parse_responses(
            exchange(server.port, paths)
        )}
        assert statuses == {404}
        after = routes()
        assert set(after) - set(before) <= {"other"}
        assert len(after) <= len(before) + 1
        assert after["other"] == before.get("other", 0) + 300

    def test_job_polls_and_bad_methods_are_labelled(self, server):
        data = (b"GET /jobs/123 HTTP/1.1\r\n\r\n"
                b"GET /jobs/456 HTTP/1.1\r\n\r\n"
                b"DELETE /predict HTTP/1.1\r\n\r\n"
                b"GET /stats HTTP/1.1\r\n\r\n")
        *polls, (_, _, stats) = parse_responses(exchange(server.port, data))
        assert [status for status, _, _ in polls] == [404, 404, 405]
        assert stats["routes"]["GET /jobs/*"] >= 2
        assert not any("123" in key or "DELETE" in key
                       for key in stats["routes"])


# -- byte-stream fuzzing -------------------------------------------------------

_TOKEN = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
    max_size=12,
)
_PATHS = st.sampled_from([
    "/healthz", "/models", "/stats", "/predict", "/update", "/audit",
    "/jobs/1", "/nope",
]) | _TOKEN.map(lambda s: "/" + s)
_REQUEST_LINES = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["GET", "POST", "PUT", "get", "BREW"]) | _TOKEN,
        _PATHS,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9"]),
    ).map(lambda s: s.encode("latin-1")),
    st.binary(max_size=40).filter(lambda b: b"\n" not in b),
)
_ROWS = st.lists(
    st.lists(st.floats(-1e3, 1e3), min_size=N_FEATURES - 1,
             max_size=N_FEATURES + 1),
    max_size=4,
)
_BODIES = st.one_of(
    st.binary(max_size=120),
    st.builds(
        lambda rows, model: json.dumps(
            {"model": model, "rows": rows}
        ).encode(),
        _ROWS, st.sampled_from(["m", "missing"]),
    ),
)
_LENGTHS = st.one_of(
    st.none(),  # the true body length
    st.integers(0, 200).map(str),
    st.just(str(MAX_BODY_BYTES + 1)),
    st.sampled_from(["", "-1", "abc", "1e3", " 7", "0x1"]),
)
_HEADERS = st.lists(
    st.tuples(
        st.sampled_from(["Host", "Connection", "Content-Type",
                         "Transfer-Encoding", "X-Junk"]) | _TOKEN,
        st.sampled_from(["close", "keep-alive", "chunked", "x"])
        | st.text(st.characters(min_codepoint=32, max_codepoint=255),
                  max_size=20),
    ),
    max_size=5,
)


@st.composite
def byte_streams(draw):
    line = draw(_REQUEST_LINES)
    body = draw(_BODIES)
    length = draw(_LENGTHS)
    headers = [
        f"{key}: {value}".encode("latin-1") for key, value in draw(_HEADERS)
    ]
    if length is not None or draw(st.booleans()):
        value = str(len(body)) if length is None else length
        headers.append(f"Content-Length: {value}".encode())
    head = b"\r\n".join([line, *headers]) + b"\r\n\r\n"
    return head + body + draw(st.binary(max_size=40))


def test_byte_stream_fuzz(server):
    # each stream on a fresh connection: only well-formed responses,
    # then a clean close, and nothing in asyncio's error log
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=byte_streams())
    def property_(data):
        parse_responses(exchange(server.port, data))
        assert server.errors == []

    property_()
    (response,) = parse_responses(exchange(
        server.port, b"GET /healthz HTTP/1.1\r\n\r\n",
    ))
    assert response[0] == 200
