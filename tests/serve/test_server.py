"""The mediator daemon: endpoints, tracing, concurrency, shutdown."""

import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import MediatorServer
from repro.serve.server import _Handler
from repro.system import YatSystem
from repro.workloads import brochure_sgml

PROGRAM = "SgmlBrochuresToOdmg"
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def payload():
    return brochure_sgml(3, distinct_suppliers=2)


@pytest.fixture
def server():
    instance = MediatorServer(port=0, warm=False, allow_test_delay=True)
    instance.warm_now()
    instance.start()
    yield instance
    instance.stop()


def request(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        return response.status, dict(response.headers), raw
    finally:
        connection.close()


def get_json(server, path):
    status, headers, raw = request(server, "GET", path)
    return status, json.loads(raw)


def post_convert(server, payload, program=PROGRAM, query="", headers=None):
    status, response_headers, raw = request(
        server, "POST", f"/convert/{program}{query}",
        body=payload.encode(), headers=headers,
    )
    return status, json.loads(raw), response_headers


def convert_concurrently(server, bodies, **kwargs):
    """In-process ``server.convert`` of every body at once, one thread
    each, released together."""
    results = [None] * len(bodies)
    start = threading.Barrier(len(bodies))

    def run(index, body):
        start.wait()
        results[index] = server.convert(PROGRAM, body, **kwargs)

    threads = [
        threading.Thread(target=run, args=(index, body))
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestHealthProbes:
    def test_healthz_ok_while_serving(self, server):
        status, _, raw = request(server, "GET", "/healthz")
        assert status == 200 and raw == b"ok\n"

    def test_readyz_ready_after_warmup(self, server):
        status, _, raw = request(server, "GET", "/readyz")
        assert status == 200 and raw == b"ready\n"

    def test_readyz_503_before_warmup(self):
        cold = MediatorServer(port=0, warm=False)
        cold.start()
        try:
            status, _, raw = request(cold, "GET", "/readyz")
            assert status == 503 and raw == b"warming\n"
            # liveness is independent of readiness
            status, _, _ = request(cold, "GET", "/healthz")
            assert status == 200
            cold.warm_now()
            status, _, _ = request(cold, "GET", "/readyz")
            assert status == 200
        finally:
            cold.stop()


class TestConvert:
    def test_counts_and_trace_header(self, server, payload):
        status, body, headers = post_convert(server, payload)
        assert status == 200
        assert body["program"] == PROGRAM
        assert body["input_trees"] == 3
        assert body["output_trees"] > 0
        assert body["unconverted"] == 0
        assert body["latency_ms"] > 0
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_inbound_trace_id_is_honored(self, server, payload):
        status, body, headers = post_convert(
            server, payload, headers={"X-Trace-Id": "client-7"}
        )
        assert status == 200
        assert body["trace_id"] == "client-7"
        assert headers["X-Trace-Id"] == "client-7"

    def test_malformed_trace_id_is_replaced(self, server, payload):
        status, body, _ = post_convert(
            server, payload, headers={"X-Trace-Id": "bad id with spaces"}
        )
        assert status == 200
        assert body["trace_id"] != "bad id with spaces"

    def test_include_output_trees(self, server, payload):
        status, body, _ = post_convert(server, payload, query="?include=output")
        assert status == 200
        assert len(body["output"]) == body["output_trees"]

    def test_include_output_html(self, server, payload):
        # The brochures program emits no HtmlPage trees, so the HTML
        # rendering path yields an empty page map — still a 200.
        status, body, _ = post_convert(
            server, payload, query="?include=output&to=html"
        )
        assert status == 200
        assert body["output"] == {}

    def test_unknown_program_404(self, server, payload):
        status, body, _ = post_convert(server, payload, program="Nope")
        assert status == 404
        assert "error" in body and "trace_id" in body

    def test_unknown_post_path_404(self, server, payload):
        status, _, raw = request(server, "POST", "/nope", body=b"x")
        assert status == 404

    def test_missing_content_length_411(self, server):
        # http.client always sends Content-Length for bytes bodies, so
        # speak raw HTTP to omit it.
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(
                f"POST /convert/{PROGRAM} HTTP/1.1\r\n"
                f"Host: {server.host}\r\nConnection: close\r\n\r\n".encode()
            )
            response = sock.makefile("rb").read()
        assert b"411" in response.splitlines()[0]

    def test_non_numeric_delay_ms_is_a_400(self, server, payload):
        status, body, _ = post_convert(server, payload, query="?delay_ms=nope")
        assert status == 400
        assert "delay_ms" in body["error"]

    def test_non_finite_or_negative_delay_ms_is_a_400(self, server, payload):
        # time.sleep rejects these; they must never reach it as a 500.
        for value in ("nan", "inf", "-5"):
            status, body, _ = post_convert(
                server, payload, query=f"?delay_ms={value}"
            )
            assert status == 400, value
            assert "delay_ms" in body["error"]
        assert server.registry.counter("serve.errors").total() == 0

    def test_delay_ms_without_the_hook_keeps_the_cache(self, payload):
        instance = MediatorServer(port=0, warm=False)
        instance.warm_now()
        instance.start()
        try:
            post_convert(instance, payload, query="?delay_ms=1")
            status, body, _ = post_convert(
                instance, payload, query="?delay_ms=1"
            )
        finally:
            instance.stop()
        assert status == 200
        assert body.get("cache_hit") is True

    def test_errors_are_counted(self, server, payload):
        post_convert(server, payload, program="Nope")
        assert server.registry.value(
            "serve.requests", program="Nope", status="404"
        ) == 1
        assert server.registry.counter("serve.errors").total() == 1


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, server, payload):
        post_convert(server, payload)
        status, headers, raw = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert (
            f'serve_requests{{program="{PROGRAM}",status="200"}} 1' in text
        )
        assert "serve_latency_ms_bucket" in text
        assert 'serve_latency_ms_quantile{program=' in text
        assert "yatl_rule_applications" in text  # pipeline internals too


class TestStatsEndpoint:
    def test_snapshot_shape(self, server, payload):
        post_convert(server, payload)
        status, stats = get_json(server, "/stats")
        assert status == 200
        assert stats["server"]["ready"] is True
        assert stats["server"]["requests_total"] == 1
        assert PROGRAM in stats["server"]["programs"]
        latency = stats["programs"][PROGRAM]["latency_ms"]
        assert latency["count"] == 1
        assert latency["p50"] is not None and latency["p95"] is not None
        assert stats["requests"][-1]["program"] == PROGRAM
        assert "serve.requests" in stats["metrics"]


class TestServePool:
    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            MediatorServer(port=0, warm=False, workers=0)

    def test_pool_requests_are_accounted(self, payload):
        instance = MediatorServer(
            port=0, warm=False, allow_test_delay=True, workers=2
        )
        instance.warm_now()
        instance.start()
        try:
            status, body, _ = post_convert(instance, payload)
            assert status == 200
            # A 3-document payload fits one chunk: the run takes the
            # in-process fallback but is still accounted to the pool.
            assert body["shards"] == 1
            registry = instance.registry
            assert registry.value("serve.pool.workers") == 2
            assert registry.value(
                "serve.pool.requests", program=PROGRAM, mode="inprocess"
            ) == 1
            assert registry.counter("serve.pool.shards").total() == 1
            _, stats = get_json(instance, "/stats")
            pool = stats["server"]["pool"]
            assert pool["workers"] == 2
        finally:
            instance.stop()

    def test_pool_disabled_reports_zero_workers(self, server, payload):
        post_convert(server, payload)
        _, stats = get_json(server, "/stats")
        assert stats["server"]["pool"] == {
            "workers": 0, "tasks_submitted": 0
        }


class TestTraceEndpoint:
    def test_span_provenance_join(self, server, payload):
        status, body, _ = post_convert(
            server, payload, headers={"X-Trace-Id": "probe-1"}
        )
        assert status == 200
        status, trace = get_json(server, "/trace/probe-1")
        assert status == 200
        assert trace["trace_id"] == "probe-1"
        assert trace["request"]["status"] == 200
        names = [span["name"] for span in trace["spans"]]
        assert "serve.request" in names and "yatl.rule" in names
        provenance = trace["provenance"]
        assert provenance["records"], "per-firing lineage must be recorded"
        assert all(
            record["trace_id"] == "probe-1" for record in provenance["records"]
        )
        # every record's span joins a span in the same payload
        span_ids = {span["span_id"] for span in trace["spans"]}
        assert all(
            record["span_id"] in span_ids for record in provenance["records"]
        )
        assert set(provenance["sources"].values()) == {"sgml"}

    def test_unknown_trace_404_lists_retained(self, server, payload):
        post_convert(server, payload, headers={"X-Trace-Id": "kept"})
        status, body = get_json(server, "/trace/missing")
        assert status == 404
        assert body["retained"] == ["kept"]

    def test_ring_eviction(self, payload):
        instance = MediatorServer(
            port=0, warm=False, trace_capacity=2, allow_test_delay=True
        )
        instance.warm_now()
        instance.start()
        try:
            for trace_id in ("t1", "t2", "t3"):
                post_convert(instance, payload,
                             headers={"X-Trace-Id": trace_id})
            assert instance.traces.ids() == ["t2", "t3"]
            status, _ = get_json(instance, "/trace/t1")
            assert status == 404
        finally:
            instance.stop()


class CountingSocket:
    """A connected socket as ``_Handler`` uses it: the handler reads
    *requests* through ``makefile`` and every ``sendall`` is recorded.
    ``after_send(n)`` runs after the n-th send, i.e. between two
    requests of the stream."""

    def __init__(self, requests: bytes, after_send=None) -> None:
        self.requests = requests
        self.after_send = after_send
        self.sent = []

    def settimeout(self, timeout) -> None:
        pass

    def makefile(self, mode, buffering=-1):
        assert mode == "rb"
        return io.BytesIO(self.requests)

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))
        if self.after_send is not None:
            self.after_send(len(self.sent))


def raw_request(method, path, body=b"", headers=()):
    lines = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class TestOneWritePerResponse:
    def test_every_route_answers_in_one_sendall(self, payload):
        # Headers and body sent apart make the body a second segment
        # that Nagle's algorithm holds for the client's delayed ACK.
        instance = MediatorServer(port=0, warm=False, max_queue_depth=1)
        instance.warm_now()
        other = brochure_sgml(1).encode()
        convert = f"/convert/{PROGRAM}"
        stream = [
            (raw_request("POST", convert, payload.encode(),
                         ["X-Trace-Id: one-write"]), 200),  # miss
            (raw_request("POST", convert, payload.encode()), 200),  # hit
            (raw_request("POST", convert, other), 429),  # slot held
            (raw_request("POST", "/convert/Nope", other), 404),
            (raw_request("POST", f"{convert}?delay_ms=nan", other), 400),
            (raw_request("GET", "/healthz"), 200),
            (raw_request("GET", "/metrics"), 200),
            (raw_request("GET", "/stats"), 200),
            (raw_request("GET", "/trace/one-write"), 200),
        ]

        def hold_the_slot_for_the_third(sent):
            if sent == 2:
                assert instance._try_admit()
            elif sent == 3:
                instance._release_queue_slot()

        sock = CountingSocket(
            b"".join(raw for raw, _ in stream) + b"GET /healthz\r\n",
            hold_the_slot_for_the_third,
        )
        # Answered before the body is read, these end their connection,
        # so each gets a stream of its own; the trailing GET must not run.
        early = [
            (CountingSocket(raw + raw_request("GET", "/healthz")), expected)
            for raw, expected in (
                (raw_request("POST", convert), 411),
                (raw_request("POST", convert,
                             headers=["Content-Length: -1"]), 413),
            )
        ]
        try:
            for connection in [sock] + [early_sock for early_sock, _ in early]:
                _Handler(connection, ("127.0.0.1", 0), instance._httpd)
        finally:
            instance._httpd.server_close()

        def check(data, expected):
            head, _, body = data.partition(b"\r\n\r\n")
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in header_lines)
            assert int(status_line.split()[1]) == expected, status_line
            assert int(headers["Content-Length"]) == len(body)
            return headers

        *responses, http09 = sock.sent
        assert http09 == b"ok\n"  # an HTTP/0.9 response is the bare body
        assert len(responses) == len(stream)
        for data, (_, expected) in zip(responses, stream):
            headers = check(data, expected)
            if expected == 429:
                assert int(headers["Retry-After"]) >= 1
        assert json.loads(sock.sent[1].partition(b"\r\n\r\n")[2])[
            "cache_hit"] is True
        for early_sock, expected in early:
            (data,) = early_sock.sent
            assert check(data, expected)["Connection"] == "close"


class TestEarlyAnswerClosesConnection:
    """A request answered without reading its body must end the
    connection: the unread body would otherwise run as the next
    request on it. That is a POST answered before its body is read,
    and any GET that carries a body."""

    SMUGGLED = b"GET /stats/history?limit=0 HTTP/1.1\r\nHost: test\r\n\r\n"
    CARRIES = f"Content-Length: {len(SMUGGLED)}\r\n"

    @pytest.mark.parametrize("head, expected", [
        (f"POST /nope HTTP/1.1\r\nHost: test\r\n{CARRIES}\r\n", 404),
        (f"POST /convert/{PROGRAM} HTTP/1.1\r\nHost: test\r\n\r\n", 411),
        (f"POST /convert/{PROGRAM} HTTP/1.1\r\nHost: test\r\n"
         f"Content-Length: 99999999999\r\n\r\n", 413),
        (f"GET /healthz HTTP/1.1\r\nHost: test\r\n{CARRIES}\r\n", 200),
        (f"GET /nope HTTP/1.1\r\nHost: test\r\n{CARRIES}\r\n", 404),
        (f"GET /metrics HTTP/1.1\r\nHost: test\r\n{CARRIES}\r\n", 200),
        (f"GET /healthz HTTP/1.1\r\nHost: test\r\n"
         f"Transfer-Encoding: chunked\r\n\r\n", 200),
    ], ids=["404", "411", "413", "get-healthz", "get-404", "get-metrics",
            "get-chunked"])
    def test_unread_body_never_runs_as_a_request(
        self, server, head, expected
    ):
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            sock.sendall(head.encode() + self.SMUGGLED)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        # Exactly one response, then EOF.
        assert received.count(b"HTTP/1.1 ") == 1, received
        status_line, _, rest = received.partition(b"\r\n")
        assert int(status_line.split()[1]) == expected
        assert b"Connection: close\r\n" in rest
        assert server.registry.value("serve.http.requests",
                                     route="stats_history") == 0


class TestUnknownEndpoint:
    def test_404_lists_endpoints(self, server):
        status, body = get_json(server, "/nope")
        assert status == 404
        assert any("/metrics" in endpoint for endpoint in body["endpoints"])


class TestConcurrency:
    def test_no_lost_samples_under_concurrent_load(self, server, payload):
        """N threads hammer /convert while /metrics is scraped: every
        request must land in serve.requests and the request log, and
        the per-request ambient contextvar isolation must hold (each
        trace's spans and provenance stay its own)."""
        clients, per_client = 8, 5
        results, scrape_results = [], []
        lock = threading.Lock()
        stop_scraping = threading.Event()

        def hammer(client_index):
            for request_index in range(per_client):
                trace_id = f"c{client_index}-r{request_index}"
                status, body, _ = post_convert(
                    server, payload, headers={"X-Trace-Id": trace_id}
                )
                with lock:
                    results.append((status, body["trace_id"], trace_id))

        def scrape():
            while not stop_scraping.is_set():
                status, _, raw = request(server, "GET", "/metrics")
                with lock:
                    scrape_results.append((status, b"serve_requests" in raw))
                stop_scraping.wait(0.01)

        scraper = threading.Thread(target=scrape)
        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(clients)
        ]
        scraper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_scraping.set()
        scraper.join()

        total = clients * per_client
        assert len(results) == total
        assert all(status == 200 for status, _, _ in results)
        # contextvar isolation: every response echoes its own trace id
        assert all(got == sent for _, got, sent in results)
        # zero lost counter increments
        assert server.registry.value(
            "serve.requests", program=PROGRAM, status="200"
        ) == total
        assert len(server.request_log) == total
        assert server.registry.histogram("serve.latency_ms").stats(
            program=PROGRAM
        )["count"] == total
        assert scrape_results and all(
            status == 200 for status, _ in scrape_results
        )
        # a final scrape, after the load, must expose every sample
        status, _, raw = request(server, "GET", "/metrics")
        assert status == 200
        assert (
            f'serve_requests{{program="{PROGRAM}",status="200"}} {total}'
            in raw.decode()
        )
        # per-request traces stayed separate: each retained trace holds
        # only spans stamped with its own id
        for trace_id in server.traces.ids():
            trace = server.traces.get(trace_id)
            args = [span["args"] for span in trace["spans"]
                    if span["name"] == "serve.request"]
            assert len(args) == 1 and args[0]["trace_id"] == trace_id
            assert all(
                record["trace_id"] == trace_id
                for record in trace["provenance"]["records"]
            )

    def test_malformed_body_fails_only_its_own_request(self, payload):
        instance = MediatorServer(port=0, warm=False, cache_size=0)
        instance.warm_now()
        results = convert_concurrently(instance, [payload, "<broken"])
        assert [status for status, _ in results] == [200, 400]
        assert results[0][1]["output_trees"] > 0

    def test_concurrent_requests_do_not_share_skolem_identifiers(self):
        # Two clients converting the same supplier each get their own
        # identifier space, numbered exactly as if the request ran alone.
        body = brochure_sgml(2, distinct_suppliers=1)
        instance = MediatorServer(port=0, warm=False, cache_size=0)
        instance.warm_now()
        results = convert_concurrently(instance, [body] * 3,
                                       include_output=True)
        assert [status for status, _ in results] == [200, 200, 200]
        status, alone = instance.convert(PROGRAM, body, include_output=True)
        assert status == 200 and alone["output"]
        assert all(result["output"] == alone["output"]
                   for _, result in results)

    def test_each_request_gets_its_own_trace(self, payload):
        instance = MediatorServer(port=0, warm=False, cache_size=0)
        instance.warm_now()
        results = convert_concurrently(instance, [payload] * 4)
        assert [status for status, _ in results] == [200] * 4
        trace_ids = [body["trace_id"] for _, body in results]
        assert len(set(trace_ids)) == 4
        threads = set()
        for trace_id in trace_ids:
            trace = instance.traces.get(trace_id)
            spans = trace["spans"]
            requests = [span for span in spans
                        if span["name"] == "serve.request"]
            assert len(requests) == 1
            assert requests[0]["args"]["trace_id"] == trace_id
            assert any(span["name"] == "yatl.run" for span in spans)
            # Every span ran on this request's own thread: none leaked
            # in from a concurrent request.
            (thread_id,) = {span["thread_id"] for span in spans}
            threads.add(thread_id)
            assert trace["provenance"]["records"]
            assert all(record["trace_id"] == trace_id
                       for record in trace["provenance"]["records"])
        assert len(threads) == 4


class TestServerFlags:
    def test_server_validates_flags(self):
        with pytest.raises(ValueError):
            MediatorServer(port=0, warm=False, cache_size=-1)
        with pytest.raises(ValueError):
            MediatorServer(port=0, warm=False, max_queue_depth=0)


class TestAdmissionControl:
    @pytest.fixture
    def tiny_server(self):
        instance = MediatorServer(
            port=0, warm=False, allow_test_delay=True,
            cache_size=0, max_queue_depth=1,
        )
        instance.warm_now()
        instance.start()
        yield instance
        instance.stop()

    @staticmethod
    def wait_slot_held(server, timeout=5.0):
        # The holder must own the only queue slot before the first probe:
        # a probe that wins the slot would hand the holder the 429.
        deadline = time.monotonic() + timeout
        while server.stats()["server"]["admission"]["queue_depth"] != 1:
            assert time.monotonic() < deadline, "the holder never took the slot"
            time.sleep(0.005)

    def test_overload_returns_429_with_retry_after(self, tiny_server, payload):
        held = []

        def hold():
            held.append(post_convert(
                tiny_server, payload, query="?delay_ms=600"
            ))

        holder = threading.Thread(target=hold)
        holder.start()
        self.wait_slot_held(tiny_server)
        deadline = time.monotonic() + 5.0
        shed = None
        while time.monotonic() < deadline:
            status, body, headers = post_convert(tiny_server, payload)
            if status == 429:
                shed = (status, body, headers)
                break
            time.sleep(0.02)
        holder.join()
        assert shed is not None, "never observed a 429 while a slot was held"
        status, body, headers = shed
        assert "overloaded" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        assert body["retry_after_s"] >= 1
        # the held request itself completed normally
        assert held[0][0] == 200

    def test_shed_requests_are_not_errors(self, tiny_server, payload):
        def hold():
            post_convert(tiny_server, payload, query="?delay_ms=400")

        holder = threading.Thread(target=hold)
        holder.start()
        self.wait_slot_held(tiny_server)
        status, _, _ = post_convert(tiny_server, payload)
        holder.join()
        assert status == 429
        # load shedding is not an error
        assert tiny_server.registry.counter("serve.errors").total() == 0
        assert tiny_server.registry.counter(
            "serve.rejected", "requests shed by admission control"
        ).total() == 1
        stats = tiny_server.stats()
        assert stats["server"]["admission"]["rejected_total"] == 1
        assert stats["programs"][PROGRAM]["rejected"] == 1.0

    def test_slots_free_after_drain(self, tiny_server, payload):
        status, _, _ = post_convert(tiny_server, payload)
        assert status == 200
        status, _, _ = post_convert(tiny_server, payload)
        assert status == 200
        assert tiny_server.stats()["server"]["admission"]["queue_depth"] == 0


class TestGracefulShutdown:
    def test_stop_drains_inflight_request(self, payload):
        """stop() mid-request must let the in-flight conversion finish
        (200), then flush both logs."""
        instance = MediatorServer(
            port=0, warm=False, allow_test_delay=True
        )
        instance.warm_now()
        instance.start()
        outcome = {}

        def slow_request():
            status, body, _ = post_convert(
                instance, payload, query="?delay_ms=400",
                headers={"X-Trace-Id": "inflight"},
            )
            outcome["status"], outcome["body"] = status, body

        client = threading.Thread(target=slow_request)
        client.start()
        deadline = time.time() + 5
        while instance.registry.value("serve.inflight") < 1:
            assert time.time() < deadline, "request never became in-flight"
            time.sleep(0.01)
        instance.stop()  # returns only after the drain
        client.join(timeout=5)
        assert outcome["status"] == 200
        assert outcome["body"]["trace_id"] == "inflight"
        assert len(instance.request_log) == 1
        types = [event["type"] for event in instance.events]
        assert types[-2:] == ["server.draining", "server.stopped"]

    def test_stop_not_blocked_by_idle_keepalive_connection(self):
        """An idle HTTP/1.1 keep-alive connection parks its handler
        thread in readline(); stop() must not wait for it (it used to
        join that thread and hang until SIGKILL)."""
        instance = MediatorServer(port=0, warm=False)
        instance.warm_now()
        instance.start()
        connection = http.client.HTTPConnection(
            instance.host, instance.port, timeout=30
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            # the connection stays open and idle; stop() must still
            # return promptly (the drain tracks requests, not sockets)
            start = time.monotonic()
            instance.stop()
            assert time.monotonic() - start < 5
        finally:
            connection.close()

    def test_draining_refuses_new_convert_and_closes_connection(self, payload):
        """A keep-alive connection accepted before the drain must get a
        503 + Connection: close for any new /convert it submits while
        in-flight requests finish."""
        instance = MediatorServer(
            port=0, warm=False, allow_test_delay=True
        )
        instance.warm_now()
        instance.start()
        connection = http.client.HTTPConnection(
            instance.host, instance.port, timeout=30
        )
        stopper = None
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()  # keep-alive established

            slow = threading.Thread(
                target=post_convert, args=(instance, payload),
                kwargs={"query": "?delay_ms=1500"},
            )
            slow.start()
            deadline = time.time() + 5
            while instance.registry.value("serve.inflight") < 1:
                assert time.time() < deadline
                time.sleep(0.01)
            stopper = threading.Thread(target=instance.stop)
            stopper.start()
            while not instance.draining:
                assert time.time() < deadline
                time.sleep(0.01)

            connection.request(
                "POST", f"/convert/{PROGRAM}", body=payload.encode()
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            assert body["error"] == "draining"
            assert response.headers.get("Connection") == "close"
            slow.join(timeout=10)
        finally:
            connection.close()
            if stopper is not None:
                stopper.join(timeout=10)
            instance.stop()

    def test_stop_is_idempotent_and_health_reports_draining(self, server):
        server.stop()
        server.stop()  # second call must be a no-op
        assert server.draining and not server.ready

    def test_logs_flushed_to_disk_on_stop(self, payload, tmp_path):
        request_log = tmp_path / "requests.jsonl"
        event_log = tmp_path / "events.jsonl"
        instance = MediatorServer(
            port=0, warm=False,
            request_log_path=str(request_log),
            event_log_path=str(event_log),
        )
        instance.warm_now()
        instance.start()
        post_convert(instance, payload)
        instance.stop()
        requests = [json.loads(line)
                    for line in request_log.read_text().splitlines()]
        assert len(requests) == 1 and requests[0]["status"] == 200
        events = [json.loads(line)
                  for line in event_log.read_text().splitlines()]
        assert [e["type"] for e in events][-1] == "server.stopped"

    def test_sigint_kills_server_mid_request_exit_0(self, payload, tmp_path):
        """The CLI daemon: SIGINT while a request is in flight must
        drain it, flush the request log, and exit 0."""
        request_log = tmp_path / "requests.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--debug-delay", "--request-log", str(request_log)],
            env={**os.environ, "PYTHONPATH": SRC},
            stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "listening on http://" in banner
            address = banner.split("http://")[1].split()[0]
            host, port = address.rsplit(":", 1)

            outcome = {}

            def slow_request():
                connection = http.client.HTTPConnection(
                    host, int(port), timeout=30
                )
                try:
                    connection.request(
                        "POST", f"/convert/{PROGRAM}?delay_ms=600",
                        body=payload.encode(),
                    )
                    response = connection.getresponse()
                    outcome["status"] = response.status
                    outcome["body"] = json.loads(response.read())
                finally:
                    connection.close()

            client = threading.Thread(target=slow_request)
            client.start()
            time.sleep(0.25)  # let the request get in flight
            process.send_signal(signal.SIGINT)
            client.join(timeout=15)
            assert process.wait(timeout=15) == 0
            assert outcome.get("status") == 200, outcome
            entries = [json.loads(line)
                       for line in request_log.read_text().splitlines()]
            assert len(entries) == 1 and entries[0]["status"] == 200
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
