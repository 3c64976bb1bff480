"""serve_mix: the real ``repro serve`` daemon under an open-loop ladder.

The daemon runs with its default flags in its own process; this
process drives it over ``CONNECTIONS`` keep-alive connections, one
thread each. Traffic mixes hot payloads (repeated, so the result cache
answers them) with unique ones (always converted). Every
``HOT_EVERY``-th request is hot: with a quarter of the requests hot,
the median request is a conversion rather than the boundary between
cache hits and conversions, where the median would jump between the
two.

Phases, in order: a warm-up that sends every hot payload once; the
main open-loop step at ``MAIN_RATE`` (the latency metrics); a closed
loop with every connection sending back to back (throughput); the
rest of the rate ladder (the highest rate meeting the latency limit);
in a traced run, a last step at ``MAIN_RATE`` that also fetches
``/trace/<id>``, so the latency metrics never include those fetches.
In an open loop a request is timed from when it was due, so a stall
counts against every request queued behind it; a request more than
``LATE_DROP_S`` late is not sent and counts as dropped.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time

from ledger import percentile, self_times, vm_hwm_mb

PROGRAM = "SgmlBrochuresToOdmg"
CONNECTIONS = 2
HOT_EVERY = 4
LATE_DROP_S = 1.0
MAIN_RATE = 20
LADDER = (40, 80, 160)
P95_LIMIT_MS = 100.0
MAX_DROPPED_SHARE = 0.01
#: Share of the run's seconds spent in each phase.
MAIN_SHARE, CLOSED_SHARE, LADDER_SHARE = 0.7, 0.1, 0.2
#: In a traced run, the trace step lasts this share of the run's seconds
#: and fetches ``/trace/<id>`` for every n-th conversion, the first included.
TRACE_SHARE = 0.5
TRACE_EVERY = 10
#: Payloads re-sent with ``?include=output`` and compared in full.
OUTPUT_CHECKS = 16

_LISTENING = re.compile(r"listening on http://([^\s:/]+):(\d+)")


class Daemon:
    """``python -m repro serve --port 0``, from spawn to ready, and its
    orderly shutdown. ``ready_s`` is spawn → first ``/readyz`` 200."""

    def __init__(self, root: str, env: dict, timeout_s: float) -> None:
        self.root = root
        self.env = env
        self.timeout_s = timeout_s

    def __enter__(self) -> "Daemon":
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue" = queue.Queue()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        try:
            deadline = begin + self.timeout_s
            self.host, self.port = self._await_listening(deadline)
            self._await_ready(deadline)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - begin
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.lines.put(line)
        self.lines.put(None)

    def _await_listening(self, deadline: float):
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("daemon did not report its port in time") from None
            if line is None:
                raise RuntimeError(f"daemon exited with {self.proc.wait()}")
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def _await_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("daemon never became ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)
        self.proc.stderr.close()


class Mix:
    """Hands out payloads in request order: every ``HOT_EVERY``-th is
    hot (cycling over the hot set), the others are fresh."""

    def __init__(self, payloads) -> None:
        self.payloads = payloads
        self.texts = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._unique = 0

    def body(self, key: str) -> bytes:
        text = self.texts.get(key)
        if text is None:
            text = self.texts.setdefault(key, self.payloads.text(key))
        return text.encode("utf-8")

    def next(self):
        hot = self.payloads.hot
        with self._lock:
            number = self._requests
            self._requests += 1
            if number % HOT_EVERY == 0:
                key = hot[(number // HOT_EVERY) % len(hot)]
            else:
                key = f"u{self._unique}"
                self._unique += 1
        return key, self.body(key)


class Client:
    """One keep-alive connection, used by one thread."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def call(self, method: str, path: str, body=None):
        try:
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next call reconnects
            raise

    def convert(self, key: str, body: bytes, query: str = "") -> dict:
        sent = time.perf_counter()
        try:
            status, raw = self.call("POST", f"/convert/{PROGRAM}{query}", body)
            payload = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, payload = 0, {"error": f"{type(exc).__name__}: {exc}"}
        end = time.perf_counter()
        return {
            "key": key, "sent": sent, "end": end, "status": status,
            "service_ms": (end - sent) * 1000.0,
            "server_ms": payload.get("latency_ms"),
            "cache_hit": bool(payload.get("cache_hit")),
            "trace_id": payload.get("trace_id"),
            "error": payload.get("error"),
            "counts": {k: payload.get(k) for k in
                       ("input_trees", "output_trees", "unconverted")},
            "output": payload.get("output"),
        }

    def close(self) -> None:
        self.conn.close()


class Load:
    def __init__(self, daemon: Daemon, payloads) -> None:
        self.mix = Mix(payloads)
        self.clients = [Client(daemon.host, daemon.port) for _ in range(CONNECTIONS)]
        self.traces = []
        self.extra = []  # warm-up and output-check responses

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def _threads(self, work) -> None:
        threads = [threading.Thread(target=work, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def warm_up(self) -> None:
        for key in self.mix.payloads.hot:
            self.extra.append(self.clients[0].convert(key, self.mix.body(key)))

    def open_loop(self, rate: float, seconds: float, trace: bool = False) -> dict:
        scheduled = max(1, int(rate * seconds))
        lock = threading.Lock()
        state = {"next": 0, "dropped": 0, "misses": 0}
        samples = []
        begin = time.perf_counter() + 0.02

        def work(client: Client) -> None:
            while True:
                with lock:
                    index = state["next"]
                    state["next"] += 1
                if index >= scheduled:
                    return
                key, body = self.mix.next()
                due = begin + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if time.perf_counter() - due > LATE_DROP_S:
                    with lock:
                        state["dropped"] += 1
                    continue
                sample = client.convert(key, body)
                sample["lag_ms"] = (sample["sent"] - due) * 1000.0
                sample["latency_ms"] = (sample["end"] - due) * 1000.0
                with lock:
                    samples.append(sample)
                    if sample["status"] == 200 and not sample["cache_hit"]:
                        state["misses"] += 1
                        fetch = trace and state["misses"] % TRACE_EVERY == 1
                    else:
                        fetch = False
                if fetch:
                    self._fetch_trace(client, sample["trace_id"])

        self._threads(work)
        return rung_stats(rate, scheduled, samples, state["dropped"])

    def _fetch_trace(self, client: Client, trace_id: str) -> None:
        try:
            status, raw = client.call("GET", f"/trace/{trace_id}")
        except (OSError, http.client.HTTPException):
            return
        if status == 200:
            self.traces.append(json.loads(raw)["spans"])

    def closed_loop(self, seconds: float) -> dict:
        samples = []
        lock = threading.Lock()
        begin = time.perf_counter()
        end = begin + seconds

        def work(client: Client) -> None:
            while time.perf_counter() < end:
                sample = client.convert(*self.mix.next())
                with lock:
                    samples.append(sample)

        self._threads(work)
        elapsed = max(s["end"] for s in samples) - begin if samples else seconds
        ok = sum(1 for s in samples if s["status"] == 200)
        stats = rung_stats(None, len(samples), samples, 0)
        stats["elapsed_s"] = elapsed
        stats["ok_per_s"] = ok / elapsed
        return stats

    def check_outputs(self, keys) -> None:
        """Re-send payloads with ``?include=output`` for a full check."""
        for key in keys:
            sample = self.clients[0].convert(key, self.mix.body(key), "?include=output")
            self.extra.append(sample)


def rung_stats(rate, scheduled: int, samples, dropped: int) -> dict:
    latency = [s.get("latency_ms", s["service_ms"]) for s in samples]
    ok = [s for s in samples if s["status"] == 200]
    served = [s for s in ok if s["server_ms"] is not None]
    shell = [s["service_ms"] - s["server_ms"] for s in served]
    return {
        "rate": rate,
        "scheduled": scheduled,
        "sent": len(samples),
        "dropped": dropped,
        "non_200": len(samples) - len(ok),
        "latency_ms": latency,
        "p50_ms": percentile(latency, 50),
        "p95_ms": percentile(latency, 95),
        "server_ms": [s["server_ms"] for s in served],
        "shell_ms": shell,
        "gen_lag_ms": [s["lag_ms"] for s in samples if "lag_ms" in s],
        "cache_hit_ratio": (
            sum(s["cache_hit"] for s in ok) / len(ok) if ok else 0.0
        ),
        "samples": samples,
    }


def meets_limit(stats: dict) -> bool:
    return (
        stats["sent"] > 0
        and stats["p95_ms"] <= P95_LIMIT_MS
        and stats["non_200"] == 0
        and stats["dropped"] <= MAX_DROPPED_SHARE * stats["scheduled"]
    )


def trace_layers(traces):
    """Per-request layer times and self times from ``/trace`` spans."""
    rows = []
    for spans in traces:
        by_name = {}
        for s in spans:
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + s["duration_us"]
        imported = by_name.get("wrapper.import", 0.0)
        rows.append({
            "layers": {
                "sgml.parse": (by_name.get("serve.parse", 0.0) - imported) / 1000.0,
                "wrappers.sgml_import": imported / 1000.0,
                "yatl.run": by_name.get("yatl.run", 0.0) / 1000.0,
            },
            "self_ms": self_times(spans),
        })
    return rows


def drive(ctx):
    """Run serve_mix; returns the raw observations for ``run.py``."""
    setups = []
    for _ in range(2):
        with Daemon(ctx.root, ctx.env, ctx.remaining()) as daemon:
            setups.append(daemon.ready_s)
    with Daemon(ctx.root, ctx.env, ctx.remaining()) as daemon:
        setups.append(daemon.ready_s)
        load = Load(daemon, ctx.serve_payloads)
        try:
            load.warm_up()
            main = load.open_loop(MAIN_RATE, ctx.seconds * MAIN_SHARE)
            closed = load.closed_loop(ctx.seconds * CLOSED_SHARE)
            ladder = [
                load.open_loop(rate, ctx.seconds * LADDER_SHARE / len(LADDER))
                for rate in LADDER
            ]
            traced = [
                load.open_loop(MAIN_RATE, ctx.seconds * TRACE_SHARE, trace=True)
            ] if ctx.trace else []
            used = [k for k in load.mix.texts if k.startswith("u")]
            load.check_outputs(load.mix.payloads.hot[: OUTPUT_CHECKS // 2]
                               + used[: OUTPUT_CHECKS // 2])
        finally:
            load.close()
        peak_rss_mb = vm_hwm_mb(daemon.proc.pid)
    return {
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb,
        "main": main,
        "closed": closed,
        "ladder": [main] + ladder,
        "traced": traced,
        "extra": load.extra,
        "texts": load.mix.texts,
        "traces": trace_layers(load.traces),
    }
