"""The `repro top` dashboard: rendering and polling."""

import io

from repro.serve import MediatorServer, render, run_top
from repro.serve.top import (
    history_mean_latency,
    history_rates,
    sparkline,
)
from repro.workloads import brochure_sgml

from .test_server import PROGRAM, post_convert

STATS = {
    "server": {
        "uptime_s": 12.5, "ready": True, "draining": False,
        "inflight": 2, "requests_total": 100, "errors_total": 5,
        "traces_retained": 10,
    },
    "programs": {
        "SgmlBrochuresToOdmg": {
            "requests": 100, "errors": 5,
            "latency_ms": {"count": 100, "sum": 1234.0,
                           "p50": 10.5, "p95": 22.0, "p99": 41.25},
        },
    },
    "requests": [
        {"status": 200, "program": "SgmlBrochuresToOdmg",
         "latency_ms": 9.7, "trace_id": "t-9"},
    ],
}


class TestRender:
    def test_header_and_table(self):
        frame = render(STATS, "http://x:1")
        assert "up 12.5s" in frame and "ready" in frame
        assert "inflight 2" in frame
        assert "errors 5 (5.0%)" in frame
        assert "SgmlBrochuresToOdmg" in frame
        assert "10.5" in frame and "22.0" in frame and "41.2" in frame
        assert "trace t-9" in frame

    def test_first_frame_has_no_rate(self):
        frame = render(STATS, "http://x:1")
        line = next(l for l in frame.splitlines() if l.startswith("Sgml"))
        assert line.split()[2] == "-"

    def test_rate_from_previous_poll(self):
        previous = {
            "programs": {"SgmlBrochuresToOdmg": {"requests": 80}}
        }
        frame = render(STATS, "http://x:1", previous=previous, dt=2.0)
        line = next(l for l in frame.splitlines() if l.startswith("Sgml"))
        assert line.split()[2] == "10.0"  # (100-80)/2s

    def test_empty_server(self):
        frame = render({"server": {}, "programs": {}, "requests": []},
                       "http://x:1")
        assert "no conversion requests yet" in frame

    def test_same_tick_poll_does_not_divide_by_zero(self):
        """Two polls in the same clock tick (coarse monotonic clock or a
        forced redraw) must render a numeric rate, not crash or
        pretend there was no previous poll."""
        previous = {
            "programs": {"SgmlBrochuresToOdmg": {"requests": 100}}
        }
        frame = render(STATS, "http://x:1", previous=previous, dt=0.0)
        line = next(l for l in frame.splitlines() if l.startswith("Sgml"))
        assert line.split()[2] == "0.0"  # zero delta, clamped dt

    def test_missing_percentiles_render_as_dash(self):
        stats = {
            "server": {"requests_total": 1},
            "programs": {"P": {"requests": 1, "errors": 0,
                               "latency_ms": {"p50": None}}},
            "requests": [],
        }
        frame = render(stats, "http://x:1")
        line = next(l for l in frame.splitlines() if l.startswith("P "))
        assert line.split()[-3:] == ["-", "-", "-"]

    def test_nonfinite_percentiles_render_as_dash(self):
        """A malformed stats payload with NaN/inf percentiles must
        still render the placeholder, never the string 'nan'."""
        stats = {
            "server": {"requests_total": 1},
            "programs": {"P": {"requests": 1, "errors": 0,
                               "latency_ms": {"p50": float("nan"),
                                              "p95": float("inf"),
                                              "p99": 3.0}}},
            "requests": [],
        }
        frame = render(stats, "http://x:1")
        line = next(l for l in frame.splitlines() if l.startswith("P "))
        assert "nan" not in line and "inf" not in line
        assert line.split()[-3:] == ["-", "-", "3.0"]

    def test_fast_path_columns_and_header_line(self):
        stats = {
            "server": {
                "requests_total": 10, "errors_total": 0,
                "cache": {"capacity": 256, "size": 4, "hit_rate": 0.5},
                "admission": {"max_queue_depth": 8, "queue_depth": 1,
                              "rejected_total": 2},
            },
            "programs": {"P": {"requests": 10, "errors": 0, "rejected": 2,
                               "cache_hits": 5,
                               "latency_ms": {"p50": 1.0, "p95": 2.0,
                                              "p99": 3.0}}},
            "requests": [],
        }
        frame = render(stats, "http://x:1")
        assert "cache 4/256 (hit 50%)" in frame
        assert "queue 1/8 rejected 2" in frame
        assert "REJ" in frame and "HIT%" in frame
        line = next(l for l in frame.splitlines() if l.startswith("P "))
        columns = line.split()
        assert columns[3] == "0"    # ERR
        assert columns[4] == "2"    # REJ
        assert columns[5] == "50"   # HIT%

    def test_no_fast_path_line_when_disabled(self):
        stats = {
            "server": {"requests_total": 0, "cache": {"capacity": 0},
                       "admission": {"max_queue_depth": None}},
            "programs": {}, "requests": [],
        }
        frame = render(stats, "http://x:1")
        # No *runtime* fast-path line; the config header still names
        # the knobs, all off.
        assert "config: cache off   queue off" in frame
        assert "cache 0/" not in frame and "queue 0/" not in frame

    def test_config_line_shows_enabled_knobs(self):
        stats = {
            "server": {
                "requests_total": 0,
                "cache": {"capacity": 128},
                "admission": {"max_queue_depth": 16},
                "history": {"interval_s": 5.0},
            },
            "programs": {}, "requests": [],
        }
        frame = render(stats, "http://x:1")
        assert "config: cache 128   queue 16   history 5s" in frame


def _history(samples):
    return {"capacity": 360, "count": len(samples), "samples": samples}


def _tick(ts, requests=None, lat_count=None, lat_sum=None):
    metrics = {}
    if requests is not None:
        metrics["serve.requests"] = {"type": "counter", "total": requests}
    if lat_count is not None:
        metrics["serve.latency_ms"] = {
            "type": "histogram", "count": lat_count, "sum": lat_sum,
        }
    return {"seq": int(ts), "ts": float(ts), "ts_us": float(ts) * 1e6,
            "metrics": metrics}


class TestSparkline:
    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_lowest_block(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_scales_to_extremes(self):
        line = sparkline([0, 4, 8])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 3

    def test_window_keeps_the_latest_points(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[-1] == "█"

    def test_history_rates(self):
        samples = [_tick(0, requests=0), _tick(1, requests=10),
                   _tick(2, requests=10)]
        assert history_rates(samples, "serve.requests") == [10.0, 0.0]

    def test_history_rates_skip_missing_metric(self):
        samples = [_tick(0), _tick(1, requests=5), _tick(2, requests=9)]
        assert history_rates(samples, "serve.requests") == [4.0]

    def test_history_mean_latency(self):
        samples = [
            _tick(0, lat_count=0, lat_sum=0.0),
            _tick(1, lat_count=2, lat_sum=10.0),   # mean 5 ms
            _tick(2, lat_count=2, lat_sum=10.0),   # idle: repeats 5
            _tick(3, lat_count=4, lat_sum=30.0),   # mean 10 ms
        ]
        assert history_mean_latency(samples) == [5.0, 5.0, 10.0]

    def test_render_includes_sparklines_with_history(self):
        history = _history([
            _tick(0, requests=0, lat_count=0, lat_sum=0.0),
            _tick(1, requests=10, lat_count=10, lat_sum=50.0),
            _tick(2, requests=30, lat_count=30, lat_sum=90.0),
        ])
        frame = render(STATS, "http://x:1", history=history)
        assert "req/s" in frame and "mean ms" in frame
        spark_line = next(l for l in frame.splitlines()
                          if l.startswith("req/s"))
        assert any(block in spark_line for block in "▁▂▃▄▅▆▇█")

    def test_render_without_history_has_no_sparklines(self):
        frame = render(STATS, "http://x:1")
        assert "req/s" not in frame

    def test_render_with_single_sample_has_no_sparklines(self):
        frame = render(STATS, "http://x:1",
                       history=_history([_tick(0, requests=1)]))
        assert "req/s" not in frame


class TestRunTop:
    def test_polls_live_server(self):
        server = MediatorServer(port=0, warm=False)
        server.warm_now()
        server.start()
        try:
            post_convert(server, brochure_sgml(2, distinct_suppliers=2))
            out = io.StringIO()
            code = run_top(
                f"http://{server.host}:{server.port}",
                interval=0.05, iterations=2, clear=False, out=out,
            )
            assert code == 0
            text = out.getvalue()
            assert text.count("repro top —") == 2
            assert PROGRAM in text
            # the second frame has a previous poll, so a numeric rate
            last_frame_lines = text.rstrip().splitlines()
            program_lines = [l for l in last_frame_lines
                             if l.startswith("Sgml")]
            assert program_lines[-1].split()[2] != "-"
            # top's own scrapes are visible server-side
            assert server.registry.value(
                "serve.http.requests", route="stats"
            ) == 2
        finally:
            server.stop()

    def test_unreachable_server_returns_1(self):
        out = io.StringIO()
        code = run_top("http://127.0.0.1:9", interval=0.01,
                       iterations=2, clear=False, out=out)
        assert code == 1
        assert "unreachable" in out.getvalue()

    def test_clear_frames_use_ansi(self):
        server = MediatorServer(port=0, warm=False)
        server.warm_now()
        server.start()
        try:
            out = io.StringIO()
            run_top(f"http://{server.host}:{server.port}",
                    interval=0.01, iterations=1, clear=True, out=out)
            assert out.getvalue().startswith("\x1b[2J\x1b[H")
        finally:
            server.stop()
