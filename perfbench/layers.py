"""Per-layer metrics from the spans of a traced run.

Every metric is computed over the spans that started inside the load
window, so set-up, warm-up and post-load updates do not count, except
the db set-up and update times, which the server processes time
themselves.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated; 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rows(rows, window):
    lo, hi = window
    return [r for r in rows if lo <= r[4] <= hi]


def per_layer(server_rows, client_rows, setups, server_stats, states,
              window) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit).

    server_rows and client_rows are span rows [id, parent, trace, name,
    start, end, error, attrs]; setups holds the server stats of every
    set-up of the run.
    """
    server_rows = _rows(server_rows, window)
    client_rows = _rows(client_rows, window)
    by_name = defaultdict(list)
    for row in server_rows + client_rows:
        by_name[row[3]].append(row)

    def ms(name):
        return [(r[5] - r[4]) * 1000.0 for r in by_name[name]]

    def busy_s(name):
        return sum(r[5] - r[4] for r in by_name[name])

    candidates = [r[7].get("candidates", 0) for r in by_name["generation.generate"]]
    lookups = by_name["db.cache_lookup"]
    hits = sum(1 for r in lookups if r[7].get("hit"))
    enqueued = {r[2]: r[5] for r in by_name["server.enqueue"] if r[2]}
    scans = max(1, len(enqueued))
    waits = [(r[4] - enqueued[r[2]]) * 1000.0
             for r in by_name["engine.execute_job"] if r[2] in enqueued]
    fetches = by_name["server.fetch_result"]
    reasons = defaultdict(int)
    for r in fetches + by_name["server.enqueue"] + by_name["server.verify"]:
        if "reason" in r[7]:
            reasons[r[7]["reason"]] += 1
    reasons["bad-inventory"] += sum(1 for r in by_name["inventory.parse"] if r[6])
    frames = [r[7]["bytes"] for r in by_name["protocol.encode_frame"] if "bytes" in r[7]]
    spans_in_window = len(server_rows) + len(client_rows)

    return {
        "inventory.parse_ms_p50": (percentile(ms("inventory.parse"), 50), "ms"),
        "generation.generate_ms_p50": (percentile(ms("generation.generate"), 50), "ms"),
        "generation.generate_ms_p90": (percentile(ms("generation.generate"), 90), "ms"),
        "generation.busy_s": (busy_s("generation.generate"), "s"),
        "generation.candidates_p50": (percentile(candidates, 50), "count"),
        "generation.candidates_max": (float(max(candidates, default=0)), "count"),
        "db.match_ms_p50": (percentile(ms("db.match"), 50), "ms"),
        "db.match_ms_p90": (percentile(ms("db.match"), 90), "ms"),
        "db.match_busy_s": (busy_s("db.match"), "s"),
        "db.cache_lookup_ms_p50": (percentile(ms("db.cache_lookup"), 50), "ms"),
        "db.cache_lookup_ms_p90": (percentile(ms("db.cache_lookup"), 90), "ms"),
        "db.cache_lookups": (float(len(lookups)), "count"),
        "db.cache_hit_ratio": (hits / len(lookups) if lookups else 0.0, "ratio"),
        "db.cache_store_ms_p50": (percentile(ms("db.cache_store"), 50), "ms"),
        "db.ingest_s": (statistics.median(s["ingest_s"] for s in setups), "s"),
        "db.open_s": (statistics.median(s["open_s"] for s in setups), "s"),
        "db.update_sources_s": (statistics.median(server_stats["updates"] or [0.0]), "s"),
        "engine.queue_wait_ms_p50": (percentile(waits, 50), "ms"),
        "engine.queue_wait_ms_p90": (percentile(waits, 90), "ms"),
        "engine.execute_job_ms_p50": (percentile(ms("engine.execute_job"), 50), "ms"),
        "engine.execute_job_ms_p90": (percentile(ms("engine.execute_job"), 90), "ms"),
        "engine.report_to_dict_ms_p50": (percentile(ms("engine.report_to_dict"), 50), "ms"),
        "engine.component_errors": (float(sum(r[7].get("errors", 0)
                                              for r in by_name["engine.execute_job"])), "count"),
        "protocol.seal_ms_p50": (percentile(ms("protocol.seal"), 50), "ms"),
        "protocol.open_ms_p50": (percentile(ms("protocol.open"), 50), "ms"),
        "protocol.frame_bytes_p50": (percentile(frames, 50), "bytes"),
        "protocol.frame_bytes_max": (float(max(frames, default=0)), "bytes"),
        "protocol.frame_errors": (float(sum(1 for r in by_name["protocol.encode_frame"]
                                            if r[6] == "FrameError")), "count"),
        "server.polls_per_scan": (len(fetches) / scans, "count"),
        "server.not_ready_share": (sum(1 for r in fetches if r[7].get("type") == "RESULT_NOT_READY")
                                   / len(fetches) if fetches else 0.0, "ratio"),
        "server.handle_ms_p50": (percentile(ms("server.handle"), 50), "ms"),
        "server.rejects": (float(sum(reasons.values())), "count"),
        "server.rejects_busy": (float(reasons["busy"]), "count"),
        "server.rejects_poll_limit": (float(reasons["poll-limit"]), "count"),
        "server.rejects_scan_failed": (float(reasons["scan-failed"]), "count"),
        "client.submit_ms_p50": (percentile(ms("client.submit"), 50), "ms"),
        "client.poll_sleep_s_per_scan": (sum(s.sleep_s for s in states) / scans, "s"),
        "client.retries": (float(sum(s.transport.failures for s in states)), "count"),
        "trace.spans": (float(spans_in_window), "count"),
    }
