"""Benchmark-owned scan server processes.

Two modes, each making the calls a deployment makes:

    ingest ROOT DB_PATH FEEDS_DIR
        ``invscan server update`` into an empty database
        (``VulnDatabase`` + ``run_update``), in a process of its own;
        prints "ingested <s>" and exits.

    serve ROOT WORKDIR CORPUS_DIR TRACE
        ``invscan server serve`` on WORKDIR/invscan.db (``load_config``,
        ``VulnDatabase``, ``VulnServer``, ``make_tcp_server``, worker
        threads). Only deployment settings are set: port, database path,
        credentials and one allow rule for 127.0.0.1; every other
        ``ServerConfig`` value keeps its default.

A serving process is controlled line by line over stdin and answers on
stdout:

    (start)            -> "ready <port> <open_s>"
    schedule <period> <count>
                       -> applies the next <count> delta feeds at <period>,
                          2 <period>, ... seconds from now, in a background
                          thread
    update             -> applies the next delta feed now; "updated <s>"
    mark               -> records the CPU time used so far, less that of
                          feed updates; "marked"
    stop, or EOF       -> stops; writes the stats file; "stopped"

Each delta is applied with ``VulnServer.run_update`` in the serving
process, so the running daemon sees the new generation.

Usage: python3 perfbench/server_proc.py MODE ARGS...
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import threading
import time
from pathlib import Path


def process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def ingest(root: Path, db_path: str, feeds_dir: str) -> int:
    sys.path.insert(0, str(root / "src"))
    from invscan import server
    from invscan.db import VulnDatabase

    started = time.perf_counter()
    database = VulnDatabase(db_path)
    server.run_update(database, feeds_dir)
    database.close()
    print(f"ingested {time.perf_counter() - started!r}", flush=True)
    return 0


def serve(root: Path, work: Path, corpus_dir: Path, trace: bool) -> int:
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    logging.basicConfig(level=logging.INFO, filename=str(work / "server.log"),
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install_server()

    from invscan import server
    from invscan.db import VulnDatabase

    config_path = work / "server.json"
    config_path.write_text(json.dumps({
        "port": 0,
        "db_path": str(work / "invscan.db"),
        "credentials_path": str(work / "credentials.json"),
        "firewall": [{"action": "allow", "cidr": "127.0.0.1/32"}],
    }), encoding="utf-8")
    config = server.load_config(str(config_path))
    started = time.perf_counter()
    database = VulnDatabase(config.db_path)
    open_s = time.perf_counter() - started
    app = server.VulnServer(config, database)
    tcp = server.make_tcp_server(app, "127.0.0.1", port=0)
    app.start_workers()
    serving = threading.Thread(target=tcp.serve_forever, name="accept", daemon=True)
    serving.start()

    updates: list[float] = []
    update_cpu_s = [0.0]
    marks: list[float] = []
    deltas = sorted(p for p in (corpus_dir / "deltas").iterdir() if p.is_dir())
    stop = threading.Event()
    update_lock = threading.Lock()

    def apply_next() -> float:
        with update_lock:
            delta = deltas[len(updates) % len(deltas)]
            began, began_cpu = time.perf_counter(), time.thread_time()
            app.run_update(str(delta))
            elapsed = time.perf_counter() - began
            update_cpu_s[0] += time.thread_time() - began_cpu
            updates.append(elapsed)
            return elapsed

    def scheduled(period: float, count: int) -> None:
        began = time.perf_counter()
        for k in range(1, count + 1):
            if stop.wait(max(0.0, began + k * period - time.perf_counter())):
                return
            apply_next()

    scheduler = None
    print(f"ready {tcp.server_address[1]} {open_s!r}", flush=True)
    for line in sys.stdin:
        command = line.split()
        if not command or command[0] == "stop":
            break
        if command[0] == "schedule":
            scheduler = threading.Thread(target=scheduled,
                                         args=(float(command[1]), int(command[2])),
                                         name="updates", daemon=True)
            scheduler.start()
        elif command[0] == "update":
            print(f"updated {apply_next()!r}", flush=True)
        elif command[0] == "mark":
            with update_lock:
                marks.append(process_cpu_s() - update_cpu_s[0])
            print("marked", flush=True)
    stop.set()
    if scheduler is not None:
        scheduler.join()
    tcp.shutdown()
    tcp.server_close()
    app.stop_workers()
    database.close()
    stats = {
        "open_s": open_s,
        "updates": updates,
        "marks_cpu_s": marks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (work / "server-stats.json").write_text(json.dumps(stats), encoding="utf-8")
    if tracer is not None:
        tracer.dump(work / "spans-server.json")
    print("stopped", flush=True)
    return 0


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "ingest":
        return ingest(Path(args[0]), args[1], args[2])
    return serve(Path(args[0]), Path(args[1]), Path(args[2]), args[3] == "1")


if __name__ == "__main__":
    sys.exit(main())
