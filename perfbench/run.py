"""Loopback scan benchmark for invscan.

Runs the real scan server (``server_proc.py``, a separate process) and
the real client over loopback TCP, on a corpus and inventories generated
from --seed (``corpus.py``), and checks every report against the planted
truth. Prints a readable summary, then, as the last line, one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a run whose layers are wrapped in spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_fleet --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

    cold_fleet           distinct components; cache unused; no updates
                         during the load
    rescan_with_updates  each client rescans a fixed fleet; one feed
                         update lands during the load
    vendor_fallback      as cold_fleet, but in rounds that saturate the
                         server, and one inventory in 100 carries an OS
                         whose vendor the dictionary lacks

Everything the run writes goes under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUPS = 3                 # set-ups per run; setup_s is their median
POST_LOAD_UPDATES = 3      # feed updates after the load, where none run during it
CACHED_SEEDS = 12          # generated corpora kept under .bench_work/corpus
WATCHDOG_S = 170.0
CLIENT_IDS = ("bench-0", "bench-1")
# figures the traced run reports too; their difference from the untraced
# run of the same seed is the tracing overhead
TRACED = {"scan_latency_p50_s": "s", "components_per_s": "1/s",
          "server_cpu_ms_per_component": "ms"}
PROBE_ID = "bench-probe"


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int          # inventories a client submits per round
    inventories: int         # inventories generated for the workload
    fixed_fleet: bool = False
    updates_during_load: int = 0
    unknown_every: int = 0   # one inventory in this many has an unknown-vendor OS
    unknown_offset: int = 0  # index of the first such inventory


WORKLOADS = {w.name: w for w in (
    Workload("cold_fleet", round_size=2, inventories=480),
    Workload("rescan_with_updates", round_size=2, inventories=2 * 2, fixed_fleet=True,
             updates_during_load=1),
    Workload("vendor_fallback", round_size=15, inventories=480, unknown_every=100,
             unknown_offset=21),
)}


class BenchError(Exception):
    """The benchmark could not run to the end."""


def log(message: str) -> None:
    print(message, flush=True)


# -- inputs -------------------------------------------------------------------

def prepare_inputs(seed: int):
    """Generate (or reuse) the corpus and every workload's inventories for
    the seed; returns the corpus directory. Never timed."""
    import corpus

    shapes = repr([(w.name, w.inventories, w.unknown_every, w.unknown_offset)
                   for w in WORKLOADS.values()])
    code = hashlib.sha256((HERE / "corpus.py").read_bytes() + shapes.encode()).hexdigest()[:12]
    cache = WORK / "corpus"
    target = cache / f"seed-{seed}-{code}"
    if (target / "done").exists():
        return target
    partial = cache / f".partial-{seed}-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    generated = corpus.Corpus(seed)
    generated.write(partial)
    for workload in WORKLOADS.values():
        inventories = generated.inventories(workload.name, workload.inventories,
                                            workload.unknown_every, workload.unknown_offset)
        corpus.write_inventories(inventories, partial / "inventories" / workload.name)
    (partial / "done").write_text("", encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    os.replace(partial, target)
    kept = sorted((p for p in cache.iterdir() if p.name.startswith("seed-")),
                  key=lambda p: p.stat().st_mtime)
    for old in kept[:-CACHED_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def load_plan(corpus_dir: Path, workload: Workload):
    from loadgen import PlannedScan

    inventory_dir = corpus_dir / "inventories" / workload.name
    plan = json.loads((inventory_dir / "truth.json").read_text(encoding="utf-8"))
    return [PlannedScan(str(inventory_dir / name), truth, unknown, len(truth))
            for name, truth, unknown in plan]


def credentials(seed: int) -> dict[str, tuple[str, bytes]]:
    out = {}
    for client_id in CLIENT_IDS + (PROBE_ID,):
        secret = f"perfbench-{seed}-{client_id}"
        out[client_id] = (secret, hashlib.sha256(secret.encode()).digest()[:16])
    return out


# -- the server process -----------------------------------------------------

def ingest(work: Path, corpus_dir: Path, live: list) -> float:
    """Ingest the seed's feeds into an empty database in a short child
    process, as ``invscan server update`` does; returns its ingest time."""
    work.mkdir(parents=True)
    with open(work / "ingest.err", "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_proc.py"), "ingest", str(ROOT),
             str(work / "invscan.db"), str(corpus_dir / "feeds")],
            stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=str(ROOT))
        live.append(proc)
        out, _ = proc.communicate()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ingested":
        raise BenchError(f"ingest failed (exit {proc.returncode}); see {work / 'ingest.err'}")
    return float(words[1])


class ServerProcess:
    """One serving server_proc.py child, driven over its stdin and stdout."""

    def __init__(self, work: Path, corpus_dir: Path, trace: bool,
                 creds: dict[str, tuple[str, bytes]]) -> None:
        self.work = work
        (work / "credentials.json").write_text(json.dumps(
            {cid: {"secret": secret, "salt": salt.hex()} for cid, (secret, salt) in creds.items()}),
            encoding="utf-8")
        self._stderr = open(work / "server.err", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_proc.py"), "serve", str(ROOT), str(work),
             str(corpus_dir), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, cwd=str(ROOT))
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self, word: str, timeout: float) -> list[str]:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"server did not answer {word!r} within {timeout} s") from None
        if line is None or not line.startswith(word):
            raise BenchError(f"server answered {line!r}, expected {word!r}; "
                             f"see {self.work / 'server.err'}")
        return line.split()[1:]

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        """Stop the server; returns its stats."""
        self.send("stop")
        self.expect("stopped", 60)
        self.close()
        return json.loads((self.work / "server-stats.json").read_text(encoding="utf-8"))

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()


def set_up(index: int, run_dir: Path, corpus_dir: Path, trace: bool, creds,
           probe_path: Path, live: list) -> tuple[ServerProcess, int, float, float]:
    """Ingest into an empty database and start a server on it, up to the
    first accepted scan; returns (server, port, set-up s, ingest s)."""
    from invscan import client
    from loadgen import client_config

    started = time.perf_counter()
    work = run_dir / f"server-{index}"
    ingest_s = ingest(work, corpus_dir, live)
    server = ServerProcess(work, corpus_dir, trace, creds)
    live.append(server.proc)
    port = int(server.expect("ready", 150)[0])
    secret, salt = creds[PROBE_ID]
    code, _token = client.run_scan(client_config(port, PROBE_ID, secret, salt), str(probe_path))
    if code != client.EXIT_OK:
        raise BenchError(f"set-up probe scan was not accepted (client exit {code})")
    return server, port, time.perf_counter() - started, ingest_s


# -- metrics -------------------------------------------------------------------

def end_to_end(outcomes, load_s: float, setup_times, stats) -> dict[str, tuple[float, str]]:
    from layers import percentile

    ok = [o for o in outcomes if o.status == "ok"]
    latencies = [o.latency_s for o in ok]
    accuracy = [o.accuracy_pct for o in outcomes if o.accuracy_pct is not None]
    return {
        "scan_latency_p50_s": (percentile(latencies, 50), "s"),
        "scan_latency_p90_s": (percentile(latencies, 90), "s"),
        "components_per_s": (sum(o.scan.components for o in ok) / load_s, "1/s"),
        "scan_success_pct": (100.0 * len(ok) / max(1, len(outcomes)), "%"),
        "accuracy_pct": (statistics.fmean(accuracy) if accuracy else 0.0, "%"),
        "update_s": (statistics.median(stats["updates"]) if stats["updates"] else 0.0, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "server_peak_rss_mb": (stats["peak_rss_mb"], "MB"),
    }


def server_cpu_ms_per_component(ok, stats) -> float:
    """Serving-process CPU time in the load window, less that of feed
    updates, per component in successfully returned reports. Printed, not
    compared: it follows the machine's speed (see README.md)."""
    start_cpu_s, end_cpu_s = stats["marks_cpu_s"]
    return (end_cpu_s - start_cpu_s) * 1000.0 / max(1, sum(o.scan.components for o in ok))


def machine() -> str:
    import sqlite3

    import cryptography

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"cryptography={cryptography.__version__} sqlite={sqlite3.sqlite_version}")


# -- one run ---------------------------------------------------------------------

def run(args, live: list) -> dict:
    from invscan import client
    from loadgen import (ClientThreadState, ClosedLoop, CountingTransport, check_report,
                         client_config)

    workload = WORKLOADS[args.workload]
    corpus_dir = prepare_inputs(args.seed)
    plan = load_plan(corpus_dir, workload)
    sizes = json.loads((corpus_dir / "sizes.json").read_text(encoding="utf-8"))
    log(f"machine: {machine()}")
    log("corpus: " + ", ".join(f"{k}={v}" for k, v in sizes.items() if k != "scale"))

    run_dir = WORK / f"last-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    logging_setup(run_dir / "client.log")
    creds = credentials(args.seed)
    probe_path = run_dir / "probe.json"
    probe_path.write_text(json.dumps({"target_label": "set-up probe", "pvcs": [
        {"kind": "hw", "name": "Probe Device"}]}), encoding="utf-8")

    client_tracer = None
    if args.trace:
        from tracing import Tracer
        client_tracer = Tracer()
        client_tracer.install_client()

    setup_times, setup_stats = [], []
    for index in range(SETUPS):
        server, port, seconds, ingest_s = set_up(index, run_dir, corpus_dir, args.trace, creds,
                                                 probe_path, live)
        setup_times.append(seconds)
        if index < SETUPS - 1:
            setup_stats.append(dict(server.stop(), ingest_s=ingest_s))

    states = []
    for client_id in CLIENT_IDS:
        secret, salt = creds[client_id]
        config = client_config(port, client_id, secret, salt)
        states.append(ClientThreadState(config, CountingTransport("127.0.0.1", port),
                                        config.credential()))

    if workload.fixed_fleet:
        fleet = [plan[i * workload.round_size:(i + 1) * workload.round_size]
                 for i in range(len(states))]
        warm_up = [True] * len(states)

        def warm_round(index):
            if warm_up[index]:
                warm_up[index] = False
                return fleet[index]
            return []

        ClosedLoop(states, warm_round).run(float("inf"))
        for state in states:
            state.outcomes.clear()
            state.sleep_s = 0.0
            state.transport.failures = 0
        next_round = lambda index: fleet[index]  # noqa: E731
    else:
        # The second client's first round is half a round, so the two
        # clients' rounds stay staggered: when one client waits for its
        # next poll, the other's scans keep the server busy.
        cursor = [0]
        first = [True] * len(states)
        lock = threading.Lock()

        def next_round(index):
            size = workload.round_size
            if first[index] and index % 2:
                size //= 2
            first[index] = False
            with lock:
                start = cursor[0]
                cursor[0] += size
            return plan[start:start + size]

    loop = ClosedLoop(states, next_round)
    server.send("mark")
    server.expect("marked", 60)
    window_start = time.perf_counter()
    if workload.updates_during_load:
        period = args.seconds / (workload.updates_during_load + 0.4)
        server.send(f"schedule {period!r} {workload.updates_during_load}")
    load_s = loop.run(args.seconds)
    window_end = time.perf_counter()
    server.send("mark")
    server.expect("marked", 60)
    if loop.errors:
        raise BenchError(f"client thread failed: {loop.errors[0]!r}")
    if not workload.updates_during_load:
        for _ in range(POST_LOAD_UPDATES):
            server.send("update")
            server.expect("updated", 120)
    stats = dict(server.stop(), ingest_s=ingest_s)
    setup_stats.append(stats)

    outcomes = [o for state in states for o in state.outcomes]
    for outcome in outcomes:
        check_report(outcome)
    ok = [o for o in outcomes if o.status == "ok"]
    incorrect = [o for o in outcomes
                 if o.status in ("incomplete", "missing-planted", "unplanted")]
    ordinary_failed = [o for o in outcomes if o.status != "ok" and not o.scan.unknown_vendor]
    correct = bool(ok) and not incorrect and not ordinary_failed

    e2e = end_to_end(outcomes, load_s, setup_times, stats)
    log(f"workload {workload.name}, seed {args.seed}, load {load_s:.2f} s, "
        f"{len(outcomes)} scans attempted, {len(ok)} ok, "
        f"{sum(1 for o in outcomes if o.scan.unknown_vendor)} with an unknown-vendor OS")
    log(f"failed_scan_share {(len(outcomes) - len(ok)) / max(1, len(outcomes)):.4f} "
        f"by class {dict(Counter(o.status for o in outcomes if o.status != 'ok'))} "
        f"by client exit code {dict(Counter(o.exit_code for o in outcomes if o.status != 'ok'))}")
    samples = {"scan_latency_p50_s": len(ok), "scan_latency_p90_s": len(ok),
               "components_per_s": len(ok), "scan_success_pct": len(outcomes),
               "accuracy_pct": sum(1 for o in outcomes if o.accuracy_pct is not None),
               "update_s": len(stats["updates"]),
               "setup_s": len(setup_times), "server_peak_rss_mb": 1}
    for name, (value, unit) in e2e.items():
        log(f"  {name:<28} {value:12.4f} {unit:<5} n={samples[name]}")
    figures = {name: value for name, (value, _) in e2e.items()}
    figures["server_cpu_ms_per_component"] = server_cpu_ms_per_component(ok, stats)
    log(f"server CPU per component {figures['server_cpu_ms_per_component']:.4f} ms "
        f"(n={len(ok)}; printed, not compared)")
    histogram = Counter(min(int(o.latency_s * 2) / 2, 15.0) for o in ok)
    log("latency histogram (s: scans) " + ", ".join(f"{k:g}: {histogram[k]}"
                                                     for k in sorted(histogram)))

    (run_dir / "scans.json").write_text(json.dumps([
        {"client": i, "inventory": Path(o.scan.path).name, "submitted_s": o.submitted - window_start,
         "latency_s": o.latency_s, "status": o.status, "components": o.scan.components}
        for i, state in enumerate(states) for o in state.outcomes]), encoding="utf-8")

    metrics = e2e
    untraced = WORK / "untraced" / f"{workload.name}-{args.seed}.json"
    if args.trace:
        from layers import per_layer

        server_trace = json.loads((server.work / "spans-server.json").read_text(encoding="utf-8"))
        metrics = per_layer(server_trace["spans"], [s.as_row() for s in client_tracer.spans],
                            setup_stats, stats, states, (window_start, window_end))
        for name, unit in TRACED.items():
            metrics[f"traced.{name}"] = (figures[name], unit)
        for name, (value, unit) in metrics.items():
            log(f"  {name:<38} {value:14.4f} {unit}")
        client_tracer.dump(run_dir / "spans-client.json")
        if untraced.exists():
            plain = json.loads(untraced.read_text(encoding="utf-8"))
            log("tracing overhead (traced minus the last untraced run of this seed): " + ", ".join(
                f"{name} {figures[name] - plain[name]:+.4f}" for name in TRACED))
        else:
            log("tracing overhead: no untraced run of this seed to compare with")
    else:
        untraced.parent.mkdir(exist_ok=True)
        untraced.write_text(json.dumps(figures), encoding="utf-8")

    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(ok),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def logging_setup(path: Path) -> None:
    import logging

    logging.basicConfig(level=logging.INFO, filename=str(path),
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "invscan" / "__init__.py").is_file():
        print(f"perfbench: no invscan sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import invscan
    if Path(invscan.__file__).resolve().parent != (ROOT / "src" / "invscan").resolve():
        print(f"perfbench: imported invscan from {invscan.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    live: list = []

    def watchdog() -> None:
        print(f"perfbench: run exceeded {WATCHDOG_S} s; stopping", file=sys.stderr, flush=True)
        for proc in live:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_S, watchdog)
    timer.daemon = True
    timer.start()
    try:
        result = run(args, live)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in live:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        timer.cancel()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
