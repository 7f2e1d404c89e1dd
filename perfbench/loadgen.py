"""Closed-loop scan load over loopback TCP, and the per-report check.

Each client thread owns one provisioned client id: threads sharing a
credential would interleave sequence numbers and trip the server's
replay check. A thread submits a round of inventories with
``client.run_scan`` (what ``invscan client scan --no-wait`` does), then
collects every report in submission order with ``client.poll_result`` at
the fastest poll interval ``ClientConfig`` allows. It starts its next
round only when the last report of the round is in.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from invscan import client
from invscan.engine import compute_accuracy

POLL_INTERVAL_S = 1.0


@dataclass(frozen=True)
class PlannedScan:
    path: str
    truth: list          # planted CVE ids of each component, in order
    unknown_vendor: bool
    components: int


@dataclass
class ScanOutcome:
    scan: PlannedScan
    submitted: float     # time.perf_counter() at the run_scan call
    latency_s: float
    exit_code: int
    report: dict | None
    status: str = ""     # "ok" or the failure class, set by check_report
    accuracy_pct: float | None = None


class CountingTransport(client.TcpTransport):
    """TCP transport that counts failed attempts (the client's retries)."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port)
        self.failures = 0

    def request(self, frame: bytes) -> bytes:
        try:
            return super().request(frame)
        except client.TransportError:
            self.failures += 1
            raise


@dataclass
class ClientThreadState:
    config: client.ClientConfig
    transport: CountingTransport
    cred: object = None
    sleep_s: float = 0.0
    outcomes: list = field(default_factory=list)

    def sleep(self, seconds: float) -> None:
        started = time.perf_counter()
        time.sleep(seconds)
        self.sleep_s += time.perf_counter() - started


def client_config(port: int, client_id: str, secret: str, salt: bytes) -> client.ClientConfig:
    return client.ClientConfig(server_host="127.0.0.1", server_port=port,
                               client_id=client_id, secret=secret, salt=salt,
                               poll_interval=POLL_INTERVAL_S)


def run_round(state: ClientThreadState, scans: list[PlannedScan]) -> None:
    """Submit every scan of the round, then collect each report in order."""
    submitted = []
    for scan in scans:
        started = time.perf_counter()
        code, token = client.run_scan(state.config, scan.path,
                                      transport=state.transport, cred=state.cred)
        submitted.append((scan, started, code, token))
    for scan, started, code, token in submitted:
        report = None
        if code == client.EXIT_OK:
            code, report = client.poll_result(state.config, token, transport=state.transport,
                                              cred=state.cred, sleep_fn=state.sleep)
        state.outcomes.append(ScanOutcome(scan, started, time.perf_counter() - started,
                                          code, report))


class ClosedLoop:
    """Two or more client threads, each running rounds until the deadline.

    Rounds come from next_round(thread index) and the load stops early
    when it returns an empty list. The threads start a poll interval
    apart, spread evenly: where rounds end at the first poll, the clients'
    scans then reach the server's workers at different times instead of
    queueing behind each other, and that queueing would decide whether a
    scan makes the first poll.
    """

    def __init__(self, states: list[ClientThreadState], next_round) -> None:
        self.states = states
        self.next_round = next_round
        self.errors: list[BaseException] = []

    def run(self, seconds: float) -> float:
        """Run the load; returns the seconds from its start to the end of
        its last round."""
        started = time.perf_counter()
        deadline = started + seconds
        finished = [started] * len(self.states)

        def loop(index: int) -> None:
            try:
                time.sleep(index * POLL_INTERVAL_S / len(self.states))
                while time.perf_counter() < deadline:
                    scans = self.next_round(index)
                    if not scans:
                        return
                    run_round(self.states[index], scans)
                    finished[index] = time.perf_counter()
            except BaseException as exc:  # reported by the caller
                self.errors.append(exc)

        threads = [threading.Thread(target=loop, args=(i,), name=f"client-{i}")
                   for i in range(len(self.states))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return max(finished) - started


def check_report(outcome: ScanOutcome) -> None:
    """Classify one scan against its planted truth.

    A scan fails on a nonzero client exit code ("exit-<code>"), a
    component that carries an error ("component-error"), a report that
    does not hold one result per component in inventory order
    ("incomplete"), a planted CVE missing from a component's result
    ("missing-planted"), or a reported CVE that was not planted
    ("unplanted").

    Every delivered, complete report also gets the paper's accuracy
    (recall of the planted ids), whether or not the scan passed.
    """
    if outcome.exit_code != client.EXIT_OK:
        outcome.status = f"exit-{outcome.exit_code}"
        return
    results = (outcome.report or {}).get("results", [])
    with open(outcome.scan.path, encoding="utf-8") as fh:
        pvcs = json.load(fh)["pvcs"]
    if len(results) != len(pvcs) or any(r.get("pvc") != p for r, p in zip(results, pvcs)):
        outcome.status = "incomplete"
        return
    found_all: set[str] = set()
    planted_all: set[str] = set()
    status = "component-error" if any("error" in r for r in results) else "ok"
    for result, planted in zip(results, outcome.scan.truth):
        found = {c["id"] for c in result.get("cves", [])}
        if status == "ok" and not set(planted) <= found:
            status = "missing-planted"
        elif status == "ok" and found != set(planted):
            status = "unplanted"
        found_all |= found
        planted_all |= set(planted)
    outcome.status = status
    if planted_all:
        outcome.accuracy_pct = compute_accuracy(found_all, planted_all)
