"""Scan execution: per-component CPE generation, matching, and caching.

A job walks its inventory in order against the database snapshot pinned
at job start, so a concurrent update cannot tear its results; one
component failing never aborts its siblings. The job reads the pinned
snapshot's cache and stores its misses there together at the end, where
only jobs pinned to that same generation read them. The report keeps the
pinned snapshot, so its serialized scores and exploit flags come from
the same generation as its results and summary.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field

from .db import DbSnapshot, VulnDatabase
from .generation import generate_cpes
from .inventory import Inventory, Pvc, fingerprint_pvc, pvc_to_dict

log = logging.getLogger(__name__)


class EngineError(Exception):
    """Raised when a scan cannot run at all (uninitialized database)."""


@dataclass(frozen=True)
class PvcScanResult:
    """Outcome for a single inventory component."""

    pvc: Pvc
    cve_ids: frozenset[str]
    cache_hit: bool
    error: str | None = None


@dataclass(frozen=True)
class ScanReport:
    """All per-component results for one job plus the rollup summary,
    and the snapshot they were computed on."""

    token: str
    results: tuple[PvcScanResult, ...]
    total_cves: int
    max_cvss: float | None
    exploit_count: int
    snapshot: DbSnapshot = field(repr=False, compare=False)


@dataclass
class ScanJob:
    """A queued scan: token, owner, inventory, and once finished its
    report document (None when the job raised).

    enqueued_at is on the time.monotonic clock; finished is set once the
    job has run; report is set before it.
    """

    token: str
    client_id: str
    inventory: Inventory
    enqueued_at: float = field(default_factory=time.monotonic)
    polls_used: int = 0
    report: dict | None = field(default=None, repr=False)
    finished: threading.Event = field(default_factory=threading.Event,
                                      repr=False, compare=False)


def _scan(pvc: Pvc, database: VulnDatabase, snapshot: DbSnapshot
          ) -> tuple[PvcScanResult, tuple[bytes, frozenset[str]] | None]:
    """Scan one component against the snapshot; returns the result and,
    on a cache miss, the fingerprint and ids to cache."""
    fingerprint = fingerprint_pvc(pvc)
    cached = database.cache_lookup(snapshot, fingerprint)
    if cached is not None:
        return PvcScanResult(pvc=pvc, cve_ids=cached, cache_hit=True), None
    candidates = generate_cpes(pvc, snapshot.gen_index)
    cve_ids = frozenset(snapshot.match_cpes_to_cves(candidates))
    return PvcScanResult(pvc=pvc, cve_ids=cve_ids, cache_hit=False), (fingerprint, cve_ids)


def _pin_snapshot(database: VulnDatabase) -> DbSnapshot:
    """The current snapshot; raises EngineError when no update has completed."""
    snapshot = database.snapshot()
    if snapshot.generation < 1:
        raise EngineError("database has no completed update; run an update first")
    return snapshot


def scan_pvc(pvc: Pvc, database: VulnDatabase) -> PvcScanResult:
    """Scan one component against the current database snapshot.

    Cache hits return the stored ids without regenerating or matching;
    misses do the full generate/match pass and store the outcome in the
    snapshot's cache.
    """
    snapshot = _pin_snapshot(database)
    result, miss = _scan(pvc, database, snapshot)
    if miss is not None:
        database.cache_store(snapshot, [miss])
    return result


def _summarize(results, snapshot: DbSnapshot) -> tuple[int, float | None, int]:
    all_ids: set[str] = set()
    for result in results:
        all_ids |= result.cve_ids
    max_cvss: float | None = None
    for cve_id in all_ids:
        record = snapshot.records.get(cve_id)
        if record is None:
            continue
        best = record.max_cvss()
        if best is not None and (max_cvss is None or best > max_cvss):
            max_cvss = best
    return len(all_ids), max_cvss, len(snapshot.exploited.intersection(all_ids))


def execute_job(job: ScanJob, database: VulnDatabase) -> ScanReport:
    """Scan every component of the job's inventory, in order, against one
    pinned snapshot; then hand the job's misses to the cache in one batch.
    Raises EngineError, scanning nothing, when no update has completed."""
    snapshot = _pin_snapshot(database)
    results: list[PvcScanResult] = []
    misses: list[tuple[bytes, frozenset[str]]] = []
    for position, pvc in enumerate(job.inventory.pvcs):
        try:
            result, miss = _scan(pvc, database, snapshot)
        except Exception as exc:
            log.exception("scan failed for component %d of the inventory", position)
            result, miss = PvcScanResult(
                pvc=pvc,
                cve_ids=frozenset(),
                cache_hit=False,
                error=f"{type(exc).__name__}: {exc}",
            ), None
        results.append(result)
        if miss is not None:
            misses.append(miss)
    database.cache_store(snapshot, misses)
    total, max_cvss, exploit_count = _summarize(results, snapshot)
    return ScanReport(
        token=job.token,
        results=tuple(results),
        total_cves=total,
        max_cvss=max_cvss,
        exploit_count=exploit_count,
        snapshot=snapshot,
    )


def compute_accuracy(found: set, actual: set) -> float:
    """Percentage of the actual vulnerability set that was found."""
    if not actual:
        raise ValueError("accuracy is undefined for an empty actual set")
    return len(set(found) & set(actual)) / len(actual) * 100.0


# -- report serialization -------------------------------------------------

def report_to_dict(report: ScanReport) -> dict:
    """JSON-ready report form; per-CVE scores and exploit flags come from
    the snapshot the job was scanned against."""
    results = []
    for result in report.results:
        cves = []
        for cve_id in sorted(result.cve_ids):
            entry: dict = {"id": cve_id, "exploit": cve_id in report.snapshot.exploited}
            record = report.snapshot.records.get(cve_id)
            if record is not None:
                best = record.max_cvss()
                if best is not None:
                    entry["cvss"] = best
            cves.append(entry)
        doc = {
            "pvc": pvc_to_dict(result.pvc),
            "cves": cves,
            "cache_hit": result.cache_hit,
        }
        if result.error is not None:
            doc["error"] = result.error
        results.append(doc)
    summary = {
        "total_cves": report.total_cves,
        "max_cvss": report.max_cvss,
        "exploit_count": report.exploit_count,
    }
    return {"token": report.token, "results": results, "summary": summary}
