"""Vulnerability database: feed ingestion, persistence, matching, caching.

Backed by a single sqlite file in WAL journal mode: a reader sees the
last commit and never waits on a writer, in this process or another,
and a commit appends to the -wal file beside the database (with the
-shm index, which needs a local filesystem); synchronous stays FULL.
Data changes only through update_sources, one transaction that ingests
the sources and bumps the generation counter. It keeps what a scan
reads: a CVE row holds the highest CVSS base score and the sorted
canonical applicability URIs (a JSON list), tagged with the generation
that wrote it (an index covers the tag); a dictionary adds its distinct
(part, vendor, product) fields; an exploit map the CVE ids it links.
An update that ingests a dictionary or an exploit map records its
generation in meta. Readers work against an immutable snapshot per
generation (records, exploited ids, match index, generation index).
Opening a file builds nothing: the first snapshot() call builds the
snapshot of the file's generation from an empty one, scanning every
row. After that snapshot() builds whenever the file's generation has
moved: an update builds nothing, and one made through this connection
or another (another process) is picked up by the next snapshot() call.
A new snapshot is built from the previous one: it re-reads only the CVE
rows tagged after the previous generation, and, unless an exploit map
arrived since, only whether those are exploited; it reuses every other
record object and, unless a dictionary arrived since, the generation index,
and rebuilds only the match-index buckets the re-read records left or
entered.

A file lacking a column the code reads is refused, unchanged, with
DbError: the store derives from the feeds, so a new file rebuilds it.

The scan cache lives in memory, one per snapshot: a job reads and fills
the cache of the snapshot it pinned, so a new generation starts with an
empty one, and so does a restart. Each holds at most CACHE_MAX_ENTRIES
results, dropping the oldest first. Nothing about it touches the file.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import logging
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field

from .cpe import (PARTS, CpeError, check_cpe_fields, format_cpe_fields,
                  normalize_all, normalize_component, split_cpe_uri)
from .generation import ComponentCandidates, GenerationIndex, build_index_from_fields

log = logging.getLogger(__name__)

CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}")

# Scan results each snapshot keeps; past this the oldest are dropped.
CACHE_MAX_ENTRIES = 50_000

# The CVE rows a snapshot build reads. The first build reads every row, so
# it scans the table; a delta build seeks the rows tagged after the
# previous generation through the changed_generation index.
_FIRST_BUILD_READ = "SELECT id, max_cvss, applicability FROM cve"
_DELTA_BUILD_READ = _FIRST_BUILD_READ + " WHERE changed_generation > ?"

# One transaction: another process opening the new file finds all or none.
_SCHEMA = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cve (
    id TEXT PRIMARY KEY,
    max_cvss REAL,
    changed_generation INTEGER NOT NULL DEFAULT 0,
    applicability TEXT NOT NULL DEFAULT '[]'
);
CREATE TABLE IF NOT EXISTS cpe_dict (
    part TEXT NOT NULL,
    vendor TEXT,
    product TEXT
);
-- Not UNIQUE (part, vendor, product): that treats unset fields (NULLs) as distinct.
CREATE UNIQUE INDEX IF NOT EXISTS cpe_dict_name
    ON cpe_dict (part, ifnull(vendor, ''), ifnull(product, ''));
CREATE TABLE IF NOT EXISTS exploited (
    cve_id TEXT PRIMARY KEY
);
CREATE INDEX IF NOT EXISTS cve_changed_generation ON cve (changed_generation);
INSERT OR IGNORE INTO meta (key, value) VALUES ('generation', '0');
COMMIT;
"""

_LAYOUT_CHECK = ("SELECT m.key, m.value, c.id, c.max_cvss, c.changed_generation, "
                 "c.applicability, d.part, d.vendor, d.product, e.cve_id "
                 "FROM meta m, cve c, cpe_dict d, exploited e LIMIT 0")


class DbError(Exception):
    """Raised for database misuse (a malformed CVE id), a feed file that
    is not UTF-8 JSON holding a CVE_Items list, or a file of another layout."""


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability: identity, highest CVSS base score, applicable CPE
    field tuples; whether an exploit is known is kept in DbSnapshot.exploited."""

    id: str
    max_cvss: float | None = None
    applicability: frozenset[tuple[str | None, ...]] = frozenset()

    def __post_init__(self) -> None:
        if not CVE_ID_RE.fullmatch(self.id):
            raise DbError(f"malformed CVE id: {self.id!r}")


# Index key for names whose vendor or product is unspecified; those must
# be checked against every candidate set.
_WILDCARD = ("*", "*")


def _bucket_key(fields: tuple[str | None, ...]) -> tuple[str, str]:
    key = fields[1:3]
    return _WILDCARD if None in key else key


@dataclass(frozen=True)
class DbSnapshot:
    """Immutable view of one database generation, plus its scan cache.

    match_index maps (vendor, product) to the (CVE id, applicability
    field tuple) pairs that can only match names carrying those exact
    values; pairs with an unspecified vendor or product live in the
    wildcard bucket and are checked against everything. Lookup through
    the index is equivalent to the brute-force all-pairs scan over the
    candidates' expansion.

    cache maps a component fingerprint to the ids scanned on this
    snapshot, oldest first; only VulnDatabase reads and writes it. The ids
    are kept as tuples of str, which the collector stops tracking, so a
    full collection does not walk the cache.

    exploited holds the ids of the records an exploit map named: the one
    place exploit availability is kept, so no record object carries it.
    """

    generation: int
    records: dict[str, CveRecord]
    match_index: dict[tuple[str, str], tuple[tuple[str, tuple[str | None, ...]], ...]]
    gen_index: GenerationIndex
    exploited: frozenset[str] = frozenset()
    cache: dict[bytes, tuple[str, ...]] = field(default_factory=dict, repr=False,
                                                compare=False)

    def match_cpes_to_cves(self, candidates: ComponentCandidates) -> set[str]:
        """Ids of every record with an applicability name matching a name
        of the candidates' expansion, found without expanding: as
        cpe_matches compares field by field, a stored field tuple matches
        when its part is a candidate platform and each other field is
        unset on it, has no candidate set, or is in its set.

        Candidate vendors and products are never unset, so only the
        wildcard bucket and the buckets keyed by a candidate (vendor,
        product) pair can match. The wildcard bucket's tuples are tested
        on every field. A keyed bucket's tuples carry its key, a
        candidate pair, so only their part and version are tested, and
        their optional fields only when the candidates carry optional
        sets."""
        platforms, versions = candidates.platforms, candidates.versions
        optional = candidates.optional_sets()
        allowed = (platforms, candidates.vendors, candidates.products, versions, *optional)
        found: set[str] = set()
        for cve_id, fields in self.match_index.get(_WILDCARD, ()):
            for value, values in zip(fields, allowed):
                if value is not None and value not in values:
                    break
            else:
                found.add(cve_id)
        for pair in itertools.product(candidates.vendors, candidates.products):
            for cve_id, fields in self.match_index.get(pair, ()):
                if fields[0] not in platforms or (fields[3] is not None
                                                  and fields[3] not in versions):
                    continue
                for value, values in zip(fields[4:], optional):
                    if value is not None and value not in values:
                        break
                else:
                    found.add(cve_id)
        return found


@contextlib.contextmanager
def collector_paused():
    """Keep the cyclic collector off for the block, then restore the state
    it had before, so a caller that disabled it keeps it disabled.

    For bulk phases whose many allocations form no cycles and are freed
    by reference counting: a collection there would only walk them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _walk_nodes(nodes):
    """The cpe_match entries of configuration nodes and of their children;
    raises TypeError at a node or entry that is not an object."""
    for node in nodes:
        if not isinstance(node, dict):
            raise TypeError(f"a configuration node is a {type(node).__name__}, not an object")
        for entry in node.get("cpe_match", []):
            if not isinstance(entry, dict):
                raise TypeError(f"a cpe_match entry is a {type(entry).__name__}, not an object")
            yield entry
        yield from _walk_nodes(node.get("children", []))


def cpe23_to_22(uri: str) -> tuple[str | None, ...]:
    """Downconvert a CPE 2.3 formatted string to the fields of a 2.2 name.

    Splits on unescaped colons; '*' (ANY) maps to unspecified, other
    values keep their normalized form. Only the first seven logical
    components survive, which is all the 2.2 form can carry.
    """
    escaped = "\\" in uri
    raw = re.split(r"(?<!\\):", uri) if escaped else uri.split(":")
    if len(raw) < 5 or raw[0] != "cpe" or raw[1] != "2.3":
        raise CpeError(f"not a CPE 2.3 formatted string: {uri!r}")
    fields_23 = [value.replace("\\", "") for value in raw[2:9]] if escaped else raw[2:9]
    values = [None if value in ("*", "") else value for value in fields_23]
    part = values[0]
    if part not in PARTS:
        raise CpeError(f"unsupported part {part!r} in {uri!r}")
    # An escaped value may hold ':', which normalization removes.
    components = (list(map(normalize_component, values[1:])) if escaped
                  else normalize_all(values[1:], uri))
    return (part, *components, *(None,) * (7 - len(values)))


def canonical_applicability_uri(uri: str) -> str | None:
    """The canonical CPE 2.2 URI of one cpe_match entry's URI from a
    feed, CPE 2.2 or 2.3; None when unusable."""
    try:
        fields = split_cpe_uri(uri) if uri.startswith("cpe:/") else cpe23_to_22(uri)
    except CpeError as exc:
        log.warning("skipping unparseable applicability URI %r: %s", uri, exc)
        return None
    return format_cpe_fields(fields)


def _extract_cvss(impact: dict) -> float | None:
    """The higher of an item's CVSS v3 and v2 base scores, as a float;
    None when it has neither. Raises ValueError at a score that is not a
    finite number in 0-10 (a bool, a string, NaN or an infinity)."""
    scores = []
    for metric, key in (("baseMetricV3", "cvssV3"), ("baseMetricV2", "cvssV2")):
        cvss = impact.get(metric, {}).get(key, {})
        if "baseScore" in cvss:
            score = cvss["baseScore"]
            if (isinstance(score, bool) or not isinstance(score, (int, float))
                    or not 0 <= score <= 10):
                raise ValueError(f"CVSS base score {score!r} is not a number in 0-10")
            scores.append(float(score))
    return max(scores, default=None)


class VulnDatabase:
    """Single-file store plus the per-generation in-memory snapshot.

    Updates and the generation check in snapshot() take the instance
    lock; readers use the immutable snapshot. A cache store takes only
    the cache lock, a lookup no lock.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._lock = threading.RLock()
        self._cache_lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        # A file with no tables is new; any other must hold every column the
        # code reads, or it is refused before anything is written to it.
        try:
            new = self._conn.execute(
                "SELECT count(*) FROM sqlite_master WHERE type = 'table'").fetchone() == (0,)
            if not new:
                self._conn.execute(_LAYOUT_CHECK)
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise DbError(f"{path} does not hold the file layout this version reads ({exc}); "
                          "ingest the feeds into a new file") from exc
        # Readers see the last commit while a writer works; synchronous stays FULL.
        self._conn.execute("PRAGMA journal_mode=WAL")
        if new:
            self._conn.executescript(_SCHEMA)
        self._snapshot = DbSnapshot(generation=-1, records={}, match_index={},
                                    gen_index=build_index_from_fields(()))

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- generation / snapshot ------------------------------------------

    def snapshot(self) -> DbSnapshot:
        """The snapshot of the file's current generation, brought up to
        date first when another connection has updated the file."""
        with self._lock:
            if self._read_meta("generation") != self._snapshot.generation:
                self._snapshot = self._build_snapshot(self._snapshot)
            return self._snapshot

    def _read_meta(self, key: str) -> int:
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return int(row[0]) if row else 0

    def _write_meta(self, key: str, value: int) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?,?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (key, str(value)),
        )

    @collector_paused()
    def _build_snapshot(self, previous: DbSnapshot) -> DbSnapshot:
        """The snapshot of the file's current generation, built from the
        previous one.

        Only the CVE rows tagged after previous.generation are read
        again, each distinct stored URI parsed once; every other record
        object is shared with the previous snapshot. Rows are only
        upserted and exploited ids only inserted, so the exploited set
        only grows: unless an exploit map arrived after
        previous.generation, the re-read ids are all it can gain, and
        only those are looked up. The match index is patched: only the
        buckets keyed by the old or new applicability of a re-read
        record are rebuilt. The generation index is reused unless a
        dictionary was ingested after previous.generation. The reads
        share one transaction, so the snapshot shows exactly one
        generation. A stored score that is not a number, or an
        applicability that is not a JSON list, raises ValueError. Runs
        with the cyclic collector paused.
        """
        started = time.perf_counter()
        since = previous.generation
        records = dict(previous.records)
        gen_index = previous.gen_index
        cve_read, args = (_FIRST_BUILD_READ, ()) if since < 0 else (_DELTA_BUILD_READ, (since,))
        with self._conn:
            self._conn.execute("BEGIN")
            generation = self._read_meta("generation")
            if self._read_meta("exploit_generation") > since:
                exploited = frozenset(row[0] for row in self._conn.execute(
                    "SELECT e.cve_id FROM exploited e JOIN cve c ON c.id = e.cve_id"))
            else:
                exploited = previous.exploited.union(row[0] for row in self._conn.execute(
                    "SELECT cve_id FROM exploited WHERE cve_id IN "
                    "(SELECT id FROM cve WHERE changed_generation > ?)", (since,)))
            parsed: dict[str, tuple[str | None, ...] | None] = {}
            reread: dict[str, CveRecord] = {}
            # Match-index buckets a re-read record leaves or enters.
            touched: set[tuple[str, str]] = set()
            for cve_id, score, uris_json in self._conn.execute(cve_read, args):
                uris = json.loads(uris_json)
                if not isinstance(uris, list):
                    raise ValueError(f"stored applicability of {cve_id} is not a JSON list")
                for uri in uris:
                    if uri not in parsed:
                        try:
                            parsed[uri] = split_cpe_uri(uri)
                        except CpeError:
                            log.warning("dropping stored unparseable URI %r", uri)
                            parsed[uri] = None
                if cve_id in records:
                    touched.update(map(_bucket_key, records[cve_id].applicability))
                records[cve_id] = reread[cve_id] = CveRecord(
                    id=cve_id,
                    max_cvss=None if score is None else float(score),
                    applicability=frozenset(parsed[uri] for uri in uris
                                            if parsed[uri] is not None),
                )
                touched.update(map(_bucket_key, reread[cve_id].applicability))
            dictionary_changed = self._read_meta("dictionary_generation") > since
            if dictionary_changed:
                dict_fields = []
                for row in self._conn.execute("SELECT part, vendor, product FROM cpe_dict"):
                    try:
                        check_cpe_fields(*row)
                    except CpeError as exc:
                        log.warning("dropping stored dictionary name: %s", exc)
                    else:
                        dict_fields.append(row)
                gen_index = build_index_from_fields(dict_fields)
        buckets: dict[tuple[str, str], list[tuple[str, tuple[str | None, ...]]]] = {
            key: [pair for pair in previous.match_index.get(key, ()) if pair[0] not in reread]
            for key in touched
        }
        for record in reread.values():
            for fields in record.applicability:
                buckets[_bucket_key(fields)].append((record.id, fields))
        match_index = dict(previous.match_index)
        for key, pairs in buckets.items():
            if pairs:
                match_index[key] = tuple(pairs)
            else:
                del match_index[key]
        log.info("snapshot of generation %d built in %.1f ms: %d records re-read, "
                 "%d match buckets rebuilt, generation index %s", generation,
                 (time.perf_counter() - started) * 1e3, len(reread), len(touched),
                 "rebuilt" if dictionary_changed else "reused")
        return DbSnapshot(
            generation=generation,
            records=records,
            match_index=match_index,
            gen_index=gen_index,
            exploited=exploited,
        )

    # -- ingestion -------------------------------------------------------

    def _ingest_feed_locked(self, path: str, generation: int) -> int:
        """Upsert one feed's CVE rows, highest score and applicability,
        tagged with the generation; returns the number of CVE rows written.
        A CVE id that repeats within the feed keeps its last item; a
        malformed item is skipped with one warning naming its position; a
        file that is not UTF-8 JSON holding a CVE_Items list raises DbError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                feed = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DbError(f"feed {path} is not UTF-8 JSON: {exc}") from exc
        items = feed.get("CVE_Items") if isinstance(feed, dict) else None
        if not isinstance(items, list):
            raise DbError(f"feed {path} is not an object holding a CVE_Items list")
        stored: dict[str, str | None] = {}
        rows: dict[str, tuple[float | None, str]] = {}
        for position, item in enumerate(items):
            # A value of the wrong type anywhere in the item raises one of these.
            try:
                cve_id = item.get("cve", {}).get("CVE_data_meta", {}).get("ID")
                if not cve_id or not CVE_ID_RE.fullmatch(str(cve_id)):
                    raise ValueError("it lacks a usable CVE id")
                score = _extract_cvss(item.get("impact", {}))
                uris: set[str] = set()
                for entry in _walk_nodes(item.get("configurations", {}).get("nodes", [])):
                    uri = entry.get("cpe22Uri") or entry.get("cpe23Uri")
                    if not uri or entry.get("vulnerable") is False:
                        continue
                    if uri not in stored:
                        stored[uri] = canonical_applicability_uri(uri)
                    if stored[uri] is not None:
                        uris.add(stored[uri])
            except (AttributeError, TypeError, ValueError) as exc:
                log.warning("feed %s item %d skipped: %s", path, position, exc)
                continue
            rows[str(cve_id)] = (score, json.dumps(sorted(uris)))
        self._conn.executemany(
            "INSERT INTO cve (id, max_cvss, applicability, changed_generation) VALUES (?,?,?,?) "
            "ON CONFLICT(id) DO UPDATE SET max_cvss=excluded.max_cvss, "
            "applicability=excluded.applicability, "
            "changed_generation=excluded.changed_generation",
            [(cve_id, *row, generation) for cve_id, row in rows.items()],
        )
        return len(rows)

    def _ingest_dictionary_locked(self, path: str) -> int:
        """Add one dictionary's new (part, vendor, product) rows; returns their number."""
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    fields = split_cpe_uri(line)
                except CpeError as exc:
                    log.warning("%s:%d skipping malformed URI: %s", path, lineno, exc)
                    continue
                rows.append(fields[:3])
        return self._conn.executemany(
            "INSERT OR IGNORE INTO cpe_dict (part, vendor, product) VALUES (?,?,?)",
            rows,
        ).rowcount

    def _ingest_exploits_locked(self, path: str) -> int:
        """Add the new CVE ids one exploit map links; returns their number."""
        ids = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) != 2 or not parts[0] or not CVE_ID_RE.fullmatch(parts[1]):
                    if parts in (["exploit_id", "cve_id"],):
                        continue
                    log.warning("%s:%d skipping malformed exploit link %r", path, lineno, line)
                    continue
                ids.append((parts[1],))
        return self._conn.executemany(
            "INSERT OR IGNORE INTO exploited (cve_id) VALUES (?)", ids).rowcount

    @collector_paused()
    def update_sources(self, feed_paths=(), dictionary_paths=(), exploit_paths=()) -> int:
        """Ingest all sources and bump the generation, in one
        transaction; the only way the data changes.

        Each CVE row a feed writes is tagged with the new generation, read
        inside the transaction so no other writer can take it; ingesting
        a dictionary records the new generation as the dictionary's.
        Any failure rolls the whole update back: the previous generation
        and data are untouched. No snapshot is built: the next
        snapshot() call builds the new generation's, with an empty cache.
        Logs one INFO line with the counts written. Runs with the cyclic
        collector paused. Returns the new generation.
        """
        with self._lock:
            started = time.perf_counter()
            try:
                with self._conn:
                    self._conn.execute("BEGIN IMMEDIATE")
                    new_generation = self._read_meta("generation") + 1
                    cves = sum(self._ingest_feed_locked(path, new_generation)
                               for path in feed_paths)
                    products = sum(map(self._ingest_dictionary_locked, dictionary_paths))
                    exploited = sum(map(self._ingest_exploits_locked, exploit_paths))
                    if dictionary_paths:
                        self._write_meta("dictionary_generation", new_generation)
                    if exploit_paths:
                        self._write_meta("exploit_generation", new_generation)
                    self._write_meta("generation", new_generation)
            except Exception as exc:
                # A DbError says what is wrong; only other failures need a traceback.
                log.error("update failed; generation unchanged: %s", exc,
                          exc_info=not isinstance(exc, DbError))
                raise
            log.info("update to generation %d written in %.1f ms: %d CVE rows, "
                     "%d dictionary products, %d exploited CVEs", new_generation,
                     (time.perf_counter() - started) * 1e3, cves, products, exploited)
            return new_generation

    # -- cache ------------------------------------------------------------

    def cache_lookup(self, snapshot: DbSnapshot, fingerprint: bytes) -> frozenset[str] | None:
        """Ids stored for the fingerprint in the snapshot's cache, or None."""
        ids = snapshot.cache.get(fingerprint)
        return None if ids is None else frozenset(ids)

    def cache_store(self, snapshot: DbSnapshot,
                    misses: list[tuple[bytes, frozenset[str]]]) -> None:
        """Keep a batch of (fingerprint, ids) scanned on the snapshot in its
        cache, then drop the oldest entries past CACHE_MAX_ENTRIES."""
        cache = snapshot.cache
        with self._cache_lock:
            cache.update((fingerprint, tuple(ids)) for fingerprint, ids in misses)
            excess = len(cache) - CACHE_MAX_ENTRIES
            if excess > 0:
                for fingerprint in list(itertools.islice(cache, excess)):
                    del cache[fingerprint]

    def record_count(self) -> int:
        """CVE rows in the file, counted without building a snapshot."""
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM cve").fetchone()[0]
