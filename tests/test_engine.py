"""Scan execution: caching behavior, job execution, accuracy, reports."""

import json
import sqlite3
import string
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invscan.db import VulnDatabase
from invscan.engine import (EngineError, ScanJob, compute_accuracy, execute_job,
                            report_to_dict, scan_pvc)
from invscan.generation import generate_cpes
from invscan.inventory import Inventory, Pvc, PvcKind, fingerprint_pvc, pvc_from_dict
from conftest import (brute_force_match, feed_item, make_database, write_exploit_map,
                      write_feed)

# Small application catalog: pretty inventory name, publisher string, and
# the dictionary vendor/product pair its CPEs should land on.
_CATALOG = (
    ("Adobe Reader", "Adobe", "adobe", "reader"),
    ("Adobe Flash Player", "Adobe", "adobe", "flash_player"),
    ("Mozilla Firefox", "Mozilla", "mozilla", "firefox"),
    ("Google Chrome", "Google", "google", "chrome"),
    ("VideoLAN VLC media player", "VideoLAN", "videolan", "vlc_media_player"),
)


def catalog_feed():
    """Feed items, dictionary URIs, and exploit links over the catalog.

    Each product gets one any-version CVE (matches every install of it)
    and one CVE pinned to version 1.1; the first product's any-version
    CVE carries an exploit link.
    """
    items, dictionary, exploits = [], [], []
    for position, (_, _, vendor, product) in enumerate(_CATALOG):
        dictionary.append(f"cpe:/a:{vendor}:{product}")
        any_id = f"CVE-2019-{1000 + position}"
        pinned_id = f"CVE-2019-{2000 + position}"
        items.append(feed_item(any_id, cpes=[f"cpe:/a:{vendor}:{product}"],
                               cvss3=5.0 + position))
        items.append(feed_item(pinned_id, cpes=[f"cpe:/a:{vendor}:{product}:1.1"],
                               cvss2=4.0))
    exploits.append(("EDB-100", "CVE-2019-1000"))
    return items, dictionary, exploits


def catalog_database(tmp_path, name="db") -> VulnDatabase:
    items, dictionary, exploits = catalog_feed()
    return make_database(tmp_path, items, dictionary, exploits, name=name)


def catalog_pvc(index: int) -> Pvc:
    name, publisher, _, _ = _CATALOG[index % len(_CATALOG)]
    return Pvc(kind=PvcKind.APPLICATION, name=name, publisher=publisher,
               display_version=f"{index % 7}.{index % 3}")


def catalog_inventory(count: int, label="host") -> Inventory:
    return Inventory(target_label=label,
                     pvcs=tuple(catalog_pvc(i) for i in range(count)))


# -- per-component scans and the cache ----------------------------------------

def test_first_scan_misses_then_hits(tmp_path):
    database = catalog_database(tmp_path)
    pvc = catalog_pvc(0)
    first = scan_pvc(pvc, database)
    second = scan_pvc(pvc, database)
    assert first.cache_hit is False
    assert second.cache_hit is True
    assert second.cve_ids == first.cve_ids
    assert "CVE-2019-1000" in first.cve_ids


def test_cache_hit_skips_generation_work(tmp_path, monkeypatch):
    database = catalog_database(tmp_path)
    pvc = catalog_pvc(1)
    scan_pvc(pvc, database)

    def boom(*_args, **_kwargs):
        raise AssertionError("generation ran on a cache hit")

    monkeypatch.setattr("invscan.engine.generate_cpes", boom)
    result = scan_pvc(pvc, database)
    assert result.cache_hit is True


def test_zero_match_result_still_cached(tmp_path):
    database = catalog_database(tmp_path)
    pvc = Pvc(kind=PvcKind.APPLICATION, name="Obscuritron Deluxe",
              display_version="0.0.1")
    first = scan_pvc(pvc, database)
    second = scan_pvc(pvc, database)
    assert first.cve_ids == frozenset()
    assert first.cache_hit is False
    assert second.cache_hit is True
    assert second.cve_ids == frozenset()


def test_rescan_after_generation_bump_misses(tmp_path):
    database = catalog_database(tmp_path)
    pvc = catalog_pvc(2)
    first = scan_pvc(pvc, database)
    assert scan_pvc(pvc, database).cache_hit is True
    database.update_sources()
    rescan = scan_pvc(pvc, database)
    assert rescan.cache_hit is False
    assert rescan.cve_ids == first.cve_ids


def test_update_clears_cache_then_rescan_misses_then_hits(tmp_path):
    database = catalog_database(tmp_path)
    inventory = catalog_inventory(5)
    execute_job(ScanJob(token="t1", client_id="c1", inventory=inventory), database)
    database.update_sources()
    assert database.snapshot().cache == {}
    rescan = execute_job(ScanJob(token="t2", client_id="c1", inventory=inventory),
                         database)
    assert not any(result.cache_hit for result in rescan.results)
    again = execute_job(ScanJob(token="t3", client_id="c1", inventory=inventory),
                        database)
    assert all(result.cache_hit for result in again.results)


def test_all_hit_job_starts_no_write_transaction(tmp_path):
    """A cold job writes nothing to the file; a job whose snapshot is
    current runs one statement, the generation read in snapshot()."""
    database = catalog_database(tmp_path)
    inventory = catalog_inventory(5)
    statements = []
    database._conn.set_trace_callback(statements.append)
    execute_job(ScanJob(token="t1", client_id="c1", inventory=inventory), database)
    assert statements, "the snapshot build runs on the traced connection"
    assert not any(statement.startswith(("BEGIN IMMEDIATE", "INSERT", "UPDATE", "DELETE"))
                   for statement in statements)
    statements.clear()
    again = execute_job(ScanJob(token="t2", client_id="c1", inventory=inventory),
                        database)
    database._conn.set_trace_callback(None)
    assert all(result.cache_hit for result in again.results)
    [statement] = statements
    assert statement.startswith("SELECT value FROM meta")


def test_scan_requires_initialized_database(tmp_path):
    database = VulnDatabase(str(tmp_path / "fresh.sqlite"))
    with pytest.raises(EngineError):
        scan_pvc(catalog_pvc(0), database)


def test_pinned_version_cve_found_only_at_that_version(tmp_path):
    database = catalog_database(tmp_path)
    hit = Pvc(kind=PvcKind.APPLICATION, name="Adobe Reader",
              publisher="Adobe", display_version="1.1")
    miss = Pvc(kind=PvcKind.APPLICATION, name="Adobe Reader",
               publisher="Adobe", display_version="6.2")
    assert "CVE-2019-2000" in scan_pvc(hit, database).cve_ids
    assert "CVE-2019-2000" not in scan_pvc(miss, database).cve_ids
    # The any-version record matches both installs.
    assert "CVE-2019-1000" in scan_pvc(miss, database).cve_ids


def _unknown_vendor_os_database(tmp_path, vendor_count: int):
    """A dictionary of vendor_count vendors, none known to ship the OS
    "Zephyr Server", whose CVEs are filed under the last vendor and under
    the wildcard bucket; and that OS as a component, with an unknown vendor."""
    vendors = [f"vendor{i:05d}" for i in range(vendor_count)]
    items = [
        feed_item("CVE-2020-0001", cpes=[f"cpe:/o:{vendors[-1]}:zephyr_server:4.1"]),
        feed_item("CVE-2020-0002", cpes=[f"cpe:/o:{vendors[-1]}:zephyr_server"]),
        feed_item("CVE-2020-0003", cpes=[f"cpe:/o:{vendors[-1]}:zephyr_server:9.9"]),
        feed_item("CVE-2020-0004", cpes=["cpe:/o::zephyr_server:4.1"]),
    ]
    database = make_database(tmp_path, items, [f"cpe:/a:{v}:tool" for v in vendors],
                             name=f"vendors{vendor_count}")
    pvc = Pvc(kind=PvcKind.OPERATING_SYSTEM, name="Zephyr Server",
              vendor="Zephyr Labs", major=4, minor=1)
    return database, pvc


def test_serving_never_expands_the_candidates(tmp_path, monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("the serving path expanded the candidates")

    sizes = []
    for vendor_count in (20, 2000):
        database, pvc = _unknown_vendor_os_database(tmp_path, vendor_count)
        snapshot = database.snapshot()
        candidates = generate_cpes(pvc, snapshot.gen_index)
        assert len(candidates.vendors) == vendor_count
        expected = brute_force_match(snapshot.records, candidates)
        assert expected == {"CVE-2020-0001", "CVE-2020-0002", "CVE-2020-0004"}
        with monkeypatch.context() as patch:
            patch.setattr("invscan.generation.cartesian_expand", boom)
            report = execute_job(ScanJob(token="t-os", client_id="c1",
                                         inventory=Inventory(target_label="h", pvcs=(pvc,))),
                                 database)
        [result] = report.results
        assert result.error is None
        assert result.cve_ids == expected
        sizes.append(len(json.dumps(report_to_dict(report))))
        database.close()
    assert sizes[0] == sizes[1]


# -- job execution -------------------------------------------------------------

def test_results_keep_inventory_order(tmp_path):
    database = catalog_database(tmp_path)
    inventory = catalog_inventory(9)
    job = ScanJob(token="t-order", client_id="c1", inventory=inventory)
    report = execute_job(job, database)
    assert tuple(result.pvc for result in report.results) == inventory.pvcs
    assert report.token == "t-order"


def test_empty_inventory_empty_report(tmp_path):
    database = catalog_database(tmp_path)
    job = ScanJob(token="t-empty", client_id="c1",
                  inventory=Inventory(target_label="bare", pvcs=()))
    report = execute_job(job, database)
    assert report.results == ()
    assert report.total_cves == 0
    assert report.max_cvss is None
    assert report.exploit_count == 0


def test_job_equals_per_component_scans_on_large_inventory(tmp_path):
    inventory = catalog_inventory(1000)
    job_db = catalog_database(tmp_path, name="job")
    per_component_db = catalog_database(tmp_path, name="pvc")
    job = ScanJob(token="t-big", client_id="c1", inventory=inventory)
    report = execute_job(job, job_db)
    per_component = [scan_pvc(pvc, per_component_db) for pvc in inventory.pvcs]
    assert [r.cve_ids for r in report.results] == [r.cve_ids for r in per_component]
    assert all(result.error is None for result in report.results)


@pytest.fixture(scope="module")
def shared_catalog_db(tmp_path_factory):
    database = catalog_database(tmp_path_factory.mktemp("shared"))
    yield database
    database.close()


_PVC_STRATEGY = st.builds(
    Pvc,
    kind=st.just(PvcKind.APPLICATION),
    name=st.sampled_from([entry[0] for entry in _CATALOG] + ["Obscuritron Deluxe"]),
    publisher=st.sampled_from([None] + [entry[1] for entry in _CATALOG]),
    display_version=st.sampled_from([None, "1.1", "6.2", "9.0.3"]),
)


@settings(max_examples=30, deadline=None)
@given(pvcs=st.lists(_PVC_STRATEGY, max_size=8))
def test_job_matches_oracle_cold_cached_and_after_bump(shared_catalog_db, pvcs):
    database = shared_catalog_db
    inventory = Inventory(target_label="prop", pvcs=tuple(pvcs))

    def scan_and_check() -> list[bool]:
        """Run the job, check it against the oracle, return its cache hits."""
        snapshot = database.snapshot()
        report = execute_job(ScanJob(token="t", client_id="c", inventory=inventory),
                             database)
        for pvc, result in zip(pvcs, report.results, strict=True):
            assert result.error is None
            assert result.cve_ids == brute_force_match(
                snapshot.records, generate_cpes(pvc, snapshot.gen_index))
        return [result.cache_hit for result in report.results]

    database.update_sources()  # every example starts cold
    assert not any(scan_and_check())
    assert all(scan_and_check())
    database.update_sources()
    assert not any(scan_and_check())


class _FaultyLookups:
    """Delegates to a real database, failing lookups of chosen fingerprints."""

    def __init__(self, database, poisoned):
        self._database = database
        self._poisoned = poisoned

    def __getattr__(self, name):
        return getattr(self._database, name)

    def cache_lookup(self, snapshot, fingerprint):
        if fingerprint in self._poisoned:
            raise RuntimeError("injected lookup failure")
        return self._database.cache_lookup(snapshot, fingerprint)


def test_one_component_failing_never_aborts_siblings(tmp_path, caplog):
    database = catalog_database(tmp_path)
    inventory = catalog_inventory(5)
    poisoned = {fingerprint_pvc(inventory.pvcs[2])}
    job = ScanJob(token="t-fault", client_id="c1", inventory=inventory)
    with caplog.at_level("INFO"):
        report = execute_job(job, _FaultyLookups(database, poisoned))
    # the failure is logged by position, never by inventory contents
    [record] = [r for r in caplog.records if r.name == "invscan.engine"]
    assert "component 2" in record.getMessage()
    assert not any(name in caplog.text for name, _, _, _ in _CATALOG)
    failed = report.results[2]
    assert failed.error is not None
    assert "injected lookup failure" in failed.error
    assert failed.cve_ids == frozenset()
    for position, result in enumerate(report.results):
        if position != 2:
            assert result.error is None
            assert result.cve_ids


def test_job_keeps_its_results_while_another_connection_writes(tmp_path):
    """While another connection holds the file's write lock, a job still
    returns its results and caches them: nothing about the cache waits
    on the file."""
    database = catalog_database(tmp_path)
    reference = catalog_database(tmp_path, name="reference")
    inventory = catalog_inventory(4)
    expected = execute_job(ScanJob(token="t-ref", client_id="c1", inventory=inventory),
                           reference)
    database._conn.execute("PRAGMA busy_timeout = 50")
    writer = sqlite3.connect(str(tmp_path / "db.sqlite"), isolation_level=None)
    writer.execute("BEGIN IMMEDIATE")
    try:
        report = execute_job(ScanJob(token="t-busy", client_id="c1", inventory=inventory),
                             database)
        rescan = execute_job(ScanJob(token="t-again", client_id="c1", inventory=inventory),
                             database)
    finally:
        writer.execute("ROLLBACK")
        writer.close()
    assert all(result.error is None for result in report.results)
    assert ([result.cve_ids for result in report.results]
            == [result.cve_ids for result in expected.results])
    assert all(result.cache_hit for result in rescan.results)


def _check_against_oracle(report, inventory):
    """Every component's ids are the all-pairs oracle's on the job's snapshot."""
    snapshot = report.snapshot
    for pvc, result in zip(inventory.pvcs, report.results, strict=True):
        assert result.error is None
        assert result.cve_ids == brute_force_match(snapshot.records,
                                                   generate_cpes(pvc, snapshot.gen_index))


@pytest.mark.parametrize("hold", ["begin-exclusive", "open-update"])
def test_reads_see_the_last_commit_while_another_connection_holds_the_file(tmp_path, hold):
    """The file is in WAL mode, so a reader never waits on a writer: while
    another connection holds the file exclusively, or sits inside an
    update that has written rows, snapshot() answers the last committed
    generation without waiting out a 50 ms busy timeout (a wait would
    raise "database is locked"), and a job matches the all-pairs oracle
    on it."""
    path = str(tmp_path / "db.sqlite")
    database = catalog_database(tmp_path)
    database._conn.execute("PRAGMA busy_timeout = 50")
    inventory = catalog_inventory(5)
    added = feed_item("CVE-2019-3000", cpes=["cpe:/a:adobe:reader"])
    feed = write_feed(tmp_path / "added.json", [added])
    links = write_exploit_map(tmp_path / "added.csv", [("EDB-300", "CVE-2019-3000")])
    if hold == "begin-exclusive":
        writer = sqlite3.connect(path, isolation_level=None)
        writer.execute("BEGIN EXCLUSIVE")
        writer.execute("UPDATE meta SET value = '2' WHERE key = 'generation'")

        def release():
            writer.execute("ROLLBACK")
            writer.close()
        committed = 1
    else:
        updater = VulnDatabase(path)
        inside, go_on = threading.Event(), threading.Event()
        ingest_exploits = updater._ingest_exploits_locked

        def held(exploit_path):
            inside.set()
            assert go_on.wait(10)
            return ingest_exploits(exploit_path)

        updater._ingest_exploits_locked = held
        update = threading.Thread(target=updater.update_sources, args=([feed], [], [links]))
        update.start()
        assert inside.wait(10), "the update never reached its exploit maps"

        def release():
            go_on.set()
            update.join(10)
            assert not update.is_alive()
            updater.close()
        committed = 2
    try:
        snapshot = database.snapshot()
        report = execute_job(ScanJob(token="t-held", client_id="c1", inventory=inventory),
                             database)
    finally:
        release()
    assert snapshot.generation == report.snapshot.generation == 1
    assert "CVE-2019-3000" not in snapshot.records
    _check_against_oracle(report, inventory)
    # once the writer is gone, the next job reads what it committed
    after = execute_job(ScanJob(token="t-after", client_id="c1", inventory=inventory),
                        database)
    assert after.snapshot.generation == committed
    assert ("CVE-2019-3000" in after.snapshot.exploited) is (hold == "open-update")
    _check_against_oracle(after, inventory)


def test_summary_recomputable_from_results(tmp_path):
    database = catalog_database(tmp_path)
    job = ScanJob(token="t-sum", client_id="c1", inventory=catalog_inventory(25))
    report = execute_job(job, database)
    union = set()
    for result in report.results:
        union |= result.cve_ids
    assert report.total_cves == len(union)
    best = None
    exploitable = 0
    for cve_id in union:
        record = database.snapshot().records[cve_id]
        score = record.max_cvss()
        if score is not None and (best is None or score > best):
            best = score
        if cve_id in database.snapshot().exploited:
            exploitable += 1
    assert report.max_cvss == best
    assert report.exploit_count == exploitable
    assert report.exploit_count >= 1  # the EDB-linked record is in the union


# -- accuracy ------------------------------------------------------------------

def _id_set(count: int, prefix: str) -> set:
    return {f"{prefix}-{i}" for i in range(count)}


def test_accuracy_golden_ratios():
    actual_199 = _id_set(199, "A")
    found_173 = set(list(actual_199)[:173]) | _id_set(30, "noise")
    assert compute_accuracy(found_173, actual_199) == pytest.approx(86.93, abs=0.05)

    actual_180 = _id_set(180, "B")
    found_48 = set(list(actual_180)[:48])
    assert compute_accuracy(found_48, actual_180) == pytest.approx(26.67, abs=0.05)

    actual_391 = _id_set(391, "C")
    found_231 = set(list(actual_391)[:231])
    assert compute_accuracy(found_231, actual_391) == pytest.approx(59.08, abs=0.05)


def test_accuracy_full_and_zero_overlap():
    actual = {"CVE-2020-0001", "CVE-2020-0002"}
    assert compute_accuracy(set(actual), actual) == 100.0
    assert compute_accuracy({"CVE-1999-9999"}, actual) == 0.0
    assert compute_accuracy(set(), actual) == 0.0


def test_accuracy_empty_actual_raises():
    with pytest.raises(ValueError):
        compute_accuracy({"CVE-2020-0001"}, set())


@settings(max_examples=200)
@given(
    actual=st.sets(st.text(string.ascii_lowercase, min_size=1, max_size=6),
                   min_size=1, max_size=40),
    extra=st.sets(st.text(string.ascii_lowercase, min_size=1, max_size=6),
                  max_size=40),
    data=st.data(),
)
def test_accuracy_bounds_and_monotonicity(actual, extra, data):
    subset_size = data.draw(st.integers(min_value=0, max_value=len(actual)))
    found = set(sorted(actual)[:subset_size]) | extra
    value = compute_accuracy(found, actual)
    assert 0.0 <= value <= 100.0
    missing = actual - found
    if missing:
        grown = found | {next(iter(missing))}
        assert compute_accuracy(grown, actual) > value


# -- report serialization ------------------------------------------------------

def test_report_round_trip(tmp_path):
    database = catalog_database(tmp_path)
    inventory = catalog_inventory(6)
    job = ScanJob(token="t-rt", client_id="c1", inventory=inventory)
    report = execute_job(job, database)
    doc = json.loads(json.dumps(report_to_dict(report)))
    assert doc["token"] == report.token
    assert doc["summary"] == {"total_cves": report.total_cves,
                              "max_cvss": report.max_cvss,
                              "exploit_count": report.exploit_count}
    for result, item in zip(report.results, doc["results"], strict=True):
        assert set(item) == {"pvc", "cves", "cache_hit"} | ({"error"} if result.error else set())
        assert pvc_from_dict(item["pvc"]) == result.pvc
        assert {cve["id"] for cve in item["cves"]} == result.cve_ids
        assert item["cache_hit"] == result.cache_hit
        assert item.get("error") == result.error


def test_report_dict_is_deterministically_sorted(tmp_path):
    database = catalog_database(tmp_path)
    job = ScanJob(token="t-sort", client_id="c1", inventory=catalog_inventory(4))
    doc = report_to_dict(execute_job(job, database))
    for entry in doc["results"]:
        ids = [c["id"] for c in entry["cves"]]
        assert ids == sorted(ids)


def test_report_dict_cve_details(tmp_path):
    items = [
        feed_item("CVE-2019-0001", cpes=["cpe:/a:acme:paint"], cvss3=9.8),
        feed_item("CVE-2019-0002", cpes=["cpe:/a:acme:paint"]),
    ]
    database = make_database(tmp_path, items, dictionary=["cpe:/a:acme:paint"],
                             exploits=[("EDB-1", "CVE-2019-0001")])
    pvc = Pvc(kind=PvcKind.APPLICATION, name="Acme Paint", publisher="Acme")
    job = ScanJob(token="t-det", client_id="c1",
                  inventory=Inventory(target_label="t", pvcs=(pvc,)))
    doc = report_to_dict(execute_job(job, database))
    entries = {c["id"]: c for c in doc["results"][0]["cves"]}
    assert entries["CVE-2019-0001"]["cvss"] == 9.8
    assert entries["CVE-2019-0001"]["exploit"] is True
    assert "cvss" not in entries["CVE-2019-0002"]
    assert entries["CVE-2019-0002"]["exploit"] is False
    assert "error" not in doc["results"][0]


def test_report_error_key_round_trips(tmp_path):
    database = catalog_database(tmp_path)
    inventory = catalog_inventory(2)
    poisoned = {fingerprint_pvc(inventory.pvcs[0])}
    job = ScanJob(token="t-err", client_id="c1", inventory=inventory)
    report = execute_job(job, _FaultyLookups(database, poisoned))
    doc = json.loads(json.dumps(report_to_dict(report)))
    assert doc["results"][0]["error"] == report.results[0].error
    assert "error" not in doc["results"][1]


def test_report_reads_the_generation_it_was_scanned_on(tmp_path):
    database = catalog_database(tmp_path)
    job = ScanJob(token="t-gen", client_id="c1",
                  inventory=Inventory(target_label="t", pvcs=(catalog_pvc(1),)))
    report = execute_job(job, database)
    # An update lands between the scan and serialization: it re-scores a
    # matched CVE and links an exploit to it.
    delta = write_feed(tmp_path / "delta.json", [
        feed_item("CVE-2019-1001", cpes=["cpe:/a:adobe:flash_player"], cvss3=9.9)])
    links = write_exploit_map(tmp_path / "delta.csv", [("EDB-200", "CVE-2019-1001")])
    database.update_sources([delta], exploit_paths=[links])
    live = database.snapshot().records["CVE-2019-1001"]
    assert live.max_cvss() == 9.9 and "CVE-2019-1001" in database.snapshot().exploited
    doc = report_to_dict(report)
    entries = {c["id"]: c for c in doc["results"][0]["cves"]}
    assert entries == {
        "CVE-2019-1001": {"id": "CVE-2019-1001", "cvss": 6.0, "exploit": False},
        "CVE-2019-2001": {"id": "CVE-2019-2001", "cvss": 4.0, "exploit": False},
    }
    assert doc["summary"] == {"total_cves": 2, "max_cvss": 6.0, "exploit_count": 0}
