"""Feed ingestion, persistence, matching, and the per-snapshot cache."""

import contextlib
import gc
import sqlite3
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from invscan import db
from invscan.cpe import CpeError, CpeName, format_cpe_fields, split_cpe_uri
from invscan.db import CveRecord, DbError, VulnDatabase, canonical_applicability_uri, cpe23_to_22
from invscan.generation import (ComponentCandidates, GenerationIndex, build_index_from_fields,
                                cartesian_expand)
from invscan.server import run_update
from conftest import (brute_force_match, cpe_segment, feed_item, make_database, one_name,
                      seed_cpe23_to_22, seed_format_cpe_uri, seed_parse_cpe_uri,
                      write_dictionary, write_exploit_map, write_feed)


# -- NVD feed ingestion -------------------------------------------------------

def test_ingest_counts_and_empty_sets(tmp_path):
    items = [
        feed_item("CVE-2020-0001", cpes=["cpe:/a:adobe:reader"], cvss3=9.8),
        feed_item("CVE-2020-0002", cpes=["cpe:/o:microsoft:windows_xp"], cvss2=7.5),
        feed_item("CVE-2020-0003", cpes=[], cvss3=5.0),
        feed_item("CVE-2020-0004", cpes=["cpe:/a:acme:paint"]),
        feed_item("CVE-2020-0005", cpes=["cpe:/h:acme:router"], cvss3=6.1),
    ]
    database = make_database(tmp_path, items)
    records = database.snapshot().records
    assert database.record_count() == 5
    assert records["CVE-2020-0003"].applicability == frozenset()
    assert records["CVE-2020-0004"].max_cvss is None
    assert records["CVE-2020-0002"].max_cvss == 7.5


def test_ingest_empty_feed(tmp_path):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    path = write_feed(tmp_path / "empty.json", [])
    assert database.update_sources([path]) == 1
    assert database.snapshot().records == {}
    database.close()


def test_ingest_is_idempotent(tmp_path):
    items = [feed_item("CVE-2020-0001", cpes=["cpe:/a:adobe:reader"], cvss3=9.8),
             feed_item("CVE-2020-0002", cpes=["cpe:/a:acme:paint", "cpe:/a:acme:brush"])]
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    path = write_feed(tmp_path / "feed.json", items)
    database.update_sources([path])
    before = database.snapshot()
    database.update_sources([path])
    after = database.snapshot()
    assert before.records == after.records
    assert before.match_index == after.match_index
    assert database.record_count() == 2
    database.close()


def test_ingest_skips_idless_items(tmp_path, caplog):
    bad_uri = feed_item("CVE-2020-0007")
    bad_uri["configurations"]["nodes"] = [{"cpe_match": [{"vulnerable": True, "cpe23Uri": 5}]}]
    uri_text = feed_item("CVE-2020-0012")
    uri_text["configurations"]["nodes"] = [{"cpe_match": ["cpe:/a:acme:paint"]}]
    child_text = feed_item("CVE-2020-0014")
    child_text["configurations"]["nodes"] = [{"operator": "AND", "children": ["x"]}]
    items = [feed_item("CVE-2020-0001"), {"cve": {"description": {}}},
             # malformed items: each value of the wrong type skips only its item
             ["CVE-2020-0002"],
             {"cve": "CVE-2020-0003"},
             {**feed_item("CVE-2020-0004"), "impact": ["baseMetricV3"]},
             {**feed_item("CVE-2020-0005"), "configurations": ["cpe:/a:acme:paint"]},
             feed_item("CVE-2020-0006", cvss3="high"),
             {**feed_item("CVE-2020-0008"),
              "impact": {"baseMetricV2": {"cvssV2": {"baseScore": None}}}},
             bad_uri,
             # a configuration node, child or cpe_match entry that is not an object
             uri_text,
             {**feed_item("CVE-2020-0013"), "configurations": {"nodes": [1]}},
             child_text,
             # a score that is not a finite number in 0-10; the last is replaced
             # by the literal 1e309 below, which json reads as an infinity
             feed_item("CVE-2020-0015", cvss3="NaN"),
             feed_item("CVE-2020-0016", cvss2=-5),
             feed_item("CVE-2020-0017", cvss3=True),
             feed_item("CVE-2020-0018", cvss2=float("nan")),
             feed_item("CVE-2020-0019", cvss3=10.5),
             feed_item("CVE-2020-0020", cvss3="1e309")]
    kept = [feed_item("CVE-2020-0021", cvss3=0), feed_item("CVE-2020-0022", cvss2=10)]
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    path = write_feed(tmp_path / "feed.json", items + kept)
    text = Path(path).read_text(encoding="utf-8")
    assert "NaN" in text.replace('"NaN"', "")  # the JSON NaN token
    Path(path).write_text(text.replace('"1e309"', "1e309"), encoding="utf-8")
    with caplog.at_level("WARNING"):
        database.update_sources([path])
    records = database.snapshot().records
    assert set(records) == {"CVE-2020-0001", "CVE-2020-0021", "CVE-2020-0022"}
    assert records["CVE-2020-0021"].max_cvss == 0.0
    assert records["CVE-2020-0022"].max_cvss == 10.0
    assert any("lacks a usable CVE id" in m for m in caplog.messages)
    for position in range(1, len(items) + len(kept)):
        assert sum(f"feed {path} item {position} skipped" in m
                   for m in caplog.messages) == (position < len(items))
    # a feed whose top level is not an object holding a CVE_Items list fails
    # the whole update: the generation and rows stay as they were
    top = tmp_path / "top.json"
    for text in ('[{"cve": {}}]', '{"db_path": "invscan.db"}', '{"CVE_Items": {}}'):
        top.write_text(text, encoding="utf-8")
        with pytest.raises(DbError, match="top.json"):
            database.update_sources([write_feed(tmp_path / "f2.json",
                                                [feed_item("CVE-2020-0009")]), str(top)])
        assert database.record_count() == 3
        assert database.snapshot().generation == 1
    database.close()


def test_ingest_accepts_cpe23_uris(tmp_path):
    item = feed_item("CVE-2020-0001")
    item["configurations"]["nodes"] = [{"cpe_match": [
        {"vulnerable": True, "cpe23Uri": "cpe:2.3:a:adobe:reader:9.0:*:*:*:*:*:*:*"}]}]
    database = make_database(tmp_path, [item])
    record = database.snapshot().records["CVE-2020-0001"]
    assert split_cpe_uri("cpe:/a:adobe:reader:9.0") in record.applicability


def test_ingest_skips_environment_components(tmp_path):
    item = feed_item("CVE-2020-0001", cpes=["cpe:/a:adobe:reader", "cpe:/o:microsoft:windows_10"],
                     vulnerable_flags=[True, False])
    database = make_database(tmp_path, [item])
    record = database.snapshot().records["CVE-2020-0001"]
    assert record.applicability == frozenset({split_cpe_uri("cpe:/a:adobe:reader")})


def test_ingest_walks_nested_nodes(tmp_path):
    item = feed_item("CVE-2020-0001")
    item["configurations"]["nodes"] = [{
        "operator": "AND",
        "children": [{"cpe_match": [{"vulnerable": True, "cpe22Uri": "cpe:/a:acme:paint"}]}],
    }]
    database = make_database(tmp_path, [item])
    record = database.snapshot().records["CVE-2020-0001"]
    assert split_cpe_uri("cpe:/a:acme:paint") in record.applicability


def test_cpe23_downconversion():
    fields = cpe23_to_22("cpe:2.3:o:microsoft:windows_xp:5.1.2600:sp3:*:*:*:*:*:*")
    assert fields == split_cpe_uri("cpe:/o:microsoft:windows_xp:5.1.2600:sp3")
    assert cpe23_to_22("cpe:2.3:a:adobe:reader:*:*:*:*:*:*:*:*") == split_cpe_uri("cpe:/a:adobe:reader")


_PREFIX = st.sampled_from(["cpe:2.3:"] * 4 + ["cpe:/", "cpe:2.2:", "CPE:2.3:", "cpe:2.3\\:"])
_PART = st.sampled_from(("a", "o", "h") * 3 + ("A", "x", "", "*", " o"))
feed_uri = st.builds(lambda prefix, part, rest: prefix + ":".join([part, *rest]),
                     _PREFIX, _PART, st.lists(cpe_segment, max_size=12))


@given(feed_uri)
@example("cpe:2.3:a:acme:x\\:y")  # an escaped ':' inside a value
def test_feed_uri_string_path_equals_parse_then_format(uri):
    """A feed URI's canonical form, straight from the text, equals the
    seed's parse-then-format; where that failed, it is None with the
    warning, and the 2.3 down-conversion fails with the same error."""
    try:
        expected = seed_format_cpe_uri(seed_parse_cpe_uri(uri) if uri.startswith("cpe:/")
                                       else seed_cpe23_to_22(uri))
    except CpeError:
        expected = None
    with mock.patch.object(db.log, "warning") as warning:
        assert canonical_applicability_uri(uri) == expected
    assert warning.called == (expected is None)
    if not uri.startswith("cpe:/"):
        def outcome(convert):
            try:
                return convert(uri)
            except CpeError as exc:
                return str(exc)
        assert outcome(lambda u: CpeName(*cpe23_to_22(u))) == outcome(seed_cpe23_to_22)


def test_cve_record_rejects_malformed_id():
    with pytest.raises(DbError):
        CveRecord(id="NOT-A-CVE")
    with pytest.raises(DbError):
        CveRecord(id="CVE-20-1")


# -- dictionary ingestion -------------------------------------------------------

def test_dictionary_feeds_index(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")],
                             dictionary=["cpe:/o:canonical:ubuntu_linux:18.04"])
    index = database.snapshot().gen_index
    assert "canonical" in index.known_vendors
    assert "ubuntu_linux" in index.known_products
    assert index.linux_vendors == {"canonical"}


def test_dictionary_empty_file(tmp_path):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    path = tmp_path / "dict.txt"
    path.write_text("", encoding="utf-8")
    database.update_sources(dictionary_paths=[str(path)])
    assert database.snapshot().gen_index == GenerationIndex()
    database.close()


def test_dictionary_skips_malformed_lines(tmp_path, caplog):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    path = tmp_path / "dict.txt"
    path.write_text("cpe:/a:good:entry\nnot-a-uri\ncpe:/x:bad:part\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        database.update_sources(dictionary_paths=[str(path)])
    index = database.snapshot().gen_index
    database.close()
    assert index.known_vendors == {"good"}
    assert index.known_products == {"entry"}
    assert sum("skipping malformed URI" in m for m in caplog.messages) == 2


def test_dictionary_distinct_product_count_oracle(tmp_path, rng):
    vendors = [f"v{i}" for i in range(12)]
    products = [f"p{i}" for i in range(30)]
    uris = []
    for _ in range(100):
        uris.append(f"cpe:/a:{rng.choice(vendors)}:{rng.choice(products)}:1.{rng.randrange(9)}")
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")], dictionary=uris)
    # independent scan over the raw listing
    expected_products = {seed_parse_cpe_uri(u).product for u in uris}
    expected_vendors = {seed_parse_cpe_uri(u).vendor for u in uris}
    index = database.snapshot().gen_index
    assert index.known_products == expected_products
    assert index.known_vendors == expected_vendors


def test_index_android_and_apple_lists(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")], dictionary=[
        "cpe:/o:google:android:8.0",
        "cpe:/o:motorola:android:4.1.2",
        "cpe:/o:apple:mac_os_x:10.6",
        "cpe:/a:apple:itunes",
    ])
    index = database.snapshot().gen_index
    assert index.android_vendors >= {"google", "motorola"}
    assert index.apple_os_products == {"mac_os_x"}


def test_index_empty_dictionary(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    index = database.snapshot().gen_index
    assert not index.known_vendors and not index.known_products
    assert not index.android_vendors and not index.linux_vendors


# -- exploit map -------------------------------------------------------------

def test_exploit_flags_set(tmp_path):
    database = make_database(
        tmp_path,
        [feed_item("CVE-2017-0001"), feed_item("CVE-2017-0002")],
        exploits=[("EDB-1", "CVE-2017-0001")],
    )
    exploited = database.snapshot().exploited
    assert "CVE-2017-0001" in exploited
    assert "CVE-2017-0002" not in exploited


def test_exploit_links_to_unknown_cves_retained(tmp_path):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    exploit_path = write_exploit_map(tmp_path / "e.csv", [("EDB-9", "CVE-2021-7777")])
    database.update_sources(exploit_paths=[exploit_path])
    assert database.snapshot().records == {}
    # the CVE arrives later; the link must take effect then
    feed_path = write_feed(tmp_path / "f.json", [feed_item("CVE-2021-7777")])
    database.update_sources([feed_path], [], [])
    assert "CVE-2021-7777" in database.snapshot().exploited
    database.close()


def test_exploit_join_matches_brute_force_oracle(tmp_path, rng):
    cve_ids = [f"CVE-2019-{1000 + i}" for i in range(40)]
    links = [(f"EDB-{i}", rng.choice(cve_ids + ["CVE-2019-9999"])) for i in range(25)]
    database = make_database(tmp_path, [feed_item(c) for c in cve_ids], exploits=links)
    expected = {cve for _, cve in links if cve in cve_ids}
    flagged = database.snapshot().exploited
    assert flagged == expected


def test_exploit_map_skips_malformed_rows(tmp_path, caplog):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    feed = write_feed(tmp_path / "f.json", [feed_item("CVE-2020-0001")])
    path = tmp_path / "e.csv"
    path.write_text("exploit_id,cve_id\nEDB-1,CVE-2020-0001\ngarbage line\nEDB-2\n",
                    encoding="utf-8")
    with caplog.at_level("WARNING"):
        database.update_sources([feed], exploit_paths=[str(path)])
    assert "CVE-2020-0001" in database.snapshot().exploited
    database.close()
    # the header is skipped quietly; the two malformed rows are logged
    assert sum("skipping malformed exploit link" in m for m in caplog.messages) == 2


# -- matching ------------------------------------------------------------------

def test_match_any_version(tmp_path):
    database = make_database(tmp_path, [
        feed_item("CVE-2020-0001", cpes=["cpe:/o:microsoft:windows_xp"])])
    got = database.snapshot().match_cpes_to_cves(
        one_name("cpe:/o:microsoft:windows_xp:5.1.2600:sp3"))
    assert got == {"CVE-2020-0001"}


def test_match_reaching_no_bucket(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001", cpes=["cpe:/a:a:b"])])
    assert database.snapshot().match_cpes_to_cves(one_name("cpe:/a:a:c:1")) == set()


def test_cpeless_cves_never_match(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001", cpes=[])])
    candidates = ComponentCandidates(frozenset("oah"), frozenset({"a"}),
                                     frozenset({"b"}), frozenset({"-"}))
    assert database.snapshot().match_cpes_to_cves(candidates) == set()


def test_wildcard_applicability_reaches_every_query(tmp_path):
    # applicability with unspecified vendor/product sits in the wildcard
    # bucket and must still match
    database = make_database(tmp_path, [feed_item("CVE-2020-0001", cpes=["cpe:/o"])])
    assert database.snapshot().match_cpes_to_cves(
        one_name("cpe:/o:microsoft:windows_10:10")) == {"CVE-2020-0001"}
    assert database.snapshot().match_cpes_to_cves(
        one_name("cpe:/a:adobe:reader:9.0")) == set()


def _sets(*fields: str) -> ComponentCandidates:
    """Candidate sets from space-separated members, platforms first."""
    return ComponentCandidates(*(frozenset(members.split()) for members in fields))


@pytest.mark.parametrize("stored, candidates, expected", [
    pytest.param([["cpe:/a:acme:paint:1"]], _sets("o h", "acme", "paint", "1"), set(),
                 id="part-not-a-candidate-platform"),
    pytest.param([["cpe:/a:acme:paint"], ["cpe:/a:acme:paint:1"]],
                 _sets("a", "acme", "paint", "2"), {"CVE-2020-0001"},
                 id="no-version-matches-any-version"),
    pytest.param([["cpe:/a:acme:paint:1:u1"], ["cpe:/a:acme:paint:1::e1"],
                  ["cpe:/a:acme:paint:1:::en"]], _sets("a", "acme", "paint", "1"),
                 {"CVE-2020-0001", "CVE-2020-0002", "CVE-2020-0003"},
                 id="stored-optional-fields-without-candidate-sets"),
    pytest.param([["cpe:/a:acme:paint:1:u1:e1"], ["cpe:/a:acme:paint:1:u2"]],
                 _sets("a", "acme", "paint", "1", "u1"), {"CVE-2020-0001"},
                 id="updates-checked-editions-not"),
    pytest.param([["cpe:/a:acme:paint:1", "cpe:/a:acme:paint"]],
                 _sets("a", "acme", "paint", "1"), {"CVE-2020-0001"},
                 id="two-names-of-one-cve-in-one-bucket"),
])
def test_keyed_bucket_tests_only_the_fields_its_key_leaves_open(tmp_path, stored, candidates,
                                                                expected):
    items = [feed_item(f"CVE-2020-{position:04d}", cpes=uris)
             for position, uris in enumerate(stored, start=1)]
    database = make_database(tmp_path, items)
    snapshot = database.snapshot()
    database.close()
    assert set(snapshot.match_index) == {("acme", "paint")}
    assert len(snapshot.match_index["acme", "paint"]) == sum(map(len, stored))
    assert (snapshot.match_cpes_to_cves(candidates) == expected
            == brute_force_match(snapshot.records, cartesian_expand(candidates)))


# Applicability names: unset vendor or product puts a name in the wildcard
# bucket, and any trailing field may be unset.
_name = st.builds(
    CpeName,
    part=st.sampled_from("oah"),
    vendor=st.sampled_from([None, "v1", "v2", "v3"]),
    product=st.sampled_from([None, "p1", "p2", "p3"]),
    version=st.sampled_from([None, "1", "2", "3"]),
    update=st.sampled_from([None, "u1", "u2"]),
    edition=st.sampled_from([None, "e1", "e2"]),
    language=st.sampled_from([None, "en", "de"]),
)
_candidates = st.builds(
    ComponentCandidates,
    platforms=st.frozensets(st.sampled_from("oah"), min_size=1),
    vendors=st.frozensets(st.sampled_from(["v1", "v2", "v3", "v4"]), min_size=1, max_size=3),
    products=st.frozensets(st.sampled_from(["p1", "p2", "p3", "p4"]), min_size=1, max_size=3),
    versions=st.frozensets(st.sampled_from(["1", "2", "3", "-"]), min_size=1, max_size=3),
    updates=st.frozensets(st.sampled_from(["u1", "u2", "u3"]), max_size=2),
    editions=st.frozensets(st.sampled_from(["e1", "e2", "e3"]), max_size=2),
    languages=st.frozensets(st.sampled_from(["en", "de", "fr"]), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(applicability=st.lists(st.sets(_name, max_size=3), max_size=25),
       queries=st.lists(_candidates, min_size=1, max_size=6))
def test_indexed_matching_equals_brute_force(applicability, queries):
    with tempfile.TemporaryDirectory() as scratch:
        items = [feed_item(f"CVE-2021-{10000 + i}",
                           cpes=[format_cpe_fields((n.part, *n.components())) for n in names])
                 for i, names in enumerate(applicability)]
        database = make_database(Path(scratch), items)
        snapshot = database.snapshot()
        database.close()
    for candidates in queries:
        assert (snapshot.match_cpes_to_cves(candidates)
                == brute_force_match(snapshot.records, cartesian_expand(candidates)))


# -- cache and generations --------------------------------------------------------

_FINGERPRINT = b"\x01" * 32
_IDS_CACHED = frozenset({"CVE-2020-0001"})


def test_cache_store_then_lookup(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    snapshot = database.snapshot()
    database.cache_store(snapshot, [(_FINGERPRINT, _IDS_CACHED)])
    assert database.cache_lookup(snapshot, _FINGERPRINT) == _IDS_CACHED


def test_cache_unknown_fingerprint(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    assert database.cache_lookup(database.snapshot(), b"\xff" * 32) is None


def test_cache_invalidated_by_generation_bump(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    pinned = database.snapshot()
    assert pinned.generation == 1
    database.cache_store(pinned, [(_FINGERPRINT, _IDS_CACHED)])
    database.update_sources()
    snapshot = database.snapshot()
    assert snapshot.generation == 2
    assert database.cache_lookup(snapshot, _FINGERPRINT) is None


def test_cache_store_into_a_superseded_snapshot_lands_only_there(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    pinned = database.snapshot()
    database.update_sources()
    live = database.snapshot()
    assert live.generation == 2
    # a job pinned to generation 1 finishes after the update
    database.cache_store(pinned, [(_FINGERPRINT, _IDS_CACHED)])
    assert database.cache_lookup(pinned, _FINGERPRINT) == _IDS_CACHED
    assert database.cache_lookup(live, _FINGERPRINT) is None
    assert database.snapshot() is live and live.cache == {}


def test_cache_keeps_the_newest_entries_up_to_its_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(db, "CACHE_MAX_ENTRIES", 3)
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    snapshot = database.snapshot()
    fingerprints = [bytes([n]) * 32 for n in range(5)]
    database.cache_store(snapshot, [(fingerprints[0], _IDS_CACHED)])
    database.cache_store(snapshot, [(fp, frozenset()) for fp in fingerprints[1:]])
    assert database.cache_lookup(snapshot, fingerprints[0]) is None
    assert database.cache_lookup(snapshot, fingerprints[1]) is None
    assert [database.cache_lookup(snapshot, fp) for fp in fingerprints[2:]] == [frozenset()] * 3


def test_concurrent_stores_keep_the_cap_and_every_entry_whole(tmp_path, monkeypatch):
    monkeypatch.setattr(db, "CACHE_MAX_ENTRIES", 50)
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    snapshot = database.snapshot()
    errors = []

    def store(worker):
        try:
            for batch in range(300):
                fingerprints = [f"{worker}-{batch}-{k}".encode() for k in range(3)]
                database.cache_store(snapshot, [(fp, frozenset({fp})) for fp in fingerprints])
                database.cache_lookup(snapshot, fingerprints[0])
        except Exception as exc:
            errors.append(exc)

    workers = [threading.Thread(target=store, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    cache = database.snapshot().cache
    assert len(cache) == 50
    assert all(database.cache_lookup(snapshot, fingerprint) == {fingerprint}
               for fingerprint in cache)


def test_cached_ids_are_not_tracked_by_the_collector(tmp_path):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    snapshot = database.snapshot()
    database.cache_store(snapshot, [(bytes([n]) * 32, frozenset({"CVE-2020-0001",
                                                                f"CVE-2020-{n + 2:04d}"}))
                                    for n in range(10)] + [(b"\xff" * 32, frozenset())])
    gc.collect()
    cache = database.snapshot().cache
    assert len(cache) == 11
    assert not any(map(gc.is_tracked, cache.values()))
    assert database.cache_lookup(snapshot, bytes([3]) * 32) == {"CVE-2020-0001",
                                                                 "CVE-2020-0005"}


def test_update_through_another_connection_is_seen(tmp_path):
    """A daemon's database sees an update made by another process (here
    a second connection to the same file), and never answers the new
    generation from what it learned on the old one."""
    daemon = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    pinned = daemon.snapshot()
    updater = VulnDatabase(str(tmp_path / "db.sqlite"))
    feed = write_feed(tmp_path / "f2.json", [feed_item("CVE-2020-0002")])
    assert updater.update_sources([feed], [], []) == 2
    # a job pinned to the old snapshot stores into that snapshot's cache
    daemon.cache_store(pinned, [(_FINGERPRINT, _IDS_CACHED)])
    snapshot = daemon.snapshot()
    assert snapshot is not pinned and snapshot.generation == 2
    assert "CVE-2020-0002" in snapshot.records
    assert daemon.cache_lookup(snapshot, _FINGERPRINT) is None
    daemon.cache_store(snapshot, [(_FINGERPRINT, frozenset({"CVE-2020-0002"}))])
    assert daemon.cache_lookup(snapshot, _FINGERPRINT) == {"CVE-2020-0002"}
    # a job still pinned to generation 1 never reads what generation 2 learned
    assert daemon.cache_lookup(pinned, _FINGERPRINT) == _IDS_CACHED
    # the cache is the daemon's own: nothing of it reaches the file
    assert daemon.snapshot() is snapshot
    assert updater.cache_lookup(updater.snapshot(), _FINGERPRINT) is None
    updater.close()


def test_generation_counter(tmp_path):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    assert database.snapshot().generation == 0
    feed = write_feed(tmp_path / "f.json", [feed_item("CVE-2020-0001")])
    assert database.update_sources([feed], [], []) == 1
    assert database.update_sources([feed], [], []) == 2
    database.close()


def test_generation_survives_reopen(tmp_path):
    path = str(tmp_path / "db.sqlite")
    database = VulnDatabase(path)
    feed = write_feed(tmp_path / "f.json", [feed_item("CVE-2020-0001")])
    database.update_sources([feed], [], [])
    database.close()
    reopened = VulnDatabase(path)
    assert reopened.snapshot().generation == 1
    assert reopened.record_count() == 1
    reopened.close()


def test_update_failure_rolls_back(tmp_path):
    feed = write_feed(tmp_path / "f.json", [feed_item("CVE-2020-0001")])
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    snapshot = database.snapshot()
    assert snapshot.generation == 1
    database.cache_store(snapshot, [(_FINGERPRINT, _IDS_CACHED)])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(Exception):
        database.update_sources([str(bad)], [], [])
    assert database.snapshot().generation == 1
    assert database.record_count() == 1
    # a second CVE plus the broken file: nothing of it lands
    feed2 = write_feed(tmp_path / "f2.json", [feed_item("CVE-2020-0002")])
    with pytest.raises(Exception):
        database.update_sources([feed2, str(bad)], [], [])
    assert database.record_count() == 1
    assert "CVE-2020-0002" not in database.snapshot().records
    # the generation did not move, so what was learned on it still answers
    assert database.snapshot() is snapshot
    assert database.cache_lookup(snapshot, _FINGERPRINT) == _IDS_CACHED


# -- the cyclic collector during bulk phases ----------------------------------------

@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Set the collector on or off for the test; restore it after."""
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    try:
        yield request.param
    finally:
        gc.enable() if was_enabled else gc.disable()


def _collector_state_at(monkeypatch, name):
    """Record gc.isenabled() at each call of db.<name>."""
    seen = []
    original = getattr(db, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(db, name, spy)
    return seen


def test_update_pauses_the_collector_then_restores_it(tmp_path, monkeypatch, collector):
    seen = _collector_state_at(monkeypatch, "_extract_cvss")
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")])
    assert seen == [False]
    assert gc.isenabled() is collector
    # a feed that makes the update roll back
    feed = write_feed(tmp_path / "f2.json", [feed_item("CVE-2020-0002")])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DbError, match="bad.json"):
        database.update_sources([feed, str(bad)])
    assert seen == [False, False]
    assert gc.isenabled() is collector
    assert database.record_count() == 1


def test_snapshot_build_pauses_the_collector_then_restores_it(tmp_path, monkeypatch,
                                                               collector):
    database = make_database(tmp_path, [feed_item("CVE-2020-0001")],
                             dictionary=["cpe:/a:acme:paint"])
    seen = _collector_state_at(monkeypatch, "build_index_from_fields")
    assert "CVE-2020-0001" in database.snapshot().records
    assert seen == [False]
    assert gc.isenabled() is collector
    # builds that raise: generation 2 wrote an applicability that is not a
    # JSON list, then a score that is not a number
    for column, value in (("applicability", '{"cpe:/a:acme:paint": 1}'),
                          ("max_cvss", "not a number")):
        conn = sqlite3.connect(str(tmp_path / "db.sqlite"))
        with conn:
            conn.execute(f"UPDATE cve SET {column} = ?, changed_generation = 2", (value,))
            conn.execute("UPDATE meta SET value = '2' WHERE key = 'generation'")
        conn.close()
        with pytest.raises(ValueError):
            database.snapshot()
        assert gc.isenabled() is collector


# -- file layout and incremental snapshots ------------------------------------------

# Layouts earlier versions wrote: CVE rows without a generation tag, with
# applicability in a cve_cpe side table and a cache table; a dictionary
# whose rows carry only the URI; and CVE rows holding every (version,
# score) pair, dictionary rows keyed by URI and exploit links by exploit id.
_RETIRED_LAYOUTS = {
    "cve-cpe-side-table": """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE cve (id TEXT PRIMARY KEY, description TEXT NOT NULL DEFAULT '',
                          published TEXT, cvss TEXT NOT NULL DEFAULT '[]');
        CREATE TABLE cve_cpe (cve_id TEXT NOT NULL, uri TEXT NOT NULL,
                              UNIQUE (cve_id, uri));
        CREATE TABLE exploit_link (exploit_id TEXT NOT NULL, cve_id TEXT NOT NULL,
                                   UNIQUE (exploit_id, cve_id));
        CREATE TABLE cache (fingerprint TEXT PRIMARY KEY, generation INTEGER NOT NULL,
                            cve_ids TEXT NOT NULL, cpes TEXT NOT NULL);
        INSERT INTO meta VALUES ('generation', '3');
        INSERT INTO cve VALUES ('CVE-2020-0001', 'synthetic record', '2020-01-02',
                                '[["3.1", 9.8]]');
        INSERT INTO cve_cpe VALUES ('CVE-2020-0001', 'cpe:/a:adobe:reader');
        INSERT INTO exploit_link VALUES ('EDB-1', 'CVE-2020-0001');
        INSERT INTO cache VALUES ('01', 3, '["CVE-2020-0001"]', '["cpe:/a:adobe:reader"]');
    """,
    "uri-only-dictionary": """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE cpe_dict (uri TEXT PRIMARY KEY);
        INSERT INTO meta VALUES ('generation', '2'), ('dictionary_generation', '1');
        INSERT INTO cpe_dict VALUES ('cpe:/a:acme:paint:1.0'), ('cpe:/o:google:android');
    """,
    "score-pairs-and-exploit-links": """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE cve (id TEXT PRIMARY KEY, cvss TEXT NOT NULL DEFAULT '[]',
                          changed_generation INTEGER NOT NULL DEFAULT 0,
                          applicability TEXT NOT NULL DEFAULT '[]');
        CREATE TABLE cpe_dict (uri TEXT PRIMARY KEY, part TEXT, vendor TEXT, product TEXT);
        CREATE TABLE exploit_link (exploit_id TEXT NOT NULL, cve_id TEXT NOT NULL,
                                   UNIQUE (exploit_id, cve_id));
        CREATE INDEX cve_changed_generation ON cve (changed_generation);
        INSERT INTO meta VALUES ('generation', '1'), ('dictionary_generation', '1'),
                                ('exploit_generation', '1');
        INSERT INTO cve VALUES ('CVE-2020-0001', '[["2.0", 7.5], ["3.1", 9.8]]', 1,
                                '["cpe:/a:adobe:reader"]');
        INSERT INTO cpe_dict VALUES ('cpe:/a:adobe:reader:9.0', 'a', 'adobe', 'reader');
        INSERT INTO exploit_link VALUES ('EDB-1', 'CVE-2020-0001');
    """,
}


@pytest.mark.parametrize("layout", list(_RETIRED_LAYOUTS))
def test_open_refuses_a_file_of_a_retired_layout(tmp_path, monkeypatch, layout):
    """A file lacking a column the code reads is refused with an error
    naming it, its connection closed, before anything is written: its
    bytes and journal mode stay as they were, and no write-ahead log is
    left beside it."""
    path = tmp_path / "old.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(_RETIRED_LAYOUTS[layout])
    conn.close()
    before = path.read_bytes()
    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(db.sqlite3, "connect", recording_connect)
    with pytest.raises(DbError, match="ingest the feeds into a new file") as refused:
        VulnDatabase(str(path))
    monkeypatch.undo()
    assert str(path) in str(refused.value)
    [refused_conn] = opened
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        refused_conn.execute("SELECT 1")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.sqlite"]
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA journal_mode").fetchone() == ("delete",)
    conn.close()


def test_first_build_scans_and_a_delta_build_seeks_through_the_index(tmp_path):
    """The first snapshot reads every row, so it scans the table; a delta
    build finds the rows tagged after the previous generation through
    the changed_generation index."""
    database = make_database(tmp_path, [feed_item(f"CVE-2020-{n:04d}", cpes=[uri])
                                        for n, uri in enumerate(_APPLICABILITY, start=1)])

    def build_plans() -> dict[str, list[str]]:
        """Query plan of each read of the next build, but the meta reads."""
        statements = []
        database._conn.set_trace_callback(statements.append)
        database.snapshot()
        database._conn.set_trace_callback(None)
        return {statement: [row[3] for row in
                            database._conn.execute(f"EXPLAIN QUERY PLAN {statement}")]
                for statement in statements
                if statement.startswith("SELECT") and "FROM meta" not in statement}

    first = build_plans()
    [cve_read] = [plan for statement, plan in first.items() if "SELECT id, max_cvss" in statement]
    assert cve_read == ["SCAN cve"]
    assert sum(plan.count("SCAN cve") for plan in first.values()) == 1
    assert not any("cve_changed_generation" in step
                   for plan in first.values() for step in plan)
    feed = write_feed(tmp_path / "f2.json", [feed_item("CVE-2020-0001", cvss3=9.8)])
    database.update_sources([feed])
    delta = build_plans()
    # the row and exploited-id reads
    assert len(delta) == 2
    assert all(any("USING INDEX cve_changed_generation" in step for step in plan)
               for plan in delta.values())
    database.close()


def test_update_reuses_unchanged_records_and_logs_the_build(tmp_path, caplog):
    database = make_database(tmp_path, [
        feed_item("CVE-2020-0001", cpes=["cpe:/a:adobe:reader"]),
        feed_item("CVE-2020-0002", cpes=["cpe:/a:acme:paint"])],
        dictionary=["cpe:/a:adobe:reader"])
    before = database.snapshot()
    feed = write_feed(tmp_path / "f2.json", [feed_item("CVE-2020-0002", cvss3=7.0)])
    links = write_exploit_map(tmp_path / "e2.csv", [("EDB-1", "CVE-2020-0001")])
    with caplog.at_level("INFO", logger="invscan.db"):
        database.update_sources([feed], exploit_paths=[links])
        after = database.snapshot()
    assert after.gen_index is before.gen_index
    assert "CVE-2020-0001" in after.exploited
    assert after.records["CVE-2020-0002"].max_cvss == 7.0
    [line] = [m for m in caplog.messages if m.startswith("snapshot")]
    assert "generation 2" in line and "1 records re-read" in line
    assert "generation index reused" in line
    assert "adobe" not in line and "acme" not in line
    feed = write_feed(tmp_path / "f3.json", [feed_item("CVE-2020-0003")])
    database.update_sources([feed])
    # records no update touched are the same objects
    latest = database.snapshot()
    assert latest.records["CVE-2020-0002"] is after.records["CVE-2020-0002"]
    # an update of an exploit map alone keeps every record object
    links = write_exploit_map(tmp_path / "e4.csv", [("EDB-2", "CVE-2020-0002")])
    database.update_sources(exploit_paths=[links])
    exploit_only = database.snapshot()
    assert exploit_only.exploited == {"CVE-2020-0001", "CVE-2020-0002"}
    assert exploit_only.records.keys() == latest.records.keys()
    assert all(exploit_only.records[cve_id] is record
               for cve_id, record in latest.records.items())


def test_update_builds_no_snapshot_and_logs_its_counts(tmp_path, caplog):
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    write_feed(feeds / "nvd.json", [
        feed_item("CVE-2020-0001", cpes=["cpe:/a:adobe:reader"]),
        feed_item("CVE-2020-0002", cpes=["cpe:/a:acme:paint"])])
    write_dictionary(feeds / "dict.txt", ["cpe:/a:adobe:reader", "cpe:/a:acme:paint",
                                          "cpe:/a:acme:paint:2.0"])
    write_exploit_map(feeds / "map.csv", [("EDB-1", "CVE-2020-0001"),
                                          ("EDB-2", "CVE-2020-0001")])
    with caplog.at_level("INFO", logger="invscan.db"):
        assert run_update(database, str(feeds)) == 1
        assert database.record_count() == 2
    assert not [m for m in caplog.messages if m.startswith("snapshot of generation")]
    [line] = [m for m in caplog.messages if m.startswith("update to generation")]
    assert "generation 1" in line and "2 CVE rows" in line
    assert "2 dictionary products" in line and "1 exploited CVEs" in line
    assert not any(word in line for word in ("adobe", "acme", "cpe:/", "CVE-"))
    # the next read builds the new generation's snapshot
    assert database.snapshot().generation == 1
    database.close()


def test_feed_repeating_a_cve_keeps_its_last_item(tmp_path):
    database = make_database(tmp_path, [
        feed_item("CVE-2020-0001", cpes=["cpe:/a:acme:paint"], cvss3=5.0),
        feed_item("CVE-2020-0002", cpes=["cpe:/a:acme:brush"]),
        feed_item("CVE-2020-0001", cpes=["cpe:/a:zeta:ink", "cpe:/a:zeta:pen"], cvss3=9.8)])
    assert database.record_count() == 2
    record = database.snapshot().records["CVE-2020-0001"]
    assert record.applicability == {split_cpe_uri("cpe:/a:zeta:ink"),
                                    split_cpe_uri("cpe:/a:zeta:pen")}
    assert record.max_cvss == 9.8
    reopened = VulnDatabase(str(tmp_path / "db.sqlite"))
    assert reopened.snapshot().records == database.snapshot().records
    assert ("acme", "paint") not in reopened.snapshot().match_index
    reopened.close()


def test_open_drops_a_stored_dictionary_name_that_is_not_normalized(tmp_path, caplog):
    database = make_database(tmp_path, dictionary=["cpe:/a:acme:paint"])
    database.close()
    conn = sqlite3.connect(str(tmp_path / "db.sqlite"))
    with conn:
        conn.execute("INSERT INTO cpe_dict VALUES ('a', 'big corp', 'tool')")
        conn.execute("INSERT INTO cpe_dict VALUES ('x', 'zeta', 'pen')")
    conn.close()
    reopened = VulnDatabase(str(tmp_path / "db.sqlite"))
    with caplog.at_level("WARNING"):
        index = reopened.snapshot().gen_index
    reopened.close()
    assert index.known_vendors == {"acme"}
    assert index.known_products == {"paint"}
    assert any("dropping stored dictionary name" in m and "not normalized" in m
               for m in caplog.messages)
    assert any("dropping stored dictionary name" in m and "invalid part 'x'" in m
               for m in caplog.messages)


def test_open_drops_a_stored_applicability_uri_that_does_not_parse(tmp_path, caplog):
    make_database(tmp_path, [feed_item("CVE-2020-0001",
                                       cpes=["cpe:/a:zeta:ink", "cpe:/a::brush"])]).close()
    conn = sqlite3.connect(str(tmp_path / "db.sqlite"))
    with conn:
        conn.execute("UPDATE cve SET applicability = json_insert(applicability, '$[#]', "
                     "'cpe:/x:zeta:pen') WHERE id = 'CVE-2020-0001'")
    conn.close()
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    with caplog.at_level("WARNING"):
        snapshot = database.snapshot()
    database.close()
    assert snapshot.records["CVE-2020-0001"].applicability == {
        ("a", "zeta", "ink", None, None, None, None),
        ("a", None, "brush", None, None, None, None)}
    assert any("dropping stored unparseable URI 'cpe:/x:zeta:pen'" in m
               for m in caplog.messages)
    assert snapshot.match_cpes_to_cves(one_name("cpe:/a:zeta:ink:1")) == {"CVE-2020-0001"}


_IDS = [f"CVE-2020-{n:04d}" for n in range(1, 7)]
# Specific names plus wildcard-bucket names (vendor or product unspecified).
_APPLICABILITY = ["cpe:/a:acme:paint", "cpe:/a:acme:paint:1.0", "cpe:/a:acme:brush",
                  "cpe:/o:zeta:zos:2", "cpe:/a:acme", "cpe:/a::paint", "cpe:/o"]
# Names with an unset vendor or product, too, each the only source of what
# it adds to the generation index.
_DICTIONARY = ["cpe:/a:acme:paint", "cpe:/o:zeta:zos", "cpe:/o:apple:mac_os_x",
               "cpe:/o:google:android", "cpe:/o:canonical:ubuntu_linux",
               "cpe:/a:acme:paint:2.0", "cpe:/a::ink", "cpe:/o:nova", "cpe:/h"]
_QUERIES = [one_name(uri) for uri in (
    "cpe:/a:acme:paint:1.0", "cpe:/a:acme:paint:2.0", "cpe:/o:zeta:zos:2",
    "cpe:/o:zeta:zos:3", "cpe:/a:other:thing:1", "cpe:/h:acme:router:1")] + [
    ComponentCandidates(frozenset("oah"), frozenset({"acme", "zeta", "other"}),
                        frozenset({"paint", "brush", "zos"}), frozenset({"1.0", "2"}),
                        updates=frozenset({"sp1"}))]

_link = st.tuples(st.sampled_from(["EDB-1", "EDB-2"]), st.sampled_from(_IDS))
# A CVSS v3 or v2 base score, or none; ints and floats, the bounds included.
_score = st.sampled_from([None, 0, 0.0, 4.3, 7, 9.8, 10, 10.0])
# An update of any sources, or one that carries only an exploit map; with
# twice, the update ingests its dictionary and exploit map two times.
_update = st.one_of(
    st.fixed_dictionaries({
        "feed": st.lists(st.tuples(st.sampled_from(_IDS), _score, _score,
                                   st.sets(st.sampled_from(_APPLICABILITY), max_size=3)),
                         max_size=3),
        "dictionary": st.lists(st.sampled_from(_DICTIONARY), max_size=3),
        "exploits": st.lists(_link, max_size=2),
        "twice": st.booleans(),
    }),
    st.fixed_dictionaries({"feed": st.just([]), "dictionary": st.just([]),
                           "exploits": st.lists(_link, min_size=1, max_size=2),
                           "twice": st.booleans()}),
)
# A step is one update through the long-lived connection, or one or more
# through a second connection, which the first then catches up on at once.
_step = st.one_of(st.tuples(st.just("live"), st.lists(_update, min_size=1, max_size=1)),
                  st.tuples(st.just("other"), st.lists(_update, min_size=1, max_size=3)))


def _apply(database, directory: Path, update, serial: int) -> None:
    feeds = [write_feed(directory / f"{serial}.json", [
        feed_item(cve_id, cpes=sorted(cpes), cvss3=cvss3, cvss2=cvss2)
        for cve_id, cvss3, cvss2, cpes in update["feed"]])] if update["feed"] else []
    dictionaries = ([write_dictionary(directory / f"{serial}.txt", update["dictionary"])]
                    if update["dictionary"] else [])
    exploits = ([write_exploit_map(directory / f"{serial}.csv", update["exploits"])]
                if update["exploits"] else [])
    times = 2 if update["twice"] else 1
    database.update_sources(feeds, dictionaries * times, exploits * times)


def _buckets(snapshot):
    """Each bucket's pairs as a set; no bucket is empty or holds a pair twice."""
    for pairs in snapshot.match_index.values():
        assert pairs and len(set(pairs)) == len(pairs)
    return {key: set(pairs) for key, pairs in snapshot.match_index.items()}


def _only(**sources):
    return {"feed": [], "dictionary": [], "exploits": [], "twice": False, **sources}


@settings(max_examples=40, deadline=None)
@given(st.lists(_step, min_size=1, max_size=6))
# A link arrives before its CVE; a later feed adds the CVE, then another one.
@example([("live", [_only(exploits=[("EDB-1", _IDS[0])])]),
          ("live", [_only(feed=[(_IDS[0], None, None, {_APPLICABILITY[0]})])]),
          ("other", [_only(feed=[(_IDS[1], 5.0, None, set())])])])
# An update that carries only an exploit map flags a record it does not re-read.
@example([("live", [_only(feed=[(_IDS[0], 9.8, None, {_APPLICABILITY[0]})])]),
          ("other", [_only(exploits=[("EDB-2", _IDS[0])])])])
# Both scores, then a repeated id whose last item wins; names with an unset
# vendor or product and two links to one CVE, ingested twice, then again.
@example([("live", [_only(feed=[(_IDS[0], 10, 9.8, set()), (_IDS[1], 0, 7, set()),
                                (_IDS[0], 0, None, set())],
                          dictionary=["cpe:/a::ink", "cpe:/o:nova", "cpe:/h"],
                          exploits=[("EDB-1", _IDS[0]), ("EDB-2", _IDS[0])], twice=True)]),
          ("other", [_only(dictionary=["cpe:/a::ink", "cpe:/o:nova"],
                           exploits=[("EDB-2", _IDS[0])])])])
def test_incremental_snapshot_equals_a_fresh_open(steps):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        path = str(directory / "db.sqlite")
        live = VulnDatabase(path)
        other = VulnDatabase(path)
        serial = 0
        # What the test wrote: each CVE's highest score (its last item's),
        # the fields of each dictionary name, and the ids linked to an exploit.
        scores: dict[str, float | None] = {}
        names: set[tuple[str | None, ...]] = set()
        linked: set[str] = set()
        for via, updates in steps:
            for update in updates:
                serial += 1
                _apply(live if via == "live" else other, directory, update, serial)
                for cve_id, cvss3, cvss2, _cpes in update["feed"]:
                    scores[cve_id] = max((s for s in (cvss3, cvss2) if s is not None),
                                         default=None)
                names.update(split_cpe_uri(uri)[:3] for uri in update["dictionary"])
                linked.update(cve_id for _, cve_id in update["exploits"])
            fresh = VulnDatabase(path)
            expected = fresh.snapshot()
            fresh.close()
            # re-ingesting a dictionary name or an exploited id adds no row
            with contextlib.closing(sqlite3.connect(path)) as conn:
                assert conn.execute("SELECT count(*) FROM cpe_dict").fetchone() == (len(names),)
                assert conn.execute("SELECT count(*) FROM exploited").fetchone() == (len(linked),)
            # every name reaches the index, an unset vendor or product too
            assert expected.gen_index == build_index_from_fields(names)
            stored = {cve_id: record.max_cvss for cve_id, record in expected.records.items()}
            assert stored == scores
            assert all(isinstance(score, float) for score in stored.values() if score is not None)
            for database in (live, other):
                got = database.snapshot()
                assert got.generation == expected.generation == serial
                assert got.records == expected.records
                assert got.exploited == expected.exploited == linked & got.records.keys()
                assert got.gen_index == expected.gen_index
                assert _buckets(got) == _buckets(expected)
                for query in _QUERIES:
                    assert (got.match_cpes_to_cves(query)
                            == brute_force_match(got.records, query))
        live.close()
        other.close()
