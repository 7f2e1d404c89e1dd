"""Suite-level acceptance checks, one numbered test per criterion.

Every test drives public entry points only and prints a single
machine-greppable pass/fail line to the terminal, so a quiet pytest run
still reads as a checklist. Timing bounds are asserted inside the tests
they belong to.
"""

import contextlib
import io
import json
import random
import threading
import time

import pytest

from invscan.client import (EXIT_OK, ClientConfig, TransportError,
                            poll_result, run_scan)
from invscan.cpe import CpeName, format_cpe_fields, split_cpe_uri
from invscan.db import VulnDatabase
from invscan.engine import ScanJob, compute_accuracy, execute_job, report_to_dict
from invscan.generation import (ComponentCandidates, GenerationIndex, abbreviate_name,
                                app_product_candidates,
                                app_version_candidates,
                                build_index_from_fields,
                                extract_versions_from_text, generate_cpes,
                                os_product_candidates, os_update_candidates,
                                os_vendor_candidates, os_version_candidates,
                                word_combinations)
from invscan.inventory import Inventory, Pvc, PvcKind
from invscan.protocol import (DEFAULT_DELTA_T, ClientCredential, FrameError,
                              ImpersonationError, MsgType, ProtocolViolation,
                              ReplayError, StaleTimestampError,
                              TagInvalidError, decode_frame, encode_frame,
                              open_message, read_frame, scan_request_body,
                              seal_message)
from invscan.server import (FirewallRule, ServerConfig, VulnServer,
                            make_tcp_server, run_update, verify_request)
from conftest import (TEST_SALT, TEST_SECRET, brute_force_match,
                      client_credential, feed_item, flip_bit, make_database,
                      write_feed)

_ALLOW_ALL = (FirewallRule(action="allow"),)

# Application catalog used by the caching and end-to-end checks: the
# inventory-facing name, the publisher string, and the dictionary
# vendor/product pair its names should land on.
_CATALOG = (
    ("Adobe Reader", "Adobe", "adobe", "reader"),
    ("Adobe Flash Player", "Adobe", "adobe", "flash_player"),
    ("Mozilla Firefox", "Mozilla", "mozilla", "firefox"),
    ("Google Chrome", "Google", "google", "chrome"),
    ("VideoLAN VLC media player", "VideoLAN", "videolan", "vlc_media_player"),
)


@pytest.fixture
def announce(capsys):
    """One checklist line per criterion, printed past pytest's capture."""

    @contextlib.contextmanager
    def check(number: int, label: str):
        started = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance {number}] {label}: FAIL")
            raise
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"[acceptance {number}] {label}: PASS ({elapsed:.2f}s)")

    return check


def _os(name, **kw) -> Pvc:
    return Pvc(kind=PvcKind.OPERATING_SYSTEM, name=name, **kw)


def _app(name, **kw) -> Pvc:
    return Pvc(kind=PvcKind.APPLICATION, name=name, **kw)


def _index(*uris) -> GenerationIndex:
    return build_index_from_fields([split_cpe_uri(u)[:3] for u in uris])


def _catalog_pvc(index: int) -> Pvc:
    name, publisher, _, _ = _CATALOG[index % len(_CATALOG)]
    return Pvc(kind=PvcKind.APPLICATION, name=name, publisher=publisher,
               display_version=f"{index % 7}.{index % 3}")


def _job(inventory: Inventory, token: str = "job") -> ScanJob:
    return ScanJob(token=token, client_id="vsc-1", inventory=inventory)


# -- 1: published name-convention examples reproduce exactly -----------------

def test_acceptance_1_convention_goldens(announce):
    with announce(1, "name-convention goldens"):
        started = time.perf_counter()
        assert word_combinations("windows xp") == {
            "windowsxp", "windows_xp", "windows-xp"}
        assert word_combinations("java") == {"java"}
        assert abbreviate_name("media player classic".split()) == {"mpc"}
        assert app_product_candidates(_app("media player classic 12.5"),
                                      _index("cpe:/a:gabest:mpc")) == {"mpc"}
        assert abbreviate_name("visual studio code".split()) == {"vsc"}
        assert extract_versions_from_text("CPUID 1.82.2") == {"1.82.2"}
        assert app_version_candidates(_app("CPUID 1.82.2")) == {"1.82.2"}

        assert os_vendor_candidates(_os("windows 10"),
                                    GenerationIndex()) == {"microsoft"}
        android = _index("cpe:/o:google:android:8.0",
                         "cpe:/o:motorola:android:4.1.2")
        assert os_vendor_candidates(_os("android", vendor="Motorola"),
                                    android) == {"motorola"}
        assert os_vendor_candidates(
            _os("Mac OS X"), _index("cpe:/o:apple:mac_os_x:10.6")) == {"apple"}
        assert os_vendor_candidates(
            _os("ubuntu linux"),
            _index("cpe:/o:canonical:ubuntu_linux:18.04")) == {"canonical"}

        assert os_product_candidates(_os("windows xp")) == {
            "windowsxp", "windows_xp", "windows-xp"}
        assert "5.1.2600" in os_version_candidates(
            _os("windows xp", major=5, minor=1, build=2600))
        assert os_update_candidates(
            _os("xp", service_pack="service pack 3")) == {"sp3"}

        assert app_product_candidates(
            _app("visual studio 14.1"),
            _index("cpe:/a:microsoft:visual_studio:14.0")) == {"visual_studio"}
        assert app_product_candidates(
            _app("Adobe Reader"), _index("cpe:/a:adobe:reader:9.0")) == {"reader"}
        assert "resharper" in app_product_candidates(
            _app("jetbrains resharper ultimate"), GenerationIndex())

        generated = generate_cpes(
            _os("windows xp", service_pack="service pack 3",
                major=5, minor=1, build=2600), GenerationIndex())
        assert CpeName(*split_cpe_uri("cpe:/o:microsoft:windows_xp:5.1.2600:sp3")) in generated
        assert time.perf_counter() - started < 1.0


# -- 2: accuracy percentage arithmetic ----------------------------------------

def test_acceptance_2_accuracy_arithmetic(announce):
    with announce(2, "accuracy arithmetic"):
        started = time.perf_counter()
        for found_n, actual_n, expected in ((173, 199, 86.93),
                                            (48, 180, 26.67),
                                            (231, 391, 59.08)):
            actual = {f"CVE-2019-{n:04d}" for n in range(actual_n)}
            found = set(sorted(actual)[:found_n])
            got = compute_accuracy(found, actual)
            assert got == pytest.approx(expected, abs=0.05)
            # Independent arithmetic route over the same counts.
            assert got == pytest.approx(100.0 * found_n / actual_n, abs=1e-9)
        assert time.perf_counter() - started < 1.0


# -- 3: indexed matching equals the all-pairs oracle ---------------------------

def _random_cpe(rng: random.Random) -> CpeName:
    vendors = (None, "v1", "v2", "v3", "v4")
    products = (None, "p1", "p2", "p3", "p4", "p5")
    return CpeName(
        part=rng.choice("oah"),
        vendor=rng.choice(vendors),
        product=rng.choice(products),
        version=rng.choice((None, "1.0", "2.0", "3.5", "9.8.1")),
        update=rng.choice((None, None, None, "sp1", "sp2")),
    )


def _random_candidates(rng: random.Random) -> ComponentCandidates:
    def pick(values, low):
        return frozenset(rng.sample(values, rng.randint(low, 2)))

    return ComponentCandidates(
        platforms=pick("oah", 1),
        vendors=pick(("v1", "v2", "v3", "v4"), 1),
        products=pick(("p1", "p2", "p3", "p4", "p5"), 1),
        versions=pick(("1.0", "2.0", "3.5", "9.8.1", "-"), 1),
        updates=pick(("sp1", "sp2"), 0),
    )


def test_acceptance_3_matching_oracle_equivalence(tmp_path, announce):
    with announce(3, "matching equals all-pairs oracle (100 seeds)"):
        started = time.perf_counter()
        for seed in range(100):
            rng = random.Random(seed)
            # Two seeds run at the size caps; the rest stay small so a
            # hundred independent databases still finish quickly.
            if seed == 7:
                cve_count, query_count = 5000, 4
            elif seed == 13:
                cve_count, query_count = 400, 25
            else:
                cve_count = rng.randrange(20, 300)
                query_count = rng.randrange(1, 6)
            items = []
            for n in range(cve_count):
                names = {_random_cpe(rng) for _ in range(rng.randrange(0, 4))}
                items.append(feed_item(f"CVE-2021-{10000 + n}",
                                       cpes=[format_cpe_fields((c.part, *c.components()))
                                             for c in names]))
            database = make_database(tmp_path, items, name=f"seed{seed}")
            try:
                snapshot = database.snapshot()
                for _ in range(query_count):
                    candidates = _random_candidates(rng)
                    got = snapshot.match_cpes_to_cves(candidates)
                    want = brute_force_match(snapshot.records, candidates)
                    assert got == want, f"divergence at seed {seed}"
            finally:
                database.close()
        assert time.perf_counter() - started < 60.0


# -- 4: rescans are answered from the cache until the data changes -------------

def _catalog_database(tmp_path) -> VulnDatabase:
    items, dictionary = [], []
    for position, (_, _, vendor, product) in enumerate(_CATALOG):
        dictionary.append(f"cpe:/a:{vendor}:{product}")
        items.append(feed_item(f"CVE-2019-{1000 + position}",
                               cpes=[f"cpe:/a:{vendor}:{product}"],
                               cvss3=5.0 + position))
        items.append(feed_item(f"CVE-2019-{2000 + position}",
                               cpes=[f"cpe:/a:{vendor}:{product}:1.1"],
                               cvss2=4.0))
    return make_database(tmp_path, items, dictionary, name="cache")


def _row_sets(report) -> list[frozenset]:
    return [result.cve_ids for result in report.results]


def test_acceptance_4_cache_learning(tmp_path, announce):
    with announce(4, "rescan caching and invalidation"):
        database = _catalog_database(tmp_path)
        # 1000 distinct components: every (name, display_version) pair is
        # unique, so the first pass cannot ride on any earlier entry.
        inventory = Inventory(
            target_label="fleet",
            pvcs=tuple(
                Pvc(kind=PvcKind.APPLICATION,
                    name=_CATALOG[i % 5][0], publisher=_CATALOG[i % 5][1],
                    display_version=f"{i // 5}.{i % 3}")
                for i in range(1000)))

        begin = time.perf_counter()
        first = execute_job(_job(inventory, "first"), database)
        first_elapsed = time.perf_counter() - begin
        begin = time.perf_counter()
        second = execute_job(_job(inventory, "second"), database)
        second_elapsed = time.perf_counter() - begin

        assert all(not r.cache_hit for r in first.results)
        assert all(r.cache_hit for r in second.results)
        assert _row_sets(second) == _row_sets(first)
        assert second_elapsed <= 0.5 * first_elapsed, (
            f"cached rescan took {second_elapsed:.3f}s vs {first_elapsed:.3f}s")

        # One new applicable record invalidates everything learned.
        feeds_dir = tmp_path / "delta"
        feeds_dir.mkdir()
        write_feed(feeds_dir / "delta.json",
                   [feed_item("CVE-2021-9999", cpes=["cpe:/a:adobe:reader"],
                              cvss3=9.8)])
        assert run_update(database, str(feeds_dir)) == 2

        third = execute_job(_job(inventory, "third"), database)
        assert all(not r.cache_hit for r in third.results)
        for row_first, row_third in zip(first.results, third.results):
            if row_third.pvc.name == "Adobe Reader":
                assert row_third.cve_ids == row_first.cve_ids | {"CVE-2021-9999"}
            else:
                assert row_third.cve_ids == row_first.cve_ids
        database.close()


# -- 5: manipulated envelopes are rejected, each with its own error ------------

def test_acceptance_5_protocol_attacks(announce):
    with announce(5, "protocol attack suite + bit-flip fuzz"):
        started = time.perf_counter()
        sender = client_credential()
        now = time.time()

        def fresh_view() -> ClientCredential:
            return client_credential()

        def sealed(sn=1, ts=None, **kw):
            return seal_message(sender, MsgType.SCAN_REQUEST, {"n": sn},
                                sn=sn, ts=int(ts if ts is not None else now),
                                **kw)

        # Replay: the same envelope a second time.
        view = fresh_view()
        replayed = sealed(sn=1)
        open_message(replayed, view, now=now)
        with pytest.raises(ReplayError):
            open_message(replayed, view, now=now)

        # Stale: timestamp outside the freshness window.
        with pytest.raises(StaleTimestampError):
            open_message(sealed(sn=2, ts=now - DEFAULT_DELTA_T - 1),
                         fresh_view(), now=now)

        # Flipped tag bit (tag is the trailing 16 bytes of the frame).
        frame = encode_frame(sealed(sn=3))
        damaged = flip_bit(frame, (len(frame) - 16) * 8 + 3)
        with pytest.raises(TagInvalidError):
            open_message(decode_frame(damaged), fresh_view(), now=now)

        # Flipped ciphertext bit (first payload byte, past the header).
        header_len = 4 + 4 + len(sender.client_id.encode()) + 16
        damaged = flip_bit(frame, header_len * 8)
        with pytest.raises(TagInvalidError):
            open_message(decode_frame(damaged), fresh_view(), now=now)

        # Inner identity differing from the header identity.
        with pytest.raises(ImpersonationError):
            open_message(sealed(sn=4, client_id_b="vsc-evil"),
                         fresh_view(), now=now)

        # Each attack lands on its own error class with its own code.
        codes = {cls.code for cls in (ReplayError, StaleTimestampError,
                                      TagInvalidError, ImpersonationError)}
        assert len(codes) == 4

        # Fuzz: no single-bit corruption anywhere in the frame may pass.
        rng = random.Random(0xF1A9)
        false_accepts = 0
        for n in range(10_000):
            env = seal_message(sender, MsgType.SCAN_REQUEST, {"n": n},
                               sn=1, ts=int(now))
            frame = encode_frame(env)
            damaged = flip_bit(frame, rng.randrange(len(frame) * 8))
            view = ClientCredential(client_id=sender.client_id,
                                    salt=sender.salt,
                                    derived_key=sender.derived_key)
            try:
                open_message(decode_frame(damaged), view, now=now)
                false_accepts += 1
            except (FrameError, ProtocolViolation):
                pass
        assert false_accepts == 0
        assert time.perf_counter() - started < 30.0


# -- 6: message count does not grow with inventory size ------------------------

class _CountingTransport:
    """In-process transport that tallies request frames by message type."""

    def __init__(self, server: VulnServer) -> None:
        self.server = server
        self.sent_types: list[MsgType] = []

    def request(self, frame: bytes) -> bytes:
        self.sent_types.append(MsgType(decode_frame(frame).msg_type))
        rfile, wfile = io.BytesIO(frame), io.BytesIO()
        self.server.handle_connection(rfile, wfile, "127.0.0.1")
        wfile.seek(0)
        reply = read_frame(wfile)
        if reply is None:
            raise TransportError("no reply")
        return reply


def _write_inventory(path, pvc_count: int) -> str:
    doc = {
        "target_label": f"host-{pvc_count}",
        "pvcs": [
            {"kind": "app", "name": _CATALOG[i % 5][0],
             "publisher": _CATALOG[i % 5][1],
             "display_version": f"{i % 7}.{i % 3}"}
            for i in range(pvc_count)
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _wait_finished(server: VulnServer, token: str, timeout: float = 30.0) -> None:
    assert server._jobs[token].finished.wait(timeout), f"job {token} never finished"


def _scan_message_counts(server, config, inventory_path) -> tuple[int, int, int]:
    """Run one full scan+result flow; returns (scan frames, result
    frames, PVC rows in the returned report)."""
    transport = _CountingTransport(server)
    cred = config.credential()
    code, token = run_scan(config, inventory_path, transport=transport, cred=cred)
    assert code == EXIT_OK and token
    _wait_finished(server, token)
    code, report_doc = poll_result(config, token, transport=transport, cred=cred)
    assert code == EXIT_OK and report_doc is not None
    scans = sum(1 for t in transport.sent_types if t is MsgType.SCAN_REQUEST)
    results = sum(1 for t in transport.sent_types if t is MsgType.RESULT_REQUEST)
    assert scans + results == len(transport.sent_types)
    return scans, results, len(report_doc["results"])


def test_acceptance_6_constant_message_count(tmp_path, announce):
    with announce(6, "message count independent of inventory size"):
        database = _catalog_database(tmp_path)
        server = VulnServer(
            ServerConfig(firewall_rules=_ALLOW_ALL, worker_count=2),
            database, {"vsc-1": client_credential()})
        config = ClientConfig(server_host="mem", server_port=1,
                              client_id="vsc-1", secret=TEST_SECRET,
                              salt=TEST_SALT, poll_interval=1.0, max_wait=30.0)
        server.start_workers()
        try:
            large = _scan_message_counts(
                server, config, _write_inventory(tmp_path / "large.json", 150))
            small = _scan_message_counts(
                server, config, _write_inventory(tmp_path / "small.json", 15))
        finally:
            server.stop_workers()
            database.close()
        assert large[2] == 150 and small[2] == 15
        assert large[0] == small[0] == 1
        assert large[1] <= server.config.max_polls_per_token
        assert small[1] <= server.config.max_polls_per_token
        # A 10x larger inventory costs exactly the same number of frames.
        assert (large[0], large[1]) == (small[0], small[1])


# -- 7: queue order, concurrent intake, firewall default, blocking -------------

def _scan_frame(cred: ClientCredential, sn: int, label: str) -> bytes:
    body = scan_request_body({"target_label": label, "pvcs": []})
    return encode_frame(seal_message(cred, MsgType.SCAN_REQUEST, body,
                                     sn=sn, ts=int(time.time())))


def _one_exchange(server: VulnServer, frame: bytes):
    rfile, wfile = io.BytesIO(frame), io.BytesIO()
    server.handle_connection(rfile, wfile, "10.0.0.5")
    wfile.seek(0)
    reply = read_frame(wfile)
    return decode_frame(reply) if reply is not None else None


def test_acceptance_7_server_behavior(tmp_path, announce, monkeypatch):
    with announce(7, "server ordering, intake, firewall, blocking"):
        # FIFO with one worker: completion order equals submission order.
        completed = []

        def recording(job, database):
            report = execute_job(job, database)
            completed.append(job.token)
            return report

        monkeypatch.setattr("invscan.server.execute_job", recording)
        database = make_database(
            tmp_path, [feed_item("CVE-2019-0001", cpes=["cpe:/a:acme:paint"])],
            name="fifo")
        fifo = VulnServer(ServerConfig(firewall_rules=_ALLOW_ALL,
                                       worker_count=1, queue_capacity=64),
                          database, {"vsc-1": client_credential()})
        tokens = [fifo.enqueue_job(Inventory(target_label=f"job-{n}", pvcs=()),
                                   "vsc-1")
                  for n in range(50)]
        assert all(tokens)
        fifo.start_workers()
        try:
            for token in tokens:
                _wait_finished(fifo, token)
        finally:
            fifo.stop_workers()
        assert completed == tokens

        # 100 concurrent wire submissions, one credential each, against a
        # 64-slot queue with workers still parked: every request must come
        # back as a token or a busy rejection, nothing lost or doubled.
        many = VulnServer(ServerConfig(firewall_rules=_ALLOW_ALL,
                                       worker_count=2, queue_capacity=64),
                          database,
                          {f"vsc-{n:03d}": client_credential(f"vsc-{n:03d}")
                           for n in range(100)})
        outcomes: dict[int, tuple] = {}

        def submit(n: int) -> None:
            sender = client_credential(f"vsc-{n:03d}")
            reply = _one_exchange(many, _scan_frame(sender, 1, f"host-{n}"))
            opened = open_message(reply, sender, now=time.time())
            outcomes[n] = (MsgType(reply.msg_type), opened.body)

        threads = [threading.Thread(target=submit, args=(n,)) for n in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 100
        accepted = {n: body["token"] for n, (kind, body) in outcomes.items()
                    if kind is MsgType.SCAN_ACCEPT}
        rejected = {n: body["reason"] for n, (kind, body) in outcomes.items()
                    if kind is MsgType.SCAN_REJECT}
        assert len(accepted) + len(rejected) == 100
        assert len(accepted) == 64 and len(set(accepted.values())) == 64
        assert set(rejected.values()) == {"busy"}
        many.start_workers()
        try:
            for token in accepted.values():
                _wait_finished(many, token)
        finally:
            many.stop_workers()

        # Empty rule set: the firewall falls through to deny, whoever asks.
        assert verify_request("10.0.0.5", "vsc-1", ()) == (False, "default-deny")
        deny = VulnServer(ServerConfig(firewall_rules=()), database,
                          {"vsc-1": client_credential()})
        sender = client_credential()
        reply = _one_exchange(deny, _scan_frame(sender, 1, "host"))
        assert MsgType(reply.msg_type) is MsgType.SCAN_REJECT
        opened = open_message(reply, sender, now=time.time())
        assert opened.body["reason"] == "firewall-deny"

        # Violations 1..3 block for 2, 4, then 8 seconds.
        limiter = VulnServer(ServerConfig(firewall_rules=_ALLOW_ALL),
                             database, {"vsc-1": client_credential()})
        block = limiter.credentials["vsc-1"].block_state
        now = 1000.0
        durations = []
        for _ in range(3):
            assert limiter.apply_rate_limit("vsc-1", True, now)
            durations.append(block.blocked_until - now)
            now = block.blocked_until + 0.5
        assert durations == pytest.approx([2.0, 4.0, 8.0])
        database.close()


# -- 8: partial records ingest fully and behave sanely --------------------------

def test_acceptance_8_partial_record_ingestion(tmp_path, announce):
    with announce(8, "feeds with missing names/scores ingest completely"):
        items, dictionary = [], []
        for i in range(100):
            cve_id = f"CVE-2020-{i:04d}"
            cpes = [] if i < 30 else [f"cpe:/a:v{i}:p{i}"]
            if cpes:
                dictionary.append(cpes[0])
            if 25 <= i < 45:
                items.append(feed_item(cve_id, cpes=cpes))
            else:
                items.append(feed_item(cve_id, cpes=cpes,
                                       cvss3=3.0 + (i % 70) / 10))
        database = make_database(tmp_path, items, dictionary, name="partial")
        records = database.snapshot().records
        assert set(records) == {f"CVE-2020-{i:04d}" for i in range(100)}

        # The widest candidate sets the dictionary allows: records without
        # any applicability name still must never match.
        catch_all = ComponentCandidates(
            platforms=frozenset("aoh"), vendors=database.snapshot().gen_index.known_vendors,
            products=database.snapshot().gen_index.known_products,
            versions=frozenset({"-"}))
        got = database.snapshot().match_cpes_to_cves(catch_all)
        assert got == {f"CVE-2020-{i:04d}" for i in range(30, 100)}
        assert got == brute_force_match(records, catch_all)

        # A record without a score still reaches the report, minus the
        # score field; scored findings keep theirs.
        inventory = Inventory(target_label="host", pvcs=(
            Pvc(kind=PvcKind.APPLICATION, name="p35", publisher="v35"),
            Pvc(kind=PvcKind.APPLICATION, name="p50", publisher="v50"),
        ))
        report = execute_job(_job(inventory), database)
        doc = report_to_dict(report)
        scoreless = doc["results"][0]["cves"]
        scored = doc["results"][1]["cves"]
        assert {"id": "CVE-2020-0035", "exploit": False} in scoreless
        assert all("cvss" not in entry for entry in scoreless
                   if entry["id"] == "CVE-2020-0035")
        assert any(entry["id"] == "CVE-2020-0050" and "cvss" in entry
                   for entry in scored)
        assert doc["summary"]["max_cvss"] is not None
        database.close()


# -- 9: the whole stack over a real socket --------------------------------------

def test_acceptance_9_loopback_end_to_end(tmp_path, announce):
    with announce(9, "client to server over loopback"):
        items, dictionary = [], []
        versions = ("", "0.0", "1.1", "2.2", "0.1", "1.0", "2.0", "0.2",
                    "1.2", "3.3")
        n = 0
        for _, _, vendor, product in _CATALOG:
            dictionary.append(f"cpe:/a:{vendor}:{product}")
            for version in versions:
                suffix = f":{version}" if version else ""
                items.append(feed_item(f"CVE-2022-{1000 + n:04d}",
                                       cpes=[f"cpe:/a:{vendor}:{product}{suffix}"],
                                       cvss3=2.0 + (n % 80) / 10))
                n += 1
        assert len(items) == 50
        database = make_database(tmp_path, items, dictionary, name="e2e")

        pvcs = tuple(_catalog_pvc(i) for i in range(10))
        snapshot = database.snapshot()
        expected = [
            brute_force_match(snapshot.records,
                              generate_cpes(pvc, snapshot.gen_index))
            for pvc in pvcs
        ]
        assert any(expected)

        inventory_path = tmp_path / "inventory.json"
        inventory_path.write_text(json.dumps({
            "target_label": "lab-host",
            "pvcs": [{"kind": "app", "name": p.name, "publisher": p.publisher,
                      "display_version": p.display_version} for p in pvcs],
        }), encoding="utf-8")

        server = VulnServer(
            ServerConfig(firewall_rules=_ALLOW_ALL, worker_count=2),
            database, {"vsc-9": client_credential("vsc-9")})
        tcp = make_tcp_server(server, "127.0.0.1", 0)
        port = tcp.server_address[1]
        listener = threading.Thread(target=tcp.serve_forever, daemon=True)
        listener.start()
        server.start_workers()
        try:
            config = ClientConfig(server_host="127.0.0.1", server_port=port,
                                  client_id="vsc-9", secret=TEST_SECRET,
                                  salt=TEST_SALT, poll_interval=1.0,
                                  max_wait=10.0)
            cred = config.credential()
            begin = time.perf_counter()
            code, token = run_scan(config, str(inventory_path), cred=cred)
            assert code == EXIT_OK and token
            code, report_doc = poll_result(config, token, cred=cred)
            elapsed = time.perf_counter() - begin
            assert code == EXIT_OK and report_doc is not None
            assert elapsed < 5.0
        finally:
            tcp.shutdown()
            tcp.server_close()
            server.stop_workers()
            listener.join(timeout=5)

        rows = report_doc["results"]
        assert len(rows) == 10
        got = [{entry["id"] for entry in row["cves"]} for row in rows]
        assert got == [set(want) for want in expected]
        database.close()
