"""Verification firewall, job queue, result store, blocking, connections."""

import gc
import io
import ipaddress
import json
import os
import socket
import sys
import threading
import time
import types
import weakref

import pytest

from invscan import server as server_module
from invscan.db import VulnDatabase
from invscan.engine import EngineError, execute_job
from invscan.inventory import Inventory, Pvc, PvcKind
from invscan.protocol import (MsgType, decode_frame, encode_frame,
                              open_message, read_frame, result_request_body,
                              scan_request_body, seal_message)
from invscan.server import (REPORT_TTL_S, FirewallRule, ServerConfig,
                            VulnServer, add_credential, config_from_dict,
                            load_config, load_credentials, make_tcp_server,
                            rule_from_dict, run_update, verify_request)
from conftest import (client_credential, feed_item, make_database,
                      write_dictionary, write_exploit_map, write_feed)

_ALLOW_ALL = (FirewallRule(action="allow"),)

_INVENTORY_DOC = {
    "target_label": "host-1",
    "pvcs": [{"kind": "app", "name": "Acme Paint", "publisher": "Acme"}],
}


def make_server(tmp_path, *, rules=_ALLOW_ALL, credentials=None,
                **overrides) -> VulnServer:
    items = [feed_item("CVE-2019-0001", cpes=["cpe:/a:acme:paint"], cvss3=7.5)]
    database = make_database(tmp_path, items, dictionary=["cpe:/a:acme:paint"])
    config = ServerConfig(firewall_rules=rules, **overrides)
    if credentials is None:
        credentials = {"vsc-1": client_credential()}
    return VulnServer(config, database, credentials)


def empty_inventory(label: str = "bare") -> Inventory:
    return Inventory(target_label=label, pvcs=())


def wire_exchange(server, frames, source_ip="10.0.0.5"):
    """Feed raw frames to one connection; return the decoded responses."""
    rfile = io.BytesIO(b"".join(frames))
    wfile = io.BytesIO()
    server.handle_connection(rfile, wfile, source_ip)
    wfile.seek(0)
    replies = []
    while True:
        frame = read_frame(wfile)
        if frame is None:
            return replies
        replies.append(decode_frame(frame))


def open_reply(envelope, view=None):
    view = view or client_credential()
    return open_message(envelope, view, now=time.time())


def scan_request_frame(cred, sn, doc=_INVENTORY_DOC) -> bytes:
    env = seal_message(cred, MsgType.SCAN_REQUEST, scan_request_body(doc),
                       sn=sn, ts=int(time.time()))
    return encode_frame(env)


def result_request_frame(cred, sn, token) -> bytes:
    env = seal_message(cred, MsgType.RESULT_REQUEST, result_request_body(token),
                       sn=sn, ts=int(time.time()))
    return encode_frame(env)


def wait_finished(server, token, timeout=5.0) -> None:
    assert server._jobs[token].finished.wait(timeout), f"job {token} never finished"


# -- verification firewall ------------------------------------------------------

def test_allow_rule_with_cidr_and_key():
    # The firewall sees only requests whose key (tag) already verified.
    rules = (FirewallRule(action="allow",
                          cidr=ipaddress.ip_network("10.0.0.0/8")),)
    accepted, _ = verify_request("10.1.2.3", "vsc-1", rules)
    assert accepted
    accepted, reason = verify_request("11.1.2.3", "vsc-1", rules)
    assert not accepted and reason == "default-deny"


def test_empty_rule_list_denies_everything():
    accepted, reason = verify_request("127.0.0.1", "anyone", ())
    assert not accepted
    assert reason == "default-deny"


def test_first_matching_rule_wins():
    rules = (FirewallRule(action="deny", client_id_pattern="evil*"),
             FirewallRule(action="allow"))
    accepted, reason = verify_request("10.0.0.1", "evil-7", rules)
    assert not accepted and reason == "firewall-deny"
    accepted, _ = verify_request("10.0.0.1", "good-1", rules)
    assert accepted


def test_rule_requires_known_action():
    with pytest.raises(ValueError):
        FirewallRule(action="drop")


def test_rule_from_dict():
    rule = rule_from_dict({"action": "Allow", "cidr": "192.168.1.0/24",
                           "client_id": "vsc-*"})
    assert rule.action == "allow"
    assert rule.matches("192.168.1.9", "vsc-1")
    assert not rule.matches("192.168.2.9", "vsc-1")
    assert not rule.matches("192.168.1.9", "other")
    assert not rule.matches("not-an-ip", "vsc-1")


# -- configuration ---------------------------------------------------------------

def test_config_validates_caps():
    with pytest.raises(ValueError):
        ServerConfig(worker_count=0)
    with pytest.raises(ValueError):
        ServerConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        ServerConfig(max_polls_per_token=0)


def test_config_defaults():
    config = ServerConfig()
    assert config.port == 4870
    assert config.max_polls_per_token == 100
    assert config.firewall_rules == ()


def test_load_config_file(tmp_path):
    doc = {
        "port": 9999,
        "worker_count": 3,
        "firewall": [
            {"action": "deny", "client_id": "evil*"},
            {"action": "allow", "cidr": "10.0.0.0/8"},
        ],
    }
    path = tmp_path / "server.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = load_config(str(path))
    assert config.port == 9999
    assert config.worker_count == 3
    assert len(config.firewall_rules) == 2
    assert config.firewall_rules[0].action == "deny"
    assert config.firewall_rules[1].cidr == ipaddress.ip_network("10.0.0.0/8")
    assert config_from_dict({}).port == 4870


def test_unknown_config_keys_load_with_one_warning(caplog):
    # Files written for older versions carry settings since removed.
    doc = {"port": 9999, "delta_t": 60.0, "pvc_concurrency_cap": 8,
           "firewall": [{"action": "allow", "note": "office"}]}
    with caplog.at_level("WARNING", logger="invscan.server"):
        config = config_from_dict(doc)
    assert config.port == 9999
    assert config.firewall_rules == (FirewallRule(action="allow"),)
    assert [rec.getMessage() for rec in caplog.records] == [
        "ignoring unknown config keys: delta_t, pvc_concurrency_cap, firewall.note"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="invscan.server"):
        config_from_dict({"port": 1})
    assert caplog.records == []


# -- credential provisioning ------------------------------------------------------

def test_add_then_load_credentials(tmp_path):
    path = str(tmp_path / "creds.json")
    secret, salt = add_credential(path, "vsc-a")
    add_credential(path, "vsc-b")
    assert len(bytes.fromhex(salt)) == 16
    creds = load_credentials(path)
    assert set(creds) == {"vsc-a", "vsc-b"}
    from invscan.protocol import ClientCredential
    expected = ClientCredential.from_secret("vsc-a", secret, bytes.fromhex(salt))
    assert creds["vsc-a"].derived_key == expected.derived_key


def test_add_credential_keeps_the_secrets_owner_only(tmp_path):
    path = tmp_path / "creds.json"
    umask = os.umask(0o022)
    try:
        add_credential(str(path), "vsc-a")
        assert path.stat().st_mode & 0o077 == 0
        path.chmod(0o644)
        add_credential(str(path), "vsc-b")
    finally:
        os.umask(umask)
    assert path.stat().st_mode & 0o077 == 0
    assert set(load_credentials(str(path))) == {"vsc-a", "vsc-b"}
    # the file was replaced whole; no temporary sibling is left
    assert [p.name for p in tmp_path.iterdir()] == ["creds.json"]


def test_add_credential_rejects_duplicate(tmp_path):
    path = str(tmp_path / "creds.json")
    add_credential(path, "vsc-a")
    with pytest.raises(ValueError):
        add_credential(path, "vsc-a")


# -- job queue and result store ----------------------------------------------------

def record_completions(monkeypatch) -> list[str]:
    """Make the workers append each job's token once its scan is done."""
    completed = []

    def recording(job, database):
        report = execute_job(job, database)
        completed.append(job.token)
        return report

    monkeypatch.setattr("invscan.server.execute_job", recording)
    return completed


def test_fifo_completion_order_with_single_worker(tmp_path, monkeypatch):
    completed = record_completions(monkeypatch)
    server = make_server(tmp_path, worker_count=1, queue_capacity=64)
    tokens = [server.enqueue_job(empty_inventory(f"job-{n}"), "vsc-1")
              for n in range(50)]
    assert all(tokens)
    server.start_workers()
    try:
        for token in tokens:
            wait_finished(server, token)
    finally:
        server.stop_workers()
    # FIFO: completion order equals the enqueue order.
    assert completed == tokens


def test_queue_full_rolls_back(tmp_path):
    server = make_server(tmp_path, queue_capacity=1)
    first = server.enqueue_job(empty_inventory(), "vsc-1")
    assert first is not None
    second = server.enqueue_job(empty_inventory(), "vsc-1")
    assert second is None
    assert set(server._jobs) == {first}


def test_tokens_unique_over_many_enqueues(tmp_path):
    server = make_server(tmp_path, queue_capacity=10000)
    tokens = {server.enqueue_job(empty_inventory(), "vsc-1")
              for _ in range(10000)}
    assert None not in tokens
    assert len(tokens) == 10000
    assert all(len(t) == 32 for t in tokens)


def test_fetch_result_not_ready_then_done(tmp_path):
    server = make_server(tmp_path, worker_count=1)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    msg_type, body = server.fetch_result(token, "vsc-1")
    assert msg_type is MsgType.RESULT_NOT_READY
    assert body == {}
    server.start_workers()
    try:
        wait_finished(server, token)
    finally:
        server.stop_workers()
    msg_type, body = server.fetch_result(token, "vsc-1")
    assert msg_type is MsgType.RESULT_RESPONSE
    assert body["report"]["token"] == token


def test_fetch_result_unknown_token(tmp_path):
    server = make_server(tmp_path)
    msg_type, body = server.fetch_result("no-such-token", "vsc-1")
    assert msg_type is MsgType.SCAN_REJECT
    assert body["reason"] == "unknown-token"


def test_fetch_result_other_clients_token(tmp_path, caplog):
    creds = {"vsc-1": client_credential("vsc-1"),
             "vsc-2": client_credential("vsc-2")}
    server = make_server(tmp_path, credentials=creds)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    with caplog.at_level("WARNING"):
        msg_type, body = server.fetch_result(token, "vsc-2")
    assert msg_type is MsgType.SCAN_REJECT
    assert body["reason"] == "forbidden"
    assert any("impersonation" in rec.message for rec in caplog.records)


def test_poll_limit_enforced(tmp_path):
    server = make_server(tmp_path, max_polls_per_token=3)
    token = server.enqueue_job(empty_inventory(), "vsc-1")  # never executed
    for _ in range(3):
        msg_type, _ = server.fetch_result(token, "vsc-1")
        assert msg_type is MsgType.RESULT_NOT_READY
    msg_type, body = server.fetch_result(token, "vsc-1")
    assert msg_type is MsgType.SCAN_REJECT
    assert body["reason"] == "poll-limit"


def test_failed_job_reports_scan_failed(tmp_path, monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("forced execution failure")

    monkeypatch.setattr("invscan.server.execute_job", boom)
    server = make_server(tmp_path, worker_count=1)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    server.start_workers()
    try:
        wait_finished(server, token)
    finally:
        server.stop_workers()
    assert server._jobs[token].report is None
    msg_type, body = server.fetch_result(token, "vsc-1")
    assert msg_type is MsgType.SCAN_REJECT
    assert body["reason"] == "scan-failed"


def test_job_on_a_never_updated_database_fails_once(caplog):
    database = VulnDatabase(":memory:")
    config = ServerConfig(firewall_rules=_ALLOW_ALL, worker_count=1)
    server = VulnServer(config, database, {"vsc-1": client_credential()})
    client = client_credential()
    view = client_credential()
    doc = {"target_label": "host-1",
           "pvcs": [{"kind": "app", "name": f"Acme Tool {n}", "publisher": "Acme"}
                    for n in range(5)]}
    server.start_workers()
    try:
        with caplog.at_level("ERROR"):
            accepted = open_reply(wire_exchange(server, [scan_request_frame(client, 1, doc)])[0],
                                  view)
            assert accepted.msg_type is MsgType.SCAN_ACCEPT
            token = accepted.body["token"]
            reply = open_reply(
                wire_exchange(server, [result_request_frame(client, 2, token)])[0], view)
    finally:
        server.stop_workers()
        database.close()
    assert reply.msg_type is MsgType.SCAN_REJECT
    assert reply.body["reason"] == "scan-failed"
    [error] = [record for record in caplog.records if record.levelname == "ERROR"]
    assert error.exc_info[0] is EngineError


def test_concurrent_submissions_all_accounted(tmp_path):
    server = make_server(tmp_path, worker_count=2, queue_capacity=40)
    outcomes = []
    outcome_lock = threading.Lock()

    def submit(n):
        token = server.enqueue_job(empty_inventory(f"c-{n}"), "vsc-1")
        with outcome_lock:
            outcomes.append(token)

    threads = [threading.Thread(target=submit, args=(n,)) for n in range(100)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    accepted = [t for t in outcomes if t is not None]
    rejected = [t for t in outcomes if t is None]
    assert len(accepted) + len(rejected) == 100
    assert len(set(accepted)) == len(accepted)
    server.start_workers()
    try:
        for token in accepted:
            wait_finished(server, token)
    finally:
        server.stop_workers()


# -- long-poll, delivery and the bounded store ----------------------------------------

@pytest.fixture
def gated_jobs(monkeypatch):
    """Make every job set `started`, then wait for `release` to run."""
    gate = types.SimpleNamespace(started=threading.Event(), release=threading.Event())

    def gated(job, database):
        gate.started.set()
        gate.release.wait(10)
        return execute_job(job, database)

    monkeypatch.setattr("invscan.server.execute_job", gated)
    yield gate
    gate.release.set()


def test_poll_on_running_job_returns_report_when_done(tmp_path, gated_jobs):
    server = make_server(tmp_path, worker_count=1)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    server.start_workers()
    try:
        assert gated_jobs.started.wait(5)
        replies = []
        poller = threading.Thread(
            target=lambda: replies.append(server.fetch_result(token, "vsc-1")))
        poller.start()
        time.sleep(0.1)
        assert poller.is_alive() and not replies
        gated_jobs.release.set()
        poller.join(timeout=5)
        assert not poller.is_alive()
    finally:
        server.stop_workers()
    msg_type, body = replies[0]
    assert msg_type is MsgType.RESULT_RESPONSE
    assert body["report"]["token"] == token
    assert server._jobs[token].polls_used == 1


def test_poll_outlasted_by_job_is_not_ready(tmp_path, gated_jobs, monkeypatch):
    monkeypatch.setattr("invscan.server.RESULT_WAIT_S", 0.05)
    server = make_server(tmp_path, worker_count=1)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    server.start_workers()
    try:
        assert gated_jobs.started.wait(5)
        msg_type, _ = server.fetch_result(token, "vsc-1")
        assert msg_type is MsgType.RESULT_NOT_READY
        assert server._jobs[token].polls_used == 1
    finally:
        gated_jobs.release.set()
        server.stop_workers()


def test_waiting_poll_leaves_client_free(tmp_path, gated_jobs):
    server = make_server(tmp_path, worker_count=1)
    client = client_credential()
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    server.start_workers()
    try:
        replies = []
        poller = threading.Thread(target=lambda: replies.extend(
            wire_exchange(server, [result_request_frame(client, 1, token)])))
        poller.start()
        deadline = time.monotonic() + 5
        while server._jobs[token].polls_used == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        began = time.monotonic()
        accepted = wire_exchange(server, [scan_request_frame(client, sn=2)])
        assert time.monotonic() - began < 2.0
        assert poller.is_alive()
        assert open_reply(accepted[0]).msg_type is MsgType.SCAN_ACCEPT
        gated_jobs.release.set()
        poller.join(timeout=5)
        assert not poller.is_alive()
    finally:
        server.stop_workers()
    assert open_reply(replies[0]).msg_type is MsgType.RESULT_RESPONSE


def test_report_delivered_once(tmp_path):
    server = make_server(tmp_path, worker_count=1)
    client = client_credential()
    view = client_credential()
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    server.start_workers()
    try:
        wait_finished(server, token)
    finally:
        server.stop_workers()
    first = wire_exchange(server, [result_request_frame(client, 1, token)])
    assert open_reply(first[0], view).msg_type is MsgType.RESULT_RESPONSE
    assert token not in server._jobs
    second = open_reply(
        wire_exchange(server, [result_request_frame(client, 2, token)])[0], view)
    assert second.msg_type is MsgType.SCAN_REJECT
    assert second.body["reason"] == "unknown-token"


def test_concurrent_long_polls_deliver_each_report_once(tmp_path):
    client_ids = [f"vsc-{n}" for n in range(6)]
    server = make_server(tmp_path, worker_count=4,
                         credentials={c: client_credential(c) for c in client_ids})
    outcomes = []

    def submit_and_collect(client_id):
        cred, view = client_credential(client_id), client_credential(client_id)
        inventory = Inventory(target_label=client_id, pvcs=(
            Pvc(kind=PvcKind.APPLICATION, name="Acme Paint", publisher="Acme"),))
        tokens = [server.enqueue_job(inventory, client_id) for _ in range(5)]
        for sn, token in enumerate(tokens, start=1):
            reply = wire_exchange(server, [result_request_frame(cred, sn, token)])
            outcomes.append(open_reply(reply[0], view).msg_type)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    server.start_workers()
    try:
        threads = [threading.Thread(target=submit_and_collect, args=(c,))
                   for c in client_ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.stop_workers()
    assert outcomes == [MsgType.RESULT_RESPONSE] * 30
    assert server._jobs == {}


def test_oversize_report_rejected_and_dropped(tmp_path, monkeypatch):
    server = make_server(tmp_path, worker_count=1)
    pvcs = tuple(Pvc(kind=PvcKind.APPLICATION, name="Acme Paint", publisher="Acme",
                     display_version=f"1.{n}") for n in range(30))
    token = server.enqueue_job(Inventory(target_label="big", pvcs=pvcs), "vsc-1")
    server.start_workers()
    try:
        wait_finished(server, token)
    finally:
        server.stop_workers()
    assert len(json.dumps(server._jobs[token].report)) > 2048
    monkeypatch.setattr("invscan.protocol.MAX_FRAME_BYTES", 2048)
    replies = wire_exchange(server, [result_request_frame(client_credential(), 1, token)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.SCAN_REJECT
    assert opened.body["reason"] == "report-too-large"
    assert token not in server._jobs


def test_stalled_partial_frame_is_dropped(tmp_path, monkeypatch, caplog):
    assert server_module._ConnectionHandler.timeout == server_module.READ_TIMEOUT_S
    monkeypatch.setattr(server_module._ConnectionHandler, "timeout", 0.2)
    server = make_server(tmp_path)
    tcp = make_tcp_server(server, "127.0.0.1", 0)
    listener = threading.Thread(target=tcp.serve_forever, daemon=True)
    listener.start()
    try:
        with caplog.at_level("INFO", logger="invscan.server"):
            with socket.create_connection(tcp.server_address, timeout=5) as conn:
                conn.sendall(b"\x00\x00")  # half a length prefix, then silence
                began = time.monotonic()
                assert conn.recv(1) == b""
                assert time.monotonic() - began < 3.0
    finally:
        tcp.shutdown()
        tcp.server_close()
        listener.join(timeout=5)
    assert not listener.is_alive()
    assert any("dropping connection" in rec.message for rec in caplog.records)


def test_uncollected_finished_jobs_expire_on_enqueue(tmp_path, monkeypatch):
    server = make_server(tmp_path)
    finished = server.enqueue_job(empty_inventory(), "vsc-1")
    job = server._jobs[finished]
    job.report = {"token": finished}
    job.finished.set()
    queued = server.enqueue_job(empty_inventory(), "vsc-1")
    fresh = server.enqueue_job(empty_inventory(), "vsc-1")
    assert set(server._jobs) == {finished, queued, fresh}

    later = time.monotonic() + REPORT_TTL_S + 1
    monkeypatch.setattr(server_module, "time",
                        types.SimpleNamespace(monotonic=lambda: later))
    newest = server.enqueue_job(empty_inventory(), "vsc-1")
    # Only the finished job expired; unfinished ones wait for their worker.
    assert set(server._jobs) == {queued, fresh, newest}


# -- blocking policy ----------------------------------------------------------------

def test_block_durations_grow_exponentially(tmp_path):
    server = make_server(tmp_path)
    state = server.credentials["vsc-1"].block_state
    now = 1000.0
    for seconds in (2.0, 4.0, 8.0):
        assert server.apply_rate_limit("vsc-1", True, now)
        assert state.blocked_until == pytest.approx(now + seconds)
        now = state.blocked_until + 0.5


def test_request_while_blocked_changes_nothing(tmp_path):
    server = make_server(tmp_path)
    server.apply_rate_limit("vsc-1", True, 1000.0)
    state = server.credentials["vsc-1"].block_state
    assert state.violations == 1
    blocked_until = state.blocked_until
    for violation in (False, True):
        assert server.apply_rate_limit("vsc-1", violation, 1001.0)
        assert state.blocked_until == blocked_until
        assert state.violations == 1


def test_block_expires_and_counter_persists(tmp_path):
    server = make_server(tmp_path)
    server.apply_rate_limit("vsc-1", True, 1000.0)
    assert not server.apply_rate_limit("vsc-1", False, 1003.0)
    # Clean traffic never decays the counter: the next violation is the
    # second and blocks for 4 seconds.
    state = server.credentials["vsc-1"].block_state
    assert state.violations == 1
    assert server.apply_rate_limit("vsc-1", True, 1004.0)
    assert state.violations == 2
    assert state.blocked_until == pytest.approx(1008.0)


# -- scan pacing -----------------------------------------------------------------------

def set_scan_pace(monkeypatch, rate, burst):
    monkeypatch.setattr(server_module, "CLIENT_SCAN_RATE", rate)
    monkeypatch.setattr(server_module, "CLIENT_SCAN_BURST", burst)


def test_scan_slots_follow_rate_and_burst(tmp_path, monkeypatch):
    set_scan_pace(monkeypatch, 4.0, 2)
    server = make_server(tmp_path)
    holds = [server.reserve_scan_slot("vsc-1", 100.0) for _ in range(4)]
    assert holds == pytest.approx([0.0, 0.0, 0.25, 0.5])
    # A later request queues behind the slots already reserved.
    assert server.reserve_scan_slot("vsc-1", 100.5) == pytest.approx(0.25)
    # A pause earns the burst back, and no more than the burst.
    assert [server.reserve_scan_slot("vsc-1", 200.0) for _ in range(3)] == \
        pytest.approx([0.0, 0.0, 0.25])


def test_scan_slot_beyond_longest_hold_reserves_nothing(tmp_path, monkeypatch):
    set_scan_pace(monkeypatch, 4.0, 1)
    server = make_server(tmp_path)
    holds = []
    while (hold := server.reserve_scan_slot("vsc-1", 100.0)) is not None:
        holds.append(hold)
    assert max(holds) <= server_module.SCAN_HOLD_MAX_S
    assert len(holds) == int(server_module.SCAN_HOLD_MAX_S * 4) + 1
    assert server.reserve_scan_slot("vsc-1", 100.0) is None
    assert server.reserve_scan_slot("vsc-1", 100.25) == pytest.approx(max(holds))


def test_scan_over_pace_is_held_then_accepted(tmp_path, monkeypatch):
    set_scan_pace(monkeypatch, 20.0, 1)
    server = make_server(tmp_path)
    client = client_credential()
    started = time.monotonic()
    first = open_reply(wire_exchange(server, [scan_request_frame(client, sn=1)])[0])
    second = open_reply(wire_exchange(server, [scan_request_frame(client, sn=2)])[0])
    assert time.monotonic() - started >= 0.049
    assert first.msg_type is second.msg_type is MsgType.SCAN_ACCEPT
    assert len(server._jobs) == 2


def test_scan_too_far_over_pace_rejected_as_busy(tmp_path, monkeypatch):
    set_scan_pace(monkeypatch, 0.1, 1)
    server = make_server(tmp_path)
    client = client_credential()
    first = open_reply(wire_exchange(server, [scan_request_frame(client, sn=1)])[0])
    second = open_reply(wire_exchange(server, [scan_request_frame(client, sn=2)])[0])
    assert first.msg_type is MsgType.SCAN_ACCEPT
    assert second.msg_type is MsgType.SCAN_REJECT
    assert second.body["reason"] == "busy"
    assert len(server._jobs) == 1


# -- connection handling ---------------------------------------------------------------

def test_scan_request_happy_path(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    replies = wire_exchange(server, [scan_request_frame(client, sn=1)])
    assert len(replies) == 1
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.SCAN_ACCEPT
    assert opened.body["echo_id_a"] == "vsc-1"
    token = opened.body["token"]
    assert not server._jobs[token].finished.is_set()


def test_connection_closes_after_scan_accept(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    frames = [scan_request_frame(client, sn=1), scan_request_frame(client, sn=2)]
    replies = wire_exchange(server, frames)
    # The second frame is never served: accept closes the connection.
    assert len(replies) == 1
    assert len(server._jobs) == 1


def test_garbage_dropped_without_reply(tmp_path):
    server = make_server(tmp_path)
    assert wire_exchange(server, [b"\x00\x00\x00\x04ABCD"]) == []
    assert wire_exchange(server, [b"complete nonsense"]) == []


def test_unknown_client_dropped_without_reply(tmp_path):
    server = make_server(tmp_path)
    ghost = client_credential("ghost")
    assert wire_exchange(server, [scan_request_frame(ghost, sn=1)]) == []


def test_tampered_tag_dropped_without_reply(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    frame = bytearray(scan_request_frame(client, sn=1))
    frame[-1] ^= 0x01
    assert wire_exchange(server, [bytes(frame)]) == []


def test_replay_answered_then_blocked(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    frame = scan_request_frame(client, sn=1)
    view = client_credential()

    first = wire_exchange(server, [frame])
    assert open_reply(first[0], view).msg_type is MsgType.SCAN_ACCEPT

    replayed = wire_exchange(server, [frame])
    opened = open_reply(replayed[0], view)
    assert opened.msg_type is MsgType.PROTOCOL_ERROR
    assert opened.body["code"] == "replay"

    # The replay was a violation; the client is now blocked for a while.
    blocked = wire_exchange(server, [scan_request_frame(client, sn=2)])
    opened = open_reply(blocked[0], view)
    assert opened.msg_type is MsgType.PROTOCOL_ERROR
    assert opened.body["code"] == "blocked"

    # Once the block has run out, the client is served again.
    server.credentials["vsc-1"].block_state.blocked_until = 0.0
    accepted = wire_exchange(server, [scan_request_frame(client, sn=3)])
    assert open_reply(accepted[0], view).msg_type is MsgType.SCAN_ACCEPT


def test_stale_timestamp_answered_with_its_code(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    env = seal_message(client, MsgType.SCAN_REQUEST,
                       scan_request_body(_INVENTORY_DOC), sn=1,
                       ts=int(time.time()) - 3600)
    replies = wire_exchange(server, [encode_frame(env)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.PROTOCOL_ERROR
    assert opened.body["code"] == "stale-timestamp"


def test_forged_inner_identity_answered_with_its_code(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    env = seal_message(client, MsgType.SCAN_REQUEST,
                       scan_request_body(_INVENTORY_DOC), sn=1,
                       ts=int(time.time()), client_id_b="mallory")
    replies = wire_exchange(server, [encode_frame(env)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.PROTOCOL_ERROR
    assert opened.body["code"] == "impersonation"


def test_malformed_payload_answered_without_violation(tmp_path):
    import os
    import struct
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    from invscan.protocol import (NONCE_BYTES, PROTOCOL_VERSION, TAG_BYTES,
                                  Envelope)
    server = make_server(tmp_path)
    client = client_credential()
    aad = struct.pack(">BBH", PROTOCOL_VERSION, int(MsgType.SCAN_REQUEST),
                      len("vsc-1")) + b"vsc-1"
    # A NaN timestamp passes the freshness comparison, so it must be
    # refused before the sequence number moves.
    nan_ts = b'{"id_b":"vsc-1","sn":5,"ts":NaN,"body":{}}'
    for payload in (b"not json", nan_ts):
        nonce = os.urandom(NONCE_BYTES)
        sealed = AESGCM(client.derived_key).encrypt(nonce, payload, aad)
        env = Envelope(version=PROTOCOL_VERSION,
                       msg_type=int(MsgType.SCAN_REQUEST), client_id_a="vsc-1",
                       nonce=nonce, ciphertext=sealed[:-TAG_BYTES],
                       tag=sealed[-TAG_BYTES:])
        replies = wire_exchange(server, [encode_frame(env)])
        opened = open_reply(replies[0])
        assert opened.msg_type is MsgType.PROTOCOL_ERROR
        assert opened.body["code"] == "malformed-payload"
        assert server.credentials["vsc-1"].block_state.violations == 0
        assert server.credentials["vsc-1"].last_sn == 0


def test_unexpected_message_type_answered_with_error(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    env = seal_message(client, MsgType.RESULT_NOT_READY, {}, sn=1,
                       ts=int(time.time()))
    replies = wire_exchange(server, [encode_frame(env)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.PROTOCOL_ERROR
    assert opened.body["code"] == "unexpected-type"


def test_firewall_rejection_on_the_wire(tmp_path):
    server = make_server(tmp_path, rules=())
    client = client_credential()
    replies = wire_exchange(server, [scan_request_frame(client, sn=1)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.SCAN_REJECT
    assert opened.body["reason"] == "firewall-deny"


def test_bad_inventory_rejected_on_the_wire(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    doc = {"target_label": "host", "pvcs": [{"kind": "app"}]}  # name missing
    replies = wire_exchange(server, [scan_request_frame(client, sn=1, doc=doc)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.SCAN_REJECT
    assert opened.body["reason"].startswith("bad-inventory")


def test_lone_surrogate_rejected_on_the_wire(tmp_path):
    server = make_server(tmp_path)
    client = client_credential()
    doc = {"target_label": "host", "pvcs": [{"kind": "app", "name": "Paint\ud800"}]}
    replies = wire_exchange(server, [scan_request_frame(client, sn=1, doc=doc)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.SCAN_REJECT
    assert opened.body["reason"].startswith("bad-inventory")
    assert "surrogate" in opened.body["reason"]
    assert not server._jobs


def test_queue_full_rejected_as_busy(tmp_path):
    server = make_server(tmp_path, queue_capacity=1)
    server.enqueue_job(empty_inventory(), "vsc-1")
    client = client_credential()
    replies = wire_exchange(server, [scan_request_frame(client, sn=1)])
    opened = open_reply(replies[0])
    assert opened.msg_type is MsgType.SCAN_REJECT
    assert opened.body["reason"] == "busy"


def test_not_ready_keeps_connection_open(tmp_path):
    server = make_server(tmp_path)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    client = client_credential()
    frames = [result_request_frame(client, 1, token),
              result_request_frame(client, 2, token)]
    replies = wire_exchange(server, frames)
    assert len(replies) == 2
    view = client_credential()
    for envelope in replies:
        assert open_reply(envelope, view).msg_type is MsgType.RESULT_NOT_READY


def test_stateless_flow_across_connections(tmp_path):
    server = make_server(tmp_path, worker_count=1)
    client = client_credential()
    view = client_credential()

    accept = open_reply(wire_exchange(server, [scan_request_frame(client, 1)])[0],
                        view)
    token = accept.body["token"]

    not_ready = open_reply(
        wire_exchange(server, [result_request_frame(client, 2, token)])[0], view)
    assert not_ready.msg_type is MsgType.RESULT_NOT_READY

    server.start_workers()
    try:
        wait_finished(server, token)
    finally:
        server.stop_workers()

    done = open_reply(
        wire_exchange(server, [result_request_frame(client, 3, token)])[0], view)
    assert done.msg_type is MsgType.RESULT_RESPONSE
    report = done.body["report"]
    assert report["token"] == token
    assert [r["cves"] for r in report["results"]] == \
        [[{"id": "CVE-2019-0001", "exploit": False, "cvss": 7.5}]]
    # Server-originated sequence numbers strictly increase across the
    # whole session, which is what let one view credential open them all.
    assert accept.sn < not_ready.sn < done.sn == view.last_sn


def test_replies_open_after_server_restart(tmp_path):
    """A client that opened replies from one server process also opens
    those of a fresh one built on the same credentials."""
    client = client_credential()
    view = client_credential()
    first = make_server(tmp_path)
    reply = wire_exchange(first, [scan_request_frame(client, 1)])[0]
    assert open_reply(reply, view).msg_type is MsgType.SCAN_ACCEPT
    restarted = VulnServer(first.config, first.database,
                           {"vsc-1": client_credential()})
    reply = wire_exchange(restarted, [scan_request_frame(client, 2)])[0]
    assert open_reply(reply, view).msg_type is MsgType.SCAN_ACCEPT


# -- update runs ------------------------------------------------------------------------

def test_idle_worker_keeps_no_old_snapshot(tmp_path):
    """A report holds its job's snapshot; once served, nothing keeps it,
    so an update frees the old generation."""
    server = make_server(tmp_path, worker_count=1)
    old = weakref.ref(server.database.snapshot())
    paint = Pvc(kind=PvcKind.APPLICATION, name="Acme Paint", publisher="Acme")
    token = server.enqueue_job(Inventory(target_label="host", pvcs=(paint,)), "vsc-1")
    server.start_workers()
    try:
        wait_finished(server, token)
        (tmp_path / "no-feeds").mkdir()
        server.run_update(str(tmp_path / "no-feeds"))
        gc.collect()
        assert old() is None
    finally:
        server.stop_workers()


def test_server_update_builds_the_new_snapshot_once(tmp_path, caplog):
    server = make_server(tmp_path)
    server.database.snapshot()
    feeds = tmp_path / "delta"
    feeds.mkdir()
    write_feed(feeds / "nvd.json", [feed_item("CVE-2019-0002", cpes=["cpe:/a:acme:paint"])])
    with caplog.at_level("INFO", logger="invscan.db"):
        assert server.run_update(str(feeds)) == 2
        [line] = [m for m in caplog.messages if m.startswith("snapshot of generation")]
        snapshot = server.database.snapshot()
        assert len([m for m in caplog.messages if m.startswith("snapshot of")]) == 1
    assert "generation 2" in line and "1 records re-read" in line
    assert "CVE-2019-0002" in snapshot.records


def test_serving_heap_is_frozen_until_the_workers_stop(tmp_path, caplog):
    server = make_server(tmp_path, worker_count=1)
    # (snapshot built yet, objects frozen) at the start of each collection
    collections = []

    def watch(phase, info):
        if phase == "start":
            collections.append((any(m.startswith("snapshot of") for m in caplog.messages),
                                gc.get_freeze_count()))

    thresholds = gc.get_threshold()
    gc.callbacks.append(watch)
    gc.set_threshold(1)  # any allocation the collector may see starts a collection
    try:
        with caplog.at_level("INFO", logger="invscan.db"):
            server.start_workers()
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(watch)
    try:
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()
        # one collection before the build; none walks the new heap before the freeze
        assert collections[0] == (False, 0)
        assert all(not built or frozen for built, frozen in collections)
        # the startup snapshot is built before the freeze, not by the first scan
        built = [m for m in caplog.messages if m.startswith("snapshot of generation")]
        assert [m.split(" built")[0] for m in built] == ["snapshot of generation 1"]
        snapshot = server.database.snapshot()
        assert not any(obj is snapshot.records for obj in gc.get_objects())
    finally:
        server.stop_workers()
    assert gc.get_freeze_count() == 0


def test_delivered_job_is_freed_with_worker_idle(tmp_path):
    """A job holds its report document; once delivered, neither the
    store nor the idle worker keeps it."""
    server = make_server(tmp_path, worker_count=1)
    token = server.enqueue_job(empty_inventory(), "vsc-1")
    job = weakref.ref(server._jobs[token])
    server.start_workers()
    try:
        wait_finished(server, token)
        reply = wire_exchange(server, [result_request_frame(client_credential(), 1, token)])
        assert open_reply(reply[0]).msg_type is MsgType.RESULT_RESPONSE
        deadline = time.monotonic() + 5
        while job() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert job() is None
    finally:
        server.stop_workers()


def test_run_update_globs_directory(tmp_path):
    feeds_dir = tmp_path / "feeds"
    feeds_dir.mkdir()
    write_feed(feeds_dir / "feed.json",
               [feed_item("CVE-2020-0001", cpes=["cpe:/a:acme:paint"], cvss3=5.0)])
    write_dictionary(feeds_dir / "dict.txt", ["cpe:/a:acme:paint"])
    write_exploit_map(feeds_dir / "map.csv", [("EDB-9", "CVE-2020-0001")])
    (feeds_dir / "README.md").write_text("not ingested", encoding="utf-8")
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    assert run_update(database, str(feeds_dir)) == 1
    snapshot = database.snapshot()
    assert "CVE-2020-0001" in snapshot.exploited
    assert "paint" in snapshot.gen_index.known_products
    assert run_update(database, str(feeds_dir)) == 2
    database.close()
