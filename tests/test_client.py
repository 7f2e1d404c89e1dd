"""Client exchanges, polling, exit codes, and report rendering."""

import io
import json
import sqlite3
import time

import pytest
from click.testing import CliRunner

from invscan import server as server_module
from invscan.cli import main as cli_main
from invscan.client import (EXIT_MITM, EXIT_OK, EXIT_POLL_LIMIT,
                            EXIT_REJECTED, EXIT_THRESHOLD, EXIT_TIMEOUT,
                            EXIT_TRANSPORT, ClientConfig, TransportError,
                            poll_result, render_report, run_scan)
from invscan.db import VulnDatabase
from invscan.protocol import (MsgType, decode_frame, encode_frame,
                              open_message, result_response_body,
                              scan_accept_body, scan_reject_body,
                              seal_message)
from conftest import TEST_SALT, TEST_SECRET, client_credential, feed_item, write_feed

_INVENTORY_DOC = {
    "target_label": "host-1",
    "pvcs": [{"kind": "app", "name": "Acme Paint", "publisher": "Acme"}],
}


def make_config(**overrides) -> ClientConfig:
    kwargs = dict(server_host="127.0.0.1", server_port=4870, client_id="vsc-1",
                  secret=TEST_SECRET, salt=TEST_SALT)
    kwargs.update(overrides)
    return ClientConfig(**kwargs)


def write_inventory(tmp_path, doc=_INVENTORY_DOC) -> str:
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class ServerDouble:
    """Authenticates requests like the real server, then plays a script.

    Script entries are (MsgType, body) pairs to seal and return, or
    exceptions to raise in place of a reply. Every request frame is
    opened (tag, freshness, replay) so a client that mis-seals fails
    loudly here.
    """

    def __init__(self, responses, client_id="vsc-1"):
        self.cred = client_credential(client_id)
        self.responses = list(responses)
        self.opened_requests = []

    def request(self, frame: bytes) -> bytes:
        envelope = decode_frame(frame)
        opened = open_message(envelope, self.cred, time.time())
        self.opened_requests.append(opened)
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        msg_type, body = action
        reply = seal_message(self.cred, msg_type, body,
                             self.cred.next_send_sn(), int(time.time()))
        return encode_frame(reply)


# -- configuration ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        make_config(client_id="")
    with pytest.raises(ValueError):
        make_config(secret="")
    with pytest.raises(ValueError):
        make_config(poll_interval=0.5)
    cred = make_config().credential()
    assert cred.client_id == "vsc-1"
    assert cred.derived_key == client_credential().derived_key


# -- scan submission ----------------------------------------------------------------

def test_run_scan_happy_path(tmp_path):
    double = ServerDouble([(MsgType.SCAN_ACCEPT,
                            scan_accept_body("tok-1", "vsc-1"))])
    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=double)
    assert code == EXIT_OK
    assert token == "tok-1"
    request = double.opened_requests[0]
    assert request.msg_type is MsgType.SCAN_REQUEST
    assert request.body["inventory"] == _INVENTORY_DOC


def test_run_scan_rejected(tmp_path):
    double = ServerDouble([(MsgType.SCAN_REJECT, scan_reject_body("busy"))])
    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=double)
    assert code == EXIT_REJECTED
    assert token is None


def test_run_scan_forged_echo_is_mitm(tmp_path):
    # A rewritten header would be echoed back verbatim by an honest
    # server; the client must notice the echo names someone else.
    double = ServerDouble([(MsgType.SCAN_ACCEPT,
                            scan_accept_body("tok-1", "someone-else"))])
    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=double)
    assert code == EXIT_MITM
    assert token is None


def test_run_scan_unreachable_server(tmp_path, monkeypatch):
    naps = []
    monkeypatch.setattr("invscan.client.time.sleep", naps.append)

    class DeadTransport:
        attempts = 0

        def request(self, frame):
            self.attempts += 1
            raise TransportError("connection refused")

    transport = DeadTransport()
    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=transport)
    assert code == EXIT_TRANSPORT
    assert token is None
    assert transport.attempts == 3
    assert naps == [1.0, 2.0]  # capped exponential backoff between attempts


def test_run_scan_retries_then_succeeds(tmp_path, monkeypatch):
    monkeypatch.setattr("invscan.client.time.sleep", lambda _s: None)
    double = ServerDouble([TransportError("first attempt refused"),
                           (MsgType.SCAN_ACCEPT,
                            scan_accept_body("tok-2", "vsc-1"))])
    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=double)
    assert code == EXIT_OK
    assert token == "tok-2"
    assert len(double.opened_requests) == 2


def test_run_scan_garbage_reply(tmp_path):
    class GarbageTransport:
        def request(self, frame):
            return b"\x00\x00\x00\x03abc"

    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=GarbageTransport())
    assert code == EXIT_TRANSPORT
    assert token is None


def test_run_scan_unexpected_reply_type(tmp_path):
    double = ServerDouble([(MsgType.RESULT_NOT_READY, {})])
    code, token = run_scan(make_config(), write_inventory(tmp_path),
                           transport=double)
    assert code == EXIT_TRANSPORT
    assert token is None


# -- result polling ------------------------------------------------------------------

def _report_doc(token="tok-1"):
    return {
        "token": token,
        "results": [{
            "pvc": {"kind": "app", "name": "Acme Paint"},
            "cves": [{"id": "CVE-2019-0001", "exploit": False, "cvss": 7.5}],
            "cache_hit": False,
        }],
        "summary": {"total_cves": 1, "max_cvss": 7.5, "exploit_count": 0},
    }


def test_poll_until_done():
    report = _report_doc()
    double = ServerDouble([
        (MsgType.RESULT_NOT_READY, {}),
        (MsgType.RESULT_NOT_READY, {}),
        (MsgType.RESULT_RESPONSE, result_response_body(report)),
    ])
    naps = []
    code, received = poll_result(make_config(poll_interval=1.0), "tok-1",
                                 transport=double, sleep_fn=naps.append)
    assert code == EXIT_OK
    assert received == report
    assert naps == [1.0, 1.0]
    sns = [req.sn for req in double.opened_requests]
    assert all(b > a for a, b in zip(sns, sns[1:]))
    assert all(req.body == {"token": "tok-1"} for req in double.opened_requests)


def test_poll_limit_exit_is_distinct():
    double = ServerDouble([(MsgType.SCAN_REJECT, scan_reject_body("poll-limit"))])
    code, report = poll_result(make_config(), "tok-1", transport=double)
    assert code == EXIT_POLL_LIMIT
    assert report is None


def test_poll_other_rejection():
    double = ServerDouble([(MsgType.SCAN_REJECT,
                            scan_reject_body("unknown-token"))])
    code, report = poll_result(make_config(), "tok-1", transport=double)
    assert code == EXIT_REJECTED
    assert report is None


def test_poll_timeout_is_distinct_from_poll_limit():
    double = ServerDouble([(MsgType.RESULT_NOT_READY, {})])
    code, report = poll_result(make_config(max_wait=0.0), "tok-1",
                               transport=double, sleep_fn=lambda _s: None)
    assert code == EXIT_TIMEOUT
    assert report is None


def test_poll_transport_failure(monkeypatch):
    monkeypatch.setattr("invscan.client.time.sleep", lambda _s: None)

    class DeadTransport:
        def request(self, frame):
            raise TransportError("connection refused")

    code, report = poll_result(make_config(), "tok-1",
                               transport=DeadTransport())
    assert code == EXIT_TRANSPORT
    assert report is None


# -- report rendering ----------------------------------------------------------------

def _two_component_report():
    return {
        "token": "tok-9",
        "results": [
            {
                "pvc": {"kind": "app", "name": "Adobe Reader",
                        "display_version": "9.0"},
                "cves": [
                    {"id": "CVE-2019-0001", "exploit": True, "cvss": 9.8},
                    {"id": "CVE-2019-0002", "exploit": False},
                ],
                "cache_hit": True,
            },
            {
                "pvc": {"kind": "os", "name": "windows xp"},
                "cves": [],
                "cache_hit": False,
            },
        ],
        "summary": {"total_cves": 2, "max_cvss": 9.8, "exploit_count": 1},
    }


def test_render_text_report():
    output, code = render_report(_two_component_report(), "text")
    assert code == EXIT_OK
    lines = output.splitlines()
    assert lines[0] == ("Adobe Reader 9.0: 2 CVEs, worst CVSS 9.8 "
                        "(exploit available, cached)")
    assert lines[1] == "windows xp: 0 CVEs, worst CVSS n/a"
    assert lines[2] == "2 distinct CVEs, max CVSS 9.8, 1 with exploits"


def test_render_zero_vulnerabilities():
    doc = {"token": "t", "results": [],
           "summary": {"total_cves": 0, "max_cvss": None, "exploit_count": 0}}
    output, code = render_report(doc, "text")
    assert code == EXIT_OK
    assert output.splitlines()[-1] == "0 vulnerabilities"


def test_render_error_flag():
    doc = {
        "token": "t",
        "results": [{"pvc": {"kind": "app", "name": "Broken"},
                     "cves": [], "cache_hit": False,
                     "error": "RuntimeError: boom"}],
        "summary": {"total_cves": 0, "max_cvss": None, "exploit_count": 0},
    }
    output, _ = render_report(doc, "text")
    assert "error: RuntimeError: boom" in output.splitlines()[0]


def test_render_json_round_trips():
    doc = _two_component_report()
    output, code = render_report(doc, "json")
    assert code == EXIT_OK
    assert json.loads(output) == doc
    again, _ = render_report(json.loads(output), "json")
    assert again == output


def test_fail_on_threshold():
    doc = _two_component_report()
    assert render_report(doc, "text", fail_on=7.0)[1] == EXIT_THRESHOLD
    assert render_report(doc, "text", fail_on=9.8)[1] == EXIT_THRESHOLD
    assert render_report(doc, "text", fail_on=9.9)[1] == EXIT_OK
    assert render_report(doc, "text", fail_on=None)[1] == EXIT_OK
    scoreless = {"token": "t",
                 "results": [{"pvc": {"kind": "app", "name": "X"},
                              "cves": [{"id": "CVE-1999-0001", "exploit": False}],
                              "cache_hit": False}],
                 "summary": {"total_cves": 1, "max_cvss": None,
                             "exploit_count": 0}}
    assert render_report(scoreless, "text", fail_on=0.1)[1] == EXIT_OK


# -- client against the in-process server --------------------------------------------

class InMemoryServerTransport:
    """Routes each request frame through a real server's connection handler."""

    def __init__(self, server, source_ip="10.0.0.9"):
        self.server = server
        self.source_ip = source_ip
        self.frames_sent = 0

    def request(self, frame: bytes) -> bytes:
        self.frames_sent += 1
        wfile = io.BytesIO()
        self.server.handle_connection(io.BytesIO(frame), wfile, self.source_ip)
        data = wfile.getvalue()
        if not data:
            raise TransportError("connection dropped without a reply")
        return data


def test_client_against_in_process_server(tmp_path):
    from invscan.server import FirewallRule, ServerConfig, VulnServer
    from conftest import feed_item, make_database

    items = [feed_item("CVE-2019-0001", cpes=["cpe:/a:acme:paint"], cvss3=7.5)]
    database = make_database(tmp_path, items, dictionary=["cpe:/a:acme:paint"])
    config = ServerConfig(
        firewall_rules=(FirewallRule(action="allow"),),
        worker_count=1)
    server = VulnServer(config, database, {"vsc-1": client_credential()})
    transport = InMemoryServerTransport(server)
    client_config = make_config(poll_interval=1.0, max_wait=30.0)
    cred = client_config.credential()

    code, token = run_scan(client_config, write_inventory(tmp_path),
                           transport=transport, cred=cred)
    assert code == EXIT_OK

    server.start_workers()
    try:
        assert server._jobs[token].finished.wait(5.0)
    finally:
        server.stop_workers()

    code, report = poll_result(client_config, token, transport=transport,
                               cred=cred, sleep_fn=lambda _s: None)
    assert code == EXIT_OK
    assert report["token"] == token
    cve_ids = {c["id"] for r in report["results"] for c in r["cves"]}
    assert cve_ids == {"CVE-2019-0001"}


# -- CLI plumbing ----------------------------------------------------------------------

def test_cli_rejects_bad_server_address(tmp_path):
    runner = CliRunner()
    inventory = write_inventory(tmp_path)
    result = runner.invoke(cli_main, [
        "client", "scan", "--inventory", inventory, "--server", "nocolon",
        "--id", "vsc-1", "--secret", "s", "--salt", TEST_SALT.hex()])
    assert result.exit_code != 0
    assert "HOST:PORT" in result.output


def test_cli_rejects_bad_salt(tmp_path):
    runner = CliRunner()
    inventory = write_inventory(tmp_path)
    result = runner.invoke(cli_main, [
        "client", "scan", "--inventory", inventory, "--server", "host:1234",
        "--id", "vsc-1", "--secret", "s", "--salt", "zz"])
    assert result.exit_code != 0
    assert "salt" in result.output


def test_cli_provisions_client(tmp_path):
    creds_path = tmp_path / "creds.json"
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps({"credentials_path": str(creds_path)}),
                           encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "server", "client", "add", "--id", "vsc-9",
        "--config", str(config_path)])
    assert result.exit_code == 0
    assert "client_id: vsc-9" in result.output
    assert "secret: " in result.output
    stored = json.loads(creds_path.read_text(encoding="utf-8"))
    assert "vsc-9" in stored
    repeat = runner.invoke(cli_main, [
        "server", "client", "add", "--id", "vsc-9",
        "--config", str(config_path)])
    assert repeat.exit_code != 0


def test_cli_update_builds_no_snapshot(tmp_path, caplog):
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    write_feed(feeds / "nvd.json", [feed_item("CVE-2019-0001", cpes=["cpe:/a:acme:paint"])])
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps({"db_path": str(tmp_path / "invscan.db")}),
                           encoding="utf-8")
    with caplog.at_level("INFO", logger="invscan.db"):
        result = CliRunner().invoke(cli_main, [
            "server", "update", "--feeds", str(feeds), "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "generation 1, 1 CVE records" in result.output
    # neither opening the file nor the update builds a snapshot
    assert not [m for m in caplog.messages if m.startswith("snapshot of generation")]
    # a second update opens the file the first one wrote
    again = CliRunner().invoke(cli_main, [
        "server", "update", "--feeds", str(feeds), "--config", str(config_path)])
    assert again.exit_code == 0, again.output
    assert "generation 2, 1 CVE records" in again.output


def _refused(result, path, caplog):
    """The command exited 1 with one line naming the path, and nothing
    logged or printed a traceback."""
    assert result.exit_code == 1
    last = result.output.splitlines()[-1]
    assert last.startswith("Error: ") and str(path) in last
    assert "Traceback" not in result.output
    assert not any(record.exc_info for record in caplog.records)


@pytest.mark.parametrize("command", ["serve", "update"])
def test_cli_refuses_a_file_of_an_old_layout_in_one_line(tmp_path, caplog, monkeypatch,
                                                         command):
    monkeypatch.setattr(server_module, "serve_forever",
                        lambda *args, **kwargs: pytest.fail("served an old-layout file"))
    db_path = tmp_path / "invscan.db"
    conn = sqlite3.connect(db_path)
    with conn:
        conn.execute("CREATE TABLE cpe_dict (uri TEXT PRIMARY KEY)")
    conn.close()
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps({"db_path": str(db_path)}), encoding="utf-8")
    args = ["--feeds", str(tmp_path)] if command == "update" else []
    result = CliRunner().invoke(cli_main, ["server", command, "--config", str(config_path),
                                           *args])
    _refused(result, db_path, caplog)
    assert "ingest the feeds into a new file" in result.output


def test_cli_update_of_a_feed_that_is_not_an_object_fails_in_one_line(tmp_path, caplog):
    good = tmp_path / "good"
    good.mkdir()
    write_feed(good / "nvd.json", [feed_item("CVE-2019-0001", cpes=["cpe:/a:acme:paint"])])
    config_path = tmp_path / "server.json"
    db_path = tmp_path / "invscan.db"
    config_path.write_text(json.dumps({"db_path": str(db_path)}), encoding="utf-8")
    first = CliRunner().invoke(cli_main, [
        "server", "update", "--feeds", str(good), "--config", str(config_path)])
    assert first.exit_code == 0, first.output
    feeds = tmp_path / "feeds"
    feeds.mkdir()
    for data, reason in ((b'[{"cve": {}}]', "not an object holding a CVE_Items list"),
                         # a stray config file among the feeds
                         (config_path.read_bytes(), "not an object holding a CVE_Items list"),
                         (b"{not json", "is not UTF-8 JSON"),
                         (b'{"CVE_Items": ["\xff"]}', "is not UTF-8 JSON")):
        (feeds / "nvd.json").write_bytes(data)
        caplog.clear()
        result = CliRunner().invoke(cli_main, [
            "server", "update", "--feeds", str(feeds), "--config", str(config_path)])
        _refused(result, feeds / "nvd.json", caplog)
        assert reason in result.output
    # no refused update wrote anything
    database = VulnDatabase(str(db_path))
    assert database.record_count() == 1 and database.snapshot().generation == 1
    database.close()
