"""Scan client: submit an inventory, poll for the report, render it.

The transport is a one-request/one-response exchange so each poll is its
own connection; tests substitute an in-memory double. Sequence numbers
come from ClientCredential.next_send_sn, which follows the nanosecond
clock and so keeps them strictly increasing even across separate client
processes sharing one credential.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from dataclasses import dataclass

from .protocol import (ClientCredential, FrameError, MsgType, OpenedMessage,
                       ProtocolViolation, client_check_echo, decode_frame,
                       encode_frame, open_message, read_frame,
                       result_request_body, scan_request_body, seal_message)
from .inventory import inventory_to_dict, load_inventory

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_REJECTED = 2
EXIT_MITM = 3
EXIT_TIMEOUT = 4
EXIT_POLL_LIMIT = 5
EXIT_TRANSPORT = 6

DEFAULT_POLL_INTERVAL = 5.0
DEFAULT_MAX_WAIT = 300.0
# Attempts per request, and each attempt's socket timeout.
REQUEST_ATTEMPTS = 3
REQUEST_TIMEOUT_S = 30.0


class TransportError(Exception):
    """The server could not be reached or the exchange broke off."""


@dataclass
class ClientConfig:
    server_host: str
    server_port: int
    client_id: str
    secret: str
    salt: bytes
    poll_interval: float = DEFAULT_POLL_INTERVAL
    max_wait: float = DEFAULT_MAX_WAIT

    def __post_init__(self) -> None:
        if not self.client_id or not self.secret:
            raise ValueError("client_id and secret must be non-empty")
        if self.poll_interval < 1.0:
            raise ValueError("poll_interval must be at least 1 second")

    def credential(self) -> ClientCredential:
        return ClientCredential.from_secret(self.client_id, self.secret, self.salt)


class TcpTransport:
    """One connection per request/response pair."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, frame: bytes) -> bytes:
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=REQUEST_TIMEOUT_S) as conn:
                conn.sendall(frame)
                with conn.makefile("rb") as rfile:
                    response = read_frame(rfile)
        except (OSError, FrameError) as exc:
            raise TransportError(str(exc)) from exc
        if response is None:
            raise TransportError("server closed the connection without replying")
        return response


def _exchange(cred: ClientCredential, transport, msg_type: MsgType,
              body: dict) -> OpenedMessage:
    """Seal, send with retries, and open the reply.

    Every attempt is sealed fresh: a lost response does not prove the
    request was lost too, and resending an identical envelope to a
    server that already accepted it would trip its replay defense.

    Raises TransportError when the server stays unreachable or the reply
    cannot be authenticated (an unauthenticated reply is treated exactly
    like no reply at all).
    """
    last_error: Exception | None = None
    for attempt in range(REQUEST_ATTEMPTS):
        envelope = seal_message(cred, msg_type, body, cred.next_send_sn(),
                                int(time.time()))
        try:
            raw = transport.request(encode_frame(envelope))
            break
        except TransportError as exc:
            last_error = exc
            log.warning("request attempt %d/%d failed: %s",
                        attempt + 1, REQUEST_ATTEMPTS, exc)
            if attempt + 1 < REQUEST_ATTEMPTS:
                time.sleep(min(2.0 ** attempt, 5.0))
    else:
        raise TransportError(f"no response after {REQUEST_ATTEMPTS} attempts: {last_error}")
    try:
        reply = decode_frame(raw)
        return open_message(reply, cred, time.time())
    except (FrameError, ProtocolViolation) as exc:
        raise TransportError(f"unusable server reply: {exc}") from exc


def run_scan(config: ClientConfig, inventory_path: str,
             transport=None, cred: ClientCredential | None = None) -> tuple[int, str | None]:
    """Submit the inventory; returns (exit code, token or None).

    A forged echo identity aborts with the MITM status and the token is
    discarded unread.
    """
    if transport is None:
        transport = TcpTransport(config.server_host, config.server_port)
    if cred is None:
        cred = config.credential()
    inventory = load_inventory(inventory_path)
    body = scan_request_body(inventory_to_dict(inventory))
    try:
        opened = _exchange(cred, transport, MsgType.SCAN_REQUEST, body)
    except TransportError as exc:
        log.error("scan request failed: %s", exc)
        return EXIT_TRANSPORT, None
    if opened.msg_type is MsgType.SCAN_ACCEPT:
        if not client_check_echo(config.client_id, opened.body):
            log.error("echo identity mismatch: expected %r got %r "
                      "(header rewritten in transit)",
                      config.client_id, opened.body.get("echo_id_a"))
            return EXIT_MITM, None
        return EXIT_OK, str(opened.body.get("token", ""))
    if opened.msg_type is MsgType.SCAN_REJECT:
        log.error("scan rejected: %s", opened.body.get("reason", "unspecified"))
        return EXIT_REJECTED, None
    log.error("unexpected reply type %s", opened.msg_type)
    return EXIT_TRANSPORT, None


def poll_result(config: ClientConfig, token: str, transport=None,
                cred: ClientCredential | None = None,
                sleep_fn=time.sleep) -> tuple[int, dict | None]:
    """Poll until the report arrives; returns (exit code, report doc).

    A poll-limit rejection and the local max_wait timeout are different
    failures and exit differently.
    """
    if transport is None:
        transport = TcpTransport(config.server_host, config.server_port)
    if cred is None:
        cred = config.credential()
    deadline = time.monotonic() + config.max_wait
    while True:
        try:
            opened = _exchange(cred, transport,
                               MsgType.RESULT_REQUEST, result_request_body(token))
        except TransportError as exc:
            log.error("result request failed: %s", exc)
            return EXIT_TRANSPORT, None
        if opened.msg_type is MsgType.RESULT_RESPONSE:
            return EXIT_OK, opened.body.get("report", {})
        if opened.msg_type is MsgType.SCAN_REJECT:
            reason = str(opened.body.get("reason", "unspecified"))
            log.error("result rejected: %s", reason)
            if reason == "poll-limit":
                return EXIT_POLL_LIMIT, None
            return EXIT_REJECTED, None
        if opened.msg_type is not MsgType.RESULT_NOT_READY:
            log.error("unexpected reply type %s", opened.msg_type)
            return EXIT_TRANSPORT, None
        if time.monotonic() + config.poll_interval > deadline:
            log.error("gave up after %.0f seconds", config.max_wait)
            return EXIT_TIMEOUT, None
        sleep_fn(config.poll_interval)


def render_report(report_doc: dict, fmt: str = "text",
                  fail_on: float | None = None) -> tuple[str, int]:
    """Render a report dict; returns (output, exit code).

    Exit is EXIT_THRESHOLD when any CVE's score reaches fail_on.
    """
    worst: float | None = None
    for result in report_doc.get("results", []):
        for cve in result.get("cves", []):
            score = cve.get("cvss")
            if score is not None and (worst is None or score > worst):
                worst = score
    exit_code = EXIT_OK
    if fail_on is not None and worst is not None and worst >= fail_on:
        exit_code = EXIT_THRESHOLD

    if fmt == "json":
        return json.dumps(report_doc, indent=2, sort_keys=True), exit_code

    summary = report_doc.get("summary", {})
    total = summary.get("total_cves", 0)
    lines = []
    for result in report_doc.get("results", []):
        pvc = result.get("pvc", {})
        label = pvc.get("name", "?")
        if pvc.get("display_version"):
            label += f" {pvc['display_version']}"
        cves = result.get("cves", [])
        scores = [c["cvss"] for c in cves if c.get("cvss") is not None]
        worst_here = f"{max(scores):.1f}" if scores else "n/a"
        exploit = any(c.get("exploit") for c in cves)
        flags = []
        if exploit:
            flags.append("exploit available")
        if result.get("cache_hit"):
            flags.append("cached")
        if result.get("error"):
            flags.append(f"error: {result['error']}")
        suffix = f" ({', '.join(flags)})" if flags else ""
        lines.append(f"{label}: {len(cves)} CVEs, worst CVSS {worst_here}{suffix}")
    if total == 0:
        lines.append("0 vulnerabilities")
    else:
        max_cvss = summary.get("max_cvss")
        rendered_max = f"{max_cvss:.1f}" if max_cvss is not None else "n/a"
        lines.append(f"{total} distinct CVEs, max CVSS {rendered_max}, "
                     f"{summary.get('exploit_count', 0)} with exploits")
    return "\n".join(lines), exit_code
