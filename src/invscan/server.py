"""Scan server daemon: verification firewall, FIFO job queue, workers,
result store with poll limits, and exponential violation blocking.

Request handling is stateless: every frame is authenticated, dispatched,
and answered on its own; the only state that outlives a response is the
job store keyed by token (each job carries its report once finished) and
the per-client credential record.
Unauthenticatable traffic is dropped without a reply.

A result request for an unfinished job waits for it (long-poll), so a
report goes out as soon as it is ready. Each client starts scans at a
steady pace: a scan request over its pace is held until its slot, which
keeps one client from taking the workers for itself now that no poll
interval spaces its requests. Each report is delivered once:
its token is forgotten when the response has been sent, and finished
jobs that nobody collects are dropped after REPORT_TTL_S.
"""

from __future__ import annotations

import fnmatch
import gc
import ipaddress
import json
import logging
import os
import pathlib
import queue
import secrets
import socketserver
import tempfile
import threading
import time
from dataclasses import dataclass

from .db import VulnDatabase, collector_paused
from .engine import ScanJob, execute_job, report_to_dict
from .inventory import Inventory, InventoryError, inventory_from_dict
from .protocol import (ClientCredential, FrameError, ImpersonationError,
                       MalformedPayloadError, MsgType, ReplayError,
                       StaleTimestampError, TagInvalidError, decode_frame,
                       encode_frame, open_message, protocol_error_body,
                       read_frame, result_not_ready_body, result_response_body,
                       scan_accept_body, scan_reject_body, seal_message)

log = logging.getLogger(__name__)

TOKEN_BYTES = 16

REJECT_BUSY = "busy"
REJECT_FIREWALL = "firewall-deny"
REJECT_UNKNOWN_TOKEN = "unknown-token"
REJECT_FORBIDDEN = "forbidden"
REJECT_POLL_LIMIT = "poll-limit"
REJECT_SCAN_FAILED = "scan-failed"
REJECT_REPORT_TOO_LARGE = "report-too-large"

# Longest a result request waits for its job to finish; well under the
# client's 30 s transport timeout.
RESULT_WAIT_S = 10.0
# Finished jobs older than this (from enqueue) are dropped on the next
# enqueue; twice the client's default max_wait.
REPORT_TTL_S = 600.0
# Longest a connection may stall mid-read before it is dropped.
READ_TIMEOUT_S = 30.0
# Scans one client may start per second, and at once after a pause.
# Four a second is about a fifth of what the two default workers finish
# on cold 100-component inventories on a 2-CPU machine.
CLIENT_SCAN_RATE = 4.0
CLIENT_SCAN_BURST = 2
# Longest a scan request is held for its client's next scan slot; one
# that would wait longer is refused as busy.
SCAN_HOLD_MAX_S = 5.0
# The k-th protocol violation blocks its client for BLOCK_BASE_S**k seconds.
BLOCK_BASE_S = 2.0


@dataclass(frozen=True)
class FirewallRule:
    """One ordered verification rule; all specified conditions must hold
    for the rule to match."""

    action: str
    cidr: ipaddress.IPv4Network | ipaddress.IPv6Network | None = None
    client_id_pattern: str | None = None

    def __post_init__(self) -> None:
        if self.action not in ("allow", "deny"):
            raise ValueError(f"rule action must be allow or deny, got {self.action!r}")

    def matches(self, source_ip: str, client_id: str) -> bool:
        if self.cidr is not None:
            try:
                if ipaddress.ip_address(source_ip) not in self.cidr:
                    return False
            except ValueError:
                return False
        if self.client_id_pattern is not None:
            if not fnmatch.fnmatchcase(client_id, self.client_id_pattern):
                return False
        return True


def rule_from_dict(doc: dict) -> FirewallRule:
    cidr = doc.get("cidr")
    return FirewallRule(
        action=str(doc.get("action", "deny")).lower(),
        cidr=ipaddress.ip_network(cidr, strict=False) if cidr else None,
        client_id_pattern=doc.get("client_id"),
    )


def verify_request(source_ip: str, client_id: str, rules) -> tuple[bool, str]:
    """First matching rule decides; nothing matching means deny. Runs
    only on requests whose tag verified."""
    for position, rule in enumerate(rules):
        if rule.matches(source_ip, client_id):
            if rule.action == "allow":
                return True, f"allow-rule-{position}"
            return False, REJECT_FIREWALL
    return False, "default-deny"


@dataclass
class ServerConfig:
    port: int = 4870
    db_path: str = "invscan.db"
    worker_count: int = 2
    queue_capacity: int = 64
    max_polls_per_token: int = 100
    firewall_rules: tuple[FirewallRule, ...] = ()
    credentials_path: str | None = None

    def __post_init__(self) -> None:
        for label in ("worker_count", "queue_capacity", "max_polls_per_token"):
            if getattr(self, label) < 1:
                raise ValueError(f"{label} must be >= 1")


_CONFIG_KEYS = frozenset({"port", "db_path", "worker_count", "queue_capacity",
                          "max_polls_per_token", "credentials_path"})
_RULE_KEYS = frozenset({"action", "cidr", "client_id"})


def config_from_dict(doc: dict) -> ServerConfig:
    """Build the config; unknown keys (such as those of settings since
    removed) are ignored with one warning naming them."""
    rule_docs = doc.get("firewall", [])
    ignored = sorted(doc.keys() - _CONFIG_KEYS - {"firewall"})
    ignored += sorted({f"firewall.{key}" for rule in rule_docs
                       for key in rule.keys() - _RULE_KEYS})
    if ignored:
        log.warning("ignoring unknown config keys: %s", ", ".join(ignored))
    kwargs = {key: doc[key] for key in _CONFIG_KEYS if key in doc}
    return ServerConfig(firewall_rules=tuple(map(rule_from_dict, rule_docs)),
                        **kwargs)


def load_config(path: str) -> ServerConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def load_credentials(path: str) -> dict[str, ClientCredential]:
    """Credential file: JSON object mapping client id to {secret, salt-hex}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    creds = {}
    for client_id, entry in doc.items():
        creds[client_id] = ClientCredential.from_secret(
            client_id, entry["secret"], bytes.fromhex(entry["salt"]))
    return creds


def add_credential(path: str, client_id: str) -> tuple[str, str]:
    """Provision a new client in the credential file; returns (secret, salt-hex).
    The file is replaced by a sibling only its owner can read, written in
    full first, so the secrets are never world-readable or truncated."""
    file_path = pathlib.Path(path)
    doc = {}
    if file_path.exists():
        doc = json.loads(file_path.read_text(encoding="utf-8"))
    if client_id in doc:
        raise ValueError(f"client {client_id!r} already provisioned")
    secret = secrets.token_urlsafe(24)
    salt = secrets.token_hex(16)
    doc[client_id] = {"secret": secret, "salt": salt}
    file_path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=file_path.parent, prefix=f".{file_path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, file_path)
    except BaseException:
        os.unlink(temp)
        raise
    return secret, salt


def run_update(database: VulnDatabase, feeds_dir: str) -> int:
    """Ingest every feed (*.json), dictionary (*.txt), and exploit map
    (*.csv) in a directory and bump the generation, atomically. Builds
    no snapshot: the database's next snapshot() call does, with an empty
    scan cache. Jobs already running keep the snapshot they started
    with."""
    base = pathlib.Path(feeds_dir)
    feeds = sorted(str(p) for p in base.glob("*.json"))
    dictionaries = sorted(str(p) for p in base.glob("*.txt"))
    exploits = sorted(str(p) for p in base.glob("*.csv"))
    return database.update_sources(feeds, dictionaries, exploits)


class VulnServer:
    """All server behavior behind the wire: verification, queueing,
    execution, result delivery, and blocking policy.

    Socket plumbing lives in serve_forever; everything else is driven
    through handle_connection so tests can feed it in-memory streams.
    """

    def __init__(self, config: ServerConfig, database: VulnDatabase,
                 credentials: dict[str, ClientCredential] | None = None) -> None:
        self.config = config
        self.database = database
        if credentials is None and config.credentials_path:
            credentials = load_credentials(config.credentials_path)
        self.credentials: dict[str, ClientCredential] = dict(credentials or {})
        self._client_locks = {cid: threading.Lock() for cid in self.credentials}
        self._scan_due: dict[str, float] = {}
        self._queue: queue.Queue = queue.Queue(maxsize=config.queue_capacity)
        self._jobs: dict[str, ScanJob] = {}
        self._store_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start_workers(self) -> None:
        """Build the startup snapshot, then start the workers, first
        moving every object alive now, that snapshot above all, out of
        the collector's sight: full collections then skip that
        immutable, acyclic heap instead of walking it on whichever scan
        or update they land. Objects it drops are still freed by
        reference counting. The collection runs before the build, and
        the collector stays paused until the freeze, so no collection
        walks the new heap on its way in."""
        gc.collect()
        with collector_paused():
            self.database.snapshot()
            gc.freeze()
        for n in range(self.config.worker_count):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"scan-worker-{n}", daemon=True)
            worker.start()
            self._workers.append(worker)

    def stop_workers(self) -> None:
        self._stopping = True
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=10)
        self._workers.clear()
        gc.unfreeze()

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                # No local keeps the ScanReport: it holds the job's
                # snapshot, which would outlive later updates.
                job.report = report_to_dict(execute_job(job, self.database))
            except Exception:
                log.exception("job %s failed", job.token)
            finally:
                job.finished.set()
            # Nor does an idle worker keep its last job, and so its report.
            del job

    # -- job store ---------------------------------------------------------

    def enqueue_job(self, inventory: Inventory, client_id: str) -> str | None:
        """Queue a scan; returns the token, or None when the queue is full.

        Drops finished jobs enqueued more than REPORT_TTL_S ago first.
        """
        token = secrets.token_hex(TOKEN_BYTES)
        with self._store_lock:
            now = time.monotonic()
            self._drop_expired(now)
            job = ScanJob(token=token, client_id=client_id, inventory=inventory,
                          enqueued_at=now)
            self._jobs[token] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._store_lock:
                del self._jobs[token]
            return None
        return token

    def _drop_expired(self, now: float) -> None:
        """Drop finished jobs enqueued more than REPORT_TTL_S before now.
        Caller holds _store_lock. Jobs sit in enqueue order, and at most
        queue_capacity + worker_count of them are unfinished, so the walk
        stops early."""
        expired = []
        for token, job in self._jobs.items():
            if now - job.enqueued_at <= REPORT_TTL_S:
                break
            if job.finished.is_set():
                expired.append(token)
        for token in expired:
            del self._jobs[token]

    def _forget(self, token: str) -> None:
        with self._store_lock:
            self._jobs.pop(token, None)

    def fetch_result(self, token: str, client_id: str) -> tuple[MsgType, dict]:
        """Resolve one poll into the response (type, body) to seal.

        While worker threads run, a poll on an unfinished job first waits
        up to RESULT_WAIT_S for it to finish; that wait is one poll.
        """
        with self._store_lock:
            job = self._jobs.get(token)
            if job is None:
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_UNKNOWN_TOKEN)
            if job.client_id != client_id:
                log.warning("client %s polled token %s owned by %s (impersonation)",
                            client_id, token, job.client_id)
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_FORBIDDEN)
            job.polls_used += 1
            if job.polls_used > self.config.max_polls_per_token:
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_POLL_LIMIT)
        if self._workers:
            job.finished.wait(RESULT_WAIT_S)
        if not job.finished.is_set():
            return MsgType.RESULT_NOT_READY, result_not_ready_body()
        if job.report is None:
            return MsgType.SCAN_REJECT, scan_reject_body(REJECT_SCAN_FAILED)
        with self._store_lock:
            if self._jobs.get(token) is not job:  # delivered to another poll meanwhile
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_UNKNOWN_TOKEN)
        return MsgType.RESULT_RESPONSE, result_response_body(job.report)

    # -- blocking policy -----------------------------------------------------

    def apply_rate_limit(self, client_id: str, violation: bool, now: float) -> bool:
        """Blocking decision for one request; True when it is blocked.

        A request while blocked never changes the violation count; the
        k-th violation while unblocked blocks for BLOCK_BASE_S**k seconds.
        The count never decays.
        """
        state = self.credentials[client_id].block_state
        if now < state.blocked_until:
            return True
        if violation:
            state.violations += 1
            state.blocked_until = now + BLOCK_BASE_S ** state.violations
            return True
        return False

    def reserve_scan_slot(self, client_id: str, now: float) -> float | None:
        """Reserve the client's next scan start; returns how long to hold
        the request first, or None (nothing reserved) when that would be
        longer than SCAN_HOLD_MAX_S.

        Slots follow the generic cell rate algorithm: each client's slots
        are 1 / CLIENT_SCAN_RATE apart, and a client that paused may
        start up to CLIENT_SCAN_BURST scans at once.
        """
        interval = 1.0 / CLIENT_SCAN_RATE
        tolerance = (CLIENT_SCAN_BURST - 1) * interval
        with self._client_locks[client_id]:
            due = self._scan_due.get(client_id, now)
            hold = max(0.0, due - tolerance - now)
            if hold > SCAN_HOLD_MAX_S:
                return None
            self._scan_due[client_id] = max(now, due) + interval
        return hold

    # -- request handling ----------------------------------------------------

    def run_update(self, feeds_dir: str) -> int:
        """run_update, then build the new generation's snapshot here, so
        the update pays for it rather than the next scan."""
        generation = run_update(self.database, feeds_dir)
        self.database.snapshot()
        return generation

    def _seal_response(self, cred: ClientCredential, msg_type: MsgType,
                       body: dict) -> bytes:
        envelope = seal_message(cred, msg_type, body, cred.next_send_sn(),
                                int(time.time()))
        return encode_frame(envelope)

    def _dispatch(self, opened_type: MsgType, body: dict, client_id: str,
                  source_ip: str) -> tuple[MsgType, dict, bool]:
        """Route one authenticated message; returns (type, body, close?)."""
        if opened_type is MsgType.SCAN_REQUEST:
            accepted, reason = verify_request(source_ip, client_id,
                                              self.config.firewall_rules)
            if not accepted:
                log.info("firewall rejected %s from %s: %s", client_id, source_ip, reason)
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_FIREWALL), True
            try:
                inventory = inventory_from_dict(body.get("inventory", {}))
            except InventoryError as exc:
                return MsgType.SCAN_REJECT, scan_reject_body(f"bad-inventory: {exc}"), True
            hold = self.reserve_scan_slot(client_id, time.monotonic())
            if hold is None:
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_BUSY), True
            if hold > 0:
                time.sleep(hold)
            token = self.enqueue_job(inventory, client_id)
            if token is None:
                return MsgType.SCAN_REJECT, scan_reject_body(REJECT_BUSY), True
            return MsgType.SCAN_ACCEPT, scan_accept_body(token, client_id), True
        if opened_type is MsgType.RESULT_REQUEST:
            token = body.get("token", "")
            msg_type, reply = self.fetch_result(str(token), client_id)
            return msg_type, reply, msg_type is MsgType.SCAN_REJECT
        return MsgType.PROTOCOL_ERROR, protocol_error_body("unexpected-type"), True

    def handle_connection(self, rfile, wfile, source_ip: str) -> None:
        """Serve one connection: read frames until EOF, drop, or close.

        Unattributable problems (garbage frames, unknown ids, bad tags,
        a read that fails or times out) drop the connection without a
        reply; everything after a valid tag gets an explicit sealed
        answer. The client's lock is held to open the request and again
        to seal the answer, never across a long-poll or a scan's hold.
        """
        while True:
            try:
                frame = read_frame(rfile)
            except (FrameError, OSError) as exc:
                log.info("dropping connection from %s: %s", source_ip, exc)
                return
            if frame is None:
                return
            try:
                envelope = decode_frame(frame)
            except FrameError as exc:
                log.info("dropping undecodable frame from %s: %s", source_ip, exc)
                return
            client_id = envelope.client_id_a
            cred = self.credentials.get(client_id)
            if cred is None:
                log.info("dropping frame for unknown client %r from %s",
                         client_id, source_ip)
                return
            lock = self._client_locks[client_id]
            reply = None
            with lock:
                now = time.time()
                try:
                    opened = open_message(envelope, cred, now)
                except TagInvalidError as exc:
                    # Anyone can send a bad tag; not attributable, no reply.
                    log.info("dropping %s frame from %s: %s",
                             client_id, source_ip, exc.code)
                    return
                except MalformedPayloadError as exc:
                    reply = (MsgType.PROTOCOL_ERROR, protocol_error_body(exc.code), True)
                except (ImpersonationError, StaleTimestampError, ReplayError) as exc:
                    log.warning("protocol violation from %s (%s): %s",
                                client_id, source_ip, exc.code)
                    self.apply_rate_limit(client_id, True, now)
                    reply = (MsgType.PROTOCOL_ERROR, protocol_error_body(exc.code), True)
                else:
                    if self.apply_rate_limit(client_id, False, now):
                        reply = (MsgType.PROTOCOL_ERROR, protocol_error_body("blocked"), True)
            if reply is None:
                reply = self._dispatch(opened.msg_type, opened.body, client_id, source_ip)
            reply_type, reply_body, close_after = reply
            delivering = reply_type is MsgType.RESULT_RESPONSE
            token = str(opened.body.get("token", "")) if delivering else ""
            with lock:
                try:
                    response = self._seal_response(cred, reply_type, reply_body)
                except FrameError:
                    # Only a report can outgrow a frame.
                    log.warning("report %s exceeds the frame cap; dropped", token)
                    self._forget(token)
                    delivering, close_after = False, True
                    response = self._seal_response(
                        cred, MsgType.SCAN_REJECT,
                        scan_reject_body(REJECT_REPORT_TOO_LARGE))
            try:
                wfile.write(response)
                wfile.flush()
            except OSError:
                return
            if delivering:
                self._forget(token)
            if close_after:
                return


class _ConnectionHandler(socketserver.StreamRequestHandler):
    timeout = READ_TIMEOUT_S

    def handle(self) -> None:
        self.server.app.handle_connection(self.rfile, self.wfile,
                                          self.client_address[0])


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, app: VulnServer) -> None:
        super().__init__(address, _ConnectionHandler)
        self.app = app


def make_tcp_server(server: VulnServer, host: str,
                    port: int | None = None) -> _ThreadingServer:
    """Bind the listener; port=0 asks the kernel for an ephemeral port
    (the bound address is on .server_address). Callers own shutdown."""
    bind_port = server.config.port if port is None else port
    return _ThreadingServer((host, bind_port), server)


def serve_forever(server: VulnServer, host: str = "0.0.0.0") -> None:
    """Run the TCP listener until interrupted."""
    server.start_workers()
    with make_tcp_server(server, host) as tcp:
        log.info("listening on %s:%d", host, tcp.server_address[1])
        try:
            tcp.serve_forever()
        finally:
            server.stop_workers()
