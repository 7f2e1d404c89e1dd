"""Framed, AES-GCM-sealed message protocol between scan clients and the
scan server.

Every message travels as one frame:

    u32 length | u8 version | u8 msg_type | u16 id-length | client_id_a
    | 16-byte nonce | ciphertext | 16-byte tag

(integers big-endian; length counts everything after the length field).
The cleartext client_id_a is only a key-lookup handle; it is bound into
the GCM associated data together with version and msg_type, so any
header tampering invalidates the tag. The sealed payload is JSON
{"id_b", "sn", "ts", "body"} and is checked in a fixed order: tag,
id_b = client_id_a (impersonation), |now-ts| <= delta (freshness),
sn > last seen (replay). Each failure is a distinct error so callers
can apply per-class blocking policy.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import logging
import os
import struct
import time
from dataclasses import dataclass, field
from enum import IntEnum

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

log = logging.getLogger(__name__)

PROTOCOL_VERSION = 2
KEY_BYTES = 16
SALT_BYTES = 16
NONCE_BYTES = 16
TAG_BYTES = 16
KDF_ITERATIONS = 100
# Freshness window for message timestamps, in seconds; both ends use it.
DEFAULT_DELTA_T = 60.0
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">BBH")


class MsgType(IntEnum):
    SCAN_REQUEST = 1
    SCAN_ACCEPT = 2
    SCAN_REJECT = 3
    RESULT_REQUEST = 4
    RESULT_NOT_READY = 5
    RESULT_RESPONSE = 6
    PROTOCOL_ERROR = 7


class FrameError(Exception):
    """Malformed or oversized frame; the connection should be dropped."""


class ProtocolViolation(Exception):
    """Base for authenticated-message rejections; .code names the class."""

    code = "protocol-violation"


class TagInvalidError(ProtocolViolation):
    code = "tag-invalid"


class MalformedPayloadError(ProtocolViolation):
    code = "malformed-payload"


class ImpersonationError(ProtocolViolation):
    code = "impersonation"


class StaleTimestampError(ProtocolViolation):
    code = "stale-timestamp"


class ReplayError(ProtocolViolation):
    code = "replay"


def derive_client_key(secret: bytes, salt: bytes,
                      iterations: int = KDF_ITERATIONS) -> bytes:
    """Derive the 128-bit message key from a shared secret and salt.

    Chained keyed hash: m0 = secret||salt, m_{i+1} = HMAC-SHA256(secret,
    m_i), applied `iterations` times; the key is the first 16 bytes of
    the final digest. This construction is a protocol constant: both
    ends must derive identical keys from identical credentials.
    """
    if not secret:
        raise ValueError("secret must be non-empty")
    if len(salt) != SALT_BYTES:
        raise ValueError(f"salt must be exactly {SALT_BYTES} bytes, got {len(salt)}")
    digest = secret + salt
    for _ in range(iterations):
        digest = hmac.new(secret, digest, hashlib.sha256).digest()
    return digest[:KEY_BYTES]


@dataclass
class BlockState:
    """Exponential-blocking bookkeeping for one client."""

    violations: int = 0
    blocked_until: float = 0.0


@dataclass
class ClientCredential:
    """Per-client keying material and anti-replay state.

    last_sn tracks the highest sequence number accepted FROM the peer;
    send_sn feeds sequence numbers for messages sent TO the peer. The
    two directions never share a counter. Mutations must be serialized
    per client by the caller.

    Send sequence numbers follow the nanosecond clock, so they keep
    increasing across restarts of the sender and across separate
    processes sharing one credential; a peer that opened messages from
    an earlier run accepts the next one.
    """

    client_id: str
    salt: bytes
    derived_key: bytes
    last_sn: int = 0
    send_sn: int = 0
    block_state: BlockState = field(default_factory=BlockState)

    @classmethod
    def from_secret(cls, client_id: str, secret: bytes | str, salt: bytes) -> "ClientCredential":
        if isinstance(secret, str):
            secret = secret.encode("utf-8")
        return cls(client_id=client_id, salt=salt,
                   derived_key=derive_client_key(secret, salt))

    def next_send_sn(self) -> int:
        """Strictly increasing, and never below the nanosecond clock."""
        self.send_sn = max(time.time_ns(), self.send_sn + 1)
        return self.send_sn


@dataclass(frozen=True)
class Envelope:
    """One framed message as it appears on the wire."""

    version: int
    msg_type: int
    client_id_a: str
    nonce: bytes
    ciphertext: bytes
    tag: bytes


@dataclass(frozen=True)
class OpenedMessage:
    msg_type: MsgType
    body: dict
    sn: int
    ts: int


def _aad(version: int, msg_type: int, client_id: bytes) -> bytes:
    return _HEADER.pack(version, msg_type, len(client_id)) + client_id


def encode_frame(env: Envelope) -> bytes:
    """Serialize an envelope to its full wire frame (length included)."""
    client_id = env.client_id_a.encode("utf-8")
    if len(client_id) > 0xFFFF:
        raise FrameError("client id too long")
    inner = (_HEADER.pack(env.version, env.msg_type, len(client_id))
             + client_id + env.nonce + env.ciphertext + env.tag)
    if len(inner) > MAX_FRAME_BYTES:
        raise FrameError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return struct.pack(">I", len(inner)) + inner


def decode_frame(frame: bytes) -> Envelope:
    """Parse a full wire frame back into an envelope.

    Raises FrameError on any structural problem; callers treat that as
    an unattributable garbage connection.
    """
    if len(frame) < 4:
        raise FrameError("truncated length prefix")
    (length,) = struct.unpack(">I", frame[:4])
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared length {length} exceeds cap")
    inner = frame[4:]
    if len(inner) != length:
        raise FrameError(f"length mismatch: declared {length}, got {len(inner)}")
    if len(inner) < _HEADER.size:
        raise FrameError("truncated header")
    version, msg_type, id_len = _HEADER.unpack(inner[:_HEADER.size])
    if version != PROTOCOL_VERSION:
        raise FrameError(f"unsupported protocol version {version}")
    try:
        MsgType(msg_type)
    except ValueError:
        raise FrameError(f"unknown message type {msg_type}") from None
    offset = _HEADER.size
    if len(inner) < offset + id_len + NONCE_BYTES + TAG_BYTES:
        raise FrameError("frame too short for declared id length")
    try:
        client_id = inner[offset:offset + id_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"client id is not UTF-8: {exc}") from None
    offset += id_len
    nonce = inner[offset:offset + NONCE_BYTES]
    offset += NONCE_BYTES
    ciphertext = inner[offset:-TAG_BYTES]
    tag = inner[-TAG_BYTES:]
    return Envelope(version=version, msg_type=msg_type, client_id_a=client_id,
                    nonce=nonce, ciphertext=ciphertext, tag=tag)


def read_frame(stream) -> bytes | None:
    """Read one full frame from a blocking byte stream.

    Returns None on clean EOF before any byte; raises FrameError on a
    mid-frame EOF or an oversized declaration.
    """
    prefix = _read_exact(stream, 4, allow_eof=True)
    if prefix is None:
        return None
    (length,) = struct.unpack(">I", prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared length {length} exceeds cap")
    inner = _read_exact(stream, length)
    return prefix + inner


def _read_exact(stream, n: int, allow_eof: bool = False) -> bytes | None:
    """Read exactly n bytes. EOF before the first byte returns None when
    allowed; EOF anywhere else raises FrameError."""
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            if allow_eof and not buf:
                return None
            raise FrameError(f"EOF after {len(buf)} of {n} bytes")
        buf += chunk
    return buf


def seal_message(cred: ClientCredential, msg_type: MsgType, body: dict,
                 sn: int, ts: int, *, client_id_b: str | None = None) -> Envelope:
    """Encrypt one message under the credential's key.

    client_id_b defaults to the credential's own id; overriding it forges
    the inner identity and exists so tests can exercise the
    impersonation check.
    """
    payload = json.dumps({
        "id_b": client_id_b if client_id_b is not None else cred.client_id,
        "sn": sn,
        "ts": ts,
        "body": body,
    }, separators=(",", ":")).encode("utf-8")
    nonce = os.urandom(NONCE_BYTES)
    aad = _aad(PROTOCOL_VERSION, int(msg_type), cred.client_id.encode("utf-8"))
    sealed = AESGCM(cred.derived_key).encrypt(nonce, payload, aad)
    return Envelope(
        version=PROTOCOL_VERSION,
        msg_type=int(msg_type),
        client_id_a=cred.client_id,
        nonce=nonce,
        ciphertext=sealed[:-TAG_BYTES],
        tag=sealed[-TAG_BYTES:],
    )


def open_message(env: Envelope, cred: ClientCredential, now: float) -> OpenedMessage:
    """Authenticate and decode one envelope.

    Check order is fixed: tag, impersonation, freshness, replay. On
    success the credential's last_sn advances, so replaying the same
    envelope afterwards fails.
    """
    aad = _aad(env.version, env.msg_type, env.client_id_a.encode("utf-8"))
    try:
        payload = AESGCM(cred.derived_key).decrypt(
            env.nonce, env.ciphertext + env.tag, aad)
    except InvalidTag:
        raise TagInvalidError("authentication tag verification failed") from None
    try:
        doc = json.loads(payload.decode("utf-8"))
        id_b = doc["id_b"]
        sn = doc["sn"]
        ts = doc["ts"]
        body = doc["body"]
        if (not isinstance(id_b, str) or not isinstance(sn, int)
                or isinstance(sn, bool) or not isinstance(ts, (int, float))
                or not isinstance(body, dict)):
            raise MalformedPayloadError("payload field of wrong type")
        if ts != ts:  # json.loads accepts NaN, which compares with no clock value
            raise MalformedPayloadError("timestamp is NaN")
        ts = float(ts)  # OverflowError for an integer past the float range
    except MalformedPayloadError:
        raise
    except (ValueError, KeyError, TypeError, UnicodeDecodeError, OverflowError) as exc:
        raise MalformedPayloadError(f"undecodable payload: {exc}") from None
    if id_b != env.client_id_a:
        raise ImpersonationError(
            f"inner identity {id_b!r} does not match header {env.client_id_a!r}")
    if abs(now - ts) > DEFAULT_DELTA_T:
        raise StaleTimestampError(
            f"timestamp {ts} outside [{now - DEFAULT_DELTA_T}, {now + DEFAULT_DELTA_T}]")
    if sn <= cred.last_sn:
        raise ReplayError(f"sequence number {sn} not above {cred.last_sn}")
    cred.last_sn = sn
    return OpenedMessage(msg_type=MsgType(env.msg_type), body=body, sn=sn, ts=int(ts))


def client_check_echo(sent_id: str, accept_body: dict) -> bool:
    """True when the server echoed back exactly the id the client sent.

    A mismatch means some middlebox rewrote the cleartext header in
    transit; the client must abort the session.
    """
    return accept_body.get("echo_id_a") == sent_id


# -- body constructors (the seven wire shapes) -----------------------------

def scan_request_body(inventory_doc: dict) -> dict:
    return {"inventory": inventory_doc}


def scan_accept_body(token: str, echo_id_a: str) -> dict:
    return {"token": token, "echo_id_a": echo_id_a}


def scan_reject_body(reason: str) -> dict:
    return {"reason": reason}


def result_request_body(token: str) -> dict:
    return {"token": token}


def result_not_ready_body() -> dict:
    return {}


def result_response_body(report_doc: dict) -> dict:
    return {"report": report_doc}


def protocol_error_body(code: str) -> dict:
    return {"code": code}
