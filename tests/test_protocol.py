"""Key derivation, frame codec, sealing, and the message-rejection classes."""

import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invscan.protocol import (DEFAULT_DELTA_T, KDF_ITERATIONS, MAX_FRAME_BYTES,
                              NONCE_BYTES, PROTOCOL_VERSION, TAG_BYTES,
                              ClientCredential, Envelope, FrameError,
                              ImpersonationError, MalformedPayloadError,
                              MsgType, ProtocolViolation, ReplayError,
                              StaleTimestampError, TagInvalidError,
                              client_check_echo, decode_frame,
                              derive_client_key, encode_frame, open_message,
                              read_frame, scan_accept_body, seal_message)
from conftest import TEST_SALT, TEST_SECRET, client_credential, flip_bit

_ZERO_SALT = b"\x00" * 16

# Golden vectors computed once with an independent spelled-out reference
# of the chained keyed-hash construction, then frozen. Any drift in the
# derivation breaks interoperability with already-provisioned clients.
_KDF_GOLDENS = (
    (b"password", _ZERO_SALT, 100, "3bc147045bac339d200b402ad4166736"),
    (b"password", bytes(range(16)), 100, "2637fc8569e9f62fa602f7faac4faa50"),
    (b"another secret", _ZERO_SALT, 100, "fac8a248193ab5e856d9a5e6ed7e8dea"),
    (b"password", _ZERO_SALT, 1, "2e0822ce7ea9d904510d1a284d26a634"),
)


# -- key derivation ------------------------------------------------------------

@pytest.mark.parametrize("secret,salt,iterations,expected", _KDF_GOLDENS)
def test_kdf_golden_vectors(secret, salt, iterations, expected):
    assert derive_client_key(secret, salt, iterations).hex() == expected


def test_kdf_deterministic():
    a = derive_client_key(b"s3cr3t", TEST_SALT)
    b = derive_client_key(b"s3cr3t", TEST_SALT)
    assert a == b
    assert len(a) == 16


def test_kdf_salt_and_secret_sensitivity():
    base = derive_client_key(b"password", _ZERO_SALT)
    assert derive_client_key(b"password", bytes(range(16))) != base
    assert derive_client_key(b"passwore", _ZERO_SALT) != base
    assert derive_client_key(b"password", _ZERO_SALT, KDF_ITERATIONS - 1) != base


def test_kdf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        derive_client_key(b"", _ZERO_SALT)
    with pytest.raises(ValueError):
        derive_client_key(b"password", b"\x00" * 15)
    with pytest.raises(ValueError):
        derive_client_key(b"password", b"\x00" * 17)


# -- frame codec -----------------------------------------------------------------

def _sample_envelope(cred=None, body=None, sn=1, ts=1000) -> Envelope:
    cred = cred or client_credential()
    return seal_message(cred, MsgType.SCAN_REQUEST,
                        body if body is not None else {"k": "v"}, sn=sn, ts=ts)


def test_frame_round_trip():
    env = _sample_envelope()
    again = decode_frame(encode_frame(env))
    assert again == env


def test_frame_length_arithmetic():
    cred = client_credential("abc")
    body = {"payload": "x" * 37}
    env = seal_message(cred, MsgType.SCAN_REQUEST, body, sn=1, ts=0)
    plaintext_len = len(json.dumps(
        {"id_b": "abc", "sn": 1, "ts": 0, "body": body},
        separators=(",", ":")).encode("utf-8"))
    frame = encode_frame(env)
    # u32 length + (u8+u8+u16 header) + id + nonce + ciphertext + tag,
    # with GCM ciphertext exactly as long as the plaintext.
    assert len(env.ciphertext) == plaintext_len
    assert len(frame) == 4 + 4 + len("abc") + NONCE_BYTES + plaintext_len + TAG_BYTES


def test_decode_rejects_structural_damage():
    frame = encode_frame(_sample_envelope())
    with pytest.raises(FrameError):
        decode_frame(frame[:3])
    with pytest.raises(FrameError):
        decode_frame(frame + b"x")
    with pytest.raises(FrameError):
        decode_frame(frame[:-1])
    with pytest.raises(FrameError):
        decode_frame(frame[:4])


def test_decode_rejects_wrong_version_and_type():
    env = _sample_envelope()
    bad_version = dataclasses.replace(env, version=PROTOCOL_VERSION + 1)
    with pytest.raises(FrameError):
        decode_frame(encode_frame(bad_version))
    bad_type = dataclasses.replace(env, msg_type=0)
    with pytest.raises(FrameError):
        decode_frame(encode_frame(bad_type))
    bad_type = dataclasses.replace(env, msg_type=200)
    with pytest.raises(FrameError):
        decode_frame(encode_frame(bad_type))


def test_decode_rejects_oversize_declaration():
    import struct
    huge = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(FrameError):
        decode_frame(huge + b"\x00" * 10)


def test_decode_rejects_non_utf8_id():
    env = _sample_envelope(client_credential("ab"))
    frame = bytearray(encode_frame(env))
    frame[8] = 0xFF  # first id byte, right after length prefix + header
    with pytest.raises(FrameError):
        decode_frame(bytes(frame))


def test_read_frame_stream_semantics():
    first = encode_frame(_sample_envelope(sn=1))
    second = encode_frame(_sample_envelope(sn=2))
    stream = io.BytesIO(first + second)
    assert read_frame(stream) == first
    assert read_frame(stream) == second
    assert read_frame(stream) is None  # clean EOF between frames
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(first[: len(first) // 2]))  # mid-frame EOF


# -- seal / open ------------------------------------------------------------------

def test_seal_open_round_trip():
    sender = client_credential()
    receiver = client_credential()
    body = {"inventory": {"target_label": "host", "pvcs": []}}
    env = seal_message(sender, MsgType.SCAN_REQUEST, body, sn=7, ts=1000)
    opened = open_message(env, receiver, now=1000.0)
    assert opened.msg_type is MsgType.SCAN_REQUEST
    assert opened.body == body
    assert opened.sn == 7
    assert opened.ts == 1000
    assert receiver.last_sn == 7


def test_two_seals_never_share_nonce_or_ciphertext():
    cred = client_credential()
    a = seal_message(cred, MsgType.SCAN_REQUEST, {"k": "v"}, sn=1, ts=0)
    b = seal_message(cred, MsgType.SCAN_REQUEST, {"k": "v"}, sn=1, ts=0)
    assert a.nonce != b.nonce
    assert a.ciphertext != b.ciphertext


def test_body_never_on_wire_in_clear():
    cred = client_credential()
    marker = "tell-tale-inventory-entry"
    env = seal_message(cred, MsgType.SCAN_REQUEST, {"name": marker}, sn=1, ts=0)
    assert marker.encode("utf-8") not in encode_frame(env)


_BODY_VALUES = st.one_of(st.text(max_size=16), st.integers(), st.booleans(),
                         st.none())


@settings(max_examples=60)
@given(body=st.dictionaries(st.text(max_size=8), _BODY_VALUES, max_size=6),
       sn=st.integers(min_value=1, max_value=2**62),
       ts=st.integers(min_value=0, max_value=2**31))
def test_seal_open_round_trip_property(body, sn, ts):
    sender = client_credential()
    receiver = client_credential()
    env = seal_message(sender, MsgType.RESULT_REQUEST, body, sn=sn, ts=ts)
    opened = open_message(env, receiver, now=float(ts))
    assert opened.body == body
    assert opened.sn == sn


# -- rejection classes -------------------------------------------------------------

def test_replayed_envelope_rejected():
    receiver = client_credential()
    env = _sample_envelope(sn=5)
    open_message(env, receiver, now=1000.0)
    with pytest.raises(ReplayError):
        open_message(env, receiver, now=1000.0)
    assert receiver.last_sn == 5


def test_lower_sequence_number_rejected():
    receiver = client_credential()
    open_message(_sample_envelope(sn=10), receiver, now=1000.0)
    with pytest.raises(ReplayError):
        open_message(_sample_envelope(sn=9), receiver, now=1000.0)
    assert receiver.last_sn == 10


def test_freshness_window_is_closed_interval():
    delta = DEFAULT_DELTA_T
    for ts in (1000 - delta, 1000, 1000 + delta):
        receiver = client_credential()
        opened = open_message(_sample_envelope(sn=1, ts=int(ts)), receiver,
                              now=1000.0)
        assert opened.ts == int(ts)
    for ts in (int(1000 - delta - 1), int(1000 + delta + 1), float("inf"), float("-inf")):
        receiver = client_credential()
        with pytest.raises(StaleTimestampError):
            open_message(_sample_envelope(sn=1, ts=ts), receiver, now=1000.0)
        assert receiver.last_sn == 0  # failures never advance the counter


def test_inner_identity_forgery_rejected_as_impersonation():
    sender = client_credential("alice")
    receiver = client_credential("alice")
    env = seal_message(sender, MsgType.SCAN_REQUEST, {}, sn=1, ts=1000,
                       client_id_b="mallory")
    with pytest.raises(ImpersonationError):
        open_message(env, receiver, now=1000.0)
    assert receiver.last_sn == 0


def test_header_rewrite_to_other_client_fails_tag():
    # A rewritten header id makes the receiver look up the other client's
    # credential; its key differs, so the tag check fires first.
    alice = client_credential("alice")
    bob = ClientCredential.from_secret("bob", "a different secret", TEST_SALT)
    env = seal_message(alice, MsgType.SCAN_REQUEST, {}, sn=1, ts=1000)
    rewritten = dataclasses.replace(env, client_id_a="bob")
    with pytest.raises(TagInvalidError):
        open_message(rewritten, bob, now=1000.0)


def test_header_rewrite_detected_even_with_identical_keys():
    # Same secret and salt on both ids isolates the header's AAD binding:
    # even a key-sharing peer cannot relabel a sealed message.
    alice = client_credential("alice")
    bob = ClientCredential.from_secret("bob", TEST_SECRET, TEST_SALT)
    env = seal_message(alice, MsgType.SCAN_REQUEST, {}, sn=1, ts=1000)
    rewritten = dataclasses.replace(env, client_id_a="bob")
    with pytest.raises(TagInvalidError):
        open_message(rewritten, bob, now=1000.0)


def test_flipped_tag_bit_rejected():
    receiver = client_credential()
    env = _sample_envelope(sn=1, ts=1000)
    damaged = dataclasses.replace(env, tag=flip_bit(env.tag, 0))
    with pytest.raises(TagInvalidError):
        open_message(damaged, receiver, now=1000.0)


def test_flipped_ciphertext_bit_rejected():
    receiver = client_credential()
    env = _sample_envelope(sn=1, ts=1000)
    damaged = dataclasses.replace(env, ciphertext=flip_bit(env.ciphertext, 13))
    with pytest.raises(TagInvalidError):
        open_message(damaged, receiver, now=1000.0)


def test_flipped_nonce_bit_rejected():
    receiver = client_credential()
    env = _sample_envelope(sn=1, ts=1000)
    damaged = dataclasses.replace(env, nonce=flip_bit(env.nonce, 42))
    with pytest.raises(TagInvalidError):
        open_message(damaged, receiver, now=1000.0)


def test_changed_msg_type_rejected_via_aad():
    receiver = client_credential()
    env = _sample_envelope(sn=1, ts=1000)
    relabeled = dataclasses.replace(env, msg_type=int(MsgType.RESULT_REQUEST))
    with pytest.raises(TagInvalidError):
        open_message(relabeled, receiver, now=1000.0)


def test_rejection_classes_are_distinct():
    classes = (TagInvalidError, MalformedPayloadError, ImpersonationError,
               StaleTimestampError, ReplayError)
    codes = {cls.code for cls in classes}
    assert len(codes) == len(classes)
    for cls in classes:
        assert issubclass(cls, ProtocolViolation)


def test_valid_payload_shape_is_enforced():
    # A tag-valid frame whose payload is not the expected JSON shape is a
    # malformed-payload violation, not a crash.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    import os
    import struct
    receiver = client_credential()
    nonce = os.urandom(NONCE_BYTES)
    aad = struct.pack(">BBH", PROTOCOL_VERSION, int(MsgType.SCAN_REQUEST),
                      len(receiver.client_id)) + receiver.client_id.encode()
    # The last two carry a timestamp no clock value compares with: NaN,
    # and an integer past the float range.
    for payload in (b"not json", b"[1,2,3]", b'{"id_b":"vsc-1","sn":"x","ts":0,"body":{}}',
                    b'{"id_b":"vsc-1","sn":5,"ts":NaN,"body":{}}',
                    b'{"id_b":"vsc-1","sn":5,"ts":1%s,"body":{}}' % (b"0" * 400)):
        sealed = AESGCM(receiver.derived_key).encrypt(nonce, payload, aad)
        env = Envelope(version=PROTOCOL_VERSION,
                       msg_type=int(MsgType.SCAN_REQUEST),
                       client_id_a=receiver.client_id, nonce=nonce,
                       ciphertext=sealed[:-TAG_BYTES], tag=sealed[-TAG_BYTES:])
        with pytest.raises(MalformedPayloadError):
            open_message(env, receiver, now=0.0)
        assert receiver.last_sn == 0


# -- sequence numbers ---------------------------------------------------------------

@settings(max_examples=60)
@given(sns=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                    max_size=25))
def test_accepted_sequence_numbers_strictly_increase(sns):
    receiver = client_credential()
    accepted = []
    for sn in sns:
        try:
            opened = open_message(_sample_envelope(sn=sn, ts=1000), receiver,
                                  now=1000.0)
            accepted.append(opened.sn)
        except ReplayError:
            pass
    assert accepted == sorted(set(accepted))
    assert all(b > a for a, b in zip(accepted, accepted[1:]))
    expected = []
    high = 0
    for sn in sns:
        if sn > high:
            expected.append(sn)
            high = sn
    assert accepted == expected


def test_next_send_sn_strictly_increases():
    cred = client_credential()
    values = [cred.next_send_sn() for _ in range(50)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # A clock stuck in the past still cannot repeat a sequence number.
    cred.send_sn = 2**63
    assert cred.next_send_sn() == 2**63 + 1


def test_send_counter_is_separate_from_receive_counter():
    cred = client_credential()
    cred.last_sn = 2**63
    first = cred.next_send_sn()
    second = cred.next_send_sn()
    assert first < second < 2**63  # clock-based, not above the receive counter
    assert cred.send_sn == second
    assert cred.last_sn == 2**63


# -- MITM echo check -----------------------------------------------------------------

def test_client_check_echo():
    assert client_check_echo("vsc-1", scan_accept_body("tok", "vsc-1")) is True
    assert client_check_echo("vsc-1", scan_accept_body("tok", "vsc-2")) is False
    assert client_check_echo("vsc-1", {"token": "tok"}) is False


# -- bit-flip fuzz sample --------------------------------------------------------------

def test_single_bit_flips_never_accepted(rng):
    # The acceptance suite runs the full 10,000-iteration sweep; this is a
    # fast sample of the same property across every frame region.
    sender = client_credential()
    receiver = client_credential()
    env = seal_message(sender, MsgType.SCAN_REQUEST,
                       {"inventory": {"target_label": "t", "pvcs": []}},
                       sn=1, ts=1000)
    frame = encode_frame(env)
    for _ in range(400):
        damaged = flip_bit(frame, rng.randrange(len(frame) * 8))
        try:
            opened = open_message(decode_frame(damaged), receiver, now=1000.0)
        except (FrameError, ProtocolViolation):
            continue
        raise AssertionError(f"damaged frame accepted: {opened}")
    # The credential was never advanced by a failed open, so the pristine
    # frame still authenticates.
    assert open_message(decode_frame(frame), receiver, now=1000.0).sn == 1
