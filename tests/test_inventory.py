"""Inventory parsing, PVC validation, canonical serialization, fingerprints."""

import json

import pytest
from hypothesis import given, strategies as st

from invscan.inventory import (Inventory, InventoryError, Pvc, PvcKind,
                               canonical_pvc_bytes, fingerprint_pvc,
                               inventory_from_dict, inventory_to_dict,
                               load_inventory, pvc_from_dict, pvc_to_dict)

# frozen digests of the documented canonical form (keys in declared field
# order, absent fields as a fixed sentinel, compact UTF-8 JSON, SHA-256),
# computed once by an independent script
GOLDEN_OS = "04ba1aa514827fa0edfce9f30d1a18577c9f03ce1db12769df72d9973d34f683"
GOLDEN_APP = "284bb424a6b0957aa33d302871bd6133f27de3e3531242b86d70f2ef80beb82b"
GOLDEN_HW = "a66ad64218e5d489fe5c999282c3beddd5fb67cc2d3e3cfe826547b5c1a82aa4"


def test_fingerprint_golden_vectors():
    os_pvc = Pvc(kind=PvcKind.OPERATING_SYSTEM, name="windows xp",
                 service_pack="service pack 3", major=5, minor=1, build=2600)
    app_pvc = Pvc(kind=PvcKind.APPLICATION, name="Adobe Reader", display_version="9.0")
    hw_pvc = Pvc(kind=PvcKind.HARDWARE, name="acme router")
    assert fingerprint_pvc(os_pvc).hex() == GOLDEN_OS
    assert fingerprint_pvc(app_pvc).hex() == GOLDEN_APP
    assert fingerprint_pvc(hw_pvc).hex() == GOLDEN_HW


def test_pvc_from_dict_minimal():
    pvc = pvc_from_dict({"kind": "app", "name": "notepad"})
    assert pvc.kind is PvcKind.APPLICATION
    assert pvc.name == "notepad"
    assert pvc.vendor is None


def test_pvc_from_dict_full():
    pvc = pvc_from_dict({
        "kind": "os", "name": "windows xp", "vendor": "Microsoft",
        "service_pack": "service pack 3",
        "major": 5, "minor": 1, "build": 2600, "revision": 0,
    })
    assert pvc.major == 5 and pvc.minor == 1 and pvc.build == 2600
    assert pvc.revision == 0
    assert pvc.service_pack == "service pack 3"


def test_pvc_from_dict_rejects_missing_name():
    with pytest.raises(InventoryError) as err:
        pvc_from_dict({"kind": "app"}, where="pvcs[3]")
    assert "pvcs[3]" in str(err.value)


def test_pvc_from_dict_rejects_unknown_kind():
    with pytest.raises(InventoryError):
        pvc_from_dict({"kind": "firmware", "name": "x"})


def test_pvc_from_dict_rejects_negative_version_part():
    with pytest.raises(InventoryError):
        pvc_from_dict({"kind": "os", "name": "x", "major": -1})


def test_pvc_from_dict_rejects_name_that_normalizes_to_nothing():
    for record in ({"kind": "app", "name": "   "}, {"kind": "os", "name": "\t"},
                   {"kind": "hw", "name": "::"}):
        with pytest.raises(InventoryError):
            pvc_from_dict(record)


def test_pvc_from_dict_rejects_boolean_version_part():
    # JSON true is a Python bool, which is an int.
    for part in ("major", "minor", "build", "revision"):
        with pytest.raises(InventoryError):
            pvc_from_dict({"kind": "os", "name": "x", part: True})


@pytest.mark.parametrize("bad", [{"name": "  "}, {"name": "x", "major": True},
                                 {"name": "x", "major": -1}])
def test_component_errors_name_their_record(bad):
    doc = {"pvcs": [{"kind": "os", "name": "ok"}, {"kind": "os", **bad}]}
    with pytest.raises(InventoryError, match=r"^inventory: pvcs\[1\]: pvc "):
        inventory_from_dict(doc)


def test_pvc_from_dict_ignores_unknown_fields(caplog):
    with caplog.at_level("WARNING"):
        pvc = pvc_from_dict({"kind": "app", "name": "x", "install_path": "C:\\x"})
    assert pvc.name == "x"
    assert any("install_path" in message for message in caplog.messages)


def test_pvc_round_trip_omits_absent_fields():
    pvc = Pvc(kind=PvcKind.APPLICATION, name="vlc", display_version="3.0.1")
    doc = pvc_to_dict(pvc)
    assert "vendor" not in doc
    assert pvc_from_dict(doc) == pvc


def test_inventory_round_trip_preserves_order():
    doc = {
        "target_label": "host-7",
        "pvcs": [
            {"kind": "os", "name": "windows 10"},
            {"kind": "app", "name": "vlc media player"},
            {"kind": "hw", "name": "acme router"},
        ],
    }
    inventory = inventory_from_dict(doc)
    assert inventory.target_label == "host-7"
    assert [p.name for p in inventory.pvcs] == ["windows 10", "vlc media player",
                                                "acme router"]
    assert inventory_to_dict(inventory) == doc


def test_load_inventory(tmp_path):
    path = tmp_path / "inv.json"
    path.write_text(json.dumps({"target_label": "t", "pvcs": [
        {"kind": "app", "name": "a"}]}), encoding="utf-8")
    inventory = load_inventory(path)
    assert inventory.pvcs[0].name == "a"


def test_load_inventory_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(InventoryError):
        load_inventory(path)


_text = st.text(alphabet="abcdefghij ._-", min_size=1, max_size=12)
_opt_text = st.none() | _text
_opt_int = st.none() | st.integers(min_value=0, max_value=99999)

pvc_strategy = st.builds(
    Pvc,
    kind=st.sampled_from(list(PvcKind)),
    name=_text.filter(str.strip),
    vendor=_opt_text,
    version=_opt_text,
    edition=_opt_text,
    update=_opt_text,
    language=_opt_text,
    publisher=_opt_text,
    display_version=_opt_text,
    service_pack=_opt_text,
    major=_opt_int,
    minor=_opt_int,
    build=_opt_int,
    revision=_opt_int,
)


@given(pvc_strategy, pvc_strategy)
def test_canonical_bytes_injective(a, b):
    if a != b:
        assert canonical_pvc_bytes(a) != canonical_pvc_bytes(b)
    else:
        assert canonical_pvc_bytes(a) == canonical_pvc_bytes(b)


@given(pvc_strategy)
def test_canonical_bytes_deterministic(pvc):
    assert canonical_pvc_bytes(pvc) == canonical_pvc_bytes(pvc)
    assert len(fingerprint_pvc(pvc)) == 32


_any_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=12)
_opt_any_text = st.none() | _any_text


@given(st.builds(
    Pvc, kind=st.sampled_from(list(PvcKind)),
    name=_any_text.filter(lambda name: "_".join(name.lower().split()).replace(":", "")),
    vendor=_opt_any_text, version=_opt_any_text, edition=_opt_any_text,
    update=_opt_any_text, language=_opt_any_text, publisher=_opt_any_text,
    display_version=_opt_any_text, service_pack=_opt_any_text, major=_opt_int,
    minor=_opt_int, build=_opt_int, revision=_opt_int))
def test_canonical_bytes_equal_the_json_encoder_form(pvc):
    """The field-by-field writer against the documented form, escaping
    of quotes, controls and non-ASCII text included."""
    doc = {"kind": pvc.kind.value}
    for key in ("name", "vendor", "version", "edition", "update", "language", "publisher",
                "display_version", "service_pack", "major", "minor", "build", "revision"):
        value = getattr(pvc, key)
        doc[key] = "\x00absent" if value is None else value
    expected = json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    assert canonical_pvc_bytes(pvc) == expected


def test_adversarial_near_collision_pairs():
    # absent vs present-but-similar values must fingerprint differently
    base = Pvc(kind=PvcKind.APPLICATION, name="x")
    tricky = [
        Pvc(kind=PvcKind.APPLICATION, name="x", vendor="null"),
        Pvc(kind=PvcKind.APPLICATION, name="x", vendor="absent"),
        Pvc(kind=PvcKind.APPLICATION, name="x", major=0),
        Pvc(kind=PvcKind.HARDWARE, name="x"),
        Pvc(kind=PvcKind.APPLICATION, name="x "),
    ]
    digests = {fingerprint_pvc(base)} | {fingerprint_pvc(p) for p in tricky}
    assert len(digests) == len(tricky) + 1


def test_nul_in_string_field_rejected():
    # the canonical form reserves a NUL-prefixed sentinel for absence
    with pytest.raises(InventoryError):
        Pvc(kind=PvcKind.APPLICATION, name="x", vendor="\x00absent")
    with pytest.raises(InventoryError):
        Pvc(kind=PvcKind.APPLICATION, name="a\x00b")


@pytest.mark.parametrize("field", ["name", "vendor", "publisher", "display_version"])
@pytest.mark.parametrize("text", ["\ud800", "x\udfff", "\udc00y"])
def test_lone_surrogate_in_string_field_rejected(field, text):
    # no UTF-8 form, so the component could not be fingerprinted
    with pytest.raises(InventoryError, match="lone surrogate"):
        Pvc(kind=PvcKind.APPLICATION, **{"name": "x", field: text})


def test_lone_surrogate_rejected_at_intake():
    doc = json.loads('{"target_label": "t", "pvcs": [{"kind": "app", "name": "a\\ud800"}]}')
    with pytest.raises(InventoryError, match="lone surrogate"):
        inventory_from_dict(doc)
    # a surrogate pair is one ordinary character
    pair = json.loads('{"target_label": "t", "pvcs": [{"kind": "app", "name": "a\\ud83d\\ude00"}]}')
    assert inventory_from_dict(pair).pvcs[0].name == "a\U0001f600"


@given(pvc_strategy)
def test_dict_round_trip_identity(pvc):
    assert pvc_from_dict(pvc_to_dict(pvc)) == pvc
