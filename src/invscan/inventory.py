"""Possibly-vulnerable component (PVC) records and inventory files.

An inventory is a JSON document listing the components installed on one
target: operating systems, applications, and hardware. Only the name is
required; everything else is optional metadata that the generation
conventions can exploit. The schema deliberately has no personally
identifiable fields.
"""

from __future__ import annotations

import enum
import hashlib
import json
import logging
import operator
import re
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from pathlib import Path

from .cpe import normalize_component

log = logging.getLogger(__name__)


class PvcKind(enum.Enum):
    OPERATING_SYSTEM = "os"
    APPLICATION = "app"
    HARDWARE = "hw"


class InventoryError(ValueError):
    """Raised for unreadable or invalid inventory documents."""


@dataclass(frozen=True)
class Pvc:
    """One possibly-vulnerable component."""

    kind: PvcKind
    name: str
    vendor: str | None = None
    version: str | None = None
    edition: str | None = None
    update: str | None = None
    language: str | None = None
    publisher: str | None = None
    display_version: str | None = None
    service_pack: str | None = None
    major: int | None = None
    minor: int | None = None
    build: int | None = None
    revision: int | None = None

    def __post_init__(self) -> None:
        # A name that normalizes to nothing, such as '  ' or '::',
        # leaves candidate generation without a vendor or product.
        if normalize_component(self.name) is None:
            raise InventoryError(f"pvc name {self.name!r} has no usable characters")
        for part in ("major", "minor", "build", "revision"):
            value = getattr(self, part)
            if value is not None and (type(value) is not int or value < 0):  # bool is an int
                raise InventoryError(f"pvc field {part} must be a non-negative integer, got {value!r}")
        # NUL can't appear in any real inventory value, and keeping it out
        # lets the canonical serialization reserve a NUL-prefixed sentinel
        # for absent fields without risking collisions. A lone surrogate
        # (JSON "\ud800") has no UTF-8 form, so it could not be fingerprinted.
        for field_name in ("name",) + _STRING_FIELDS:
            value = getattr(self, field_name)
            if value is None:
                continue
            if "\x00" in value:
                raise InventoryError(f"pvc field {field_name} contains a NUL character")
            if _SURROGATE.search(value):
                raise InventoryError(f"pvc field {field_name} contains a lone surrogate")


@dataclass(frozen=True)
class Inventory:
    target_label: str
    pvcs: tuple[Pvc, ...]


_SURROGATE = re.compile("[\ud800-\udfff]")
_STRING_FIELDS = ("vendor", "version", "edition", "update", "language",
                  "publisher", "display_version", "service_pack")
_INT_FIELDS = ("major", "minor", "build", "revision")
_KNOWN_KEYS = {"kind", "name", *_STRING_FIELDS, *_INT_FIELDS}


def pvc_from_dict(record: dict, where: str = "pvc") -> Pvc:
    if not isinstance(record, dict):
        raise InventoryError(f"{where}: expected an object, got {type(record).__name__}")
    unknown = set(record) - _KNOWN_KEYS
    if unknown:
        log.warning("%s: ignoring unknown fields %s", where, sorted(unknown))
    try:
        kind = PvcKind(record.get("kind"))
    except ValueError:
        raise InventoryError(f"{where}: unknown kind {record.get('kind')!r} "
                             f"(expected one of {[k.value for k in PvcKind]})") from None
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise InventoryError(f"{where}: missing required non-empty 'name'")
    kwargs: dict = {}
    for key in _STRING_FIELDS:
        if record.get(key) is not None:
            if not isinstance(record[key], str):
                raise InventoryError(f"{where}: field {key} must be a string")
            kwargs[key] = record[key]
    for key in _INT_FIELDS:
        if record.get(key) is not None:
            kwargs[key] = record[key]
    try:
        return Pvc(kind=kind, name=name, **kwargs)
    except InventoryError as exc:
        raise InventoryError(f"{where}: {exc}") from None


def pvc_to_dict(pvc: Pvc) -> dict:
    """Serialize a Pvc as its inventory-record form, omitting absent fields."""
    out: dict = {"kind": pvc.kind.value, "name": pvc.name}
    for field in (*_STRING_FIELDS, *_INT_FIELDS):
        value = getattr(pvc, field)
        if value is not None:
            out[field] = value
    return out


def inventory_from_dict(doc: dict, where: str = "inventory") -> Inventory:
    if not isinstance(doc, dict):
        raise InventoryError(f"{where}: expected a JSON object at top level")
    label = doc.get("target_label", "")
    if not isinstance(label, str):
        raise InventoryError(f"{where}: target_label must be a string")
    records = doc.get("pvcs")
    if not isinstance(records, list):
        raise InventoryError(f"{where}: missing 'pvcs' list")
    pvcs = tuple(pvc_from_dict(rec, where=f"{where}: pvcs[{i}]")
                 for i, rec in enumerate(records))
    return Inventory(target_label=label, pvcs=pvcs)


def inventory_to_dict(inv: Inventory) -> dict:
    return {"target_label": inv.target_label,
            "pvcs": [pvc_to_dict(p) for p in inv.pvcs]}


def load_inventory(path: str | Path) -> Inventory:
    """Load an inventory JSON file, preserving record order."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InventoryError(f"cannot read inventory {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InventoryError(f"inventory {path} is not valid JSON: {exc}") from exc
    return inventory_from_dict(doc, where=str(path))


_ABSENT = "\x00absent"
_ABSENT_JSON = encode_basestring(_ABSENT)
_CANONICAL_VALUES = operator.attrgetter(*(f.name for f in fields(Pvc)))
_CANONICAL_TEMPLATE = "{" + ",".join(f"{encode_basestring(f.name.lower())}:%s"
                                     for f in fields(Pvc)) + "}"


def canonical_pvc_bytes(pvc: Pvc) -> bytes:
    """Canonical serialization: lowercase keys, every field in declared
    order, absent values as a fixed sentinel, UTF-8. Injective on the
    field set, so it is safe as a cache-key preimage. The bytes are those
    of the compact JSON object (ensure_ascii off), each string written
    with the JSON encoder's own escaping; the kind is its string value."""
    values = tuple([_ABSENT_JSON if value is None
                    else encode_basestring(value) if type(value) is str
                    else str(value) if type(value) is int
                    else encode_basestring(value.value)
                    for value in _CANONICAL_VALUES(pvc)])
    return (_CANONICAL_TEMPLATE % values).encode("utf-8")


def fingerprint_pvc(pvc: Pvc) -> bytes:
    """256-bit digest of the canonical serialization; the scan-cache key."""
    return hashlib.sha256(canonical_pvc_bytes(pvc)).digest()
