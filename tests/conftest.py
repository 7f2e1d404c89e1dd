"""Shared fixture builders: synthetic feeds, dictionaries, credentials."""

from __future__ import annotations

import itertools
import json
import random
import re
import sys

import pytest
from hypothesis import strategies as st

from invscan.cpe import PARTS, CpeError, CpeName, cpe_matches, normalize_component, split_cpe_uri
from invscan.db import VulnDatabase
from invscan.generation import SEPARATORS, ComponentCandidates
from invscan.protocol import ClientCredential


def brute_force_match(records, queries) -> set:
    """All-pairs matching, the defining semantics. queries is any
    iterable of names, read once (ComponentCandidates expands on each
    iteration). Each stored field tuple it reaches becomes a CpeName,
    whose check confirms that the tuple is normalized."""
    queries = list(queries)
    found = set()
    for record in records.values():
        hit = False
        for applicability in record.applicability:
            name = CpeName(*applicability)
            for query in queries:
                if cpe_matches(query, name):
                    hit = True
                    break
            if hit:
                break
        if hit:
            found.add(record.id)
    return found


def seed_parse_cpe_uri(text: str) -> CpeName:
    """parse_cpe_uri as it was before the string path (every segment
    normalized, a CpeName built), kept as the string path's oracle."""
    if not text.startswith("cpe:/"):
        raise CpeError(f"not a CPE 2.2 URI (expected 'cpe:/' prefix): {text!r}")
    segments = text[len("cpe:/"):].split(":")
    part = segments[0].strip().lower()
    if part not in PARTS:
        raise CpeError(f"invalid part segment {segments[0]!r} in {text!r}")
    if len(segments) > 7:
        raise CpeError(
            f"too many components ({len(segments) - 1} > 6), "
            f"starting at segment {segments[7]!r} in {text!r}"
        )
    fields = ("vendor", "product", "version", "update", "edition", "language")
    return CpeName(part=part, **{field: normalize_component(raw)
                                 for field, raw in zip(fields, segments[1:])})


def seed_cpe23_to_22(uri: str) -> CpeName:
    """cpe23_to_22 as it was before the string path, its oracle."""
    raw = re.split(r"(?<!\\):", uri)
    if len(raw) < 5 or raw[0] != "cpe" or raw[1] != "2.3":
        raise CpeError(f"not a CPE 2.3 formatted string: {uri!r}")
    values = []
    for value in raw[2:9]:
        value = value.replace("\\", "")
        values.append(None if value in ("*", "") else value)
    part = values[0]
    if part not in ("a", "o", "h"):
        raise CpeError(f"unsupported part {part!r} in {uri!r}")
    padded = values[1:] + [None] * (6 - len(values[1:]))
    return CpeName(part, *map(normalize_component, padded))


def seed_format_cpe_uri(name: CpeName) -> str:
    """format_cpe_uri as it was before the shared formatter, its oracle."""
    components = list(name.components())
    while components and components[-1] is None:
        components.pop()
    return f"cpe:/{name.part}" + "".join(":" + (c if c is not None else "") for c in components)


def seed_joins(words) -> set[str]:
    """_joins as it was before the joins were normalized directly
    (normalize_component of each separator join), kept as its oracle."""
    return {token for sep in SEPARATORS if (token := normalize_component(sep.join(words)))}


def seed_subsequence_joins(words, cap: int = 8) -> set[str]:
    """_subsequence_joins as it was before the one-pass normalization
    (seed_joins of each word combination), its oracle."""
    out: set[str] = set()
    if len(words) > cap:
        for word in words:
            out |= seed_joins([word])
        return out | seed_joins(words)
    for size in range(1, len(words) + 1):
        for combo in itertools.combinations(words, size):
            out |= seed_joins(combo)
    return out


# Every character str.isspace() holds.
SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())

# CPE URI segments: already their own normal form; upper case (İ lowers
# to two characters, Σ by its context) with '\\', '*' and runs of ':' (so
# more, and empty, segments); whitespace of every kind.
cpe_segment = st.one_of(
    st.text(st.sampled_from("az09._-~"), max_size=4),
    st.text(st.sampled_from("aZ0.*\\::İΣ"), max_size=4),
    st.text(st.sampled_from("a0" + SPACES), max_size=4),
    st.sampled_from(["*", "", "-", "x\\:y", "\\*", "\\"]),
)


def one_name(uri: str) -> ComponentCandidates:
    """Candidate sets whose expansion is exactly the given name, which
    must carry vendor, product and version."""
    part, vendor, product, version, *optional = split_cpe_uri(uri)
    return ComponentCandidates(frozenset({part}), frozenset({vendor}),
                               frozenset({product}), frozenset({version}),
                               *[frozenset({value}) if value else frozenset()
                                 for value in optional])


def feed_item(cve_id: str, cpes=(), cvss3=None, cvss2=None,
              description: str = "synthetic record", published: str | None = None,
              vulnerable_flags=None) -> dict:
    """One NVD-shaped CVE item. cpes are CPE 2.2 URI strings."""
    item: dict = {
        "cve": {
            "CVE_data_meta": {"ID": cve_id},
            "description": {"description_data": [{"lang": "en", "value": description}]},
        },
        "configurations": {"nodes": []},
    }
    matches = []
    for position, uri in enumerate(cpes):
        entry = {"vulnerable": True, "cpe22Uri": uri}
        if vulnerable_flags is not None:
            entry["vulnerable"] = vulnerable_flags[position]
        matches.append(entry)
    if matches:
        item["configurations"]["nodes"] = [{"operator": "OR", "cpe_match": matches}]
    impact = {}
    if cvss3 is not None:
        impact["baseMetricV3"] = {"cvssV3": {"version": "3.1", "baseScore": cvss3}}
    if cvss2 is not None:
        impact["baseMetricV2"] = {"cvssV2": {"version": "2.0", "baseScore": cvss2}}
    if impact:
        item["impact"] = impact
    if published:
        item["publishedDate"] = published
    return item


def write_feed(path, items) -> str:
    path.write_text(json.dumps({"CVE_Items": list(items)}), encoding="utf-8")
    return str(path)


def write_dictionary(path, uris) -> str:
    path.write_text("\n".join(uris) + "\n", encoding="utf-8")
    return str(path)


def write_exploit_map(path, links) -> str:
    lines = [f"{exploit_id},{cve_id}" for exploit_id, cve_id in links]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return str(path)


# Databases make_database opened during the running test; closed after it.
_made_databases: list[VulnDatabase] = []


@pytest.fixture(autouse=True)
def _close_made_databases():
    yield
    while _made_databases:
        _made_databases.pop().close()


def make_database(tmp_path, items=(), dictionary=(), exploits=(), name="db") -> VulnDatabase:
    """Database updated once over the given fixtures (generation 1); closed
    when the test ends, if the test has not closed it."""
    database = VulnDatabase(str(tmp_path / f"{name}.sqlite"))
    _made_databases.append(database)
    feeds = [write_feed(tmp_path / f"{name}-feed.json", items)] if items else []
    dictionaries = ([write_dictionary(tmp_path / f"{name}-dict.txt", dictionary)]
                    if dictionary else [])
    exploit_files = ([write_exploit_map(tmp_path / f"{name}-exploits.csv", exploits)]
                     if exploits else [])
    database.update_sources(feeds, dictionaries, exploit_files)
    return database


def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Return a copy of data with one bit inverted."""
    byte_index, offset = divmod(bit_index, 8)
    out = bytearray(data)
    out[byte_index] ^= 1 << offset
    return bytes(out)


TEST_SECRET = "correct horse battery staple"
TEST_SALT = bytes(range(16))


def client_credential(client_id: str = "vsc-1") -> ClientCredential:
    """A fresh credential instance; call twice for the two protocol ends."""
    return ClientCredential.from_secret(client_id, TEST_SECRET, TEST_SALT)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
