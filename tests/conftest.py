"""Shared fixture builders: synthetic feeds, dictionaries, credentials."""

from __future__ import annotations

import json
import random

import pytest

from invscan.cpe import cpe_matches, parse_cpe_uri
from invscan.db import VulnDatabase
from invscan.generation import ComponentCandidates
from invscan.protocol import ClientCredential


def brute_force_match(records, queries) -> set:
    """All-pairs matching, the defining semantics. queries is any
    iterable of names, read once (ComponentCandidates expands on each
    iteration)."""
    queries = list(queries)
    found = set()
    for record in records.values():
        hit = False
        for applicability in record.applicability:
            for query in queries:
                if cpe_matches(query, applicability):
                    hit = True
                    break
            if hit:
                break
        if hit:
            found.add(record.id)
    return found


def one_name(uri: str) -> ComponentCandidates:
    """Candidate sets whose expansion is exactly the given name, which
    must carry vendor, product and version."""
    name = parse_cpe_uri(uri)
    optional = [frozenset({value}) if value else frozenset()
                for value in (name.update, name.edition, name.language)]
    return ComponentCandidates(frozenset({name.part}), frozenset({name.vendor}),
                               frozenset({name.product}), frozenset({name.version}),
                               *optional)


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


def make_database(tmp_path, items=(), dictionary=(), exploits=(), name="db") -> VulnDatabase:
    """Database updated once over the given fixtures (generation 1)."""
    database = VulnDatabase(str(tmp_path / f"{name}.sqlite"))
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
