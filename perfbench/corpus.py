"""Seeded, NVD-shaped corpus and inventory generator for the loopback benchmark.

One integer seed fixes every generated file: the CVE feed, the CPE
dictionary, the exploit map, the small delta feeds applied during
updates, the inventories, and the planted truth. The scanner under test
only ever receives these files.

The planted truth of an inventory component is the set of CVE ids the
generator wrote for that component's vendor, product and version. It is
recorded while the feed is written, without calling invscan's matcher.
For the truth to be exactly what the matcher must report, the corpus is
built so that no other record can match a component's candidate names:

- every vendor token and every product word is a distinct made-up word,
  so an application name confirms only its own product in the
  dictionary, and its vendor guesses name no other vendor's products;
- application versions in the feed are always three-part, while a
  version embedded in a name is two-part and never appears in the feed;
- wildcard-bucket names (unset vendor or product) use parts and products
  no inventory component can produce.

``perfbench/tests/test_corpus.py`` checks this against the all-pairs
oracle on a tiny scale.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
# Vendor tokens are one word, two words, or a word and one of these, so
# that their lengths spread like NVD's (9 letters on average).
VENDOR_SUFFIXES = ("inc", "project", "software", "labs", "foundation", "corp", "team")


@dataclass(frozen=True)
class Scale:
    """Sizes of one generated corpus."""

    vendors: int = 30_000
    # Products of the vendor at popularity rank r: top / r**exponent, at least 1.
    top_vendor_products: int = 300
    product_exponent: float = 0.8
    app_cves: int = 9_000
    # CVEs per known-vendor OS product, split between version "-" and builds.
    os_cves: int = 240
    os_any_version_cves: int = 12
    # Share of applicability names with an unset vendor or product.
    wildcard_share: float = 0.0002
    exploit_share: float = 0.05
    # Share of CVEs that carry a non-vulnerable running-on platform entry.
    platform_share: float = 0.05
    deltas: int = 12
    delta_new: int = 30
    delta_modified: int = 20
    apps_per_inventory: int = 99


FULL = Scale()
TINY = Scale(vendors=120, top_vendor_products=12, app_cves=300, os_cves=20,
             os_any_version_cves=3, wildcard_share=0.02, deltas=2, delta_new=5,
             delta_modified=5, apps_per_inventory=9)

# Known-vendor operating systems, keyed by their NVD product: the releases
# inventories report, their share of inventories, and their vendor.
_WINDOWS_BUILDS = {"windows_10": (19041, 19042, 19043, 19044, 19045),
                   "windows_11": (22000, 22621, 22631)}
_LINUX_RELEASES = {"ubuntu_linux": ((18, 4), (20, 4), (22, 4), (24, 4)),
                   "enterprise_linux": ((7, 9), (8, 6), (8, 8), (9, 2))}
_MAC_RELEASES = ((10, 15, 7), (11, 7, 10), (12, 7, 4), (13, 6, 1))
OS_WEIGHTS = {"windows_10": 35, "windows_11": 20, "ubuntu_linux": 20,
              "enterprise_linux": 12, "mac_os_x": 13}
OS_VENDORS = {"windows_10": "microsoft", "windows_11": "microsoft",
              "ubuntu_linux": "canonical", "enterprise_linux": "redhat",
              "mac_os_x": "apple"}
# Linux vendors beside the two above, so the dictionary's Linux family is
# not trivially small.
EXTRA_OS_ENTRIES = ("cpe:/o:debian:debian_linux", "cpe:/o:suse:linux_enterprise_server",
                    "cpe:/o:oracle:linux", "cpe:/o:gentoo:linux")
UNKNOWN_OS_FAMILIES = 4
UNKNOWN_OS_MAJOR = 3
UNKNOWN_OS_MINORS = 40


def os_versions(os_key: str) -> list[str]:
    """Feed versions of a known OS product, as the generator formats them."""
    if os_key in _WINDOWS_BUILDS:
        return [f"10.0.{b}" for b in _WINDOWS_BUILDS[os_key]]
    if os_key in _LINUX_RELEASES:
        return [f"{a}.{b}" for a, b in _LINUX_RELEASES[os_key]]
    return [f"{a}.{b}.{c}" for a, b, c in _MAC_RELEASES]


def _os_record(os_key: str, release: int, revision: int) -> tuple[dict, str]:
    """Inventory record of a known OS and the feed version it carries."""
    if os_key in _WINDOWS_BUILDS:
        build = _WINDOWS_BUILDS[os_key][release % len(_WINDOWS_BUILDS[os_key])]
        name = "Windows 10" if os_key == "windows_10" else "Windows 11"
        return ({"kind": "os", "name": name, "vendor": "Microsoft", "major": 10,
                 "minor": 0, "build": build, "revision": revision}, f"10.0.{build}")
    if os_key in _LINUX_RELEASES:
        major, minor = _LINUX_RELEASES[os_key][release % len(_LINUX_RELEASES[os_key])]
        name, vendor = (("Ubuntu Linux", "Canonical") if os_key == "ubuntu_linux"
                        else ("Enterprise Linux", "Redhat"))
        return ({"kind": "os", "name": name, "vendor": vendor, "major": major,
                 "minor": minor, "revision": revision}, f"{major}.{minor}")
    major, minor, build = _MAC_RELEASES[release % len(_MAC_RELEASES)]
    return ({"kind": "os", "name": "Mac OS X", "major": major, "minor": minor,
             "build": build, "revision": revision}, f"{major}.{minor}.{build}")


class _Words:
    """Distinct made-up words of three consonant-vowel syllables."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set[str] = set()

    def take(self) -> str:
        while True:
            word = "".join(self._rng.choice(CONSONANTS) + self._rng.choice(VOWELS)
                           for _ in range(3))
            if word not in self._used:
                self._used.add(word)
                return word


def _vendor_token(rng: random.Random, words: _Words) -> str:
    draw = rng.random()
    if draw < 0.6:
        return words.take()
    if draw < 0.85:
        return f"{words.take()}_{words.take()}"
    return f"{words.take()}_{rng.choice(VENDOR_SUFFIXES)}"


def _display(token: str) -> str:
    """How an inventory spells a vendor token: "bakemo_inc" -> "Bakemo Inc"."""
    return " ".join(part.capitalize() for part in token.split("_"))


@dataclass
class _Product:
    vendor: str
    token: str
    words: tuple[str, ...]
    versions: list[str]


def _cpe23(part: str, vendor: str | None, product: str | None, version: str) -> str:
    return f"cpe:2.3:{part}:{vendor or '*'}:{product or '*'}:{version}:*:*:*:*:*:*:*"


def _cvss(rng: random.Random) -> dict:
    impact = {}
    if rng.random() < 0.7:
        impact["baseMetricV3"] = {"cvssV3": {"version": "3.1",
                                             "baseScore": round(rng.uniform(1.0, 10.0), 1)}}
    if rng.random() < 0.8:
        impact["baseMetricV2"] = {"cvssV2": {"version": "2.0",
                                             "baseScore": round(rng.uniform(1.0, 10.0), 1)}}
    return impact


def _feed_item(cve_id: str, uris: list[str], rng: random.Random,
               platform: str | None = None) -> dict:
    matches = [{"vulnerable": True, "cpe23Uri": uri} for uri in uris]
    if platform is None:
        nodes = [{"operator": "OR", "cpe_match": matches}]
    else:
        nodes = [{"operator": "AND", "children": [
            {"operator": "OR", "cpe_match": matches},
            {"operator": "OR", "cpe_match": [{"vulnerable": False, "cpe23Uri": platform}]},
        ]}]
    year = rng.randint(2008, 2024)
    item = {
        "cve": {"CVE_data_meta": {"ID": cve_id},
                "description": {"description_data": [
                    {"lang": "en", "value": f"Synthetic record {cve_id}."}]}},
        "configurations": {"nodes": nodes},
        "publishedDate": f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T00:00Z",
    }
    impact = _cvss(rng)
    if impact:
        item["impact"] = impact
    return item


class Corpus:
    """A generated corpus, kept in memory until written."""

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = seed
        self.scale = scale
        rng = random.Random(f"corpus-{seed}")
        words = _Words(rng)
        self._cve_numbers = itertools.count(10_000 + rng.randrange(1_000))
        # Vendors and products, most popular first.
        self.vendors = [_vendor_token(rng, words) for _ in range(scale.vendors)]
        self.products: list[_Product] = []
        for rank, vendor in enumerate(self.vendors, start=1):
            count = max(1, int(scale.top_vendor_products / rank ** scale.product_exponent))
            for _ in range(count):
                pwords = tuple(words.take() for _ in range(rng.choice((1, 2, 2))))
                n_versions = max(3, min(60, int(240 / (len(self.products) + 8) ** 0.35)))
                versions = sorted({f"{rng.randint(1, 14)}.{rng.randint(0, 20)}.{rng.randint(0, 40)}"
                                   for _ in range(n_versions)},
                                  key=lambda v: tuple(int(x) for x in v.split(".")))
                self.products.append(_Product(vendor, "_".join(pwords), pwords, versions))
        # Popularity of products for inventories and for CVE counts.
        weights = [1.0 / (rank + 10) ** 0.9 for rank in range(len(self.products))]
        self.cum_weights = list(itertools.accumulate(weights))
        # Five percent of products only ever appear in delta feeds' new CVEs.
        self.feed_only = set(rng.sample(range(len(self.products)),
                                        max(1, len(self.products) // 20)))

        self.items: dict[str, dict] = {}
        self.truth_app: dict[tuple[str, str], list[str]] = {}
        self.truth_os: dict[tuple[str, str], list[str]] = {}
        self.wildcard_names = 0
        self.applicability_names = 0
        self._write_app_cves(rng)
        self._write_os_cves(rng)
        self._write_unknown_os(rng, words)
        self._write_wildcards(rng, words)
        self.exploits = sorted(
            (f"EDB-{40_000 + n}", cve_id) for n, cve_id in enumerate(
                rng.sample(sorted(self.items), int(len(self.items) * scale.exploit_share))))
        self.deltas = [self._delta(rng, k) for k in range(scale.deltas)]

    # -- feed ----------------------------------------------------------

    def _new_id(self, rng: random.Random) -> str:
        return f"CVE-{rng.randint(2008, 2024)}-{next(self._cve_numbers)}"

    def _pick_product(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cum_weights, rng.random() * self.cum_weights[-1])

    def _add(self, rng: random.Random, uris: list[str], platform: str | None = None) -> str:
        cve_id = self._new_id(rng)
        self.items[cve_id] = _feed_item(cve_id, uris, rng, platform)
        self.applicability_names += len(uris)
        return cve_id

    def _write_app_cves(self, rng: random.Random) -> None:
        for _ in range(self.scale.app_cves):
            index = self._pick_product(rng)
            while index in self.feed_only:
                index = self._pick_product(rng)
            product = self.products[index]
            span = rng.randint(1, min(3, len(product.versions)))
            start = rng.randrange(len(product.versions) - span + 1)
            versions = product.versions[start:start + span]
            uris = [_cpe23("a", product.vendor, product.token, v) for v in versions]
            platform = None
            if rng.random() < self.scale.platform_share:
                platform = _cpe23("o", "microsoft", "windows", "-")
            cve_id = self._add(rng, uris, platform)
            for version in versions:
                self.truth_app.setdefault((product.token, version), []).append(cve_id)

    def _write_os_cves(self, rng: random.Random) -> None:
        for os_key, vendor in OS_VENDORS.items():
            for _ in range(self.scale.os_any_version_cves):
                cve_id = self._add(rng, [_cpe23("o", vendor, os_key, "-")])
                self.truth_os.setdefault((os_key, "-"), []).append(cve_id)
            versions = os_versions(os_key)
            for _ in range(self.scale.os_cves - self.scale.os_any_version_cves):
                chosen = rng.sample(versions, rng.randint(1, len(versions)))
                cve_id = self._add(rng, [_cpe23("o", vendor, os_key, v) for v in chosen])
                for version in chosen:
                    self.truth_os.setdefault((os_key, version), []).append(cve_id)

    def _write_unknown_os(self, rng: random.Random, words: _Words) -> None:
        """OS families whose inventory vendor the dictionary lacks.

        Their CVEs are filed under an unrelated known vendor, so only the
        all-known-vendors fallback can find them.
        """
        self.unknown_os = []
        for _ in range(UNKNOWN_OS_FAMILIES):
            word, maker = words.take(), words.take()
            filed_under = self.vendors[rng.randrange(len(self.vendors) // 2, len(self.vendors))]
            key = f"{word}_server"
            self.unknown_os.append((word, maker, key))
            for _ in range(3):
                cve_id = self._add(rng, [_cpe23("o", filed_under, key, "-")])
                self.truth_os.setdefault((key, "-"), []).append(cve_id)
            for minor in range(UNKNOWN_OS_MINORS):
                version = f"{UNKNOWN_OS_MAJOR}.{minor}"
                cve_id = self._add(rng, [_cpe23("o", filed_under, key, version)])
                self.truth_os.setdefault((key, version), []).append(cve_id)

    def _write_wildcards(self, rng: random.Random, words: _Words) -> None:
        """Names with an unset vendor or product: the matcher's wildcard bucket.

        Parts and products are chosen so that no inventory component
        produces a candidate they match.
        """
        count = max(1, round(self.applicability_names * self.scale.wildcard_share))
        for n in range(count):
            if n % 2:
                uri = _cpe23("a", None, words.take(), "1.0.0")
            else:
                uri = f"cpe:2.3:h:{rng.choice(self.vendors)}:*:*:*:*:*:*:*:*:*"
            self._add(rng, [uri])
        self.wildcard_names = count

    def _delta(self, rng: random.Random, k: int) -> list[dict]:
        """Additive update: new CVEs on feed-only products plus re-issued
        (rescored) existing records with unchanged applicability."""
        feed_only = sorted(self.feed_only)
        out = []
        for _ in range(self.scale.delta_new):
            product = self.products[rng.choice(feed_only)]
            version = rng.choice(product.versions)
            cve_id = self._new_id(rng)
            out.append(_feed_item(cve_id, [_cpe23("a", product.vendor, product.token, version)], rng))
        for cve_id in rng.sample(sorted(self.items), self.scale.delta_modified):
            item = json.loads(json.dumps(self.items[cve_id]))
            item["impact"] = _cvss(rng)
            item["lastModifiedDate"] = f"2025-01-{k % 28 + 1:02d}T00:00Z"
            out.append(item)
        return out

    # -- dictionary ----------------------------------------------------

    def dictionary_lines(self) -> list[str]:
        lines = [f"cpe:/a:{p.vendor}:{p.token}:{p.versions[-1]}" for p in self.products]
        lines += [f"cpe:/o:{vendor}:{key}" for key, vendor in OS_VENDORS.items()]
        lines += EXTRA_OS_ENTRIES
        return lines

    # -- inventories ---------------------------------------------------

    def inventories(self, workload_seed: str, count: int, unknown_every: int = 0,
                    unknown_offset: int = 0):
        """Inventories with one OS and apps_per_inventory applications each.

        No two components across the returned inventories share a
        fingerprint: applications are drawn by popularity without
        repeating a (product, version) pair, and each OS carries a
        distinct revision (or, for unknown-vendor OSes, minor version).
        When unknown_every is set, inventory i carries an unknown-vendor
        OS whenever i % unknown_every == unknown_offset.

        Returns a list of (inventory document, truth, unknown) where truth
        holds the sorted planted CVE ids of each component, in order, and
        unknown marks an unknown-vendor OS.
        """
        rng = random.Random(f"inventories-{self.seed}-{workload_seed}")
        remaining: dict[int, list[str]] = {}
        os_keys = list(OS_WEIGHTS)
        os_weights = list(OS_WEIGHTS.values())
        out = []
        unknown_used = 0
        for n in range(count):
            unknown = bool(unknown_every) and n % unknown_every == unknown_offset
            if unknown:
                word, maker, key = self.unknown_os[unknown_used % len(self.unknown_os)]
                minor = unknown_used // len(self.unknown_os)
                unknown_used += 1
                if minor >= UNKNOWN_OS_MINORS:
                    raise ValueError("too many unknown-vendor inventories for this corpus")
                os_doc = {"kind": "os", "name": f"{word.capitalize()} Server",
                          "vendor": f"{maker.capitalize()} Labs",
                          "major": UNKNOWN_OS_MAJOR, "minor": minor}
                os_truth = self.truth_os.get((key, "-"), []) + self.truth_os.get(
                    (key, f"{UNKNOWN_OS_MAJOR}.{minor}"), [])
            else:
                os_key = rng.choices(os_keys, os_weights)[0]
                os_doc, version = _os_record(os_key, rng.randrange(8), 1_000 + n)
                os_truth = self.truth_os.get((os_key, "-"), []) + self.truth_os.get(
                    (os_key, version), [])
            pvcs = [os_doc]
            truth = [sorted(set(os_truth))]
            for _ in range(self.scale.apps_per_inventory):
                doc, app_truth = self._app(rng, remaining)
                pvcs.append(doc)
                truth.append(app_truth)
            out.append(({"target_label": f"host-{workload_seed}-{n:04d}", "pvcs": pvcs},
                        truth, unknown))
        return out

    def _app(self, rng: random.Random, remaining: dict[int, list[str]]) -> tuple[dict, list[str]]:
        for _ in range(1_000):
            index = self._pick_product(rng)
            if index in self.feed_only:
                continue
            if index not in remaining:
                versions = list(self.products[index].versions)
                rng.shuffle(versions)
                remaining[index] = versions
            if remaining[index]:
                break
        else:
            raise ValueError("product pool exhausted; generate fewer inventories")
        product = self.products[index]
        version = remaining[index].pop()
        vendor_name = _display(product.vendor)
        name_words = [vendor_name] + [w.capitalize() for w in product.words]
        if rng.random() < 0.3:
            name_words.append(version.rsplit(".", 1)[0])
        doc = {"kind": "app", "name": " ".join(name_words), "display_version": version}
        if rng.random() < 0.8:
            doc["publisher"] = vendor_name
        return doc, sorted(set(self.truth_app.get((product.token, version), [])))

    # -- files -----------------------------------------------------------

    def sizes(self) -> dict:
        return {
            "seed": self.seed,
            "vendors": len(self.vendors),
            "products": len(self.products),
            "dictionary_names": len(self.dictionary_lines()),
            "cves": len(self.items),
            "applicability_names": self.applicability_names,
            "wildcard_names": self.wildcard_names,
            "exploit_links": len(self.exploits),
            "deltas": len(self.deltas),
            "delta_records": sum(len(d) for d in self.deltas),
            "scale": asdict(self.scale),
        }

    def write(self, out_dir: Path) -> None:
        """Write the base feed directory and one directory per delta."""
        base = out_dir / "feeds"
        base.mkdir(parents=True, exist_ok=True)
        items = [self.items[k] for k in sorted(self.items)]
        (base / "nvd.json").write_text(json.dumps({"CVE_Items": items}), encoding="utf-8")
        (base / "dictionary.txt").write_text("\n".join(self.dictionary_lines()) + "\n",
                                             encoding="utf-8")
        (base / "exploits.csv").write_text(
            "exploit_id,cve_id\n" + "".join(f"{e},{c}\n" for e, c in self.exploits),
            encoding="utf-8")
        for k, delta in enumerate(self.deltas):
            ddir = out_dir / "deltas" / f"{k:02d}"
            ddir.mkdir(parents=True, exist_ok=True)
            (ddir / "nvd-delta.json").write_text(json.dumps({"CVE_Items": delta}),
                                                 encoding="utf-8")
        (out_dir / "sizes.json").write_text(json.dumps(self.sizes(), indent=1), encoding="utf-8")


def write_inventories(inventories, out_dir: Path) -> list[tuple[str, list[list[str]], bool]]:
    """Write each inventory to its own file, and truth.json listing
    (file name, truth, unknown-vendor OS?) for each, in order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = []
    for n, (doc, truth, unknown) in enumerate(inventories):
        path = out_dir / f"inv-{n:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        plan.append((path.name, truth, unknown))
    (out_dir / "truth.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan

