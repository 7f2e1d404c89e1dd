"""Candidate CPE generation for inventory components.

Each component kind gets its own vendor/product/version/update heuristics,
giving one candidate set per CPE field; the sets stand for the CPE names
of their cartesian expansion, which the database never builds. Heuristics
that need dictionary knowledge (known vendors, known products, per-family
vendor lists) read it from a GenerationIndex snapshot.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

from .cpe import CpeName, normalize_component
from .inventory import Pvc, PvcKind

# Separators tried when joining words of a multi-word name, applied
# uniformly across all gaps: "windows xp" -> windowsxp, windows_xp, windows-xp.
SEPARATORS = ("", "_", "-")

# Vendors that ship Linux-based operating systems; only the ones actually
# present in the ingested dictionary are used.
LINUX_VENDOR_NAMES = frozenset({
    "canonical", "conectiva", "corel", "debian", "engardelinux", "gentoo",
    "ibm", "linux", "linuxmint", "mandrakesoft", "mandriva", "novell",
    "opensuse", "opensuse_project", "oracle", "redhat", "scientificlinux",
    "sgi", "slackware", "suse", "trustix", "windriver",
})

_VERSION_TOKEN_RE = re.compile(r"\d+(\.\d+)*")
_VERSION_IN_TEXT_RE = re.compile(r"\d+(?:\.\d+)+")
_SERVICE_PACK_RE = re.compile(r"service\s*pack\s*(\d+)", re.IGNORECASE)


@dataclass(frozen=True)
class GenerationIndex:
    """Dictionary-derived knowledge used by the generation heuristics.

    Rebuilt whenever the database generation changes; the family lists are
    derived from dictionary contents, never hardcoded.
    """

    known_vendors: frozenset[str] = frozenset()
    known_products: frozenset[str] = frozenset()
    os_product_to_vendors: dict[str, frozenset[str]] = field(default_factory=dict)
    android_vendors: frozenset[str] = frozenset()
    apple_os_products: frozenset[str] = frozenset()
    linux_vendors: frozenset[str] = frozenset()



def build_index_from_fields(rows) -> GenerationIndex:
    """Derive a GenerationIndex from an iterable of the (part, vendor,
    product) fields of dictionary names."""
    vendors: set[str] = set()
    products: set[str] = set()
    os_p2v: dict[str, set[str]] = {}
    android: set[str] = set()
    apple_os: set[str] = set()
    for part, vendor, product in rows:
        if vendor:
            vendors.add(vendor)
        if product:
            products.add(product)
        if vendor and product:
            if part == "o":
                os_p2v.setdefault(product, set()).add(vendor)
                if vendor == "apple":
                    apple_os.add(product)
            if "android" in product:
                android.add(vendor)
    return GenerationIndex(
        known_vendors=frozenset(vendors),
        known_products=frozenset(products),
        os_product_to_vendors={p: frozenset(v) for p, v in os_p2v.items()},
        android_vendors=frozenset(android),
        apple_os_products=frozenset(apple_os),
        linux_vendors=frozenset(LINUX_VENDOR_NAMES & vendors),
    )


@dataclass(frozen=True)
class ComponentCandidates:
    """Per-field candidate sets for one component, standing for the names
    of their cartesian expansion: len() counts them, iteration expands.

    platforms, vendors, products, and versions must be non-empty;
    updates, editions, and languages may be empty.
    """

    platforms: frozenset[str]
    vendors: frozenset[str]
    products: frozenset[str]
    versions: frozenset[str]
    updates: frozenset[str] = frozenset()
    editions: frozenset[str] = frozenset()
    languages: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for label in ("platforms", "vendors", "products", "versions"):
            members = getattr(self, label)
            if not members:
                raise ValueError(f"candidate set {label} must be non-empty")
            if any(not m for m in members):
                raise ValueError(f"candidate set {label} contains an empty member")

    def optional_sets(self) -> tuple[frozenset[str], ...]:
        """updates, editions and languages up to the first empty one: the
        optional sets the expansion uses; later fields stay unset."""
        return tuple(itertools.takewhile(bool, (self.updates, self.editions, self.languages)))

    def __len__(self) -> int:
        return math.prod(map(len, (self.platforms, self.vendors, self.products,
                                   self.versions, *self.optional_sets())))

    def __iter__(self):
        return iter(cartesian_expand(self))


def is_version_token(word: str) -> bool:
    """True for words shaped like a version number: digits, optionally
    followed by dot-separated digit groups ("7", "12.5", "1.2.3")."""
    return bool(_VERSION_TOKEN_RE.fullmatch(word))


def _words(name: str) -> list[str]:
    return name.split()


def _nonversion_words(name: str) -> list[str]:
    return [w for w in _words(name) if not is_version_token(w)]


def _joins(words) -> set[str]:
    """Join words with each separator uniformly, normalized, the empty
    join dropped. The words come from str.split() and hold no
    whitespace, nor does their lower case, so normalizing a join only
    lowercases it and drops ':'."""
    return {token for sep in SEPARATORS if (token := sep.join(words).lower().replace(":", ""))}


def word_combinations(name: str) -> set[str]:
    """All separator joins of a name's whitespace-split words.

    A single-word name yields just the normalized word; multi-word names
    yield one candidate per separator.
    """
    words = _words(name)
    if not words:
        return set()
    if len(words) == 1:
        token = normalize_component(words[0])
        return {token} if token else set()
    return _joins(words)


def abbreviate_name(words: list[str]) -> set[str]:
    """First-letter abbreviation of a name's non-version words, which
    the caller has split off.

    ["media", "player", "classic"] (of "media player classic 12.5") ->
    {"mpc"}. Yields nothing for fewer than two words.
    """
    if len(words) <= 1:
        return set()
    token = normalize_component("".join(w[0] for w in words))
    return {token} if token else set()


def extract_versions_from_text(title: str) -> set[str]:
    """Every version-shaped substring with at least one dot group."""
    return set(_VERSION_IN_TEXT_RE.findall(title))


def os_vendor_candidates(pvc: Pvc, index: GenerationIndex) -> set[str]:
    """Guess OS vendors; the first heuristic producing candidates wins.

    Order: windows -> microsoft; android family; apple OS products;
    linux family; vendor field against all known vendors; name against
    all known OS products (reflecting onto their vendors). May return an
    empty set, in which case the caller falls back to the full vendor
    list.
    """
    lowered = pvc.name.lower()
    vendor_hint = normalize_component(pvc.vendor)

    if "windows" in lowered:
        return {"microsoft"}

    if "android" in lowered:
        if vendor_hint and vendor_hint in index.android_vendors:
            return {vendor_hint}
        if index.android_vendors:
            return set(index.android_vendors)

    name_tokens = word_combinations(pvc.name)

    if name_tokens & index.apple_os_products:
        return {"apple"}

    if vendor_hint and vendor_hint in index.linux_vendors:
        return {vendor_hint}
    linux_matched: set[str] = set()
    for token in name_tokens:
        linux_matched |= index.os_product_to_vendors.get(token, frozenset()) & index.linux_vendors
    if linux_matched:
        return linux_matched

    property_tokens = set(name_tokens)
    if vendor_hint:
        property_tokens.add(vendor_hint)
    direct = property_tokens & index.known_vendors
    if direct:
        return direct

    reflected: set[str] = set()
    for token in name_tokens:
        reflected |= index.os_product_to_vendors.get(token, frozenset())
    return reflected


def os_product_candidates(pvc: Pvc) -> set[str]:
    return word_combinations(pvc.name)


def os_version_candidates(pvc: Pvc) -> set[str]:
    """Version tokens assembled from the numeric OS version parts.

    Applies every shape the available parts allow (major.minor.build,
    revision alone, the full quad, major.minor, build alone) plus the
    literal "-" (a vulnerability in all versions) and the name joins.
    Never empty.
    """
    out = {"-"}
    major, minor, build, revision = pvc.major, pvc.minor, pvc.build, pvc.revision
    if major is not None and minor is not None and build is not None:
        out.add(f"{major}.{minor}.{build}")
    if revision is not None:
        out.add(str(revision))
    if major is not None and minor is not None and build is not None and revision is not None:
        out.add(f"{major}.{minor}.{build}.{revision}")
    if major is not None and minor is not None:
        out.add(f"{major}.{minor}")
    if build is not None:
        out.add(str(build))
    out |= word_combinations(pvc.name)
    return out


def os_update_candidates(pvc: Pvc) -> set[str]:
    """Abbreviated service-pack token when one is present ("sp3")."""
    out: set[str] = set()
    if pvc.service_pack:
        matched = _SERVICE_PACK_RE.search(pvc.service_pack)
        if matched:
            out.add(f"sp{matched.group(1)}")
    return out


def app_vendor_candidates(pvc: Pvc) -> set[str]:
    """Vendors guessed from the publisher and the leading name words.

    Publisher (when present), the first word of a multi-word name, and
    the first two words joined with each separator for 3+-word names.
    Falls back to the whole name so the set is never empty.
    """
    out: set[str] = set()
    if pvc.publisher:
        token = normalize_component(pvc.publisher)
        if token:
            out.add(token)
    words = _words(pvc.name)
    if len(words) >= 2:
        token = normalize_component(words[0])
        if token:
            out.add(token)
    if len(words) >= 3:
        out |= _joins(words[:2])
    if not out:
        token = normalize_component(pvc.name)
        if token:
            out.add(token)
    return out


def _subsequence_joins(words, cap: int = 8) -> set[str]:
    """Separator joins of every order-preserving word subsequence, as
    _joins gives them.

    Over-generates on purpose; callers screen the result against the
    product dictionary. Long names fall back to single words plus the
    full join to keep the candidate count bounded. The words hold no
    whitespace, so all joins are normalized in one pass, as the lines of
    one text: a newline is neither cased nor case-ignorable, so the
    lower case of a Σ still depends only on its own line.
    """
    if len(words) > cap:
        combos = [(word,) for word in words] + [words]
    else:
        combos = itertools.chain.from_iterable(
            itertools.combinations(words, size) for size in range(1, len(words) + 1))
    text = "\n".join([sep.join(combo) for combo in combos for sep in SEPARATORS])
    return set(text.lower().replace(":", "").split("\n")) - {""}


def app_product_candidates(pvc: Pvc, index: GenerationIndex) -> set[str]:
    """Products guessed from the name, preferring dictionary-confirmed tokens.

    First every subsequence join and the abbreviation of the non-version
    words are screened against the known-product list; any survivor wins
    outright. Otherwise positional rules keyed on the non-version word
    count apply. Never empty.
    """
    words = _nonversion_words(pvc.name)

    confirmed = _subsequence_joins(words) | abbreviate_name(words)
    confirmed &= index.known_products
    if confirmed:
        return confirmed

    if not words:
        token = normalize_component(pvc.name)
        return {token} if token else {"-"}
    tokens = [normalize_component(w) for w in words]
    out: set[str] = set()
    if len(words) == 1:
        if tokens[0]:
            out.add(tokens[0])
    elif len(words) == 2:
        if tokens[0]:
            out.add(tokens[0])
        out |= _joins(words)
    elif len(words) == 3:
        if tokens[1]:
            out.add(tokens[1])
        out |= _joins([words[0], words[2]])
        out |= _joins([words[1], words[2]])
    else:
        out |= _joins(words)
    if not out:
        token = normalize_component(pvc.name)
        out = {token} if token else {"-"}
    return out


def app_version_candidates(pvc: Pvc) -> set[str]:
    """display_version when present, plus version strings found in the
    name; "-" when neither yields anything."""
    out: set[str] = set()
    if pvc.display_version:
        token = normalize_component(pvc.display_version)
        if token:
            out.add(token)
    out |= extract_versions_from_text(pvc.name)
    return out or {"-"}


def cartesian_expand(candidates: ComponentCandidates) -> set[CpeName]:
    """Expand per-field candidate sets into concrete CPE names.

    Every (platform, vendor, product, version) tuple is emitted; updates,
    editions, and languages deepen the name only when their sets are
    non-empty, and expansion stops at the first empty one. Output size is
    exactly len(candidates).
    """
    out: set[CpeName] = set()
    base = itertools.product(candidates.platforms, candidates.vendors,
                             candidates.products, candidates.versions)
    for p, v, pr, vr in base:
        if not candidates.updates:
            out.add(CpeName(part=p, vendor=v, product=pr, version=vr))
            continue
        for u in candidates.updates:
            if not candidates.editions:
                out.add(CpeName(part=p, vendor=v, product=pr, version=vr, update=u))
                continue
            for e in candidates.editions:
                if not candidates.languages:
                    out.add(CpeName(part=p, vendor=v, product=pr, version=vr,
                                    update=u, edition=e))
                    continue
                for lang in candidates.languages:
                    out.add(CpeName(part=p, vendor=v, product=pr, version=vr,
                                    update=u, edition=e, language=lang))
    return out


def generate_cpes(pvc: Pvc, index: GenerationIndex) -> ComponentCandidates:
    """The candidate sets for one component, by kind. Deterministic; the
    expansion is never empty."""
    if pvc.kind is PvcKind.OPERATING_SYSTEM:
        vendors = os_vendor_candidates(pvc, index)
        if not vendors:
            vendors = set(index.known_vendors)
        if not vendors:
            vendors = word_combinations(pvc.name)
        return ComponentCandidates(
            platforms=frozenset({"o"}),
            vendors=frozenset(vendors),
            products=frozenset(os_product_candidates(pvc)),
            versions=frozenset(os_version_candidates(pvc)),
            updates=frozenset(os_update_candidates(pvc)),
        )
    platform = "a" if pvc.kind is PvcKind.APPLICATION else "h"
    return ComponentCandidates(
        platforms=frozenset({platform}),
        vendors=frozenset(app_vendor_candidates(pvc)),
        products=frozenset(app_product_candidates(pvc, index)),
        versions=frozenset(app_version_candidates(pvc)),
    )
