"""CPE 2.2 URI names: normalization, parsing to and formatting from the
field tuple (part, vendor, ..., language) the store and matcher use, and
the reference matching rule (cpe_matches over CpeName) they must equal.

A name looks like ``cpe:/o:microsoft:windows_xp:5.1.2600:sp3``. The part
letter ('o' = operating system, 'a' = application, 'h' = hardware) is
followed by up to six components: vendor, product, version, update,
edition, language. A missing (or empty) component is unspecified and
matches anything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


PARTS = ("o", "a", "h")

# A character no normalized component value holds.
_UNNORMALIZED_RE = re.compile(r"[\s:]")


class CpeError(ValueError):
    """Raised for malformed CPE URIs or invalid component values."""


def normalize_component(value: str | None) -> str | None:
    """Normalize a raw component value into its canonical token.

    Lowercases, replaces internal whitespace runs with underscores, and
    strips ':' (the URI separator, which can never appear inside a
    component). An empty or None value normalizes to None (unspecified).
    Idempotent.
    """
    if value is None:
        return None
    value = "_".join(value.lower().split()).replace(":", "")
    return value or None


@dataclass(frozen=True)
class CpeName:
    """A structured CPE 2.2 name. Component value None means unspecified."""

    part: str
    vendor: str | None = None
    product: str | None = None
    version: str | None = None
    update: str | None = None
    edition: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        check_cpe_fields(self.part, *self.components())

    def components(self) -> tuple[str | None, ...]:
        return (self.vendor, self.product, self.version,
                self.update, self.edition, self.language)


_COMPONENT_FIELDS = ("vendor", "product", "version", "update", "edition", "language")


def check_cpe_fields(part: str, *components: str | None) -> None:
    """Raise CpeError unless part is a CPE part and each component
    (vendor first, as many as given) is unspecified or normalized."""
    if part not in PARTS:
        raise CpeError(f"invalid part {part!r}: must be one of {PARTS}")
    for field, value in zip(_COMPONENT_FIELDS, components):
        if value is not None and _UNNORMALIZED_RE.search(value):
            raise CpeError(f"component {field}={value!r} not normalized")


def normalize_all(values: list[str | None], text: str) -> list[str | None]:
    """normalize_component of each value, where every value is a piece of
    text holding no ':'. Lower-case text free of whitespace holds only
    characters that normalization keeps, so each value is then its own
    normal form (isprintable() is False for every whitespace character
    but ' ')."""
    if text.lower() == text and " " not in text and text.isprintable():
        return [value or None for value in values]
    return [normalize_component(value) for value in values]


def split_cpe_uri(text: str) -> tuple[str | None, ...]:
    """The part and six normalized component values of a CPE 2.2 URI,
    the components unspecified (None) where empty or omitted.

    Raises CpeError naming the offending segment on malformed input.
    """
    if not text.startswith("cpe:/"):
        raise CpeError(f"not a CPE 2.2 URI (expected 'cpe:/' prefix): {text!r}")
    body = text[len("cpe:/"):]
    segments = body.split(":")
    part = segments[0].strip().lower()
    if part not in PARTS:
        raise CpeError(f"invalid part segment {segments[0]!r} in {text!r}")
    if len(segments) > 7:
        raise CpeError(
            f"too many components ({len(segments) - 1} > 6), "
            f"starting at segment {segments[7]!r} in {text!r}"
        )
    return (part, *normalize_all(segments[1:], body), *(None,) * (7 - len(segments)))


def format_cpe_fields(fields) -> str:
    """The shortest CPE 2.2 URI of (part, vendor, ..., language).

    Trailing unspecified components are truncated; interior ones are kept
    as empty segments so split(format(f)) == f. No set value holds ':',
    and an empty one formats as unspecified.
    """
    return ("cpe:/" + ":".join([value or "" for value in fields])).rstrip(":")


def cpe_matches(generated: CpeName, applicability: CpeName) -> bool:
    """True when the two names are compatible.

    Parts must be equal; each of the six components matches when either
    side is unspecified or the values are equal. Symmetric.
    """
    if generated.part != applicability.part:
        return False
    for a, b in zip(generated.components(), applicability.components()):
        if a is not None and b is not None and a != b:
            return False
    return True
