"""CPE name parsing, formatting, normalization, and matching."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from invscan.cpe import (PARTS, CpeError, CpeName, cpe_matches, format_cpe_fields,
                         normalize_component, split_cpe_uri)
from conftest import SPACES, cpe_segment, seed_format_cpe_uri, seed_parse_cpe_uri

# token alphabet kept small so random pairs actually collide
TOKENS = ["alpha", "beta", "gamma", "1.0", "2.0", "x64", "en", None]

component_strategy = st.sampled_from(TOKENS)
name_strategy = st.builds(
    CpeName,
    part=st.sampled_from(["o", "a", "h"]),
    vendor=component_strategy,
    product=component_strategy,
    version=component_strategy,
    update=component_strategy,
    edition=component_strategy,
    language=component_strategy,
)


def test_parse_full_uri():
    assert split_cpe_uri("cpe:/o:microsoft:windows_xp:5.1.2600:sp3") == (
        "o", "microsoft", "windows_xp", "5.1.2600", "sp3", None, None)


def test_parse_truncated_uri():
    fields = split_cpe_uri("cpe:/a:adobe:reader")
    assert fields == ("a", "adobe", "reader", None, None, None, None)
    assert format_cpe_fields(fields) == "cpe:/a:adobe:reader"


def test_parse_part_only():
    assert split_cpe_uri("cpe:/h") == ("h", *(None,) * 6)


def test_parse_interior_empty_component():
    fields = split_cpe_uri("cpe:/a::reader:9.0")
    assert fields[1:3] == (None, "reader")
    # interior gap is preserved on the way back out
    assert format_cpe_fields(fields) == "cpe:/a::reader:9.0"


def test_parse_rejects_bad_prefix():
    with pytest.raises(CpeError):
        split_cpe_uri("cpe:2.3:a:adobe:reader")
    with pytest.raises(CpeError):
        split_cpe_uri("not a cpe at all")


def test_parse_rejects_bad_part():
    with pytest.raises(CpeError) as err:
        split_cpe_uri("cpe:/x:vendor:product")
    assert "part" in str(err.value)


def test_parse_rejects_too_many_components():
    with pytest.raises(CpeError) as err:
        split_cpe_uri("cpe:/a:1:2:3:4:5:6:7")
    assert "7" in str(err.value)


def test_format_truncates_trailing_unspecified():
    assert format_cpe_fields(("a", "adobe", "reader", None, None, None, None)) == \
        "cpe:/a:adobe:reader"


def test_normalize_component():
    assert normalize_component("Windows XP") == "windows_xp"
    assert normalize_component("  Mixed\tCase  ") == "mixed_case"
    assert normalize_component("a:b") == "ab"
    assert normalize_component("") is None
    assert normalize_component(None) is None


def test_normalize_idempotent():
    for raw in ["Windows XP", "a:b", "plain", "5.1.2600"]:
        once = normalize_component(raw)
        assert normalize_component(once) == once


def _regex_normalize(value):
    """The regex form normalize_component replaced, kept as its oracle."""
    value = re.sub(r"\s+", "_", value.strip().lower()).replace(":", "")
    return value or None


@given(st.text(st.one_of(st.characters(), st.sampled_from(SPACES + ":İẞ"))))
def test_normalize_matches_the_regex_form(raw):
    assert normalize_component(raw) == _regex_normalize(raw)


_PART = st.sampled_from(PARTS * 3 + ("A", " o\t", "x", "", "*", "İ"))
_CPE22 = st.builds(lambda part, rest: "cpe:/" + ":".join([part, *rest]),
                   _PART, st.lists(cpe_segment, max_size=7))
cpe22_text = st.one_of(_CPE22, _CPE22, _CPE22, st.text(st.sampled_from("cpe:/aZ *"), max_size=8))


def _outcome(function, *args):
    try:
        return function(*args)
    except CpeError as exc:
        return ("CpeError", str(exc))


@given(cpe22_text)
def test_string_path_equals_parse_then_format(text):
    """A dictionary line's canonical URI and fields, straight from the
    text, equal the seed's parse-then-format, and fail alike."""
    expected = _outcome(lambda t: seed_format_cpe_uri(seed_parse_cpe_uri(t)), text)
    assert _outcome(lambda t: format_cpe_fields(split_cpe_uri(t)), text) == expected
    assert (_outcome(lambda t: CpeName(*split_cpe_uri(t)), text)
            == _outcome(seed_parse_cpe_uri, text))


def test_name_rejects_unnormalized_components():
    with pytest.raises(CpeError):
        CpeName(part="a", vendor="has space")
    with pytest.raises(CpeError):
        CpeName(part="a", vendor="has:colon")
    with pytest.raises(CpeError, match="language"):
        CpeName(part="a", vendor="ok", language="no\u00a0break")
    with pytest.raises(CpeError):
        CpeName(part="q")


@given(name_strategy)
def test_parse_format_round_trip(name):
    fields = (name.part, *name.components())
    assert split_cpe_uri(format_cpe_fields(fields)) == fields


def test_match_any_on_either_side():
    stored = CpeName(*split_cpe_uri("cpe:/o:microsoft:windows_xp"))
    query = CpeName(*split_cpe_uri("cpe:/o:microsoft:windows_xp:5.1.2600:sp3"))
    assert cpe_matches(query, stored)
    assert cpe_matches(stored, query)


def test_match_requires_equal_part():
    assert not cpe_matches(CpeName("a", "adobe", "reader"), CpeName("o", "adobe", "reader"))


def test_match_specified_values_must_agree():
    assert not cpe_matches(CpeName("a", "adobe", "reader", "9.0"),
                           CpeName("a", "adobe", "reader", "10.0"))


def _oracle_match(a: CpeName, b: CpeName) -> bool:
    # spelled out literally, component by component
    if a.part != b.part:
        return False
    pairs = [
        (a.vendor, b.vendor),
        (a.product, b.product),
        (a.version, b.version),
        (a.update, b.update),
        (a.edition, b.edition),
        (a.language, b.language),
    ]
    for left, right in pairs:
        if left is None or right is None:
            continue
        if left != right:
            return False
    return True


def test_match_matrix_against_oracle(rng: random.Random):
    def random_name() -> CpeName:
        return CpeName(
            part=rng.choice(["o", "a", "h"]),
            vendor=rng.choice(TOKENS),
            product=rng.choice(TOKENS),
            version=rng.choice(TOKENS),
            update=rng.choice(TOKENS),
            edition=rng.choice(TOKENS),
            language=rng.choice(TOKENS),
        )

    names = [random_name() for _ in range(1200)]
    agreements = 0
    for _ in range(5000):
        a, b = rng.choice(names), rng.choice(names)
        assert cpe_matches(a, b) == _oracle_match(a, b), (a, b)
        agreements += 1
    assert agreements == 5000


@given(name_strategy, name_strategy)
def test_match_is_symmetric(a, b):
    assert cpe_matches(a, b) == cpe_matches(b, a)


@given(name_strategy)
def test_every_name_matches_itself_and_bare_part(name):
    assert cpe_matches(name, name)
    assert cpe_matches(name, CpeName(part=name.part))
