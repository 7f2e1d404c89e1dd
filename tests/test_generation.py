"""Candidate generation heuristics and the cartesian expansion."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from invscan import generation
from invscan.cpe import CpeName, format_cpe_fields, split_cpe_uri
from invscan.generation import (ComponentCandidates, GenerationIndex, _subsequence_joins,
                                abbreviate_name, app_product_candidates,
                                app_vendor_candidates, app_version_candidates,
                                build_index_from_fields, cartesian_expand,
                                extract_versions_from_text, generate_cpes,
                                is_version_token, os_product_candidates,
                                os_update_candidates, os_vendor_candidates,
                                os_version_candidates, word_combinations)
from invscan.inventory import InventoryError, Pvc, PvcKind, pvc_from_dict
from conftest import seed_joins, seed_subsequence_joins


def _index(*uris) -> GenerationIndex:
    return build_index_from_fields([split_cpe_uri(u)[:3] for u in uris])


def os_pvc(name, **kw) -> Pvc:
    return Pvc(kind=PvcKind.OPERATING_SYSTEM, name=name, **kw)


def app_pvc(name, **kw) -> Pvc:
    return Pvc(kind=PvcKind.APPLICATION, name=name, **kw)


# -- word level -------------------------------------------------------------

def test_word_combinations_two_words():
    assert word_combinations("windows xp") == {"windowsxp", "windows_xp", "windows-xp"}


def test_word_combinations_three_words():
    assert word_combinations("vlc media player") == {
        "vlcmediaplayer", "vlc_media_player", "vlc-media-player"}


def test_word_combinations_single_word():
    assert word_combinations("java") == {"java"}


def test_word_combinations_normalizes_case():
    assert word_combinations("Windows XP") == {"windowsxp", "windows_xp", "windows-xp"}


def test_abbreviate_drops_version_words():
    assert abbreviate_name(["media", "player", "classic"]) == {"mpc"}
    # the version word never reaches the abbreviation the dictionary confirms
    assert app_product_candidates(app_pvc("media player classic 12.5"),
                                  _index("cpe:/a:gabest:mpc")) == {"mpc"}


def test_abbreviate_single_word_is_empty():
    assert abbreviate_name(["windows"]) == set()


def test_abbreviate_three_words():
    assert abbreviate_name(["visual", "studio", "code"]) == {"vsc"}


@pytest.mark.parametrize("word,expected", [
    ("12.5", True),
    ("7", True),
    ("1.2.3.4", True),
    ("update", False),
    ("v7", False),
    ("7a", False),
    ("1..2", False),
])
def test_is_version_token(word, expected):
    assert is_version_token(word) is expected


def test_extract_versions_needs_a_dot():
    assert extract_versions_from_text("CPUID 1.82.2") == {"1.82.2"}
    assert extract_versions_from_text("notepad") == set()
    assert extract_versions_from_text("app 1.2 and 3.4.5") == {"1.2", "3.4.5"}
    # bare integers are not versions in free text
    assert extract_versions_from_text("java 7") == set()


# -- OS conventions -----------------------------------------------------------

def test_os_vendor_windows_always_microsoft():
    assert os_vendor_candidates(os_pvc("windows 10"), GenerationIndex()) == {"microsoft"}
    assert os_vendor_candidates(os_pvc("Windows Server 2008"), GenerationIndex()) == {"microsoft"}


def test_os_vendor_android_family_from_dictionary():
    index = _index("cpe:/o:google:android:8.0",
                   "cpe:/o:motorola:android:4.1.2",
                   "cpe:/o:codeaurora:android-msm")
    assert os_vendor_candidates(os_pvc("android"), index) == {
        "google", "motorola", "codeaurora"}


def test_os_vendor_android_vendor_hint_narrows():
    index = _index("cpe:/o:google:android:8.0", "cpe:/o:motorola:android:4.1.2")
    assert os_vendor_candidates(os_pvc("android", vendor="Motorola"), index) == {"motorola"}


def test_os_vendor_apple_products():
    index = _index("cpe:/o:apple:mac_os_x:10.6")
    assert os_vendor_candidates(os_pvc("Mac OS X"), index) == {"apple"}


def test_os_vendor_linux_reflection():
    index = _index("cpe:/o:canonical:ubuntu_linux:18.04")
    assert os_vendor_candidates(os_pvc("ubuntu linux"), index) == {"canonical"}


def test_os_vendor_known_vendor_match():
    index = _index("cpe:/o:xyzcorp:xyz_os:1.0")
    assert os_vendor_candidates(os_pvc("anything", vendor="XyzCorp"), index) == {"xyzcorp"}


def test_os_vendor_product_reflection_last():
    index = _index("cpe:/o:somevend:plan9:4")
    assert os_vendor_candidates(os_pvc("plan9"), index) == {"somevend"}


def test_os_vendor_no_signal_is_empty():
    assert os_vendor_candidates(os_pvc("mysteryos"), GenerationIndex()) == set()


def test_os_product_is_word_combinations():
    assert os_product_candidates(os_pvc("windows xp")) == {
        "windowsxp", "windows_xp", "windows-xp"}


def test_os_versions_full_parts():
    got = os_version_candidates(os_pvc("anyos", major=10, minor=1,
                                       build=2991, revision=5000))
    assert got >= {"10.1.2991", "5000", "10.1.2991.5000", "10.1", "2991", "-"}


def test_os_versions_no_parts():
    assert os_version_candidates(os_pvc("plan9")) == {"-", "plan9"}


def test_os_versions_windows_xp_build():
    got = os_version_candidates(os_pvc("windows xp", major=5, minor=1, build=2600))
    assert "5.1.2600" in got


def test_os_update_service_pack_abbreviation():
    assert os_update_candidates(os_pvc("x", service_pack="service pack 3")) == {"sp3"}
    assert os_update_candidates(os_pvc("x", service_pack="Service Pack 1")) == {"sp1"}
    assert os_update_candidates(os_pvc("x")) == set()


# -- app conventions ----------------------------------------------------------

def test_app_vendor_from_publisher():
    assert "adobe" in app_vendor_candidates(app_pvc("Reader", publisher="Adobe"))


def test_app_vendor_first_word():
    assert app_vendor_candidates(app_pvc("Adobe Reader")) == {"adobe"}


def test_app_vendor_two_word_joins():
    got = app_vendor_candidates(app_pvc("Acme solutions paint"))
    assert got >= {"acmesolutions", "acme_solutions", "acme-solutions"}
    assert "acme" in got


def test_app_vendor_single_word_falls_back_to_name():
    assert app_vendor_candidates(app_pvc("notepad")) == {"notepad"}


def test_app_product_dictionary_hit_wins():
    index = _index("cpe:/a:microsoft:visual_studio:14.0")
    got = app_product_candidates(app_pvc("visual studio 14.1"), index)
    assert got == ({"visualstudio", "visual-studio", "visual_studio"}
                   & index.known_products)
    assert got == {"visual_studio"}


def test_app_product_single_word_screened():
    index = _index("cpe:/a:adobe:reader:9.0")
    assert app_product_candidates(app_pvc("Adobe Reader"), index) == {"reader"}


def test_app_product_two_nonversion_words():
    got = app_product_candidates(app_pvc("java 7 update 1"), GenerationIndex())
    assert "java" in got
    got = app_product_candidates(app_pvc("github desktop"), GenerationIndex())
    assert got >= {"githubdesktop", "github_desktop", "github-desktop"}


def test_app_product_three_nonversion_words():
    got = app_product_candidates(app_pvc("jetbrains resharper ultimate"),
                                 GenerationIndex())
    assert "resharper" in got
    # first+third and second+third joins
    assert got >= {"jetbrainsultimate", "jetbrains_ultimate", "jetbrains-ultimate"}
    assert got >= {"resharperultimate", "resharper_ultimate", "resharper-ultimate"}


def test_app_product_many_words_all_joined():
    got = app_product_candidates(app_pvc("one two three four"), GenerationIndex())
    assert got == {"onetwothreefour", "one_two_three_four", "one-two-three-four"}


def test_app_product_all_version_words():
    assert app_product_candidates(app_pvc("12.5"), GenerationIndex()) == {"12.5"}


def test_app_version_display_version_first():
    assert app_version_candidates(app_pvc("Reader", display_version="9.0")) == {"9.0"}


def test_app_version_from_name_text():
    assert app_version_candidates(app_pvc("CPUID 1.82.2")) == {"1.82.2"}


def test_app_version_fallback_dash():
    assert app_version_candidates(app_pvc("notepad")) == {"-"}


# -- cartesian expansion -------------------------------------------------------

def _oracle_expand(platforms, vendors, products, versions, updates, editions, languages):
    """Independent nested-loop expansion producing component tuples."""
    out = set()
    for p in platforms:
        for v in vendors:
            for pr in products:
                for vr in versions:
                    if not updates:
                        out.add((p, v, pr, vr))
                        continue
                    for u in updates:
                        if not editions:
                            out.add((p, v, pr, vr, u))
                            continue
                        for e in editions:
                            if not languages:
                                out.add((p, v, pr, vr, u, e))
                                continue
                            for lang in languages:
                                out.add((p, v, pr, vr, u, e, lang))
    return out


def _as_tuple(name: CpeName) -> tuple:
    parts = [name.part] + [c for c in name.components() if c is not None]
    return tuple(parts)


def _uri(name: CpeName) -> str:
    return format_cpe_fields((name.part, *name.components()))


def test_cartesian_singletons():
    c = ComponentCandidates(platforms=frozenset({"a"}), vendors=frozenset({"adobe"}),
                            products=frozenset({"reader"}), versions=frozenset({"9.0"}))
    assert {_uri(n) for n in cartesian_expand(c)} == {"cpe:/a:adobe:reader:9.0"}


def test_cartesian_with_update():
    c = ComponentCandidates(platforms=frozenset({"o"}), vendors=frozenset({"microsoft"}),
                            products=frozenset({"windows_xp"}),
                            versions=frozenset({"5.1.2600"}), updates=frozenset({"sp3"}))
    assert {_uri(n) for n in cartesian_expand(c)} == {
        "cpe:/o:microsoft:windows_xp:5.1.2600:sp3"}


def test_cartesian_count_12():
    c = ComponentCandidates(platforms=frozenset({"a"}),
                            vendors=frozenset({"v1", "v2"}),
                            products=frozenset({"p1", "p2", "p3"}),
                            versions=frozenset({"1", "2"}))
    assert len(cartesian_expand(c)) == 12


def test_cartesian_rejects_empty_required_set():
    with pytest.raises(ValueError):
        ComponentCandidates(platforms=frozenset({"a"}), vendors=frozenset(),
                            products=frozenset({"p"}), versions=frozenset({"1"}))


_tok = st.text(alphabet="abcdef", min_size=1, max_size=4)
_req = st.frozensets(_tok, min_size=1, max_size=3)
_opt = st.frozensets(_tok, max_size=2)


@settings(max_examples=200, deadline=None)
@given(platforms=st.frozensets(st.sampled_from(["o", "a", "h"]), min_size=1, max_size=2),
       vendors=_req, products=_req, versions=_req,
       updates=_opt, editions=_opt, languages=_opt)
def test_cartesian_matches_oracle_and_count(platforms, vendors, products,
                                            versions, updates, editions, languages):
    c = ComponentCandidates(platforms=platforms, vendors=vendors, products=products,
                            versions=versions, updates=updates, editions=editions,
                            languages=languages)
    got = cartesian_expand(c)
    assert len(c) == len(got)
    assert set(c) == got
    assert {_as_tuple(n) for n in got} == _oracle_expand(
        platforms, vendors, products, versions, updates, editions, languages)
    # the count formula presumes optional sets only deepen in order
    # (languages need editions need updates), which is every shape the
    # per-kind conventions actually produce
    monotone = ((not languages or editions) and (not editions or updates))
    if monotone:
        expected = (len(platforms) * len(vendors) * len(products) * len(versions)
                    * max(1, len(updates)) * max(1, len(editions))
                    * max(1, len(languages)))
        assert len(got) == expected


def test_cartesian_truncates_below_empty_update_set():
    # an edition/language without an update never reaches the output;
    # expansion stops at the first empty optional level
    c = ComponentCandidates(platforms=frozenset({"a"}), vendors=frozenset({"v"}),
                            products=frozenset({"p"}), versions=frozenset({"1"}),
                            updates=frozenset(), languages=frozenset({"en", "de"}))
    assert {_uri(n) for n in cartesian_expand(c)} == {"cpe:/a:v:p:1"}


# -- full generation ------------------------------------------------------------

def test_generate_windows_xp_sp3():
    pvc = os_pvc("windows xp", service_pack="service pack 3",
                 major=5, minor=1, build=2600)
    names = generate_cpes(pvc, GenerationIndex())
    assert CpeName(*split_cpe_uri("cpe:/o:microsoft:windows_xp:5.1.2600:sp3")) in names
    # the update convention fired, so every name carries it
    assert all(n.update == "sp3" for n in names)


def test_generate_adobe_reader():
    index = _index("cpe:/a:adobe:reader:9.0")
    names = generate_cpes(app_pvc("Adobe Reader", display_version="9.0"), index)
    assert CpeName(*split_cpe_uri("cpe:/a:adobe:reader:9.0")) in names


def test_generate_hardware_part():
    names = generate_cpes(Pvc(kind=PvcKind.HARDWARE, name="acme router",
                              display_version="1.0"), GenerationIndex())
    assert names
    assert all(n.part == "h" for n in names)


def test_generate_required_components_never_any():
    for pvc in [os_pvc("mystery thing"), app_pvc("strange app 1.2"),
                os_pvc("windows 10", major=10, minor=0, build=19041)]:
        for name in generate_cpes(pvc, GenerationIndex()):
            assert name.vendor is not None
            assert name.product is not None
            assert name.version is not None
            assert name.edition is None
            assert name.language is None


def test_generate_deterministic():
    index = _index("cpe:/a:adobe:reader:9.0", "cpe:/o:canonical:ubuntu_linux")
    pvc = app_pvc("Adobe Reader", display_version="9.0")
    assert generate_cpes(pvc, index) == generate_cpes(pvc, index)


def test_generate_never_empty_even_without_index():
    # vendor falls back through known vendors to the name itself
    names = generate_cpes(os_pvc("mysteryos"), GenerationIndex())
    assert names


# Words whose normal form needs more than ASCII lowering: ':' (stripped),
# upper case, Σ (lowered by its context), ς and σ, İ (lowered to two
# characters), ß and Ǆ; digits and '.' make version words.
_join_word = st.text(alphabet="aZ09.:ΣςσİßǄ", min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(_join_word, max_size=10), gap=st.sampled_from([" ", "  ", "\t"]),
       data=st.data())
def test_joins_equal_the_per_join_oracle(words, gap, data):
    """The joins, normalized in one pass, equal normalize_component of
    each join, and so does every candidate set built from them."""
    name = gap.join(words)
    assert _subsequence_joins(words) == seed_subsequence_joins(words)
    try:
        pvc = app_pvc(name)
    except InventoryError:  # a name with no usable characters
        pvc = None
    product_joins = seed_subsequence_joins(generation._nonversion_words(name))
    index = GenerationIndex(known_products=frozenset(
        data.draw(st.sets(st.sampled_from(sorted(product_joins)))) if product_joins else ()))

    def candidates():
        return (word_combinations(name),
                pvc and app_vendor_candidates(pvc), pvc and app_product_candidates(pvc, index))

    got = candidates()
    with mock.patch.object(generation, "_joins", seed_joins), \
            mock.patch.object(generation, "_subsequence_joins", seed_subsequence_joins):
        assert got == candidates()


# Names mix word characters with whitespace and ':', which normalization
# strips; any record the intake accepts must still yield a candidate name.
_intake_text = st.text(alphabet="aZ1.-_: \t\n\x1c\xa0", max_size=8)


@settings(max_examples=300, deadline=None)
@given(record=st.fixed_dictionaries(
    {"kind": st.sampled_from([kind.value for kind in PvcKind]), "name": _intake_text},
    optional={"vendor": _intake_text, "publisher": _intake_text,
              "display_version": _intake_text, "service_pack": _intake_text,
              "major": st.integers(0, 12), "minor": st.integers(0, 12),
              "build": st.integers(0, 9999), "revision": st.integers(0, 9)}))
def test_every_accepted_component_generates_a_name(record):
    try:
        pvc = pvc_from_dict(record)
    except InventoryError:
        return
    assert generate_cpes(pvc, GenerationIndex())
