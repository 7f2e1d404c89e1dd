"""The benchmark's generator: planted truth equals the all-pairs oracle, and
one seed always yields identical files.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from invscan.db import VulnDatabase  # noqa: E402
from invscan.generation import generate_cpes  # noqa: E402
from invscan.inventory import inventory_from_dict  # noqa: E402
from invscan.server import run_update  # noqa: E402


def _oracle():
    """brute_force_match from the project's tests/conftest.py, the
    defining matching semantics."""
    spec = importlib.util.spec_from_file_location("invscan_tests_conftest",
                                                  ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_force_match


def test_planted_truth_equals_all_pairs_oracle(tmp_path):
    brute_force_match = _oracle()
    generated = corpus.Corpus(7, corpus.TINY)
    generated.write(tmp_path)
    database = VulnDatabase(str(tmp_path / "db.sqlite"))
    run_update(database, str(tmp_path / "feeds"))
    snapshot = database.snapshot()
    inventories = generated.inventories("oracle", 6, unknown_every=4, unknown_offset=1)
    assert sum(unknown for _, _, unknown in inventories) == 2
    checked = nonempty = 0
    for doc, truth, _unknown in inventories:
        inventory = inventory_from_dict(doc)
        assert len(truth) == len(inventory.pvcs)
        for pvc, planted in zip(inventory.pvcs, truth):
            found = brute_force_match(snapshot.records, generate_cpes(pvc, snapshot.gen_index))
            assert sorted(found) == planted, pvc
            checked += 1
            nonempty += bool(planted)
    assert checked == 6 * (1 + corpus.TINY.apps_per_inventory)
    # The check means something only if components do have planted CVEs.
    assert nonempty >= 6
    database.close()


def _digest_tree(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_one_seed_yields_identical_files(tmp_path):
    digests = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        generated = corpus.Corpus(seed, corpus.TINY)
        generated.write(tmp_path / label)
        corpus.write_inventories(generated.inventories("cold_fleet", 4, 3, 1),
                                 tmp_path / label / "inventories")
        digests.append(_digest_tree(tmp_path / label))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
