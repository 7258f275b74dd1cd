"""Incremental recompilation through :class:`RuleRepository`."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro.cache import DiskRuleCache
from repro.crysl import CrySLError, RuleRepository
from repro.diagnostics import (
    COMPILED_HITS,
    COMPILED_MISSES,
    DFA_BUILDS,
    DISK_HITS,
)

RULES_DIR = Path("src/repro/rules")


@pytest.fixture()
def rules_copy(tmp_path):
    """A private, editable copy of the bundled rule directory."""
    directory = tmp_path / "rules"
    directory.mkdir()
    for path in sorted(RULES_DIR.glob("*.crysl")):
        shutil.copy(path, directory / path.name)
    return directory


def _compile_all(ruleset) -> None:
    for rule in ruleset:
        ruleset.compiled(rule)


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


class TestRefresh:
    def test_clean_refresh_is_not_dirty(self, rules_copy):
        repo = RuleRepository(rules_copy)
        report = repo.refresh()
        assert not report.dirty
        assert report.unchanged == len(list(rules_copy.glob("*.crysl")))
        assert repo.refreshes == 1

    def test_mtime_touch_without_content_change_is_unchanged(self, rules_copy):
        repo = RuleRepository(rules_copy)
        before = repo.ruleset
        target = rules_copy / "SecureRandom.crysl"
        os.utime(target, ns=(12345, 10**18))
        report = repo.refresh()
        assert not report.dirty
        assert repo.ruleset is before  # same snapshot object

    def test_edit_recompiles_exactly_one_rule(self, rules_copy):
        repo = RuleRepository(rules_copy)
        _compile_all(repo.ruleset)

        _edit(
            rules_copy / "SecretKeySpec.crysl",
            "generated_key[this, cipher_algorithm]",
            "generated_key[this, cipher_algorithm] ",
        )
        report = repo.refresh()
        assert report.changed == ("repro.jca.SecretKeySpec",)
        assert not report.added and not report.removed

        successor = repo.ruleset
        _compile_all(successor)
        stats = successor.diagnostics
        # Exactly the edited rule went cold; every carried entry hit.
        assert stats.counter(COMPILED_MISSES) == 1
        assert stats.counter(COMPILED_HITS) == len(successor) - 1

    def test_dependents_relink_on_edit(self, rules_copy):
        repo = RuleRepository(rules_copy)
        _compile_all(repo.ruleset)
        cipher = repo.ruleset.compiled("Cipher")
        # Force Cipher's memoised predicate-link tables to exist.
        assert cipher.ensures_by_name

        _edit(
            rules_copy / "SecretKeySpec.crysl",
            "generated_key[this, cipher_algorithm]",
            "generated_key[this, cipher_algorithm] ",
        )
        report = repo.refresh()
        # Cipher REQUIRES generated_key, which SecretKeySpec ENSURES.
        assert "repro.jca.Cipher" in report.relinked

        successor = repo.ruleset
        carried = successor.compiled("Cipher")
        assert carried is cipher  # artefacts carried, not recompiled
        assert carried._ensures_by_name is None  # memos dropped

    def test_added_and_removed_files(self, rules_copy):
        repo = RuleRepository(rules_copy)
        count = len(repo.ruleset)

        source = (rules_copy / "SecureRandom.crysl").read_text(encoding="utf-8")
        (rules_copy / "SecureRandom.crysl").unlink()
        report = repo.refresh()
        assert report.removed == ("repro.jca.SecureRandom",)
        assert len(repo.ruleset) == count - 1
        assert "SecureRandom" not in repo.ruleset

        (rules_copy / "SecureRandom.crysl").write_text(source, encoding="utf-8")
        report = repo.refresh()
        assert report.added == ("repro.jca.SecureRandom",)
        assert len(repo.ruleset) == count

    def test_broken_edit_keeps_previous_snapshot(self, rules_copy):
        repo = RuleRepository(rules_copy)
        before = repo.ruleset
        target = rules_copy / "SecureRandom.crysl"
        target.write_text("SPEC ???", encoding="utf-8")
        with pytest.raises(CrySLError):
            repo.refresh()
        assert repo.ruleset is before
        assert "SecureRandom" in repo.ruleset


class TestDiskCache:
    def test_unchanged_rules_warm_start_from_disk(self, rules_copy, tmp_path):
        cache = DiskRuleCache(tmp_path / "cache")
        first = RuleRepository(rules_copy, disk_cache=cache)
        _compile_all(first.ruleset)
        for rule in first.ruleset:
            first.ruleset.compiled(rule).paths  # force the artefacts
        first.ruleset.flush_disk_cache()

        # A fresh repository (a new process, in effect) over the same
        # directory and cache loads every rule from disk: no DFA builds.
        second = RuleRepository(rules_copy, disk_cache=cache)
        _compile_all(second.ruleset)
        for rule in second.ruleset:
            second.ruleset.compiled(rule).paths
        stats = second.ruleset.diagnostics
        assert stats.counter(DISK_HITS) == len(second.ruleset)
        assert stats.counter(DFA_BUILDS) == 0

    def test_cache_travels_across_refreshes(self, rules_copy, tmp_path):
        cache = DiskRuleCache(tmp_path / "cache")
        repo = RuleRepository(rules_copy, disk_cache=cache)
        _edit(
            rules_copy / "SecureRandom.crysl",
            "ENSURES",
            "ENSURES ",
        )
        repo.refresh()
        assert repo.ruleset.disk_cache is cache
