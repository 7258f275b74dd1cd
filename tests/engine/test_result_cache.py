"""The engine's generate-result cache (an :class:`repro.cache.LRUCache`
keyed by :class:`repro.engine.ResultKey`); the LRU contract itself is
in ``tests/cache/test_lru.py``."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.crysl import RuleSet
from repro.engine import CryptoGenEngine, GenerateRequest
from repro.usecases import use_case

TEMPLATE = str(use_case(1).template_path())


def variant(engine, tag):
    """Generate the template as inline source, made distinct by ``tag``."""
    source = Path(TEMPLATE).read_text(encoding="utf-8") + f"\n# {tag}\n"
    return engine.generate(GenerateRequest(source=source, name="t.py"))


class TestResultCacheUnit:
    def test_lru_eviction_order(self):
        engine = CryptoGenEngine(
            ruleset=RuleSet.bundled(), result_cache_size=2
        )
        variant(engine, "a")
        variant(engine, "b")
        assert variant(engine, "a").cached  # refresh 'a' to most-recent
        variant(engine, "c")  # overflows: 'b' is now the LRU victim
        assert engine.result_cache.evictions == 1
        assert variant(engine, "a").cached and variant(engine, "c").cached
        assert not variant(engine, "b").cached
        engine.close()

    def test_clear(self):
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        variant(engine, "a")
        variant(engine, "b")
        assert engine.result_cache.clear() == 2
        assert len(engine.result_cache) == 0
        assert not variant(engine, "a").cached
        engine.close()


class TestEngineIntegration:
    def test_repeat_generate_is_a_hit_with_zero_builds(self):
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        first = engine.generate(GenerateRequest(template=TEMPLATE))
        assert first.ok and not first.cached
        second = engine.generate(GenerateRequest(template=TEMPLATE))
        assert second.ok and second.cached
        assert second.dfa_builds == 0
        assert second.module is first.module
        assert engine.result_cache.hits == 1
        assert engine.diagnostics.counter("result_cache.hits") == 1
        # The hit's trace says where the answer came from.
        names = [s["name"] for s in second.trace.to_dict()["spans"]]
        assert "result-cache:hit" in names
        engine.close()

    def test_distinct_options_are_distinct_keys(self):
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        engine.generate(GenerateRequest(template=TEMPLATE))
        verified = engine.generate(
            GenerateRequest(template=TEMPLATE, verify=True)
        )
        # Same template, different effective options: not a hit.
        assert not verified.cached
        engine.close()

    def test_inline_source_keyed_by_content(self):
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        source = Path(TEMPLATE).read_text(encoding="utf-8")
        first = engine.generate(GenerateRequest(source=source, name="t.py"))
        repeat = engine.generate(GenerateRequest(source=source, name="t.py"))
        edited = engine.generate(
            GenerateRequest(source=source + "\n# edited\n", name="t.py")
        )
        assert first.ok and not first.cached
        assert repeat.cached
        assert not edited.cached
        engine.close()

    def test_errors_are_never_cached(self):
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        for _ in range(2):
            result = engine.generate(
                GenerateRequest(source="not a template", name="bad.py")
            )
            assert not result.ok
            assert not result.cached
        assert engine.result_cache.hits == 0
        engine.close()

    def test_refresh_rules_invalidates(self, tmp_path):
        rules = tmp_path / "rules"
        rules.mkdir()
        for path in sorted(Path("src/repro/rules").glob("*.crysl")):
            shutil.copy(path, rules / path.name)
        engine = CryptoGenEngine(rules_dir=rules)
        engine.generate(GenerateRequest(template=TEMPLATE))
        assert engine.generate(GenerateRequest(template=TEMPLATE)).cached

        target = rules / "SecureRandom.crysl"
        text = target.read_text(encoding="utf-8")
        target.write_text(
            text.replace("ENSURES", "ENSURES "), encoding="utf-8"
        )
        report = engine.refresh_rules()
        assert report.dirty
        assert len(engine.result_cache) == 0  # dropped on rebuild
        after = engine.generate(GenerateRequest(template=TEMPLATE))
        assert after.ok and not after.cached  # regenerated under new rules
        assert engine.generate(GenerateRequest(template=TEMPLATE)).cached
        engine.close()

    def test_capacity_zero_engine_never_caches(self):
        engine = CryptoGenEngine(
            ruleset=RuleSet.bundled(), result_cache_size=0
        )
        engine.generate(GenerateRequest(template=TEMPLATE))
        repeat = engine.generate(GenerateRequest(template=TEMPLATE))
        assert not repeat.cached
        assert engine.result_cache.hits == 0
        engine.close()
