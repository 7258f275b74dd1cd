"""The engine's generate-result cache (an :class:`repro.cache.LRUCache`
keyed by :class:`repro.engine.ResultKey`); the LRU contract itself is
in ``tests/cache/test_lru.py``."""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.crysl import RuleSet
from repro.engine import BreakerConfig, CryptoGenEngine, GenerateRequest
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
        assert engine.result_cache.count("evictions") == 1
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
        assert engine.result_cache.count("hits") == 1
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
        assert engine.result_cache.count("hits") == 0
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
        assert engine.result_cache.count("hits") == 0
        engine.close()


class TestTemplateReadOnce:
    """A template file is read once per request: its digest keys both
    the result cache and the breaker, and its bytes are what runs."""

    TEMPLATES = Path(TEMPLATE).parent

    def test_save_during_a_request_cannot_poison_the_cache(
        self, tmp_path, monkeypatch
    ):
        hashing = (self.TEMPLATES / "string_hashing.py").read_bytes()
        symmetric = (self.TEMPLATES / "symmetric_encryption.py").read_bytes()
        target = tmp_path / "template.py"
        target.write_bytes(hashing)
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        expected = engine.generate(
            GenerateRequest(template=str(self.TEMPLATES / "string_hashing.py"))
        ).module
        admit = engine.breakers.admit
        saved = []

        def save_then_admit(key):
            # An editor save lands after the request keyed its input and
            # before the pipeline ran.
            if not saved:
                target.write_bytes(symmetric)
                saved.append(key)
            admit(key)

        monkeypatch.setattr(engine.breakers, "admit", save_then_admit)
        first = engine.generate(GenerateRequest(template=str(target)))
        assert saved and first.ok and not first.cached
        target.write_bytes(hashing)
        second = engine.generate(GenerateRequest(template=str(target)))
        assert second.cached
        for result in (first, second):
            assert result.module.output_class == expected.output_class
            assert result.module.template_class == expected.template_class
        engine.close()

    def test_decodes_like_read_text(self, tmp_path):
        """Strict UTF-8 with universal newlines: CRLF and CR templates
        generate byte-identical code to the LF original."""
        from repro.codegen import CrySLBasedCodeGenerator

        text = Path(TEMPLATE).read_text(encoding="utf-8")
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        for newline in ("\r\n", "\r"):
            path = tmp_path / f"t{len(newline)}.py"
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            result = engine.generate(GenerateRequest(template=str(path)))
            direct = CrySLBasedCodeGenerator().generate_from_file(path)
            assert result.ok
            assert result.module.source == direct.source
        engine.close()

    def test_unreadable_path_keeps_its_error_and_breaker_key(self):
        engine = CryptoGenEngine(
            ruleset=RuleSet.bundled(),
            breaker_config=BreakerConfig(failure_threshold=1),
        )
        missing = "/nonexistent/tpl.py"
        result = engine.generate(GenerateRequest(template=missing))
        assert result.error.type == "FileNotFoundError"
        assert missing in result.error.message
        fingerprint = hashlib.sha256(f"path:{missing}".encode()).hexdigest()
        assert engine.breakers.state_of(("generate", fingerprint)) == "open"
        engine.close()
