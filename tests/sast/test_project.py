"""Whole-project interprocedural analysis: cross-file object flow,
summaries, deterministic findings, and the verify gate."""

from __future__ import annotations

import pytest

from repro.codegen import CrySLBasedCodeGenerator, VerificationError
from repro.sast import FindingKind, ProjectAnalyzer
from repro.usecases import USE_CASES

WRAPPER = """\
from repro.jca import Cipher


class CipherFactory:
    def make(self, transformation, key):
        c = Cipher.get_instance(transformation)
        c.init(1, key)
        return c

    def finish(self, cipher: Cipher, data):
        return cipher.do_final(data)
"""

USAGE = """\
from wrapper import CipherFactory


class Encryptor:
    def template_usage(self, key, data):
        factory = CipherFactory()
        cipher = factory.make('AES/GCM/NoPadding', key)
        return factory.finish(cipher, data)
"""


@pytest.fixture(scope="module")
def project_analyzer():
    return ProjectAnalyzer()


class TestCrossFileTracking:
    def test_wrapper_and_usage_split_across_files(self, project_analyzer):
        """A Cipher created inside a wrapper method and consumed in
        ``template_usage()`` from another module analyzes clean."""
        result = project_analyzer.analyze_sources(
            {"wrapper.py": WRAPPER, "usage.py": USAGE}
        )
        assert result.is_secure, result.render()
        assert result.tracked_objects >= 2

    def test_seeded_misuse_is_reported_across_files(self, project_analyzer):
        """Dropping the init() inside the wrapper surfaces at analysis
        time even though creation and use live in different files."""
        broken = WRAPPER.replace("        c.init(1, key)\n", "")
        result = project_analyzer.analyze_sources(
            {"wrapper.py": broken, "usage.py": USAGE}
        )
        assert not result.is_secure
        finding = result.findings[0]
        assert finding.kind in (
            FindingKind.TYPESTATE,
            FindingKind.INCOMPLETE_OPERATION,
        )
        # Every project finding carries file + line + column.
        assert finding.file in ("wrapper.py", "usage.py")
        assert finding.line > 0
        assert finding.column > 0

    def test_replay_failure_lands_at_the_call_site(self, project_analyzer):
        """Calling a helper whose summary replays an event the object's
        state rejects is reported where the call happens."""
        usage = USAGE.replace(
            "        return factory.finish(cipher, data)\n",
            "        out = factory.finish(cipher, data)\n"
            "        return factory.finish(cipher, data)\n",
        )
        result = project_analyzer.analyze_sources(
            {"wrapper.py": WRAPPER, "usage.py": usage}
        )
        typestate = [
            f for f in result.findings if f.kind is FindingKind.TYPESTATE
        ]
        assert typestate, result.render()
        assert typestate[0].file == "usage.py"
        assert "finish" in typestate[0].message

    def test_incomplete_returned_object_names_its_origin(
        self, project_analyzer
    ):
        usage = USAGE.replace(
            "        return factory.finish(cipher, data)\n", ""
        )
        result = project_analyzer.analyze_sources(
            {"wrapper.py": WRAPPER, "usage.py": usage}
        )
        incomplete = [
            f
            for f in result.findings
            if f.kind is FindingKind.INCOMPLETE_OPERATION
        ]
        assert incomplete, result.render()
        assert any("make" in f.message for f in incomplete)


class TestResultShape:
    def test_to_dict_keyed_by_module(self, project_analyzer):
        result = project_analyzer.analyze_sources(
            {"wrapper.py": WRAPPER, "usage.py": USAGE}
        )
        payload = result.to_dict()
        assert set(payload) == {"wrapper.py", "usage.py"}
        for entry in payload.values():
            assert entry["secure"] is True
            assert entry["findings"] == []

    def test_findings_dicts_carry_locations(self, project_analyzer):
        broken = WRAPPER.replace("        c.init(1, key)\n", "")
        result = project_analyzer.analyze_sources(
            {"wrapper.py": broken, "usage.py": USAGE}
        )
        dicts = [
            f
            for entry in result.to_dict().values()
            for f in entry["findings"]
        ]
        assert dicts
        for finding in dicts:
            assert finding["file"]
            assert finding["line"] > 0
            assert "column" in finding

    def test_diagnostics_counters_accumulate(self):
        analyzer = ProjectAnalyzer()
        analyzer.analyze_sources({"wrapper.py": WRAPPER, "usage.py": USAGE})
        counters = analyzer.diagnostics.counters
        assert counters["analysis.modules"] == 2
        assert counters["analysis.functions"] >= 3
        assert counters["analysis.call_edges"] >= 2
        assert counters["analysis.summaries"] >= 3


class TestDeterminism:
    SOURCES = {
        "wrapper.py": WRAPPER,
        "usage.py": USAGE.replace(
            "        return factory.finish(cipher, data)\n", ""
        ),
        "solo.py": (
            "from repro.jca import MessageDigest\n"
            "def digest(data):\n"
            "    md = MessageDigest.get_instance('MD5')\n"
            "    return md.digest(data)\n"
        ),
    }

    def test_findings_sorted_within_module(self):
        result = ProjectAnalyzer().analyze_sources(self.SOURCES)
        for module_result in result.modules.values():
            lines = [(f.line, f.column) for f in module_result.findings]
            assert lines == sorted(lines)


class TestGenerateVerifyGate:
    @pytest.mark.parametrize("number", range(1, 12))
    def test_all_use_cases_pass_the_gate(self, number):
        generator = CrySLBasedCodeGenerator(verify=True)
        module = generator.generate_from_file(
            USE_CASES[number - 1].template_path()
        )
        assert module.source

    def test_use_cases_clean_under_project_analyzer(self, project_analyzer):
        from repro.usecases import generate_use_case

        sources = {
            f"{case.slug}.py": generate_use_case(case.number).source
            for case in USE_CASES
        }
        result = project_analyzer.analyze_sources(sources)
        assert result.is_secure, result.render()

    def test_verification_error_is_structured(self):
        """A generator whose analyzer is rigged to reject everything
        raises a VerificationError naming template and findings."""
        generator = CrySLBasedCodeGenerator(verify=True)
        case = USE_CASES[0]
        module = generator.generate_from_file(case.template_path())
        # Sanity: the real gate passed; now exercise the error type.
        error = VerificationError(
            "template.py",
            module,
            ProjectAnalyzer()
            .analyze_sources(
                {
                    "bad.py": (
                        "from repro.jca import Cipher\n"
                        "def f():\n"
                        "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
                    )
                }
            )
            .findings,
        )
        assert "template.py" in str(error)
        assert "finding" in str(error)
        assert error.findings
