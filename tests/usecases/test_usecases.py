"""The Table 1 registry and generation of all eleven use cases."""

from __future__ import annotations

import pytest

from repro.usecases import (
    USE_CASES,
    generate_use_case,
    old_gen_use_cases,
    use_case,
    use_case_by_slug,
)


class TestRegistry:
    def test_eleven_use_cases(self):
        assert len(USE_CASES) == 11
        assert [u.number for u in USE_CASES] == list(range(1, 12))

    def test_lookup_by_number(self):
        assert use_case(9).name == "Secure User-Password Storage"

    def test_lookup_by_slug(self):
        assert use_case_by_slug("string_hashing").number == 11

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            use_case(14)  # 12 and 13 exist as §7 extensions
        with pytest.raises(KeyError):
            use_case_by_slug("nope")

    def test_extension_use_cases(self):
        from repro.usecases import EXTENSION_USE_CASES

        assert [u.number for u in EXTENSION_USE_CASES] == [12, 13]
        for extension in EXTENSION_USE_CASES:
            assert use_case(extension.number) is extension
            assert extension.template_path().exists()

    def test_old_gen_subset_matches_table2(self):
        numbers = [u.number for u in old_gen_use_cases()]
        assert numbers == [1, 2, 3, 5, 6, 7, 9, 10]

    def test_template_paths_exist(self):
        for entry in USE_CASES:
            assert entry.template_path().exists(), entry.slug

    def test_paper_numbers_recorded(self):
        assert use_case(9).paper_runtime_seconds == 8.1
        assert use_case(3).paper_memory_mb == 66.6

    def test_sources_follow_table1(self):
        assert use_case(10).sources == ("[21]", "[27]", "[29]")


class TestGeneration:
    @pytest.mark.parametrize("entry", USE_CASES, ids=lambda u: u.slug)
    def test_generates_and_compiles(self, entry, generator):
        module = generate_use_case(entry.number, generator)
        module.compile_check()
        assert f"class {entry.template_class}" in module.source
        assert f"class Output{entry.template_class}" in module.source

    def test_pbe_variants_share_crypto_core(self, generator):
        """Use cases 1-3 are 'virtually the same' (§5.1): identical
        fluent chains, different glue."""
        cores = []
        for number in (1, 2, 3):
            module = generate_use_case(number, generator)
            (report, *_rest) = module.reports
            cores.append(
                tuple(
                    (plan.instance.rule.class_name, plan.labels)
                    for plan in report.plan.instances
                )
            )
        assert cores[0] == cores[1] == cores[2]

    def test_hybrid_variants_share_crypto_core(self, generator):
        cores = []
        for number in (5, 6, 7):
            module = generate_use_case(number, generator)
            encrypt_report = next(
                r for r in module.reports if "encrypt" in r.method_name
            )
            cores.append(
                tuple(
                    (plan.instance.rule.class_name, plan.labels)
                    for plan in encrypt_report.plan.instances
                )
            )
        assert cores[0] == cores[1] == cores[2]

    def test_extension_use_case_generates(self, generator, analyzer):
        module = generate_use_case(12, generator)
        module.compile_check()
        assert analyzer.analyze_sources({"uc12": module.source}).is_secure
        assert "Mac.get_instance('HmacSHA256')" in module.source

    def test_key_storage_extension_selects_both_flows(self, generator):
        """UC13: the same KeyStore rule yields create→set→store in one
        method and load→get in the other, purely from scoring."""
        module = generate_use_case(13, generator)
        source = module.source
        create_body = source.split("def create")[1].split("def open")[0]
        open_body = source.split("def open")[1].split("class Output")[0]
        for fragment in (".create(", ".set_key_entry(", ".store("):
            assert fragment in create_body
        assert ".load(" in open_body and ".get_key(" in open_body
        assert ".set_key_entry(" not in open_body

    def test_hybrid_uses_two_cipher_instances(self, generator):
        module = generate_use_case(7, generator)
        encrypt_report = next(r for r in module.reports if r.method_name == "encrypt")
        cipher_instances = [
            plan
            for plan in encrypt_report.plan.instances
            if plan.instance.rule.simple_name == "Cipher"
        ]
        assert len(cipher_instances) == 2
        labels = {plan.labels[-1] for plan in cipher_instances}
        assert labels == {"f1", "w1"}  # one encrypts, one wraps
