"""SARIF 2.1.0 export: structural schema validation and content.

The container has no network access, so the official OASIS schema
cannot be fetched; ``SARIF_SUBSET_SCHEMA`` below transcribes the
structural requirements of sarif-schema-2.1.0.json that apply to the
subset of SARIF this tool emits (log, run, tool, reportingDescriptor,
result, location, physicalLocation, region, artifact). Property names,
required sets, enums and integer minima match the official schema.
"""

from __future__ import annotations

import pytest

jsonschema = pytest.importorskip("jsonschema")

from repro.sast import FindingKind, ProjectAnalyzer, to_sarif
from repro.sast.sarif import SARIF_SCHEMA, SARIF_VERSION, TOOL_NAME

SARIF_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {"type": "array", "items": {"$ref": "#/definitions/run"}},
    },
    "definitions": {
        "run": {
            "type": "object",
            "required": ["tool"],
            "properties": {
                "tool": {"$ref": "#/definitions/tool"},
                "artifacts": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/artifact"},
                },
                "results": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/result"},
                },
            },
        },
        "tool": {
            "type": "object",
            "required": ["driver"],
            "properties": {
                "driver": {"$ref": "#/definitions/toolComponent"}
            },
        },
        "toolComponent": {
            "type": "object",
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
                "informationUri": {"type": "string", "format": "uri"},
                "rules": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/reportingDescriptor"},
                },
            },
        },
        "reportingDescriptor": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "name": {"type": "string"},
                "shortDescription": {
                    "$ref": "#/definitions/multiformatMessageString"
                },
                "defaultConfiguration": {
                    "type": "object",
                    "properties": {
                        "level": {
                            "enum": ["none", "note", "warning", "error"]
                        }
                    },
                },
            },
        },
        "multiformatMessageString": {
            "type": "object",
            "required": ["text"],
            "properties": {"text": {"type": "string"}},
        },
        "artifact": {
            "type": "object",
            "properties": {
                "location": {"$ref": "#/definitions/artifactLocation"}
            },
        },
        "artifactLocation": {
            "type": "object",
            "properties": {"uri": {"type": "string"}},
        },
        "result": {
            "type": "object",
            "required": ["message"],
            "properties": {
                "ruleId": {"type": "string"},
                "level": {"enum": ["none", "note", "warning", "error"]},
                "message": {"$ref": "#/definitions/message"},
                "locations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/location"},
                },
                "partialFingerprints": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "suppressions": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/suppression"},
                },
            },
        },
        "suppression": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["inSource", "external"]},
                "justification": {"type": "string"},
            },
        },
        "message": {
            "type": "object",
            "properties": {"text": {"type": "string"}},
            "anyOf": [{"required": ["text"]}, {"required": ["id"]}],
        },
        "location": {
            "type": "object",
            "properties": {
                "physicalLocation": {
                    "$ref": "#/definitions/physicalLocation"
                },
                "logicalLocations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/logicalLocation"},
                },
            },
        },
        "physicalLocation": {
            "type": "object",
            "anyOf": [
                {"required": ["artifactLocation"]},
                {"required": ["address"]},
            ],
            "properties": {
                "artifactLocation": {
                    "$ref": "#/definitions/artifactLocation"
                },
                "region": {"$ref": "#/definitions/region"},
            },
        },
        "region": {
            "type": "object",
            "properties": {
                "startLine": {"type": "integer", "minimum": 1},
                "startColumn": {"type": "integer", "minimum": 1},
                "endLine": {"type": "integer", "minimum": 1},
                "endColumn": {"type": "integer", "minimum": 1},
            },
        },
        "logicalLocation": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "kind": {"type": "string"},
            },
        },
    },
}

BROKEN = (
    "from repro.jca import Cipher, MessageDigest\n"
    "def f(key):\n"
    "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
    "    out = c.do_final(b'data')\n"
    "def g(data):\n"
    "    md = MessageDigest.get_instance('MD5')\n"
    "    return md.digest(data)\n"
)


@pytest.fixture(scope="module")
def sarif_log():
    result = ProjectAnalyzer().analyze_sources({"broken.py": BROKEN})
    return result, to_sarif(result)


def validate(document):
    jsonschema.validate(document, SARIF_SUBSET_SCHEMA)


class TestSchema:
    def test_findings_log_validates(self, sarif_log):
        _, log = sarif_log
        validate(log)

    def test_clean_log_validates(self):
        result = ProjectAnalyzer().analyze_sources(
            {"empty.py": "def f():\n    pass\n"}
        )
        log = to_sarif(result)
        validate(log)
        assert log["runs"][0]["results"] == []

    def test_schema_subset_rejects_bad_documents(self, sarif_log):
        """The subset schema has teeth: structural breakage fails."""
        import copy

        _, log = sarif_log
        broken = copy.deepcopy(log)
        broken["version"] = "1.0.0"
        with pytest.raises(jsonschema.ValidationError):
            validate(broken)
        broken = copy.deepcopy(log)
        del broken["runs"][0]["tool"]["driver"]["name"]
        with pytest.raises(jsonschema.ValidationError):
            validate(broken)
        broken = copy.deepcopy(log)
        broken["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "region"
        ]["startLine"] = 0
        with pytest.raises(jsonschema.ValidationError):
            validate(broken)


class TestContent:
    def test_header(self, sarif_log):
        _, log = sarif_log
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == TOOL_NAME
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert rule_ids == {kind.value for kind in FindingKind}

    def test_every_result_has_file_line_column(self, sarif_log):
        result, log = sarif_log
        results = log["runs"][0]["results"]
        assert len(results) == len(result.findings)
        for entry in results:
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == "broken.py"
            region = location["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_results_reference_declared_rules(self, sarif_log):
        _, log = sarif_log
        run = log["runs"][0]
        declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        for entry in run["results"]:
            assert entry["ruleId"] in declared
            assert entry["message"]["text"]

    def test_artifacts_list_all_modules(self, sarif_log):
        _, log = sarif_log
        uris = [
            artifact["location"]["uri"]
            for artifact in log["runs"][0]["artifacts"]
        ]
        assert uris == ["broken.py"]

    def test_json_serialisable(self, sarif_log):
        import json

        _, log = sarif_log
        assert json.loads(json.dumps(log)) == log


class TestFingerprints:
    def test_every_result_carries_a_partial_fingerprint(self, sarif_log):
        from repro.sast.fingerprint import FINGERPRINT_SCHEME

        _, log = sarif_log
        for entry in log["runs"][0]["results"]:
            fingerprint = entry["partialFingerprints"][FINGERPRINT_SCHEME]
            assert isinstance(fingerprint, str) and len(fingerprint) == 64

    def test_fingerprints_are_stable_across_runs(self):
        first = to_sarif(
            ProjectAnalyzer().analyze_sources({"broken.py": BROKEN})
        )
        second = to_sarif(
            ProjectAnalyzer().analyze_sources({"broken.py": BROKEN})
        )
        prints = lambda log: [
            r["partialFingerprints"] for r in log["runs"][0]["results"]
        ]
        assert prints(first) == prints(second)

    def test_fingerprints_survive_line_shifts(self):
        shifted = "# a leading comment\n\n" + BROKEN
        a = to_sarif(ProjectAnalyzer().analyze_sources({"broken.py": BROKEN}))
        b = to_sarif(ProjectAnalyzer().analyze_sources({"broken.py": shifted}))
        prints = lambda log: [
            r["partialFingerprints"] for r in log["runs"][0]["results"]
        ]
        assert prints(a) == prints(b)

    def test_fingerprints_are_unique_within_a_run(self, sarif_log):
        from repro.sast.fingerprint import FINGERPRINT_SCHEME

        _, log = sarif_log
        values = [
            r["partialFingerprints"][FINGERPRINT_SCHEME]
            for r in log["runs"][0]["results"]
        ]
        assert len(values) == len(set(values))


class TestSuppressions:
    def test_suppressed_findings_carry_in_source_suppressions(self):
        marked = BROKEN.replace(
            "md = MessageDigest.get_instance('MD5')",
            "md = MessageDigest.get_instance('MD5')  # crysl: ignore",
        )
        result = ProjectAnalyzer().analyze_sources({"broken.py": marked})
        log = to_sarif(result)
        validate(log)
        suppressed = [
            r for r in log["runs"][0]["results"] if r.get("suppressions")
        ]
        active = [
            r for r in log["runs"][0]["results"] if not r.get("suppressions")
        ]
        assert suppressed and active
        for entry in suppressed:
            assert entry["suppressions"][0]["kind"] == "inSource"
            assert entry["partialFingerprints"]
