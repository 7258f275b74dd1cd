"""Golden digests: the generated module for every bundled template is pinned.

``golden_digests.json`` holds the sha256 of the module each template in
``src/repro/usecases/templates/`` generates under the bundled rules, with
the template's file name as the module name (the generated header quotes
it). Any change to path selection, resolution or emission that alters a
single byte of output fails here. Regenerate the file only for a change
that means to alter the generated code, and say so where it is reviewed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.usecases

TEMPLATES_DIR = Path(repro.usecases.__file__).parent / "templates"
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text(encoding="utf-8")
)["generated_sha256"]
TEMPLATES = sorted(TEMPLATES_DIR.glob("[!_]*.py"))


def test_every_template_is_pinned():
    assert sorted(path.stem for path in TEMPLATES) == sorted(GOLDEN)


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda path: path.stem)
def test_generated_module_matches_golden_digest(template, generator):
    module = generator.generate_from_source(
        template.read_text(encoding="utf-8"), template.name
    )
    assert hashlib.sha256(module.source.encode("utf-8")).hexdigest() == GOLDEN[
        template.stem
    ]
