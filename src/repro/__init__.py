"""CogniCryptGEN, reproduced in Python.

A code generator that produces provably rule-compliant cryptographic
code from two inputs: API-usage rules in the specification language
CrySL, and minimal code templates carrying only glue code (Krüger, Ali,
Bodden — *CogniCryptGEN: Generating Code for the Secure Usage of Crypto
APIs*, CGO 2020).

Quickstart::

    from repro import CrySLBasedCodeGenerator, TargetProject

    generator = CrySLBasedCodeGenerator()          # bundled JCA rules
    module = generator.generate_from_file("my_template.py")
    TargetProject("out/").write(module, "secure_encryptor")

Package map (see DESIGN.md for the full inventory):

=====================  ================================================
``repro.crysl``        the CrySL language front end
``repro.fsm``          ORDER-pattern automata and path enumeration
``repro.constraints``  constraint evaluation and value derivation
``repro.predicates``   ENSURES/REQUIRES linking between rules
``repro.codegen``      the generator core (templates, selection, emission)
``repro.jca``          a JCA-style crypto provider (runnable target API)
``repro.primitives``   crypto primitives underneath
``repro.sast``         the rule-driven static analyzer (validity checks)
``repro.oldgen``       the XSL + Clafer baseline (CogniCrypt_old-gen)
``repro.usecases``     the eleven use cases of Table 1
``repro.study``        the RQ5 usability-study harness
``repro.eval``         drivers regenerating every table of the paper
=====================  ================================================
"""

from .codegen import (
    CrySLBasedCodeGenerator,
    CrySLCodeGenerator,
    GeneratedModule,
    GenerationError,
    TargetProject,
)
from .crysl import RuleSet, bundled_ruleset, parse_rule
from .sast import CrySLAnalyzer

__version__ = "1.0.0"

__all__ = [
    "CrySLAnalyzer",
    "CrySLBasedCodeGenerator",
    "CrySLCodeGenerator",
    "GeneratedModule",
    "GenerationError",
    "RuleSet",
    "TargetProject",
    "bundled_ruleset",
    "parse_rule",
    "__version__",
]
