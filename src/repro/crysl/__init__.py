"""The CrySL specification language: lexer, parser, AST, checker, loader.

CrySL (Krüger et al., ECOOP 2018) is the whitelisting API-usage
specification language CogniCryptGEN consumes. This package is a
complete stand-alone front end for it:

>>> from repro.crysl import parse_rule
>>> rule = parse_rule('''
... SPEC repro.jca.Demo
... OBJECTS
...     int key_length;
... EVENTS
...     c1: Demo(key_length);
... ORDER
...     c1
... CONSTRAINTS
...     key_length in {128, 256};
... ''')
>>> rule.simple_name
'Demo'
"""

from . import ast
from .compiled import CompiledRule
from .errors import (
    CrySLError,
    CrySLSemanticError,
    CrySLSyntaxError,
    RuleNotFoundError,
)
from .lexer import Lexer, Token, TokenKind, tokenize
from .lint import LintFinding, LintKind, lint_ruleset, render_findings
from .parser import Parser, parse_rule
from .repository import RefreshReport, RuleRepository
from .ruleset import FrozenRuleSetError, RuleSet, bundled_ruleset, load_rule_file
from .typecheck import check_rule

__all__ = [
    "CompiledRule",
    "CrySLError",
    "FrozenRuleSetError",
    "CrySLSemanticError",
    "CrySLSyntaxError",
    "Lexer",
    "LintFinding",
    "LintKind",
    "Parser",
    "RefreshReport",
    "RuleNotFoundError",
    "RuleRepository",
    "RuleSet",
    "Token",
    "TokenKind",
    "ast",
    "bundled_ruleset",
    "check_rule",
    "lint_ruleset",
    "load_rule_file",
    "render_findings",
    "parse_rule",
    "tokenize",
]
