"""Finite-state machinery for CrySL ORDER patterns.

Thompson construction builds an NFA per ORDER section and subset
construction turns it into the rule's one automaton, the table kernel
(:mod:`repro.fsm.kernel`) that generation and typestate analysis both
step; :mod:`repro.fsm.paths` is the paper's repetition-free
accepting-path enumeration (§3.3, step 3 of Figure 6).
"""

from .automaton import NFA, determinize
from .build import build_nfa, rule_dfa
from .kernel import DfaKernel, KernelWalker
from .paths import MAX_PATHS, PathExplosionError, enumerate_paths, path_parameter_count

__all__ = [
    "DfaKernel",
    "NFA",
    "KernelWalker",
    "MAX_PATHS",
    "PathExplosionError",
    "build_nfa",
    "determinize",
    "enumerate_paths",
    "path_parameter_count",
    "rule_dfa",
]
