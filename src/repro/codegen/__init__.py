"""CogniCryptGEN's core: templates + CrySL rules -> secure code.

The package realises the five-step workflow of the paper's Figure 6:
``template`` (step 1), ``repro.predicates`` (step 2), ``selector``
(steps 3-4 with ``repro.fsm``/``repro.constraints``), ``emitter`` and
``generator`` (step 5), ``project`` (writing into a target project).
"""

from .context import GenerationContext
from .emitter import ChainEmitter, EmittedChain, PushedParameter
from .explain import explain_chain, explain_module
from .fluent import ConsideredRule, CrySLCodeGenerator, GenerationRequest
from .generator import (
    ChainReport,
    CrySLBasedCodeGenerator,
    GeneratedModule,
    VerificationError,
)
from .naming import NameAllocator
from .project import TargetProject
from .selector import ChainPlan, GenerationError, InstancePlan, select
from .shorthand import FLUENT_ALIASES, JCA, RULE_CONSTANTS
from .template import (
    TemplateError,
    TemplateModel,
    parse_template_file,
    parse_template_source,
)

__all__ = [
    "ChainEmitter",
    "ChainPlan",
    "ChainReport",
    "ConsideredRule",
    "CrySLBasedCodeGenerator",
    "CrySLCodeGenerator",
    "EmittedChain",
    "GeneratedModule",
    "GenerationContext",
    "GenerationError",
    "FLUENT_ALIASES",
    "GenerationRequest",
    "JCA",
    "RULE_CONSTANTS",
    "InstancePlan",
    "NameAllocator",
    "PushedParameter",
    "TargetProject",
    "TemplateError",
    "VerificationError",
    "TemplateModel",
    "parse_template_file",
    "parse_template_source",
    "explain_chain",
    "explain_module",
    "select",
]
