"""The frozen analysis project and the seeded edits made to it.

``fixture/project`` holds Table 1's generated modules as this
benchmark first froze them, copies of ``examples/*.py`` and
hand-written misuse modules; ``fixture/expected_findings.json`` lists
the analyzer's known answer for it. Each edit returns the edited
project plus what the analyzer must answer for it, so a request whose
verdict differs from the known answer counts as failed.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from dataclasses import dataclass

from common import FIXTURE_DIR, load_json

PROJECT_DIR = FIXTURE_DIR / "project"

#: Misuses an edit may append to a clean module: the snippet, and the
#: finding it must produce as (line within the snippet, kind, rule,
#: variable). ``{n}`` makes each appended function unique.
MISUSE_SNIPPETS = (
    (
        "from repro.jca import MessageDigest\n\n\n"
        "def bench_misuse_{n}(data):\n"
        "    md = MessageDigest.get_instance('MD5')\n"
        "    digest = md.digest(data)\n"
        "    return digest\n",
        (5, "constraint-violation", "repro.jca.MessageDigest", "md"),
    ),
    (
        "from repro.jca import Cipher\n\n\n"
        "def bench_misuse_{n}(data):\n"
        "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
        "    out = c.do_final(data)\n"
        "    return out\n",
        (6, "typestate-error", "repro.jca.Cipher", "c"),
    ),
    (
        "from repro.jca import KeyPairGenerator\n\n\n"
        "def bench_misuse_{n}():\n"
        "    g = KeyPairGenerator.get_instance('RSA')\n"
        "    g.initialize(1024)\n"
        "    pair = g.generate_key_pair()\n"
        "    return pair\n",
        (6, "constraint-violation", "repro.jca.KeyPairGenerator", "g"),
    ),
)

@dataclass(frozen=True)
class Edit:
    """One analyze request's input and its known answer."""

    kind: str
    sources: dict[str, str]
    findings: Counter
    #: True: the answer must re-analyze no function (a pure replay);
    #: False: it must re-analyze at least one; None: either
    replay: bool | None


class Project:
    """The frozen fixture, loaded once per run."""

    def __init__(self) -> None:
        self.sources = {
            str(path.relative_to(PROJECT_DIR)): path.read_text(encoding="utf-8")
            for path in sorted(PROJECT_DIR.rglob("*.py"))
        }
        expected = load_json(FIXTURE_DIR / "expected_findings.json")["modules"]
        self.findings: Counter = Counter(
            (key, *finding)
            for key, entry in expected.items()
            for finding in entry["findings"]
        )
        self.clean = sorted(k for k in self.sources if k not in expected)
        self.body_sites = [
            site for key in self.clean for site in _body_sites(key, self.sources[key])
        ]

    def unedited(self, replay: bool | None) -> Edit:
        """The project as frozen."""
        return Edit("unedited", dict(self.sources), Counter(self.findings), replay)

    def edit(self, kind: str, rng: random.Random, n: int) -> Edit:
        sources = dict(self.sources)
        findings = Counter(self.findings)
        if kind == "comment":
            key = rng.choice(sorted(sources))
            sources[key] = _terminated(sources[key]) + f"# bench edit {n}\n"
            return Edit(kind, sources, findings, replay=True)
        if kind == "body":
            key, line, indent = rng.choice(self.body_sites)
            lines = sources[key].splitlines(keepends=True)
            lines.insert(line, f"{indent}bench_edit_{n} = {n}\n")
            sources[key] = "".join(lines)
            return Edit(kind, sources, findings, replay=False)
        if kind == "misuse":
            key = rng.choice(self.clean)
            snippet, (offset, finding_kind, rule, variable) = rng.choice(
                MISUSE_SNIPPETS
            )
            base = _terminated(sources[key])
            sources[key] = base + "\n\n" + snippet.format(n=n)
            line = base.count("\n") + 2 + offset
            findings[(key, line, finding_kind, rule, f"bench_misuse_{n}", variable)] += 1
            return Edit(kind, sources, findings, replay=False)
        raise ValueError(f"unknown edit kind {kind!r}")


def _terminated(source: str) -> str:
    """``source`` ending in a newline (generated modules end without one)."""
    return source if source.endswith("\n") else source + "\n"


def _body_sites(key: str, source: str) -> list[tuple[str, int, str]]:
    """Where a body edit may insert a statement: before the first
    statement after any docstring, in every function of a module."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (
            len(body) > 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
        ):
            body = body[1:]
        first = body[0]
        sites.append((key, first.lineno - 1, " " * first.col_offset))
    return sites


def findings_of(modules: dict) -> Counter:
    """The analyzer's answer, from an ``analyze`` response's modules."""
    return Counter(
        (
            key,
            f["line"],
            f["kind"],
            f["rule"],
            f["function"],
            f["variable"],
        )
        for key, report in modules.items()
        for f in report["findings"]
    )


def verdict_problems(edit: Edit, modules: dict, reanalyzed: int) -> list[str]:
    """What is wrong with an analyze answer for ``edit`` (empty: right)."""
    problems = []
    got = findings_of(modules)
    if got != edit.findings:
        missing = edit.findings - got
        extra = got - edit.findings
        problems.append(
            f"{edit.kind} edit: findings differ from the known answer "
            f"(missing {sorted(missing)[:2]}, unexpected {sorted(extra)[:2]})"
        )
    if edit.replay is True and reanalyzed != 0:
        problems.append(f"{edit.kind} project re-analyzed {reanalyzed} function(s)")
    if edit.replay is False and reanalyzed < 1:
        problems.append(f"{edit.kind} edit re-analyzed nothing")
    return problems
