"""Pipeline-string parsing and canonical printing.

The textual form is the one ``opt -passes=`` consumes: comma-separated
module-manager trees, managers spelled ``module(`` ``cgscc(`` ``function(``
``loop(``. The parser tolerates whitespace around tokens; the printer
emits none.

Parsing builds and ``forest.validate`` judges. The parser checks only
syntax: it looks up each pass's level in the registry (polymorphic
passes take the level of their enclosing manager) and bounds the nesting
depth, but places any element anywhere. The nesting rules live in
``forest`` alone; the first violation ``validate`` reports on the built
forest is raised as the exception its rule maps to.
"""

import re
from typing import List, Tuple

from .errors import (
    EmptyManager,
    LevelMismatch,
    PipelineSyntaxError,
    TopLevelNotModule,
)
from .forest import (
    ELEMENT_RULE,
    MANAGER_RULE,
    Leaf,
    Manager,
    PipelineForest,
    PipelineNode,
    validate,
)
from .registry import PassLevel, PassRegistry

_MANAGER_TOKENS = {level.token: level for level in PassLevel}
# A pass or manager name (with the '(' that makes it a manager), or any
# other single non-blank character; whitespace between tokens is skipped.
_TOKEN = re.compile(r"([a-z0-9<>-]+)(\s*\()?|\S")

# Real pipelines nest a handful of managers; the bound keeps the
# recursive validator and node comparison far from Python's stack limit.
MAX_NESTING_DEPTH = 100


def _error_class(rule: str) -> type:
    if rule in MANAGER_RULE.values():
        return EmptyManager
    if rule in ELEMENT_RULE.values():
        return LevelMismatch
    return TopLevelNotModule


def parse_pipeline(text: str, registry: PassRegistry) -> PipelineForest:
    """Parse a pipeline string into a validated forest.

    Raises PipelineSyntaxError or UnknownPass at the first bad token;
    a syntactically sound forest that breaks a nesting rule raises
    TopLevelNotModule, EmptyManager or LevelMismatch for the first
    violation ``validate`` reports.
    """
    # Open managers, innermost last, as (level, children). The bottom
    # entry collects the trees; a polymorphic pass placed there takes
    # module level, and validate rejects it as a top-level leaf.
    stack: List[Tuple[PassLevel, List[PipelineNode]]] = [(PassLevel.MODULE, [])]
    last = "start"  # the previous token: start, open, comma or element
    for match in _TOKEN.finditer(text):
        name, opens = match.groups()
        token = match.group()
        if opens and last != "element":
            level = _MANAGER_TOKENS.get(name)
            if level is None:
                raise PipelineSyntaxError(f"unknown manager {name!r}")
            if len(stack) > MAX_NESTING_DEPTH:
                raise PipelineSyntaxError(
                    f"managers nested more than {MAX_NESTING_DEPTH} deep"
                )
            stack.append((level, []))
            last = "open"
        elif name and last != "element":
            info = registry.lookup(name)
            enclosing = stack[-1][0]
            stack[-1][1].append(
                Leaf(name, enclosing if info.polymorphic else info.level)
            )
            last = "element"
        elif token == "," and last == "element":
            last = "comma"
        elif token == ")" and last in ("open", "element") and len(stack) > 1:
            level, children = stack.pop()
            stack[-1][1].append(Manager(level, tuple(children)))
            last = "element"
        else:
            raise PipelineSyntaxError(
                f"unexpected {token!r} at position {match.start()}"
            )
    if last == "start":
        raise PipelineSyntaxError("empty pipeline string")
    if last != "element" or len(stack) > 1:
        raise PipelineSyntaxError("pipeline string ends inside an element")
    forest = PipelineForest(tuple(stack[0][1]))
    violations = validate(forest)
    if violations:
        raise _error_class(violations[0].rule)(str(violations[0]))
    return forest


def print_pipeline(forest: PipelineForest) -> str:
    """Canonical string: comma-separated, no whitespace.

    ``parse_pipeline(print_pipeline(f))`` is structurally equal to ``f``.
    """
    return ",".join(tree.text for tree in forest.trees)
