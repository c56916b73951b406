"""Pipeline-string parsing and canonical printing.

The textual form is the one ``opt -passes=`` consumes: comma-separated
module-manager trees, managers spelled ``module(`` ``cgscc(`` ``function(``
``loop(``. The parser tolerates whitespace around tokens; the printer
emits none.
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
    allowed_child,
)
from .registry import PassLevel, PassRegistry

_MANAGER_TOKENS = {level.token: level for level in PassLevel}
_NAME_CHARS = re.compile(r"[a-z0-9<>-]+")

# Real pipelines nest a handful of managers; the bound keeps the
# recursive parser, printer and validator far from Python's stack limit.
MAX_NESTING_DEPTH = 100


def _tokenize(text: str) -> List[Tuple[str, object]]:
    tokens: List[Tuple[str, object]] = []
    i, n = 0, len(text)
    depth = 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ",":
            tokens.append(("comma", None))
            i += 1
            continue
        if ch == ")":
            tokens.append(("close", None))
            depth -= 1
            i += 1
            continue
        if ch == "(":
            raise PipelineSyntaxError(f"unexpected '(' at position {i}")
        match = _NAME_CHARS.match(text, i)
        if not match:
            raise PipelineSyntaxError(f"unexpected character {ch!r} at position {i}")
        name = match.group(0)
        i = match.end()
        # a name directly followed by '(' (whitespace allowed) opens a manager
        j = i
        while j < n and text[j].isspace():
            j += 1
        if j < n and text[j] == "(":
            level = _MANAGER_TOKENS.get(name)
            if level is None:
                raise PipelineSyntaxError(f"unknown manager {name!r}")
            depth += 1
            if depth > MAX_NESTING_DEPTH:
                raise PipelineSyntaxError(
                    f"managers nested more than {MAX_NESTING_DEPTH} deep"
                )
            tokens.append(("open", level))
            i = j + 1
        else:
            tokens.append(("name", name))
    return tokens


class _Parser:
    def __init__(self, tokens, registry: PassRegistry):
        self.tokens = tokens
        self.pos = 0
        self.registry = registry

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", None)

    def advance(self):
        token = self.peek()
        self.pos += 1
        return token

    def parse_forest(self) -> PipelineForest:
        trees = [self.parse_top()]
        while True:
            kind, _ = self.peek()
            if kind == "eof":
                break
            if kind != "comma":
                raise PipelineSyntaxError("expected ',' between pipeline elements")
            self.advance()
            trees.append(self.parse_top())
        return PipelineForest(tuple(trees))

    def parse_top(self) -> PipelineNode:
        kind, value = self.peek()
        if kind == "open" and value == PassLevel.MODULE:
            self.advance()
            return self.parse_manager(PassLevel.MODULE)
        if kind == "open":
            raise TopLevelNotModule(
                f"R1: top-level {value.token!r} manager; only module managers "
                "may appear at the top level"
            )
        if kind == "name":
            raise TopLevelNotModule(
                f"R1: bare pass {value!r} at top level; wrap it in a manager"
            )
        raise PipelineSyntaxError("expected a module manager")

    def parse_manager(self, level: PassLevel) -> Manager:
        children: List[PipelineNode] = []
        kind, _ = self.peek()
        if kind == "close":
            raise EmptyManager(
                f"{MANAGER_RULE[level]}: {level.token} manager has no elements"
            )
        while True:
            children.append(self.parse_element(level))
            kind, _ = self.advance()
            if kind == "close":
                return Manager(level, tuple(children))
            if kind != "comma":
                raise PipelineSyntaxError(
                    f"expected ',' or ')' inside {level.token} manager"
                )

    def parse_element(self, parent: PassLevel) -> PipelineNode:
        kind, value = self.advance()
        if kind == "open":
            node = self.parse_manager(value)
            if not allowed_child(parent, node):
                raise LevelMismatch(
                    f"{ELEMENT_RULE[parent]}: {value.token} manager not "
                    f"admitted under {parent.token} manager"
                )
            return node
        if kind == "name":
            info = self.registry.lookup(value)
            level = parent if info.polymorphic else info.level
            leaf = Leaf(value, level)
            if not allowed_child(parent, leaf):
                raise LevelMismatch(
                    f"{ELEMENT_RULE[parent]}: {value!r} is a {level.token} "
                    f"pass; a {parent.token} manager admits only its own level"
                )
            return leaf
        raise PipelineSyntaxError("expected a pass or manager")


def parse_pipeline(text: str, registry: PassRegistry) -> PipelineForest:
    """Parse a pipeline string into a validated forest.

    Polymorphic passes take the level of their enclosing manager. Raises
    PipelineSyntaxError / TopLevelNotModule / LevelMismatch / UnknownPass /
    EmptyManager on the first problem found.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PipelineSyntaxError("empty pipeline string")
    parser = _Parser(tokens, registry)
    forest = parser.parse_forest()
    return forest


def _print_node(node: PipelineNode) -> str:
    if isinstance(node, Leaf):
        return node.name
    inner = ",".join(_print_node(child) for child in node.children)
    return f"{node.level.token}({inner})"


def print_pipeline(forest: PipelineForest) -> str:
    """Canonical string: comma-separated, no whitespace.

    ``parse_pipeline(print_pipeline(f))`` is structurally equal to ``f``.
    """
    return ",".join(_print_node(tree) for tree in forest.trees)
