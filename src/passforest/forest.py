"""Forest representation of nested pass pipelines.

A pipeline is an ordered forest of module-rooted trees. Internal nodes
are pass managers (module/cgscc/function/loop); leaves are passes. The
nesting rules mirror the pipeline grammar:

  R1  every top-level element is a module manager
  R2  module managers are nonempty
  R3  module children: module pass | module/cgscc/function manager
  R4  cgscc managers are nonempty
  R5  cgscc children: cgscc pass | cgscc/function manager
  R6  function managers are nonempty
  R7  function children: function pass | function/loop manager
  R8  loop managers are nonempty
  R9  loop children: loop pass | loop manager

Forests are immutable values; every operation here is pure. Nodes are
frozen, slotted dataclasses. Each node carries four summaries of its
subtree, computed once when a manager is built from its children's:
``text`` (the canonical printed form), ``names`` (leaf names in order),
``size`` (leaf count) and ``managers`` (manager count). Equality,
hashing and repr ignore them. An edit rebuilds only the managers on one
path and shares every other subtree, so it recomputes summaries along
that path alone. Constructors deliberately accept rule-breaking shapes
so that ``validate`` can report violations as data; the parser and all
search operators only ever build valid forests. ``nested_forest`` holds
the placement rule that builds every fixed-shape forest: walk
individuals, mining skeletons and the study skeletons.
"""

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .errors import LevelMismatch, UnknownPass
from .registry import PassLevel, PassRegistry


@dataclass(frozen=True, slots=True)
class Leaf:
    """A pass occurrence; ``level`` is its effective level in context."""

    name: str
    level: PassLevel

    size = 1
    managers = 0

    @property
    def text(self) -> str:
        return self.name

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.name,)


# A manager's printed text up to its first child.
_OPEN = {level: f"{level.token}(" for level in PassLevel}


def _summary():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Manager:
    """A pass manager holding an ordered sequence of children."""

    level: PassLevel
    children: Tuple["PipelineNode", ...]
    text: str = _summary()
    names: Tuple[str, ...] = _summary()
    size: int = _summary()
    managers: int = _summary()

    def __post_init__(self):
        children = tuple(self.children)
        texts: List[str] = []
        names: List[str] = []
        managers = 1
        # One loop, leaves read directly: every edit and decode builds
        # managers, so this is a hot path.
        for child in children:
            if child.__class__ is Leaf:
                texts.append(child.name)
                names.append(child.name)
            else:
                texts.append(child.text)
                names += child.names
                managers += child.managers
        set_field = object.__setattr__
        set_field(self, "children", children)
        set_field(self, "text", _OPEN[self.level] + ",".join(texts) + ")")
        set_field(self, "names", tuple(names))
        set_field(self, "size", len(names))
        set_field(self, "managers", managers)


PipelineNode = Union[Leaf, Manager]


@dataclass(frozen=True, slots=True)
class PipelineForest:
    """Ordered collection of trees; trees run as sequential stages."""

    trees: Tuple[PipelineNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))

    def __str__(self) -> str:
        from .grammar import print_pipeline

        return print_pipeline(self)


# Child kinds admitted by each manager level: leaves of the same level,
# plus the manager levels listed here.
_CHILD_MANAGER_LEVELS = {
    PassLevel.MODULE: (PassLevel.MODULE, PassLevel.CGSCC, PassLevel.FUNCTION),
    PassLevel.CGSCC: (PassLevel.CGSCC, PassLevel.FUNCTION),
    PassLevel.FUNCTION: (PassLevel.FUNCTION, PassLevel.LOOP),
    PassLevel.LOOP: (PassLevel.LOOP,),
}

# Grammar rule naming a manager's element production and its nonemptiness.
ELEMENT_RULE = {
    PassLevel.MODULE: "R3",
    PassLevel.CGSCC: "R5",
    PassLevel.FUNCTION: "R7",
    PassLevel.LOOP: "R9",
}
MANAGER_RULE = {
    PassLevel.MODULE: "R2",
    PassLevel.CGSCC: "R4",
    PassLevel.FUNCTION: "R6",
    PassLevel.LOOP: "R8",
}


@dataclass(frozen=True)
class Violation:
    """One broken grammar rule, located by node path."""

    rule: str
    path: Tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = "/".join(str(i) for i in self.path) or "root"
        return f"{self.rule} at {where}: {self.message}"


def allowed_child(parent_level: PassLevel, child: PipelineNode) -> bool:
    if isinstance(child, Leaf):
        return child.level == parent_level
    return child.level in _CHILD_MANAGER_LEVELS[parent_level]


def validate(
    forest: PipelineForest, registry: Optional[PassRegistry] = None
) -> List[Violation]:
    """Check a forest against the nesting rules.

    Returns an empty list iff the forest is well-formed. With a registry,
    leaf names must be registered and leaf levels must match registration
    (polymorphic passes match any level). Violations are data, not errors.
    """
    violations: List[Violation] = []
    if not forest.trees:
        violations.append(Violation("R1", (), "pipeline has no trees"))
    for i, tree in enumerate(forest.trees):
        if not isinstance(tree, Manager) or tree.level != PassLevel.MODULE:
            violations.append(
                Violation(
                    "R1",
                    (i,),
                    f"{_describe(tree)} at top level; only module managers "
                    "may appear there",
                )
            )
            continue
        _validate_manager(tree, (i,), registry, violations)
    return violations


def _describe(node: PipelineNode) -> str:
    if isinstance(node, Leaf):
        return f"{node.name!r} ({node.level.token} pass)"
    return f"{node.level.token} manager"


def _validate_manager(mgr, path, registry, out):
    if not mgr.children:
        out.append(
            Violation(
                MANAGER_RULE[mgr.level], path, f"empty {mgr.level.token} manager"
            )
        )
    for j, child in enumerate(mgr.children):
        child_path = path + (j,)
        if not allowed_child(mgr.level, child):
            out.append(
                Violation(
                    ELEMENT_RULE[mgr.level],
                    child_path,
                    f"{_describe(child)} not admitted under "
                    f"{mgr.level.token} manager",
                )
            )
        if isinstance(child, Leaf):
            if registry is not None:
                _validate_leaf(child, child_path, registry, out)
        else:
            _validate_manager(child, child_path, registry, out)


def _validate_leaf(leaf, path, registry, out):
    if leaf.name not in registry:
        out.append(Violation("registry", path, f"unknown pass {leaf.name!r}"))
        return
    registered = registry.level_of(leaf.name)
    if registered is not None and registered != leaf.level:
        out.append(
            Violation(
                "registry",
                path,
                f"{leaf.name!r} is a {registered.token} pass, "
                f"placed as {leaf.level.token}",
            )
        )


def is_valid(forest: PipelineForest, registry: Optional[PassRegistry] = None) -> bool:
    return not validate(forest, registry)


# ---------------------------------------------------------------------------
# Traversal.
# ---------------------------------------------------------------------------

def iter_nodes(forest: PipelineForest) -> Iterator[Tuple[Tuple[int, ...], PipelineNode]]:
    """Preorder traversal yielding (path, node); path[0] is the tree index."""

    def walk(node, path):
        yield path, node
        if isinstance(node, Manager):
            for j, child in enumerate(node.children):
                yield from walk(child, path + (j,))

    for i, tree in enumerate(forest.trees):
        yield from walk(tree, (i,))


def leaf_paths(forest: PipelineForest) -> List[Tuple[Tuple[int, ...], Leaf]]:
    return [(p, n) for p, n in iter_nodes(forest) if isinstance(n, Leaf)]


def manager_count(forest: PipelineForest) -> int:
    return sum(tree.managers for tree in forest.trees)


def manager_at(forest: PipelineForest, k: int) -> Tuple[Tuple[int, ...], Manager]:
    """(path, manager) of the ``k``-th manager in preorder, counting from 0.

    Descends one path, skipping whole subtrees by their manager counts.
    """
    if not 0 <= k < manager_count(forest):
        raise IndexError(f"no manager {k} in forest")
    path: Tuple[int, ...] = ()
    children = forest.trees
    while True:
        for i, child in enumerate(children):
            if k < child.managers:
                break
            k -= child.managers
        path += (i,)
        if k == 0:
            return path, child
        k -= 1
        children = child.children


def leaf_at(forest: PipelineForest, i: int) -> Tuple[Tuple[int, ...], Leaf]:
    """(path, leaf) of the ``i``-th leaf from the left, counting from 0.

    Descends one path, skipping whole subtrees by their leaf counts.
    """
    if not 0 <= i < leaf_count(forest):
        raise IndexError(f"no leaf {i} in forest")
    path: Tuple[int, ...] = ()
    children = forest.trees
    while True:
        for j, child in enumerate(children):
            if i < child.size:
                break
            i -= child.size
        path += (j,)
        if isinstance(child, Leaf):
            return path, child
        children = child.children


def iter_leaves(node: PipelineNode) -> Iterator[Leaf]:
    if isinstance(node, Leaf):
        yield node
    else:
        for child in node.children:
            yield from iter_leaves(child)


def leaf_sequence(forest: PipelineForest) -> List[Tuple[str, PassLevel]]:
    """Left-to-right depth-first order of (pass name, level) pairs."""
    return [
        (leaf.name, leaf.level)
        for tree in forest.trees
        for leaf in iter_leaves(tree)
    ]


def leaf_count(forest: PipelineForest) -> int:
    return sum(tree.size for tree in forest.trees)


# ---------------------------------------------------------------------------
# Adaptor chains.
# ---------------------------------------------------------------------------

def adaptor_chain(outer: PassLevel, inner: PassLevel) -> List[PassLevel]:
    """Manager levels to open below ``outer`` to host an ``inner`` element.

    The chain is minimal: cgscc appears only when it is the target itself
    (function managers nest directly under module managers).
    """
    if inner < outer:
        raise LevelMismatch(
            f"cannot nest {inner.token} under {outer.token}"
        )
    chain: List[PassLevel] = []
    if inner == outer:
        return chain
    if inner == PassLevel.CGSCC:
        chain.append(PassLevel.CGSCC)
    elif inner == PassLevel.FUNCTION:
        chain.append(PassLevel.FUNCTION)
    elif inner == PassLevel.LOOP:
        if outer <= PassLevel.CGSCC:
            chain.append(PassLevel.FUNCTION)
        chain.append(PassLevel.LOOP)
    return chain


def wrap_in_chain(levels: Sequence[PassLevel], children: Sequence[PipelineNode]) -> PipelineNode:
    """Wrap ``children`` inside nested managers, outermost level first."""
    if not levels:
        raise ValueError("empty adaptor chain")
    node: PipelineNode = Manager(levels[-1], tuple(children))
    for level in reversed(levels[:-1]):
        node = Manager(level, (node,))
    return node


def minimal_wrap(pass_name: str, level: PassLevel) -> PipelineNode:
    """Smallest valid single tree holding one pass at ``level``.

    module pass -> module(p); cgscc -> module(cgscc(p));
    function -> module(function(p)); loop -> module(function(loop(p))).
    """
    chain = [PassLevel.MODULE] + adaptor_chain(PassLevel.MODULE, level)
    return wrap_in_chain(chain, (Leaf(pass_name, level),))


def nested_forest(passes: Sequence[Tuple[str, PassLevel]]) -> PipelineForest:
    """The forest that places each (name, level) pass by the one before it.

    This is the synergy placement rule: the first pass gets its
    ``minimal_wrap`` tree; a pass at the previous pass's level joins that
    pass's manager; a deeper pass opens ``adaptor_chain(previous level,
    level)`` inside that manager; a shallower pass starts a new module
    tree. The result is valid for any sequence of concrete passes, and
    pass order is leaf order. Mutation applies the same rule to insert one
    pass into an existing forest (``search._place_after_anchor``).
    """
    trees: List[PipelineNode] = []
    # The open tree, outermost manager first; each entry's manager holds
    # its leaves, then the entry after it.
    open_managers: List[Tuple[PassLevel, List[PipelineNode]]] = []
    previous: Optional[PassLevel] = None
    for name, level in passes:
        if previous is None or level < previous:
            if open_managers:
                trees.append(_close(open_managers))
            open_managers = [(PassLevel.MODULE, [])]
            previous = PassLevel.MODULE
        open_managers += [(lvl, []) for lvl in adaptor_chain(previous, level)]
        open_managers[-1][1].append(Leaf(name, level))
        previous = level
    if open_managers:
        trees.append(_close(open_managers))
    return PipelineForest(tuple(trees))


def _close(open_managers) -> Manager:
    node = None
    for level, children in reversed(open_managers):
        node = Manager(level, tuple(children) if node is None else (*children, node))
    return node


# ---------------------------------------------------------------------------
# Functional tree edits (used by the search operators).
# ---------------------------------------------------------------------------

def get_node(forest: PipelineForest, path: Tuple[int, ...]) -> PipelineNode:
    node: PipelineNode = forest.trees[path[0]]
    for idx in path[1:]:
        node = node.children[idx]
    return node


def _rebuild(node, path, replacement):
    if not path:
        return replacement
    children = list(node.children)
    children[path[0]] = _rebuild(children[path[0]], path[1:], replacement)
    return Manager(node.level, tuple(children))


def replace_node(
    forest: PipelineForest, path: Tuple[int, ...], node: PipelineNode
) -> PipelineForest:
    trees = list(forest.trees)
    trees[path[0]] = _rebuild(trees[path[0]], path[1:], node)
    return PipelineForest(tuple(trees))


def insert_child(
    forest: PipelineForest,
    manager_path: Tuple[int, ...],
    index: int,
    node: PipelineNode,
) -> PipelineForest:
    mgr = get_node(forest, manager_path)
    children = list(mgr.children)
    children.insert(index, node)
    return replace_node(forest, manager_path, Manager(mgr.level, tuple(children)))


def insert_tree(
    forest: PipelineForest, index: int, tree: PipelineNode
) -> PipelineForest:
    trees = list(forest.trees)
    trees.insert(index, tree)
    return PipelineForest(tuple(trees))


def trim_to_length(forest: PipelineForest, max_leaves: int) -> PipelineForest:
    """Keep the first ``max_leaves`` leaves, pruning managers left empty.

    A manager is pruned only when the trim removes all of its children;
    subtrees holding no leaves stay where they are.
    """
    if leaf_count(forest) <= max_leaves:
        return forest
    return PipelineForest(_keep_leaves(forest.trees, max_leaves))


def _keep_leaves(nodes, keep: int) -> Tuple[PipelineNode, ...]:
    """``nodes`` holding only their first ``keep`` leaves."""
    kept = []
    for node in nodes:
        if node.size <= keep:
            kept.append(node)
            keep -= node.size
        elif isinstance(node, Manager):
            children = _keep_leaves(node.children, keep)
            keep = 0
            if children:
                kept.append(Manager(node.level, children))
    return tuple(kept)


# ---------------------------------------------------------------------------
# Random valid forests (search fallback and test generation).
# ---------------------------------------------------------------------------

# Manager nesting depth and children per manager in random forests.
_RANDOM_MAX_DEPTH = 6
_RANDOM_MAX_WIDTH = 5


def random_forest(
    rng: random.Random, registry: PassRegistry, max_leaves: int = 24
) -> PipelineForest:
    """Sample a valid forest with bounded depth, width, and leaf count.

    Child kinds are sampled level-respectingly, so the result always
    passes ``validate``. Only concrete (non-polymorphic) registry passes
    are placed.
    """
    by_level = {
        level: [p.name for p in registry.passes_at(level)] for level in PassLevel
    }
    placeable = {level for level, names in by_level.items() if names}
    if not placeable:
        raise UnknownPass("registry has no concrete passes to place")

    def reachable(level):
        # a manager at `level` can terminate iff some at-or-deeper level
        # reachable through the nesting rules has a concrete pass
        stack, seen = [level], set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if by_level[cur]:
                return True
            stack.extend(
                lvl for lvl in _CHILD_MANAGER_LEVELS[cur] if lvl != cur
            )
        return False

    budget = [rng.randint(1, max_leaves)]

    def build(level, depth):
        width = rng.randint(1, _RANDOM_MAX_WIDTH)
        children = []
        for _ in range(width):
            if budget[0] <= 0 and children:
                break
            options = []
            if by_level[level]:
                options.extend(["leaf"] * 3)
            if depth < _RANDOM_MAX_DEPTH:
                options.extend(
                    lvl
                    for lvl in _CHILD_MANAGER_LEVELS[level]
                    if reachable(lvl)
                )
            if not options:
                break
            choice = rng.choice(options)
            if choice == "leaf":
                children.append(Leaf(rng.choice(by_level[level]), level))
                budget[0] -= 1
            else:
                children.append(build(choice, depth + 1))
        if not children:
            # guaranteed nonempty: a leaf here, or descend strictly deeper
            if by_level[level]:
                children.append(Leaf(rng.choice(by_level[level]), level))
                budget[0] -= 1
            else:
                target = min(
                    lvl
                    for lvl in _CHILD_MANAGER_LEVELS[level]
                    if lvl != level and reachable(lvl)
                )
                children.append(build(target, depth + 1))
        return Manager(level, tuple(children))

    trees = [build(PassLevel.MODULE, 1)]
    while budget[0] > 0 and rng.random() < 0.4:
        trees.append(build(PassLevel.MODULE, 1))
    return trim_to_length(PipelineForest(tuple(trees)), max_leaves)
