"""Shared random generators for property and acceptance tests."""

import json
import random
import stat
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from passforest import (
    EvaluationResult,
    Leaf,
    Manager,
    MockFunction,
    MockProgram,
    PassLevel,
    PassRegistry,
    PipelineForest,
    load_registry,
    schedule_of,
    validate,
)
from passforest.forest import (
    ELEMENT_RULE,
    MANAGER_RULE,
    PipelineNode,
    adaptor_chain,
    get_node,
    iter_nodes,
    leaf_paths,
    minimal_wrap,
    nested_forest,
    random_forest,
    replace_node,
    wrap_in_chain,
)
from passforest.search import _place_after_anchor
from passforest.synergy import SynergyEdge, SynergyGraph

LEVELS = (PassLevel.MODULE, PassLevel.CGSCC, PassLevel.FUNCTION, PassLevel.LOOP)


def is_valid(forest: PipelineForest, registry: Optional[PassRegistry] = None) -> bool:
    return not validate(forest, registry)


def mock_program_to_dict(program: MockProgram) -> dict:
    """The JSON spec that ``load_mock_program`` reads back as ``program``."""
    return {
        "functions": [
            {"name": f.name, "base_ic": f.base_ic} for f in program.functions
        ],
        "calls": [list(edge) for edge in program.call_edges],
        "effects": dict(program.pass_effects),
        "pair_synergy": [
            {"p": p, "q": q, "bonus": bonus}
            for (p, q), bonus in program.pair_synergy.items()
        ],
        "coupling": [
            {"p": p, "q": q, "bonus": bonus}
            for (p, q), bonus in program.coupling.items()
        ],
    }


def save_mock_program(program: MockProgram, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mock_program_to_dict(program), fh, indent=2, sort_keys=True)
        fh.write("\n")


def synthetic_registry(n_passes: int, rng: random.Random) -> PassRegistry:
    """Registry of p0..pN at random levels, every level represented."""
    lines = []
    for i in range(n_passes):
        level = LEVELS[i % 4] if i < 4 else rng.choice(LEVELS)
        lines.append(f"p{i}={level.token}")
    return load_registry("\n".join(lines) + "\n")


def random_mock_program(
    registry: PassRegistry,
    rng: random.Random,
    n_functions: int = None,
    synergy_density: float = 0.3,
    coupling_density: float = 0.3,
) -> MockProgram:
    """Random DAG of functions with random pass effects and bonuses."""
    if n_functions is None:
        n_functions = rng.randint(1, 4)
    functions = tuple(
        MockFunction(f"f{i}", rng.randint(20, 120)) for i in range(n_functions)
    )
    edges = []
    for i in range(n_functions):
        for j in range(i + 1, n_functions):
            if rng.random() < 0.4:
                edges.append((f"f{i}", f"f{j}"))
    names = [p.name for p in registry.concrete_passes()]
    effects = {name: rng.randint(0, 6) for name in names}
    synergy = {}
    coupling = {}
    for p in names:
        for q in names:
            if rng.random() < synergy_density:
                synergy[(p, q)] = rng.randint(1, 5)
            if edges and rng.random() < coupling_density:
                coupling[(p, q)] = rng.randint(1, 6)
    return MockProgram(functions, tuple(edges), effects, synergy, coupling)


def random_typed_sequence(
    registry: PassRegistry, rng: random.Random, length: int
) -> List[Tuple[str, PassLevel]]:
    names = list(registry.concrete_passes())
    picks = [rng.choice(names) for _ in range(length)]
    return [(p.name, p.level) for p in picks]


# ---------------------------------------------------------------------------
# Single-rule mutants for the grammar-soundness checks.
# ---------------------------------------------------------------------------

def make_single_rule_mutant(
    forest: PipelineForest, registry: PassRegistry, rng: random.Random
) -> Tuple[PipelineForest, str]:
    """Break exactly one grammar rule; returns (mutant, violated rule)."""
    kinds = ["root", "empty", "bad-manager-child", "retyped-leaf"]
    while True:
        kind = rng.choice(kinds)
        if kind == "root":
            index = rng.randrange(len(forest.trees))
            root = forest.trees[index]
            bad_level = rng.choice(
                (PassLevel.CGSCC, PassLevel.FUNCTION, PassLevel.LOOP)
            )
            # keep the subtree internally valid: a single leaf of the level
            name = _name_at(registry, bad_level, rng)
            trees = list(forest.trees)
            trees[index] = Manager(bad_level, (Leaf(name, bad_level),))
            return PipelineForest(tuple(trees)), "R1"
        if kind == "empty":
            path, mgr = rng.choice(manager_paths(forest))
            return (
                replace_node(forest, path, Manager(mgr.level, ())),
                MANAGER_RULE[mgr.level],
            )
        if kind == "bad-manager-child":
            path, mgr = rng.choice(manager_paths(forest))
            illegal = _illegal_child_level(mgr.level)
            if illegal is None:
                continue
            name = _name_at(registry, illegal, rng)
            bad = Manager(illegal, (Leaf(name, illegal),))
            mutated = Manager(mgr.level, mgr.children + (bad,))
            return replace_node(forest, path, mutated), ELEMENT_RULE[mgr.level]
        if kind == "retyped-leaf":
            path, leaf = rng.choice(leaf_paths(forest))
            parent = get_node(forest, path[:-1])
            wrong = rng.choice([lvl for lvl in LEVELS if lvl != parent.level])
            return (
                replace_node(forest, path, Leaf(leaf.name, wrong)),
                ELEMENT_RULE[parent.level],
            )


def _name_at(registry, level, rng):
    candidates = [p.name for p in registry.passes_at(level)]
    return rng.choice(candidates) if candidates else f"ghost-{level.token}"


def _illegal_child_level(level: PassLevel):
    if level == PassLevel.MODULE:
        return PassLevel.LOOP
    if level == PassLevel.CGSCC:
        return PassLevel.LOOP
    if level == PassLevel.FUNCTION:
        return PassLevel.CGSCC
    return PassLevel.FUNCTION  # function managers never nest under loop


# ---------------------------------------------------------------------------
# Whole-tree walks: the direct readings that the node summaries, the
# preorder manager walk and the one-pass trim replaced, kept as oracles.
# ---------------------------------------------------------------------------

def reference_print_node(node: PipelineNode) -> str:
    if isinstance(node, Leaf):
        return node.name
    inner = ",".join(reference_print_node(child) for child in node.children)
    return f"{node.level.token}({inner})"


def manager_paths(forest: PipelineForest) -> List[Tuple[Tuple[int, ...], Manager]]:
    return [(p, n) for p, n in iter_nodes(forest) if isinstance(n, Manager)]


def remove_node(forest: PipelineForest, path: Tuple[int, ...]) -> PipelineForest:
    """Remove a node, pruning any manager the removal leaves empty."""
    if len(path) == 1:
        trees = list(forest.trees)
        del trees[path[0]]
        return PipelineForest(tuple(trees))
    parent_path, idx = path[:-1], path[-1]
    parent = get_node(forest, parent_path)
    children = list(parent.children)
    del children[idx]
    if not children:
        return remove_node(forest, parent_path)
    return replace_node(forest, parent_path, Manager(parent.level, tuple(children)))


def reference_trim_to_length(forest: PipelineForest, max_leaves: int) -> PipelineForest:
    """Drop the last leaf (and emptied managers) until within bound."""
    while len(leaf_paths(forest)) > max_leaves:
        path, _ = leaf_paths(forest)[-1]
        forest = remove_node(forest, path)
    return forest


def reference_crossover(forest_a, forest_b, rng):
    """Crossover that builds both offspring and validates them whole."""
    path_a, node_a = rng.choice(manager_paths(forest_a))
    path_b, node_b = rng.choice(manager_paths(forest_b))
    child_a = replace_node(forest_a, path_a, node_b)
    child_b = replace_node(forest_b, path_b, node_a)
    if not (is_valid(child_a) and is_valid(child_b)):
        return None
    return child_a, child_b


def _weighted_pick(rng: random.Random, items, weights):
    """The search's weighted draw by plain weights."""
    return rng.choices(list(items), weights=list(weights), k=1)[0]


def _known_successors(graph, registry, name: str) -> list:
    """The graph's edges of weight > 0 out of ``name`` to passes of
    ``registry`` with a level, in order."""
    return [
        e
        for e in graph.successors(name)
        if e.weight > 0 and e.dst in registry and registry.level_of(e.dst) is not None
    ]


def reference_weighted_walk_init(graph, registry, max_length: int, rng) -> PipelineForest:
    """The walk that filters the graph and weighs every draw afresh."""
    names = [
        name
        for name, weight in graph.start_weights.items()
        if weight > 0 and name in registry and registry.level_of(name) is not None
    ]
    if not names:
        return random_forest(rng, registry, max_leaves=max_length)
    walk = [_weighted_pick(rng, names, [graph.start_weights[n] for n in names])]
    while len(walk) < max_length:
        successors = _known_successors(graph, registry, walk[-1])
        if not successors:
            break
        edge = _weighted_pick(rng, successors, [e.weight for e in successors])
        walk.append(edge.dst)
    return nested_forest([(n, registry.level_of(n)) for n in walk])


def reference_mutate(forest, graph, registry, rng):
    """Mutation that lists every leaf to draw the anchor and the target."""
    leaves = leaf_paths(forest)
    anchor_path, anchor = rng.choice(leaves)
    successors = [
        e
        for e in graph.successors(anchor.name)
        if e.dst in registry and registry.level_of(e.dst) is not None
    ]
    if successors:
        edge = _weighted_pick(rng, successors, [e.weight for e in successors])
        partner = edge.dst
        partner_level = registry.level_of(partner)
    else:
        info = rng.choice(list(registry.concrete_passes()))
        partner, partner_level = info.name, info.level
    if rng.random() < 0.5:
        candidates = [
            path
            for path, leaf in leaves
            if path != anchor_path and leaf.level == partner_level
        ]
        if candidates:
            target = rng.choice(candidates)
            return replace_node(forest, target, Leaf(partner, partner_level))
    return _place_after_anchor(forest, anchor_path, partner, partner_level)


def reference_tournament(rng, population, size: int):
    """The fittest of ``size`` uniform draws by ``max``: the first on ties."""
    contenders = [population[rng.randrange(len(population))] for _ in range(size)]
    return max(contenders, key=lambda ind: ind.fitness)


def random_walk_graph(registry: PassRegistry, rng: random.Random) -> SynergyGraph:
    """A normalized graph over ``registry``'s names and two more: one
    outside it, and one polymorphic pass when the registry has none.
    Weights of 0 are common; sometimes no start name can be drawn, and
    sometimes the graph is empty."""
    if rng.random() < 0.1:
        return SynergyGraph.empty()
    names = list(registry.names()) + ["ghost"]
    if "invalidate<all>" not in registry:
        names.append("invalidate<all>")

    def weights(targets):
        drawn = {t: rng.choice([0, 0, 1, 2, 5]) for t in targets}
        drawn[rng.choice(targets)] = rng.choice([1, 3])
        total = sum(drawn.values())
        return {t: w / total for t, w in drawn.items()}

    edges = [
        SynergyEdge(src, dst, "intra", weight)
        for src in names
        if rng.random() < 0.7
        for dst, weight in weights(rng.sample(names, rng.randint(1, len(names)))).items()
    ]
    starts = rng.sample(names, rng.randint(1, 4))
    if rng.random() < 0.2:
        starts = rng.sample(["ghost", "invalidate<all>"], rng.randint(1, 2))
    return SynergyGraph(edges, weights(starts))


def reference_nested_forest(passes: List[Tuple[str, PassLevel]]) -> PipelineForest:
    """Place each pass after the newest leaf with mutation's insertion,
    starting from the first pass's minimal wrap."""
    (name, level), rest = passes[0], passes[1:]
    forest = PipelineForest((minimal_wrap(name, level),))
    for name, level in rest:
        newest_path, _ = leaf_paths(forest)[-1]
        forest = _place_after_anchor(forest, newest_path, name, level)
    return forest


def reference_decode(problem, chromosome) -> PipelineForest:
    """Decode by cutting the sequence into (level, names, split_before)
    blocks first; split_before is True when the cut before the block
    came from a decision-point bit rather than a forced level change."""
    bit_at = dict(zip(problem.decision_points, chromosome.bits))
    cut_blocks = []
    current = [problem.sequence[0][0]]
    level = problem.sequence[0][1]
    split_before = False
    for i in range(1, len(problem.sequence)):
        name, next_level = problem.sequence[i]
        chosen = (i - 1) in bit_at
        if bit_at.get(i - 1, 1):
            cut_blocks.append((level, current, split_before))
            current, level, split_before = [name], next_level, chosen
        else:
            current.append(name)
    cut_blocks.append((level, current, split_before))

    trees = [[]]
    for level, names, split_before in cut_blocks:
        if level == PassLevel.MODULE:
            if split_before and trees[-1]:
                trees.append([])
            trees[-1].extend(Leaf(name, level) for name in names)
            continue
        leaves = tuple(Leaf(name, level) for name in names)
        trees[-1].append(wrap_in_chain(adaptor_chain(PassLevel.MODULE, level), leaves))
    return PipelineForest(
        tuple(Manager(PassLevel.MODULE, tuple(children)) for children in trees)
    )


def block_ids(forest: PipelineForest) -> List[int]:
    """Object ids of a decoded forest's non-module blocks, the nodes that
    ``decode`` shares between the forests of one problem."""
    return [
        id(child)
        for tree in forest.trees
        for child in tree.children
        if child.level is not PassLevel.MODULE
    ]


# ---------------------------------------------------------------------------
# Reference mock evaluator: the direct reading of the mock semantics,
# kept as the oracle for the compiled ``passforest.mock_evaluate``.
# ---------------------------------------------------------------------------

def reference_mock_evaluate(
    program: MockProgram, forest: PipelineForest
) -> EvaluationResult:
    """Apply a forest's schedule and report the resulting count.

    Each event (q, f) reduces f by the flat effect of q, plus every pair
    bonus (p, q) whose p already ran on f, plus every coupling bonus
    (p, q) when f has callees and p already ran on all of them. Function
    counts clamp at zero.
    """
    synergy_by_target: Dict[str, List[Tuple[str, int]]] = {}
    for (p, q), bonus in program.pair_synergy.items():
        synergy_by_target.setdefault(q, []).append((p, bonus))
    coupling_by_target: Dict[str, List[Tuple[str, int]]] = {}
    for (p, q), bonus in program.coupling.items():
        coupling_by_target.setdefault(q, []).append((p, bonus))
    callees = {
        f.name: tuple(
            callee for caller, callee in program.call_edges if caller == f.name
        )
        for f in program.functions
    }

    ran_on: Dict[str, set] = {f.name: set() for f in program.functions}
    reduction: Dict[str, int] = {f.name: 0 for f in program.functions}

    for q, fname in schedule_of(forest, program):
        amount = program.pass_effects.get(q, 0)
        for p, bonus in synergy_by_target.get(q, ()):
            if p in ran_on[fname]:
                amount += bonus
        if callees[fname]:
            for p, bonus in coupling_by_target.get(q, ()):
                if all(p in ran_on[c] for c in callees[fname]):
                    amount += bonus
        reduction[fname] += amount
        ran_on[fname].add(q)

    total = sum(
        max(0, f.base_ic - reduction[f.name]) for f in program.functions
    )
    return EvaluationResult(instruction_count=total, status="ok")


def write_script(path, body):
    """An executable ``/bin/sh`` script at ``path``, standing in for ``opt``."""
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


# Body of a fake ``opt`` that prints its input as ``opt -S <file> -o -``
# does, which is the run of no steps ``OptBackend.original_count`` asks
# for, and exits 1 on every ``-passes=module(<steps>)`` run, so every
# pipeline fails to evaluate.
FAIL_EVERY_PIPELINE = 'case "$2" in -passes=*) exit 1 ;; esac\ncat "$2"\n'
