"""Structure-aware genetic search over pipeline forests.

Individuals are whole forests, valid by construction: initialization
walks the synergy graph and places the walk's passes by the placement
rule of ``forest.nested_forest``, crossover swaps manager-rooted
subtrees and discards any swap that breaks a nesting rule, and mutation
grows or rewrites the forest around a randomly chosen anchor pass by the
same rule. The net effect is that no candidate ever needs repair and no
evaluation is wasted on an invalid pipeline. The operators take and
return plain forests; only ``run_search`` pairs a forest with its
fitness, as an ``Individual``, and trims each child to the length bound.

All randomness flows through one seeded stream consumed in a fixed
order, so a run is a pure function of (program, graph, config); fitness
evaluations may be parallel without changing the result. The draws read
the graph and the registry through ``DrawTables``, built once per search;
a draw by cumulative weights takes the same number from the stream and
picks the same item as ``random.choices`` by plain weights.
"""

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .evaluation import Evaluator
from .forest import (
    Leaf,
    Manager,
    PipelineForest,
    adaptor_chain,
    allowed_child,
    get_node,
    insert_child,
    insert_tree,
    leaf_at,
    leaf_count,
    manager_at,
    manager_count,
    minimal_wrap,
    nested_forest,
    random_forest,
    replace_node,
    trim_to_length,
    wrap_in_chain,
)
from .grammar import print_pipeline
from .registry import PassLevel, PassRegistry
from .synergy import SynergyGraph

# Read in _admits: an enum member lookup costs ten times a global.
_MODULE = PassLevel.MODULE


@dataclass(frozen=True)
class Individual:
    forest: PipelineForest
    fitness: Optional[int] = None


# Contenders per parent selection, best individuals carried over
# unchanged into each generation, and the chances that a pair of parents
# is crossed over and that a child is mutated.
TOURNAMENT_SIZE = 3
ELITISM = 1
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.3


@dataclass
class SearchConfig:
    population_size: int = 50
    generations: int = 20
    max_sequence_length: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.max_sequence_length < 1:
            raise ValueError("max_sequence_length must be >= 1")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


class DrawTables:
    """What the GA's draws read of (graph, registry), built once per search.

    A table is a list of (name, level) items and their cumulative weights,
    or None when nothing can be drawn: ``starts`` for a walk's first pass,
    ``successors.get(name)`` for a synergy partner of ``name``.
    ``concrete`` lists every pass with a level, and ``registry`` serves
    the walk's ``random_forest`` fallback."""

    def __init__(self, graph: SynergyGraph, registry: PassRegistry):
        self.registry = registry
        self.starts = self._table(graph.start_weights.items())
        self.successors: Dict[str, Optional[tuple]] = {
            name: self._table((e.dst, e.weight) for e in graph.successors(name))
            for name in graph.nodes
        }
        self.concrete = [(p.name, p.level) for p in registry.concrete_passes()]

    def _table(self, weighted) -> Optional[tuple]:
        """The draw over the (name, weight) pairs of weight > 0 placed at a level."""
        items, weights, registry = [], [], self.registry
        for name, weight in weighted:
            level = registry.level_of(name) if weight > 0 and name in registry else None
            if level is not None:
                items.append((name, level))
                weights.append(weight)
        return (items, list(accumulate(weights))) if items else None


def _draw(rng: random.Random, table: tuple) -> Tuple[str, PassLevel]:
    items, cum_weights = table
    return rng.choices(items, cum_weights=cum_weights)[0]


def _place_after_anchor(
    forest: PipelineForest,
    anchor_path: Tuple[int, ...],
    name: str,
    level: PassLevel,
) -> PipelineForest:
    """Insert a pass right after the anchor leaf by the placement rule of
    ``forest.nested_forest``, taking the anchor as the previous pass."""
    anchor = get_node(forest, anchor_path)
    parent_path, idx = anchor_path[:-1], anchor_path[-1]
    if level == anchor.level:
        return insert_child(forest, parent_path, idx + 1, Leaf(name, level))
    if level > anchor.level:
        node = wrap_in_chain(adaptor_chain(anchor.level, level), (Leaf(name, level),))
        return insert_child(forest, parent_path, idx + 1, node)
    return insert_tree(forest, anchor_path[0] + 1, minimal_wrap(name, level))


def weighted_walk_init(
    tables: DrawTables, max_length: int, rng: random.Random
) -> PipelineForest:
    """Seed one forest by a weighted random walk on the graph.

    The start pass follows the mined start distribution and each
    successor is drawn proportionally to its synergy weight, until the
    walk has ``max_length`` passes or a pass without a successor;
    ``forest.nested_forest`` then places the walk. Names and edges of
    weight 0 are never drawn, and a graph without a start pass of
    weight > 0 in the registry falls back to a uniformly random valid
    forest.
    """
    if tables.starts is None:
        return random_forest(rng, tables.registry, max_leaves=max_length)
    walk = [_draw(rng, tables.starts)]
    while len(walk) < max_length:
        successors = tables.successors.get(walk[-1][0])
        if successors is None:
            break
        walk.append(_draw(rng, successors))
    return nested_forest(walk)


def crossover(
    forest_a: PipelineForest, forest_b: PipelineForest, rng: random.Random
) -> Optional[Tuple[PipelineForest, PipelineForest]]:
    """Swap one random manager-rooted subtree between two forests.

    Returns None (parents unchanged) when either offspring would break a
    nesting rule. Offspring may be longer than either parent; the search
    trims them.

    Each swap point is the k-th manager in preorder for a uniform k. The
    parents are valid, so an offspring is valid iff the subtree it
    receives is admitted where it lands; only that is checked.
    """
    path_a, node_a = manager_at(forest_a, rng.choice(range(manager_count(forest_a))))
    path_b, node_b = manager_at(forest_b, rng.choice(range(manager_count(forest_b))))
    if not (_admits(forest_a, path_a, node_b) and _admits(forest_b, path_b, node_a)):
        return None
    return replace_node(forest_a, path_a, node_b), replace_node(forest_b, path_b, node_a)


def _admits(forest: PipelineForest, path: Tuple[int, ...], node: Manager) -> bool:
    """Whether ``node`` may stand at ``path``: a module manager at top
    level, else a child its parent manager admits."""
    if len(path) == 1:
        return node.level == _MODULE
    return allowed_child(get_node(forest, path[:-1]).level, node)


def mutate(forest: PipelineForest, tables: DrawTables, rng: random.Random) -> PipelineForest:
    """Grow or rewrite the forest around a random anchor pass.

    A synergy partner of the anchor is preferred; without one, a random
    concrete pass keeps the population diverse. Half the time the chosen
    pass replaces another leaf of its own level, otherwise it is
    inserted next to the anchor the same way the walk would place it.
    Only the leaves at the partner's level are listed, in preorder.
    """
    anchor_path, anchor = leaf_at(forest, rng.randrange(leaf_count(forest)))
    successors = tables.successors.get(anchor.name)
    if successors is not None:
        partner, partner_level = _draw(rng, successors)
    else:
        partner, partner_level = rng.choice(tables.concrete)
    if rng.random() < 0.5:
        candidates = _leaf_paths_at(forest.trees, partner_level, (), [])
        if anchor.level == partner_level:
            candidates.remove(anchor_path)
        if candidates:
            return replace_node(forest, rng.choice(candidates), Leaf(partner, partner_level))
    return _place_after_anchor(forest, anchor_path, partner, partner_level)


def _leaf_paths_at(nodes, level: PassLevel, prefix: Tuple[int, ...], out: list) -> list:
    """Append to ``out`` the paths of the leaves at ``level`` under
    ``nodes``, in preorder. Managers nest only at their own or deeper
    levels, so a manager deeper than ``level`` is skipped whole."""
    for i, node in enumerate(nodes):
        if node.__class__ is Leaf:
            if node.level == level:
                out.append(prefix + (i,))
        elif node.level <= level:
            _leaf_paths_at(node.children, level, prefix + (i,), out)
    return out


def _tournament(rng: random.Random, population: List[Individual]) -> Individual:
    """The fittest of ``TOURNAMENT_SIZE`` uniform draws; the first on ties."""
    n = len(population)
    best = population[rng.randrange(n)]
    for _ in range(TOURNAMENT_SIZE - 1):
        contender = population[rng.randrange(n)]
        if contender.fitness > best.fitness:
            best = contender
    return best


def failed_fitness(ic_orig: int) -> int:
    """Fitness of a candidate that failed to evaluate, on a program of
    ``ic_orig`` instructions: one below any pipeline that at most
    doubles the program."""
    return -ic_orig - 1


def run_search(
    program,
    graph: SynergyGraph,
    registry: PassRegistry,
    backend,
    config: SearchConfig,
    parallel: int = 1,
) -> Tuple[Individual, List[dict]]:
    """Evolve pipelines for one program; returns (best-ever, log).

    Fitness is the instruction-count reduction against the unoptimized
    program; failed evaluations rank strictly below "no change". The log
    holds one record per generation with the best-so-far fitness (which
    is nondecreasing) and the population mean.
    """
    rng = random.Random(config.seed)
    tables = DrawTables(graph, registry)
    max_length = config.max_sequence_length
    ic_orig = backend.original_count(program)
    evaluator = Evaluator(backend, program, parallel)

    def score(forests: List[PipelineForest]) -> List[Individual]:
        results = evaluator.map(forests)
        failed = failed_fitness(ic_orig)
        return [
            Individual(forest, ic_orig - res.instruction_count if res.ok else failed)
            for forest, res in zip(forests, results)
        ]

    population = score(
        [weighted_walk_init(tables, max_length, rng) for _ in range(config.population_size)]
    )
    best = max(population, key=lambda ind: ind.fitness)
    log: List[dict] = [_log_record(0, best, population)]

    for generation in range(1, config.generations + 1):
        ranked = sorted(population, key=lambda ind: ind.fitness, reverse=True)
        offspring = [ind.forest for ind in ranked[:ELITISM]]
        while len(offspring) < config.population_size:
            pair = (_tournament(rng, population).forest, _tournament(rng, population).forest)
            if rng.random() < CROSSOVER_RATE:
                pair = crossover(*pair, rng) or pair
            for child in pair:
                if len(offspring) >= config.population_size:
                    break
                child = trim_to_length(child, max_length)
                if rng.random() < MUTATION_RATE:
                    child = trim_to_length(mutate(child, tables, rng), max_length)
                offspring.append(child)
        population = score(offspring)
        generation_best = max(population, key=lambda ind: ind.fitness)
        if generation_best.fitness > best.fitness:
            best = generation_best
        log.append(_log_record(generation, best, population))
    return best, log


def _log_record(generation: int, best: Individual, population) -> dict:
    fitnesses = [ind.fitness for ind in population]
    return {
        "generation": generation,
        "best_fitness": best.fitness,
        "mean_fitness": sum(fitnesses) / len(fitnesses),
        "best_pipeline_string": print_pipeline(best.forest),
    }
