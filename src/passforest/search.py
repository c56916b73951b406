"""Structure-aware genetic search over pipeline forests.

Individuals are whole forests, valid by construction: initialization
walks the synergy graph and places the walk's passes by the placement
rule of ``forest.nested_forest``, crossover swaps manager-rooted
subtrees and discards any swap that breaks a nesting rule, and mutation
grows or rewrites the forest around a randomly chosen anchor pass by the
same rule. The net effect is that no candidate ever needs repair and no
evaluation is wasted on an invalid pipeline.

All randomness flows through one seeded stream consumed in a fixed
order, so a run is a pure function of (program, graph, config); fitness
evaluations may be parallel without changing the result. The draws read
the graph and the registry through ``_DrawTables``, built once per search;
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


class _DrawTables:
    """What the GA's draws read of (graph, registry), built once per search.

    A table is a list of (name, level) items and their cumulative weights,
    or None when nothing can be drawn: ``starts`` for a walk's first pass,
    ``successors(name)`` for a synergy partner of ``name`` (built on first
    use). ``concrete`` lists every pass with a level."""

    def __init__(self, graph: SynergyGraph, registry: PassRegistry):
        self._graph, self._registry = graph, registry
        self._successors: Dict[str, Optional[tuple]] = {}
        self.starts = self._table(graph.start_weights.items())
        self.concrete = [(p.name, p.level) for p in registry.concrete_passes()]

    def _table(self, weighted) -> Optional[tuple]:
        """The draw over the (name, weight) pairs of weight > 0 placed at a level."""
        items, weights, registry = [], [], self._registry
        for name, weight in weighted:
            level = registry.level_of(name) if weight > 0 and name in registry else None
            if level is not None:
                items.append((name, level))
                weights.append(weight)
        return (items, list(accumulate(weights))) if items else None

    def successors(self, name: str) -> Optional[tuple]:
        if name not in self._successors:
            self._successors[name] = self._table(
                (e.dst, e.weight) for e in self._graph.successors(name)
            )
        return self._successors[name]


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
    graph: SynergyGraph,
    registry: PassRegistry,
    config: SearchConfig,
    rng: random.Random,
    tables: Optional[_DrawTables] = None,
) -> Individual:
    """Seed one individual by a weighted random walk on the graph.

    The start pass follows the mined start distribution and each
    successor is drawn proportionally to its synergy weight, until the
    walk has ``max_sequence_length`` passes or a pass without a
    successor; ``forest.nested_forest`` then places the walk. Names and
    edges of weight 0 are never drawn, and a graph without a start pass
    of weight > 0 in ``registry`` falls back to a uniformly random valid
    forest. ``tables`` are the search's draw tables for (graph,
    registry), built here when omitted; the draws are the same either way.
    """
    tables = tables or _DrawTables(graph, registry)
    if tables.starts is None:
        return Individual(
            random_forest(rng, registry, max_leaves=config.max_sequence_length)
        )
    walk = [_draw(rng, tables.starts)]
    while len(walk) < config.max_sequence_length:
        successors = tables.successors(walk[-1][0])
        if successors is None:
            break
        walk.append(_draw(rng, successors))
    return Individual(nested_forest(walk))


def crossover(
    parent_a: Individual,
    parent_b: Individual,
    rng: random.Random,
    max_sequence_length: Optional[int] = None,
) -> Optional[Tuple[Individual, Individual]]:
    """Swap one random manager-rooted subtree between the parents.

    Returns None (parents unchanged) when either offspring would break a
    nesting rule. Oversized offspring are trimmed from the tail.

    Each swap point is the k-th manager in preorder for a uniform k. The
    parents are valid, so an offspring is valid iff the subtree it
    receives is admitted where it lands; only that is checked.
    """
    forest_a, forest_b = parent_a.forest, parent_b.forest
    path_a, node_a = manager_at(forest_a, rng.choice(range(manager_count(forest_a))))
    path_b, node_b = manager_at(forest_b, rng.choice(range(manager_count(forest_b))))
    if not (_admits(forest_a, path_a, node_b) and _admits(forest_b, path_b, node_a)):
        return None
    child_a = replace_node(forest_a, path_a, node_b)
    child_b = replace_node(forest_b, path_b, node_a)
    if max_sequence_length is not None:
        child_a = trim_to_length(child_a, max_sequence_length)
        child_b = trim_to_length(child_b, max_sequence_length)
    return Individual(child_a), Individual(child_b)


def _admits(forest: PipelineForest, path: Tuple[int, ...], node: Manager) -> bool:
    """Whether ``node`` may stand at ``path``: a module manager at top
    level, else a child its parent manager admits."""
    if len(path) == 1:
        return node.level == _MODULE
    return allowed_child(get_node(forest, path[:-1]).level, node)


def mutate(
    individual: Individual,
    graph: SynergyGraph,
    registry: PassRegistry,
    rng: random.Random,
    tables: Optional[_DrawTables] = None,
) -> Individual:
    """Grow or rewrite the forest around a random anchor pass.

    A synergy partner of the anchor is preferred; without one, a random
    concrete pass keeps the population diverse. Half the time the chosen
    pass replaces another leaf of its own level, otherwise it is
    inserted next to the anchor the same way the walk would place it.
    ``tables`` are as for ``weighted_walk_init``. Only the leaves at the
    partner's level are listed, in preorder.
    """
    tables = tables or _DrawTables(graph, registry)
    forest = individual.forest
    anchor_path, anchor = leaf_at(forest, rng.randrange(leaf_count(forest)))
    successors = tables.successors(anchor.name)
    if successors is not None:
        partner, partner_level = _draw(rng, successors)
    else:
        partner, partner_level = rng.choice(tables.concrete)
    if rng.random() < 0.5:
        candidates = _leaf_paths_at(forest.trees, partner_level, (), [])
        if anchor.level == partner_level:
            candidates.remove(anchor_path)
        if candidates:
            target = rng.choice(candidates)
            return Individual(
                replace_node(forest, target, Leaf(partner, partner_level))
            )
    return Individual(_place_after_anchor(forest, anchor_path, partner, partner_level))


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
    tables = _DrawTables(graph, registry)
    ic_orig = backend.original_count(program)
    evaluator = Evaluator(backend, program, parallel)

    def score(population: List[Individual]) -> List[Individual]:
        results = evaluator.map([ind.forest for ind in population])
        failed = failed_fitness(ic_orig)
        return [
            Individual(ind.forest, ic_orig - res.instruction_count if res.ok else failed)
            for ind, res in zip(population, results)
        ]

    population = [
        weighted_walk_init(graph, registry, config, rng, tables)
        for _ in range(config.population_size)
    ]
    population = score(population)
    best = max(population, key=lambda ind: ind.fitness)
    log: List[dict] = [_log_record(0, best, population)]

    for generation in range(1, config.generations + 1):
        ranked = sorted(population, key=lambda ind: ind.fitness, reverse=True)
        next_population: List[Individual] = list(ranked[:ELITISM])
        while len(next_population) < config.population_size:
            parent_a = _tournament(rng, population)
            parent_b = _tournament(rng, population)
            children: Tuple[Individual, Individual] = (parent_a, parent_b)
            if rng.random() < CROSSOVER_RATE:
                swapped = crossover(
                    parent_a, parent_b, rng, config.max_sequence_length
                )
                if swapped is not None:
                    children = swapped
            for child in children:
                if len(next_population) >= config.population_size:
                    break
                if rng.random() < MUTATION_RATE:
                    child = mutate(child, graph, registry, rng, tables)
                    child = Individual(
                        trim_to_length(child.forest, config.max_sequence_length)
                    )
                next_population.append(child)
        population = score(next_population)
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
