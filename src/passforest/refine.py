"""Structural refinement of a fixed pass sequence.

The pass order found by the main search is kept fixed; what remains open
is where the sequence is cut into manager blocks. By design, boundaries
between passes of different levels always cut, and only boundaries
between same-level neighbors are choices: the decision points. The fixed
cuts can change execution order. Take function pass a and loop pass b
on a mock where f1 calls f2 and a couples with b:
``module(function(a,loop(b)))`` leaves 80 instructions and
``module(function(a),function(loop(b)))`` 73, yet neither has a decision
point (ROADMAP.md open item 4 tracks widening the space to such
boundaries). A bit per decision point
(0 = join, 1 = split) spans the full space of partitions, which is
searched exhaustively when small and by a small genetic algorithm
otherwise. The refined pipeline is never worse than the seed.
"""

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ChromosomeLengthMismatch
from .evaluation import EvaluationResult, Evaluator
from .forest import (
    Leaf,
    Manager,
    PipelineForest,
    PipelineNode,
    adaptor_chain,
    leaf_paths,
    leaf_sequence,
    wrap_in_chain,
)
from .grammar import print_pipeline
from .registry import PassLevel

TypedSequence = Sequence[Tuple[str, PassLevel]]
# Read in decode's loop: an enum member lookup costs ten times a global.
_MODULE = PassLevel.MODULE


@dataclass(frozen=True)
class PartitionProblem:
    """A typed pass sequence plus its joinable boundary indices.

    Boundary i sits between sequence[i] and sequence[i+1]; it is a
    decision point iff the two passes share a level. ``blocks`` caches
    the wrapped non-module blocks ``decode`` builds, by the (start, end)
    positions of their passes, so the forests decoded from one problem
    share them; equality, hashing and repr ignore it.
    """

    sequence: Tuple[Tuple[str, PassLevel], ...]
    decision_points: Tuple[int, ...]
    blocks: Dict[Tuple[int, int], PipelineNode] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def space_size(self) -> int:
        return 2 ** len(self.decision_points)


@dataclass(frozen=True)
class PartitionChromosome:
    """Join/split bit per decision point: 0 joins, 1 splits."""

    bits: Tuple[int, ...]


def decision_points(sequence: TypedSequence) -> PartitionProblem:
    # Members, not plain ints: decode compares levels by identity.
    seq = tuple((name, PassLevel(level)) for name, level in sequence)
    if not seq:
        raise ValueError("sequence is empty")
    points = tuple(
        i for i in range(len(seq) - 1) if seq[i][1] == seq[i + 1][1]
    )
    return PartitionProblem(sequence=seq, decision_points=points)


def decode(problem: PartitionProblem, chromosome: PartitionChromosome) -> PipelineForest:
    """Materialize a partition as a forest.

    Every boundary cuts unless a 0 bit joins it, and each segment between
    cuts is one block. A non-module block becomes one innermost manager
    wrapped in its adaptor chain; blocks sit as siblings inside a shared
    module tree. A module-level block places its passes directly under
    the module root, and starts a new tree when the pass before it is
    also module-level (nested module managers are never produced). The
    leaf sequence of the result equals the input sequence. A block is
    built once per problem and kept in ``problem.blocks``, so every
    forest decoded from one problem holds the same node for it.
    """
    if len(chromosome.bits) != len(problem.decision_points):
        raise ChromosomeLengthMismatch(
            f"chromosome length {len(chromosome.bits)} != "
            f"{len(problem.decision_points)} decision points"
        )
    sequence, blocks = problem.sequence, problem.blocks
    # cuts[i]: a block ends after pass i; the last pass always ends one.
    cuts = [True] * len(sequence)
    for i, bit in zip(problem.decision_points, chromosome.bits):
        if not bit:
            cuts[i] = False
    trees: List[List] = [[]]
    start = 0
    for end, cut in enumerate(cuts, 1):
        if not cut:
            continue
        level = sequence[start][1]
        if level is _MODULE:
            if start and sequence[start - 1][1] is _MODULE:
                trees.append([])
            trees[-1].extend(Leaf(name, level) for name, _ in sequence[start:end])
        else:
            block = blocks.get((start, end))
            if block is None:
                leaves = tuple(Leaf(name, level) for name, _ in sequence[start:end])
                block = wrap_in_chain(adaptor_chain(_MODULE, level), leaves)
                blocks[start, end] = block
            trees[-1].append(block)
        start = end
    return PipelineForest(
        tuple([Manager(_MODULE, tuple(children)) for children in trees])
    )


def encode(forest: PipelineForest) -> Tuple[PartitionProblem, PartitionChromosome]:
    """Read a forest back into partition space.

    Bit i is 0 iff passes i and i+1 share their innermost manager. Seeds
    with same-level manager nesting or multi-tree splits collapse onto
    their flat equivalence class; the leaf sequence is always preserved.
    """
    problem = decision_points(leaf_sequence(forest))
    parents = [path[:-1] for path, _ in leaf_paths(forest)]
    bits = tuple(
        0 if parents[i] == parents[i + 1] else 1
        for i in problem.decision_points
    )
    return problem, PartitionChromosome(bits)


# The partition GA, used when 2^|D| exceeds the exhaustive budget; its
# per-bit mutation rate is 1/|D|.
GA_POPULATION_SIZE = 16
GA_GENERATIONS = 10
GA_CROSSOVER_RATE = 0.9
GA_TOURNAMENT_SIZE = 3


@dataclass
class RefineConfig:
    exhaustive_budget: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.exhaustive_budget < 0:
            raise ValueError(
                f"exhaustive budget must be >= 0, got {self.exhaustive_budget}"
            )


@dataclass
class RefinementResult:
    forest: PipelineForest
    seed_pipeline: str
    seed_ic: Optional[int]
    refined_pipeline: str
    refined_ic: Optional[int]
    decision_point_count: int
    evaluations_used: int

    def to_dict(self) -> dict:
        return {
            "seed_pipeline": self.seed_pipeline,
            "seed_ic": self.seed_ic,
            "refined_pipeline": self.refined_pipeline,
            "refined_ic": self.refined_ic,
            "decision_point_count": self.decision_point_count,
            "evaluations_used": self.evaluations_used,
        }


def _all_chromosomes(k: int):
    for bits in itertools.product((0, 1), repeat=k):
        yield PartitionChromosome(bits)


def _count(result: EvaluationResult) -> float:
    return result.instruction_count if result.ok else float("inf")


def refine(
    seed_forest: PipelineForest,
    program,
    backend,
    config: Optional[RefineConfig] = None,
    parallel: int = 1,
) -> RefinementResult:
    """Search the partition space of the seed's pass sequence.

    Exhaustive when 2^|D| fits the budget, genetic otherwise (the seed's
    own chromosome joins the initial population). Ties between decoded
    candidates break toward the lexicographically smallest pipeline
    string; the seed wins unless a candidate is strictly better, so the
    result never regresses.
    """
    config = config or RefineConfig()
    evaluator = Evaluator(backend, program, parallel)
    seed_count = _count(evaluator.map([seed_forest])[0])
    problem, seed_chromosome = encode(seed_forest)
    k = len(problem.decision_points)

    if k > 0:
        if problem.space_size() <= config.exhaustive_budget:
            evaluator.map(
                [decode(problem, chromosome) for chromosome in _all_chromosomes(k)]
            )
        else:
            _genetic_partition_search(problem, seed_chromosome, evaluator, config.seed)
    # Every candidate and the seed are in the memo; including the seed
    # cannot change the outcome, since it wins every tie below.
    counts = {key: _count(res) for key, res in evaluator.results.items()}
    best_key = min(counts, key=lambda key: (counts[key], key))
    best_forest, best_count = evaluator.forests[best_key], counts[best_key]
    if not best_count < seed_count:
        best_forest, best_count = seed_forest, seed_count
    return RefinementResult(
        forest=best_forest,
        seed_pipeline=print_pipeline(seed_forest),
        seed_ic=None if seed_count == float("inf") else int(seed_count),
        refined_pipeline=print_pipeline(best_forest),
        refined_ic=None if best_count == float("inf") else int(best_count),
        decision_point_count=k,
        evaluations_used=len(evaluator.results),
    )


def _genetic_partition_search(
    problem: PartitionProblem,
    seed_chromosome: PartitionChromosome,
    evaluator: Evaluator,
    seed: int,
) -> None:
    """Bit-vector GA over decision points; every candidate lands in the memo."""
    rng = random.Random(seed)
    k = len(problem.decision_points)
    mutation_rate = 1.0 / k

    population = [seed_chromosome]
    while len(population) < GA_POPULATION_SIZE:
        population.append(
            PartitionChromosome(tuple(rng.randint(0, 1) for _ in range(k)))
        )

    for _ in range(GA_GENERATIONS + 1):
        forests = [decode(problem, ch) for ch in population]
        results = evaluator.map(forests)
        # (count, pipeline string) per member: lower is better.
        scores = [
            (_count(res), print_pipeline(forest))
            for forest, res in zip(forests, results)
        ]
        elite = min(range(len(population)), key=scores.__getitem__)
        next_population = [population[elite]]
        while len(next_population) < GA_POPULATION_SIZE:
            parents = []
            for _ in range(2):
                contenders = [
                    rng.randrange(len(population))
                    for _ in range(GA_TOURNAMENT_SIZE)
                ]
                best = min(contenders, key=lambda i: scores[i][0])
                parents.append(population[best])
            bits_a, bits_b = parents[0].bits, parents[1].bits
            if rng.random() < GA_CROSSOVER_RATE and k > 1:
                point = rng.randrange(1, k)
                bits_a, bits_b = (
                    bits_a[:point] + bits_b[point:],
                    bits_b[:point] + bits_a[point:],
                )
            for bits in (bits_a, bits_b):
                if len(next_population) >= GA_POPULATION_SIZE:
                    break
                flipped = tuple(
                    (1 - b) if rng.random() < mutation_rate else b for b in bits
                )
                next_population.append(PartitionChromosome(flipped))
        population = next_population
