import itertools
import random

import pytest

import helpers
from passforest import (
    ChromosomeLengthMismatch,
    PartitionChromosome,
    PassLevel,
    RefineConfig,
    decision_points,
    decode,
    encode,
    leaf_sequence,
    parse_pipeline,
    print_pipeline,
    refine,
    validate,
)

M = PassLevel.MODULE
C = PassLevel.CGSCC
F = PassLevel.FUNCTION
L = PassLevel.LOOP


# ---------------------------------------------------------------------------
# Decision points.
# ---------------------------------------------------------------------------

def test_decision_points_all_heterogeneous():
    problem = decision_points([("m", M), ("c", C), ("f", F), ("l", L)])
    assert problem.decision_points == ()
    assert problem.space_size() == 1


def test_decision_points_homogeneous_run():
    problem = decision_points([("a", F), ("b", F), ("c", F)])
    assert problem.decision_points == (0, 1)
    assert problem.space_size() == 4


def test_decision_points_mixed():
    problem = decision_points(
        [("m", M), ("f1", F), ("f2", F), ("l1", L), ("l2", L)]
    )
    assert problem.decision_points == (1, 3)


def test_decision_points_empty_sequence_rejected():
    with pytest.raises(ValueError):
        decision_points([])


# ---------------------------------------------------------------------------
# Decoding.
# ---------------------------------------------------------------------------

def test_decode_join(ab_registry):
    problem = decision_points([("gvn", F), ("adce", F)])
    forest = decode(problem, PartitionChromosome((0,)))
    assert print_pipeline(forest) == "module(function(gvn,adce))"


def test_decode_split(ab_registry):
    problem = decision_points([("gvn", F), ("adce", F)])
    forest = decode(problem, PartitionChromosome((1,)))
    assert print_pipeline(forest) == "module(function(gvn),function(adce))"


def test_decode_heterogeneous_forced_cut():
    problem = decision_points([("globalopt", M), ("gvn", F)])
    forest = decode(problem, PartitionChromosome(()))
    assert print_pipeline(forest) == "module(globalopt,function(gvn))"


def test_decode_module_split_uses_separate_trees():
    problem = decision_points([("m1", M), ("m2", M)])
    joined = decode(problem, PartitionChromosome((0,)))
    split = decode(problem, PartitionChromosome((1,)))
    assert print_pipeline(joined) == "module(m1,m2)"
    assert print_pipeline(split) == "module(m1),module(m2)"


def test_decode_loop_blocks():
    problem = decision_points([("l1", L), ("l2", L)])
    joined = decode(problem, PartitionChromosome((0,)))
    split = decode(problem, PartitionChromosome((1,)))
    assert print_pipeline(joined) == "module(function(loop(l1,l2)))"
    assert (
        print_pipeline(split)
        == "module(function(loop(l1)),function(loop(l2)))"
    )


def test_decode_length_mismatch():
    problem = decision_points([("a", F), ("b", F)])
    with pytest.raises(ChromosomeLengthMismatch):
        decode(problem, PartitionChromosome((0, 1)))


def test_decode_preserves_sequence_and_validates(registry):
    rng = random.Random(33)
    for _ in range(100):
        seq = helpers.random_typed_sequence(registry, rng, rng.randint(1, 10))
        problem = decision_points(seq)
        bits = tuple(
            rng.randint(0, 1) for _ in problem.decision_points
        )
        forest = decode(problem, PartitionChromosome(bits))
        assert leaf_sequence(forest) == list(seq)
        assert not validate(forest, registry)


def test_decode_with_shared_blocks_matches_fresh_decode(registry):
    rng = random.Random(41)
    seq = helpers.random_typed_sequence(registry, rng, 9)
    problem = decision_points(seq)
    k = len(problem.decision_points)
    blocks = {}
    for _ in range(50):
        chromosome = PartitionChromosome(tuple(rng.randint(0, 1) for _ in range(k)))
        shared = decode(problem, chromosome, blocks)
        assert shared == decode(problem, chromosome)
        assert print_pipeline(shared) == print_pipeline(decode(problem, chromosome))
    # Later forests hold the very nodes stored for their blocks.
    stored = {id(node) for node in blocks.values()}
    assert stored and all(
        id(child) in stored
        for tree in shared.trees
        for child in tree.children
        if child.level != M
    )


# ---------------------------------------------------------------------------
# Encoding.
# ---------------------------------------------------------------------------

def test_encode_joined(registry):
    forest = parse_pipeline("module(function(gvn,adce))", registry)
    _, chromosome = encode(forest)
    assert chromosome.bits == (0,)


def test_encode_split(registry):
    forest = parse_pipeline("module(function(gvn),function(adce))", registry)
    _, chromosome = encode(forest)
    assert chromosome.bits == (1,)


def test_encode_fully_nested_has_no_decision_points(registry):
    forest = parse_pipeline(
        "module(globalopt,cgscc(inline,function(gvn,loop(loop-deletion))))",
        registry,
    )
    problem, chromosome = encode(forest)
    assert problem.decision_points == ()
    assert chromosome.bits == ()


def test_decode_encode_round_trip_profile(registry):
    rng = random.Random(77)
    for _ in range(100):
        seq = helpers.random_typed_sequence(registry, rng, rng.randint(2, 9))
        problem = decision_points(seq)
        bits = tuple(rng.randint(0, 1) for _ in problem.decision_points)
        forest = decode(problem, PartitionChromosome(bits))
        problem2, chromosome2 = encode(forest)
        assert problem2 == problem
        assert chromosome2.bits == bits


# ---------------------------------------------------------------------------
# refine().
# ---------------------------------------------------------------------------

def test_refine_m2_splits_coupled_pair(m2, ab_registry, backend):
    seed = parse_pipeline("module(function(a,b))", ab_registry)
    result = refine(seed, m2, backend)
    assert result.refined_pipeline == "module(function(a),function(b))"
    assert result.refined_ic == 73
    assert result.seed_ic == 80
    assert result.decision_point_count == 1


def test_refine_without_decision_points_returns_seed(m2, ab_registry, backend):
    # heterogeneous-only sequence
    registry = helpers.load_registry("m=module\na=function\n")
    seed = parse_pipeline("module(m,function(a))", registry)
    result = refine(seed, m2, backend)
    assert result.forest == seed
    assert result.evaluations_used == 1


def test_refine_keeps_optimal_seed(m1, ab_registry, backend):
    seed = parse_pipeline("module(function(a,b))", ab_registry)
    result = refine(seed, m1, backend)
    assert result.forest == seed
    assert result.refined_ic == result.seed_ic == 82


def test_refine_preserves_sequence(backend):
    rng = random.Random(5)
    registry = helpers.synthetic_registry(5, rng)
    for _ in range(20):
        program = helpers.random_mock_program(registry, rng)
        seq = helpers.random_typed_sequence(registry, rng, rng.randint(1, 8))
        problem = decision_points(seq)
        bits = tuple(rng.randint(0, 1) for _ in problem.decision_points)
        seed = decode(problem, PartitionChromosome(bits))
        result = refine(seed, program, backend)
        assert leaf_sequence(result.forest) == leaf_sequence(seed)


def brute_force_best_count(seed, program, backend):
    problem, _ = encode(seed)
    best = float("inf")
    for bits in itertools.product((0, 1), repeat=len(problem.decision_points)):
        forest = decode(problem, PartitionChromosome(bits))
        res = backend.evaluate(program, forest)
        if res.ok:
            best = min(best, res.instruction_count)
    return best


def test_refine_matches_exhaustive_enumeration(backend):
    rng = random.Random(21)
    registry = helpers.synthetic_registry(4, rng)
    for _ in range(10):
        program = helpers.random_mock_program(registry, rng, n_functions=3)
        seq = helpers.random_typed_sequence(registry, rng, rng.randint(2, 9))
        problem = decision_points(seq)
        bits = tuple(rng.randint(0, 1) for _ in problem.decision_points)
        seed = decode(problem, PartitionChromosome(bits))
        result = refine(seed, program, backend)
        assert result.refined_ic == brute_force_best_count(seed, program, backend)
        assert result.refined_ic <= result.seed_ic


def test_refine_genetic_mode_no_regression(backend):
    rng = random.Random(55)
    registry = helpers.synthetic_registry(4, rng)
    program = helpers.random_mock_program(registry, rng, n_functions=3)
    seq = helpers.random_typed_sequence(registry, rng, 10)
    problem = decision_points(seq)
    bits = tuple(0 for _ in problem.decision_points)
    seed = decode(problem, PartitionChromosome(bits))
    config = RefineConfig(exhaustive_budget=1, seed=9)  # force the GA path
    result = refine(seed, program, backend, config)
    assert result.refined_ic <= result.seed_ic
    assert leaf_sequence(result.forest) == leaf_sequence(seed)


def test_refine_genetic_mode_finds_split(m2, ab_registry, backend):
    seed = parse_pipeline("module(function(a,b))", ab_registry)
    config = RefineConfig(exhaustive_budget=1, seed=3)
    result = refine(seed, m2, backend, config)
    assert result.refined_ic == 73


def test_refine_deterministic_tie_break(ab_registry, backend):
    # structure-insensitive program: every partition ties; seed must win
    from passforest import MockFunction, MockProgram

    program = MockProgram(
        functions=(MockFunction("f1", 30),), pass_effects={"a": 1, "b": 1}
    )
    seed = parse_pipeline("module(function(a),function(b))", ab_registry)
    first = refine(seed, program, backend)
    second = refine(seed, program, backend)
    assert first.refined_pipeline == second.refined_pipeline == print_pipeline(seed)


def test_refine_parallel_matches_serial(m2, ab_registry, backend):
    seed = parse_pipeline("module(function(a,b,a,b))", ab_registry)
    serial = refine(seed, m2, backend)
    parallel = refine(seed, m2, backend, parallel=4)
    assert serial.to_dict() == parallel.to_dict()
