"""Hypothesis strategies over valid forests and the core round trips."""

import dataclasses
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from passforest import (
    Individual,
    Leaf,
    Manager,
    MockBackend,
    MockFunction,
    MockProgram,
    PassForestError,
    PartitionChromosome,
    PassLevel,
    PipelineForest,
    crossover,
    decision_points,
    decode,
    default_registry,
    leaf_sequence,
    mock_evaluate,
    mutate,
    parse_pipeline,
    print_pipeline,
    random_forest,
    schedule_of,
    validate,
)
from passforest.forest import (
    insert_child,
    iter_nodes,
    leaf_at,
    leaf_count,
    leaf_paths,
    manager_at,
    nested_forest,
    replace_node,
    trim_to_length,
)
from passforest.synergy import graph_from_counts

from helpers import (
    manager_paths,
    random_mock_program,
    random_typed_sequence,
    reference_crossover,
    reference_decode,
    reference_mock_evaluate,
    reference_mutate,
    reference_nested_forest,
    reference_print_node,
    reference_trim_to_length,
    remove_node,
    synthetic_registry,
)

REGISTRY = default_registry()
_BY_LEVEL = {
    level: [p.name for p in REGISTRY.passes_at(level)] for level in PassLevel
}
_CHILD_MANAGERS = {
    PassLevel.MODULE: [PassLevel.CGSCC, PassLevel.FUNCTION],
    PassLevel.CGSCC: [PassLevel.FUNCTION],
    PassLevel.FUNCTION: [PassLevel.LOOP],
    PassLevel.LOOP: [],
}


def _manager(level: PassLevel, depth: int) -> st.SearchStrategy:
    leaf = st.sampled_from(_BY_LEVEL[level]).map(lambda n: Leaf(n, level))
    options = [leaf]
    if depth > 0:
        options.extend(
            st.deferred(lambda lvl=lvl, d=depth - 1: _manager(lvl, d))
            for lvl in _CHILD_MANAGERS[level]
        )
        options.append(st.deferred(lambda: _manager(level, depth - 1)))
    children = st.lists(st.one_of(options), min_size=1, max_size=4)
    return children.map(lambda cs: Manager(level, tuple(cs)))


def forests(max_depth: int = 3) -> st.SearchStrategy:
    trees = st.lists(_manager(PassLevel.MODULE, max_depth), min_size=1, max_size=3)
    return trees.map(lambda ts: PipelineForest(tuple(ts)))


@given(forests())
@settings(max_examples=200, deadline=None)
def test_generated_forests_are_valid(forest):
    assert validate(forest, REGISTRY) == []


@given(forests())
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(forest):
    assert parse_pipeline(print_pipeline(forest), REGISTRY) == forest


@given(forests())
@settings(max_examples=200, deadline=None)
def test_printed_form_is_canonical(forest):
    printed = print_pipeline(forest)
    assert " " not in printed and "\t" not in printed
    assert printed.count("(") == printed.count(")")
    assert print_pipeline(parse_pipeline(printed, REGISTRY)) == printed


@given(forests())
@settings(max_examples=200, deadline=None)
def test_leaf_sequence_length_matches_leaf_count(forest):
    assert len(leaf_sequence(forest)) == leaf_count(forest)


def _random_edit(forest, donor, rng):
    """One replace_node, insert_child or remove_node at a random site;
    new subtrees come from ``donor``. The result may break rules."""
    nodes = list(iter_nodes(forest))
    donors = [node for _, node in iter_nodes(donor)]
    kind = rng.choice(["replace", "insert", "remove"])
    if not nodes or (kind == "insert" and not manager_paths(forest)):
        return PipelineForest(donor.trees)
    if kind == "replace":
        path, _ = rng.choice(nodes)
        return replace_node(forest, path, rng.choice(donors))
    if kind == "insert":
        path, mgr = rng.choice(manager_paths(forest))
        index = rng.randint(0, len(mgr.children))
        return insert_child(forest, path, index, rng.choice(donors))
    path, _ = rng.choice(nodes)
    return remove_node(forest, path)


@st.composite
def _edited_forests(draw):
    """A random_forest after 0-6 random edits, over the default or a
    synthetic registry."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_passes = draw(st.sampled_from([0, 4, 8]))
    registry = synthetic_registry(n_passes, rng) if n_passes else REGISTRY
    forest = random_forest(rng, registry, max_leaves=16)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        forest = _random_edit(forest, random_forest(rng, registry, 8), rng)
    return forest


@given(_edited_forests())
@settings(max_examples=300, deadline=None)
def test_node_summaries_match_whole_tree_walks(forest):
    for _, node in iter_nodes(forest):
        sub = PipelineForest((node,))
        assert node.text == reference_print_node(node)
        assert node.names == tuple(name for name, _ in leaf_sequence(sub))
        assert node.size == len(leaf_sequence(sub))
        assert node.managers == len(manager_paths(sub))
    assert print_pipeline(forest) == ",".join(map(reference_print_node, forest.trees))
    assert leaf_count(forest) == len(leaf_sequence(forest))


@given(_edited_forests())
@settings(max_examples=300, deadline=None)
def test_manager_walk_matches_preorder_listing(forest):
    paths = manager_paths(forest)
    assert [manager_at(forest, k) for k in range(len(paths))] == paths
    for _, node in paths:
        sub = PipelineForest((node,))
        assert [manager_at(sub, k) for k in range(node.managers)] == manager_paths(sub)


@given(_edited_forests())
@settings(max_examples=300, deadline=None)
def test_leaf_walk_matches_leaf_listing(forest):
    assert [leaf_at(forest, i) for i in range(leaf_count(forest))] == leaf_paths(forest)


@given(_edited_forests())
@settings(max_examples=300, deadline=None)
def test_trim_matches_last_leaf_removal_loop(forest):
    for n in range(leaf_count(forest) + 2):
        assert trim_to_length(forest, n) == reference_trim_to_length(forest, n)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([None, 3, 8]))
@settings(max_examples=300, deadline=None)
def test_crossover_matches_whole_forest_validation(seed, max_length):
    # The local check must accept exactly the swaps after which both
    # offspring validate, and draw the same swap points from the stream.
    rng = random.Random(seed)
    registry = synthetic_registry(6, rng) if seed % 2 else REGISTRY
    parents = [Individual(random_forest(rng, registry, 12)) for _ in range(2)]
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(5):
        got = crossover(*parents, ours, max_length)
        assert got == reference_crossover(*parents, theirs, max_length)
        assert ours.getstate() == theirs.getstate()
        parents = list(got) if got is not None else parents


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_mutate_matches_leaf_listing_operator(seed):
    # Drawing the anchor by index must give the same offspring as listing
    # every leaf, and consume the same draws from the stream.
    rng = random.Random(seed)
    registry = synthetic_registry(6, rng) if seed % 2 else REGISTRY
    names = [p.name for p in registry.concrete_passes()]
    counts = {
        (p, q): rng.randint(1, 3) for p in names for q in names if rng.random() < 0.2
    }
    graph = graph_from_counts(counts, registry)
    individual = Individual(random_forest(rng, registry, 12))
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(5):
        got = mutate(individual, graph, registry, ours)
        assert got == reference_mutate(individual, graph, registry, theirs)
        assert ours.getstate() == theirs.getstate()
        individual = got


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 4, 8]),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=300, deadline=None)
def test_nested_forest_matches_insertion_fold(seed, n_passes, length):
    # One builder places a whole sequence exactly as inserting each pass
    # after the one before it would, and the result is valid.
    rng = random.Random(seed)
    registry = synthetic_registry(n_passes, rng) if n_passes else REGISTRY
    passes = random_typed_sequence(registry, rng, length)
    forest, reference = nested_forest(passes), reference_nested_forest(passes)
    assert forest == reference
    assert print_pipeline(forest) == print_pipeline(reference)
    assert leaf_sequence(forest) == passes
    assert validate(forest, registry) == []


_TOKENS = (
    [f"{level.token}(" for level in PassLevel]
    + [names[0] for names in _BY_LEVEL.values()]
    + ["invalidate<all>", "ghost", "warp(", "(", ")", ",", " "]
)


def _insert(printed: str, index: int, token: str) -> str:
    index %= len(printed) + 1
    return printed[:index] + token + printed[index:]


_PIPELINE_TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join),
    st.builds(
        _insert,
        forests(max_depth=2).map(print_pipeline),
        st.integers(min_value=0),
        st.sampled_from(_TOKENS),
    ),
)


@given(_PIPELINE_TEXTS)
@settings(max_examples=500, deadline=None)
def test_parse_accepts_only_valid_round_tripping_forests(text):
    try:
        forest = parse_pipeline(text, REGISTRY)
    except PassForestError:
        return
    assert validate(forest, REGISTRY) == []
    assert parse_pipeline(print_pipeline(forest), REGISTRY) == forest


@st.composite
def _mock_cases(draw):
    """A random (program, forest) pair over the default or a synthetic
    registry, with functions in random order, some call edges listed
    twice and up to 30 leaves."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_passes = draw(st.sampled_from([0, 4, 8, 12]))
    registry = synthetic_registry(n_passes, rng) if n_passes else REGISTRY
    density = st.floats(min_value=0.0, max_value=0.3)
    program = random_mock_program(
        registry,
        rng,
        n_functions=draw(st.integers(min_value=1, max_value=30)),
        synergy_density=draw(density),
        coupling_density=draw(density),
    )
    # Large base counts keep the zero clamp from hiding a wrong bonus.
    scale = draw(st.sampled_from([1, 20]))
    edges = list(program.call_edges)
    edges += rng.sample(edges, draw(st.integers(min_value=0, max_value=len(edges))))
    rng.shuffle(edges)
    # Shuffled so that callees are also listed before their callers.
    functions = [MockFunction(f.name, f.base_ic * scale) for f in program.functions]
    rng.shuffle(functions)
    program = dataclasses.replace(
        program, functions=tuple(functions), call_edges=tuple(edges)
    )
    trees = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        trees.extend(random_forest(rng, registry, max_leaves=12).trees)
    return program, trim_to_length(PipelineForest(tuple(trees)), 30)


@given(_mock_cases())
@settings(max_examples=300, deadline=None)
def test_mock_evaluate_matches_reference(case):
    program, forest = case
    assert mock_evaluate(program, forest) == reference_mock_evaluate(program, forest)


def _random_partitions(forest, rng, count):
    problem = decision_points(leaf_sequence(forest))
    k = len(problem.decision_points)
    chromosomes = [
        PartitionChromosome(tuple(rng.randint(0, 1) for _ in range(k)))
        for _ in range(count)
    ]
    return problem, chromosomes


@given(_mock_cases(), st.integers(min_value=2, max_value=12), st.randoms())
@settings(max_examples=200, deadline=None)
def test_mock_backend_plan_matches_reference(case, count, rng):
    # The partitions share the case's leaf sequence, so from the second
    # one on the backend scores them by its sequence plan; the case's own
    # forest, evaluated last, has the same sequence in any shape.
    program, forest = case
    problem, chromosomes = _random_partitions(forest, rng, count)
    backend = MockBackend()
    for candidate in [decode(problem, c) for c in chromosomes] + [forest]:
        expected = reference_mock_evaluate(program, candidate)
        assert backend.evaluate(program, candidate) == expected


@given(forests(), st.integers(min_value=1, max_value=8), st.randoms())
@settings(max_examples=200, deadline=None)
def test_decode_matches_block_listing_decode(forest, count, rng):
    problem, chromosomes = _random_partitions(forest, rng, count)
    shared, reference_shared = {}, {}
    for chromosome in chromosomes:
        expected = reference_decode(problem, chromosome)
        for got in (
            decode(problem, chromosome),
            decode(problem, chromosome, shared),
            reference_decode(problem, chromosome, reference_shared),
        ):
            assert got == expected
            assert print_pipeline(got) == print_pipeline(expected)


@given(forests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_schedule_gives_every_function_the_leaf_sequence(forest, n_functions):
    # The premise of mock_evaluate's closed form.
    program = MockProgram(tuple(MockFunction(f"f{i}", 1) for i in range(n_functions)))
    applied = {f.name: [] for f in program.functions}
    for p, fname in schedule_of(forest, program):
        applied[fname].append(p)
    expected = [name for name, _ in leaf_sequence(forest)]
    assert all(passes == expected for passes in applied.values())
