"""Hypothesis strategies over valid forests and the core round trips."""

import hypothesis.strategies as st
from hypothesis import given, settings

from passforest import (
    Leaf,
    Manager,
    PassForestError,
    PassLevel,
    PipelineForest,
    default_registry,
    leaf_sequence,
    parse_pipeline,
    print_pipeline,
    validate,
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
    from passforest.forest import leaf_count

    assert len(leaf_sequence(forest)) == leaf_count(forest)


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
