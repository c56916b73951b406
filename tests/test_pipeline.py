import random

import pytest

import helpers
from helpers import is_valid
from passforest import (
    EmptyManager,
    Leaf,
    LevelMismatch,
    Manager,
    PassLevel,
    PipelineForest,
    PipelineSyntaxError,
    TopLevelNotModule,
    UnknownPass,
    build_skeleton_variant,
    leaf_sequence,
    load_registry,
    minimal_wrap,
    parse_pipeline,
    print_pipeline,
    random_forest,
    validate,
)
from passforest.forest import leaf_paths

FULLY_NESTED = "module(globalopt,cgscc(inline,function(gvn,loop(loop-deletion))))"


def printed_depth(forest) -> int:
    """Deepest manager nesting, read off the printed pipeline."""
    depth = deepest = 0
    for char in print_pipeline(forest):
        depth += {"(": 1, ")": -1}.get(char, 0)
        deepest = max(deepest, depth)
    return deepest


def test_parse_fully_nested(registry):
    forest = parse_pipeline(FULLY_NESTED, registry)
    assert len(forest.trees) == 1
    assert printed_depth(forest) == 4
    assert [name for name, _ in leaf_sequence(forest)] == [
        "globalopt",
        "inline",
        "gvn",
        "loop-deletion",
    ]


def test_parse_minimal(registry):
    forest = parse_pipeline("module(globalopt)", registry)
    assert leaf_sequence(forest) == [("globalopt", PassLevel.MODULE)]


def test_parse_top_level_not_module(registry):
    with pytest.raises(TopLevelNotModule) as err:
        parse_pipeline("function(gvn)", registry)
    assert "R1" in str(err.value)


def test_parse_bare_pass_at_top_level(registry):
    with pytest.raises(TopLevelNotModule):
        parse_pipeline("globalopt", registry)


def test_parse_level_mismatch(registry):
    with pytest.raises(LevelMismatch) as err:
        parse_pipeline("module(function(globalopt))", registry)
    assert "R7" in str(err.value)


def test_parse_manager_level_mismatch(registry):
    with pytest.raises(LevelMismatch) as err:
        parse_pipeline("module(loop(licm))", registry)
    assert "R3" in str(err.value)


def test_parse_error_names_the_offending_pass(registry):
    with pytest.raises(LevelMismatch) as err:
        parse_pipeline("module(function(globalopt))", registry)
    assert str(err.value) == (
        "R7 at 0/0/0: 'globalopt' (module pass) not admitted under function manager"
    )


def test_parse_unknown_pass(registry):
    with pytest.raises(UnknownPass):
        parse_pipeline("module(nonexistent-pass)", registry)


def test_parse_empty_manager(registry):
    with pytest.raises(EmptyManager):
        parse_pipeline("module()", registry)


@pytest.mark.parametrize(
    "text",
    ["", "module(globalopt", "module(globalopt))", "module(globalopt,,strip)",
     "(globalopt)", "module(globalopt) module(strip)", "warp(globalopt)"],
)
def test_parse_syntax_errors(text, registry):
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline(text, registry)


def test_parse_tolerates_whitespace(registry):
    forest = parse_pipeline(
        "  module( globalopt ,\n cgscc( inline ) )  ", registry
    )
    assert print_pipeline(forest) == "module(globalopt,cgscc(inline))"


def test_print_round_trips_fully_nested(registry):
    forest = parse_pipeline(FULLY_NESTED, registry)
    assert print_pipeline(forest) == FULLY_NESTED


def test_print_two_tree_forest(registry):
    forest = parse_pipeline("module(strip) , module(strip)", registry)
    assert print_pipeline(forest) == "module(strip),module(strip)"


def test_polymorphic_pass_takes_enclosing_level(registry):
    forest = parse_pipeline(
        "module(invalidate<all>,function(invalidate<all>,loop(invalidate<all>)))",
        registry,
    )
    assert leaf_sequence(forest) == [
        ("invalidate<all>", PassLevel.MODULE),
        ("invalidate<all>", PassLevel.FUNCTION),
        ("invalidate<all>", PassLevel.LOOP),
    ]
    assert not validate(forest, registry)


def test_same_level_manager_nesting_parses(registry):
    # the grammar admits module(module(...)) and function(function(...))
    forest = parse_pipeline(
        "module(module(strip),function(function(gvn)))", registry
    )
    assert not validate(forest, registry)


# ---------------------------------------------------------------------------
# validate() on manually built forests.
# ---------------------------------------------------------------------------

def test_validate_clean_forest(registry):
    assert validate(parse_pipeline(FULLY_NESTED, registry), registry) == []


def test_validate_loop_manager_under_module():
    loop = Manager(PassLevel.LOOP, (Leaf("licm", PassLevel.LOOP),))
    forest = PipelineForest((Manager(PassLevel.MODULE, (loop,)),))
    violations = validate(forest)
    assert any(v.rule == "R3" for v in violations)


def test_validate_empty_manager():
    forest = PipelineForest((Manager(PassLevel.MODULE, ()),))
    violations = validate(forest)
    assert [v.rule for v in violations] == ["R2"]
    assert "empty" in violations[0].message


def test_validate_non_module_root():
    fn = Manager(PassLevel.FUNCTION, (Leaf("gvn", PassLevel.FUNCTION),))
    violations = validate(PipelineForest((fn,)))
    assert [v.rule for v in violations] == ["R1"]


def test_validate_empty_forest():
    violations = validate(PipelineForest(()))
    assert [(v.rule, v.message) for v in violations] == [("R1", "pipeline has no trees")]


def test_validate_unknown_pass_with_registry(registry):
    forest = PipelineForest(
        (Manager(PassLevel.MODULE, (Leaf("ghost", PassLevel.MODULE),)),)
    )
    assert not validate(forest)
    assert any("ghost" in v.message for v in validate(forest, registry))


def test_validate_registry_level_mismatch(registry):
    forest = PipelineForest(
        (Manager(PassLevel.MODULE, (Leaf("gvn", PassLevel.MODULE),)),)
    )
    assert any(v.rule == "registry" for v in validate(forest, registry))


# ---------------------------------------------------------------------------
# Leaf sequences, wraps, metrics, skeletons.
# ---------------------------------------------------------------------------

def test_leaf_sequence_two_trees(registry):
    forest = parse_pipeline("module(globalopt),module(strip)", registry)
    assert [name for name, _ in leaf_sequence(forest)] == ["globalopt", "strip"]


def test_leaf_sequence_single(registry):
    forest = parse_pipeline("module(strip)", registry)
    assert len(leaf_sequence(forest)) == 1


@pytest.mark.parametrize(
    "name,level,expected",
    [
        ("gvn", PassLevel.FUNCTION, "module(function(gvn))"),
        ("loop-deletion", PassLevel.LOOP, "module(function(loop(loop-deletion)))"),
        ("globalopt", PassLevel.MODULE, "module(globalopt)"),
        ("inline", PassLevel.CGSCC, "module(cgscc(inline))"),
    ],
)
def test_minimal_wrap(name, level, expected):
    forest = PipelineForest((minimal_wrap(name, level),))
    assert print_pipeline(forest) == expected
    assert is_valid(forest)


def test_structural_metrics_same_level_nesting_exceeds_four(registry):
    forest = parse_pipeline(
        "module(function(function(function(function(function(gvn))))))",
        registry,
    )
    assert printed_depth(forest) == 6


def test_structural_metrics_examples(registry):
    nested = build_skeleton_variant(
        5, "globalopt", "inline", "gvn", "loop-deletion", registry
    )
    assert len(nested.trees) == 1
    assert printed_depth(nested) == 4
    sequential = build_skeleton_variant(
        1, "globalopt", "inline", "gvn", "loop-deletion", registry
    )
    assert len(sequential.trees) == 4
    assert printed_depth(sequential) == 3
    single = parse_pipeline("module(globalopt)", registry)
    assert len(single.trees) == 1
    assert printed_depth(single) == 1


SKELETON_STRINGS = {
    1: "module(globalopt),module(cgscc(inline)),module(function(gvn)),"
       "module(function(loop(loop-deletion)))",
    2: "module(globalopt),module(cgscc(inline)),"
       "module(function(gvn,loop(loop-deletion)))",
    3: "module(globalopt,cgscc(inline)),module(function(gvn,loop(loop-deletion)))",
    4: "module(globalopt),module(cgscc(inline,function(gvn,loop(loop-deletion))))",
    5: "module(globalopt,cgscc(inline,function(gvn,loop(loop-deletion))))",
}


@pytest.mark.parametrize("variant", sorted(SKELETON_STRINGS))
def test_skeleton_variants_print_exactly(variant, registry):
    forest = build_skeleton_variant(
        variant, "globalopt", "inline", "gvn", "loop-deletion", registry
    )
    assert print_pipeline(forest) == SKELETON_STRINGS[variant]
    assert not validate(forest, registry)


def test_skeletons_preserve_pass_order(registry):
    sequences = {
        variant: leaf_sequence(
            build_skeleton_variant(
                variant, "globalopt", "inline", "gvn", "loop-deletion", registry
            )
        )
        for variant in range(1, 6)
    }
    assert len({tuple(seq) for seq in sequences.values()}) == 1


def test_skeleton_variant_level_check(registry):
    with pytest.raises(LevelMismatch):
        build_skeleton_variant(1, "gvn", "inline", "gvn", "loop-deletion", registry)


# ---------------------------------------------------------------------------
# Properties over random forests.
# ---------------------------------------------------------------------------

def test_random_forests_round_trip(registry):
    rng = random.Random(42)
    for _ in range(300):
        forest = random_forest(rng, registry, max_leaves=12)
        assert not validate(forest, registry)
        printed = print_pipeline(forest)
        assert parse_pipeline(printed, registry) == forest
        assert " " not in printed
        assert printed.count("(") == printed.count(")")


@pytest.mark.parametrize(
    "levels",
    [("module",), ("cgscc",), ("function",), ("loop",), ("cgscc", "loop")],
    ids=lambda levels: "+".join(levels),
)
def test_random_forests_are_valid_when_some_levels_have_no_passes(levels):
    registry = load_registry("".join(f"{level}-pass={level}\n" for level in levels))
    rng = random.Random(3)
    for _ in range(100):
        forest = random_forest(rng, registry, max_leaves=8)
        assert not validate(forest, registry), print_pipeline(forest)
        assert {leaf.level.token for _, leaf in leaf_paths(forest)} <= set(levels)


def test_single_rule_mutants_are_caught(registry):
    rng = random.Random(7)
    for _ in range(300):
        forest = random_forest(rng, registry, max_leaves=10)
        mutant, rule = helpers.make_single_rule_mutant(forest, registry, rng)
        violations = validate(mutant)
        assert violations, f"mutant for {rule} produced no violations"
        assert any(v.rule == rule for v in violations)


_RULE_ERRORS = {
    "R1": TopLevelNotModule,
    **dict.fromkeys(("R2", "R4", "R6", "R8"), EmptyManager),
    **dict.fromkeys(("R3", "R5", "R7", "R9"), LevelMismatch),
}


def test_parser_raises_the_rule_validate_reports(registry):
    # A printed mutant re-reads every leaf's level from the registry, so
    # only retyped-leaf mutants parse clean; every other kind must raise
    # the exception of its broken rule.
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        forest = random_forest(rng, registry, max_leaves=10)
        mutant, rule = helpers.make_single_rule_mutant(forest, registry, rng)
        if any(
            leaf.level != registry.level_of(leaf.name)
            for _, leaf in leaf_paths(mutant)
        ):
            continue
        with pytest.raises(_RULE_ERRORS[rule]) as err:
            parse_pipeline(print_pipeline(mutant), registry)
        assert str(err.value).startswith(rule)
        checked += 1
    assert checked > 200
