"""Skeleton builders: fixed nesting shapes filled with given passes.

Covers the five reference skeletons for an M/C/F/L pass quartet, the
single representative skeleton used when mining pass pairs, and the
micro/meso/macro structural variants of a pair. Every tree here is a
``forest.nested_forest`` of the passes it holds, so each shape follows
that function's placement rule. ``structure_variants`` picks the right
family for a pass group.
"""

from typing import Dict, Sequence, Tuple

from .errors import InvalidPipeline, LevelMismatch, PassForestError
from .forest import Manager, PipelineForest, nested_forest
from .registry import PassInfo, PassLevel, PassRegistry

SKELETON_VARIANT_NAMES = {
    1: "fully sequential",
    2: "f+l combined",
    3: "m+c, f+l combined",
    4: "c+f+l combined",
    5: "fully nested",
}

# Which of the m, c, f, l passes share a tree, per skeleton variant.
_SKELETON_TREES = {
    1: ((0,), (1,), (2,), (3,)),
    2: ((0,), (1,), (2, 3)),
    3: ((0, 1), (2, 3)),
    4: ((0,), (1, 2, 3)),
    5: ((0, 1, 2, 3),),
}


def _stages(*groups: Sequence[Tuple[str, PassLevel]]) -> PipelineForest:
    """The ``nested_forest`` trees of each pass group, one group after another."""
    return PipelineForest(
        tuple(tree for group in groups for tree in nested_forest(group).trees)
    )


def _require_level(name: str, registry: PassRegistry, expected: PassLevel) -> None:
    actual = registry.level_of(name)
    if actual != expected:
        got = "polymorphic" if actual is None else actual.token
        raise LevelMismatch(
            f"skeleton slot needs a {expected.token} pass, got {name!r} ({got})"
        )


def build_skeleton_variant(
    variant: int,
    m: str,
    c: str,
    f: str,
    l: str,
    registry: PassRegistry,
) -> PipelineForest:
    """One of the five nesting skeletons over a fixed M,C,F,L pass order.

    All five preserve the pass order m, c, f, l; they differ only in
    which passes share a tree (``_SKELETON_TREES``).
    """
    passes = tuple(zip((m, c, f, l), PassLevel))
    for name, level in passes:
        _require_level(name, registry, level)
    if variant not in _SKELETON_TREES:
        raise ValueError(f"variant must be 1..5, got {variant}")
    return _stages(*([passes[i] for i in tree] for tree in _SKELETON_TREES[variant]))


def _concrete_pair(p1: PassInfo, p2: PassInfo) -> Tuple[Tuple[str, PassLevel], ...]:
    if p1.level is None or p2.level is None:
        raise LevelMismatch("pair skeletons need concrete pass levels")
    return (p1.name, p1.level), (p2.name, p2.level)


def representative_skeleton(p1: PassInfo, p2: PassInfo) -> PipelineForest:
    """The single structure used to probe a (p1, p2) interaction.

    When p2 nests at or below p1's level, both passes share one maximally
    nested tree; otherwise the pair runs as two sequential stages.
    """
    return nested_forest(_concrete_pair(p1, p2))


def pair_structure_variants(p1: PassInfo, p2: PassInfo) -> Dict[str, PipelineForest]:
    """All applicable structural arrangements of an ordered pass pair.

    Intra-level pairs get micro (one manager), meso (sibling managers in
    one tree; not for module passes, where it would be micro) and macro
    (separate trees); inter-level pairs get nested and phased when p2
    nests below p1, and phased alone otherwise. No two variants of a
    pair are equal.
    """
    first, second = _concrete_pair(p1, p2)
    phased = _stages([first], [second])
    if p1.level == p2.level:
        variants = {"micro": nested_forest([first, second])}
        if p1.level != PassLevel.MODULE:
            chains = phased.trees[0].children + phased.trees[1].children
            variants["meso"] = PipelineForest((Manager(PassLevel.MODULE, chains),))
        variants["macro"] = phased
        return variants
    if p2.level > p1.level:
        return {"nested": nested_forest([first, second]), "phased": phased}
    return {"phased": phased}


def structure_variants(
    names: Sequence[str], registry: PassRegistry
) -> Dict[str, PipelineForest]:
    """The structural variants of one pass group, keyed by variant name.

    Four names (module, cgscc, function, loop) give the five skeletons,
    in ``SKELETON_VARIANT_NAMES`` order; two names give the pair
    variants. Any other group, an unknown pass or a pass at the wrong
    level raises InvalidPipeline naming the group.
    """
    group = ",".join(names)
    try:
        if len(names) == 4:
            return {
                label: build_skeleton_variant(variant, *names, registry)
                for variant, label in SKELETON_VARIANT_NAMES.items()
            }
        if len(names) == 2:
            return pair_structure_variants(*map(registry.lookup, names))
    except PassForestError as exc:
        raise InvalidPipeline([f"pass group {group!r}: {exc}"]) from exc
    raise InvalidPipeline(
        [f"pass group {group!r} needs 2 or 4 comma-separated names, got {len(names)}"]
    )
