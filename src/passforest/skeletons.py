"""Skeleton builders: fixed nesting shapes filled with given passes.

Covers the five reference skeletons for an M/C/F/L pass quartet, the
single representative skeleton used when mining pass pairs, and the
micro/meso/macro structural variants of a pair. ``structure_variants``
picks the right family for a pass group.
"""

from typing import Dict, List, Sequence

from .errors import InvalidPipeline, LevelMismatch, PassForestError
from .forest import (
    Leaf,
    Manager,
    PipelineForest,
    adaptor_chain,
    minimal_wrap,
    wrap_in_chain,
)
from .registry import PassInfo, PassLevel, PassRegistry

SKELETON_VARIANT_NAMES = {
    1: "fully sequential",
    2: "f+l combined",
    3: "m+c, f+l combined",
    4: "c+f+l combined",
    5: "fully nested",
}


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

    All five preserve the pass order m, c, f, l; they differ only in how
    the four passes are grouped into trees and nested managers.
    """
    _require_level(m, registry, PassLevel.MODULE)
    _require_level(c, registry, PassLevel.CGSCC)
    _require_level(f, registry, PassLevel.FUNCTION)
    _require_level(l, registry, PassLevel.LOOP)

    lm = Leaf(m, PassLevel.MODULE)
    lc = Leaf(c, PassLevel.CGSCC)
    lf = Leaf(f, PassLevel.FUNCTION)
    ll = Leaf(l, PassLevel.LOOP)
    loop = Manager(PassLevel.LOOP, (ll,))
    fn_fl = Manager(PassLevel.FUNCTION, (lf, loop))

    if variant == 1:
        trees = (
            Manager(PassLevel.MODULE, (lm,)),
            Manager(PassLevel.MODULE, (Manager(PassLevel.CGSCC, (lc,)),)),
            Manager(PassLevel.MODULE, (Manager(PassLevel.FUNCTION, (lf,)),)),
            Manager(
                PassLevel.MODULE,
                (Manager(PassLevel.FUNCTION, (loop,)),),
            ),
        )
    elif variant == 2:
        trees = (
            Manager(PassLevel.MODULE, (lm,)),
            Manager(PassLevel.MODULE, (Manager(PassLevel.CGSCC, (lc,)),)),
            Manager(PassLevel.MODULE, (fn_fl,)),
        )
    elif variant == 3:
        trees = (
            Manager(PassLevel.MODULE, (lm, Manager(PassLevel.CGSCC, (lc,)))),
            Manager(PassLevel.MODULE, (fn_fl,)),
        )
    elif variant == 4:
        trees = (
            Manager(PassLevel.MODULE, (lm,)),
            Manager(PassLevel.MODULE, (Manager(PassLevel.CGSCC, (lc, fn_fl)),)),
        )
    elif variant == 5:
        trees = (
            Manager(PassLevel.MODULE, (lm, Manager(PassLevel.CGSCC, (lc, fn_fl)))),
        )
    else:
        raise ValueError(f"variant must be 1..5, got {variant}")
    return PipelineForest(trees)


def representative_skeleton(p1: PassInfo, p2: PassInfo) -> PipelineForest:
    """The single structure used to probe a (p1, p2) interaction.

    When p2 nests at or below p1's level, both passes share one maximally
    nested tree; otherwise the pair runs as two sequential stages.
    """
    if p1.level is None or p2.level is None:
        raise LevelMismatch("representative skeletons need concrete pass levels")
    if p2.level < p1.level:
        return PipelineForest(
            (minimal_wrap(p1.name, p1.level), minimal_wrap(p2.name, p2.level))
        )
    first = Leaf(p1.name, p1.level)
    if p2.level == p1.level:
        inner = [first, Leaf(p2.name, p2.level)]
    else:
        tail_chain = adaptor_chain(p1.level, p2.level)
        inner = [first, wrap_in_chain(tail_chain, (Leaf(p2.name, p2.level),))]
    outer_chain = [PassLevel.MODULE] + adaptor_chain(PassLevel.MODULE, p1.level)
    return PipelineForest((wrap_in_chain(outer_chain, tuple(inner)),))


def pair_structure_variants(p1: PassInfo, p2: PassInfo) -> Dict[str, PipelineForest]:
    """All applicable structural arrangements of an ordered pass pair.

    Intra-level pairs get micro (one manager), meso (sibling managers in
    one tree), and macro (separate trees); inter-level pairs get nested
    and phased. Variants that coincide structurally are deduplicated.
    """
    if p1.level is None or p2.level is None:
        raise LevelMismatch("structure variants need concrete pass levels")
    variants: Dict[str, PipelineForest] = {}
    phased = PipelineForest(
        (minimal_wrap(p1.name, p1.level), minimal_wrap(p2.name, p2.level))
    )
    if p1.level == p2.level:
        variants["micro"] = representative_skeleton(p1, p2)
        chain = [PassLevel.MODULE] + adaptor_chain(PassLevel.MODULE, p1.level)
        if len(chain) > 1:
            meso = Manager(
                PassLevel.MODULE,
                (
                    wrap_in_chain(chain[1:], (Leaf(p1.name, p1.level),)),
                    wrap_in_chain(chain[1:], (Leaf(p2.name, p2.level),)),
                ),
            )
            variants["meso"] = PipelineForest((meso,))
        variants["macro"] = phased
    elif p2.level > p1.level:
        variants["nested"] = representative_skeleton(p1, p2)
        variants["phased"] = phased
    else:
        variants["phased"] = phased

    unique: Dict[str, PipelineForest] = {}
    seen: List[PipelineForest] = []
    for name, forest in variants.items():
        if forest not in seen:
            unique[name] = forest
            seen.append(forest)
    return unique


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
