"""The tune chain, and a desk-scale study of pass nesting.

``tune`` is the framework's whole chain on one program: the
structure-aware search, then refinement of its winner. Run with and
without a synergy graph it compares guided with knowledge-blind search;
its search and refined counts show what refinement adds.
``run_structure_study`` asks whether a pass group's result depends on
how it is nested. Both run over any backend and return a plain dict,
which ``tune_lines`` and ``structure_lines`` render as text.

Published large-corpus averages appear in the text as reference values
for context only; nothing here asserts them.
"""

from typing import Optional, Sequence

from .evaluation import Evaluator
from .grammar import print_pipeline
from .metrics import overoz
from .refine import RefineConfig, refine
from .registry import PassRegistry
from .search import SearchConfig, run_search
from .skeletons import structure_variants
from .synergy import SynergyGraph

# Large-corpus OverOz averages (reference display only, never asserted).
CORPUS_REFERENCE = {
    "main_ga_overoz_pct": 13.08,
    "full_framework_overoz_pct": 13.62,
    "microstructure_agreement_fraction": 0.997,
}


def run_structure_study(
    groups: Sequence[Sequence[str]],
    program,
    registry: PassRegistry,
    backend,
    parallel: int = 1,
) -> dict:
    """Evaluate every pass group under each of its structural variants.

    A group is a pass pair or an M,C,F,L quartet (see
    ``skeletons.structure_variants``). All variants of all groups go
    through one ``Evaluator.map``. Each case reports its variants'
    pipelines and counts (None on failure, with the detail) and whether
    they all agree; with no case there is no agreement fraction to
    report, so ValueError is raised.
    """
    variants = [structure_variants(names, registry) for names in groups]
    if not variants:
        raise ValueError("structure study has no cases")
    original = backend.original_count(program)
    forests = [forest for group in variants for forest in group.values()]
    results = iter(Evaluator(backend, program, parallel).map(forests))
    cases = []
    for names, group in zip(groups, variants):
        rows = []
        for name, forest in group.items():
            res = next(results)
            rows.append(
                {
                    "name": name,
                    "pipeline": print_pipeline(forest),
                    "instruction_count": res.instruction_count if res.ok else None,
                    "detail": res.detail,
                }
            )
        counts = {row["instruction_count"] for row in rows}
        agree = len(counts) == 1 and None not in counts
        cases.append({"passes": list(names), "variants": rows, "agree": agree})
    return {
        "study": "structure",
        "original_ic": original,
        "cases": cases,
        "agreement_fraction": sum(c["agree"] for c in cases) / len(cases),
        "corpus_reference_agreement_fraction": CORPUS_REFERENCE[
            "microstructure_agreement_fraction"
        ],
    }


def tune(
    program,
    graph: SynergyGraph,
    registry: PassRegistry,
    backend,
    config: SearchConfig,
    refine_config: Optional[RefineConfig] = None,
    parallel: int = 1,
) -> dict:
    """The whole framework on one program: search, then refine its winner.

    Returns each stage's pipeline and count, the decision point count k,
    refinement's evaluation count and the search log. The gain is the
    extra percentage of the original count recovered by refinement; it
    is never negative. When the search's winner fails to evaluate, its
    count and the gain are None, and so is the refined count unless some
    partition of the winner evaluates. An empty graph gives the
    knowledge-blind search.
    """
    best, log = run_search(program, graph, registry, backend, config, parallel)
    result = refine(best.forest, program, backend, refine_config, parallel)
    search_ic, refined_ic = result.seed_ic, result.refined_ic
    gain_pct = None
    if search_ic is not None:
        ic_orig = backend.original_count(program)
        gain_pct = overoz(ic_orig, refined_ic) - overoz(ic_orig, search_ic)
    return {
        "search_pipeline": result.seed_pipeline,
        "search_ic": search_ic,
        "refined_pipeline": result.refined_pipeline,
        "refined_ic": refined_ic,
        "gain_pct": gain_pct,
        "decision_point_count": result.decision_point_count,
        "refine_evaluations": result.evaluations_used,
        "generations": log,
    }


def _count_or_failed(count: Optional[int]) -> str:
    return "failed" if count is None else str(count)


def tune_lines(result: dict) -> list:
    """The text of a ``tune`` result."""
    gain = result["gain_pct"]
    return [
        f"search:  {result['search_pipeline']} "
        f"(ic {_count_or_failed(result['search_ic'])})",
        f"refined: {result['refined_pipeline']} "
        f"(ic {_count_or_failed(result['refined_ic'])})",
        f"gain:    {'failed' if gain is None else f'{gain:+.4f}%'}",
        f"decision points: {result['decision_point_count']}, "
        f"refine evaluations: {result['refine_evaluations']}",
        "reference (large corpus, OverOz %): "
        f"main={CORPUS_REFERENCE['main_ga_overoz_pct']} "
        f"full={CORPUS_REFERENCE['full_framework_overoz_pct']}",
    ]


def structure_lines(result: dict) -> list:
    """The text table of a structure study result."""
    lines = ["structure", "========="]
    lines.append(f"original instruction count: {result['original_ic']}")
    for case in result["cases"]:
        lines.append(f"{','.join(case['passes'])}  agree={case['agree']}")
        for row in case["variants"]:
            count = row["instruction_count"]
            shown = count if count is not None else f"failed ({row['detail']})"
            lines.append(f"  {row['name']:<20} {shown:>8}  {row['pipeline']}")
    lines.append(f"agreement fraction: {result['agreement_fraction']:.4f}")
    lines.append(
        "reference (large corpus): "
        f"{result['corpus_reference_agreement_fraction']:.4f}"
    )
    return lines
