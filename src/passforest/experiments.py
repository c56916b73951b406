"""Desk-scale experiment drivers.

Three reproducible studies over any backend: whether a pass group's
result depends on how it is nested, what synergy guidance buys the
search, and what the refinement stage adds on top of it. Each driver
returns a plain dict, and ``table_lines`` renders it as a text table.

Published large-corpus averages appear in the tables as reference
columns for context only; nothing here asserts them.
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
    "guided_reduced_budget_overoz_pct": 0.76,
    "unguided_reduced_budget_overoz_pct": -8.29,
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


def run_rq3_ablation(
    program,
    graph: SynergyGraph,
    registry: PassRegistry,
    backend,
    config: SearchConfig,
    parallel: int = 1,
) -> dict:
    """Guided versus knowledge-blind search under one seed and budget.

    The unguided run uses an empty graph, which forces uniform-random
    initialization and mutation fallback throughout.
    """
    guided_best, guided_log = run_search(
        program, graph, registry, backend, config, parallel
    )
    unguided_best, unguided_log = run_search(
        program, SynergyGraph.empty(), registry, backend, config, parallel
    )
    return {
        "study": "rq3_guidance",
        "guided": {
            "best_fitness": guided_best.fitness,
            "best_pipeline": print_pipeline(guided_best.forest),
            "log": guided_log,
        },
        "unguided": {
            "best_fitness": unguided_best.fitness,
            "best_pipeline": print_pipeline(unguided_best.forest),
            "log": unguided_log,
        },
        "corpus_reference": {
            "guided_overoz_pct": CORPUS_REFERENCE[
                "guided_reduced_budget_overoz_pct"
            ],
            "unguided_overoz_pct": CORPUS_REFERENCE[
                "unguided_reduced_budget_overoz_pct"
            ],
        },
    }


def run_rq4_ablation(
    program,
    graph: SynergyGraph,
    registry: PassRegistry,
    backend,
    config: SearchConfig,
    parallel: int = 1,
    refine_config: Optional[RefineConfig] = None,
) -> dict:
    """Main search alone versus search plus structural refinement.

    The gain is the extra percentage of the original count recovered by
    refinement; it is never negative. When the search's winner fails to
    evaluate, its count and the gain are None, and so is the refined
    count unless some partition of the winner evaluates.
    """
    ic_orig = backend.original_count(program)
    best, _ = run_search(program, graph, registry, backend, config, parallel)
    result = refine(best.forest, program, backend, refine_config, parallel)
    main_ic, refined_ic = result.seed_ic, result.refined_ic
    gain_pct = None
    if main_ic is not None:
        gain_pct = overoz(ic_orig, refined_ic) - overoz(ic_orig, main_ic)
    return {
        "study": "rq4_refinement",
        "main_ga_ic": main_ic,
        "main_ga_pipeline": print_pipeline(best.forest),
        "refined_ic": refined_ic,
        "refined_pipeline": result.refined_pipeline,
        "gain_pct": gain_pct,
        "decision_point_count": result.decision_point_count,
        "corpus_reference": {
            "main_ga_overoz_pct": CORPUS_REFERENCE["main_ga_overoz_pct"],
            "full_framework_overoz_pct": CORPUS_REFERENCE[
                "full_framework_overoz_pct"
            ],
        },
    }


def _count_or_failed(count: Optional[int]) -> str:
    return "failed" if count is None else str(count)


def table_lines(result: dict) -> list:
    """The text table of a study result."""
    study = result.get("study", "study")
    lines = [study, "=" * len(study)]
    if study == "structure":
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
    elif study == "rq3_guidance":
        for mode in ("guided", "unguided"):
            lines.append(
                f"{mode:9} best_fitness={result[mode]['best_fitness']} "
                f"pipeline={result[mode]['best_pipeline']}"
            )
        ref = result["corpus_reference"]
        lines.append(
            "reference (large corpus, OverOz %): "
            f"guided={ref['guided_overoz_pct']} "
            f"unguided={ref['unguided_overoz_pct']}"
        )
    elif study == "rq4_refinement":
        gain = result["gain_pct"]
        lines.append(f"main GA ic:  {_count_or_failed(result['main_ga_ic'])}")
        lines.append(f"refined ic:  {_count_or_failed(result['refined_ic'])}")
        lines.append(f"gain:        {'failed' if gain is None else f'{gain:+.4f}%'}")
        ref = result["corpus_reference"]
        lines.append(
            "reference (large corpus, OverOz %): "
            f"main={ref['main_ga_overoz_pct']} "
            f"full={ref['full_framework_overoz_pct']}"
        )
    return lines
