"""Desk-scale experiment drivers.

Three reproducible studies over any backend (normally the mock):
whether a pass pair's result depends on its micro-structure, what
synergy guidance buys the search, and what the refinement stage adds on
top of it. Each driver returns a plain dict; ``write_report`` dumps it
as JSON plus a small text table under an output directory.

Published large-corpus averages appear in the emitted tables as
reference columns for context only; nothing here asserts them.
"""

import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .grammar import print_pipeline
from .metrics import overoz
from .refine import RefineConfig, refine
from .registry import PassInfo, PassRegistry
from .search import SearchConfig, run_search
from .skeletons import pair_structure_variants
from .synergy import SynergyGraph

# Large-corpus OverOz averages (reference display only, never asserted).
CORPUS_REFERENCE = {
    "guided_reduced_budget_overoz_pct": 0.76,
    "unguided_reduced_budget_overoz_pct": -8.29,
    "main_ga_overoz_pct": 13.08,
    "full_framework_overoz_pct": 13.62,
    "microstructure_agreement_fraction": 0.997,
}


def run_microstructure_study(
    pairs: Sequence[Tuple[PassInfo, PassInfo]],
    programs: Sequence,
    backend,
) -> dict:
    """Evaluate each pair under all applicable structural variants.

    Reports per-case counts and the fraction of (pair, program) cases
    whose variants all produced the same instruction count. With no
    cases there is no fraction to report, so ValueError is raised.
    """
    cases = []
    agreeing = 0
    for p1, p2 in pairs:
        variants = pair_structure_variants(p1, p2)
        for index, program in enumerate(programs):
            counts: Dict[str, Optional[int]] = {}
            for name, forest in variants.items():
                res = backend.evaluate(program, forest)
                counts[name] = res.instruction_count if res.ok else None
            values = set(counts.values())
            agree = len(values) == 1 and None not in values
            agreeing += agree
            cases.append(
                {
                    "pair": [p1.name, p2.name],
                    "program": index,
                    "counts": counts,
                    "agree": agree,
                }
            )
    if not cases:
        raise ValueError("microstructure study has no (pair, program) cases")
    return {
        "study": "microstructure",
        "cases": cases,
        "agreement_fraction": agreeing / len(cases),
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
) -> dict:
    """Guided versus knowledge-blind search under one seed and budget.

    The unguided run uses an empty graph, which forces uniform-random
    initialization and mutation fallback throughout.
    """
    guided_best, guided_log = run_search(program, graph, registry, backend, config)
    unguided_best, unguided_log = run_search(
        program, SynergyGraph.empty(), registry, backend, config
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
    refine_config: Optional[RefineConfig] = None,
) -> dict:
    """Main search alone versus search plus structural refinement.

    The gain is the extra percentage of the original count recovered by
    refinement; it is never negative.
    """
    ic_orig = backend.original_count(program)
    best, _ = run_search(program, graph, registry, backend, config)
    main_ic = ic_orig - best.fitness
    result = refine(best.forest, program, backend, refine_config)
    refined_ic = result.refined_ic if result.refined_ic is not None else main_ic
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


def table_lines(result: dict) -> list:
    """The text table of a study result, as written to table.txt."""
    study = result.get("study", "study")
    lines = [study, "=" * len(study)]
    if study == "microstructure":
        lines.append(
            f"{'pair':30} {'program':>8} {'agree':>6}  counts"
        )
        for case in result["cases"]:
            pair = "+".join(case["pair"])
            counts = ", ".join(
                f"{k}={v}" for k, v in case["counts"].items()
            )
            lines.append(
                f"{pair:30} {case['program']:>8} {str(case['agree']):>6}  {counts}"
            )
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
        lines.append(f"main GA ic:  {result['main_ga_ic']}")
        lines.append(f"refined ic:  {result['refined_ic']}")
        lines.append(f"gain:        {result['gain_pct']:+.4f}%")
        ref = result["corpus_reference"]
        lines.append(
            "reference (large corpus, OverOz %): "
            f"main={ref['main_ga_overoz_pct']} "
            f"full={ref['full_framework_overoz_pct']}"
        )
    return lines


def write_report(result: dict, out_dir) -> None:
    """Dump a study result as results.json plus table.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "table.txt").write_text(
        "\n".join(table_lines(result)) + "\n", encoding="utf-8"
    )
