"""Command-line interface.

A typical cycle is ``mine`` a synergy graph, then ``tune`` a program:
the guided search, then refinement of its winner. ``search`` and
``refine`` run one stage each and share their flags with ``tune``.

Exit codes: 0 success, 1 invalid input (bad pipeline, bad file
contents), 2 environment problems (missing opt, missing files, empty
dataset), 3 evaluation failure, also when a command prints a result
whose reported pipeline failed to evaluate. Every command takes --json for
machine-readable output. Commands with randomness take --seed and are
bit-reproducible on the mock evaluator.
"""

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    BackendUnavailable,
    MalformedIR,
    PassForestError,
    SchemaError,
)
from .evaluation import DEFAULT_OPT_TIMEOUT, OptBackend, check_timeout
from .experiments import run_structure_study, structure_lines, tune, tune_lines
from .grammar import parse_pipeline, print_pipeline
from .metrics import ProgramResult, aggregate
from .mock import MockBackend
from .refine import RefineConfig, refine
from .registry import default_registry, load_registry
from .search import SearchConfig, failed_fitness, run_search
from .synergy import load_graph, mine_synergies, save_graph, SynergyGraph

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_ENVIRONMENT = 2
EXIT_EVALUATION = 3


def _load_registry_arg(args):
    if args.registry:
        return load_registry(Path(args.registry).read_text(encoding="utf-8"))
    return default_registry()


def _backend_from_args(args):
    check_timeout(args.timeout)
    if args.parallel < 1:
        raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
    if args.evaluator == "mock":
        return MockBackend()
    return OptBackend(opt_path=args.opt_path, timeout=args.timeout)


def _emit(args, payload: dict, text_lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _add_registry_flag(parser):
    parser.add_argument(
        "--registry",
        metavar="FILE",
        help="pass registry file (name=level per line); default: built-in",
    )


def _add_evaluator_flags(parser):
    parser.add_argument(
        "--evaluator",
        choices=("mock", "opt"),
        default="mock",
        help="evaluation backend (default: mock)",
    )
    parser.add_argument(
        "--opt-path",
        help="opt executable for --evaluator=opt "
        "(default: $PASSFOREST_OPT, then PATH)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_OPT_TIMEOUT,
        help="per-evaluation opt timeout, a finite number of seconds > 0 "
        "(default: %(default)g)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="max concurrent opt evaluations, each in its own libLLVM worker "
        "process (one opt process per call when opt links no usable "
        "libLLVM); the mock always runs serially, and output is identical "
        "for every N (default: 1)",
    )


def _add_json_flag(parser):
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )


def _add_search_flags(parser):
    """The search stage's flags, shared by search and tune."""
    parser.add_argument("--graph", help="synergy graph JSON (omit for unguided)")
    parser.add_argument("--population", type=int, default=50)
    parser.add_argument("--generations", type=int, default=20)
    parser.add_argument("--max-len", type=int, default=24)
    parser.add_argument("--log", help="write per-generation JSONL log here")


def _add_refine_flags(parser):
    """The refine stage's flags, shared by refine and tune."""
    parser.add_argument("--exhaustive-budget", type=int, default=4096)


def _add_seed_flag(parser):
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the GA; tune seeds both the search and the refine GA "
        "with it (default: %(default)s)",
    )


def _graph_arg(args) -> SynergyGraph:
    return load_graph(args.graph) if args.graph else SynergyGraph.empty()


def cmd_validate(args) -> int:
    registry = _load_registry_arg(args)
    try:
        forest = parse_pipeline(args.pipeline, registry)
    except PassForestError as exc:
        _emit(args, {"valid": False, "diagnostics": [str(exc)]}, [f"invalid: {exc}"])
        return EXIT_INVALID_INPUT
    _emit(args, {"valid": True, "canonical": print_pipeline(forest)}, ["valid"])
    return EXIT_OK


def cmd_fmt(args) -> int:
    registry = _load_registry_arg(args)
    forest = parse_pipeline(args.pipeline, registry)
    canonical = print_pipeline(forest)
    _emit(args, {"canonical": canonical}, [canonical])
    return EXIT_OK


def _dataset_programs(args) -> list:
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        raise BackendUnavailable(f"dataset directory not found: {dataset}")
    suffixes = (".json",) if args.evaluator == "mock" else (".ll", ".bc")
    programs = sorted(
        str(p) for p in dataset.iterdir() if p.suffix in suffixes
    )
    if not programs:
        raise BackendUnavailable(
            f"no {'/'.join(suffixes)} programs under {dataset}"
        )
    return programs


def cmd_mine(args) -> int:
    registry = _load_registry_arg(args)
    backend = _backend_from_args(args)
    programs = _dataset_programs(args)
    checkpoint = args.checkpoint or (args.out + ".ckpt")
    graph = mine_synergies(
        programs,
        registry,
        backend,
        checkpoint_path=checkpoint,
        parallel=args.parallel,
    )
    save_graph(graph, args.out)
    payload = {
        "out": args.out,
        "programs": len(programs),
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
    }
    _emit(
        args,
        payload,
        [
            f"mined {len(programs)} program(s): "
            f"{len(graph.nodes)} node(s), {len(graph.edges)} edge(s)",
            f"graph written to {args.out}",
        ],
    )
    return EXIT_OK


def _exit_status(failed: bool) -> int:
    """Exit code of a command whose reported pipeline may have failed to
    evaluate; its output is printed either way."""
    return EXIT_EVALUATION if failed else EXIT_OK


def _search_failed(backend, program, best_fitness: int) -> bool:
    # The failure fitness is negative; only then is the count worth reading.
    return best_fitness < 0 and best_fitness == failed_fitness(
        backend.original_count(program)
    )


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        population_size=args.population,
        generations=args.generations,
        max_sequence_length=args.max_len,
        seed=args.seed,
    )


def _refine_config(args) -> RefineConfig:
    return RefineConfig(exhaustive_budget=args.exhaustive_budget, seed=args.seed)


def _write_log(args, log) -> None:
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for record in log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_search(args) -> int:
    registry = _load_registry_arg(args)
    backend = _backend_from_args(args)
    graph = _graph_arg(args)
    config = _search_config(args)
    best, log = run_search(
        args.program, graph, registry, backend, config, parallel=args.parallel
    )
    _write_log(args, log)
    payload = {
        "best_pipeline": print_pipeline(best.forest),
        "best_fitness": best.fitness,
        "generations": log,
    }
    _emit(
        args,
        payload,
        [
            f"best pipeline: {print_pipeline(best.forest)}",
            f"fitness (instruction-count reduction): {best.fitness}",
        ],
    )
    return _exit_status(_search_failed(backend, args.program, best.fitness))


def cmd_refine(args) -> int:
    registry = _load_registry_arg(args)
    backend = _backend_from_args(args)
    seed_forest = parse_pipeline(args.pipeline, registry)
    result = refine(
        seed_forest, args.program, backend, _refine_config(args),
        parallel=args.parallel,
    )
    payload = result.to_dict()
    _emit(
        args,
        payload,
        [
            f"seed:    {result.seed_pipeline} (ic {result.seed_ic})",
            f"refined: {result.refined_pipeline} (ic {result.refined_ic})",
            f"decision points: {result.decision_point_count}, "
            f"evaluations: {result.evaluations_used}",
        ],
    )
    return _exit_status(result.refined_ic is None)


def cmd_tune(args) -> int:
    registry = _load_registry_arg(args)
    backend = _backend_from_args(args)
    graph = _graph_arg(args)
    config, refine_config = _search_config(args), _refine_config(args)
    result = tune(
        args.program, graph, registry, backend, config, refine_config,
        parallel=args.parallel,
    )
    _write_log(args, result["generations"])
    _emit(args, result, tune_lines(result))
    return _exit_status(result["search_ic"] is None or result["refined_ic"] is None)


def cmd_evaluate(args) -> int:
    registry = _load_registry_arg(args)
    backend = _backend_from_args(args)
    forest = parse_pipeline(args.pipeline, registry)
    result = backend.evaluate(args.program, forest)
    if not result.ok:
        _emit(
            args,
            {"status": result.status, "detail": result.detail},
            [f"evaluation failed: {result.detail}"],
        )
        return EXIT_EVALUATION
    _emit(
        args,
        {"status": "ok", "instruction_count": result.instruction_count},
        [str(result.instruction_count)],
    )
    return EXIT_OK


def _read_json(path: str):
    """The JSON value in ``path``; contents that are not JSON are invalid
    input, named by the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BackendUnavailable(f"file not found: {path}")
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def _count(row: dict, key: str) -> int:
    # bool is an int subclass; floats, even whole or infinite, are not counts
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} {value!r} is not an integer")
    if value < 0:
        raise ValueError(f"{key} {value} is negative")
    return value


def cmd_report(args) -> int:
    rows = _read_json(args.results)
    labels = _read_json(args.manifest) if args.manifest else {}
    if not isinstance(labels, dict):
        raise SchemaError(f"{args.manifest}: expected an object of dataset labels")
    if not isinstance(rows, list):
        raise SchemaError(f"{args.results}: expected a list of result rows")
    try:
        results = [
            ProgramResult(
                program_id=str(row["program"]),
                ic_oz=_count(row, "ic_oz"),
                ic_tuned=_count(row, "ic_tuned"),
                dataset=str(
                    row.get("dataset") or labels.get(str(row["program"]), "default")
                ),
            )
            for row in rows
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"{args.results}: each row needs program, ic_oz and ic_tuned "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    try:
        report = aggregate(results)
    except OverflowError as exc:
        raise SchemaError(f"{args.results}: counts out of range: {exc}") from exc
    lines = [f"{'dataset':<16} {'mean OverOz %':>14} {'programs':>9}"]
    for label, stats in report["groups"].items():
        lines.append(
            f"{label:<16} {stats['mean_overoz_pct']:>14.2f} {stats['count']:>9}"
        )
    lines.append(
        f"{'mean of dataset means':<31} {report['mean_of_group_means']:.2f}"
    )
    lines.append(
        f"{'per-program grand mean':<31} {report['per_program_mean']:.2f}"
    )
    _emit(args, report, lines)
    return EXIT_OK


def cmd_experiment(args) -> int:
    registry = _load_registry_arg(args)
    backend = _backend_from_args(args)
    graph = _graph_arg(args)
    if args.passes is not None:
        groups = [
            [name.strip() for name in group.split(",")]
            for group in args.passes.split(";")
        ]
    else:
        groups = [[e.src, e.dst] for e in graph.edges]
    result = run_structure_study(
        groups, args.program, registry, backend, args.parallel
    )
    _emit(args, result, structure_lines(result))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passforest",
        description="Grammar-validated, synergy-guided tuning of nested "
        "pass pipelines.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a pipeline string")
    p.add_argument("pipeline")
    _add_registry_flag(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fmt", help="print the canonical form of a pipeline")
    p.add_argument("pipeline")
    _add_registry_flag(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("mine", help="mine a synergy graph from a dataset")
    p.add_argument("--dataset", required=True, help="directory of programs")
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.add_argument(
        "--checkpoint",
        help="checkpoint path for resumable mining (default: <out>.ckpt)",
    )
    _add_registry_flag(p)
    _add_evaluator_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("search", help="run the evolutionary search")
    p.add_argument("--program", required=True)
    _add_search_flags(p)
    _add_seed_flag(p)
    _add_registry_flag(p)
    _add_evaluator_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("refine", help="refine a pipeline's structure")
    p.add_argument("--program", required=True)
    p.add_argument("--pipeline", required=True)
    _add_refine_flags(p)
    _add_seed_flag(p)
    _add_registry_flag(p)
    _add_evaluator_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("tune", help="search, then refine the search's winner")
    p.add_argument("--program", required=True)
    _add_search_flags(p)
    _add_refine_flags(p)
    _add_seed_flag(p)
    _add_registry_flag(p)
    _add_evaluator_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="apply a pipeline, print the count")
    p.add_argument("--program", required=True)
    p.add_argument("--pipeline", required=True)
    _add_registry_flag(p)
    _add_evaluator_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate OverOz results")
    p.add_argument("--results", required=True, help="JSON result rows")
    p.add_argument("--manifest", help="JSON {program: dataset} labels")
    _add_json_flag(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("experiment", help="run the pass-nesting study")
    p.add_argument("study", choices=("structure",))
    p.add_argument("--program", required=True)
    p.add_argument("--graph", help="synergy graph JSON")
    p.add_argument(
        "--passes",
        help="structure: semicolon-separated pass groups, each a pair or a "
        "module,cgscc,function,loop quartet, like gvn,adce;globalopt,inline,"
        "gvn,loop-deletion (default: every edge of --graph)",
    )
    _add_registry_flag(p)
    _add_evaluator_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except MalformedIR as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except (PassForestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT


if __name__ == "__main__":
    sys.exit(main())
