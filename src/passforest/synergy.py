"""Offline mining of synergistic pass pairs into a weighted graph.

For every program, every concrete pass is first measured alone in its
minimal wrap; every ordered pair (self-pairs included) is then evaluated
in a single representative skeleton, and the pair is recorded as
synergistic iff the combined reduction strictly beats the sum of the
individual reductions. Counts aggregate across the dataset and normalize
into edge weights and a start-pass distribution.

Mining is resumable: partial per-program counts are checkpointed after
each program, so an interrupted run restarted with the same inputs
produces the identical graph.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import SchemaError
from .evaluation import Evaluator
from .forest import PipelineForest, minimal_wrap
from .registry import PassInfo, PassRegistry
from .skeletons import representative_skeleton

logger = logging.getLogger(__name__)

INTRA_LEVEL = "intra"
INTER_LEVEL = "inter"

_WEIGHT_TOL = 1e-9
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def classify_synergy_type(p1: PassInfo, p2: PassInfo) -> str:
    """"intra" when both passes share a level, else "inter"."""
    return INTRA_LEVEL if p1.level == p2.level else INTER_LEVEL


@dataclass(frozen=True)
class SynergyEdge:
    src: str
    dst: str
    edge_type: str
    weight: float


class SynergyGraph:
    """Directed pass-pair graph with normalized weights.

    Invariants (checked on construction and on load): every weight is
    finite and not negative, outgoing weights of each node sum to 1, and
    start weights sum to 1 when any exist.
    """

    def __init__(
        self,
        edges: Iterable[SynergyEdge] = (),
        start_weights: Optional[Dict[str, float]] = None,
        meta: Optional[dict] = None,
    ):
        self.edges: Tuple[SynergyEdge, ...] = tuple(
            sorted(edges, key=lambda e: (e.src, e.dst))
        )
        self.start_weights: Dict[str, float] = dict(
            sorted((start_weights or {}).items())
        )
        self.meta: dict = dict(meta or {})
        nodes = {e.src for e in self.edges} | {e.dst for e in self.edges}
        nodes.update(self.start_weights)
        self.nodes: Tuple[str, ...] = tuple(sorted(nodes))
        self._out: Dict[str, Tuple[SynergyEdge, ...]] = {}
        for edge in self.edges:
            self._out.setdefault(edge.src, ())
            self._out[edge.src] += (edge,)
        self._check_invariants()

    def _check_invariants(self):
        weights = [e.weight for e in self.edges] + list(self.start_weights.values())
        for weight in weights:
            if not (math.isfinite(weight) and weight >= 0):
                raise SchemaError(f"weight {weight} is not a finite number >= 0")
        for src, out in self._out.items():
            total = sum(e.weight for e in out)
            if abs(total - 1.0) > _WEIGHT_TOL:
                raise SchemaError(
                    f"outgoing weights of {src!r} sum to {total}, not 1"
                )
        if self.start_weights:
            total = sum(self.start_weights.values())
            if abs(total - 1.0) > _WEIGHT_TOL:
                raise SchemaError(f"start weights sum to {total}, not 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SynergyGraph):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.start_weights == other.start_weights
            and self.meta == other.meta
        )

    def successors(self, name: str) -> Tuple[SynergyEdge, ...]:
        return self._out.get(name, ())

    @classmethod
    def empty(cls) -> "SynergyGraph":
        return cls()


def graph_from_counts(
    pair_counts: Dict[Tuple[str, str], int],
    registry: PassRegistry,
    meta: Optional[dict] = None,
) -> SynergyGraph:
    """Normalize raw synergy counts into a graph.

    Edge weight is the pair count over its initiator's total; a pass's
    start weight is proportional to its total count as an initiator.
    """
    out_totals: Dict[str, int] = {}
    for (p1, _), count in pair_counts.items():
        out_totals[p1] = out_totals.get(p1, 0) + count
    edges = []
    for (p1, p2), count in pair_counts.items():
        if count <= 0:
            continue
        edges.append(
            SynergyEdge(
                src=p1,
                dst=p2,
                edge_type=classify_synergy_type(
                    registry.lookup(p1), registry.lookup(p2)
                ),
                weight=count / out_totals[p1],
            )
        )
    grand_total = sum(out_totals.values())
    start_weights = {
        name: total / grand_total for name, total in out_totals.items() if total > 0
    }
    return SynergyGraph(edges, start_weights, meta)


def _single_pass_counts(
    program, registry: PassRegistry, backend, parallel: int
) -> Dict[str, float]:
    """Count left by each concrete pass run alone in its minimal wrap.

    Failed evaluations map to +inf and are logged as warnings.
    """
    passes = registry.concrete_passes()
    forests = [
        PipelineForest((minimal_wrap(p.name, p.level),)) for p in passes
    ]
    results = Evaluator(backend, program, parallel).map(forests)
    counts: Dict[str, float] = {}
    for info, res in zip(passes, results):
        if res.ok:
            counts[info.name] = res.instruction_count
        else:
            logger.warning("skipping pass %s: %s", info.name, res.detail)
            counts[info.name] = float("inf")
    return counts


def single_pass_performance(
    program,
    registry: PassRegistry,
    backend,
    parallel: int = 1,
) -> Dict[str, float]:
    """Per-pass reduction of each concrete pass run alone.

    Failed evaluations map to -inf, which excludes the pass from pairing,
    and are logged as warnings.
    """
    ic_orig = backend.original_count(program)
    counts = _single_pass_counts(program, registry, backend, parallel)
    return {name: ic_orig - count for name, count in counts.items()}


def _program_id(ref, index: int) -> str:
    if isinstance(ref, (str, Path)):
        return str(ref)
    return f"<program-{index}>"


def mine_program_pairs(
    program,
    registry: PassRegistry,
    backend,
    parallel: int = 1,
) -> Dict[Tuple[str, str], int]:
    """Synergistic ordered pairs of one program (each counted once)."""
    ic_orig = backend.original_count(program)
    counts = _single_pass_counts(program, registry, backend, parallel)
    usable = [
        p for p in registry.concrete_passes() if counts[p.name] != float("inf")
    ]
    pairs = [(p1, p2) for p1 in usable for p2 in usable]
    forests = [representative_skeleton(p1, p2) for p1, p2 in pairs]
    results = Evaluator(backend, program, parallel).map(forests)
    recorded: Dict[Tuple[str, str], int] = {}
    for (p1, p2), res in zip(pairs, results):
        if not res.ok:
            logger.warning(
                "skipping pair (%s, %s): %s", p1.name, p2.name, res.detail
            )
            continue
        perf_combined = ic_orig - res.instruction_count
        perf_sum = (ic_orig - counts[p1.name]) + (ic_orig - counts[p2.name])
        if perf_combined > perf_sum:
            recorded[(p1.name, p2.name)] = 1
    return recorded


def mine_synergies(
    dataset: Sequence,
    registry: PassRegistry,
    backend,
    checkpoint_path: Optional[Union[str, Path]] = None,
    parallel: int = 1,
) -> SynergyGraph:
    """Build the synergy graph over a dataset of program references.

    With a checkpoint path, per-program counts are flushed after each
    program and a restarted run skips programs already processed.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    registry_hash = registry.content_hash()
    counts: Dict[Tuple[str, str], int] = {}
    done: List[str] = []
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        counts, done = _load_checkpoint(checkpoint_path, registry_hash)
        logger.info("resuming: %d program(s) already mined", len(done))
    for index, ref in enumerate(dataset):
        pid = _program_id(ref, index)
        if pid in done:
            continue
        recorded = mine_program_pairs(ref, registry, backend, parallel)
        for pair, n in recorded.items():
            counts[pair] = counts.get(pair, 0) + n
        done.append(pid)
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, registry_hash, counts, done)
    meta = {"registry_hash": registry_hash, "dataset_size": len(dataset)}
    return graph_from_counts(counts, registry, meta)


def _save_checkpoint(path, registry_hash, counts, done):
    nested: Dict[str, Dict[str, int]] = {}
    for (p1, p2), n in counts.items():
        nested.setdefault(p1, {})[p2] = n
    payload = {"registry_hash": registry_hash, "done": list(done), "counts": nested}
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    tmp.replace(path)


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind``, else TypeError naming ``what``."""
    # bool is an int subclass, but JSON true is not a count
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} must be {_KIND_NAMES[kind]}")
    return value


def _load_checkpoint(path, registry_hash):
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = _expect(json.loads(text), dict, "the checkpoint")
        counts = {
            (p1, p2): _expect(n, int, f"count of ({p1}, {p2})")
            for p1, inner in _expect(payload.get("counts", {}), dict, "counts").items()
            for p2, n in _expect(inner, dict, f"counts of {p1}").items()
        }
        done = [
            _expect(pid, str, "each done program")
            for pid in _expect(payload.get("done", []), list, "done")
        ]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint {path}: bad schema: {exc}") from exc
    if payload.get("registry_hash") != registry_hash:
        raise SchemaError(f"checkpoint {path} was mined with a different registry")
    return counts, done


# ---------------------------------------------------------------------------
# Graph files.
# ---------------------------------------------------------------------------

def save_graph(graph: SynergyGraph, sink: Union[str, Path]) -> None:
    payload = {
        "nodes": list(graph.nodes),
        "edges": [
            {"from": e.src, "to": e.dst, "type": e.edge_type, "weight": e.weight}
            for e in graph.edges
        ],
        "start_weights": graph.start_weights,
        "meta": graph.meta,
    }
    Path(sink).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_graph(source: Union[str, Path]) -> SynergyGraph:
    try:
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: not valid JSON: {exc}") from exc
    try:
        _expect(payload, dict, "the graph")
        for node in _expect(payload.get("nodes", []), list, "nodes"):
            _expect(node, str, "each node")
        edges = [
            SynergyEdge(
                src=_expect(e["from"], str, "an edge's 'from'"),
                dst=_expect(e["to"], str, "an edge's 'to'"),
                edge_type=e["type"],
                weight=float(e["weight"]),
            )
            for e in _expect(payload["edges"], list, "edges")
        ]
        start_weights = {
            k: float(v)
            for k, v in _expect(payload["start_weights"], dict, "start_weights").items()
        }
        meta = _expect(payload.get("meta", {}), dict, "meta")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{source}: bad graph schema: {exc}") from exc
    for edge in edges:
        if edge.edge_type not in (INTRA_LEVEL, INTER_LEVEL):
            raise SchemaError(f"{source}: unknown edge type {edge.edge_type!r}")
    try:
        return SynergyGraph(edges, start_weights, meta)
    except SchemaError as exc:
        raise SchemaError(f"{source}: {exc}") from exc
