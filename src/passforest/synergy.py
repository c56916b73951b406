"""Offline mining of synergistic pass pairs into a weighted graph.

For every program, every concrete pass is first measured alone in its
minimal wrap; every ordered pair (self-pairs included) is then evaluated
in a single representative skeleton, and the pair is recorded as
synergistic iff the combined reduction strictly beats the sum of the
individual reductions. Each program contributes its set of synergistic
pairs once; the counts over the dataset normalize into edge weights and a
start-pass distribution.

Mining is resumable: each program's pairs are checkpointed as one record,
keyed by the program's id and, for a file, its size and modification
time, so an interrupted run restarted with the same inputs produces the
identical graph, and a changed file is mined again.
"""

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .errors import SchemaError, expect, read_json
from .evaluation import Evaluator, file_stamp
from .forest import PipelineForest, minimal_wrap
from .registry import PassInfo, PassRegistry
from .skeletons import representative_skeleton


def _logger():
    """This module's logger; ``logging`` is imported on the first message,
    so that importing passforest does not load it. As a library's should,
    the package logger has a ``NullHandler``; ``cli.main`` prints warnings."""
    import logging

    package = logging.getLogger(__package__)
    if not package.handlers:
        package.addHandler(logging.NullHandler())
    return logging.getLogger(__name__)


INTRA_LEVEL = "intra"
INTER_LEVEL = "inter"

_WEIGHT_TOL = 1e-9


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


def mine_program_pairs(
    program,
    registry: PassRegistry,
    backend,
    parallel: int = 1,
) -> Set[Tuple[str, str]]:
    """Synergistic ordered pairs of one program.

    One ``Evaluator`` scores each concrete pass alone in its minimal wrap,
    then every ordered pair of passes that ran alone in its representative
    skeleton. A failed evaluation is logged as a warning and drops its
    pass or pair.
    """
    ic_orig = backend.original_count(program)
    evaluator = Evaluator(backend, program, parallel)
    passes = registry.concrete_passes()
    singles = evaluator.map(
        [PipelineForest((minimal_wrap(p.name, p.level),)) for p in passes]
    )
    perf: Dict[str, int] = {}
    for info, res in zip(passes, singles):
        if res.ok:
            perf[info.name] = ic_orig - res.instruction_count
        else:
            _logger().warning("skipping pass %s: %s", info.name, res.detail)
    usable = [p for p in passes if p.name in perf]
    pairs = [(p1, p2) for p1 in usable for p2 in usable]
    results = evaluator.map([representative_skeleton(p1, p2) for p1, p2 in pairs])
    synergistic: Set[Tuple[str, str]] = set()
    for (p1, p2), res in zip(pairs, results):
        if not res.ok:
            _logger().warning(
                "skipping pair (%s, %s): %s", p1.name, p2.name, res.detail
            )
        elif ic_orig - res.instruction_count > perf[p1.name] + perf[p2.name]:
            synergistic.add((p1.name, p2.name))
    return synergistic


def _program_key(ref, index: int) -> Tuple[str, Optional[List[int]]]:
    """A program's id and, for a file, its [size, mtime in ns] stamp.

    An in-memory program has no stamp; its id holds its position in the
    dataset and a hash of its repr, which for a ``MockProgram`` spells
    out its whole content, so a record is reused only for equal content.
    """
    if isinstance(ref, (str, Path)):
        return str(ref), list(file_stamp(ref))
    digest = hashlib.sha256(repr(ref).encode("utf-8")).hexdigest()[:16]
    return f"<program-{index}-{digest}>", None


def mine_synergies(
    dataset: Sequence,
    registry: PassRegistry,
    backend,
    checkpoint_path: Optional[Union[str, Path]] = None,
    parallel: int = 1,
) -> SynergyGraph:
    """Build the synergy graph over a dataset of program references.

    Each program's synergistic pairs are one record, and the graph sums
    the records of the programs in ``dataset``, each program once. With
    a checkpoint path, the records are flushed after each program; a run
    reuses a record whose program id and file stamp still match.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    registry_hash = registry.content_hash()
    records: Dict[str, Tuple[Optional[List[int]], Set[Tuple[str, str]]]] = {}
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        records = _load_checkpoint(checkpoint_path, registry)
        _logger().info("checkpoint holds %d program record(s)", len(records))
    current: Dict[str, Set[Tuple[str, str]]] = {}
    for index, ref in enumerate(dataset):
        pid, stamp = _program_key(ref, index)
        if pid not in records or records[pid][0] != stamp:
            pairs = mine_program_pairs(ref, registry, backend, parallel)
            records[pid] = (stamp, pairs)
            if checkpoint_path is not None:
                _save_checkpoint(checkpoint_path, registry_hash, records)
        current[pid] = records[pid][1]
    counts = Counter(pair for pairs in current.values() for pair in pairs)
    meta = {"registry_hash": registry_hash, "dataset_size": len(dataset)}
    return graph_from_counts(counts, registry, meta)


def _save_checkpoint(path, registry_hash, records):
    programs = {
        pid: {"stamp": stamp, "pairs": sorted(pairs)}
        for pid, (stamp, pairs) in records.items()
    }
    payload = {"registry_hash": registry_hash, "programs": programs}
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    tmp.replace(path)


def _load_checkpoint(path, registry: PassRegistry):
    """The program records of a checkpoint mined with ``registry``."""
    payload = read_json(path)
    try:
        expect(payload, "object", "the checkpoint")
        if "counts" in payload or "done" in payload:
            raise SchemaError(
                "the checkpoint holds merged counts from an older passforest; "
                "delete it and mine again"
            )
        if payload.get("registry_hash") != registry.content_hash():
            raise SchemaError("the checkpoint was mined with a different registry")
        records = {}
        for pid, record in expect(payload.get("programs"), "object", "programs").items():
            expect(record, "object", f"the record of {pid}")
            stamp = record.get("stamp")
            if stamp is not None:
                for n in expect(stamp, "list", f"the stamp of {pid}"):
                    expect(n, "integer", f"each stamp entry of {pid}")
            pairs = set()
            for pair in expect(record.get("pairs"), "list", f"the pairs of {pid}"):
                names = expect(pair, "list", f"each pair of {pid}")
                if len(names) != 2 or not all(
                    expect(n, "string", f"each pass of {pid}") in registry for n in names
                ):
                    raise SchemaError(f"{pair} of {pid} is not two registry passes")
                pairs.add(tuple(names))
            records[pid] = (stamp, pairs)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return records


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
    payload = read_json(source)
    try:
        expect(payload, "object", "the graph")
        for node in expect(payload.get("nodes", []), "list", "nodes"):
            expect(node, "string", "each node")
        edges = []
        for e in expect(payload.get("edges"), "list", "edges"):
            expect(e, "object", "each edge")
            if e.get("type") not in (INTRA_LEVEL, INTER_LEVEL):
                raise SchemaError(f"unknown edge type {e.get('type')!r}")
            edges.append(SynergyEdge(
                src=expect(e.get("from"), "string", "an edge's 'from'"),
                dst=expect(e.get("to"), "string", "an edge's 'to'"),
                edge_type=e["type"],
                weight=float(expect(e.get("weight"), "number", "an edge's weight")),
            ))
        start_weights = {
            k: float(expect(v, "number", f"the start weight of {k!r}"))
            for k, v in expect(payload.get("start_weights"), "object", "start_weights").items()
        }
        meta = expect(payload.get("meta", {}), "object", "meta")
        return SynergyGraph(edges, start_weights, meta)
    except SchemaError as exc:
        raise SchemaError(f"{source}: {exc}") from exc
