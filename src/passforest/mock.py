"""Deterministic synthetic programs for oracle-backed evaluation.

A MockProgram is a handful of functions with base instruction counts, an
acyclic call graph, and three tables describing how passes shrink them:
flat per-function effects, order-dependent same-function pair bonuses,
and cross-function coupling bonuses that fire only when a caller is
optimized after all of its callees. Because the bonuses depend on event
order, the mock distinguishes pipeline structures exactly the way the
hierarchical execution model does.

Execution semantics of a forest over a mock program:

* trees run in order; within a module manager, children run in order;
* a module-level leaf touches the whole module: one event per function,
  all functions before the next sibling starts;
* cgscc and function managers are function-at-a-time units: the entire
  leaf block they contain is applied to one function before the next
  (loop managers inside simply contribute their leaves to the block);
* sibling managers and separate trees each complete over all functions
  before the next begins.

``schedule_of`` is the one definition of that order. ``mock_evaluate``
computes the same result in closed form over the forest's *phases*: a
phase is one module-level leaf, or the whole leaf block of one cgscc or
function manager, and each phase runs over every function, in
``functions`` order, before the next phase starts. So every function
receives the same pass sequence, and the flat effects and pair bonuses
reduce each function by one common amount. Only coupling differs between
functions, and only by whether a function has callees and whether they
are all listed before it; see ``mock_evaluate``. The tables this needs
(bonuses by target pass, and per coupling class the sorted base counts
with their suffix sums, so the final clamp is one bisection per class)
are built once per MockProgram, on its first evaluation, and cached on
the instance.

Refinement evaluates many partitions of one leaf sequence back to back.
For those, ``MockBackend`` compiles the sequence once into a
``_SequencePlan``, which scores a forest with one table lookup per
phase, whatever the number of bonuses or functions. Search candidates
rarely repeat a sequence, and building a plan and scoring one forest
with it costs more than one ``mock_evaluate``, so the backend builds a
plan only when two calls in a row share program and sequence.
"""

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from itertools import accumulate, chain
from typing import Dict, Iterator, List, Mapping, NamedTuple, Set, Tuple, Union

from .errors import SchemaError
from .evaluation import EvaluationResult
from .forest import Leaf, Manager, PipelineForest
from .registry import PassLevel


# Read in the hot loops: an enum member lookup costs ten times a global.
_MODULE = PassLevel.MODULE


@dataclass(frozen=True)
class MockFunction:
    name: str
    base_ic: int


class _ProgramIndex(NamedTuple):
    """Per-program lookup tables for ``mock_evaluate``.

    Bonuses are keyed by their second pass ``q`` as ``(p, bonus)``
    pairs. Each function falls in one coupling class: 0 without callees,
    1 when some callee is listed after it, 2 when every callee is listed
    before it. ``class_bases`` holds, per class, the base counts of its
    functions in ascending order and their suffix sums (``sums[i]`` is
    the sum of ``bases[i:]``, so ``sums`` has one more entry).
    """

    synergy_by_target: Dict[str, Tuple[Tuple[str, int], ...]]
    coupling_by_target: Dict[str, Tuple[Tuple[str, int], ...]]
    class_bases: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


@dataclass(frozen=True)
class MockProgram:
    """Synthetic module; see the module docstring for the semantics."""

    functions: Tuple[MockFunction, ...]
    call_edges: Tuple[Tuple[str, str], ...] = ()
    pass_effects: Mapping[str, int] = field(default_factory=dict)
    pair_synergy: Mapping[Tuple[str, str], int] = field(default_factory=dict)
    coupling: Mapping[Tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "call_edges", tuple(tuple(e) for e in self.call_edges))
        object.__setattr__(self, "pass_effects", dict(self.pass_effects))
        object.__setattr__(
            self, "pair_synergy", {tuple(k): v for k, v in dict(self.pair_synergy).items()}
        )
        object.__setattr__(
            self, "coupling", {tuple(k): v for k, v in dict(self.coupling).items()}
        )
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate function names")
        known = set(names)
        for f in self.functions:
            if f.base_ic < 0:
                raise SchemaError(f"negative base_ic for {f.name!r}")
        for caller, callee in self.call_edges:
            if caller not in known or callee not in known:
                raise SchemaError(f"call edge ({caller}, {callee}) names unknown function")
        if any(v < 0 for v in self.pass_effects.values()):
            raise SchemaError("pass effects must be nonnegative")
        if any(v < 0 for v in self.pair_synergy.values()):
            raise SchemaError("pair synergy bonuses must be nonnegative")
        if any(v < 0 for v in self.coupling.values()):
            raise SchemaError("coupling bonuses must be nonnegative")
        self._check_acyclic()

    def _check_acyclic(self):
        out: Dict[str, List[str]] = {}
        for caller, callee in self.call_edges:
            out.setdefault(caller, []).append(callee)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {f.name: WHITE for f in self.functions}
        # Iterative depth-first search: call chains may be thousands deep.
        for root in color:
            if color[root] != WHITE:
                continue
            color[root] = GRAY
            stack = [(root, iter(out.get(root, ())))]
            while stack:
                node, callees = stack[-1]
                nxt = next(callees, None)
                if nxt is None:
                    color[node] = BLACK
                    stack.pop()
                elif color[nxt] == GRAY:
                    raise SchemaError("call graph has a cycle")
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(out.get(nxt, ()))))

    @cached_property
    def _index(self) -> _ProgramIndex:
        """Lookup tables ``mock_evaluate`` needs, built on first use."""
        synergy: Dict[str, List[Tuple[str, int]]] = {}
        for (p, q), bonus in self.pair_synergy.items():
            synergy.setdefault(q, []).append((p, bonus))
        coupling: Dict[str, List[Tuple[str, int]]] = {}
        for (p, q), bonus in self.coupling.items():
            coupling.setdefault(q, []).append((p, bonus))
        position = {f.name: i for i, f in enumerate(self.functions)}
        classes = [0] * len(self.functions)
        for caller, callee in self.call_edges:
            i = position[caller]
            if position[callee] > i:
                classes[i] = 1
            elif classes[i] == 0:
                classes[i] = 2
        class_bases = []
        for c in range(3):
            bases = tuple(sorted(f.base_ic for f, fc in zip(self.functions, classes) if fc == c))
            sums = tuple(accumulate(reversed(bases), initial=0))[::-1]
            class_bases.append((bases, sums))
        return _ProgramIndex(
            {q: tuple(pairs) for q, pairs in synergy.items()},
            {q: tuple(pairs) for q, pairs in coupling.items()},
            tuple(class_bases),
        )

    def total_base_ic(self) -> int:
        return sum(f.base_ic for f in self.functions)


def schedule_of(forest: PipelineForest, program: MockProgram) -> List[Tuple[str, str]]:
    """Ordered (pass, function) application events for a forest."""
    fnames = [f.name for f in program.functions]
    events: List[Tuple[str, str]] = []

    def run_module_manager(mgr: Manager):
        for child in mgr.children:
            if isinstance(child, Leaf):
                events.extend((child.name, fname) for fname in fnames)
            elif child.level == PassLevel.MODULE:
                run_module_manager(child)
            else:
                # cgscc/function manager: whole leaf block per function
                for fname in fnames:
                    events.extend((p, fname) for p in child.names)

    for tree in forest.trees:
        run_module_manager(tree)
    return events


def _phases(mgr: Manager) -> Iterator[Tuple[str, ...]]:
    """Leaf blocks under a module manager that each run over all
    functions, in ``schedule_of`` order."""
    for child in mgr.children:
        if isinstance(child, Manager) and child.level == PassLevel.MODULE:
            yield from _phases(child)
        else:
            yield child.names


def mock_evaluate(program: MockProgram, forest: PipelineForest) -> EvaluationResult:
    """Apply a forest's schedule and report the resulting count.

    Each event (q, f) reduces f by the flat effect of q, plus every pair
    bonus (p, q) whose p already ran on f, plus every coupling bonus
    (p, q) when f has callees and p already ran on all of them. Function
    counts clamp at zero, once, after the last event.

    This equals a fold over ``schedule_of`` without building it. Every
    function receives the forest's leaf sequence in order, so effects
    and pair bonuses add up to one ``common`` reduction. At an
    occurrence of q in some phase, a coupling bonus (p, q) fires for a
    caller f:

    * on every caller, if p ran in an earlier phase, which finished on
      all functions (``earlier``);
    * otherwise, if p occurs anywhere in q's own phase, exactly on the
      callers whose callees are all listed before them: such a callee
      received the whole block before f's turn came, while a callee
      listed after f has received none of it yet (``same``);
    * otherwise never.
    """
    index = program._index
    effects = program.pass_effects
    synergy_by_target = index.synergy_by_target
    coupling_by_target = index.coupling_by_target

    common = earlier = same = 0
    ran: Set[str] = set()  # passes of the phases before the current one
    seen: Set[str] = set()  # passes before the current leaf
    for phase in chain.from_iterable(map(_phases, forest.trees)):
        block = set(phase)
        for q in phase:
            common += effects.get(q, 0)
            for p, bonus in synergy_by_target.get(q, ()):
                if p in seen:
                    common += bonus
            for p, bonus in coupling_by_target.get(q, ()):
                if p in ran:
                    earlier += bonus
                elif p in block:
                    same += bonus
            seen.add(q)
        ran |= block
    return _clamped_total(program, common, earlier, same)


def _clamped_total(
    program: MockProgram, common: int, earlier: int, same: int
) -> EvaluationResult:
    """The program's count after each function's coupling class adds
    its share of the coupling bonuses to the common reduction.

    A function's count is ``max(0, base - reduction)``; within a class
    the functions above zero are those whose base exceeds the class's
    reduction, found by one bisection of its sorted bases, so the sum
    costs O(log F) for F functions.
    """
    total = 0
    reductions = (common, common + earlier, common + earlier + same)
    for (bases, sums), reduction in zip(program._index.class_bases, reductions):
        i = bisect_right(bases, reduction)
        total += sums[i] - reduction * (len(bases) - i)
    return EvaluationResult(instruction_count=total, status="ok")


class _SequencePlan:
    """``mock_evaluate`` compiled for every forest with one leaf sequence.

    Flat effects and pair bonuses depend only on the sequence, so they
    sum to ``common`` once. A coupling bonus (p, q) at an occurrence j of
    q, where p first occurs at f, spans the positions lo = min(f, j) to
    hi = max(f, j), and is:

    * ``same`` if lo and hi fall in one phase (always, when f == j);
    * otherwise ``earlier`` if f < j, and nothing if f > j;
    * never, if p is not in the sequence.

    Phases are contiguous runs of leaves, so lo and hi share a phase
    [start, end) exactly when lo lies in it and hi < end. ``terms[lo]``
    lists the bonuses starting at lo as (hi, earlier if split, same if
    joined), and ``table`` maps a phase's (start, end) to the
    ``(earlier, same)`` of the terms starting in it, filled on the
    phase's first use. A forest is scored with one table lookup per
    phase, and ``results`` keeps one result per ``(earlier, same)``.
    Filling an entry twice from concurrent calls stores equal values.
    """

    __slots__ = ("program", "common", "terms", "table", "results")

    def __init__(self, program: MockProgram, names: Tuple[str, ...]):
        index = program._index
        effects = program.pass_effects
        first: Dict[str, int] = {}
        common = 0
        for j, q in enumerate(names):
            common += effects.get(q, 0)
            for p, bonus in index.synergy_by_target.get(q, ()):
                if p in first:
                    common += bonus
            first.setdefault(q, j)
        terms: List[List[Tuple[int, int, int]]] = [[] for _ in names]
        for j, q in enumerate(names):
            for p, bonus in index.coupling_by_target.get(q, ()):
                f = first.get(p)
                if f is None:
                    continue
                if f < j:
                    terms[f].append((j, bonus, bonus))
                else:
                    terms[j].append((f, 0, bonus))
        self.program = program
        self.common = common
        self.terms = terms
        self.table: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.results: Dict[Tuple[int, int], EvaluationResult] = {}

    def _phase_entry(self, start: int, end: int) -> Tuple[int, int]:
        earlier = same = 0
        for lo in range(start, end):
            for hi, if_split, if_joined in self.terms[lo]:
                if hi < end:
                    same += if_joined
                else:
                    earlier += if_split
        entry = self.table[start, end] = (earlier, same)
        return entry

    def evaluate(self, forest: PipelineForest) -> EvaluationResult:
        table = self.table
        earlier = same = start = 0
        for tree in forest.trees:
            for child in tree.children:
                if child.__class__ is Manager and child.level is _MODULE:
                    # A nested module manager: its own children are phases.
                    for phase in _phases(child):
                        end = start + len(phase)
                        entry = table.get((start, end)) or self._phase_entry(start, end)
                        earlier += entry[0]
                        same += entry[1]
                        start = end
                else:
                    end = start + child.size
                    entry = table.get((start, end)) or self._phase_entry(start, end)
                    earlier += entry[0]
                    same += entry[1]
                    start = end
        key = (earlier, same)
        result = self.results.get(key)
        if result is None:
            result = self.results[key] = _clamped_total(
                self.program, self.common, earlier, same
            )
        return result


# ---------------------------------------------------------------------------
# JSON spec files.
# ---------------------------------------------------------------------------

def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"bad mock program spec: {what} {value!r}")
    return value


def _integer(value, what: str) -> int:
    # bool is an int subclass; strings and floats are not integers either
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"bad mock program spec: {what} {value!r} is not an integer")
    return value


def _bonuses(entries, table: str) -> Dict[Tuple[str, str], int]:
    bonuses = {}
    for e in entries:
        key = (_string(e["p"], f"{table} pass"), _string(e["q"], f"{table} pass"))
        bonuses[key] = _integer(e["bonus"], f"{table} bonus")
    return bonuses


def mock_program_from_dict(spec: Mapping) -> MockProgram:
    try:
        functions = tuple(
            MockFunction(
                _string(f["name"], "function name"), _integer(f["base_ic"], "base_ic")
            )
            for f in spec["functions"]
        )
        call_edges = tuple(
            (_string(caller, "function name"), _string(callee, "function name"))
            for caller, callee in spec.get("calls", ())
        )
        effects = {
            str(k): _integer(v, f"effect of {k!r}")
            for k, v in spec.get("effects", {}).items()
        }
        synergy = _bonuses(spec.get("pair_synergy", ()), "pair_synergy")
        coupling = _bonuses(spec.get("coupling", ()), "coupling")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad mock program spec: {exc}") from exc
    return MockProgram(functions, call_edges, effects, synergy, coupling)


def mock_program_to_dict(program: MockProgram) -> dict:
    return {
        "functions": [
            {"name": f.name, "base_ic": f.base_ic} for f in program.functions
        ],
        "calls": [list(edge) for edge in program.call_edges],
        "effects": dict(program.pass_effects),
        "pair_synergy": [
            {"p": p, "q": q, "bonus": bonus}
            for (p, q), bonus in program.pair_synergy.items()
        ],
        "coupling": [
            {"p": p, "q": q, "bonus": bonus}
            for (p, q), bonus in program.coupling.items()
        ],
    }


def load_mock_program(path: Union[str, Path]) -> MockProgram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return mock_program_from_dict(spec)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_mock_program(program: MockProgram, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mock_program_to_dict(program), fh, indent=2, sort_keys=True)
        fh.write("\n")


class MockBackend:
    """Evaluation backend over mock programs; pure and thread-safe.

    Program references may be MockProgram instances or paths to JSON
    spec files, cached after the first load while the file keeps its
    size and modification time (the stamp rule of ``OptBackend``). Each
    program compiles its lookup tables on its first evaluation and
    reuses them afterwards.
    ``Evaluator.map`` runs this backend serially: it is pure Python, so
    threads would only contend for the GIL.

    The backend remembers the program, the leaf sequence and the plan, if
    any, of its last call, in one tuple that every call reads and
    replaces whole, so concurrent calls stay correct. A forest whose
    program (by identity) and leaf names equal the last call's is scored
    by that sequence's ``_SequencePlan``, built on this second sighting;
    refinement's partitions of one sequence all take this path, at one
    table lookup per phase once the plan has seen the phase. Every other
    forest goes through ``mock_evaluate``, which is cheaper than building
    and using a plan for a sequence seen once, as most search candidates
    are: replaying mock-tune's calls with a plan built on every first
    sighting costs more per call than ``mock_evaluate`` alone.
    """

    name = "mock"

    def __init__(self):
        # path -> ((size, mtime in ns), program) of the last load
        self._cache: Dict[str, Tuple[Tuple[int, int], MockProgram]] = {}
        # (program, leaf names, plan or None) of the last call
        self._last = (None, (), None)

    def resolve(self, program: Union[MockProgram, str, Path]) -> MockProgram:
        if isinstance(program, MockProgram):
            return program
        key = str(program)
        stat = os.stat(key)
        stamp = (stat.st_size, stat.st_mtime_ns)
        cached = self._cache.get(key)
        if cached is None or cached[0] != stamp:
            cached = self._cache[key] = (stamp, load_mock_program(key))
        return cached[1]

    def evaluate(self, program, forest: PipelineForest) -> EvaluationResult:
        program = self.resolve(program)
        names = ()
        for tree in forest.trees:
            names += tree.names
        last_program, last_names, plan = self._last
        if last_program is not program or last_names != names:
            self._last = (program, names, None)
            return mock_evaluate(program, forest)
        if plan is None:
            plan = _SequencePlan(program, names)
            self._last = (program, names, plan)
        return plan.evaluate(forest)

    def original_count(self, program) -> int:
        return self.resolve(program).total_base_ic()
