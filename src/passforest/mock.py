"""Deterministic synthetic programs for oracle-backed evaluation.

A MockProgram is a handful of functions with base instruction counts, an
acyclic call graph, and three tables describing how passes shrink them:
flat per-function effects, order-dependent same-function pair bonuses,
and cross-function coupling bonuses that fire only when a caller is
optimized after all of its callees. Because the bonuses depend on event
order, the mock distinguishes pipeline structures exactly the way the
hierarchical execution model does.

Execution semantics of a forest over a mock program:

* trees run in order; within a module manager, children run in order,
  and a tree that is not a module manager runs as such a child does;
* a module-level leaf touches the whole module: one event per function,
  all functions before the next sibling starts;
* cgscc and function managers are function-at-a-time units: the entire
  leaf block they contain is applied to one function before the next
  (loop managers inside simply contribute their leaves to the block);
* sibling managers and separate trees each complete over all functions
  before the next begins.

``schedule_of`` is the one definition of that order. ``mock_evaluate``
computes the same result in closed form over the forest's *phases*, its
``forest.module_steps``: a phase is one module-level leaf, or the whole
leaf block of one cgscc or function manager, and each phase runs over
every function, in ``functions`` order, before the next phase starts. So
every function receives the same pass sequence, and the flat effects and
pair bonuses reduce each function by one common amount. Only coupling
differs between functions, and only by whether a function has callees
and whether they are all listed before it; see ``mock_evaluate``. The
tables this needs (bonuses by target pass, and per coupling class the
sorted base counts with their suffix sums, so the final clamp is one
bisection per class) are built once per MockProgram, on its first
evaluation, and cached on the instance.

Refinement evaluates many partitions of one leaf sequence back to back.
For those, ``MockBackend`` compiles the sequence once into a
``_SequencePlan``. It sums the flat effects and pair bonuses once, fills
each phase's coupling by ``mock_evaluate``'s own per-phase rule on the
phase's first use, and so scores a forest with one table lookup per
phase of its ``module_steps``, whatever the number of bonuses or
functions.
Search candidates rarely repeat a sequence, and building a plan and
scoring one forest with it costs more than one ``mock_evaluate``, so the
backend builds a plan only when two calls in a row share program and
sequence.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from itertools import accumulate
from typing import Dict, List, Mapping, NamedTuple, Set, Tuple, Union

from .errors import SchemaError, expect, read_json
from .evaluation import EvaluationResult, file_stamp
from .forest import Manager, PipelineForest, module_steps
from .registry import PassLevel


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
        callees: Dict[str, List[str]] = {}
        for caller, callee in self.call_edges:
            callees.setdefault(caller, []).append(callee)
        try:
            # prepare() finds any cycle, self-calls included, without recursing
            TopologicalSorter(callees).prepare()
        except CycleError:
            raise SchemaError("call graph has a cycle") from None

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

    def run(node):
        if isinstance(node, Manager) and node.level == PassLevel.MODULE:
            for child in node.children:
                run(child)
        else:
            # one step: a leaf module-wide, or a cgscc/function manager's
            # (or a top-level tree's) whole leaf block per function
            for fname in fnames:
                events.extend((p, fname) for p in node.names)

    for tree in forest.trees:
        run(tree)
    return events


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
    for step in module_steps(forest):
        phase = step.names
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
    sum to ``common`` once. Coupling depends on where the phases cut the
    sequence: ``_phase_entry(start, end)`` applies ``mock_evaluate``'s
    rule to the phase ``names[start:end]``, with the passes of
    ``names[:start]`` as those that ran in earlier phases, and ``table``
    keeps its ``(earlier, same)``, filled on the phase's first use. A
    forest is scored with one table lookup per phase of its
    ``module_steps``, and ``results`` keeps one result per ``(earlier,
    same)``. Filling an entry twice from concurrent calls stores equal
    values.
    """

    __slots__ = ("program", "names", "common", "table", "results")

    def __init__(self, program: MockProgram, names: Tuple[str, ...]):
        synergy_by_target = program._index.synergy_by_target
        effects = program.pass_effects
        common = 0
        seen: Set[str] = set()
        for q in names:
            common += effects.get(q, 0)
            for p, bonus in synergy_by_target.get(q, ()):
                if p in seen:
                    common += bonus
            seen.add(q)
        self.program = program
        self.names = names
        self.common = common
        self.table: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.results: Dict[Tuple[int, int], EvaluationResult] = {}

    def _phase_entry(self, start: int, end: int) -> Tuple[int, int]:
        coupling_by_target = self.program._index.coupling_by_target
        phase = self.names[start:end]
        ran, block = set(self.names[:start]), set(phase)
        earlier = same = 0
        for q in phase:
            for p, bonus in coupling_by_target.get(q, ()):
                if p in ran:
                    earlier += bonus
                elif p in block:
                    same += bonus
        entry = self.table[start, end] = (earlier, same)
        return entry

    def evaluate(self, forest: PipelineForest) -> EvaluationResult:
        table = self.table
        earlier = same = start = 0
        for step in module_steps(forest):
            end = start + step.size
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

def _bonuses(entries, table: str) -> Dict[Tuple[str, str], int]:
    bonuses = {}
    for e in expect(entries, "list", table):
        expect(e, "object", f"each {table} entry")
        p, q = (expect(e.get(k), "string", f"{table} pass") for k in ("p", "q"))
        bonuses[p, q] = expect(e.get("bonus"), "integer", f"{table} bonus")
    return bonuses


def load_mock_program(path: Union[str, Path]) -> MockProgram:
    spec = read_json(path)
    try:
        expect(spec, "object", "the mock program spec")
        functions = []
        for f in expect(spec.get("functions"), "list", "functions"):
            expect(f, "object", "each function")
            functions.append(
                MockFunction(
                    expect(f.get("name"), "string", "function name"),
                    expect(f.get("base_ic"), "integer", "base_ic"),
                )
            )
        call_edges = []
        for edge in expect(spec.get("calls", []), "list", "calls"):
            if len(expect(edge, "list", "each call")) != 2:
                raise SchemaError(f"call {edge!r} is not two function names")
            call_edges.append(tuple(expect(n, "string", "function name") for n in edge))
        effects = {
            k: expect(v, "integer", f"effect of {k!r}")
            for k, v in expect(spec.get("effects", {}), "object", "effects").items()
        }
        synergy = _bonuses(spec.get("pair_synergy", []), "pair_synergy")
        coupling = _bonuses(spec.get("coupling", []), "coupling")
        return MockProgram(tuple(functions), tuple(call_edges), effects, synergy, coupling)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


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
    table lookup per phase once the plan has seen the phase. The plan
    fills a phase by ``mock_evaluate``'s rule, so both scorers give one
    result. Every other forest goes through ``mock_evaluate``, which is
    cheaper than building and using a plan for a sequence seen once, as
    most search candidates are: replaying mock-tune's calls with a plan
    built on every first sighting costs more per call than
    ``mock_evaluate`` alone.
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
        stamp = file_stamp(key)
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
