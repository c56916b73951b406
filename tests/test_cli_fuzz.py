"""Hostile input through every file the CLI reads.

Each case writes fuzzed contents where a command expects a results file,
a manifest, a mock program, a synergy graph, a registry or a mining
checkpoint, or passes fuzzed pipeline text, and runs the command through
``cli.main``. Every case must end in a documented exit code with no
traceback on stderr.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import example, given, settings

from passforest import PassLevel, default_registry, load_registry
from passforest.cli import main

EXIT_CODES = {0, 1, 2, 3}

# JSON scalars chosen to break naive readers: non-finite and fractional
# floats, bools where numbers belong, integers too large for a float.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([0, -1, 2**63, -(2**64), 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "a", "gvn", "f1", "module", "intra", "inter"]),
    st.text(max_size=8),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)

_VALID_SPEC = {
    "functions": [{"name": "f1", "base_ic": 50}, {"name": "f2", "base_ic": 50}],
    "calls": [["f1", "f2"]],
    "effects": {"gvn": 5, "adce": 3},
    "pair_synergy": [{"p": "gvn", "q": "adce", "bonus": 2}],
    "coupling": [{"p": "gvn", "q": "adce", "bonus": 4}],
}
_VALID_GRAPH = {
    "nodes": ["gvn", "adce"],
    "edges": [{"from": "gvn", "to": "adce", "type": "intra", "weight": 1.0}],
    "start_weights": {"gvn": 1.0},
    "meta": {},
}


def _json_paths(value, path=()):
    """Every (path, value) position in a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_paths(item, path + (index,))


def _replaced(document, path, new):
    if not path:
        return new
    copy = json.loads(json.dumps(document))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = new
    return copy


def _mutants(valid: dict) -> st.SearchStrategy:
    """A valid document with one position replaced by a random value."""
    paths = list(_json_paths(valid))
    return st.builds(
        lambda path, new: json.dumps(_replaced(valid, path, new)),
        st.sampled_from(paths),
        st.one_of(_SCALARS, _JSON),
    )


def _file_contents(valid: dict) -> st.SearchStrategy:
    return st.one_of(
        _mutants(valid),
        _JSON.map(json.dumps),
        st.binary(max_size=24),
        st.text(max_size=24),
    )


def _run(argv, files):
    """``main(argv)`` with ``files`` (text or bytes) written to a fresh
    directory, and its exit code; names in ``argv`` that match a file
    name, or the directory part of one, are replaced by that path."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, contents in files.items():
            path = Path(tmp) / name
            path.parent.mkdir(exist_ok=True)
            if isinstance(contents, str):
                contents = contents.encode("utf-8")
            path.write_bytes(contents)
        names = set(files) | {str(Path(name).parent) for name in files} - {"."}
        argv = [str(Path(tmp) / arg) if arg in names else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@given(
    st.one_of(
        st.lists(
            st.fixed_dictionaries(
                {"program": _SCALARS, "ic_oz": _SCALARS, "ic_tuned": _SCALARS},
                optional={"dataset": _SCALARS},
            ),
            max_size=3,
        ).map(json.dumps),
        _JSON.map(json.dumps),
        st.text(max_size=24),
    ),
    st.one_of(st.none(), _JSON.map(json.dumps), st.text(max_size=12)),
)
@example('[{"program": "p", "ic_oz": Infinity, "ic_tuned": 90}]', None)
@example('[{"program": "p", "ic_oz": 10.7, "ic_tuned": true}]', None)
@example('[{"program": "p", "ic_oz": 100, "ic_tuned": 90}]', "{")
@example(json.dumps([{"program": "p", "ic_oz": 1, "ic_tuned": -(10**400)}]), None)
@settings(max_examples=300, deadline=None)
def test_report_input_fuzz(results, manifest):
    files = {"results.json": results}
    argv = ["report", "--results", "results.json"]
    if manifest is not None:
        files["manifest.json"] = manifest
        argv += ["--manifest", "manifest.json"]
    _run(argv, files)


_SPEC_COMMANDS = [
    ["evaluate", "--program", "prog.json", "--pipeline", "module(function(gvn))"],
    ["refine", "--program", "prog.json", "--pipeline", "module(function(gvn,adce))"],
    [
        "search", "--program", "prog.json",
        "--population", "3", "--generations", "1", "--max-len", "4",
    ],
    [
        "tune", "--program", "prog.json",
        "--population", "3", "--generations", "1", "--max-len", "4",
    ],
    ["experiment", "structure", "--program", "prog.json", "--passes", "gvn,adce"],
]


@given(st.sampled_from(_SPEC_COMMANDS), _file_contents(_VALID_SPEC))
@settings(max_examples=300, deadline=None)
def test_mock_program_fuzz(argv, spec):
    _run(argv + ["--json"], {"prog.json": spec})


_NOT_JSON = object()


def _parsed(contents):
    """The JSON value of fuzzed file contents read as UTF-8, or _NOT_JSON."""
    try:
        if isinstance(contents, bytes):
            contents = contents.decode("utf-8")
        return json.loads(contents)
    except ValueError:
        return _NOT_JSON


def _weight(value) -> bool:
    """A JSON number (never a bool) that is finite and >= 0."""
    return type(value) in (int, float) and 0 <= value <= sys.float_info.max


def _valid_graph(contents) -> bool:
    """Whether ``contents`` is a graph ``search`` and ``tune`` must accept:
    string nodes, edges of two strings, a known type and a weight, start
    weights, an object for meta, and outgoing and start weights that each
    sum to 1."""
    doc = _parsed(contents)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("nodes", []), list)
        and all(isinstance(n, str) for n in doc.get("nodes", []))
        and isinstance(doc.get("edges"), list)
        and isinstance(doc.get("start_weights"), dict)
        and isinstance(doc.get("meta", {}), dict)
    ):
        return False
    edges, starts = doc["edges"], sorted(doc["start_weights"].items())
    if not all(
        isinstance(e, dict)
        and isinstance(e.get("from"), str)
        and isinstance(e.get("to"), str)
        and e.get("type") in ("intra", "inter")
        and _weight(e.get("weight"))
        for e in edges
    ) or not all(_weight(w) for _, w in starts):
        return False
    # summed in the order SynergyGraph sums them
    out = {}
    for e in sorted(edges, key=lambda e: (e["from"], e["to"])):
        out[e["from"]] = out.get(e["from"], 0.0) + float(e["weight"])
    totals = list(out.values()) + ([sum(float(w) for _, w in starts)] if starts else [])
    return all(abs(total - 1.0) <= 1e-9 for total in totals)


@given(st.sampled_from(["search", "tune"]), _file_contents(_VALID_GRAPH))
@example("search", json.dumps(_replaced(_VALID_GRAPH, ("edges", 0, "weight"), 10**400)))
@example("tune", json.dumps(_replaced(_VALID_GRAPH, ("edges", 0, "weight"), 10**400)))
@example("search", json.dumps(_replaced(_VALID_GRAPH, ("edges", 0, "weight"), "1")))
@example("search", json.dumps(_replaced(_VALID_GRAPH, ("edges", 0, "weight"), True)))
@example("tune", json.dumps(_replaced(_VALID_GRAPH, ("start_weights", "gvn"), "1")))
@example("search", json.dumps(_replaced(_VALID_GRAPH, ("edges", 0, "weight"), 1)))
@example("search", json.dumps(_VALID_GRAPH))
@settings(max_examples=200, deadline=None)
def test_graph_fuzz(command, graph):
    argv = [
        command, "--program", "prog.json", "--graph", "graph.json",
        "--population", "3", "--generations", "1", "--max-len", "4", "--json",
    ]
    code = _run(argv, {"prog.json": json.dumps(_VALID_SPEC), "graph.json": graph})
    assert code == (0 if _valid_graph(graph) else 1), graph


_CKPT_REGISTRY = "gvn=function\nadce=function\n"
_CKPT_HASH = load_registry(_CKPT_REGISTRY).content_hash()
_VALID_CHECKPOINT = {
    "registry_hash": _CKPT_HASH,
    "programs": {
        "ds/prog.json": {"stamp": [1, 2], "pairs": [["gvn", "adce"]]},
        "<program-0>": {"stamp": None, "pairs": []},
    },
}


def _valid_checkpoint(contents) -> bool:
    """Whether ``contents`` is a checkpoint ``mine`` must accept: records
    of a stamp (null or integers) and pairs of two registry passes."""
    doc = _parsed(contents)
    if not (isinstance(doc, dict) and "counts" not in doc and "done" not in doc
            and doc.get("registry_hash") == _CKPT_HASH
            and isinstance(doc.get("programs"), dict)):
        return False
    return all(
        isinstance(record, dict)
        and (record.get("stamp") is None or (
            isinstance(record["stamp"], list)
            and all(type(n) is int for n in record["stamp"])))
        and isinstance(record.get("pairs"), list)
        and all(isinstance(pair, list) and len(pair) == 2
                and all(n in ("gvn", "adce") for n in pair)
                for pair in record["pairs"])
        for record in doc["programs"].values()
    )


@given(_file_contents(_VALID_CHECKPOINT))
@example(json.dumps({**_VALID_CHECKPOINT, "counts": {}, "done": []}))
@example(json.dumps(_VALID_CHECKPOINT))
@settings(max_examples=200, deadline=None)
def test_checkpoint_fuzz(checkpoint):
    files = {
        "ds/prog.json": json.dumps(_VALID_SPEC),
        "reg.txt": _CKPT_REGISTRY,
        "mine.ckpt": checkpoint,
        "graph.json": "",  # mine's --out, overwritten
    }
    argv = [
        "mine", "--dataset", "ds", "--out", "graph.json",
        "--checkpoint", "mine.ckpt", "--registry", "reg.txt", "--json",
    ]
    code = _run(argv, files)
    assert code == (0 if _valid_checkpoint(checkpoint) else 1), checkpoint


_REGISTRY_LINES = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(["gvn", "adce", "a", "x-y", "bad name", "", "="]),
        st.sampled_from([lvl.token for lvl in PassLevel] + ["any", "", "warp"]),
    ),
    st.text(max_size=12),
)


@given(
    st.one_of(
        st.lists(_REGISTRY_LINES, max_size=6).map("\n".join),
        st.binary(max_size=24),
    ),
    st.sampled_from(
        [["validate", "module(function(gvn))"], _SPEC_COMMANDS[0], _SPEC_COMMANDS[3], _SPEC_COMMANDS[-1]]
    ),
)
@settings(max_examples=200, deadline=None)
def test_registry_fuzz(registry, argv):
    files = {"reg.txt": registry, "prog.json": json.dumps(_VALID_SPEC)}
    _run(argv + ["--registry", "reg.txt"], files)


_NAMES = [p.name for p in default_registry()]
_TOKENS = (
    [f"{level.token}(" for level in PassLevel]
    + _NAMES
    + ["ghost", "warp(", "(", ")", ",", " ", "-", "<", ">"]
)


@st.composite
def _nested_text(draw, depth=4):
    """Random manager nesting over random names, levels unchecked."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_NAMES + ["ghost", ""]))
    token = draw(st.sampled_from([lvl.token for lvl in PassLevel] + ["warp"]))
    children = draw(st.lists(_nested_text(depth - 1), max_size=3))
    return f"{token}({','.join(children)})"


@given(
    st.sampled_from(["validate", "fmt"]),
    st.one_of(
        st.text(max_size=40),
        st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join),
        st.lists(_nested_text(), min_size=1, max_size=3).map(",".join),
    ),
)
@settings(max_examples=400, deadline=None)
def test_pipeline_text_fuzz(command, text):
    _run([command, text, "--json"], {})
