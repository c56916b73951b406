import pytest

from passforest import (
    MockBackend,
    MockFunction,
    MockProgram,
    default_registry,
    load_registry,
)

from helpers import save_mock_program


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def ab_registry():
    return load_registry("a=function\nb=function\n")


@pytest.fixture
def m1():
    # one function, an order-dependent same-function synergy
    return MockProgram(
        functions=(MockFunction("f1", 100),),
        pass_effects={"a": 10, "b": 5},
        pair_synergy={("a", "b"): 3},
    )


@pytest.fixture
def m2():
    # caller/callee pair with a cross-function coupling bonus
    return MockProgram(
        functions=(MockFunction("f1", 50), MockFunction("f2", 50)),
        call_edges=(("f1", "f2"),),
        pass_effects={"a": 5, "b": 5},
        coupling={("a", "b"): 7},
    )


@pytest.fixture
def m1_file(tmp_path, m1):
    path = tmp_path / "m1.json"
    save_mock_program(m1, path)
    return str(path)


@pytest.fixture
def m2_file(tmp_path, m2):
    path = tmp_path / "m2.json"
    save_mock_program(m2, path)
    return str(path)


@pytest.fixture
def backend():
    return MockBackend()
