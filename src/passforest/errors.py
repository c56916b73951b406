"""Exception types shared across the package, and how JSON input is read."""

import json
import sys
from pathlib import Path


class PassForestError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PassForestError):
    """Malformed registry file line or field."""


class DuplicatePass(ParseError):
    """A pass name occurs more than once in a registry source."""


class UnknownPass(PassForestError):
    """A pass name is not present in the registry."""


class PipelineSyntaxError(PassForestError):
    """Bad tokens or unbalanced parentheses in a pipeline string."""


class TopLevelNotModule(PipelineSyntaxError):
    """A top-level pipeline element is not a module manager."""


class LevelMismatch(PassForestError):
    """A pass or manager is placed under an incompatible manager."""


class EmptyManager(PassForestError):
    """A manager with no children was parsed or constructed."""


class MalformedIR(PassForestError):
    """Textual IR with unbalanced function-body braces."""


class BackendUnavailable(PassForestError):
    """The evaluation backend cannot run (missing binary, missing file)."""


class InvalidPipeline(PassForestError):
    """A pipeline failed validation before evaluation.

    Carries the list of violations that caused the rejection.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations) or "invalid pipeline"
        super().__init__(summary)


class SchemaError(PassForestError):
    """A JSON input file (mock program, graph, checkpoint, report results
    or manifest) violates its schema."""


_JSON_KINDS = {
    "object": (dict, "an object"),
    "list": (list, "a list"),
    "string": (str, "a string"),
    "integer": (int, "an integer"),
    "number": ((int, float), "a finite number"),
}


def read_json(path):
    """The JSON value of the UTF-8 file at ``path``; ``SchemaError`` naming
    the file when its text is not JSON, not UTF-8 or nested too deeply to
    read."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also not UTF-8
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def expect(value, kind: str, what: str):
    """``value`` when it is a JSON ``kind`` ("object", "list", "string",
    "integer" or "number"), else ``SchemaError`` naming ``what``. A bool is
    neither an integer nor a number, and a number must be a finite float."""
    types, name = _JSON_KINDS[kind]
    if (
        isinstance(value, types)
        and not isinstance(value, bool)
        and (kind != "number" or abs(value) <= sys.float_info.max)
    ):
        return value
    raise SchemaError(f"{what} must be {name}")


class InvalidBaseline(PassForestError):
    """A baseline instruction count of zero cannot anchor a percentage."""


class ChromosomeLengthMismatch(PassForestError):
    """A partition chromosome does not match the decision-point count."""
