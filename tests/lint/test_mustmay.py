"""The lifecycle analysis reports each hazard once: as a must or a may.

Over the shipped examples, the library itself and every source snippet
the lint tests build:

- every default-mode finding is also a ``--flow`` finding: ``--flow``
  only adds the path-dependent PL3xx/PL4xx codes;
- no ``(line, col)`` carries both a lifecycle PL0xx code and its
  PL3xx/PL4xx twin.
"""

import ast
import pathlib
import textwrap

import pytest

from repro.lint import lint_source
from repro.tools.cli import expand_lint_targets

REPO = pathlib.Path(__file__).resolve().parents[2]

#: may-code -> the must-codes that report the same hazard on every path
TWINS = {
    "PL301": ("PL001",),
    "PL302": ("PL002", "PL005", "PL007", "PL014"),
    "PL303": ("PL008", "PL017"),
    "PL304": ("PL008",),
    "PL401": ("PL015", "PL016"),
    "PL403": ("PL016",),
}


def _strings(stmts, names):
    """Values of ``name = <expr>`` assignments whose expression only
    combines literals and already-known strings (str methods allowed)."""
    for stmt in stmts:
        if not (isinstance(stmt, ast.Assign)
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        used = {n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)}
        if not used <= set(names):
            continue
        code = compile(ast.Expression(stmt.value), "<snippet>", "eval")
        try:
            value = eval(code, {"__builtins__": {}}, dict(names))
        except Exception:
            continue
        if isinstance(value, str):
            names[stmt.targets[0].id] = value
            yield textwrap.dedent(value)


def _snippets():
    """Every parseable source string assigned in tests/lint/test_*.py
    (module constants first: ``ast.walk`` is breadth-first)."""
    found = {}
    for path in sorted((REPO / "tests" / "lint").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        stmts = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
        for i, text in enumerate(_strings(stmts, {})):
            try:
                ast.parse(text)
            except SyntaxError:
                continue
            found[f"{path.stem}[{i}]"] = text
    return found


def _inputs():
    files = expand_lint_targets([str(REPO / "examples"),
                                 str(REPO / "src" / "repro")])
    return [
        pytest.param(pathlib.Path(f).read_text(),
                     id=str(pathlib.Path(f).relative_to(REPO)))
        for f in files
    ] + [pytest.param(text, id=name) for name, text in _snippets().items()]


def test_snippets_are_harvested():
    snippets = _snippets()
    assert len(snippets) > 100
    assert any("es.read()" in text for text in snippets.values())


@pytest.mark.parametrize("source", _inputs())
def test_each_hazard_is_a_must_or_a_may(source):
    def findings(flow):
        return {(d.code, d.line, d.col)
                for d in lint_source(source, "t.py", flow=flow)}

    default, flow = findings(False), findings(True)
    assert default <= flow, sorted(default - flow)
    for code, line, col in flow:
        for twin in TWINS.get(code, ()):
            assert (twin, line, col) not in flow, (code, twin, line, col)
