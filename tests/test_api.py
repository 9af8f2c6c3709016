"""The public API exports only what the program runs or README documents."""

import ast
import re
from pathlib import Path

import rtdispatch

ROOT = Path(__file__).resolve().parent.parent


def _names_used(paths):
    """Every identifier read as a name or an attribute in ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_or_documented():
    program = [p for p in (ROOT / "src" / "rtdispatch").glob("*.py") if p.name != "__init__.py"]
    used = _names_used(program + sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in rtdispatch.__all__
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []


def test_the_bench_finds_every_name_it_wraps(monkeypatch):
    # perfbench/run.py wraps program functions by name; a renamed or
    # deleted one would otherwise show only as an AttributeError in a bench run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import spans

    tracer = spans.Tracer()
    try:
        run.wrap_layers(tracer)
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.restore()
    assert patched and all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def test_only_formulation_and_cli_read_the_first_stage_keys():
    # the first stage travels as a vector; formulation.py alone maps its
    # positions to model columns, and cli.py labels it for output
    readers = set()
    for path in (ROOT / "src" / "rtdispatch").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) == "first_stage_keys":
                    readers.add(path.name)
    assert readers == {"formulation.py", "cli.py"}


def test_every_module_level_name_is_read_by_the_program():
    # a helper only tests call is dead weight: every function, class and
    # assigned name at module level in src/rtdispatch is read somewhere in
    # src/ or perfbench/, as a name, an attribute or an import
    program = sorted((ROOT / "src" / "rtdispatch").glob("*.py"))
    read = set()
    for path in program + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for path in program:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [n.id for n in ast.walk(node)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            unread += [f"{path.name}:{name}" for name in targets
                       if name not in read and (path.name, name) != ("__init__.py", "__all__")]
    assert unread == []
