import ast
import inspect
import pathlib

import hypersem
from hypersem import lang, noninterference, reference, semantics


def test_every_export_resolves_once():
    names = hypersem.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hypersem, n)]
    assert not missing


def test_every_public_definition_is_used_in_src():
    # src/ holds what a command, the engine or an oracle runs: every public
    # module-level function or class is referred to by another top-level
    # statement of src/, not counting the packages' re-exports.  An exempt
    # name must be used nowhere else in src/, so no exemption goes stale.
    exempt = {
        "backend",  # perfbench records the kernel backend's name
        # perfbench's tracer resolves these kernels by name, and
        # psc_scan_table is the tests' reference scan for psc_check
        "converse_rows", "is_downclosed", "psc_scan_table",
        "ssc",  # the README's Python API example calls it
    }
    root = pathlib.Path(hypersem.__file__).parent
    defined, refs = set(), []
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not name.startswith("_"):
                defined.add(name)
            if path.name == "__init__.py":
                continue
            words = {getattr(sub, field) for sub in ast.walk(node)
                     for field in ("id", "attr")
                     if isinstance(getattr(sub, field, None), str)}
            words |= {alias.name for sub in ast.walk(node)
                      if isinstance(sub, (ast.Import, ast.ImportFrom))
                      for alias in sub.names}
            refs.append((name, words))

    def used(name):
        return any(name in words for owner, words in refs if owner != name)

    assert sorted(name for name in defined - exempt if not used(name)) == []
    assert sorted(name for name in exempt
                  if name not in defined or used(name)) == []


def test_reference_does_not_import_the_engine():
    # the definitional evaluator is the paper engine's independent oracle
    tree = ast.parse(inspect.getsource(reference))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert not [n for n in names if "hyper" in n.split(".")], names


def test_sem_tr_uses_no_relation_algebra():
    # the transformer denotation builds each construct by its own rule, so
    # the prop1 differential does not compare the relation algebra with
    # itself: sem_tr and the module functions it reaches use no compose,
    # union or coreflexive
    tree = ast.parse(inspect.getsource(semantics))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    seen, pending = set(), ["sem_tr"]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        pending += [node.id for node in ast.walk(defs[name])
                    if isinstance(node, ast.Name) and node.id in defs]
    assert {"sem_tr", "_pointwise"} <= seen
    used = {node.attr for name in seen for node in ast.walk(defs[name])
            if isinstance(node, ast.Attribute)}
    assert "apply" in used
    assert not used & {"compose", "union", "coreflexive"}, used


def test_expressions_are_evaluated_as_columns():
    # the space does the mixed-radix arithmetic: expressions, assignment
    # rows and low views read whole columns, never a decoded state
    for module in (lang, noninterference):
        tree = ast.parse(inspect.getsource(module))
        called = {node.func.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)}
        assert "column" in called
        assert "decode" not in called, module.__name__
