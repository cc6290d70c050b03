import ast
import inspect

import hypersem
from hypersem import reference


def test_every_export_resolves_once():
    names = hypersem.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hypersem, n)]
    assert not missing


def test_reference_does_not_import_the_engine():
    # the definitional evaluator is the paper engine's independent oracle
    tree = ast.parse(inspect.getsource(reference))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert not [n for n in names if "hyper" in n.split(".")], names
