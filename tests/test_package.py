"""The package holds no code that only the tests use."""

import ast
import pathlib

import cue_moments

SRC = pathlib.Path(cue_moments.__file__).parent


def test_every_public_function_is_used_in_the_package_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public, "no public functions found"
    unused = sorted((module, name) for module, name in public if name not in used and name not in cue_moments.__all__)
    assert not unused, f"public functions that only the tests call: {unused}"
