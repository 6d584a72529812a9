"""The README's library example, checked against the library without
running it: every name it imports exists, and every call to one of them
binds to that callable's signature."""

import ast
import importlib
import inspect
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use_block() -> str:
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return code


def imported_names(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] == "agrec", node.module
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] == "agrec", alias.name
                names[alias.asname or alias.name] = importlib.import_module(alias.name)
    return names


def test_library_use_calls_bind_to_agrec_signatures():
    tree = ast.parse(library_use_block())
    names = imported_names(tree)
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls
    for call in calls:
        source = ast.unparse(call)
        assert call.func.id in names, f"{source}: {call.func.id} is not imported"
        assert not any(isinstance(a, ast.Starred) for a in call.args), source
        assert all(kw.arg for kw in call.keywords), source
        signature = inspect.signature(names[call.func.id])
        try:
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{source} does not fit {call.func.id}"
                                 f"{signature}: {exc}") from None
