"""agrec makes no BLAS call, so no BLAS build or thread count can change
its output. The source of every agrec module is walked with `ast`: any `@`
operator, any call to numpy's BLAS-backed products (`dot`, `matmul`,
`inner`, `vdot`, `tensordot`, anything under `linalg`) or an `einsum` that
may hand its product to them (`optimize=`) fails the test."""

import ast
import pathlib

import pytest

import agrec

BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot"}


def blas_uses(source: str) -> list[str]:
    """The lines of `source` that reach a BLAS product, as `line: code`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Call):
            parts = ast.unparse(node.func).split(".")
            hit = (parts[-1] in BLAS_NAMES or "linalg" in parts
                   or parts[-1] == "einsum"
                   and any(kw.arg == "optimize" for kw in node.keywords))
        elif isinstance(node, ast.ImportFrom):
            hit = ("linalg" in (node.module or "").split(".")
                   or any(alias.name in BLAS_NAMES for alias in node.names))
        elif isinstance(node, ast.Import):
            hit = any("linalg" in alias.name.split(".") for alias in node.names)
        else:
            hit = False
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source", [
    "s = a @ b.T", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)",
    "np.inner(a, b)", "np.vdot(a, b)", "np.tensordot(a, b, 1)",
    "np.linalg.norm(a)", "from numpy.linalg import norm",
    "import numpy.linalg as la", "from numpy import dot",
    "np.einsum('ud,id->ui', a, b, optimize=True)"])
def test_guard_catches(source):
    assert blas_uses(source)


def test_guard_passes_elementwise_and_plain_einsum():
    assert not blas_uses("s = np.einsum('ud,di->ui', a, b) * c + d")


def test_agrec_makes_no_blas_call():
    package = pathlib.Path(agrec.__file__).parent
    found = [f"{path.name}:{use}" for path in sorted(package.glob("*.py"))
             for use in blas_uses(path.read_text(encoding="utf-8"))]
    assert found == []
