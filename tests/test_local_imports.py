"""Every function-local ``import`` in the program code binds a name the
function uses (itself or a function nested in it): an import nothing
reads is dead code that still costs its import."""

import ast
import os

import snorkel_ray

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of ``fn``'s body outside any function or class nested
    in it."""
    for ch in ast.iter_child_nodes(fn):
        if not isinstance(ch, _SCOPES):
            yield ch
            yield from _own_nodes(ch)


def _unused_local_imports(src: str) -> list[str]:
    """``qualname: name`` for every name a function-local import binds
    that no ``Name`` node anywhere in that function reads."""
    out = []

    def check(fn, qual):
        used = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.extend(f"{qual}: {name}" for name in
                           (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in used)

    def visit(node, prefix):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(ch, prefix + ch.name)
                visit(ch, f"{prefix}{ch.name}.")
            elif isinstance(ch, ast.ClassDef):
                visit(ch, f"{prefix}{ch.name}.")
            else:
                visit(ch, prefix)

    visit(ast.parse(src), "")
    return out


def test_every_local_import_is_used():
    probe = ("import os\n"
             "def f():\n"
             "    import numpy as np\n"
             "    import pyarrow.compute\n"
             "    from a import b, c\n"
             "    def g():\n"
             "        import json\n"
             "        return b\n"
             "    return pyarrow.compute.sum(c)\n"
             "class K:\n"
             "    def m(self):\n"
             "        import re\n")
    assert _unused_local_imports(probe) == ["f: np", "f.g: json", "K.m: re"]
    pkg = os.path.dirname(snorkel_ray.__file__)
    repo = os.path.dirname(pkg)
    sources = [os.path.join(dirpath, f)
               for top in (pkg, os.path.join(repo, "scripts"))
               for dirpath, _, files in os.walk(top) for f in files if f.endswith(".py")]
    sources.append(os.path.join(repo, "__ray_entry__.py"))
    bad = {os.path.relpath(p, repo): found for p in sources
           if (found := _unused_local_imports(open(p).read()))}
    assert not bad, bad
