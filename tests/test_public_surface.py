"""Every public top-level definition of the library is used by the library.

A public (no leading underscore) module-level ``def`` or ``class`` in
``jsschema_ray/`` must be referenced from outside its own body somewhere in
``jsschema_ray/``, ``__ray_entry__.py``, ``bench.py`` or ``perfbench/``.
Tests do not count: a definition only tests reach is surface nobody runs.

A reference is a ``Name``, an ``Attribute``, an import alias, or a string
equal to the name that is an argument of ``register_constraint(...)`` or
an entry of ``__all__``. Any other string (a column name, a report key, a
docstring) keeps nothing alive, and the scan is syntactic (``ast``), not a
text grep, so neither does a comment.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> why it stays although only tests reach it
ALLOWED = {
    "uniqueness_reports": "the reference the pipeline's scan-fused "
                          "x-uniqueness verdicts are compared against "
                          "(tests/test_pipeline_uniqueness.py)",
    "jaccard": "the serial reference the vectorized jaccard verify is "
               "compared against (tests/test_r5_dedup_distributed.py::"
               "test_vectorized_jaccard_verify_matches_serial)",
    "drift_check": "drift against a saved profile, pinned by "
                   "tests/test_stats_drift.py; the planned reproducible "
                   "drift verdicts (ROADMAP item 4(a′)) change it in place",
}


def _sources() -> list[str]:
    paths = [os.path.join(ROOT, "__ray_entry__.py"),
             os.path.join(ROOT, "bench.py")]
    for top in ("jsschema_ray", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in sorted(files)
                      if f.endswith(".py")]
    return [p for p in paths if os.path.exists(p)]


def _strings(node: ast.AST):
    for c in ast.walk(node):
        if isinstance(c, ast.Constant) and isinstance(c.value, str):
            yield c


def _references(tree: ast.AST):
    """(name, line) for every reference in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "register_constraint"):
            for arg in node.args:
                for c in _strings(arg):
                    yield c.value, c.lineno
        elif (isinstance(node, (ast.Assign, ast.AugAssign))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in (node.targets if isinstance(node, ast.Assign)
                                else [node.target]))):
            for c in _strings(node.value):
                yield c.value, c.lineno


def _unreferenced(allowed=ALLOWED) -> list[str]:
    defs = []  # (path, name, first line, last line)
    refs = defaultdict(list)  # name -> [(path, line)]
    lib = os.path.join(ROOT, "jsschema_ray") + os.sep
    for path in _sources():
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        if path.startswith(lib):
            defs += [(path, n.name, n.lineno, n.end_lineno)
                     for n in tree.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                     and not n.name.startswith("_")]
        for name, line in _references(tree):
            refs[name].append((path, line))
    return sorted(
        f"{os.path.relpath(path, ROOT)}:{name}"
        for path, name, lo, hi in defs
        if name not in allowed
        and not any(p != path or not lo <= line <= hi
                    for p, line in refs[name]))


def test_every_public_definition_is_referenced():
    dead = _unreferenced()
    assert not dead, (
        "public definitions that only tests reach (delete them, or add "
        "them to ALLOWED with a reason):\n  " + "\n  ".join(dead))


def test_allowlist_entries_exist_and_are_needed():
    """An ALLOWED name must still be defined, and only tests may reach it
    (otherwise its entry is stale)."""
    dead = {entry.rsplit(":", 1)[1] for entry in _unreferenced(allowed=())}
    assert set(ALLOWED) <= dead, sorted(set(ALLOWED) - dead)
