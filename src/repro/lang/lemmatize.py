"""Static code lemmatization (Section 5.1, "Reducing Vocabulary").

Semantically equivalent steps written differently inflate the vocabulary:
``df['Age']`` and ``train['Age']`` are the same column when both frames were
read from the same CSV.  Lemmatization rewrites every script into a
canonical form before DAG construction:

1. dataframe variables assigned from ``read_csv`` are renamed to ``df``
   (``df2``, ``df3``, ... for additional distinct files), consistently
   across all scripts in a corpus;
2. plain aliases (``train = df``) inherit the canonical name;
3. the AST round-trip (`ast.unparse`) normalizes whitespace, quoting, and
   redundant parentheses.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..dialects import resolve_dialect
from .errors import ScriptParseError, UnsupportedScriptError

__all__ = ["lemmatize", "read_csv_files", "split_statements"]

_UNSUPPORTED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.While,
    ast.With,
    ast.Try,
)


def _parse(source: str) -> ast.Module:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        raise ScriptParseError(f"script is not valid Python: {exc}") from exc


def _check_straight_line(tree: ast.Module) -> None:
    for node in tree.body:
        if isinstance(node, _UNSUPPORTED):
            raise UnsupportedScriptError(
                f"unsupported construct at line {node.lineno}: {type(node).__name__}"
            )


def _read_csv_path(call: ast.Call, loader_names) -> Optional[str]:
    """Return the constant path argument of a loader call, if present."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name not in loader_names:
        return None
    if call.args and isinstance(call.args[0], ast.Constant):
        return str(call.args[0].value)
    return "<dynamic>"


def read_csv_files(source: str, dialect=None) -> List[str]:
    """List the distinct data paths a script loads, in first-read order."""
    loader_names = resolve_dialect(dialect).loader_names
    tree = _parse(source)
    paths: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _read_csv_path(node, loader_names)
            if path is not None and path not in paths:
                paths.append(path)
    return paths


class _Renamer(ast.NodeTransformer):
    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.Name:
        if node.id in self.mapping:
            return ast.copy_location(
                ast.Name(id=self.mapping[node.id], ctx=node.ctx), node
            )
        return node


def _build_rename_map(tree: ast.Module, dialect) -> Dict[str, str]:
    """Map loader-result variable names to the dialect's canonical
    ``df``/``df2``/... (pandas) or ``design``/``design2``/... names."""
    loader_names, base = dialect.loader_names, dialect.canonical_base
    canonical_by_path: Dict[str, str] = {}
    rename: Dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            path = _read_csv_path(value, loader_names)
            if path is not None:
                if path not in canonical_by_path:
                    suffix = "" if not canonical_by_path else str(len(canonical_by_path) + 1)
                    canonical_by_path[path] = f"{base}{suffix}"
                rename[target.id] = canonical_by_path[path]
        elif isinstance(value, ast.Name) and value.id in rename:
            # plain alias: train = df
            rename[target.id] = rename[value.id]
    return {old: new for old, new in rename.items() if old != new}


def split_statements(source: str) -> List[str]:
    """Split a script into one normalized source line per statement."""
    tree = _parse(source)
    _check_straight_line(tree)
    return [ast.unparse(node) for node in tree.body]


def lemmatize(source: str, dialect=None) -> str:
    """Return the canonical (lemmatized) form of *source*.

    *dialect* (an :class:`~repro.dialects.ApiDialect`, its name, or None
    for pandas) supplies the loader entry points and the canonical
    variable stem; everything else is surface-independent.

    Raises
    ------
    ScriptParseError
        If the script is not valid Python.
    UnsupportedScriptError
        If it uses constructs outside the supported straight-line class.
    """
    tree = _parse(source)
    _check_straight_line(tree)
    mapping = _build_rename_map(tree, resolve_dialect(dialect))
    if mapping:
        tree = _Renamer(mapping).visit(tree)
        ast.fix_missing_locations(tree)
    return "\n".join(ast.unparse(node) for node in tree.body)
