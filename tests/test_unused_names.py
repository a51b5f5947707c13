"""Every module-level name of the package is read somewhere in it.

A name that a module defines or imports at its top level must be read
somewhere in ``src/nncreach`` (as a bare name or as an attribute) or be
listed in the module's ``__all__``.  Dunders and ``__future__`` imports
are exempt, and so is ``__init__.py``, whose imports are the package's
public names.  This is the unused-name check of a linter, kept as a test.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nncreach"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _top_level_names(tree):
    """``(name, line)`` of each name a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _reads():
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_module_level_name_is_read(module):
    tree = TREES[module]
    reads, exported = _reads(), _exported(tree)
    unused = [f"{module}:{line} {name}" for name, line in _top_level_names(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in exported and name not in reads]
    assert not unused, f"module-level names read nowhere in the package: {unused}"


# Parameters that no function of their name reads, each kept on purpose.
UNREAD_PARAMETERS = {
    ("refresh_control", "interval_index"):
        "every control interval has the same grid; the keyword stays because "
        "the acceptance tests (criterion 7) and perfbench/run.py pass it",
    ("refresh_control", "reverify"):
        "the embeddings take the relaxation they are given and never build one; "
        "the keyword stays because the acceptance tests (criterion 7) and "
        "perfbench/run.py pass reverify=False",
    ("prepare", "Wlo"):
        "part of the plug-in prepare(Ulo, Uhi, Wlo, Whi) signature that "
        "embedding._check_arity enforces; the vehicle has no disturbance",
    ("prepare", "Whi"):
        "part of the plug-in prepare(Ulo, Uhi, Wlo, Whi) signature that "
        "embedding._check_arity enforces; the vehicle has no disturbance",
}


def _unread_parameters():
    """``(function name, parameter)`` pairs that no function of that name reads.

    Functions that share a name (a method and its overrides, or the
    plug-in stages of several plants) share a signature, so a parameter
    counts as read when any one of them reads it.  ``self`` and ``cls``
    are exempt.
    """
    params, reads = {}, {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.arg not in ("self", "cls"):
                    params.setdefault(node.name, set()).add(arg.arg)
            reads.setdefault(node.name, set()).update(
                sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    return {(name, param) for name, names in params.items()
            for param in names - reads[name]}


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert sorted(unread - set(UNREAD_PARAMETERS)) == [], \
        "parameters no function of their name reads"
    assert sorted(set(UNREAD_PARAMETERS) - unread) == [], \
        "allowed unread parameters that are now read or gone"
