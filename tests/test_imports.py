"""Every name imported in ``src/whitenet`` and ``tests/`` is used in its
module.

An import left behind when its last use goes is dead weight that no other
check sees.  The check is by name: an imported name counts as used when it
is loaded anywhere in the module, or listed in the module's ``__all__``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = (os.path.join(ROOT, "src", "whitenet"), os.path.join(ROOT, "tests"))


def _unused_imports(tree):
    """Names bound by the imports in ``tree`` that nothing in it uses."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_every_imported_name_is_used():
    unused = []
    for folder in DIRS:
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), filename=path)
                unused.extend(f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                              for line, name in _unused_imports(tree))
    assert not unused, "imported names never used: " + ", ".join(unused)
