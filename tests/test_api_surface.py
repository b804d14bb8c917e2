"""Every public function, class and method in ``src/whitenet`` has a caller
in ``src/whitenet`` besides its own definition.

A helper that only its unit test calls is dead weight: it is a second place
to keep right, and passing tests on it say nothing about the program.  The
check is by name: a definition counts as used when its name appears as a
loaded name or an attribute anywhere in the package outside the definition's
own body.  Import statements alone do not count.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "whitenet")

# Public API that the package itself does not call.
ALLOWED = {
    "csv_ingest",               # reads a hardware log back in as a Trajectory
    "load_report",              # reads an emitted JSON report
    "step_double_pendulum",     # the documented RK4 step, as step_* for the others
    "double_pendulum_energy",   # the conserved quantity criterion 8 checks
}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(name, node) of public top-level functions, classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield item.name, item


def _references(node, skip=None):
    """Names loaded and attributes read under ``node``, minus ``skip``'s body."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _unreferenced():
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname] = ast.parse(fh.read(), filename=fname)
    unused = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            used = any(name in _references(other, skip=node)
                       for other in trees.values())
            if not used and name not in ALLOWED:
                unused.append(f"{fname}: {name}")
    return unused


def test_every_public_definition_has_a_caller_in_src():
    unused = _unreferenced()
    assert not unused, (
        "public definitions that nothing in src/whitenet calls (delete them, "
        "make them private, or allowlist them with a reason): "
        + ", ".join(unused))


def test_allowlist_names_real_definitions():
    defined = set()
    for fname in os.listdir(SRC):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                defined.update(name for name, _ in _definitions(ast.parse(fh.read())))
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
