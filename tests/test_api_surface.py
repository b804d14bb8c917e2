"""Every public function, class and method in ``src/whitenet`` has a caller
in ``src/whitenet`` besides its own definition, and every defaulted
parameter of a public function or method is set by some call there.

A helper that only its unit test calls is dead weight: it is a second place
to keep right, and passing tests on it say nothing about the program.  The
check is by name: a definition counts as used when its name appears as a
loaded name or an attribute anywhere in the package outside the definition's
own body.  Import statements alone do not count.

Likewise an option that the package never sets holds one value in use: it
belongs in a constant.  That check is by name too: a call of a function's
name (a plain name or an attribute) sets a parameter when it passes it by
keyword or by position, or passes ``*args`` or ``**kwargs``, which may.
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

# Defaulted parameters, as (function, parameter), that no call in the
# package sets.
UNSET_ALLOWED = {
    ("main", "argv"),                      # the entry point; None is sys.argv
    ("build_specs", "hidden"),             # a test seam for small widths
    ("run_matrix", "regimes_by_system"),   # a test seam for tiny regimes
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


def _trees():
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname] = ast.parse(fh.read(), filename=fname)
    return trees


def _unreferenced():
    trees = _trees()
    unused = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            used = any(name in _references(other, skip=node)
                       for other in trees.values())
            if not used and name not in ALLOWED:
                unused.append(f"{fname}: {name}")
    return unused


def _defaulted(func):
    """(name, position) of each defaulted parameter of ``func``; the
    position counts the arguments a call passes (after a method's ``self``),
    and is None for a keyword-only parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i - skip) for i, a in enumerate(positional)
                if i >= first)
    yield from ((a.arg, None)
                for a, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def _sets(call, name, position):
    """Whether ``call`` may set the parameter ``name`` at ``position``."""
    return (any(k.arg in (name, None) for k in call.keywords)   # None: **kw
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def _unset_defaults():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = []
    for fname, tree in trees.items():
        for name, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, position in _defaulted(node):
                if ((name, param) not in UNSET_ALLOWED and not any(
                        _sets(call, param, position)
                        for call in calls.get(name, []))):
                    unset.append(f"{fname}: {name}({param})")
    return unset


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


def test_every_defaulted_parameter_is_set_by_a_call_in_src():
    unset = _unset_defaults()
    assert not unset, (
        "defaulted parameters that no call in src/whitenet sets (make them "
        "constants, or allowlist them with a reason): " + ", ".join(unset))


def test_unset_allowlist_names_real_parameters():
    defaulted = {(name, param) for tree in _trees().values()
                 for name, node in _definitions(tree)
                 if isinstance(node, ast.FunctionDef)
                 for param, _ in _defaulted(node)}
    assert UNSET_ALLOWED <= defaulted, sorted(UNSET_ALLOWED - defaulted)
