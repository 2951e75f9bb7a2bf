"""The runtime is pure numpy plus the standard library."""

import ast
import graphlib
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "graftcert"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "graftcert"}


def _imported_packages(tree: ast.AST):
    """(line, top-level package) of every absolute import in the tree;
    relative imports stay inside graftcert."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_numpy_and_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    bad = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in _imported_packages(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    ]
    assert not bad, bad


def test_the_check_catches_a_third_party_import():
    tree = ast.parse("import os\nfrom numpy import linalg\nfrom . import bounds\n"
                     "def f():\n    import scipy.sparse\n    from torch import nn\n")
    found = [name for _, name in _imported_packages(tree) if name not in ALLOWED]
    assert found == ["scipy", "torch"]



def _graftcert_imports(tree: ast.AST):
    """(line, imported graftcert module, inside a function?) of every
    relative import in the tree, ``from .a import b`` and ``from . import a``
    alike."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = {
        id(node)
        for scope in ast.walk(tree) if isinstance(scope, functions)
        for node in ast.walk(scope)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield node.lineno, name.split(".")[0], id(node) in nested


def _cycle(graph: dict[str, set[str]]):
    """A module path that ends where it starts, or None when there is none."""
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        return err.args[1]
    return None


def _import_graph():
    graph, local = {}, []
    for path in sorted(SRC.glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for line, mod, inside in _graftcert_imports(ast.parse(path.read_text(encoding="utf-8"))):
            deps.add(mod)
            if inside:
                local.append(f"{path.name}:{line}: {mod}")
    return graph, local


def test_graftcert_imports_sit_at_module_top():
    _, local = _import_graph()
    assert not local, local


def test_module_imports_form_no_cycle():
    graph, _ = _import_graph()
    assert {"network", "grafting", "training", "pipeline"} <= set(graph), sorted(graph)
    assert _cycle(graph) is None, _cycle(graph)


def test_the_checks_catch_a_local_import_and_a_cycle():
    tree = ast.parse("from .network import forward\nfrom . import bounds\n"
                     "def f():\n    from .grafting import _ceil\n")
    assert list(_graftcert_imports(tree)) == [
        (1, "network", False), (2, "bounds", False), (4, "grafting", True),
    ]
    cycle = _cycle({"grafting": {"network", "training"}, "training": {"grafting"}})
    assert sorted(cycle[:-1]) == ["grafting", "training"] and cycle[0] == cycle[-1]
    assert _cycle({"a": {"b"}, "b": {"c"}}) is None


def _enclosing(tree: ast.AST) -> dict:
    """The name of the innermost function around each node of the tree, by
    node id; module-level nodes are missing."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    inside = {}
    for scope in ast.walk(tree):
        if isinstance(scope, functions):
            for node in ast.walk(scope):
                # the innermost function wins: nested ones are walked later
                inside[id(node)] = scope.name
    return inside


def _products_outside(tree: ast.AST, owner: str):
    """(line, function) of every ``@``, ``np.matmul`` or ``np.dot`` in the
    tree outside the function ``owner``; module-level code is function
    None."""
    inside = _enclosing(tree)
    for node in ast.walk(tree):
        matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        call = isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot")
        if (matmul or call) and inside.get(id(node)) != owner:
            yield node.lineno, inside.get(id(node))


def test_every_bound_product_runs_through_rows_matmul():
    # a row's floats depend on that row alone only if every product is one
    # of fixed row blocks (bounds._rows_matmul)
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    assert not list(_products_outside(tree, "_rows_matmul"))


def test_the_check_catches_a_product_outside_the_helper():
    tree = ast.parse(
        "import numpy as np\n"
        "def _rows_matmul(A, W):\n    return A @ W\n"
        "def f(A, W):\n    A @= W\n    return np.matmul(A, W) + A.dot(W)\n"
        "def g(x, W):\n    def h():\n        return x @ W\n    return np.dot(x, W)\n"
        "Y = np.eye(2) @ np.eye(2)\n"
    )
    assert sorted(_products_outside(tree, "_rows_matmul")) == [
        (5, "f"), (6, "f"), (6, "f"), (9, "h"), (10, "g"), (11, None),
    ]


# The relaxation rule, the secant u / (u - l) and its intercept, is
# evaluated by one line builder, and a domain's lines are built once: its
# back-substitution and its branch choice read them as arguments, and its
# bounding pass builds them through _domain_lines, which calls the builder
# once per layer.  The readers call neither the builder nor the neuron
# classifier.
_LINE_BUILDER = "_relaxation_lines"
_BUILDS = {"_relaxation_lines", "classify_neurons"}
_LINE_READERS = {
    "_backward": _BUILDS | {"_domain_lines"},
    "_spec_lower": _BUILDS | {"_domain_lines"},
    "_branch_on": _BUILDS | {"_domain_lines"},
    "_bound_children": _BUILDS,
}


def _rule_breaches(tree: ast.AST):
    """(function, what) of every division in the tree outside the line
    builder, and of every call in a reader of ``_LINE_READERS`` to a name
    it must not call."""
    inside = _enclosing(tree)
    for node in ast.walk(tree):
        where = inside.get(id(node))
        divide = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        divide |= isinstance(node, ast.Attribute) and node.attr in ("divide", "true_divide")
        if divide and where != _LINE_BUILDER:
            yield where, "/"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _LINE_READERS.get(where, ()):
                yield where, node.func.id


def test_one_builder_evaluates_the_relaxation_rule():
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert {_LINE_BUILDER, "_domain_lines"} | set(_LINE_READERS) <= names
    assert not list(_rule_breaches(tree))


def test_the_rule_check_catches_a_stray_build():
    # bounds.py with a reader building its lines again, the bounding pass
    # classifying its children, and the branch choice recomputing its score
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    stray = {
        "_spec_lower": "lines = _domain_lines(net, inter, split)",
        "_backward": "slope = _relaxation_lines(net, inter, split, 0)[0]",
        "_bound_children": "status = classify_neurons(inter, split)",
        "_branch_on": "score = np.abs(l * u) / (u - l)",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in stray:
            node.body.insert(0, ast.parse(stray[node.name]).body[0])
    assert sorted(_rule_breaches(tree)) == [
        ("_backward", "_relaxation_lines"), ("_bound_children", "classify_neurons"),
        ("_branch_on", "/"), ("_spec_lower", "_domain_lines"),
    ]


# A region is empty where its bounds cross, and one place decides that:
# LayerBounds.feasible.  Box.__post_init__ checks its input the same way.
_EMPTINESS_TESTS = {"LayerBounds.feasible", "Box.__post_init__"}
# compute_bounds' rounding rule tests for crossed neurons too, but only to
# un-cross them (each takes its IBP interval): it decides no emptiness.
# Each of these places tests once
_UNCROSSING = {"compute_bounds"}


def _qualified(tree: ast.AST) -> dict:
    """The dotted name of the innermost class or function around each node
    of the tree (``Class.method``), by node id; module-level nodes are
    missing."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                for sub in ast.walk(child):
                    names[id(sub)] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def _constant(node) -> bool:
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant)
    )


def _emptiness_tests(tree: ast.AST):
    """(line, where) of every ``np.any(a > b)`` or ``(a > b).any()`` in the
    tree whose comparison has no constant operand: a test of whether two
    arrays cross.  The comparison may also be a name it was assigned to in
    the same scope (``crossed = a > b`` then ``crossed.any()``)."""
    where = _qualified(tree)

    def crossing(node):
        return isinstance(node, ast.Compare) and not any(
            _constant(x) for x in [node.left, *node.comparators]
        )

    masks = {
        (where.get(id(node)), node.targets[0].id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and crossing(node.value)
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "any":
            continue
        owner = node.func.value
        np_any = isinstance(owner, ast.Name) and owner.id == "np" and node.args
        operand = node.args[0] if np_any else owner
        named = isinstance(operand, ast.Name) and (where.get(id(node)), operand.id) in masks
        if crossing(operand) or named:
            yield node.lineno, where.get(id(node))


def test_one_place_decides_emptiness():
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    assert sorted(where for _, where in _emptiness_tests(tree)) == sorted(
        _EMPTINESS_TESTS | _UNCROSSING
    )


def test_the_emptiness_check_catches_a_second_decision():
    # _clamp_split deciding emptiness again, as it did with a stored flag,
    # inline or through a named mask
    for decision in (
        "empty = np.any(zl > zu, axis=-1, keepdims=True)",
        "crossed = zl > zu\nempty = crossed.any(axis=-1)",
    ):
        tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_clamp_split":
                node.body[0:0] = ast.parse(decision).body
        assert sorted(where for _, where in _emptiness_tests(tree)) == sorted(
            _EMPTINESS_TESTS | _UNCROSSING | {"_clamp_split"}
        )
    snippet = ast.parse(
        "import numpy as np\n"
        "class B:\n    def f(self, l, u):\n        return np.any(l > u), (l < 0.0).any()\n"
        "def g(a, b):\n    return (a > b).any() or np.any(a <= -1.0)\n"
        "def h(a, c):\n    n = a > 0.0\n    crossed = a > c\n"
        "    return crossed.any(), np.any(n)\n"
        "def k(crossed):\n    return crossed.any()\n"
    )
    assert sorted(_emptiness_tests(snippet)) == [(4, "B.f"), (6, "g"), (10, "h")]


# A linear leaf is decided in the step that bounds it: one admission step in
# _search, which the root and every step's children pass, resolves it, so
# the frontier holds only domains BaB can branch
_LEAF_RESOLVER = "_resolve_linear_leaf"


def _call_sites(tree: ast.AST, name: str):
    """The innermost function around every call to ``name`` in the tree,
    by bare name or as an attribute (``verifier._resolve_linear_leaf``);
    module-level calls are None."""
    inside = _enclosing(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                yield inside.get(id(node))


def test_one_admission_step_resolves_linear_leaves():
    sites = [
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where in _call_sites(ast.parse(path.read_text(encoding="utf-8")), _LEAF_RESOLVER)
    ]
    assert sites == [("verifier.py", "_search")], sites


def test_the_leaf_check_catches_a_second_call_site():
    # bab_verify resolving a linear root itself, as a search once did when
    # it popped one, by bare name or through the module
    for call in (
        "_resolve_linear_leaf(net, box, root_split, inter, spec)",
        "verifier._resolve_linear_leaf(net, box, root_split, inter, spec)",
    ):
        tree = ast.parse((SRC / "verifier.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "bab_verify":
                node.body.insert(1, ast.parse(call).body[0])
        assert sorted(_call_sites(tree, _LEAF_RESOLVER)) == ["_search", "bab_verify"]
    snippet = ast.parse("def f():\n    def g():\n        _resolve_linear_leaf()\n"
                        "    return g\n_resolve_linear_leaf()\n")
    assert set(_call_sites(snippet, _LEAF_RESOLVER)) == {"g", None}
