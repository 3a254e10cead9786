"""The three routes share no code but ``polynomial.exact`` and ``InternalError``.

A module-qualified call graph over ``src/rootsums``, built with ``ast``
without importing the package. A node is ``module.function`` or
``module.Class.method``, so ``newton._scale`` and ``series._scale`` are
different functions. An edge goes from a function to:

* every src function or class its body names, whether it calls it or
  passes it on (nested functions and lambdas belong to the function
  around them), as ``name`` or ``module.name``, with imports (those
  inside functions too) followed to where the name is defined;
* for a call ``obj.name(...)``, every src method called ``name``, since
  the type of ``obj`` is unknown.

A class stands for its ``__init__``. Type annotations are not calls and
are skipped. Operators, ``str()`` and property reads are not followed:
they run ``__mul__``, ``__str__`` and the like implicitly.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rootsums"

ROUTES = (
    "newton.power_sums_from_coeffs",
    "series.log_derivative_power_sums",
    "roots.power_sums_direct",
)
SHARED = {"polynomial.exact", "polynomial.InternalError"}
# Each public route function and the int kernel that holds its one loop.
# The CLI prints from the kernels; the public functions reduce what they return.
KERNELS = {
    "newton.power_sums_from_coeffs": "newton.scaled_power_sums",
    "newton.negative_power_sums": "newton.scaled_negative_power_sums",
    "series.divide_descending": "series.scaled_quotient",
    "series.log_derivative_power_sums": "series.scaled_log_derivative",
    "roots.power_sums_direct": "roots.scaled_direct_sums",
}
ROUTE_KERNELS = tuple(KERNELS[route] for route in ROUTES)


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _code(definition: ast.FunctionDef):
    """Every node of a def, leaving out its type annotations."""
    annotations = set()
    for node in ast.walk(definition):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.add(id(node.annotation))
        elif isinstance(node, ast.FunctionDef):
            annotations.add(id(node.returns))
    todo = [definition]
    while todo:
        node = todo.pop()
        yield node
        todo += [child for child in ast.iter_child_nodes(node) if id(child) not in annotations]


def _source(stmt: ast.ImportFrom) -> str | None:
    """The src module an import reads from, "" for the package itself, None outside it."""
    if stmt.level == 1:
        return stmt.module or ""
    if stmt.level == 0 and stmt.module and stmt.module.split(".")[0] == "rootsums":
        return stmt.module.removeprefix("rootsums").lstrip(".")
    return None


@cache
def call_graph() -> dict[str, set[str]]:
    modules = _modules()
    defs: dict[str, ast.AST] = {}  # node -> its def
    # module -> local name -> "module.name", or "module" for a module itself
    imports: dict[str, dict[str, str]] = {}
    methods: dict[str, set[str]] = {}  # bare method name -> its nodes
    for module, tree in modules.items():
        imports[module] = {}
        # Imports anywhere in the module, those inside a function included.
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and (source := _source(stmt)) is not None:
                for alias in stmt.names:
                    imports[module][alias.asname or alias.name] = f"{source}.{alias.name}".lstrip(".")
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{stmt.name}"] = stmt
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        node = f"{module}.{stmt.name}.{item.name}"
                        defs[node] = item
                        methods.setdefault(item.name, set()).add(node)

    def resolve(module: str, name: str) -> str | None:
        # Follow re-exports, such as newton's import of InternalError.
        while f"{module}.{name}" not in defs:
            target = imports.get(module, {}).get(name, "")
            if "." not in target:
                return None
            module, name = target.split(".")
        return f"{module}.{name}"

    graph: dict[str, set[str]] = {}
    for node, definition in defs.items():
        module = node.split(".")[0]
        edges = graph[node] = set()
        if isinstance(definition, ast.ClassDef):
            init = f"{node}.__init__"
            if init in defs:
                edges.add(init)
            continue
        for sub in _code(definition):
            target = None
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                target = resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                # module.name, for a module brought in by "from . import module"
                source = imports[module].get(sub.value.id)
                target = resolve(source, sub.attr) if source in modules else None
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                edges |= methods.get(sub.func.attr, set())
            if target is not None:
                edges.add(target)
    return graph


def reach(graph: dict[str, set[str]], start: str, without: tuple[str, str] | None = None) -> set[str]:
    """Every node reachable from ``start``, itself included, optionally without one edge."""
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        for target in graph[node]:
            if (node, target) != without and target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def test_each_route_reaches_its_own_kernel():
    # Guards the graph itself: one that found no edges would pass the rest.
    graph = call_graph()
    assert {"newton._scale", "newton._alternating_scaled", "newton._window"} <= reach(
        graph, "newton.power_sums_from_coeffs"
    )
    assert {"series._scale", "series.scaled_quotient", "polynomial.Polynomial.derivative"} <= reach(
        graph, "series.log_derivative_power_sums"
    )
    assert {"roots.scaled_direct_sums", "polynomial.clear_denominators"} <= reach(
        graph, "roots.power_sums_direct"
    )


def test_routes_share_only_exact_and_internal_error():
    graph = call_graph()
    reached = [reach(graph, route) for route in ROUTES]
    shared = set()
    for i, mine in enumerate(reached):
        for other in reached[i + 1 :]:
            shared |= mine & other
    assert shared == SHARED


def test_cross_check_reaches_the_division_only_through_its_default_series():
    graph = call_graph()
    check, default = "series.cross_multiplied_check", "series.scaled_log_derivative"
    assert "series.scaled_quotient" in reach(graph, check)
    assert "series.scaled_quotient" not in reach(graph, check, without=(check, default))


def test_the_integer_cross_check_reaches_no_route():
    # It reads the series it is handed and p's own coefficients: no
    # division, no recurrence, and nothing a route shares beyond SHARED.
    graph = call_graph()
    reached = reach(graph, "series.scaled_cross_check")
    assert "series._product" in reached
    assert not [node for node in reached if node.startswith("newton.")]
    assert "series.scaled_quotient" not in reached
    recurrence = reach(graph, "newton.power_sums_from_coeffs")
    assert reached & recurrence <= SHARED


def test_verify_reads_the_series_only_through_its_kernel():
    graph = call_graph()
    reached = reach(graph, "cli._cmd_verify")
    assert {"series.scaled_log_derivative", "series.scaled_cross_check"} <= reached
    assert not reached & {"series.log_derivative_power_sums", "series.cross_multiplied_check"}


def test_root_substitution_never_reaches_the_recurrence_window():
    graph = call_graph()
    assert "newton._window" not in reach(graph, "roots.verify_by_substitution")


def test_each_public_route_function_reaches_its_int_kernel():
    graph = call_graph()
    for public, kernel in KERNELS.items():
        assert kernel in reach(graph, public), public
    # The reciprocal flip and the log-derivative run the same loops.
    assert "newton.scaled_power_sums" in reach(graph, "newton.scaled_negative_power_sums")
    assert "series.scaled_quotient" in reach(graph, "series.scaled_log_derivative")
    # A route reaches everything its kernel reaches, so the three kernels
    # share no more than their routes do: SHARED, as asserted above.


@pytest.mark.parametrize(
    "command, kernels",
    [
        ("cli._cmd_powersums", {"newton.scaled_power_sums"}),
        ("cli._cmd_negpowers", {"newton.scaled_negative_power_sums"}),
        ("cli._cmd_series", {"series.scaled_log_derivative"}),
        ("cli._cmd_from_roots", set(ROUTE_KERNELS)),
        ("cli._cmd_bench", {"newton.scaled_power_sums", "series.scaled_log_derivative"}),
    ],
)
def test_printing_commands_reach_the_routes_only_through_their_kernels(command, kernels):
    # With every kernel's edges cut, the functions of a route module that a
    # command still reaches are its kernels and, for series, the text layout.
    # (Methods are left out: ParseError's super().__init__ reaches every
    # __init__ in src, as the graph cannot tell them apart.)
    graph = call_graph()
    cut = {node: set() if node in KERNELS.values() else edges for node, edges in graph.items()}
    route_functions = {
        f"{module}.{stmt.name}"
        for module, tree in _modules().items()
        if module in ("newton", "series", "roots")
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
    }
    layout = {"series.descending_text"} if command == "cli._cmd_series" else set()
    assert reach(cut, command) & route_functions == kernels | layout


def test_no_command_but_verify_reaches_the_reducing_route_functions():
    # Every command but verify reads the kernels, or no route at all.
    graph = call_graph()
    wrappers = {"newton.power_sums_from_coeffs", "series.log_derivative_power_sums"}
    others = [
        f"cli.{stmt.name}"
        for stmt in _modules()["cli"].body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_cmd_")
        and stmt.name != "_cmd_verify"
    ]
    assert others and [c for c in others if reach(graph, c) & wrappers] == []
