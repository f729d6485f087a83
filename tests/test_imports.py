"""Package structure: module-level imports only, no import cycles, and a
pinned public surface."""

import ast
from pathlib import Path

import voimc

PACKAGE = Path(voimc.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def package_imports(tree):
    """Names of the sibling modules a module imports (``from .x import ...``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update(alias.name for alias in node.names)
    return found & set(MODULES)


def test_no_import_inside_a_function():
    for name in MODULES:
        for func in ast.walk(parse(name)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{name}.py line {node.lineno} imports inside {func.name}()"
                )


def test_package_import_graph_is_acyclic():
    graph = {name: package_imports(parse(name)) for name in MODULES}
    done, active = set(), []

    def visit(name):
        assert name not in active, "import cycle: " + " -> ".join([*active, name])
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        active.pop()
        done.add(name)

    for name in MODULES:
        visit(name)
    assert "diagnostics" in graph["mlmc"]
    assert "mlmc" not in graph["diagnostics"]


# Each module's public functions and classes. A change that widens or
# narrows the library has to change this set too.
PUBLIC = {
    "__init__": set(),
    "cli": {"build_parser", "main", "write_csv", "write_json"},
    "diagnostics": {
        "LevelStats",
        "RateEstimates",
        "bias_remainder",
        "fit_rates",
        "level_sweep",
        "standard_cost",
        "stats_from_accumulators",
    },
    "errors": {"CapabilityError", "ConfigError", "InsufficientDataError", "VoimcError"},
    "estimators": {
        "Estimate",
        "accumulate_level",
        "accumulate_p_level",
        "evpi_mc",
        "nested_mc",
        "sample_level_batch",
        "worker_pool",
    },
    "mlmc": {
        "ComparisonRow",
        "EvppiReport",
        "MlmcConfig",
        "MlmcResult",
        "cost_comparison",
        "evppi_report",
        "mlmc_run",
        "optimal_allocation",
        "projected_costs",
    },
    "models": {
        "BkocModel",
        "DecisionModel",
        "GaussianModelSpec",
        "SyntheticModel",
        "load_model_config",
        "make_model",
        "synthetic1",
        "synthetic2",
        "synthetic3",
    },
    "moments": {"MomentAccumulator"},
    "streams": {"RandomStream"},
}


def test_public_functions_and_classes_are_pinned():
    found = {
        name: {
            node.name
            for node in parse(name).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
        for name in MODULES
    }
    assert found == PUBLIC


def test_pool_is_the_only_concurrency_parameter():
    # Batch routines take their caller's pool as ``pool=``; only
    # ``worker_pool(threads)`` turns a thread count into one.
    found = {
        f"{name}.{node.name}"
        for name in MODULES
        for node in parse(name).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and "threads" in {a.arg for a in [*node.args.args, *node.args.kwonlyargs]}
    }
    assert found == {"estimators.worker_pool"}
