"""The package holds no code that only the tests use, no import it never uses, and every name the benchmark imports."""

import ast
import importlib
import pathlib

import cue_moments
from cue_moments import coefficients, verification

SRC = pathlib.Path(cue_moments.__file__).parent


def test_every_public_function_is_used_in_the_package_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public, "no public functions found"
    unused = sorted((module, name) for module, name in public if name not in used and name not in cue_moments.__all__)
    assert not unused, f"public functions that only the tests call: {unused}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unused += [(path.name, name) for name in names if name not in used]
    assert not unused, f"imported but never used: {unused}"


# The names bench/ calls: bench/worker.py's traced chain (_coefficient_chain,
# _moment_chain, _traced, run_pass) through the modules of _library, and the
# imports of bench/make_golden.py.
BENCH_NAMES = {
    "cli": ("format_exact", "main"),
    "coefficients": ("series_coeff", "series_coeff_limit"),
    "moments": ("half_moment_k1_closed", "keating_snaith", "limit_moment_half_h", "moment_half_h", "moment_integer_h"),
    "oracles": ("closed_form_moment_integral", "mc_moment", "quad_moment_integral"),
    "partitions": ("hook_product", "partitions_of", "pochhammer"),
    "specfun": ("moment_gen_hankel", "moment_gen_series", "moment_gen_wronskian"),
    "verification": ("ALL_CHECKS", "run_all_checks"),
}


def test_every_name_the_benchmark_imports_is_there():
    missing = [(module, name) for module, names in BENCH_NAMES.items()
               for name in names if not hasattr(importlib.import_module(f"cue_moments.{module}"), name)]
    assert not missing, f"names the benchmark calls that the package lacks: {missing}"
    # The worker reports series_coeff's cache hits and misses, and names each suite's span after its function.
    assert callable(coefficients.series_coeff.cache_info)
    assert [check.__name__ for check in verification.ALL_CHECKS] == [
        "check_transpose_identities",
        "check_hook_content_sums",
        "check_binomial_residuals",
        "check_coeff_bounds",
        "check_closed_forms",
        "check_three_route_identity",
        "check_coefficient_engine",
        "check_half_moment_closed_form",
        "check_half_limit_tail_bound",
    ]
