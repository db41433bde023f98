"""The package's public names, pinned: a new export, or a removed one
coming back, has to change this list and so shows up in review.  Also
the module boundary around the ground truth, and the names the benchmark
reads from ``fractalcut.solvers``."""

import ast
import importlib
import inspect
from pathlib import Path

import fractalcut
from fractalcut import reference, solvers

PUBLIC_NAMES = [
    "CompositionArtifact", "CutCertificate", "Edge",
    "EquivalenceClass", "EquivalenceError", "FractalcutError", "Graph",
    "InputError", "ParseError", "ProblemInstance", "ResourceBudgetError",
    "TFractal", "TwoPageEmbedding", "UNREACHABLE",
    "UnsupportedParameterError", "VcInstance", "Verdict", "bfs_distance",
    "build_fractal", "check_equivalent", "check_witness", "compose_dsct",
    "compose_lbec", "compose_mded", "cut_for_instance", "enumerate_min_cuts",
    "fractal_to_dot", "instance_predicate", "is_connected", "is_edge_cut",
    "is_minimal_edge_cut", "is_strongly_connected", "min_cut",
    "pad_to_power_of_two", "parse", "reduce_vc_to_planar_lbec",
    "selected_instance", "solve_bruteforce", "solve_bruteforce_costaware",
    "solve_dsct_fpt", "solve_fpt", "solve_lbec_fpt", "solve_mded_fpt",
    "solve_vc_bruteforce", "to_dimacs", "to_dot", "to_json",
    "trivial_no_instance", "validate_embedding",
]

def test_all_lists_exactly_the_public_names():
    assert sorted(fractalcut.__all__) == sorted(PUBLIC_NAMES)


def test_removed_wrappers_stay_removed():
    # Thin wrappers that no library path called; their behaviour is tested
    # through the code that serves it.  The dual tree is a test-local
    # reference in tests/test_fractal.py.
    for module, name in (("composer", "construct1"), ("composer", "construct2"),
                         ("graph", "subdivide_and_multiply"),
                         ("solvers", "split_vertex"), ("fractal", "dual_tree"),
                         ("fractal", "DualTree"),
                         ("generators", "random_connected_lbec_input")):
        assert not hasattr(importlib.import_module(f"fractalcut.{module}"),
                           name), name


def _package_imports(path):
    """The fractalcut modules that the source file at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: "from .graph" or "from . import cli"
                module = f"fractalcut.{module}".rstrip(".")
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in dotted
                  if name.startswith("fractalcut.")}
    return found


def test_the_ground_truth_imports_no_search():
    # reference decides what every search is checked against, so it may
    # share no code with them: it imports graph and errors only.
    assert _package_imports(Path(reference.__file__)) == {"graph", "errors"}
    src = Path(fractalcut.__file__).parent
    reaching = {path.stem for path in src.glob("*.py")
                if "solvers" in _package_imports(path)}
    assert reaching == {"__init__", "cli", "verify"}


def test_solvers_still_serves_what_the_benchmark_reads():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    names = {alias.name
             for node in ast.walk(ast.parse((bench / "workloads.py").read_text()))
             if isinstance(node, ast.ImportFrom)
             and node.module == "fractalcut.solvers"
             for alias in node.names}
    names |= {node.attr
              for node in ast.walk(ast.parse((bench / "run.py").read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "solvers"}
    moved = {"ProblemInstance", "check_witness", "solve_bruteforce"}
    assert moved <= names
    for name in names:
        assert hasattr(solvers, name), name
    for name in moved:
        assert getattr(solvers, name) is getattr(reference, name), name
    # perfbench/run.py reports these two defaults as the run's budgets.
    for func, name, default in (
            (solvers.solve_bruteforce, "max_subsets", 10_000_000),
            (solvers.solve_bruteforce_costaware, "max_states", 50_000_000)):
        assert inspect.signature(func).parameters[name].default == default
