"""The package's public names, pinned: a new export, or a removed one
coming back, has to change this list and so shows up in review."""

import importlib

import fractalcut

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
