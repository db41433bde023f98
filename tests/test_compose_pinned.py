"""Pinned composer outputs: SHA-256 digests of `fractalcut compose` and of
each artifact's index maps, recorded before the composers shared one
pipeline.  A change here means the composed instances changed, which a
refactor must not do; criterion 8 only compares two runs of the same code.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fractalcut.cli import main
from fractalcut.composer import (compose_dsct, compose_lbec, compose_mded,
                                 pad_to_power_of_two)
from fractalcut.serialize import parse

FIXTURES = Path(__file__).parent / "fixtures"

CASES = {
    "lbec-und": ("lbec", ("lbec_a", "lbec_b", "lbec_c")),
    "lbec-dag": ("lbec", ("dag_a", "dag_b")),
    "dsct": ("dsct", ("dag_a", "dag_b", "dag_a")),
    "mded-und": ("mded", ("lbec_d", "lbec_d")),
    "mded-dir": ("mded", ("dag_a", "dag_b")),
}

# (case, mode) -> (digest of exit code, stdout and sidecar;
#                  digest of edge_ranges, vertex_maps and expanded_edges)
PINNED = {
    ("lbec-und", "weighted"): (
        "5f7979204d3c779f8d926b15c36c79a38273eb3d2876832254a0606882124def",
        "a088cf22523dcff5a1bf6595ac75f0d3595f4a7bf88ff955182acd191af7100c"),
    ("lbec-und", "simple"): (
        "e43e201dee6f3f2004d335cd6a5852f94a537ae1479c719ca7911c85db291d67",
        "4d7e6b8d43fcf6d4017c1778c906db6d610a679ae7b5280690bc2dd3a99a8c6b"),
    ("lbec-dag", "weighted"): (
        "d20d7dc9631a811f4ce1cdf490165a63fe627b437b0dc28886e26e32695b5926",
        "0a6bdbbf4f8df9a10d5a36ee73308cb3b64779f8a5bcfffc82f795710b0c3125"),
    ("lbec-dag", "simple"): (
        "33cfc326042bbd02c9699e69a1ca6e5ea00350f8f8d42bff9c947be2598ce4ad",
        "0d1ebe55f5c12c301a4bf3009f1e2190d46f30fee05169e89530ff52d9fbe3c8"),
    ("dsct", "weighted"): (
        "bc8f13126f56f9670f2e1fbd69351c3a9332535daac5552941bd955c3228319c",
        "724b5fc4431cd58ab7cd4856191cd7adfe79a18527c7484a0f3b0e9bb58257c3"),
    ("dsct", "simple"): (
        "ebc89ff850e11b23f3e06d5080f2b9af761adb0c237cba4d86e363d11084e7da",
        "9304b8ef260bf5b26895c644ef47fb01adb3dd17970f29461da8d4ba0ce04758"),
    ("mded-und", "weighted"): (
        "38f0a891c0c1d5b63a2fa8dba6d985656cbd9a956b0b840896786384f2d1798a",
        "234388c0fc28f95248951243fd1590fc95350427dcac296f8d3ae5b2e718d9d6"),
    ("mded-und", "simple"): (
        "1259661edff7e9fa2b0d66ee85bc555cad20ace1b3452926f60e1f0916fe29d2",
        "13a970a42fa072215f2d6567c0ec4ecfb155944026503f1d8136952e31973dd5"),
    ("mded-dir", "weighted"): (
        "f258776376ce295b1c0d2b29671702e375e11b8be11531b3708b305da98e5afe",
        "ea1aada925e8e2daca58634cbc1ac84df85c468ef5554ca65164ac27fb87709f"),
    ("mded-dir", "simple"): (
        "faf0946eb7be401c22a5390eb139e3544a40670a83ae8cf1ed6e1e3baa310798",
        "97515fbdc292b6c1f872354f5e9c5d2675a8f78fd67c41072fc2b38164ebc239"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_digest(capsys, tmp_path, problem, names, mode) -> str:
    prefix = tmp_path / "composed"
    code = main(["compose", "--problem", problem, "--mode", mode, "--inputs",
                 *(str(FIXTURES / f"{name}.json") for name in names),
                 "--out", str(prefix)])
    out = capsys.readouterr().out
    sidecar = Path(f"{prefix}.sidecar.json").read_text()
    return _sha(f"{code}\n{out}\n{sidecar}")


def _artifact_digest(problem, names, mode) -> str:
    inputs = pad_to_power_of_two(
        [parse((FIXTURES / f"{name}.json").read_text()) for name in names])
    if problem == "lbec":
        art = compose_lbec(inputs, mode=mode)
    elif problem == "dsct":
        art = compose_dsct(inputs, mode=mode)
    else:
        art = compose_mded(inputs, directed=inputs[0].graph.directed, mode=mode)
    expanded = (None if art.expanded_edges is None
                else sorted(art.expanded_edges.items()))
    return _sha(json.dumps([art.edge_ranges,
                            [sorted(vmap.items()) for vmap in art.vertex_maps],
                            expanded]))


@pytest.mark.parametrize("case,mode", sorted(PINNED))
def test_compose_outputs_pinned(capsys, tmp_path, case, mode):
    problem, names = CASES[case]
    got = (_cli_digest(capsys, tmp_path, problem, names, mode),
           _artifact_digest(problem, names, mode))
    assert got == PINNED[case, mode]
