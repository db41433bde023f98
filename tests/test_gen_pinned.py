"""Pinned fractal outputs: SHA-256 digests of `fractalcut gen` stdout,
recorded before the fractal builder and the JSON and DOT writers stopped
making per-edge containers.  A change here means the generated bytes
changed, which a speed-up must not do; criterion 8 only compares two runs
of the same code.
"""

import hashlib

import pytest

from fractalcut.cli import main
from fractalcut.graph import Graph

# (q, format, directed, cost) -> digest of stdout; the exit code is 0.
PINNED = {
    (0, "json", False, 1):
        "5c2e08ccf313c1df014d8a3dbf2d99f6c15e750b202e4c9edd85344b7f8b13fb",
    (0, "json", True, 3):
        "e774461c0095ff771a6bb6e91291edcbcbe24cff248c918f9edad91d6deb2b70",
    (0, "dot", False, 1):
        "cda3cdbb60b98673be138d94c577e0aa6facfc5956c87792f1b593c456a87232",
    (0, "dot", True, 3):
        "6bd55cc07ccc5e6519ba4f4f776e6ac97c42b76eecfe1d36e157876c6c8e00ce",
    (0, "dimacs", False, 1):
        "cc285fb6c093465e44eea624d59b8c14809e353c4f67d98f96c5f8361d82d41d",
    (0, "dimacs", True, 3):
        "cc285fb6c093465e44eea624d59b8c14809e353c4f67d98f96c5f8361d82d41d",
    (3, "json", False, 1):
        "4ee2f32df90ca7d758652125122992c6dfe288643aed99a2bd6916f3d9d61084",
    (3, "json", True, 3):
        "ce96b7f40c0328d8ed2d8cd2097ff8452a6faf4311c3a1cbd6aeb38287a9ed3c",
    (3, "dot", False, 1):
        "e68f8275e66c0d838a1bb8ebe100c182f3ffca4e25be78259fdc1f55ee25f32b",
    (3, "dot", True, 3):
        "6b88bc28cc09a08665d4591af280ed71cdecd0236c03fbabcfa5c602dc7af726",
    (3, "dimacs", False, 1):
        "46ce4fdd725638e4da7a837fb8a1a9a3c86e1d8a3d446a551a88433ec163c24e",
    (3, "dimacs", True, 3):
        "46ce4fdd725638e4da7a837fb8a1a9a3c86e1d8a3d446a551a88433ec163c24e",
    # recorded at the commit before gen wrote its JSON from the closed form
    (5, "json", False, 1):
        "bd275eddcc69c79ee64c8465a3515a4e1dbb50915e6fdcdedd27da43070bec7e",
    (5, "json", True, 3):
        "803f90d7cbae7694582fa9d8c2b6f4fc2986877a521426b357be4a15bdda8664",
    (12, "json", False, 1):
        "d4ddfdc759db874b759298c0453d68e82682688c5b872247abe8e23fb04477f8",
    (12, "json", True, 3):
        "d9d1ed1df18894b0e4e33362fdd184b2809619c1eb01ca5aca84e13701805e20",
    (12, "dot", False, 1):
        "8ed35a5a0526a03a04be5260a56b00897d3dcf1746fdf045220dd39e65028b59",
    (12, "dot", True, 3):
        "65a39a39f05bac20e421387cc08fd33eedbcf4e084481cf3b4fa1a38d51cdaed",
    (12, "dimacs", False, 1):
        "64b9409a914bbf9f4a358d1f1f9b187f241e6e4daab008f97fba75715a24f05d",
    (12, "dimacs", True, 3):
        "64b9409a914bbf9f4a358d1f1f9b187f241e6e4daab008f97fba75715a24f05d",
}


@pytest.mark.parametrize("q,fmt,directed,cost", sorted(PINNED))
def test_gen_outputs_pinned(capsys, q, fmt, directed, cost):
    argv = ["gen", "--q", str(q), "--format", fmt, "--cost", str(cost)]
    code = main(argv + (["--directed"] if directed else []))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[q, fmt, directed, cost]


@pytest.mark.parametrize("q,directed,cost",
                         sorted((q, d, c) for q, fmt, d, c in PINNED if fmt == "json"))
def test_gen_json_builds_no_graph(capsys, monkeypatch, q, directed, cost):
    def refuse(*args, **kwargs):
        raise AssertionError("gen --format json built a Graph")

    monkeypatch.setattr(Graph, "__init__", refuse)
    argv = ["gen", "--q", str(q), "--cost", str(cost)]
    assert main(argv + (["--directed"] if directed else [])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[q, "json", directed, cost]
