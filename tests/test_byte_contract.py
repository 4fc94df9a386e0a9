"""The sweep byte contract: what "the same flags give the same bytes" rests on
outside this repository, pinned so that a break names its cause.

simulate's bytes depend on numpy's Philox bit generator and
Generator.standard_normal, and on the sweeps using only numpy operations that
are correctly rounded (a SIMD build of a transcendental may round by CPU).
The golden corpus would catch either change, but only as a diff of bytes.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import pointnull
from pointnull.numerics import RngStream

# The first draws of three (seed, stream_id) keys: the uniformity check's
# default stream, a consistency sweep's second grid point, and the largest seed.
FIRST_DRAWS = {
    (42, 0): ("-0x1.55c7aa328268ap+0", "0x1.1d896b5e66b21p+0", "-0x1.51248fc089205p+0"),
    (42, 1): ("0x1.bb7a3a2c3de51p-2", "0x1.041017ebbbb90p+0", "-0x1.82755014c24dcp-4"),
    (2**64 - 1, 3): ("0x1.27a94c132dfa7p-1", "0x1.50e6dcb247c1fp-4", "-0x1.65ff7e43875afp-1"),
}

# numpy attributes the library may use: array construction, indexing and
# counting, elementwise + - * / comparisons, sorting, and frexp/ldexp, all
# exact or correctly rounded; the random ones are the stream pinned above.
CORRECTLY_ROUNDED = {
    "abs", "append", "arange", "broadcast_arrays", "count_nonzero", "diff", "empty",
    "errstate", "flatnonzero", "frexp", "fromiter", "isinf", "isnan", "ldexp", "maximum",
    "ndarray", "r_", "sort", "subtract",
    "random.SeedSequence", "random.Philox", "random.Generator",
}


@pytest.mark.parametrize("key", FIRST_DRAWS, ids=repr)
def test_rng_stream_first_draws(key):
    got = tuple(float(x).hex() for x in RngStream(*key).normals(3))
    assert got == FIRST_DRAWS[key], (
        f"numpy {np.__version__} changed its Philox/standard_normal stream for "
        f"SeedSequence{key}: every simulate output moves with it, however correct the sweeps"
    )


def numpy_attributes(tree: ast.AST) -> set[str]:
    """Dotted attribute paths read off the name np, as in np.random.Philox."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "np":
                found.add(".".join(reversed(parts)))
    return found


def test_library_uses_only_correctly_rounded_numpy():
    used = set()
    for path in Path(pointnull.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text("utf-8"))
        # numpy reaches the library only as "import numpy as np"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy", path
            elif isinstance(node, ast.Import):
                assert all(a.asname == "np" for a in node.names if a.name.split(".")[0] == "numpy"), path
        used |= numpy_attributes(tree)
    assert used <= CORRECTLY_ROUNDED, (
        f"{sorted(used - CORRECTLY_ROUNDED)} may round differently by numpy build or CPU; "
        "keep the sweeps to correctly rounded operations, or widen the allowlist with a reason"
    )
