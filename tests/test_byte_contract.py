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
# counting, elementwise + - * / comparisons and sorting, all exact or
# correctly rounded; the random ones are the stream pinned above.
CORRECTLY_ROUNDED = {
    "abs", "append", "arange", "broadcast_arrays", "count_nonzero", "diff", "empty",
    "errstate", "flatnonzero", "fromiter", "isinf", "maximum",
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


def stream_sites() -> list[str]:
    """Where src/pointnull constructs an RngStream, as file:qualname:line."""
    sites = []

    def scan(path: Path, node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = [*scope, child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Call) and ast.unparse(child.func).rpartition(".")[2] == "RngStream":
                sites.append(f"{path.name}:{'.'.join(scope)}:{child.lineno}")
            scan(path, child, inner)

    for path in sorted(Path(pointnull.__file__).parent.rglob("*.py")):
        scan(path, ast.parse(path.read_text("utf-8")), [])
    return sites


def test_streams_are_constructed_only_in_the_sweep_driver():
    # every simulate draw, of every kind, comes from the one driver's streams,
    # so that the first draws pinned above are the draws of every sweep
    sites = stream_sites()
    assert len(sites) == 1 and sites[0].startswith("paradox.py:ConsistencyRun.sweep:"), sites


def numpy_attributes(tree: ast.AST) -> set[str]:
    """Dotted attribute paths read off numpy: off the name np, as in
    np.random.Philox, or off sys.modules["numpy"], which code handed an array
    reads without an import statement."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "np" or ast.unparse(node) == "sys.modules['numpy']":
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


# The exact-scaling layer of pointnull.normal: the only functions that may name
# frexp or ldexp, so that every number reaches (m, e) and comes back through
# them, one float at a time.
SCALING_LAYER = {"_frexp", "_ldexp"}
SCALING_NAMES = {"frexp", "ldexp"}


def scaling_lines(tree: ast.AST) -> list[int]:
    """Lines that name frexp or ldexp: as an attribute (math.frexp, np.ldexp),
    a bare or imported name, or a parameter."""
    fields = ("attr", "id", "arg", "name", "asname")
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if SCALING_NAMES & {getattr(node, field, None) for field in fields}
    })


def test_only_the_scaling_layer_names_frexp_or_ldexp():
    found, layer = [], set()
    for path in sorted(Path(pointnull.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if path.name == "normal.py" and getattr(node, "name", None) in SCALING_LAYER:
                layer.add(node.name)
                continue
            found += [f"{path.name}:{line}" for line in scaling_lines(node)]
    assert not found, (
        f"frexp or ldexp named outside pointnull.normal's scaling layer at {found}; "
        "carry exponents through _frexp and _ldexp"
    )
    assert layer == SCALING_LAYER, "the layer's functions moved: update SCALING_LAYER"

