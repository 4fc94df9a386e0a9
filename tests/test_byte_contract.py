"""The sweep byte contract: what "the same flags give the same bytes" rests on
outside this repository, pinned so that a break names its cause.

simulate's bytes depend on numpy's Philox bit generator and
Generator.standard_normal, and on the sweeps using only numpy operations that
are correctly rounded (a SIMD build of a transcendental may round by CPU).
The golden corpus would catch either change, but only as a diff of bytes.
The sweeps also rest on the exact-scaling layer giving each element of an
array the double it gives that element as one float.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointnull
from pointnull._hyvarinen import _product
from pointnull.normal import NormalProblem, _difference, _frexp, _ldexp, _over_sem
from pointnull.numerics import RngStream
from pointnull.scores import _square_over_sem2

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
# frexp or ldexp, so that every number reaches (m, e) and comes back through one
# dispatch between math's functions on a float and numpy's on an array.
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
        "carry exponents through _frexp and _ldexp, which take a float or an array alike"
    )
    assert layer == SCALING_LAYER, "the layer's functions moved: update SCALING_LAYER"


# Doubles from the least subnormal to the largest, and sizes past 2^1000,
# where a difference of opposite signs overflows and takes the halved path.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
HUGE = st.floats(min_value=2.0**1000, max_value=sys.float_info.max)
OPERANDS = st.one_of(FINITE, HUGE, HUGE.map(lambda x: -x))
PAIRS = st.one_of(st.tuples(OPERANDS, OPERANDS), st.tuples(HUGE, HUGE.map(lambda x: -x)))
SCALE = st.builds(
    NormalProblem,
    theta0=st.just(0.0),
    sigma=st.floats(min_value=5e-324, max_value=sys.float_info.max),
    n=st.integers(1, 2**1023),
    xbar=st.just(0.0),
)
EXAMPLES = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def one_element(x):
    return np.array([x])


def assert_same_doubles(on_float, on_array):
    """Each part of a layer result on floats is, as a double, the one element
    of that part on one-element arrays."""
    parts = on_float if isinstance(on_float, tuple) else (on_float,)
    array_parts = on_array if isinstance(on_array, tuple) else (on_array,)
    got = [float(np.asarray(part).reshape(-1)[0]).hex() for part in array_parts]
    assert got == [float(part).hex() for part in parts]


def layer_on_both(layer, *args, arrays=(0,)):
    """layer on args, then on args with those at the positions in arrays made
    one-element arrays, as the Hyvarinen sweep calls it."""
    with np.errstate(all="ignore"):
        wrapped = [one_element(a) if i in arrays else a for i, a in enumerate(args)]
        assert_same_doubles(layer(*args), layer(*wrapped))


@EXAMPLES
@given(FINITE)
def test_frexp_agrees_on_a_float_and_an_array(x):
    layer_on_both(_frexp, x)


# which of two arguments the Hyvarinen sweep passes as arrays
EITHER_OR_BOTH = st.sampled_from([(0,), (1,), (0, 1)])


@EXAMPLES
@given(FINITE, st.integers(-2200, 2200), EITHER_OR_BOTH)
def test_ldexp_agrees_on_a_float_and_an_array(m, e, arrays):
    # past the largest double, math's OverflowError becomes numpy's inf
    layer_on_both(_ldexp, m, e, arrays=arrays)


@EXAMPLES
@given(PAIRS)
def test_difference_agrees_on_a_float_and_an_array(pair):
    layer_on_both(_difference, *pair)


@EXAMPLES
@given(FINITE, FINITE, EITHER_OR_BOTH)
def test_product_agrees_on_a_float_and_an_array(a, b, arrays):
    layer_on_both(_product, a, b, arrays=arrays)


@EXAMPLES
@given(PAIRS, SCALE)
def test_over_sem_agrees_on_a_float_and_an_array(pair, problem):
    layer_on_both(_over_sem, *pair, problem)


@EXAMPLES
@given(FINITE, SCALE)
def test_square_over_sem2_agrees_on_a_float_and_an_array(x, problem):
    with np.errstate(all="ignore"):
        on_array = _square_over_sem2(_frexp(one_element(x)), problem)
    assert_same_doubles(_square_over_sem2(_frexp(x), problem), on_array)
