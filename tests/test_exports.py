"""Export lists: each submodule's __all__ is real and disjoint from the others,
and every public name is reached from src/.

The package namespace is the star import of every library submodule, so a
name exported twice would silently shadow one of its definitions.
"""

import ast
from pathlib import Path

import pytest

import pointnull
from pointnull import binomial, cli, normal, numerics, paradox, scores, severity

LIBRARY = (numerics, normal, binomial, paradox, severity, scores)


@pytest.mark.parametrize("module", LIBRARY + (cli,), ids=lambda m: m.__name__)
def test_every_exported_name_is_defined(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_no_name_is_exported_twice():
    names = [name for module in LIBRARY + (cli,) for name in module.__all__]
    assert sorted(names) == sorted(set(names))


def test_package_exports_are_the_submodule_exports():
    assert len(pointnull.__all__) == len(set(pointnull.__all__))
    assert set(pointnull.__all__) == set().union(*(m.__all__ for m in LIBRARY))
    for name in pointnull.__all__:
        assert getattr(pointnull, name) is getattr(
            next(m for m in LIBRARY if name in m.__all__), name
        )


# Public names with no caller in src/, each kept only because the benchmark's
# tracer wraps it on the modules named (bench/tracer.py WRAPPED). A name
# leaves this table, and src/, once the tracer no longer resolves it.
TRACER_ONLY = {
    "find_crossing": ("paradox", "severity"),
    "log_normal_pdf": ("normal", "scores"),
    "conjugate_posterior": ("scores",),
}


def loaded_names() -> set[str]:
    """Every name src/pointnull/ loads, bare or as cli.<name>, outside the
    package's __init__.py, which only lists them."""
    package = Path(pointnull.__file__).parent
    names = set()
    for path in package.rglob("*.py"):
        if path == package / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cli":
                names.add(node.attr)
    return names


def test_every_public_name_is_reached_from_src():
    loaded = loaded_names()
    unreached = sorted(name for name in pointnull.__all__ if name not in loaded)
    assert unreached == sorted(TRACER_ONLY), (
        "a public name with no caller in src/ is a dead export: call it from a "
        f"subcommand's path or delete it; unreached: {unreached}"
    )


def test_tracer_only_names_are_still_wrapped():
    from test_tracer_contract import wrapped_pairs

    pairs = set(wrapped_pairs())
    for name, modules in TRACER_ONLY.items():
        for module in modules:
            assert (module, name) in pairs, (module, name)
