"""Export lists: each submodule's __all__ is real and disjoint from the others.

The package namespace is the star import of every library submodule, so a
name exported twice would silently shadow one of its definitions.
"""

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
