"""Every exported name resolves: a name left in an `__all__` after its
definition was deleted breaks `from gridquake import *` and misleads
readers of the public API."""

import importlib
import pkgutil

import pytest

import gridquake


def _modules():
    names = [gridquake.__name__] + [
        info.name for info in pkgutil.walk_packages(gridquake.__path__,
                                                    gridquake.__name__ + ".")]
    return [importlib.import_module(name) for name in names]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
