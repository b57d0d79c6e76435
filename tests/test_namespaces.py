"""The public surface of every ``repro`` package namespace.

Most package ``__init__``s resolve their names on first use
(:func:`repro.registry.lazy_exports`); the rest import eagerly.  Either
way a package must expose the same surface: every name in ``__all__``
reads as the object its module defines, ``from pkg import *`` binds all
of them, ``dir()`` lists them, and an unknown name is an
``AttributeError``.
"""

import importlib
import pkgutil
import sys
from types import FunctionType

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)

#: Public names a package ``__init__`` defines itself, not a submodule.
OWN_VALUES = {("repro", "__version__"), ("repro.baselines", "ALL_BASELINES")}


def _binders(value, name, package):
    """The ``repro`` modules other than ``package`` binding ``name`` to ``value``."""
    return [module.__name__ for module in list(sys.modules.values())
            if module is not package and module is not None
            and module.__name__.startswith("repro")
            and vars(module).get(name, object()) is value]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_resolves_to_the_defining_modules_objects(name):
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == len(package.__all__)
    for attribute in package.__all__:
        value = getattr(package, attribute)
        if isinstance(value, (type, FunctionType)):
            owner = sys.modules[value.__module__]
            assert owner.__name__.startswith("repro"), (name, attribute)
            assert getattr(owner, attribute) is value, (name, attribute)
        elif (name, attribute) not in OWN_VALUES:
            assert _binders(value, attribute, package), (name, attribute)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_and_dir_cover_all(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attribute in package.__all__:
        assert namespace[attribute] is getattr(package, attribute), attribute
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_repro_ntt_is_the_transform():
    """``repro.ntt`` is both a subpackage and a re-exported function; the
    package attribute stays the function however the subpackage loads."""
    import repro.ntt.polynomial  # noqa: F401
    from repro.ntt.transform import ntt

    assert repro.ntt is ntt
    assert importlib.import_module("repro.ntt").__name__ == "repro.ntt"
