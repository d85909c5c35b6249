"""The package's public names: each module's __all__ is the one list of them."""

import pytest

import bstick
from bstick import cli, exact, kernel, montecarlo, sticks, verify

# The modules the package re-exports, in its order.
MODULES = (exact, kernel, montecarlo, sticks, verify)


def test_package_exports_each_module_all_in_order():
    assert bstick.__all__ == [name for module in MODULES for name in module.__all__] + [
        "__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bstick, name) is getattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", [*MODULES, cli], ids=lambda m: m.__name__)
def test_module_all_is_unique_and_names_its_attributes(module):
    assert len(set(module.__all__)) == len(module.__all__), module.__name__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], module.__name__


def test_no_two_modules_export_the_same_name():
    """The package star-imports every module, so a name exported twice would
    silently take the later module's object."""
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, f"{name} exported by {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
