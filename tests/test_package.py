import convlab
from convlab import arith, asymptotics, convolution, errors, ramanujan, special

_MODULES = (arith, asymptotics, convolution, errors, ramanujan, special)


def test_package_exports_are_module_all():
    # the package lists no name itself: its __all__ is the modules' lists
    expected = ["__version__"] + [name for module in _MODULES for name in module.__all__]
    assert convlab.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(convlab, name) is getattr(module, name), name
