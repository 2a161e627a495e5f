"""The package namespace: each module's public names, declared once in its own __all__."""

import importlib

import jade

MODULES = ["exceptions", "pulse", "channel", "correlation", "prony", "delay", "pipeline"]


def test_the_package_exports_each_module_all_in_import_order():
    modules = [importlib.import_module(f"jade.{name}") for name in MODULES]
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert jade.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(jade, name) is getattr(module, name), name
    assert not hasattr(jade, "open_text") and "open_text" not in jade.__all__
