"""The package's public names: each module's ``__all__`` is the one list."""

import importlib

import bqfield

MODULES = ("biquaternion", "fields", "operators", "evolution", "diagnostics", "shock",
           "scenario", "runner", "selftest")


def test_bqfield_exports_each_modules_names_once():
    """Every name in a module's ``__all__`` is that same object as
    ``bqfield.<name>``; the package exports them, each once, and
    ``__version__``, and nothing else."""
    names = []
    for mod in MODULES:
        module = importlib.import_module(f"bqfield.{mod}")
        for name in module.__all__:
            assert getattr(bqfield, name) is getattr(module, name), f"{mod}.{name}"
        names += module.__all__
    assert len(set(bqfield.__all__)) == len(bqfield.__all__)
    assert sorted(bqfield.__all__) == sorted(names + ["__version__"])
