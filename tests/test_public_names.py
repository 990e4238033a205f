"""The package's public names: each module's ``__all__`` is the one list,
the README names no class the package does not have, and every binding the
benchmark wraps by name exists."""

import builtins
import importlib
import importlib.util
import pkgutil
import pathlib
import re

import pytest

import bqfield

ROOT = pathlib.Path(__file__).parents[1]
README = ROOT / "README.md"
# an inline code span that opens with a capitalised name with a lowercase
# letter in it (`Nabla`, `SimState.U`, `bqfield.Grid`, `Medium(epsilon, mu,
# kappa)`); spans that open with anything else (`-Theta o A'`, `A'`) are formulas
_CLASS = re.compile(r"(?:bqfield\.(?:[a-z_]+\.)?)?([A-Z]\w*[a-z]\w*)\b")

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


def readme_class_names(text: str) -> set[str]:
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)  # fenced blocks hold JSON and shell
    spans = re.findall(r"`([^`\n]+)`", prose)
    return {m[1] for m in map(_CLASS.match, spans) if m}


def test_readme_class_names_resolve():
    """Every class-like name the README puts in backticks is ``bqfield.<Name>``
    or a builtin, so a renamed or removed class cannot stay in the docs."""
    stale = {name for name in readme_class_names(README.read_text(encoding="utf-8"))
             if not hasattr(bqfield, name) and not hasattr(builtins, name)}
    assert not stale, f"README.md names classes bqfield does not have: {sorted(stale)}"


@pytest.mark.parametrize("text, names", [
    ("`Nabla.dealias` and `SimState` on `bqfield.Grid`", {"Nabla", "SimState", "Grid"}),
    ("`DerivativeSpace` (`bqfield.operators.DerivativeSpace`)", {"DerivativeSpace"}),
    ("`-Theta o A'`, `A'`, `U`, `None`", {"None"}),
    ("```\nbqfield run Scenario.json\n```\n`x` Foo `y`", set()),
])
def test_readme_class_names_are_found(text, names):
    """The scan finds a stale name such as ``DerivativeSpace``, and not the
    capitalised symbols of a formula."""
    assert readme_class_names(text) == names


def stale_private_names(module, text: str) -> set[str]:
    """The private names (``_name``, ``Class._name``) that ``text`` puts in
    double backticks and that are neither an attribute of ``module`` nor of
    one of its classes."""
    owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
    return {name for span in re.findall(r"``([^`]+)``", text)
            for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)
            if not any(hasattr(owner, name) for owner in owners)}


@pytest.mark.parametrize("name", ["__init__", *(m.name for m in pkgutil.iter_modules(bqfield.__path__))])
def test_private_names_in_docs_resolve(name):
    """Every private name a module's docstrings and comments put in double
    backticks is a name the module or one of its classes has, so a helper
    that is renamed or removed cannot stay in the text that explains it."""
    module = bqfield if name == "__init__" else importlib.import_module(f"bqfield.{name}")
    stale = stale_private_names(module, pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    assert not stale, f"bqfield.{name} names private names it does not have: {sorted(stale)}"


def test_stale_private_names_are_found():
    """The scan finds a removed helper, plain or after a class, and passes a
    private method of an imported class and a dunder."""
    from bqfield import evolution

    text = "``_resident`` and ``Nabla._gone(x)``, not ``Nabla._curl``, ``_closed_form`` or ``__all__``"
    assert stale_private_names(evolution, text) == {"_resident", "_gone"}


def unresolved_bindings(wrapped: dict) -> list[str]:
    """The bindings of a ``{span: ["module.attr" or "module.Class.attr"]}``
    map that the package does not define, read as the benchmark's tracer
    reads them: ``vars(owner)[attr]``, so an inherited or missing name is
    unresolved."""
    missing = []
    for binding in (b for bindings in wrapped.values() for b in bindings):
        mod, *path, attr = binding.split(".")
        owner = importlib.import_module(f"bqfield.{mod}")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(binding)
    return missing


def test_benchmark_bindings_resolve():
    """Every binding ``perfbench/spans.py`` wraps (``WRAPPED``) is defined
    where it names it, so a refactor that renames or moves one fails here
    and not only in the benchmark's smoke test."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED and not unresolved_bindings(spans.WRAPPED)


def test_unresolved_bindings_are_found():
    """A missing function, a missing class and an inherited method are each
    unresolved; a module function and a class's own method are not."""
    wrapped = {"a": ["operators.Nabla.fftn", "operators.apply_box", "operators.Nabla.to_band"],
               "b": ["runner.Gone.run", "evolution.SimState.__hash__"]}
    assert unresolved_bindings(wrapped) == ["operators.Nabla.to_band", "runner.Gone.run",
                                            "evolution.SimState.__hash__"]
