"""No test-only code in the package: every top-level function and class of
src/kolmosim, and every method other than a dunder, is referenced by code
in src/kolmosim or bench/.  A helper only tests call belongs in tests/ (as
an oracle, see oracles.py) or nowhere.  References are names, attribute
names and identifier strings (a tracer wraps functions by name); a
docstring that mentions a name does not reference it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kolmosim"

# user-facing algebra kept on purpose, though no package code calls it
KEPT = {
    "SpectralField.symmetrized": "the real part of a field, as a field",
    "VectorSpectralField.divergence": "div v, the constraint the solver keeps",
    "cutoffs.nu_bar": "the composed viscosity as a field, the kernel's nubar in the field algebra",
    "cutoffs.phi_b": "the cutoff Phi itself; nu_bar_grid composes it piece by piece",
    "cutoffs.psi_omega": "the cutoff Psi itself; nu_bar_grid composes it piece by piece",
    "EnergyReport.satisfied": "the energy inequality's verdict at one sample",
}


def _docstrings(tree):
    """The string constants that are docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                yield body[0].value


def _references(tree):
    skip = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            yield node.value


def _definitions(tree, module):
    """(qualified name, name) of each top-level function and class, and of
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def unreferenced():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(qualified for path, tree in trees.items() if path.parent == PACKAGE
                  for qualified, name in _definitions(tree, path.stem) if name not in used)


def test_every_package_definition_is_used_outside_tests():
    assert [name for name in unreferenced() if name not in KEPT] == []


def test_kept_names_exist_and_are_otherwise_unused():
    # an allow-list entry whose name is gone, or that code now calls, is stale
    assert sorted(KEPT) == [name for name in unreferenced() if name in KEPT]
