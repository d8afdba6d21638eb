"""No test-only code in the package: every top-level function and class of
src/kolmosim, and every method other than a dunder, is referenced by code
in src/kolmosim or bench/.  A helper only tests call belongs in tests/ (as
an oracle, see oracles.py) or nowhere.  References are names, attribute
names and identifier strings (a tracer wraps functions by name); a
docstring that mentions a name does not reference it.

The same holds for switches: every defaulted parameter of a top-level
function or method (and of a class's __init__) is passed, by keyword or by
position, by some call in src/kolmosim or bench/.  A call is matched to a
definition by the called name (an import alias resolved), so a name two
definitions share counts for both.  Their number, with the defaulted
dataclass fields, stays at or below DEFAULTS_CEILING."""

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

# defaulted parameters kept on purpose, though no package or benchmark call
# passes them
HOLDER = "Holder exponents of the estimate: the inequality holds for a family of them"
KEPT_DEFAULTS = {
    "estimates.verify_commutator_estimate.exponents": HOLDER,
    "estimates.verify_product_estimate.exponents": HOLDER,
    "spectral.spectral_product.out_cutoff": "the product's truncation P_m, m != n",
}


# defaulted parameters plus defaulted dataclass fields in the package: a new
# switch has to raise this ceiling in its own diff
DEFAULTS_CEILING = 47


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


def _trees():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}


def unreferenced():
    trees = _trees()
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(qualified for path, tree in trees.items() if path.parent == PACKAGE
                  for qualified, name in _definitions(tree, path.stem) if name not in used)


def _defaulted(tree, module):
    """(qualified name, called name, position, parameter) of each defaulted
    parameter of a top-level function, a method or a class's __init__.
    position counts the arguments a call passes before the parameter (self
    and cls are bound); None for a keyword-only parameter."""
    def params(fn, qualified, called, bound):
        args = fn.args.posonlyargs + fn.args.args
        for i, arg in enumerate(args[len(args) - len(fn.args.defaults):],
                                start=len(args) - len(fn.args.defaults)):
            yield f"{qualified}.{arg.arg}", called, i - bound, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{qualified}.{arg.arg}", called, None, arg.arg

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from params(node, f"{module}.{node.name}", node.name, 0)
        elif isinstance(node, ast.ClassDef):      # the package has no staticmethod
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__"
                        or not (item.name.startswith("__") and item.name.endswith("__"))):
                    called = node.name if item.name == "__init__" else item.name
                    yield from params(item, f"{node.name}.{item.name}", called, 1)


def _passed(trees):
    """called name -> (the most positional arguments any call passes, the
    keywords calls pass); a call with *args passes every position and one
    with **kwargs every keyword ("**")."""
    passed = {}
    for tree in trees.values():
        alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for called in {name, alias.get(name)} - {None}:
                most, keywords = passed.get(called, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed[called] = (max(most, float("inf") if starred else len(node.args)),
                                  keywords | {kw.arg or "**" for kw in node.keywords})
    return passed


def unpassed():
    trees = _trees()
    passed = _passed(trees)
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, called, position, param in _defaulted(tree, path.stem):
            most, keywords = passed.get(called, (0, set()))
            if not (param in keywords or "**" in keywords
                    or (position is not None and most > position)):
                out.append(qualified)
    return sorted(out)


def _default_count(tree):
    """Defaulted parameters of every function and lambda, and defaulted
    fields of every dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(item, ast.AnnAssign) and item.value is not None
                         for item in node.body)
    return count


def test_every_package_definition_is_used_outside_tests():
    assert [name for name in unreferenced() if name not in KEPT] == []


def test_kept_names_exist_and_are_otherwise_unused():
    # an allow-list entry whose name is gone, or that code now calls, is stale
    assert sorted(KEPT) == [name for name in unreferenced() if name in KEPT]


def test_every_defaulted_parameter_is_passed_outside_tests():
    # a default no package or benchmark call overrides is a switch only
    # tests throw
    assert [name for name in unpassed() if name not in KEPT_DEFAULTS] == []


def test_kept_defaults_exist_and_are_otherwise_unpassed():
    assert sorted(KEPT_DEFAULTS) == [name for name in unpassed() if name in KEPT_DEFAULTS]


def test_defaults_stay_under_the_ceiling():
    count = sum(_default_count(tree) for path, tree in _trees().items()
                if path.parent == PACKAGE)
    assert count <= DEFAULTS_CEILING
