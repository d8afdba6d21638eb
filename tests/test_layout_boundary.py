"""The cube/half boundary lives in spectral alone: no other module of
src/kolmosim names a layout primitive or the cube's Sobolev table
(`bessel_weight`; the half's is `half_bessel_weight`).  They enter the half
through spectral.real_half and leave it through the from_half
constructors; a state enters through system.halves, and a campaign's
samples through estimates._collect."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kolmosim"
PRIMITIVES = {"cube_to_half", "half_to_cube", "symmetrize", "conj_flip", "bessel_weight"}


def _names(path):
    """Every name, attribute and imported name a module uses."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_layout_primitives_are_used_in_spectral_only():
    used = {path.name: sorted(PRIMITIVES & set(_names(path)))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "spectral.py"}
    assert {name: found for name, found in used.items() if found} == {}
    assert {"real_half", "from_half"} <= set(_names(PACKAGE / "spectral.py"))


def _imports_from_system(tree):
    """The names a module imports from its package's system module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "system" and node.level == 1:
            yield from (alias.name for alias in node.names)


def _calls(fn, attr):
    """Whether the function (its nested closures included) calls .attr."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == attr for node in ast.walk(fn))


def test_states_and_lab_samples_enter_the_half_through_one_door():
    """States enter the half through system.halves: no module but system
    imports `pack`.  Campaign samples enter it through estimates._collect:
    it calls `draws`, and no campaign (a verify_* function, its closures
    included) does."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, tree in trees.items()
            if "pack" in set(_imports_from_system(tree))] == []
    functions = {node.name: node for node in trees["estimates"].body
                 if isinstance(node, ast.FunctionDef)}
    assert _calls(functions["_collect"], "draws")
    campaigns = [name for name in functions if name.startswith("verify_")]
    assert len(campaigns) == 4
    assert [name for name in campaigns if _calls(functions[name], "draws")] == []
