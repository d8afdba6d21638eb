"""The cube/half boundary lives in spectral alone: no other module of
src/kolmosim names a layout primitive or the cube's Sobolev table
(`bessel_weight`; the half's is `half_bessel_weight`).  They enter the half
through spectral.real_half and leave it through the from_half
constructors."""

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
