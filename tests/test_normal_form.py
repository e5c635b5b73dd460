"""Every exact scalar is in one normal form: an int when it is integral, a
Fraction otherwise, and no module computes with floats.  Also parsed from
the source: no module reaches another module's private names."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import berger_lab
from berger_lab.curvature import scalar
from berger_lab.harness import cache_get, cache_put
from berger_lab.prolong import (first_prolongation, restrict_action,
                                second_prolongation)
from conftest import (SPARSE_CASES, basis_tensors, coordinates_of, flat_vector,
                      is_normal, plus, ref_ricci, scaled)

# the modules that compute with exact scalars; harness is left out, its `/`
# joins Paths
EXACT_MODULES = ("exactlin", "quatspace", "liealg", "curvature", "prolong",
                 "berger")


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_true_division(module):
    # int / int is a float: an exact module divides with exactlin.ratio,
    # Fraction(a, b) or a cross-multiplication
    path = Path(berger_lab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    divisions = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert divisions == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


PACKAGE_DIR = Path(berger_lab.__file__).parent
PACKAGE_MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_no_private_name_crosses_a_module(module):
    # a module reaches another module's code through its public names only:
    # no `from .m import _name` and no `alias._name` on an imported module
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    aliases = set()
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("berger_lab")):
            for alias in node.names:
                if _is_private(alias.name):
                    reached.append(alias.name)
                is_module = (node.module in (None, "berger_lab")
                             and (PACKAGE_DIR / f"{alias.name}.py").exists())
                if is_module:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("berger_lab.") and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _is_private(node.attr)):
            reached.append(f"{node.value.id}.{node.attr}")
    assert reached == []


# the registry algebras that preserve the isotropic part W
PRESERVE_W = ("sp_w", "sp1", "glq", "h0", "sp1+sp_w")


@pytest.mark.parametrize("name,r,s,t", SPARSE_CASES)
def test_every_exact_value_is_in_normal_form(session, tmp_path, name, r, s, t):
    space = session.space(r, s, t)
    algebra = session.algebra(name, r, s, t)
    curvature = session.curvature(name, r, s, t)
    cache_put(tmp_path, space, name, curvature)
    loaded = cache_get(tmp_path, space, name, algebra)
    assert loaded is not None and loaded.dim == curvature.dim
    r0 = session.r0(r, s, t)
    elements = [*basis_tensors(curvature), *basis_tensors(loaded), r0]

    matrices = [*algebra.basis, space.eta, *space.I,
                *(ref_ricci(el) for el in elements)]
    combo = plus(scaled(algebra.basis[0], Fraction(1, 2)), scaled(algebra.basis[-1], 3))
    coords = coordinates_of(algebra, combo)  # builds the Gram table
    index, _, columns = algebra._gram
    vectors = [coords, *columns,
               *curvature.coefficient_subspace().sparse_rows(),
               *(flat_vector(el) for el in elements),
               *(row for tensor in curvature.values() for row in tensor.values())]
    if name in PRESERVE_W:
        first = first_prolongation(
            restrict_action(algebra, space.w_indices()))
        vectors += [*first.basis, *second_prolongation(first).basis]
    values = [v for m in matrices for v in m.nz.values()]
    values += [v for vec in vectors for v in vec.values()]
    values += [w for hits in index.values() for _, w in hits]
    values += [scalar(el) for el in elements]
    assert values and all(is_normal(v) for v in values)
