"""Prolongations of linear Lie algebras.

The first prolongation of g acting on V is the space of symmetric maps
S: V -> g with S(X)Y = S(Y)X; the second consists of symmetric bilinear
maps T: V x V -> g whose evaluation T(X)(Y)Z is fully symmetric (so each
T(X) lies in the first prolongation).  Vanishing of these spaces is the
rigidity mechanism behind the parallel-curvature arguments, so they are
computed exactly, over the real field, as kernels of the symmetry
constraint systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (Echelon, RealMatrix, Subspace, integer_row,
                       sparse_nullspace)
from .liealg import LieAlgebra

__all__ = [
    "ProlongationSpace",
    "restrict_action",
    "first_prolongation",
    "second_prolongation",
    "first_prolongation_of",
]


@dataclass(frozen=True)
class ProlongationSpace:
    """Kernel of a prolongation symmetry system.

    `basis` holds coefficient vectors over (argument index) x (action basis
    index) for order 1, and (symmetric pair index) x (action basis index)
    for order 2, in canonical RREF form.
    """

    order: int
    acting_dim: int
    action_dim: int
    basis: tuple
    label: str = ""

    @property
    def dim(self) -> int:
        return len(self.basis)


def restrict_action(g: LieAlgebra, v: Subspace) -> list[RealMatrix]:
    """Basis of g restricted to the invariant subspace V, in V's canonical
    basis coordinates.  Raises if some element does not preserve V, and
    drops restrictions that are linearly dependent."""
    if v.ambient_dim != g.space.real_dim:
        raise ValueError("ambient dimension mismatch")
    index = {p: i for i, p in enumerate(v.pivot_columns())}
    dv = v.dim
    restricted = []
    span = Echelon()
    for b in g.basis:
        nz = {}
        for j, vec in enumerate(v.sparse_rows()):
            image = b.apply(vec)
            if not v.contains_vector(image):
                raise ValueError(f"{g.name} does not preserve the subspace")
            # canonical basis rows have unit pivots, so coordinates read off
            # at the pivot columns
            for p, x in image.items():
                if p in index:
                    nz[index[p] * dv + j] = x
        mat = RealMatrix.from_sparse(dv, dv, nz)
        if span.insert_fraction_row(nz) is not None:
            restricted.append(mat)
    return restricted


def first_prolongation(action: Sequence[RealMatrix], label: str = "") -> ProlongationSpace:
    """All S: V -> span(action) with S(X)Y = S(Y)X, for the given basis of
    a linear algebra acting on V."""
    if not action:
        return ProlongationSpace(order=1, acting_dim=0, action_dim=0,
                                 basis=(), label=label)
    dv = action[0].rows
    dg = len(action)

    def rows():
        for x in range(dv):
            for y in range(x + 1, dv):
                for d in range(dv):
                    row = {}
                    for k, mat in enumerate(action):
                        cy = mat[d, y]
                        if cy:
                            row[x * dg + k] = row.get(x * dg + k, Fraction(0)) + cy
                        cx = mat[d, x]
                        if cx:
                            row[y * dg + k] = row.get(y * dg + k, Fraction(0)) - cx
                    if row:
                        yield row

    basis = sparse_nullspace(filter(None, map(integer_row, rows())), dv * dg)
    return ProlongationSpace(order=1, acting_dim=dv, action_dim=dg,
                             basis=tuple(basis), label=label)


def second_prolongation(action: Sequence[RealMatrix], label: str = "") -> ProlongationSpace:
    """Symmetric bilinear T: V x V -> span(action) with T(X)(Y)Z fully
    symmetric; each T(X) then lies in the first prolongation."""
    if not action:
        return ProlongationSpace(order=2, acting_dim=0, action_dim=0,
                                 basis=(), label=label)
    dv = action[0].rows
    dg = len(action)
    pairs = [(x, y) for x in range(dv) for y in range(x, dv)]
    pidx = {p: i for i, p in enumerate(pairs)}

    def pair_index(x, y):
        return pidx[(x, y)] if x <= y else pidx[(y, x)]

    def rows():
        # T(x,y)z - T(x,z)y = 0 for all x and y < z
        for x in range(dv):
            for y in range(dv):
                for z in range(y + 1, dv):
                    for d in range(dv):
                        row = {}
                        for k, mat in enumerate(action):
                            cz = mat[d, z]
                            if cz:
                                key = pair_index(x, y) * dg + k
                                row[key] = row.get(key, Fraction(0)) + cz
                            cy = mat[d, y]
                            if cy:
                                key = pair_index(x, z) * dg + k
                                row[key] = row.get(key, Fraction(0)) - cy
                        if row:
                            yield row

    basis = sparse_nullspace(filter(None, map(integer_row, rows())),
                             len(pairs) * dg)
    return ProlongationSpace(order=2, acting_dim=dv, action_dim=dg,
                             basis=tuple(basis), label=label)


def first_prolongation_of(g: LieAlgebra, v: Subspace) -> ProlongationSpace:
    return first_prolongation(restrict_action(g, v), label=g.name)
