"""Prolongations of linear Lie algebras.

The first prolongation of a space A of linear maps V -> U is the space of
maps S: V -> A with S(X)Y = S(Y)X.  For g acting on V (U = V) these are the
symmetric maps into g; the second prolongation, the symmetric bilinear
maps T: V x V -> g whose evaluation T(X)(Y)Z is fully symmetric, is the
first prolongation of the first, g^(2) = (g^(1))^(1), each element of
g^(1) read as a map V -> g.  Vanishing of these spaces is the rigidity
mechanism behind the parallel-curvature arguments, so they are computed
exactly, over the real field, as kernels of the symmetry constraint
systems.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .exactlin import Echelon, RealMatrix, integer_row, sparse_nullspace
from .liealg import LieAlgebra

__all__ = [
    "ProlongationSpace",
    "restrict_action",
    "first_prolongation",
    "second_prolongation",
]


class ProlongationSpace(NamedTuple):
    """Kernel of a prolongation symmetry system.

    `basis` holds coefficient vectors in canonical RREF form, with key
    x * action_dim + j for argument index x < acting_dim and action basis
    index j.  For order 1 the action basis is the given one; for order 2 it
    is the first prolongation's basis, so the coordinates are (argument,
    first-prolongation basis index) and action_dim = dim g^(1).
    """

    order: int
    acting_dim: int
    action_dim: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def restrict_action(g: LieAlgebra, w: range) -> list[RealMatrix]:
    """Basis of g restricted to the span of the basis vectors in `w`: the
    w x w block of each basis matrix.  Raises if some element has an entry
    in a `w` column outside the `w` rows, and drops restrictions that are
    linearly dependent."""
    n, dw = g.space.real_dim, len(w)
    restricted = []
    span = Echelon()
    for b in g.basis:
        nz = {}
        for pos, x in b.nz.items():
            d, c = divmod(pos, n)
            if c in w:
                if d not in w:
                    raise ValueError(f"{g.name} does not preserve the subspace")
                nz[w.index(d) * dw + w.index(c)] = x
        mat = RealMatrix(dw, dw, nz)
        if span.insert(integer_row(nz)) is not None:
            restricted.append(mat)
    return restricted


def first_prolongation(action: Sequence[RealMatrix]) -> ProlongationSpace:
    """All S: V -> span(action) with S(X)Y = S(Y)X, for a basis of a space
    of maps V -> U given as du x dv matrices (a linear algebra acting on V
    when du = dv)."""
    if not action:
        return ProlongationSpace(order=1, acting_dim=0, action_dim=0, basis=())
    dv = action[0].cols
    dg = len(action)
    # by_col[c][d] = [(k, mat_k[d, c]), ...] over the nonzeros of each map
    by_col: list[dict] = [{} for _ in range(dv)]
    for k, mat in enumerate(action):
        for pos, v in mat.nz.items():
            d, c = divmod(pos, dv)
            by_col[c].setdefault(d, []).append((k, v))

    def rows():
        # S(x) e_y - S(y) e_x = 0 at coordinate d: x's unknowns meet column
        # y of each map and y's meet column x, so their keys never collide
        for x in range(dv):
            for y in range(x + 1, dv):
                at_y, at_x = by_col[y], by_col[x]
                for d in sorted(at_y.keys() | at_x.keys()):
                    row = {x * dg + k: v for k, v in at_y.get(d, ())}
                    row.update((y * dg + k, -v) for k, v in at_x.get(d, ()))
                    yield row

    basis = sparse_nullspace(map(integer_row, rows()), dv * dg)
    return ProlongationSpace(order=1, acting_dim=dv, action_dim=dg,
                             basis=tuple(basis))


def second_prolongation(first: ProlongationSpace) -> ProlongationSpace:
    """Symmetric bilinear T: V x V -> span(action) with T(X)(Y)Z fully
    symmetric, as the first prolongation of `first`, the first
    prolongation of the action: each basis vector p_j of g^(1) becomes the
    dim g x dim V map P_j[k, y] = p_j[y * dim g + k], and T(X) = S(X)
    ranges over their span."""
    if first.order != 1:
        raise ValueError(f"expected a first prolongation, got order {first.order}")
    dg = first.action_dim
    dv = first.acting_dim
    maps = []
    for p in first.basis:
        nz = {}
        for key, c in p.items():
            y, k = divmod(key, dg)
            nz[k * dv + y] = c
        maps.append(RealMatrix(dg, dv, nz))
    return first_prolongation(maps)._replace(order=2)
