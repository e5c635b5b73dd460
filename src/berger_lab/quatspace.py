"""Realified pseudo-quaternionic-Hermitian spaces.

The model is H^{r,s} as a *right* H-module: H-linear maps act by left
matrix multiplication on coordinate columns, the structure operators act
by right scalar multiplication, and the two actions commute.  A Witt-type
basis p_1..p_t, e_1..e_{r0+s0}, q_1..q_t (r0 = r-t, s0 = s-t) carries the
Hermitian form whose only nonzero pairings are <p_i,q_i> = <q_i,p_i> = 1
and <e_i,e_i> = -1 (i <= r0), +1 otherwise.

Realification lists, for each quaternionic basis vector u, the real
vectors u, u*i, u*j, u*k consecutively, so the real Gram matrix is the
quaternionic Gram tensored with the 4x4 identity and all structure data
is block-structured.  A matrix entry is a signed unit (u, sign), sign * e_u
for the units e_0 = 1, e_1 = i, e_2 = j, e_3 = k, and `_HAMILTON` is the
one table of their products: each realified block, like the structure
triple, is a signed permutation read from it.
"""

from __future__ import annotations

from .exactlin import RealMatrix

__all__ = [
    "QuaternionicSpace",
    "conjugate",
    "realify",
    "build_space",
]

# _HAMILTON[u][v] = (w, sign): e_u e_v = sign e_w
_HAMILTON = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)

# the 4x4 matrices of x -> e_u x and x -> x e_u on coordinates (w, x, y, z),
# as [(row, col, sign)] in row-major order
_LEFT = [sorted((w, b, s) for b, (w, s) in enumerate(_HAMILTON[u]))
         for u in range(4)]
_RIGHT = [sorted((w, b, s) for b in range(4) for w, s in [_HAMILTON[b][u]])
          for u in range(4)]


def conjugate(unit: tuple[int, int]) -> tuple[int, int]:
    """The quaternion conjugate of the signed unit (u, sign)."""
    u, sign = unit
    return u, sign if u == 0 else -sign


def _realified(m: int, entries: dict, blocks) -> RealMatrix:
    """The 4m x 4m matrix that puts, for each entry (i, j): (u, sign), sign
    times blocks[u] at block (i, j); entries are read in (i, j) order, each
    block row by row."""
    n = 4 * m
    out = {}
    for (i, j), (u, sign) in sorted(entries.items()):
        for a, b, s in blocks[u]:
            out[(4 * i + a) * n + 4 * j + b] = sign * s
    return RealMatrix(n, n, out)


def realify(m: int, entries: dict) -> RealMatrix:
    """Real matrix of the H-linear map of the m x m quaternionic matrix
    with nonzero entries `entries` ({(i, j): (u, sign)}, signed units).

    The 4m x 4m result replaces each entry by its 4x4 left-multiplication
    block, so realify(A*B) = realify(A)*realify(B).
    """
    return _realified(m, entries, _LEFT)


class QuaternionicSpace:
    """Signature-(r,s) quaternionic Hermitian space realified to R^{4m}.

    `t` is the quaternionic dimension of the isotropic Witt part W (0 for
    a non-degenerate diagonal basis).  `gram` is the Gram matrix of the
    Witt basis, {(i, j): +-1}, and `eta` its realification, a signed
    permutation matrix with eta*eta = 1; `I1, I2, I3` the structure triple,
    right scalar multiplication by i, j and -k, each built from the product
    table, so I1*I2 = I3 is a relation to check, not a definition.
    """

    __slots__ = ("r", "s", "t", "m", "real_dim", "gram", "eta", "I")

    def __init__(self, r: int, s: int, t: int):
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("need non-negative r, s with r + s >= 1")
        if not 0 <= t <= min(r, s):
            raise ValueError("need 0 <= t <= min(r, s)")
        m = r + s
        n0 = m - 2 * t
        r0 = r - t
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "real_dim", 4 * m)

        # the quaternionic Gram matrix of the Witt basis is real
        gram = {}
        for i in range(t):
            gram[(i, t + n0 + i)] = gram[(t + n0 + i, i)] = 1
        for i in range(n0):
            gram[(t + i, t + i)] = -1 if i < r0 else 1
        object.__setattr__(self, "gram", gram)

        n = 4 * m
        eta = {(4 * i + a) * n + 4 * j + a: g
               for (i, j), g in gram.items() for a in range(4)}
        object.__setattr__(self, "eta", RealMatrix(n, n, eta))

        object.__setattr__(self, "I", tuple(
            _realified(m, {(a, a): unit for a in range(m)}, _RIGHT)
            for unit in ((1, 1), (2, 1), (3, -1))))

    def __setattr__(self, name, value):
        raise AttributeError("QuaternionicSpace is immutable")

    def __repr__(self):
        return f"QuaternionicSpace(r={self.r}, s={self.s}, t={self.t})"

    # real coordinate index ranges of the three blocks
    def w_indices(self) -> range:
        return range(0, 4 * self.t)

    def e_indices(self) -> range:
        return range(4 * self.t, 4 * (self.m - self.t))

    def w1_indices(self) -> range:
        return range(4 * (self.m - self.t), 4 * self.m)


def build_space(r: int, s: int, t: int) -> QuaternionicSpace:
    """Construct the realified space for quaternionic signature (r, s) with
    a rank-t Witt part."""
    return QuaternionicSpace(r, s, t)
