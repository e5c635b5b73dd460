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
is block-structured.  A `Quaternion` is only a matrix entry: the builders
negate, conjugate and scale the unit quaternions, and every product is
taken after realification, between real matrices.
"""

from __future__ import annotations

from .exactlin import RealMatrix, Subspace, exact, span_of

__all__ = [
    "Quaternion",
    "QuaternionicSpace",
    "realify",
    "left_mult_matrix",
    "right_mult_matrix",
    "build_space",
]


class Quaternion:
    """Quaternion with rational coefficients of 1, i, j, k, each kept in
    the exact normal form of `exactlin.exact` (an int when integral)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        object.__setattr__(self, "w", exact(w))
        object.__setattr__(self, "x", exact(x))
        object.__setattr__(self, "y", exact(y))
        object.__setattr__(self, "z", exact(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __eq__(self, other):
        return (isinstance(other, Quaternion)
                and self.components() == other.components())

    def __hash__(self):
        return hash(self.components())

    def __repr__(self):
        return "Quaternion(w={!r}, x={!r}, y={!r}, z={!r})".format(
            *self.components())

    @classmethod
    def one(cls) -> "Quaternion":
        return cls(1, 0, 0, 0)

    @classmethod
    def i(cls) -> "Quaternion":
        return cls(0, 1, 0, 0)

    @classmethod
    def j(cls) -> "Quaternion":
        return cls(0, 0, 1, 0)

    @classmethod
    def k(cls) -> "Quaternion":
        return cls(0, 0, 0, 1)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __rmul__(self, o):
        c = exact(o)
        return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def components(self) -> tuple:
        return (self.w, self.x, self.y, self.z)


def left_mult_matrix(q: Quaternion) -> RealMatrix:
    """4x4 matrix of v -> q*v on coordinates (w, x, y, z)."""
    a, b, c, d = q.components()
    return RealMatrix.from_rows([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def right_mult_matrix(q: Quaternion) -> RealMatrix:
    """4x4 matrix of v -> v*q on coordinates (w, x, y, z)."""
    a, b, c, d = q.components()
    return RealMatrix.from_rows([
        [a, -b, -c, -d],
        [b, a, d, -c],
        [c, -d, a, b],
        [d, c, -b, a],
    ])


def realify(m: int, entries: dict) -> RealMatrix:
    """Real matrix of the H-linear map of the m x m quaternionic matrix
    with nonzero entries `entries` ({(i, j): Quaternion}).

    The 4m x 4m result replaces each quaternion entry by its 4x4
    left-multiplication block, so realify(A*B) = realify(A)*realify(B).
    Entries are read in row-major order.
    """
    n = 4 * m
    out = {}
    for (i, j), e in sorted(entries.items()):
        for k, v in left_mult_matrix(e).nz.items():
            a, b = divmod(k, 4)
            out[(4 * i + a) * n + 4 * j + b] = v
    return RealMatrix.from_sparse(n, n, out)


class QuaternionicSpace:
    """Signature-(r,s) quaternionic Hermitian space realified to R^{4m}.

    `t` is the quaternionic dimension of the isotropic Witt part W (0 for
    a non-degenerate diagonal basis).  `gram` is the Gram matrix of the
    Witt basis, {(i, j): +-1}, and `eta` its realification, a signed
    permutation matrix with eta*eta = 1; `I1, I2, I3` the structure triple
    given by right scalar multiplication (I3 = I1*I2).
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
        object.__setattr__(self, "eta", RealMatrix.from_sparse(n, n, eta))

        def block_diag(b4: RealMatrix) -> RealMatrix:
            return RealMatrix.from_sparse(n, n, {
                (4 * blk + k // 4) * n + 4 * blk + k % 4: v
                for blk in range(m) for k, v in b4.nz.items()})

        i1 = block_diag(right_mult_matrix(Quaternion.i()))
        i2 = block_diag(right_mult_matrix(Quaternion.j()))
        i3 = i1 * i2  # right multiplication by -k; satisfies I3 = I1*I2 = -I2*I1
        object.__setattr__(self, "I", (i1, i2, i3))

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

    def isotropic_subspace_W(self) -> Subspace:
        if self.t == 0:
            raise ValueError("W requires t >= 1")
        return span_of([{i: 1} for i in self.w_indices()], self.real_dim)


def build_space(r: int, s: int, t: int) -> QuaternionicSpace:
    """Construct the realified space for quaternionic signature (r, s) with
    a rank-t Witt part."""
    return QuaternionicSpace(r, s, t)
