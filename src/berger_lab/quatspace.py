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
is block-structured.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import RealMatrix, Subspace, span_of

__all__ = [
    "Quaternion",
    "QuatMatrix",
    "QuaternionicSpace",
    "realify",
    "left_mult_matrix",
    "right_mult_matrix",
    "build_space",
]


@dataclass(frozen=True)
class Quaternion:
    """Quaternion with rational coefficients of 1, i, j, k."""

    w: Fraction = Fraction(0)
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    z: Fraction = Fraction(0)

    def __post_init__(self):
        for f in ("w", "x", "y", "z"):
            object.__setattr__(self, f, Fraction(getattr(self, f)))

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

    def __add__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, o):
        if not isinstance(o, Quaternion):
            c = Fraction(o)
            return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)
        a, b = self, o
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __rmul__(self, o):
        c = Fraction(o)
        return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def is_zero(self) -> bool:
        return not (self.w or self.x or self.y or self.z)

    def components(self) -> tuple:
        return (self.w, self.x, self.y, self.z)


_ZERO_Q = Quaternion()


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


class QuatMatrix:
    """Immutable quaternionic matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        ent = tuple(entries)
        if len(ent) != rows * cols:
            raise ValueError("entry count mismatch")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("QuatMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuatMatrix":
        return cls(rows, cols, [_ZERO_Q] * (rows * cols))

    @classmethod
    def from_entries(cls, rows: int, cols: int, positions: dict) -> "QuatMatrix":
        """Build from a sparse {(i, j): Quaternion} dict."""
        ent = [_ZERO_Q] * (rows * cols)
        for (i, j), q in positions.items():
            ent[i * cols + j] = q
        return cls(rows, cols, ent)

    def __getitem__(self, ij) -> Quaternion:
        i, j = ij
        return self.entries[i * self.cols + j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QuatMatrix(self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                s = _ZERO_Q
                for t in range(self.cols):
                    a = self[i, t]
                    if not a.is_zero():
                        b = other[t, j]
                        if not b.is_zero():
                            s = s + a * b
                out.append(s)
        return QuatMatrix(self.rows, other.cols, out)


def realify(q: QuatMatrix) -> RealMatrix:
    """Real matrix of the H-linear map induced by left multiplication.

    The 4rows x 4cols result replaces each quaternion entry by its 4x4
    left-multiplication block; realify(A*B) = realify(A)*realify(B).
    """
    nc = 4 * q.cols
    out = {}
    for pos, e in enumerate(q.entries):
        if not e.is_zero():
            i, j = divmod(pos, q.cols)
            for k, v in left_mult_matrix(e).nz.items():
                a, b = divmod(k, 4)
                out[(4 * i + a) * nc + 4 * j + b] = v
    return RealMatrix.from_sparse(4 * q.rows, nc, out)


class QuaternionicSpace:
    """Signature-(r,s) quaternionic Hermitian space realified to R^{4m}.

    `t` is the quaternionic dimension of the isotropic Witt part W (0 for
    a non-degenerate diagonal basis).  `gram` is the quaternionic Gram
    matrix in the Witt basis; `eta` its realification (the real part of
    the Hermitian form); `I1, I2, I3` the structure triple given by right
    scalar multiplication (I3 = I1*I2).
    """

    __slots__ = ("r", "s", "t", "m", "real_dim", "gram", "eta", "I",
                 "basis_labels", "_eta_inverse")

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

        gram_entries = {}
        for i in range(t):
            gram_entries[(i, t + n0 + i)] = Quaternion.one()
            gram_entries[(t + n0 + i, i)] = Quaternion.one()
        for i in range(n0):
            sign = -1 if i < r0 else 1
            gram_entries[(t + i, t + i)] = Quaternion(sign)
        gram = QuatMatrix.from_entries(m, m, gram_entries)
        object.__setattr__(self, "gram", gram)

        n = 4 * m
        # real entries only in the Witt Gram matrix
        eta = {(4 * i + a) * n + 4 * j + a: g.w
               for (i, j), g in gram_entries.items() for a in range(4)}
        object.__setattr__(self, "eta", RealMatrix.from_sparse(n, n, eta))

        def block_diag(b4: RealMatrix) -> RealMatrix:
            return RealMatrix.from_sparse(n, n, {
                (4 * blk + k // 4) * n + 4 * blk + k % 4: v
                for blk in range(m) for k, v in b4.nz.items()})

        i1 = block_diag(right_mult_matrix(Quaternion.i()))
        i2 = block_diag(right_mult_matrix(Quaternion.j()))
        i3 = i1 * i2  # right multiplication by -k; satisfies I3 = I1*I2 = -I2*I1
        object.__setattr__(self, "I", (i1, i2, i3))

        labels = ([f"p{i + 1}" for i in range(t)]
                  + [f"e{i + 1}" for i in range(n0)]
                  + [f"q{i + 1}" for i in range(t)])
        object.__setattr__(self, "basis_labels", tuple(labels))
        object.__setattr__(self, "_eta_inverse", None)

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
        return span_of([{i: Fraction(1)} for i in self.w_indices()], self.real_dim)

    def eta_inverse(self) -> RealMatrix:
        inv = self._eta_inverse
        if inv is None:
            inv = self.eta.inverse()
            object.__setattr__(self, "_eta_inverse", inv)
        return inv

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "t": self.t,
            "eta": self.eta.to_json(),
            "I1": self.I[0].to_json(),
            "I2": self.I[1].to_json(),
            "I3": self.I[2].to_json(),
            "labels": list(self.basis_labels),
        }


def build_space(r: int, s: int, t: int) -> QuaternionicSpace:
    """Construct the realified space for quaternionic signature (r, s) with
    a rank-t Witt part."""
    return QuaternionicSpace(r, s, t)
