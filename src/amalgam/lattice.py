"""Exact integer lattice algebra: Hermite and Smith normal forms, sublattice
membership, finite-index direct-factor splits, and abelianization.

Everything here works on arbitrary-precision Python ints. No floating point
enters at any stage, so all outputs are exactly reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .errors import ElementOutOfRange, IncompatibleAmalgam, InvalidGroup


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InvalidGroup("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise InvalidGroup(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise InvalidGroup("matrix entries must be ints")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise InvalidGroup("ragged rows")
        return cls(nr, nc, tuple(int(x) for r in rows for x in r))

    @classmethod
    def from_columns(cls, cols, rows: int | None = None) -> IntMatrix:
        cols = [list(c) for c in cols]
        if rows is None:
            if not cols:
                raise InvalidGroup("cannot infer row count of an empty column list")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise InvalidGroup("ragged columns")
        return cls.from_rows([[c[i] for c in cols] for i in range(rows)])

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols][: self.rows] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise InvalidGroup(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            out.append(
                [sum(ri[k] * other.entry(k, j) for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMatrix.from_rows(out) if out else IntMatrix.zeros(0, other.cols)

    @cached_property
    def _row_tuples(self) -> tuple[tuple[int, ...], ...]:
        # built on the first matvec only: hnf and snf make many matrices
        # that are never applied to a vector
        return tuple(self.row(i) for i in range(self.rows))

    def matvec(self, v) -> tuple[int, ...]:
        if not isinstance(v, (tuple, list)):
            v = list(v)
        if len(v) != self.cols:
            raise InvalidGroup(f"vector length {len(v)} does not match {self.cols} columns")
        return tuple([sum(map(operator.mul, row, v)) for row in self._row_tuples])


def int_det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise InvalidGroup("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix.

    M is unimodular exactly when its columns span Z^n, that is when its column
    HNF is the identity; then H = M * U = I makes the transform U the inverse.
    """
    if M.rows != M.cols:
        raise InvalidGroup("inverse of a non-square matrix")
    H, U = hnf(M)
    if H != IntMatrix.identity(M.rows):
        raise InvalidGroup(f"matrix is not unimodular (det {int_det(M)})")
    return U


def _col_swap(rows, j0, j1):
    if j0 != j1:
        for x in rows:
            x[j0], x[j1] = x[j1], x[j0]


def _col_addmul(rows, dst, src, q):
    """Column dst += q * column src, in every row of ``rows``."""
    if q:
        for x in rows:
            x[dst] += q * x[src]


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = M * U, U unimodular. H is in lower-triangular
    column echelon form: pivots are positive, strictly descend the rows as
    columns advance, entries left of a pivot in its row lie in [0, pivot),
    and zero columns are pushed to the right. The column lattice of H equals
    that of M, so H is a canonical basis for it.
    """
    h = M.to_rows()
    u = _hnf_rows(h, M.cols)
    return IntMatrix.from_rows(h) if M.rows else IntMatrix.zeros(0, M.cols), IntMatrix.from_rows(u)


def _hnf_rows(h: list[list[int]], n: int) -> list[list[int]]:
    """hnf on a list of rows of length n: turns h into H in place and
    returns the rows of U."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    hu = h + u  # column operations act on H and U alike

    col = 0
    for row in h:
        if col >= n:
            break
        while True:
            best = -1
            for j in range(col, n):
                if row[j] != 0 and (best == -1 or abs(row[j]) < abs(row[best])):
                    best = j
            if best == -1:
                break
            _col_swap(hu, col, best)
            others = [j for j in range(col + 1, n) if row[j] != 0]
            if not others:
                break
            for j in others:
                _col_addmul(hu, j, col, -(row[j] // row[col]))
        if row[col] == 0:
            continue
        if row[col] < 0:
            for x in hu:
                x[col] = -x[col]
        for j in range(col):
            _col_addmul(hu, j, col, -(row[j] // row[col]))
        col += 1
    return u


def _hnf_pivots(H: IntMatrix) -> list[tuple[int, int]]:
    """Pivot positions (row, col) of a matrix already in column HNF."""
    out = []
    col = 0
    for i in range(H.rows):
        if col < H.cols and H.entry(i, col) != 0:
            out.append((i, col))
            col += 1
    return out


def _sparse_columns(w: list[list[int]]) -> list[list[tuple[int, int]]]:
    """For each column of the square rows w, its nonzero entries as (row, value) pairs."""
    return [[(i, row[k]) for i, row in enumerate(w) if row[k]] for k in range(len(w))]


@dataclass(frozen=True)
class SNFDecomposition:
    """Smith normal form data: U * M * V = D with U, V unimodular."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]


def snf(M: IntMatrix) -> SNFDecomposition:
    """Smith normal form over Z with both transforms.

    The diagonal of D is nonnegative and forms a divisibility chain
    d_1 | d_2 | ... with zeros last. invariant_factors is the full diagonal,
    units and zeros included. After each pivot the trailing block is put in
    row and then column Hermite form (Kannan & Bachem, SIAM J. Comput. 8,
    1979), which keeps the entries of U, D and V polynomial in the input size.
    """
    r, n = M.rows, M.cols
    a = M.to_rows()
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # Column operations act on D and V alike. Row operations only swap or
    # change rows in place, so av keeps holding every row of a and v.
    av = a + v

    def row_swap(i0, i1):
        if i0 != i1:
            a[i0], a[i1] = a[i1], a[i0]
            u[i0], u[i1] = u[i1], u[i0]

    def row_addmul(dst, src, q):
        if q == 0:
            return
        for j in range(n):
            a[dst][j] += q * a[src][j]
        for j in range(r):
            u[dst][j] += q * u[src][j]

    def row_negate(i):
        for j in range(n):
            a[i][j] = -a[i][j]
        for j in range(r):
            u[i][j] = -u[i][j]

    m = min(r, n)
    t = 0
    while t < m:
        # deterministic pivot: smallest nonzero |entry| in the trailing block,
        # row-major scan breaking ties toward the top-left
        pi = pj = -1
        for i in range(t, r):
            for j in range(t, n):
                if a[i][j] != 0 and (pi == -1 or abs(a[i][j]) < abs(a[pi][pj])):
                    pi, pj = i, j
        if pi == -1:
            break
        row_swap(t, pi)
        _col_swap(av, t, pj)
        while True:
            # clear column t below the pivot
            moved = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    _col_addmul(av, j, t, -q)
                    if a[t][j] != 0:
                        _col_swap(av, t, j)
                        moved = True
            if moved:
                continue
            break
        # divisibility fix: pivot must divide the whole trailing block
        fixed = True
        for i in range(t + 1, r):
            if any(a[i][j] % a[t][t] for j in range(t + 1, n)):
                row_addmul(t, i, 1)
                fixed = False
                break
        if not fixed:
            continue
        if a[t][t] < 0:
            row_negate(t)
        t += 1
        if t < r - 1 and t < n - 1:
            # hnf(B^T) = B^T * W gives the row-style HNF W^T * B of the
            # trailing block B, and hnf(B) = B * W its column-style one.
            # Applying each W to the same rows of u (columns of v) keeps
            # u * M * v = a. A block of one row or column is left to the
            # pivot loop, whose gcd steps on it only shrink its entries.
            block = a[t:]
            h = [list(col) for col in zip(*(row[t:] for row in block))]  # B^T
            w = _hnf_rows(h, r - t)
            old = u[t:]
            for k, col in enumerate(_sparse_columns(w)):
                block[k][t:] = [x[k] for x in h]
                u[t + k] = [sum(x * old[i][j] for i, x in col) for j in range(r)]
            h = [row[t:] for row in block]
            w = _hnf_rows(h, n - t)
            for row, hrow in zip(block, h):
                row[t:] = hrow
            cols = _sparse_columns(w)
            for row in v:
                tail = row[t:]
                row[t:] = [sum(x * tail[i] for i, x in col) for col in cols]

    diag = tuple(a[i][i] for i in range(m))
    return SNFDecomposition(
        U=IntMatrix.from_rows(u) if r else IntMatrix.zeros(0, 0),
        D=IntMatrix.from_rows(a) if r else IntMatrix.zeros(0, n),
        V=IntMatrix.from_rows(v) if n else IntMatrix.zeros(n, n),
        invariant_factors=diag,
    )


def lattice_kernel(M: IntMatrix) -> IntMatrix:
    """Columns spanning the integer kernel of M (may have zero columns)."""
    H, U = hnf(M)
    zero_cols = [
        j
        for j in range(H.cols)
        if all(H.entry(i, j) == 0 for i in range(H.rows))
    ]
    return IntMatrix.from_columns([U.column(j) for j in zero_cols], rows=M.cols)


class LatticeSubgroup:
    """A sublattice of Z^r given by generating columns.

    Keeps the generators as supplied plus a canonical HNF basis, and gives
    canonical coset representatives (zero exactly on members) and members as
    integer combinations of the original generators.
    """

    def __init__(self, ambient_rank: int, gens: IntMatrix):
        if gens.rows != ambient_rank:
            raise IncompatibleAmalgam(
                f"generators live in Z^{gens.rows}, expected Z^{ambient_rank}"
            )
        self.ambient_rank = ambient_rank
        self.gens = gens
        H, U = hnf(gens)
        pivots = _hnf_pivots(H)
        # Reduction steps, fixed once: pivot row, pivot value and the pivot
        # column's nonzero (row, entry) pairs. A step takes q = v[row] // pivot
        # and subtracts q times the column; entries above the pivot are zero.
        self._steps = tuple(
            (i, H.entry(i, j), tuple((k, x) for k, x in enumerate(H.column(j)) if x))
            for i, j in pivots
        )
        # U's pivot columns: the q of each step in generator coordinates
        self._pivot_transform = IntMatrix.from_columns(
            [U.column(j) for _, j in pivots], rows=U.rows
        )
        self.basis = IntMatrix.from_columns([H.column(j) for _, j in pivots], rows=ambient_rank)

    @classmethod
    def from_vectors(cls, ambient_rank: int, vectors) -> LatticeSubgroup:
        return cls(ambient_rank, IntMatrix.from_columns(vectors, rows=ambient_rank))

    @property
    def rank(self) -> int:
        return len(self._steps)

    def _forward(self, v) -> tuple[tuple[int, ...], list[int]]:
        """(rep, q): rep = v - (sum over steps of q * pivot column)."""
        w = list(map(int, v))
        if len(w) != self.ambient_rank:
            raise IncompatibleAmalgam(
                f"vector length {len(w)} in Z^{self.ambient_rank}"
            )
        qs = []
        for i, pivot, col in self._steps:
            q = w[i] // pivot
            if q:
                for k, x in col:
                    w[k] -= q * x
            qs.append(q)
        return tuple(w), qs

    def reduce(self, v) -> tuple[int, ...]:
        """Canonical representative of v modulo this lattice."""
        return self._forward(v)[0]

    def decompose(self, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rep, coeffs) with rep = reduce(v) and v - rep = gens * coeffs.

        _forward gives rep = v - H*q, where q is zero off the pivot columns
        and holds one quotient per step there, and H = gens*U makes
        H*q = gens*(U*q): U's pivot columns times the step quotients.
        """
        rep, q = self._forward(v)
        return rep, self._pivot_transform.matvec(q)

    def __repr__(self):
        return f"LatticeSubgroup(rank {self.rank} in Z^{self.ambient_rank})"


@dataclass(frozen=True)
class FGAbelian:
    """A finitely generated abelian group Z^free_rank x prod Z/d_i.

    torsion is the invariant-factor list: every entry > 1 and each divides
    the next. Element coordinates put the torsion components first, then the
    free ones. identity, mul, label and check are named as on FiniteGroup.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()
    ngens: int = field(init=False, repr=False, compare=False)
    identity: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidGroup("negative free rank")
        for d in self.torsion:
            if d <= 1:
                raise InvalidGroup(f"torsion entry {d} must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvalidGroup(
                    f"torsion {list(self.torsion)} is not a divisibility chain"
                )
        ngens = self.free_rank + len(self.torsion)
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "identity", (0,) * ngens)

    def mod_torsion(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """A tuple of ngens ints with each torsion coordinate taken mod its
        d_i, unchecked; v itself when the group has no torsion."""
        t = self.torsion
        return (*map(operator.mod, v, t), *v[len(t):]) if t else v

    def canon(self, v) -> tuple[int, ...]:
        v = tuple(map(int, v))
        if len(v) != self.ngens:
            raise IncompatibleAmalgam(f"element length {len(v)}, expected {self.ngens}")
        return self.mod_torsion(v)

    def check(self, v) -> tuple[int, ...]:
        """canon(v), once v is known to be a coordinate vector of this group."""
        if not isinstance(v, (tuple, list)) or len(v) != self.ngens:
            raise ElementOutOfRange(f"{v!r} is not a coordinate vector of length {self.ngens}")
        return self.mod_torsion(tuple(map(int, v)))

    def mul(self, a, b) -> tuple[int, ...]:
        """a + b for canonical a and b, with its torsion coordinates reduced."""
        if len(a) != len(b):
            # the error zip(a, b, strict=True) raised here before
            side = "shorter" if len(b) < len(a) else "longer"
            raise ValueError(f"zip() argument 2 is {side} than argument 1")
        return self.mod_torsion(tuple(map(operator.add, a, b)))

    def relation_columns(self) -> list[tuple[int, ...]]:
        """Columns of Z^ngens that are identified with zero (the torsion)."""
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * self.ngens
            col[i] = d
            cols.append(tuple(col))
        return cols

    def label(self, v) -> str:
        return "(" + ",".join(str(x) for x in self.canon(v)) + ")"


@dataclass(frozen=True)
class IndexSplit:
    """A direct-factor split C (+) H of finite index inside Z^r.

    The columns of W = inverse_change^-1 form an adapted basis of Z^r;
    scaling its first rank(C) columns by `divisors` gives a basis of C, and
    H is spanned by the remaining columns. coset_reps enumerates
    Z^r / (C (+) H) as mixed-radix digit vectors mapped back through W, in
    lexicographic digit order, so the zero vector comes first.
    """

    index: int
    divisors: tuple[int, ...]
    inverse_change: IntMatrix
    coset_reps: tuple[tuple[int, ...], ...]

    def digits(self, v) -> tuple[int, ...]:
        y = self.inverse_change.matvec(v)
        return tuple(y[i] % d for i, d in enumerate(self.divisors))

    def coset_index(self, v) -> int:
        idx = 0
        for digit, d in zip(self.digits(v), self.divisors):
            idx = idx * d + digit
        return idx

    def contains(self, v) -> bool:
        """Membership in the finite-index subgroup C (+) H."""
        return all(d == 0 for d in self.digits(v))


def finite_index_split(ambient_rank: int, C: LatticeSubgroup) -> IndexSplit:
    """Split C off as a direct factor of a finite-index subgroup of Z^r.

    Diagonalizing a basis of C as U * B * V = D yields an adapted basis
    W = U^-1 of Z^r in which C is spanned by d_i * W_i; padding with the
    remaining columns of W gives A_1 = C (+) H of index prod d_i.
    """
    if C.ambient_rank != ambient_rank:
        raise IncompatibleAmalgam(
            f"sublattice of Z^{C.ambient_rank} passed with ambient rank {ambient_rank}"
        )
    k = C.rank
    if k == 0:
        # C trivial: A_1 = Z^r itself, index 1
        return IndexSplit(
            index=1,
            divisors=(),
            inverse_change=IntMatrix.identity(ambient_rank),
            coset_reps=((0,) * ambient_rank,),
        )
    dec = snf(C.basis)
    divisors = dec.invariant_factors
    if any(d == 0 for d in divisors):
        raise InvalidGroup("independent basis columns produced a zero invariant")
    W = unimodular_inverse(dec.U)
    index = prod(divisors)
    reps = []
    for digits in itertools.product(*(range(d) for d in divisors)):
        y = list(digits) + [0] * (ambient_rank - k)
        reps.append(W.matvec(y))
    return IndexSplit(
        index=index,
        divisors=divisors,
        inverse_change=dec.U,
        coset_reps=tuple(reps),
    )


def _row_basis(rows: list, width: int) -> list[list[int]]:
    """Echelon basis of the lattice spanned by the given integer rows."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = [int(x) for x in row]
        if len(row) != width:
            raise InvalidGroup(f"relator width {len(row)}, expected {width}")
        while True:
            lead = next((i for i, x in enumerate(row) if x), None)
            if lead is None:
                break
            if lead not in pivots:
                if row[lead] < 0:
                    row = [-x for x in row]
                pivots[lead] = row
                break
            piv = pivots[lead]
            a, b = piv[lead], row[lead]
            if b % a == 0:
                q = b // a
                row = [x - q * y for x, y in zip(row, piv)]
                continue
            g, x, y = _xgcd(a, b)
            combined = [x * p + y * r for p, r in zip(piv, row)]
            row = [(a // g) * r - (b // g) * p for p, r in zip(piv, row)]
            pivots[lead] = combined
    return [pivots[k] for k in sorted(pivots)]


def abelianization_from_presentation(ngens: int, relators) -> FGAbelian:
    """Cokernel Z^ngens / (row lattice of relators) in invariant-factor form."""
    if ngens < 0:
        raise InvalidGroup("negative generator count")
    basis = _row_basis([list(r) for r in relators], ngens)
    if not basis:
        return FGAbelian(free_rank=ngens)
    dec = snf(IntMatrix.from_rows(basis))
    nonzero = [d for d in dec.invariant_factors if d != 0]
    free = ngens - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return FGAbelian(free_rank=free, torsion=torsion)

