"""Exact integer and rational matrix algebra.

Everything in this module is pure and exact, with no floating point
anywhere.  :class:`IntMatrix` holds Python ints.  :class:`RatMatrix` holds
one scaled-integer representation: integer numerators over one positive
common denominator, reduced by their gcd so that equal matrices have equal
fields.  Its arithmetic is products, transpose and the integrality test
only.  These, the determinant, exact solve and LDL^T run on ints;
``RatMatrix.entries`` is a derived Fraction view used for output.
Matrices are values: every operation returns a new matrix.
Both classes multiply through one packed-row integer product (Kronecker
substitution, see ``_product``), and ``det``, ``solve_exact`` (so
``inverse``) and ``ldl`` share one packed-row fraction-free elimination
(``_eliminate``), whose field width the Hadamard bound fixes.  ``hnf``,
``kernel_basis`` and ``snf`` share one per-entry Euclid engine,
``_hnf_transform``, which repeats each row operation on companion rows (a
transform, or none); ``snf`` alternates it on the matrix and its
transpose.  Their entries have no a-priori bound.

Entries are checked to be ints only where data enters, in the public
constructors and ``from_rows``; this module's own results are built by the
trusted ``_im``/``_rm`` (``_rm`` still reduces by the gcd), as are the batched
products' operands in ``roots``, ints by construction.  Operators check
their operand's type, so mixing the two classes raises ``TypeError``.

Row-vector convention: vectors are rows and maps act on the right
(``x -> x @ m``), so the kernel of ``m`` is ``{x : x @ m = 0}`` and the row
span of ``m`` is the image of ``Z^rows``.  All normal forms (HNF, SNF) are
deterministic: identical inputs give identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, lcm, prod
from operator import add, lshift, mul
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Union[int, Fraction]


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class NoSolution(Exception):
    """The linear system passed to :func:`solve_exact` is inconsistent."""


class NotPositiveDefinite(ValueError):
    """The matrix passed to :func:`ldl` has a leading minor <= 0."""


def _as_int(x: object) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


def _as_frac(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"rational entry expected, got {x!r}")


def _check_ints(rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
    if rows < 0 or cols < 0:
        raise ShapeError("negative matrix dimension")
    if len(entries) != rows:
        raise ShapeError("row count does not match entries")
    for row in entries:
        if len(row) != cols:
            raise ShapeError("ragged rows")
        if not all(type(e) is int for e in row):
            for e in row:
                _as_int(e)


def _transpose(entries, rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*entries)) if rows else ((),) * cols


def _magnitude(rows) -> int:
    """The largest |entry| of integer rows, 0 when there is none."""
    values = set().union(*rows)  # few distinct values: cheaper than comparing all
    return max(max(values), -min(values)) if values else 0


class _Packing:
    """Rows of ``cols`` ints as one int of signed w-bit fields: row e packs to
    sum_j e_j 2^(w j) (Kronecker substitution).

    Sums, multiples and exact quotients of packed rows are the packed rows of
    the entrywise results, whatever carries pass between fields on the way.  A
    field in (-half, half), half = 2^(w-1), reads back exactly: adding ``bias``,
    half in every field, leaves each in [0, 2^w), so a shift and mask read it.
    """

    def __init__(self, w: int, cols: int) -> None:
        self.w, self.mask, self.half = w, (1 << w) - 1, 1 << (w - 1)
        self.shifts = range(0, w * cols, w)
        self.bias = sum(self.half << s for s in self.shifts)

    def pack(self, row: Sequence[int]) -> int:
        return sum(map(lshift, row, self.shifts))

    def field(self, v: int, j: int) -> int:
        """Field j of the packed row v."""
        return (((v + self.bias) >> (self.w * j)) & self.mask) - self.half

    def read(self, v: int, start: int = 0) -> list[int]:
        """Fields start, start + 1, ... of the packed row v."""
        v += self.bias
        mask, half = self.mask, self.half
        return [((v >> s) & mask) - half for s in self.shifts[start:]]


def _product(a, b, cols: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the integer product a b, b with ``cols`` columns.

    Row i of a b packs to the sum of a[i][k] P_k over the nonzero a[i][k],
    P_k row k of b packed.  No entry exceeds n max|a| max|b| in size, so
    fields one bit wider than that bound read every entry back.
    """
    p = _Packing((len(b) * _magnitude(a) * _magnitude(b)).bit_length() + 1, cols)
    packed = list(map(p.pack, b))
    return tuple(tuple(p.read(sum(map(mul, compress(row, row), compress(packed, row)))))
                 for row in a)


class IntMatrix:
    """Integer matrix; ``entries`` is a row-major tuple of tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        _check_ints(rows, cols, entries)
        self.rows, self.cols, self.entries = rows, cols, entries

    def __eq__(self, other) -> bool:  # never equal to a RatMatrix or a tuple
        return isinstance(other, IntMatrix) and (
            (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        if cols is None:
            if not data:
                raise ShapeError("column count required for a matrix with no rows")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return _im(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return _im(self.cols, self.rows, _transpose(self.entries, self.rows, self.cols))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("size mismatch in addition")
        return _im(self.rows, self.cols, tuple(tuple(map(add, ra, rb))
                                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        k = _as_int(k)
        return _im(self.rows, self.cols, tuple(tuple(k * a for a in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("size mismatch in multiplication")
        return _im(self.rows, other.cols,
                   _product(self.entries, other.entries, other.cols))

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(e == (1 if i == j else 0)
                        for i, row in enumerate(self.entries) for j, e in enumerate(row)))

    def to_rat(self) -> "RatMatrix":
        return _rm(self.rows, self.cols, self.entries)


class RatMatrix:
    """Rational matrix: entry (i, j) is ``num[i][j] / den``.

    ``den`` is positive and coprime to the gcd of all numerators, so the
    representation is canonical and equality and hashing of the fields are
    equality and hashing of the rational matrices.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, num: tuple[tuple[int, ...], ...],
                 den: int = 1) -> None:
        _check_ints(rows, cols, num)
        if _as_int(den) == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        self.rows, self.cols, self.num, self.den = rows, cols, num, den
        self._reduce()

    def __eq__(self, other) -> bool:  # never equal to an IntMatrix or a tuple
        return isinstance(other, RatMatrix) and ((self.rows, self.cols, self.num, self.den)
                                                 == (other.rows, other.cols, other.num, other.den))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.num, self.den))

    def _reduce(self) -> None:
        """Divide numerators and denominator by their gcd, signed so den > 0."""
        g = 1 if self.den == 1 else gcd(self.den, *(e for row in self.num for e in row))
        g = -g if self.den < 0 else g
        if g != 1:
            self.num = tuple(tuple(e // g for e in row) for row in self.num)
            self.den //= g

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Rational]], cols: int | None = None) -> "RatMatrix":
        data = [[_as_frac(e) for e in row] for row in rows]
        if cols is None:
            if not data:
                raise ShapeError("column count required for a matrix with no rows")
            cols = len(data[0])
        den = lcm(*(e.denominator for row in data for e in row))
        return cls(len(data), cols,
                   tuple(tuple(e.numerator * (den // e.denominator) for e in row)
                         for row in data), den)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return IntMatrix.identity(n).to_rat()

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num)

    def transpose(self) -> "RatMatrix":
        return _rm(self.cols, self.rows, _transpose(self.num, self.rows, self.cols), self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("size mismatch in multiplication")
        return _rm(self.rows, other.cols,
                   _product(self.num, other.num, other.cols), self.den * other.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def to_int(self) -> IntMatrix:
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return _im(self.rows, self.cols, self.num)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.num == _transpose(self.num, self.rows,
                                                                  self.cols)


def _im(rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """An IntMatrix of entries that are ints by construction, unchecked."""
    m = object.__new__(IntMatrix)
    m.rows, m.cols, m.entries = rows, cols, entries
    return m


def _rm(rows: int, cols: int, num: tuple[tuple[int, ...], ...], den: int = 1) -> RatMatrix:
    """A RatMatrix of int numerators and nonzero den, unchecked but reduced."""
    m = object.__new__(RatMatrix)
    m.rows, m.cols, m.num, m.den = rows, cols, num, den
    m._reduce()
    return m


def block_diagonal(parts: Sequence[RatMatrix]) -> RatMatrix:
    """Block-diagonal matrix of the given blocks, which need not be square."""
    den = lcm(*(p.den for p in parts))
    cols = sum(p.cols for p in parts)
    rows = []
    off = 0
    for p in parts:
        k = den // p.den
        for row in p.num:
            rows.append((0,) * off + tuple(k * e for e in row)
                        + (0,) * (cols - off - p.cols))
        off += p.cols
    return _rm(len(rows), cols, tuple(rows), den)


class SmithDecomposition(NamedTuple):
    """SNF data: ``u @ a @ v`` is the diagonal of ``invariant_factors``.

    ``invariant_factors`` has ``min(rows, cols)`` nonnegative entries with
    d1 | d2 | ... ; trailing zeros pad out rank deficiency.  ``u`` and ``v``
    are unimodular.
    """

    invariant_factors: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix


def _hnf_transform(h: list[Sequence[int]], u: list[Sequence[int]]) -> None:
    """Reduce the rows ``h`` to row HNF in place, applying every row operation
    to the companion rows ``u`` too: from an identity, u @ m = h ends unimodular.
    Rows are replaced, never changed, so they may be tuples.

    Zero rows of h sit at the bottom; pivots are positive and entries above
    each pivot are reduced into [0, pivot).
    """
    n, c = len(h), len(h[0]) if h else 0
    piv = 0
    for col in range(c):
        # Euclid downward in this column until at most one nonzero remains.
        while True:
            nz = [i for i in range(piv, n) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != piv:
                h[piv], h[i0] = h[i0], h[piv]
                u[piv], u[i0] = u[i0], u[piv]
            p = h[piv][col]
            done = True
            for i in range(piv + 1, n):
                if h[i][col] != 0:
                    q = h[i][col] // p
                    h[i] = [a - q * b for a, b in zip(h[i], h[piv])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[piv])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if piv < n and h[piv][col] != 0:
            if h[piv][col] < 0:
                h[piv] = [-a for a in h[piv]]
                u[piv] = [-a for a in u[piv]]
            p = h[piv][col]
            for i in range(piv):
                q = h[i][col] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[piv])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[piv])]
            piv += 1


def hnf(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form with zero rows dropped.

    The integer row span is preserved exactly; pivots are positive, strictly
    right of the pivot above, and entries above a pivot lie in [0, pivot).
    """
    h = list(m.entries)
    _hnf_transform(h, [()] * m.rows)
    kept = tuple(tuple(row) for row in h if any(row))
    return _im(len(kept), m.cols, kept)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel ``{x : x @ m = 0}``.

    The rows returned extend to a basis of Z^rows, so the kernel lattice is
    primitive (saturated); the basis itself is put in HNF for determinism.
    """
    h, u = list(m.entries), list(IntMatrix.identity(m.rows).entries)
    _hnf_transform(h, u)
    kernel_rows = tuple(tuple(u[i]) for i in range(m.rows) if not any(h[i]))
    return hnf(_im(len(kernel_rows), m.rows, kernel_rows)) if kernel_rows else _im(0, m.rows, ())


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both unimodular transforms (always computed).

    Row HNF passes on the matrix (carrying u) alternate with row HNF passes on
    its transpose (carrying v^T) until it is diagonal (Kannan and Bachem,
    SIAM J. Comput. 8, 1979), with positive entries leading.  Then each pair
    d_i, d_j with d_i not dividing d_j becomes g = gcd, d_i p (p = d_j/g,
    q = d_i/g, x d_i + y d_j = g):
    [[x, y], [-p, q]] diag(d_i, d_j) [[1, -y p], [1, x q]] = diag(g, d_i p).
    """
    r, c = m.rows, m.cols
    a = list(m.entries)
    u, vt = list(IntMatrix.identity(r).entries), list(IntMatrix.identity(c).entries)
    while True:
        _hnf_transform(a, u)
        a = list(_transpose(a, r, c))
        _hnf_transform(a, vt)
        a = list(_transpose(a, c, r))
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
            break
    d = [a[i][i] for i in range(min(r, c))]
    rank = sum(1 for e in d if e)
    for i in range(rank):
        for j in range(i + 1, rank):
            if d[j] % d[i]:
                # x, y: the first transform row of an HNF pass over (d_i, d_j).
                col, xy = [(d[i],), (d[j],)], [(1, 0), (0, 1)]
                _hnf_transform(col, xy)
                (g,), (x, y) = col[0], xy[0]
                p, q = d[j] // g, d[i] // g
                d[i], d[j] = g, d[i] * p
                u[i], u[j] = ([x * e + y * f for e, f in zip(u[i], u[j])],
                              [q * f - p * e for e, f in zip(u[i], u[j])])
                vt[i], vt[j] = ([e + f for e, f in zip(vt[i], vt[j])],
                                [x * q * f - y * p * e for e, f in zip(vt[i], vt[j])])
    return SmithDecomposition(tuple(d), _im(r, r, tuple(map(tuple, u))),
                              _im(c, c, _transpose(vt, c, c)))


def _eliminate(rows: Sequence[Sequence[int]], cols: int, steps: int, jordan: bool = False):
    """Fraction-free (Bareiss) elimination of integer rows, each packed in one int.

    In each of the first ``steps`` columns the first remaining row with an
    entry pv != 0 there becomes the pivot row top, and every remaining row
    (with ``jordan`` also every earlier pivot row) becomes (pv row - f top) //
    prev, f its entry and prev the last pivot.  Each entry formed is a minor,
    so the division is exact on the packed int, whatever carries pass between
    the fields of pv row - f top, and no entry read exceeds the Hadamard bound
    H = prod (isqrt(|row|^2) + 1), which w = bit_length(H) + 1 holds.
    Returns (packing, pivot rows, remaining rows, [(column, position among the
    remaining rows, pv) per pivot row]), rows packed, pivot rows in order.
    """
    h = prod(isqrt(sum(map(mul, row, row))) + 1 for row in rows)
    p = _Packing(h.bit_length() + 1, cols)
    todo, done, pivots, prev = list(map(p.pack, rows)), [], [], 1
    for col in range(steps):
        f = [p.field(v, col) for v in todo]
        i = next(compress(count(), f), None)
        if i is None:
            continue
        pv, top = f.pop(i), todo.pop(i)
        todo = [(pv * v - e * top) // prev for v, e in zip(todo, f)]
        if jordan:
            done = [(pv * v - p.field(v, col) * top) // prev for v in done]
        done.append(top)
        pivots.append((col, i, pv))
        prev = pv
    return p, done, todo, pivots


def det(m: IntMatrix | RatMatrix) -> Fraction:
    """Exact determinant: the last Bareiss pivot, signed by the row moves."""
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    rows, den = (m.num, m.den ** m.rows) if isinstance(m, RatMatrix) else (m.entries, 1)
    pivots = _eliminate(rows, m.rows, m.rows)[3]
    if len(pivots) < m.rows:
        return Fraction(0)
    sign = -1 if sum(i for _, i, _ in pivots) % 2 else 1
    return Fraction(sign * pivots[-1][2], den) if pivots else Fraction(1)


def ldl(m: RatMatrix) -> tuple[list[int], list[list[int]]]:
    """LDL^T of the numerators in integers, as (p, a) with
    x m.num x^T = sum_k t_k^2 / (p[k] D_k), t_k = p[k] x_k + sum_{j>k} a[k][j] x_j.

    One Bareiss pass: p[k] is the leading minor D_{k+1} of ``m.num``
    (D_0 = 1) and a[k][j], j > k, is row k when it is the pivot row, an
    integer minor; entries left of the pivot are 0.  Raises
    :class:`NotPositiveDefinite` at the first D_k <= 0, where row k is not
    its own pivot row or its pivot is not positive.
    """
    n = m.rows
    p, done, _, pivots = _eliminate(m.num, n, n)
    k = next((k for k, (col, i, pv) in enumerate(pivots) if (col, i) != (k, 0) or pv <= 0),
             len(pivots))
    if k < n:
        raise NotPositiveDefinite(f"leading minor {k + 1} is not positive")
    return [pv for _, _, pv in pivots], list(map(p.read, done))


def solve_exact(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Solve ``x @ a = b`` exactly; raises :class:`NoSolution` if inconsistent.

    ``a`` is n x m and ``b`` is k x m; the result is k x n.  When the system
    is underdetermined the solution with zero free coordinates is returned,
    which makes the output canonical.  Fraction-free Gauss-Jordan on the
    numerators (``_eliminate``) ends every pivot row on the last pivot.
    """
    if a.cols != b.cols:
        raise ShapeError("right-hand side has wrong width")
    n, m_ = a.rows, a.cols
    k = b.rows
    # Transpose to column form: a^T y = b^T with y = x^T.
    aug = [ac + bc for ac, bc in zip(_transpose(a.num, n, m_), _transpose(b.num, k, m_))]
    p, done, rest, pivots = _eliminate(aug, n + k, n, jordan=True)
    # Rows that are no pivot row are 0 left of column n.
    if any(rest):
        raise NoSolution("inconsistent linear system")
    # x a.num / a.den = b.num / b.den  <=>  x a.num = b.num (a.den / b.den).
    x = [[0] * n for _ in range(k)]
    for (col, _, _), v in zip(pivots, done):
        for t, e in enumerate(p.read(v, n)):
            x[t][col] = e * a.den
    return _rm(k, n, tuple(map(tuple, x)), (pivots[-1][2] if pivots else 1) * b.den)


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse of a square nonsingular rational matrix."""
    if a.rows != a.cols:
        raise ShapeError("inverse of a non-square matrix")
    try:
        # x @ a = I forces a to have full rank, so x is the two-sided inverse.
        return solve_exact(a, RatMatrix.identity(a.rows))
    except NoSolution:
        raise NoSolution("matrix is singular") from None
