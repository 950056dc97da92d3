"""Exact integer and rational matrix algebra.

Everything in this module is pure and exact, with no floating point
anywhere.  :class:`IntMatrix` holds Python ints and carries the algebra:
products, normal forms, determinant, exact solve and LDL^T.
:class:`RatMatrix` holds computed rational rows (dual-class weights, glue
and glued bases) as a numerator ``IntMatrix`` ``num`` over one positive
``den``, reduced by their gcd; it has a product, callers compute with
``num`` and ``den``, and ``entries`` is a Fraction view.
Matrices are values: every operation returns a new matrix.
Both classes multiply through one packed-row integer product (Kronecker
substitution, see ``_product``), and ``det`` and ``ldl`` share one
packed-row fraction-free elimination (``_eliminate``), whose field width
the Hadamard bound fixes.  ``hnf``, ``kernel_basis``, ``snf`` and
``solve_exact`` (so ``inverse``) share one per-entry Euclid engine,
``_hnf_transform``, which repeats each row operation on companion rows (a
transform, or none); ``snf`` alternates it on the matrix and its
transpose, and ``solve_exact`` back-substitutes along its pivots (Cohen,
*A Course in Computational Algebraic Number Theory*, 2.4).  Their entries
have no a-priori bound.

Entries are checked to be ints only where data enters, in the
``IntMatrix`` constructor and ``from_rows``; this module's own results are
built by the trusted ``_im``, as are other ints by construction: the
batched products' operands in ``roots``, glued Grams and assembled maps.
Operators check their operand's type, so mixing the two classes raises
``TypeError``.

Row-vector convention: vectors are rows and maps act on the right
(``x -> x @ m``), so the kernel of ``m`` is ``{x : x @ m = 0}`` and the row
span of ``m`` is the image of ``Z^rows``.  All normal forms (HNF, SNF) are
deterministic: identical inputs give identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, prod
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

    def read(self, v: int) -> list[int]:
        """The fields of the packed row v."""
        v += self.bias
        mask, half = self.mask, self.half
        return [((v >> s) & mask) - half for s in self.shifts]


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
        return self == IntMatrix.identity(self.rows)


class RatMatrix:
    """Rational matrix ``num / den``: an :class:`IntMatrix` of numerators
    over one positive denominator.

    The constructor divides ``num`` and ``den`` by their gcd, signed so that
    ``den > 0``, so the representation is canonical and equality and hashing
    of ``(num, den)`` are equality and hashing of the rational matrices.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntMatrix, den: int = 1) -> None:
        if not isinstance(num, IntMatrix):
            raise TypeError(f"numerators must be an IntMatrix, not {type(num).__name__}")
        if _as_int(den) == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        g = 1 if den == 1 else gcd(den, *(e for row in num.entries for e in row))
        g = -g if den < 0 else g
        if g != 1:
            num = _im(num.rows, num.cols, tuple(tuple(e // g for e in row) for row in num.entries))
        self.num, self.den = num, den // g

    def __eq__(self, other) -> bool:  # never equal to an IntMatrix or a tuple
        return isinstance(other, RatMatrix) and (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    rows = property(lambda self: self.num.rows)
    cols = property(lambda self: self.num.cols)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num.entries)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("size mismatch in multiplication")
        # _product, not num @ num, so a rational product is not counted as an integer one.
        return RatMatrix(_im(self.rows, other.cols, _product(
            self.num.entries, other.num.entries, other.cols)), self.den * other.den)


def _im(rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """An IntMatrix of entries that are ints by construction, unchecked."""
    m = object.__new__(IntMatrix)
    m.rows, m.cols, m.entries = rows, cols, entries
    return m


def block_diagonal(parts: Sequence[IntMatrix]) -> IntMatrix:
    """Block-diagonal matrix of the given blocks, which need not be square."""
    cols = sum(p.cols for p in parts)
    rows = []
    off = 0
    for p in parts:
        rows += [(0,) * off + row + (0,) * (cols - off - p.cols) for row in p.entries]
        off += p.cols
    return IntMatrix(len(rows), cols, tuple(rows))  # checked: blocks are caller data


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


def _eliminate(rows: Sequence[Sequence[int]], cols: int, steps: int):
    """Fraction-free (Bareiss) elimination of integer rows, each packed in one int.

    In each of the first ``steps`` columns the first remaining row with an
    entry pv != 0 there becomes the pivot row top, and every remaining row
    becomes (pv row - f top) // prev, f its entry and prev the last pivot.
    Each entry formed is a minor, so the division is exact on the packed
    int, whatever carries pass between the fields of pv row - f top, and no
    entry read exceeds the Hadamard bound H = prod (isqrt(|row|^2) + 1),
    which w = bit_length(H) + 1 holds.
    Returns (packing, pivot rows, [(column, position among the remaining
    rows, pv) per pivot row]), pivot rows packed and in order.
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
        done.append(top)
        pivots.append((col, i, pv))
        prev = pv
    return p, done, pivots


def det(m: IntMatrix) -> int:
    """Exact determinant: the last Bareiss pivot, signed by the row moves."""
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    pivots = _eliminate(m.entries, m.rows, m.rows)[2]
    if len(pivots) < m.rows:
        return 0
    sign = -1 if sum(i for _, i, _ in pivots) % 2 else 1
    return sign * pivots[-1][2] if pivots else 1


def ldl(m: IntMatrix) -> tuple[list[int], list[list[int]]]:
    """LDL^T of a symmetric integer matrix in integers, as (p, a) with
    x m x^T = sum_k t_k^2 / (p[k] D_k), t_k = p[k] x_k + sum_{j>k} a[k][j] x_j.

    One Bareiss pass: p[k] is the leading minor D_{k+1} of ``m``
    (D_0 = 1) and a[k][j], j > k, is row k when it is the pivot row, an
    integer minor; entries left of the pivot are 0.  Raises
    :class:`NotPositiveDefinite` at the first D_k <= 0, where row k is not
    its own pivot row or its pivot is not positive.
    """
    n = m.rows
    p, done, pivots = _eliminate(m.entries, n, n)
    k = next((k for k, (col, i, pv) in enumerate(pivots) if (col, i) != (k, 0) or pv <= 0),
             len(pivots))
    if k < n:
        raise NotPositiveDefinite(f"leading minor {k + 1} is not positive")
    return [pv for _, _, pv in pivots], list(map(p.read, done))


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The integer x with ``x @ a = b``; raises :class:`NoSolution` when a
    row of ``b`` is not in the integer row span of ``a``.

    ``a`` is n x m and ``b`` is k x m; the result is k x n, the only
    solution when ``a`` has full row rank (otherwise one of them).  With
    u @ a = h the row HNF of ``a`` (``_hnf_transform``), each row of ``b``
    is reduced along the pivots of h, top down, one exact division per
    pivot, to y with y @ h = b, and x = y @ u.  Rows of h below a pivot are
    zero in its column, so each quotient is forced.
    """
    if a.cols != b.cols:
        raise ShapeError("right-hand side has wrong width")
    n = a.rows
    h, u = list(a.entries), list(IntMatrix.identity(n).entries)
    _hnf_transform(h, u)
    pivots = [(i, next(compress(count(), row))) for i, row in enumerate(h) if any(row)]
    ys = []
    for rest in b.entries:
        y = [0] * n
        for i, col in pivots:
            y[i], r = divmod(rest[col], h[i][col])
            if r:
                break  # rest[col] stays nonzero
            if y[i]:
                rest = [e - y[i] * f for e, f in zip(rest, h[i])]
        if any(rest):
            raise NoSolution("right-hand side is not in the integer row span")
        ys.append(tuple(y))
    return _im(b.rows, n, tuple(ys)) @ _im(n, n, tuple(map(tuple, u)))


def inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a square unimodular integer matrix; raises
    :class:`NoSolution` for any other square matrix."""
    if a.rows != a.cols:
        raise ShapeError("inverse of a non-square matrix")
    try:
        # x @ a = I in integers forces det a = +-1, so x is the two-sided inverse.
        return solve_exact(a, IntMatrix.identity(a.rows))
    except NoSolution:
        raise NoSolution("matrix is not unimodular") from None
