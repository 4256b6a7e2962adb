"""Exact linear algebra: rational solve/kernel, integer kernels and lattice
bases, and rank over the rational-function field.

Matrices are plain lists of lists.  ``_rref`` is Gauss-Jordan over any field
whose elements support ``bool``, ``+``, ``-``, ``*`` and ``/``; the rational
routines feed it Fraction entries.  The function-field rank is one exact
forward elimination by division over FieldElem entries; a certified lower
bound from the rank at a random point mod p (ROADMAP direction 5a) would sit
in front of it, not beside it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch
from .fieldelem import FieldElem
from .mpoly import MPoly, _grlex_key


def _check_rect(rows) -> int:
    if not rows:
        return 0
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise DimensionMismatch("ragged matrix")
    return width


def _rref(rows):
    """Reduced row echelon form over the entries' field; returns
    (rref_rows, pivot_cols).  Entries must be field elements (Fraction or
    FieldElem), not ints, so that ``1 / pivot`` stays exact."""
    m = [list(row) for row in rows]
    ncols = _check_rect(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def qlin_solve(rows, target):
    """Exact solution of rows * x = target over Q, or None when unsolvable."""
    ncols = _check_rect(rows)
    if len(target) != len(rows):
        raise DimensionMismatch("target length does not match row count")
    aug = [[Fraction(x) for x in row] + [Fraction(t)]
           for row, t in zip(rows, target)]
    m, pivots = _rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def kernel_basis(rows):
    """Basis of the rational null space {x : rows * x = 0}."""
    ncols = _check_rect(rows)
    m, pivots = _rref([[Fraction(x) for x in row] for row in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def integer_kernel_basis(rows):
    """Z-basis of {z in Z^n : rows * z = 0} (a saturated lattice).

    Unimodular column reduction: columns of the tracking identity that end
    up annihilated by every row form the kernel basis.
    """
    ncols = _check_rect(rows)
    if ncols == 0:
        return []
    # clear denominators row by row
    m = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        m.append([int(x * lcm) for x in fr])
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    pivot_cols: set[int] = set()

    def _col_op(dst: int, src: int, q: int) -> None:
        for row in m:
            row[dst] -= q * row[src]
        for row in u:
            row[dst] -= q * row[src]

    for i in range(len(m)):
        active = [c for c in range(ncols) if c not in pivot_cols]
        while True:
            nz = [c for c in active if m[i][c]]
            if len(nz) <= 1:
                break
            a = min(nz, key=lambda c: abs(m[i][c]))
            for c in nz:
                if c == a:
                    continue
                _col_op(c, a, m[i][c] // m[i][a])
        nz = [c for c in active if m[i][c]]
        if nz:
            pivot_cols.add(nz[0])
    kernel = []
    for c in range(ncols):
        if c not in pivot_cols:
            kernel.append([u[r][c] for r in range(ncols)])
    return kernel


def integer_row_basis(rows):
    """Rows spanning the same Z-lattice, echelonized, with the unimodular
    transform: returns (basis_rows, transform) where basis = transform * rows
    and transform has integer entries."""
    if not rows:
        return [], []
    ncols = _check_rect(rows)
    m = [list(map(int, r)) for r in rows]
    t = [[1 if i == j else 0 for j in range(len(m))] for i in range(len(m))]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c]]
            if len(nz) <= 1:
                break
            a = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i == a:
                    continue
                q = m[i][c] // m[a][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[a])]
                t[i] = [x - q * y for x, y in zip(t[i], t[a])]
        nz = [i for i in range(r, len(m)) if m[i][c]]
        if nz:
            m[r], m[nz[0]] = m[nz[0]], m[r]
            t[r], t[nz[0]] = t[nz[0]], t[r]
            r += 1
    return m[:r], t[:r]


# -- Q-linear structure of field elements ---------------------------------


def coordinate_matrix(elems):
    """Columns of rational coordinates for field elements.

    All elements are brought over a common denominator (the product of the
    distinct denominators); rows are indexed by the monomials of the cleared
    numerators, in a deterministic order.  Q-linear relations among the
    elements are exactly the kernel vectors of this matrix.
    """
    if not elems:
        return []
    order = 1
    for e in elems:
        if e.order != 1:
            order = e.order
    dens = []
    for e in elems:
        if not any(d == e.den for d in dens):
            dens.append(e.den)
    cleared = []
    for e in elems:
        extra = MPoly.const(1, order)
        for d in dens:
            if d != e.den:
                extra = extra * d
        cleared.append(e.num * extra)
    support = []
    seen = set()
    for p in cleared:
        for mono in p.terms:
            if mono not in seen:
                seen.add(mono)
                support.append(mono)
    syms = sorted({s for mono in support for s, _ in mono})
    support.sort(key=lambda m: _grlex_key(m, syms))
    rows = []
    for mono in support:
        rows.append([p.terms.get(mono, Fraction(0)) for p in cleared])
    return rows


def rational_span_solve(basis_elems, target):
    """Coordinates of ``target`` in the Q-span of ``basis_elems`` (or None)."""
    mat = coordinate_matrix(list(basis_elems) + [target])
    cols = len(basis_elems)
    rows = [r[:cols] for r in mat]
    rhs = [r[cols] for r in mat]
    return qlin_solve(rows, rhs)


def qlin_relations(elems, integral: bool = True):
    """Relation vectors z with sum z_i * elems_i = 0.

    Integral mode returns a saturated Z-basis; otherwise a rational basis.
    """
    mat = coordinate_matrix(elems)
    if integral:
        return integer_kernel_basis(mat)
    return kernel_basis(mat)


# -- rank over the function field ------------------------------------------


def ff_rank(matrix) -> int:
    """Rank of a FieldElem matrix over the rational-function field.

    Forward elimination, dividing by each pivot.  On the amalg-n benchmark's
    Jacobians (single-term numerators and denominators) this took 0.55-0.6x
    the time of fraction-free Bareiss elimination on denominator-cleared
    rows, which also needed a second path for entries carrying zeta.  Full
    Gauss-Jordan (``_rref``) took 1.6x Bareiss there, so rows above each
    pivot are left alone.
    """
    if not matrix:
        return 0
    _check_rect(matrix)
    m = [list(row) for row in matrix]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def jacobian(elems, params):
    """Matrix of partial derivatives of ``elems`` by ``params``."""
    return [[e.derivative(p) for p in params] for e in elems]


def jacobian_rank(elems, params) -> int:
    if not params:
        return 0
    return ff_rank(jacobian(list(elems), list(params)))
