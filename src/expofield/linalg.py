"""Exact linear algebra: rational solve/kernel, integer kernels and lattice
bases, and rank over the rational-function field.

Matrices are plain lists of lists.  ``_rref`` is Gauss-Jordan over any field
whose elements support ``bool``, ``+``, ``-``, ``*`` and ``/``; the rational
routines feed it Fraction entries.  The function-field rank is one exact
forward elimination by division over FieldElem entries.

Gauss-Jordan does no arithmetic by zero or one: a row update touches only
the columns where the pivot row is nonzero, and a pivot row that is 1 at its
pivot is not scaled.  The reduced form is unique, so this changes the cost,
not the rows or pivots; the dense loop lives on as a test oracle.

Field elements enter linear algebra over one common denominator D, the
product of their distinct denominators: ``coordinate_matrix`` lays the
cleared numerators out as a dense matrix, and ``SpanBasis`` keeps their
span as a sparse semi-echelon basis (rows of monomial -> Fraction dicts,
each 1 at a pivot that no later row has) and reduces one element at a time
against it.  Only this module knows D: ``SpanBasis`` takes field elements,
clears them itself, and rebuilds over a larger D when an element needs it.
``efield.hull`` builds one per call; every presentation builds one of its
graph arguments on its first ``e_eval`` and keeps it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import DimensionMismatch
from .mpoly import _grlex_key, _join_order


def _check_rect(rows) -> int:
    if not rows:
        return 0
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise DimensionMismatch("ragged matrix")
    return width


def _fraction(x) -> Fraction:
    return x if x.__class__ is Fraction else Fraction(x)


def _rref(rows):
    """Reduced row echelon form over the entries' field; returns
    (rref_rows, pivot_cols).  Entries must be field elements (Fraction or
    FieldElem), not ints, so that ``1 / pivot`` stays exact.

    The pivots are the greedy independent columns, leftmost first: column j
    is a pivot exactly when it is not in the span of the columns before it.
    Every column j is the sum of ``m[r][j]`` times pivot column r, for r
    below the rank; for a non-pivot column these are its coordinates in the
    pivot columns to its left, and ``m[r][j]`` is zero when pivot r lies to
    its right."""
    m = [list(row) for row in rows]
    ncols = _check_rect(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        # entries left of c are zero in every row from r on
        nz = [j for j in range(c, ncols) if row[j]]
        if row[c] != 1:
            inv = 1 / row[c]
            for j in nz:
                row[j] = row[j] * inv
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                other = m[i]
                for j in nz:
                    other[j] = other[j] - f * row[j]
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
    aug = [[_fraction(x) for x in row] + [_fraction(t)]
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
    m, pivots = _rref([[_fraction(x) for x in row] for row in rows])
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
    # clear denominators row by row, in integers
    m = []
    for row in rows:
        fr = [_fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fr))
        m.append([x.numerator * (den // x.denominator) for x in fr])
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


def denominators(elems, dens=()) -> list:
    """``dens`` and then the distinct denominators of field elements that
    it lacks, in order of appearance.  Their product is the common
    denominator D that ``coordinate_matrix`` and ``SpanBasis`` clear by."""
    dens = list(dens)
    for e in elems:
        if not any(d == e.den for d in dens):
            dens.append(e.den)
    return dens


def _clear(e, dens):
    """The numerator of e * D when e.den is one of ``dens``, else None."""
    p, found = e.num, False
    for d in dens:
        if not found and d == e.den:
            found = True
        else:
            p = p * d
    return p if found else None


def coordinate_matrix(elems):
    """Columns of rational coordinates for field elements.

    All elements are brought over a common denominator (the product of the
    distinct denominators); rows are indexed by the monomials of the cleared
    numerators, in a deterministic order.  Q-linear relations among the
    elements are exactly the kernel vectors of this matrix.
    """
    if not elems:
        return []
    reduce(_join_order, (e.order for e in elems))  # mixed orders raise
    dens = denominators(elems)
    cleared = [_clear(e, dens) for e in elems]
    support = []
    seen = set()
    for p in cleared:
        for mono in p.terms:
            if mono not in seen:
                seen.add(mono)
                support.append(mono)
    syms = sorted({s for mono in support for s, _ in mono})
    support.sort(key=lambda m: _grlex_key(m, syms))
    zero = Fraction(0)
    return [[p.terms.get(mono, zero) for p in cleared] for mono in support]


class SpanBasis:
    """Semi-echelon basis of the Q-span of the field elements offered to it.

    This is the one place that decides how an element is cleared: by one
    common denominator D, the product of the distinct denominators
    ``dens``, into the coefficient map of a polynomial, a dict from
    monomial to a nonzero Fraction.  Multiplying by D is injective and
    Q-linear, so which elements are independent, their coordinates and the
    relations among them do not depend on D.  A row is such a map scaled to
    1 at its pivot monomial, which no later row has.  An element is reduced
    against the rows in insertion order, so its residue has no pivot
    monomial, and it lies in the span exactly when the residue is empty;
    the residue map is Q-linear.  This is the sum of subspaces by Gaussian
    elimination (H. Cohen, *A Course in Computational Algebraic Number
    Theory*, GTM 138, section 2.3), kept sparse: a reduction touches only
    the pivots present and the monomials of their rows.

    ``add`` and ``residue`` take elements that D clears, such as the ones
    named to ``covering``, which returns a basis over a D that clears them.
    ``coordinates`` takes any element and, when D does not clear it, solves
    on a covering basis of its own, so the basis never grows by it.

    With ``track``, each row keeps its coordinates in the offered elements,
    by their index, so ``coordinates`` solves for an element in the span;
    an offered element already in the span adds no row and keeps coordinate
    0, as in the greedy pivots of ``qlin_solve``.
    """

    def __init__(self, elems, track: bool = False, dens=()):
        elems = list(elems)
        self.dens = denominators(elems, dens)
        self.track = track
        self.elems = []  # offered, in order
        self.rows = []  # (pivot, row, coordinates or None)
        for e in elems:
            self.add(e)

    def covering(self, elems) -> "SpanBasis":
        """This basis when D clears every one of ``elems``, else the basis
        of the same offered elements over a D that also clears them."""
        dens = denominators(elems, self.dens)
        if len(dens) == len(self.dens):
            return self
        return SpanBasis(self.elems, self.track, dens)

    def _reduce(self, e):
        """(residue, coordinates): e * D minus the combination of rows that
        clears every pivot, and the coordinates of that combination in the
        offered elements (None without ``track``)."""
        p = _clear(e, self.dens)
        if p is None:
            raise ValueError(f"{e} is not cleared by this basis; see covering")
        v = dict(p.terms)
        coords = {} if self.track else None
        for pivot, row, row_coords in self.rows:
            c = v.get(pivot)
            if c is None:
                continue
            for mono, x in row.items():
                s = v.get(mono)
                if s is None:
                    v[mono] = -c * x
                else:
                    s = s - c * x
                    if s:
                        v[mono] = s
                    else:
                        del v[mono]
            if coords is not None:
                for i, y in row_coords.items():
                    s = coords.get(i)
                    coords[i] = c * y if s is None else s + c * y
        return v, coords

    def residue(self, e) -> dict:
        """The residue of e, which D must clear: empty exactly when e lies
        in the span."""
        return self._reduce(e)[0]

    def add(self, e) -> bool:
        """Offer e, which D must clear; True when it was outside the span
        and became a row."""
        v, coords = self._reduce(e)
        index = len(self.elems)
        self.elems.append(e)
        if not v:
            return False
        pivot = next(iter(v))
        inv = 1 / v[pivot]
        if inv != 1:
            v = {mono: x * inv for mono, x in v.items()}
        row_coords = None
        if coords is not None:
            # row = (e * D - sum coords[i] * offered_i * D) * inv
            row_coords = {i: -y * inv for i, y in coords.items()}
            row_coords[index] = inv
        self.rows.append((pivot, v, row_coords))
        return True

    def coordinates(self, e):
        """Coordinates of e in the offered elements, as Fractions, or None
        when it lies outside their span.  Needs ``track``."""
        v, coords = self.covering([e])._reduce(e)
        if v:
            return None
        zero = Fraction(0)
        return [coords.get(i, zero) for i in range(len(self.elems))]


def rational_span_solve(basis_elems, target):
    """Coordinates of ``target`` in the Q-span of ``basis_elems`` (or None)."""
    return SpanBasis(basis_elems, track=True).coordinates(target)


# -- rank over the function field ------------------------------------------


def ff_rank(matrix) -> int:
    """Rank of a FieldElem matrix over the rational-function field.

    Forward elimination, dividing by each pivot.  On the amalg-n benchmark's
    Jacobians (single-term numerators and denominators) this took 0.55-0.6x
    the time of fraction-free Bareiss elimination on denominator-cleared
    rows, which also needed a second path for entries carrying zeta.  Full
    Gauss-Jordan (``_rref``) took 1.6x Bareiss there, so rows above each
    pivot are left alone.  Updating only the pivot row's nonzero columns, as
    ``_rref`` does, was no faster on those Jacobians: few rows below a pivot
    need updating, and finding the nonzero columns costs what it saves.
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
