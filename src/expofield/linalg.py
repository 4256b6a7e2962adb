"""Exact linear algebra: rational solve/kernel, integer lattices, and rank
over the rational-function field.

Matrices are plain lists of lists.  ``_rref`` is Gauss-Jordan over any field
whose elements support ``bool``, ``+``, ``-``, ``*`` and ``/``, and over Q
with int and Fraction entries, which it keeps exact: no entry is ever a
float.  The function-field rank is one exact forward elimination by
division over FieldElem entries.

``hermite_form`` is the one integer elimination.  Every lattice basis the
library prints is a Hermite normal form, so it depends only on the lattice.

Gauss-Jordan does no arithmetic by zero or one: a row update touches only
the columns where the pivot row is nonzero, and a pivot row that is 1 at its
pivot is not scaled.  The reduced form is unique, so this changes the cost,
not the rows or pivots; the dense loop lives on as a test oracle.

Field elements enter linear algebra over one common denominator D, the
product of their distinct denominators: ``coordinate_matrix`` lays the
cleared numerators out as a dense matrix, and ``SpanBasis`` keeps their
span as a sparse semi-echelon basis (rows of monomial -> rational dicts,
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
from .mpoly import _join_order, sorted_monomials


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


def _inverse(x):
    """1 / x, exact for an int x too, where ``1 / x`` would be a float; the
    inverse of 1 or -1 stays an int."""
    if x.__class__ is int:
        return x if x * x == 1 else Fraction(1, x)
    return 1 / x


def _rref(rows):
    """Reduced row echelon form over the entries' field; returns
    (rref_rows, pivot_cols).  Entries are ints, Fractions or FieldElems;
    a pivot is inverted exactly, as a Fraction for an int.

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
            inv = _inverse(row[c])
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


def hermite_form(rows):
    """(H, T) for an integer matrix.  H is its row-style Hermite normal form:
    nonzero rows whose pivots (first nonzero entries) are positive and move
    right row by row, with every entry above a pivot in [0, pivot).  It
    depends only on the Z-lattice the rows span (H. Cohen, GTM 138, section
    2.4.2).  T is unimodular with T * rows = H followed by zero rows, so
    T[len(H):] is a Z-basis of the left kernel {y : y * rows = 0}."""
    m = [list(row) for row in rows]
    t = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    r = 0
    for c in range(_check_rect(m)):
        for i in range(r + 1, len(m)):
            while m[i][c]:  # Euclid's algorithm on rows r and i
                q = m[r][c] // m[i][c]
                for a in (m, t):
                    a[r], a[i] = a[i], [x - q * y for x, y in zip(a[r], a[i])]
        if r == len(m) or not m[r][c]:
            continue
        if m[r][c] < 0:
            m[r], t[r] = [-x for x in m[r]], [-x for x in t[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                for a in (m, t):
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return m[:r], t


def _integer_columns(rows):
    """The columns of a rational matrix as integer rows, after clearing each
    of its rows of denominators (an int is its own numerator)."""
    cleared = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (den // x.denominator) for x in row])
    return [list(col) for col in zip(*cleared)]


def integer_kernel_basis(rows):
    """Z-basis of {z in Z^n : rows * z = 0} (a saturated lattice) in Hermite
    normal form: the left kernel of the transpose, read off the transform of
    its ``hermite_form``."""
    _check_rect(rows)
    h, t = hermite_form(_integer_columns(rows))
    return hermite_form(t[len(h):])[0]


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
    support = sorted_monomials({mono for p in cleared for mono in p.terms})
    return [[p.terms.get(mono, 0) for p in cleared] for mono in support]


class SpanBasis:
    """Semi-echelon basis of the Q-span of the field elements offered to it.

    This is the one place that decides how an element is cleared: by one
    common denominator D, the product of the distinct denominators
    ``dens``, into the coefficient map of a polynomial, a dict from
    monomial to a nonzero rational, an int or a Fraction.  Multiplying by
    D is injective and Q-linear, so which elements are independent, their
    coordinates and the relations among them do not depend on D.  A row is
    such a map scaled to 1 at its pivot monomial, which no later row has.
    An element is reduced against the rows in insertion order, so its
    residue has no pivot monomial, and it lies in the span exactly when the
    residue is empty; the residue map is Q-linear.  This is the sum of subspaces by Gaussian
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
        inv = _inverse(v[pivot])
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
        """Coordinates of e in the offered elements, as ints and Fractions,
        or None when it lies outside their span.  Needs ``track``."""
        v, coords = self.covering([e])._reduce(e)
        if v:
            return None
        zero = Fraction(0)
        return [coords.get(i, zero) for i in range(len(self.elems))]


def rational_span_solve(basis_elems, target):
    """Coordinates of ``target`` in the Q-span of ``basis_elems`` (or None)."""
    return SpanBasis(basis_elems, track=True).coordinates(target)


def integer_coordinates(elems):
    """Each element's coordinates in the greedy independent ones, each
    coordinate cleared of denominators: integer rows with their relations."""
    basis = SpanBasis(elems, track=True)
    return _integer_columns(list(zip(*map(basis.coordinates, elems))))


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
