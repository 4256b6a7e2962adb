"""Exact linear algebra: rational solve/kernel, integer lattices, and rank
over the rational-function field.

Matrices are plain lists of lists.  ``_rref`` is Gauss-Jordan over any field
whose elements support ``bool``, ``+``, ``-``, ``*`` and ``/``, and over Q
with int and Fraction entries, which it keeps exact: no entry is ever a
float.  The function-field rank is one exact elimination over sparse rows
of FieldElem entries, dense rows included.

``hermite_form`` is the one integer elimination.  Every lattice basis the
library prints is a Hermite normal form, so it depends only on the lattice.

Gauss-Jordan does no arithmetic by zero or one: a row update touches only
the columns where the pivot row is nonzero, and a pivot row that is 1 at its
pivot is not scaled.  The reduced form is unique, so this changes the cost,
not the rows or pivots; the dense loop lives on as a test oracle.

Field elements enter linear algebra over one common denominator D, the
product of their distinct ``denominators``, which also rejects mixed
cyclotomic orders.  ``SpanBasis`` keeps their span as a sparse
semi-echelon basis (rows of monomial -> rational dicts, each 1 at a pivot
that no later row has) and reduces one element at a time against it.
Only this module knows D: ``SpanBasis`` clears field elements itself, and
rebuilds over a larger D when an element needs it.  ``span_matrix`` reads
coordinates off one; each ``efield.HullBasis`` and each presentation's
validation builds one.  ``coordinate_matrix``, the cleared numerators as a
dense matrix, is the reference path: ``variety.freeness_oracle`` alone
reads it.  ``reduce_mod`` and ``extend_basis`` keep a small reduced basis
of sparse coordinate vectors, and ``ff_rank`` eliminates over sparse rows,
all through one update, ``_add_multiple``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice
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
    n = len(m)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(_check_rect(m)):
        if r == n:  # every row has a pivot
            break
        for i in range(r + 1, n):
            while m[i][c]:  # Euclid's algorithm on rows r and i
                q = m[r][c] // m[i][c]
                for a in (m, t):  # a zero quotient only swaps the rows
                    rest = ([x - q * y for x, y in zip(a[r], a[i])] if q
                            else a[r])
                    a[r], a[i] = a[i], rest
        if not m[r][c]:
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
    denominator D that ``coordinate_matrix`` and ``SpanBasis`` clear by;
    two cyclotomic orders other than 1 raise CyclotomicOrderMismatch."""
    dens = list(dens)
    seen = {d.key() for d in dens}
    reduce(_join_order, (e.order for e in elems), 1)  # mixed orders raise
    for e in elems:
        key = e.den.key()
        if key not in seen:
            seen.add(key)
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
    dens = denominators(elems)
    cleared = [_clear(e, dens) for e in elems]
    support = sorted_monomials({mono for p in cleared for mono in p.terms})
    return [[p.terms.get(mono, 0) for p in cleared] for mono in support]


def _add_multiple(v, c, row) -> None:
    """v += c * row on sparse vectors (dicts), in place, dropping the
    entries that vanish.  Entries are rationals or field elements."""
    for k, x in row.items():
        s = v.get(k)
        if s is None:
            v[k] = c * x
        else:
            s = s + c * x
            if s:
                v[k] = s
            else:
                del v[k]


def reduce_mod(basis: dict, v: dict) -> dict:
    """v modulo the span of ``basis``, in place, and returned.  ``basis``
    maps each pivot to the other entries of a row that is 1 there, and no
    row has the pivot of another, so v loses exactly its pivot entries."""
    for p in [k for k in v if k in basis]:
        _add_multiple(v, -v.pop(p), basis[p])
    return v


def extend_basis(basis: dict, v: dict) -> bool:
    """Add the sparse vector v to ``basis`` (see ``reduce_mod``), keeping
    it reduced; True when v was outside its span."""
    v = reduce_mod(basis, v)
    if not v:
        return False
    pivot = next(iter(v))
    inv = _inverse(v.pop(pivot))
    row = v if inv == 1 else {k: x * inv for k, x in v.items()}
    for rest in basis.values():
        c = rest.pop(pivot, None)
        if c is not None:
            _add_multiple(rest, -c, row)
    basis[pivot] = row
    return True


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
    residue is empty; the residue map is Q-linear.  This is the sum of
    subspaces by Gaussian elimination (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, GTM 138, section 2.3), kept sparse: a
    reduction touches only the pivots present and the monomials of their
    rows.

    Each row keeps its coordinates in the offered elements, by their
    index, so a reduction also gives the coordinates of the combination of
    rows it subtracts; an offered element already in the span adds no row
    and keeps coordinate 0, as in the greedy pivots of ``qlin_solve``.

    ``add`` and ``reduce`` take elements that D clears, such as the ones
    named to ``covering``, which returns a basis over a D that clears them.
    ``coordinates`` takes any element and, when D does not clear it, solves
    on a covering basis of its own, so the basis never grows by it.
    """

    def __init__(self, elems=(), dens=()):
        elems = list(elems)
        self.dens = denominators(elems, dens)
        self.den_keys = {d.key() for d in self.dens}
        self.elems = []  # offered, in order
        self.rows = []  # (pivot, row, coordinates)
        for e in elems:
            self.add(e)

    def covering(self, elems) -> "SpanBasis":
        """This basis when D clears every one of ``elems``, else the basis
        of the same offered elements over a D that also clears them."""
        if all(e.den.key() in self.den_keys for e in elems):
            return self
        return SpanBasis(self.elems, denominators(elems, self.dens))

    def reduce(self, e):
        """(residue, coordinates) of e, which D must clear: e * D minus the
        combination of rows that clears every pivot, and the coordinates of
        that combination in the offered elements.  The residue is empty
        exactly when e lies in the span."""
        p = _clear(e, self.dens)
        if p is None:
            raise ValueError(f"{e} is not cleared by this basis; see covering")
        coords = {}
        return self.eliminate(dict(p.terms), coords), coords

    def eliminate(self, v, coords, start=0):
        """Reduce the residue map v, in place, against the rows from
        ``start`` on: subtract the multiple of each row that clears its
        pivot, and add the same multiple of its coordinates to ``coords``.
        Returns v.  Later rows lack earlier pivots, so a residue reduced
        against the rows before ``start`` and then this is reduced against
        all of them."""
        for pivot, row, row_coords in islice(self.rows, start, None):
            c = v.get(pivot)
            if c is None:
                continue
            _add_multiple(v, -c, row)
            _add_multiple(coords, c, row_coords)
        return v

    def add(self, e) -> dict:
        """Offer e, which D must clear.  Returns its coordinates in the
        offered elements: ``{its index: 1}`` when it was outside the span
        and became a row."""
        v, coords = self.reduce(e)
        index = len(self.elems)
        self.elems.append(e)
        if not v:
            return coords
        pivot = next(iter(v))
        inv = _inverse(v[pivot])
        if inv != 1:
            v = {mono: x * inv for mono, x in v.items()}
        # row = (e * D - sum coords[i] * offered_i * D) * inv
        row_coords = {i: -y * inv for i, y in coords.items()}
        row_coords[index] = inv
        self.rows.append((pivot, v, row_coords))
        return {index: 1}

    def coordinates(self, e):
        """Coordinates of e in the offered elements, as ints and Fractions,
        or None when it lies outside their span."""
        v, coords = self.covering([e]).reduce(e)
        if v:
            return None
        zero = Fraction(0)
        return [coords.get(i, zero) for i in range(len(self.elems))]


def rational_span_solve(basis_elems, target):
    """Coordinates of ``target`` in the Q-span of ``basis_elems`` (or None)."""
    return SpanBasis(basis_elems).coordinates(target)


def span_matrix(elems):
    """``coordinate_matrix`` in span coordinates, one ``SpanBasis.add`` per
    element: a row per greedy independent element, so the same kernel."""
    cols = list(map(SpanBasis().covering(elems).add, elems))
    return [[c.get(i, 0) for c in cols] for i, x in enumerate(cols) if i in x]


# -- rank over the function field ------------------------------------------


def ff_rank(rows) -> int:
    """Rank of a FieldElem matrix over the rational-function field.  The
    rows are all sequences of one length, or all sparse dicts {column:
    entry}, where an absent column is zero; ragged sequences raise
    DimensionMismatch.

    Each row is reduced in turn against the pivot rows before it, in
    insertion order, and becomes a pivot row, at its first nonzero column,
    when anything is left.  A pivot row lacks the pivots of the rows before
    it, so subtracting it never brings one back.  An entry is divided only
    to eliminate it: the row gets the multiple entry / pivot of the pivot
    row, and a pivot row is never scaled.  Only a row's nonzero entries are
    touched, so a Jacobian row of a generator costs its own symbols, and
    the pivot column is dropped rather than computed to zero.
    """
    rows = list(rows)
    if rows and not isinstance(rows[0], dict):
        _check_rect(rows)
        rows = [dict(enumerate(row)) for row in rows]
    pivots = []  # (column, entry there, the row's other entries)
    for row in rows:
        v = {j: x for j, x in row.items() if x}
        for c, p, rest in pivots:
            x = v.pop(c, None)
            if x is not None:
                _add_multiple(v, -(x / p), rest)
        if v:
            c = next(iter(v))
            pivots.append((c, v.pop(c), v))
    return len(pivots)


def jacobian(elems, params):
    """Matrix of partial derivatives of ``elems`` by ``params``."""
    return [[e.derivative(p) for p in params] for e in elems]


def jacobian_row(e, params) -> dict:
    """The row of e in ``jacobian`` as a sparse dict {column: derivative},
    over the symbols e has: every other derivative is zero."""
    syms = e.symbols()
    return {j: e.derivative(p) for j, p in enumerate(params) if p in syms}


def jacobian_rank(elems, params) -> int:
    params = list(params)
    return ff_rank([jacobian_row(e, params) for e in elems])
