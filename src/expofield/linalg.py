"""Exact linear algebra: rational solve/kernel, integer lattices, and rank
over the rational-function field.

Matrices are plain lists of lists, and their entries ints, Fractions or
FieldElems; ``_divide`` keeps ints exact, so no entry is ever a float.
There are two eliminations over fields, both through one sparse row
update, ``_add_multiple``, which touches only the nonzero entries:

- ``_rref``, Gauss-Jordan into sparse rows that are 1 at their pivots, for
  the affine solve and the reduction in ``variety``.  It goes column by
  column, as the dense loop that the tests keep as its oracle: a
  FieldElem's printed form depends on how it was computed, and
  eliminating row by row prints other forms of the same values.
- ``reduce_mod`` against a semi-echelon basis that divides an entry only
  to eliminate it: ``extend_basis`` rows, with no coordinates, for
  ``ff_rank`` and each hull's basis of coordinates in ``efield.HullBasis``,
  and the rows of ``SpanBasis``, which clears field elements into vectors,
  keeps the Q-span of them and gives each row its coordinates in them.
  ``ff_rank`` stops once its basis has as many rows as there are columns
  where some row is nonzero, since the rank cannot pass that: a row past
  full column rank reduces to zero, and reducing it can swell its entries
  for nothing.

``hermite_form`` is the one integer elimination, under the one kernel
path, ``integer_kernel_basis``.  Every lattice basis the library prints is
a Hermite normal form, so it depends only on the lattice.

Field elements enter linear algebra over one common denominator D, the
product of their distinct ``denominators``, which also rejects mixed
cyclotomic orders.  Only this module knows D: ``SpanBasis`` clears field
elements itself, and rebuilds over a larger D when an element needs it.
``span_matrix`` reads coordinates off one; each ``efield.HullBasis`` and
each presentation's validation builds one.  ``coordinate_matrix``, the
cleared numerators as a dense matrix, is the reference path:
``variety.freeness_oracle`` alone reads it.

One function decides each question here: rank over the function field is
``ff_rank`` (``jacobian_rank`` is it on Jacobian rows; tests
``test_linalg``, ``test_sympy_oracle.test_ff_rank_matches_domain_matrix_rank``
and the dense Gauss-Jordan oracle of ``test_span_oracles``), an integer
kernel is ``integer_kernel_basis`` over ``hermite_form`` (``test_linalg``,
``test_sympy_oracle``), and a Q-span with coordinates is ``SpanBasis``
(``test_linalg`` and every span oracle of ``test_span_oracles``).
``qlin_solve``, ``kernel_basis`` and ``rational_span_solve`` run on no
answer path: they stay public, tests use them as oracles, and the
benchmark's tracer names them.
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


def _divide(x, y):
    """x / y, exact for ints too, where ``/`` would give a float: an int
    when y divides x, else a Fraction."""
    if x.__class__ is int and y.__class__ is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return x / y


def _rref(rows):
    """Reduced row echelon form over the entries' field; returns
    (rows, pivot_cols), one sparse row {column: nonzero entry} per pivot,
    1 there.  Entries are ints, Fractions or FieldElems.

    The pivots are the greedy independent columns, leftmost first: column j
    is a pivot exactly when it is not in the span of the columns before it.
    Every column j is the sum of ``m[r].get(j, 0)`` times pivot column r,
    for r below the rank; for a non-pivot column these are its coordinates
    in the pivot columns to its left, and row r lacks j when pivot r lies
    to its right.  Columns are eliminated in order, with the dense loop's
    row swaps, so that each entry is computed as there."""
    ncols = _check_rect(rows)
    m = [{j: x for j, x in enumerate(row) if x} for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if c in m[i]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        row = m[r]
        if row[c] != 1:
            inv = _divide(1, row[c])
            row = m[r] = {j: x * inv for j, x in row.items()}
        for other in m:
            if other is not row and c in other:
                _add_multiple(other, -other[c], row)
        pivots.append(c)
    return m[:len(pivots)], pivots


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
    for row, c in zip(m, pivots):
        x[c] = row.get(ncols, Fraction(0))
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
        for row, c in zip(m, pivots):
            v[c] = -row.get(f, Fraction(0))
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
    normal form: the left kernel of the integer columns, read off the
    transform of their ``hermite_form``, then brought to that form."""
    _check_rect(rows)
    h, t = hermite_form(_integer_columns(rows))
    return hermite_form(t[len(h):])[0]


def column_kernel_basis(blocks):
    """Z-basis of the integer z with sum(z_j * column j) = 0, in Hermite
    normal form.  Column j stacks column j of each block, a sparse dict
    {row key: nonzero rational}; each block has keys of its own.  Each zero
    column gives its unit vector.  When no two columns share a key, as one
    union per block finds, every kernel vector is 0 at each other column;
    else the rest is the ``integer_kernel_basis`` of the nonzero columns.
    Sorted by pivot, the union is the Hermite normal form of the same
    lattice: a unit vector's pivot is 1 and no other vector has an entry in
    its column."""
    n = len(blocks[0])
    live = [j for j, col in enumerate(zip(*blocks)) if any(col)]
    basis = [[0] * j + [1] + [0] * (n - j - 1) for j in range(n)
             if j not in live]
    if all(len(set().union(*b)) == sum(map(len, b)) for b in blocks):
        return basis
    for z in integer_kernel_basis([[b[j].get(k, 0) for j in live]
                                   for b in blocks for k in set().union(*b)]):
        v = dict(zip(live, z))
        basis.append([v.get(j, 0) for j in range(n)])
    return sorted(basis, key=lambda v: next(j for j, x in enumerate(v) if x))


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


def reduce_mod(basis: list, v: dict, coords=None) -> dict:
    """v modulo the span of ``basis``, in place, and returned.  ``basis``
    lists rows (pivot, entry there, other entries, coordinates), none with
    the pivot of a row before it, so reducing v against them in order, by
    entry / pivot entry times the row, leaves no pivot entry in v.  Given a
    map ``coords``, each multiple of a row taken off v adds the same
    multiple of the row's coordinates to it, in place: v as it was is the
    residue plus the combination that ``coords`` then names."""
    for c, p, rest, row_coords in basis:
        x = v.pop(c, None)
        if x is not None:
            q = _divide(x, p)
            _add_multiple(v, -q, rest)
            if coords is not None:
                _add_multiple(coords, q, row_coords)
    return v


def extend_basis(basis: list, v: dict) -> bool:
    """Add the sparse vector v to ``basis`` (see ``reduce_mod``), as a row
    at the first column of its residue, with no coordinates; True when v
    was outside its span."""
    v = reduce_mod(basis, v)
    if not v:
        return False
    c = next(iter(v))
    basis.append((c, v.pop(c), v, None))
    return True


class SpanBasis:
    """Semi-echelon basis of the Q-span of the field elements offered to it.

    This is the one place that decides how an element is cleared: by one
    common denominator D, the product of the distinct denominators
    ``dens``, into the coefficient map of a polynomial, a dict from
    monomial to a nonzero rational, an int or a Fraction.  Multiplying by
    D is injective and Q-linear, so which elements are independent, their
    coordinates and the relations among them do not depend on D.  A map is
    reduced by ``reduce_mod`` against its rows, each with its
    coordinates in the offered elements, by their index: the sum of
    subspaces by Gaussian elimination (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, GTM 138, section 2.3), kept sparse.  An
    element lies in the span exactly when its residue is empty, and an
    offered element already in the span adds no row and keeps coordinate
    0, as in the greedy pivots of ``qlin_solve``.

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
        self.rows = []  # reduce_mod rows of cleared offered elements
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
        return reduce_mod(self.rows, dict(p.terms), coords), coords

    def add(self, e) -> dict:
        """Offer e, which D must clear.  Returns its coordinates in the
        offered elements: ``{its index: 1}`` when it was outside the span
        and became a row."""
        v, coords = self.reduce(e)
        index = len(self.elems)
        self.elems.append(e)
        if not v:
            return coords
        # the row is e * D minus the combination that coords names
        row_coords = {i: -y for i, y in coords.items()}
        row_coords[index] = 1
        c = next(iter(v))
        self.rows.append((c, v.pop(c), v, row_coords))
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

    Each row in turn extends one semi-echelon basis (``extend_basis``).
    Only a row's nonzero entries are touched, so a Jacobian row of a
    generator costs its own symbols, and the pivot column is dropped
    rather than computed to zero.  The rank is at most the number of
    distinct columns where some row is nonzero, so once the basis has that
    many rows the rest are not reduced: each would reduce to zero.
    """
    rows = list(rows)
    if rows and not isinstance(rows[0], dict):
        _check_rect(rows)
        rows = [dict(enumerate(row)) for row in rows]
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    width = len(set().union(*rows))
    basis = []
    return sum(extend_basis(basis, row) for row in rows
               if len(basis) < width)


def jacobian_row(e, params) -> dict:
    """The partial derivatives of e by ``params`` as a sparse dict {symbol:
    derivative}, over the symbols e has: every other derivative is zero."""
    syms = e.symbols()
    return {p: e.derivative(p) for p in params if p in syms}


def jacobian_rank(elems, params) -> int:
    params = list(params)
    return ff_rank([jacobian_row(e, params) for e in elems])
