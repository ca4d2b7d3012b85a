"""Relabeling symmetries of a scenario and orbit classification of rows.

A relabeling permutes measurements, permutes preparations, or flips
outcomes coherently across a set of measurements.  Every such operation is
compiled down to a single permutation of the table-coordinate set, so
composition and row actions are uniform.  :func:`generate_group` checks
each generator once: it must map the span of the table's equivalence
equalities (:func:`.scenario.equivalence_rows`) to itself.  The rows
themselves need not map to rows, since chained equivalences can be paired
differently.

Orbit classification identifies two rows when they agree after reduction
modulo the polytope's affine-hull equalities; this matters because outcome
flips typically map a facet to its complement-form twin, which is the same
facet of the polytope but a different literal row.  Classification runs
on integer rows: each coordinate's reduced image is computed once per
call, so a group element moves a row by summing int vectors.  A class
carries its representative and its orbit size; :func:`expand_orbit`
gives its members.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import (DENSE_CAP, EQ, ZERO, InputError, LimitExceeded, LinRow,
                     canonicalize_row, dense_row, int_row, primitive,
                     row_reduce_equalities)
# Unused here; kept importable because tracing wraps symmetry.reduce_modulo
# and symmetry.rref.
from .linalg import reduce_modulo, rref  # noqa: F401
from .scenario import (PREP, Scenario, equivalence_rows, flatten_coord, p_var,
                       p_vars, unflatten_coord)


class GeneratorBreaksOE(InputError):
    """A proposed relabeling does not preserve the operational equivalences."""


class RowNotInOrbitClosure(InputError):
    """The group action maps an input row outside the input set."""


@dataclass(frozen=True)
class Relabeling:
    """A permutation of the coordinate set, stored as a tuple.

    ``perm[k]`` is the 0-based position that the coordinate at position k
    (in the canonical i-major order) is sent to.
    """

    scenario: Scenario
    perm: tuple


@dataclass
class RelabelingGroup:
    generators: list
    elements: list   # Relabeling instances, identity first
    order: int


def _compile(scn: Scenario, meas_map, prep_map, flip_set) -> tuple:
    """Coordinate permutation from index maps (all 1-based, identity-filled)."""
    perm = [0] * (scn.l * scn.g * scn.d)
    for (i, j, m) in scn.coords():
        i2 = meas_map.get(i, i)
        j2 = prep_map.get(j, j)
        m2 = scn.d - 1 - m if i in flip_set else m
        perm[flatten_coord(scn, (i, j, m)) - 1] = \
            flatten_coord(scn, (i2, j2, m2)) - 1
    return tuple(perm)


def swap_measurements(scn: Scenario, i1: int, i2: int) -> Relabeling:
    """Transposition of two measurements (all outcomes follow along)."""
    _check_index(i1, scn.l, "measurement")
    _check_index(i2, scn.l, "measurement")
    return Relabeling(scn, _compile(scn, {i1: i2, i2: i1}, {}, frozenset()))


def swap_preparations(scn: Scenario, pairs) -> Relabeling:
    """Simultaneous transpositions of preparations.

    ``pairs`` is either one pair (j1, j2) or a list of disjoint pairs that
    are swapped together, e.g. [(1, 3), (2, 4)] for the coherent exchange
    of the first source pair with the second.
    """
    if pairs and isinstance(pairs[0], int):
        pairs = [pairs]
    prep_map = {}
    for j1, j2 in pairs:
        _check_index(j1, scn.g, "preparation")
        _check_index(j2, scn.g, "preparation")
        if j1 in prep_map or j2 in prep_map:
            raise ValueError("swap pairs must be disjoint")
        prep_map[j1], prep_map[j2] = j2, j1
    return Relabeling(scn, _compile(scn, {}, prep_map, frozenset()))


def flip_outcomes(scn: Scenario, measurements) -> Relabeling:
    """Coherent outcome reversal m -> d-1-m on the listed measurements."""
    for i in measurements:
        _check_index(i, scn.l, "measurement")
    return Relabeling(scn, _compile(scn, {}, {}, frozenset(measurements)))


def _check_index(k, bound, what):
    if not (isinstance(k, int) and not isinstance(k, bool) and 1 <= k <= bound):
        raise ValueError(f"{what} index {k} out of range 1..{bound}")


# --- Group closure --------------------------------------------------------


def _require_oe_respect(scn: Scenario, generators):
    """Reject a generator that moves an equivalence row out of their span.

    One reduction per kind, preparation first; a row in the span reduces to 0.
    """
    rows = {}
    for (kind, _), _, weights in equivalence_rows(scn):
        rows.setdefault(kind, []).append(
            LinRow({p_var(c): w for c, w in weights.items()}, ZERO, EQ))
    checks = []
    for kind, eqs in rows.items():
        reduction = _Reduction(scn, eqs, p_vars(scn))
        checks.append((kind, reduction, [reduction.terms(r) for r in eqs]))
    for gen in generators:
        for kind, reduction, terms in checks:
            if any(any(reduction.key(t, gen.perm, EQ)) for t in terms):
                what = "preparation" if kind == PREP else "measurement"
                raise GeneratorBreaksOE(
                    f"relabeling does not preserve the {what} equivalences")


def generate_group(scn: Scenario, generators) -> RelabelingGroup:
    """Breadth-first closure of the generated permutation group.

    Raises GeneratorBreaksOE for a generator that breaks an equivalence,
    and LimitExceeded past DENSE_CAP entries in the elements.
    """
    generators = list(generators)
    identity = tuple(range(scn.l * scn.g * scn.d))
    for gen in generators:
        if gen.scenario is not scn and gen.scenario != scn:
            raise ValueError("generator built for a different scenario")
        if sorted(gen.perm) != list(identity):
            raise ValueError("generator is not a permutation of the coordinates")
    _require_oe_respect(scn, generators)
    seen = {identity}
    frontier = [identity]
    gens = [g.perm for g in generators]
    elements = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gp in gens:
                q = tuple(gp[k] for k in p)
                if q not in seen:
                    if (len(seen) + 1) * len(q) > DENSE_CAP:
                        raise LimitExceeded(
                            f"group closure: {len(seen) + 1} elements of "
                            f"{len(q)} coordinates exceed {DENSE_CAP} entries")
                    seen.add(q)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    rels = [Relabeling(scn, p) for p in elements]
    return RelabelingGroup(generators, rels, len(rels))


# --- Action on rows and orbits -------------------------------------------


def act_on_row(rel: Relabeling, row: LinRow) -> LinRow:
    """Permute the p-coordinates of a row and canonicalize."""
    scn = rel.scenario
    coeffs = {}
    for var, c in row.coeffs.items():
        _, i, j, m = var
        k = rel.perm[flatten_coord(scn, (i, j, m)) - 1]
        coeffs[p_var(unflatten_coord(scn, k + 1))] = c
    return canonicalize_row(LinRow(coeffs, row.const, row.kind))


@dataclass
class OrbitClass:
    """One orbit, as its least member and its size; the members are
    ``expand_orbit(representative, ...)``."""

    representative: LinRow   # lexicographic minimum of the orbit, canonical
    orbit_size: int


class _Reduction:
    """Rows reduced modulo equalities, as int tuples.

    Built once per call.  ``images[q]`` is the reduced row of the
    coordinate at flat position q: sparse ``(index, int)`` pairs over the
    free variables and the constant (index ``len(free)``), all over the
    common denominator ``den``.  A key is a reduced row made canonical as
    :func:`canonicalize_row` does: primitive, and an EQ row signed by its
    leading coefficient in sorted variable order, else by its constant.
    Pivot variables are zero in every reduced row, so keys sort as the
    rows' dense (coefficients, constant) tuples over ``variables`` do.
    """

    def __init__(self, scn, equalities, variables):
        pivots = row_reduce_equalities([dense_row(r, variables)
                                        for r in equalities])
        cols = [k for k in range(len(variables)) if k not in pivots]
        self.free = [variables[k] for k in cols]
        self.den = den = lcm(1, *(p[col] for col, p in pivots.items()))
        self.flat = {v: flatten_coord(scn, v[1:]) - 1 for v in variables}
        self.images = [()] * (scn.l * scn.g * scn.d)
        for f, k in enumerate(cols):
            self.images[self.flat[variables[k]]] = [(f, den)]
        # a pivot is -p over p[k] on the free columns and the constant (-1)
        for k, p in pivots.items():
            self.images[self.flat[variables[k]]] = [
                (f, -p[c] * (den // p[k]))
                for f, c in enumerate(cols + [-1]) if p[c]]
        self.lead = sorted(range(len(cols)), key=self.free.__getitem__)

    def terms(self, row):
        """A row's coprime ints as (flat position, int) pairs, and its constant.

        Raises ValueError on a coefficient of a variable outside
        ``variables``.
        """
        try:
            coords = [self.flat[v] for v in row.coeffs]
        except KeyError as exc:
            raise ValueError(f"row has a term on {exc.args[0]}, "
                             "which is not among the variables") from None
        ints = int_row([*row.coeffs.values(), row.const])
        return list(zip(coords, ints)), ints[-1]

    def key(self, terms, perm, kind) -> tuple:
        """The canonical reduced row of ``terms`` moved by ``perm``."""
        coords, const = terms
        acc = [0] * len(self.free) + [const * self.den]
        for q, c in coords:
            for t, a in self.images[perm[q]]:
                acc[t] += c * a
        key = primitive(acc)
        if kind == EQ and next((key[f] for f in self.lead if key[f]),
                               key[-1]) < 0:
            key = tuple(-a for a in key)
        return key

    def row(self, key, kind) -> LinRow:
        return LinRow({v: a for v, a in zip(self.free, key) if a},
                      key[-1], kind)


def _orbit(reduction, terms, kind, group) -> dict:
    """Each member key of an orbit, mapped to the first element giving it."""
    out = {}
    for g in group.elements:
        out.setdefault(reduction.key(terms, g.perm, kind), g)
    return out


def classify_orbits(rows, group: RelabelingGroup, equalities, variables):
    """Partition rows into group orbits modulo the affine-hull equalities."""
    reduction = _Reduction(group.elements[0].scenario, equalities, variables)
    identity = range(len(reduction.images))
    inputs = []
    for row in rows:
        terms = reduction.terms(row)
        inputs.append((row, terms, reduction.key(terms, identity, row.kind)))
    index = {key for _, _, key in inputs}
    classes = []
    assigned = set()
    for row, terms, key in inputs:
        if key in assigned:
            continue
        orbit = _orbit(reduction, terms, row.kind, group)
        for k, g in orbit.items():
            if k not in index:
                raise RowNotInOrbitClosure(
                    f"group action maps {row} to {act_on_row(g, row)}, "
                    "absent from the input set")
        least = min(orbit)
        classes.append((least, OrbitClass(reduction.row(least, row.kind),
                                          len(orbit))))
        assigned.update(orbit)
    classes.sort(key=lambda kc: kc[0])
    return [c for _, c in classes]


def expand_orbit(representative: LinRow, group: RelabelingGroup,
                 equalities, variables):
    """All distinct images of a row, reduced modulo the equalities, sorted."""
    reduction = _Reduction(group.elements[0].scenario, equalities, variables)
    kind = representative.kind
    orbit = _orbit(reduction, reduction.terms(representative), kind, group)
    return [reduction.row(k, kind) for k in sorted(orbit)]
