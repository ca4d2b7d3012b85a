"""Relabeling symmetries of a scenario and orbit classification of rows.

A relabeling permutes measurements, permutes preparations, or flips
outcomes coherently across a set of measurements.  Every such operation is
compiled down to a single permutation of the table-coordinate set, so
composition and row actions are uniform.  A relabeling is only admitted if
it respects the scenario's operational equivalences: the span of the
equivalence difference vectors must be invariant under the induced
permutation (the set of differences itself need not map to itself, since
chained equivalences can be re-expressed as different pairings of the same
affine constraints).

Orbit classification identifies two rows when they agree after reduction
modulo the polytope's affine-hull equalities; this matters because outcome
flips typically map a facet to its complement-form twin, which is the same
facet of the polytope but a different literal row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (EQ, ONE, ZERO, LinRow, canonicalize_row, reduce_modulo,
                     rref, substitution_map)
from .scenario import Scenario, flatten_coord, p_var

GROUP_CAP = 10 ** 6


class GeneratorBreaksOE(Exception):
    """A proposed relabeling does not preserve the operational equivalences."""


class GroupTooLarge(Exception):
    """Closure exceeded the hard cap; the generators are likely malformed."""


class RowNotInOrbitClosure(Exception):
    """The group action maps an input row outside the input set."""


@dataclass(frozen=True)
class Relabeling:
    """A permutation of the coordinate set, stored as a tuple.

    ``perm[k]`` is the 0-based position that the coordinate at position k
    (in the canonical i-major order) is sent to.
    """

    scenario: Scenario
    perm: tuple

    def compose(self, other: "Relabeling") -> "Relabeling":
        """self after other: (self * other)(c) = self(other(c))."""
        return Relabeling(self.scenario,
                          tuple(self.perm[q] for q in other.perm))

    def inverse(self) -> "Relabeling":
        inv = [0] * len(self.perm)
        for k, q in enumerate(self.perm):
            inv[q] = k
        return Relabeling(self.scenario, tuple(inv))

    def is_identity(self) -> bool:
        return all(k == q for k, q in enumerate(self.perm))


@dataclass
class RelabelingGroup:
    generators: list
    elements: list   # Relabeling instances, identity first
    order: int


def _identity_perm(scn: Scenario) -> tuple:
    return tuple(range(scn.l * scn.g * scn.d))


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
    rel = Relabeling(scn, _compile(scn, {i1: i2, i2: i1}, {}, frozenset()))
    _require_oe_respect(rel)
    return rel


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
    rel = Relabeling(scn, _compile(scn, {}, prep_map, frozenset()))
    _require_oe_respect(rel)
    return rel


def flip_outcomes(scn: Scenario, measurements) -> Relabeling:
    """Coherent outcome reversal m -> d-1-m on the listed measurements."""
    for i in measurements:
        _check_index(i, scn.l, "measurement")
    rel = Relabeling(scn, _compile(scn, {}, {}, frozenset(measurements)))
    _require_oe_respect(rel)
    return rel


def _check_index(k, bound, what):
    if not (isinstance(k, int) and 1 <= k <= bound):
        raise ValueError(f"{what} index {k} out of range 1..{bound}")


# --- OE preservation ------------------------------------------------------


def _require_oe_respect(rel: Relabeling):
    scn = rel.scenario
    if not _span_invariant(_prep_rows(scn), _prep_action(rel)):
        raise GeneratorBreaksOE(
            "relabeling does not preserve the preparation equivalences")
    if not _span_invariant(_effect_rows(scn), _effect_action(rel)):
        raise GeneratorBreaksOE(
            "relabeling does not preserve the measurement equivalences")


def _prep_rows(scn: Scenario):
    return [LinRow({("q", j): w for j, w in eq.difference().items()}, ZERO, EQ)
            for eq in scn.oe_p]


def _effect_rows(scn: Scenario):
    return [LinRow({("e",) + im: w for im, w in eq.difference().items()}, ZERO, EQ)
            for eq in scn.oe_m]


def _prep_action(rel: Relabeling):
    scn = rel.scenario
    # Recover the preparation permutation from the coordinate permutation.
    mapping = {}
    for j in scn.preparations():
        k = rel.perm[flatten_coord(scn, (1, j, 0)) - 1]
        _, j2, _ = _unflatten(scn, k)
        mapping[("q", j)] = ("q", j2)
    return mapping


def _effect_action(rel: Relabeling):
    scn = rel.scenario
    mapping = {}
    for (i, m) in scn.effects():
        k = rel.perm[flatten_coord(scn, (i, 1, m)) - 1]
        i2, _, m2 = _unflatten(scn, k)
        mapping[("e", i, m)] = ("e", i2, m2)
    return mapping


def _unflatten(scn: Scenario, idx0: int):
    rem, m = divmod(idx0, scn.d)
    i, j1 = divmod(rem, scn.g)
    return i + 1, j1 + 1, m


def _span_invariant(rows, mapping) -> bool:
    if not rows:
        return True
    variables = sorted({v for r in rows for v in r.coeffs} | set(mapping))
    basis = rref(rows, variables)
    for row in rows:
        moved = LinRow({mapping[v]: c for v, c in row.coeffs.items()}, ZERO, EQ)
        residue = reduce_modulo(moved, basis, variables)
        if residue.coeffs:
            return False
    return True


# --- Group closure --------------------------------------------------------


def generate_group(scn: Scenario, generators) -> RelabelingGroup:
    """Breadth-first closure of the generated permutation group."""
    for gen in generators:
        if gen.scenario is not scn and gen.scenario != scn:
            raise ValueError("generator built for a different scenario")
        _require_oe_respect(gen)
    identity = _identity_perm(scn)
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
                    if len(seen) >= GROUP_CAP:
                        raise GroupTooLarge(
                            f"group closure exceeded {GROUP_CAP} elements")
                    seen.add(q)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    rels = [Relabeling(scn, p) for p in elements]
    return RelabelingGroup(list(generators), rels, len(rels))


# --- Action on rows and orbits -------------------------------------------


def act_on_row(rel: Relabeling, row: LinRow) -> LinRow:
    """Permute the p-coordinates of a row and canonicalize."""
    scn = rel.scenario
    coeffs = {}
    for var, c in row.coeffs.items():
        _, i, j, m = var
        k = rel.perm[flatten_coord(scn, (i, j, m)) - 1]
        coeffs[p_var(_unflatten(scn, k))] = c
    return canonicalize_row(LinRow(coeffs, row.const, row.kind))


@dataclass
class OrbitClass:
    representative: LinRow   # lexicographic minimum of the orbit, canonical
    orbit_size: int
    members: list


def _orbit_keys(scn, row, group, subs, variables):
    """Map each reduced-canonical orbit member key to one moved row.

    ``subs`` is the equalities' :func:`substitution_map`.
    """
    out = {}
    for g in group.elements:
        moved = act_on_row(g, row)
        reduced = canonicalize_row(moved.substituted(subs))
        out.setdefault(reduced.key(variables), (reduced, moved))
    return out


def _substitutions(equalities, variables):
    eqs = rref(list(equalities), variables) if equalities else []
    return substitution_map(eqs, variables)


def classify_orbits(rows, group: RelabelingGroup, equalities, variables):
    """Partition rows into group orbits modulo the affine-hull equalities."""
    scn = group.elements[0].scenario if group.elements else None
    subs = _substitutions(equalities, variables)

    def key(row):
        return canonicalize_row(row.substituted(subs)).key(variables)

    index = {}
    for row in rows:
        index[key(row)] = row
    classes = []
    assigned = set()
    for row in rows:
        if key(row) in assigned:
            continue
        orbit = _orbit_keys(scn, row, group, subs, variables)
        missing = [k for k in orbit if k not in index]
        if missing:
            reduced, moved = orbit[missing[0]]
            raise RowNotInOrbitClosure(
                f"group action maps {row} to {moved}, absent from the input set")
        members = sorted((orbit[k][0] for k in orbit),
                         key=lambda r: r.key(variables))
        classes.append(OrbitClass(members[0], len(orbit), members))
        assigned.update(orbit)
    classes.sort(key=lambda c: c.representative.key(variables))
    return classes


def expand_orbit(representative: LinRow, group: RelabelingGroup,
                 equalities, variables):
    """All distinct images of a row, reduced modulo the equalities."""
    scn = group.elements[0].scenario
    orbit = _orbit_keys(scn, representative, group,
                        _substitutions(equalities, variables), variables)
    return sorted((orbit[k][0] for k in orbit), key=lambda r: r.key(variables))
