"""Output checks of the benchmark, in the benchmark's own exact arithmetic.

No check compares against a stored copy of an earlier output: each one
tests a property that every correct output has (a model rebuilds the
table, a certificate meets the Farkas conditions, an orbit list agrees
with an independent orbit computation, ...) or a fact stated in the
paper.  Every check raises ``CheckFailed`` with the reason.

Coordinates are (i, j, m) triples for p(m | M_i, P_j); a row over them is
a ``(coeffs, const)`` pair meaning ``coeffs . p + const >= 0`` (or ``== 0``
for equalities).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

F = Fraction
HALF = F(1, 2)


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- rows ------------------------------------------------------------------


def row_from_doc(doc) -> tuple:
    return ({(i, j, m): F(c) for i, j, m, c in doc["terms"]}, F(doc["constant"]))


def evaluate(row, table) -> Fraction:
    coeffs, const = row
    return sum((c * table[k] for k, c in coeffs.items()), const)


def upper(coeffs, bound):
    """coeffs . p0 <= bound, over the outcome-0 probabilities p(0|M_i,P_j)."""
    return ({(i, j, 0): -F(c) for (i, j), c in coeffs.items()}, F(bound))


def canonical_key(coeffs, const) -> tuple:
    """The row scaled by a positive factor to coprime integers."""
    values = [c for c in coeffs.values() if c] + ([const] if const else [])
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = {k: int(c * den) for k, c in coeffs.items() if c}
    const_int = int(const * den)
    g = 0
    for v in list(ints.values()) + [const_int]:
        g = gcd(g, abs(v))
    g = g or 1
    return tuple(sorted((k, v // g) for k, v in ints.items())) + (const_int // g,)


class Reducer:
    """Rows modulo the affine hull: each equality is solved for its
    greatest coordinate, which is then substituted away."""

    def __init__(self, equalities):
        self.subs = []
        for coeffs, const in equalities:
            pivot = max(coeffs)
            c = coeffs[pivot]
            self.subs.append((pivot, {k: -a / c for k, a in coeffs.items() if k != pivot},
                              -const / c))

    def reduce(self, row):
        coeffs, const = dict(row[0]), row[1]
        for pivot, expr, expr_const in self.subs:
            factor = coeffs.pop(pivot, 0)
            if factor:
                const += factor * expr_const
                for k, a in expr.items():
                    coeffs[k] = coeffs.get(k, 0) + factor * a
        return {k: c for k, c in coeffs.items() if c}, const

    def key(self, row) -> tuple:
        return canonical_key(*self.reduce(row))


# --- scenarios and vertices ------------------------------------------------


def prep_differences(scn_doc) -> list:
    """alpha - beta of each preparation equivalence, as {j: weight}."""
    out = []
    for eq in scn_doc["prep_equivalences"]:
        diff = {}
        for j, w in eq["lhs"]:
            diff[j] = diff.get(j, 0) + F(w)
        for j, w in eq["rhs"]:
            diff[j] = diff.get(j, 0) - F(w)
        out.append({j: w for j, w in diff.items() if w})
    return out


def check_vertices(scn_doc, vertices):
    """Every vertex is an outcome assignment that respects the measurement
    equivalences; ``vertices`` are dicts {(i, m): xi}."""
    l, d = scn_doc["measurements"], scn_doc["outcomes"]
    require(vertices, "no measurement vertices")
    require(len({tuple(sorted(v.items())) for v in vertices}) == len(vertices),
            "repeated measurement vertex")
    for v in vertices:
        require(set(v) == {(i, m) for i in range(1, l + 1) for m in range(d)},
                "vertex has the wrong coordinates")
        require(all(x >= 0 for x in v.values()), "vertex with a negative entry")
        for i in range(1, l + 1):
            require(sum(v[i, m] for m in range(d)) == 1, "vertex not normalized")
        for eq in scn_doc["meas_equivalences"]:
            lhs = sum(F(w) * v[i, m] for i, m, w in eq["lhs"])
            rhs = sum(F(w) * v[i, m] for i, m, w in eq["rhs"])
            require(lhs == rhs, "vertex breaks a measurement equivalence")


def outcome0_vertex_set(vertices) -> set:
    return {tuple(v[i, 0] for i in sorted({i for i, _ in v})) for v in vertices}


SIMPLEST_VERTICES = {(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))}
SIX_PREP_VERTICES = {(F(0), HALF, F(1)), (HALF, F(0), F(1)), (F(1), F(0), HALF),
                     (F(1), HALF, F(0)), (F(0), F(1), HALF), (HALF, F(1), F(0))}


# --- feasibility verdicts --------------------------------------------------


def check_model(scn_doc, vertices, table, verdict):
    """The model is a valid distribution per preparation that respects
    the preparation equivalences and rebuilds the table exactly."""
    require(verdict["status"] == "feasible", "not a model")
    g = scn_doc["preparations"]
    n = len(vertices)
    nu = {}
    for j, k, v in verdict["model"]:
        nu[j, k] = F(v)
    require(set(nu) == {(j, k) for j in range(1, g + 1) for k in range(1, n + 1)},
            "model does not cover every preparation and vertex")
    require(all(v >= 0 for v in nu.values()), "model has a negative weight")
    for j in range(1, g + 1):
        require(sum(nu[j, k] for k in range(1, n + 1)) == 1,
                f"model for P_{j} is not normalized")
    for diff in prep_differences(scn_doc):
        for k in range(1, n + 1):
            require(sum(w * nu[j, k] for j, w in diff.items()) == 0,
                    f"model breaks a preparation equivalence at vertex {k}")
    for (i, j, m), p in table.items():
        rebuilt = sum((vertices[k - 1][i, m] * nu[j, k] for k in range(1, n + 1)), F(0))
        require(rebuilt == p, f"model gives p({m}|M{i},P{j}) = {rebuilt}, table has {p}")


def check_certificate(scn_doc, vertices, table, verdict):
    """y binds to the table with 0 <= y.M <= 1 and y.b* < 0, and the
    reported inequality is y's inequality, violated by the reported amount."""
    require(verdict["status"] == "infeasible", "not a certificate")
    g = scn_doc["preparations"]
    n = len(vertices)
    diffs = prep_differences(scn_doc)
    y_norm, y_oe, y_link = {}, {}, {}
    for label, v in verdict["certificate"]["y"]:
        kind, rest = label[0], label[1:]
        if kind == "normalization":
            y_norm[rest[0]] = F(v)
        elif kind == "oe_p":
            y_oe[rest[0], rest[1]] = F(v)
        elif kind == "linking":
            y_link[tuple(rest[0])] = F(v)
        else:
            raise CheckFailed(f"unknown certificate row {label!r}")
    require(set(y_norm) == set(range(1, g + 1)), "certificate normalization rows")
    require(set(y_oe) == {(s, k) for s in range(len(diffs)) for k in range(1, n + 1)},
            "certificate equivalence rows")
    require(set(y_link) == set(table), "certificate linking rows")
    for j in range(1, g + 1):
        for k in range(1, n + 1):
            ym = y_norm[j] + sum(y_oe[s, k] * diff.get(j, 0) for s, diff in enumerate(diffs))
            ym += sum(y * vertices[k - 1][i, m]
                      for (i, jj, m), y in y_link.items() if jj == j)
            require(0 <= ym <= 1, f"(y.M) at P_{j}, vertex {k} is {ym}, outside [0, 1]")
    yb = sum(y_norm.values()) + sum(y * table[c] for c, y in y_link.items())
    require(yb < 0, f"y.b* = {yb} is not negative")
    inequality = row_from_doc(verdict["inequality"])
    violation = F(verdict["violation"])
    require(violation > 0, "reported violation is not positive")
    require(evaluate(inequality, table) == -violation,
            "the inequality is not violated by the reported amount")
    require(canonical_key(*inequality) == canonical_key(
        {c: y for c, y in y_link.items() if y}, sum(y_norm.values())),
        "the inequality is not the certificate's inequality")


def check_verdict(scn_doc, vertices, table, verdict):
    if verdict["status"] == "feasible":
        check_model(scn_doc, vertices, table, verdict)
    else:
        check_certificate(scn_doc, vertices, table, verdict)


def six_prep_bound_violated(table) -> bool:
    """The paper's 2 [p(0|M1,P1) + p(0|M2,P3) + p(0|M3,P5)] <= 5 fails."""
    return 2 * (table[1, 1, 0] + table[2, 3, 0] + table[3, 5, 0]) > 5


def check_sweep(statuses):
    """Along a sweep out of a convex polytope, the verdict switches from
    model to certificate exactly once."""
    require(statuses[0] == "feasible", "sweep does not start inside the polytope")
    require(statuses[-1] == "infeasible", "sweep does not end outside the polytope")
    switches = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
    require(switches == 1, f"sweep verdicts switch {switches} times")


# --- polytopes -------------------------------------------------------------


def polytope_rows(poly_doc):
    return ([row_from_doc(r) for r in poly_doc["equalities"]],
            [row_from_doc(r) for r in poly_doc["facets"]])


def contains(poly_doc, table) -> bool:
    equalities, facets = polytope_rows(poly_doc)
    return (all(evaluate(r, table) == 0 for r in equalities)
            and all(evaluate(r, table) >= 0 for r in facets))


def check_uniform_inside(poly_doc, uniform):
    equalities, facets = polytope_rows(poly_doc)
    for r in equalities:
        require(evaluate(r, uniform) == 0, "the uniform table breaks an equality")
    for r in facets:
        require(evaluate(r, uniform) >= 0, "the uniform table violates a facet")


def p0(i, j):
    return (i, j, 0)


# The four-preparation scenario's equalities and nontrivial facets.
SIMPLEST_EQUALITIES = [
    ({p0(1, 1): 1, p0(1, 2): 1, p0(1, 3): -1, p0(1, 4): -1}, F(0)),
    ({p0(2, 1): 1, p0(2, 2): 1, p0(2, 3): -1, p0(2, 4): -1}, F(0)),
]
SIMPLEST_FACETS = [
    upper({(1, 2): 1, (2, 2): 1, (2, 3): -1, (1, 4): -1}, 1),
    upper({(1, 2): 1, (2, 2): 1, (1, 3): -1, (2, 4): -1}, 1),
    upper({(2, 2): 1, (1, 3): 1, (1, 2): -1, (2, 4): -1}, 1),
    upper({(1, 2): 1, (2, 3): 1, (2, 2): -1, (1, 4): -1}, 1),
    upper({(2, 2): 1, (1, 4): 1, (1, 2): -1, (2, 3): -1}, 1),
    upper({(2, 3): 1, (1, 4): 1, (1, 2): -1, (2, 2): -1}, 1),
    upper({(1, 2): 1, (2, 4): 1, (2, 2): -1, (1, 3): -1}, 1),
    upper({(1, 3): 1, (2, 4): 1, (1, 2): -1, (2, 2): -1}, 1),
]


def check_simplest_polytope(poly_doc):
    equalities, facets = polytope_rows(poly_doc)
    reducer = Reducer(equalities)
    for row in SIMPLEST_EQUALITIES:
        coeffs, const = reducer.reduce(row)
        require(not coeffs and const == 0, "a paper equality does not hold")
    keys = {reducer.key(r) for r in facets}
    for row in SIMPLEST_FACETS:
        require(reducer.key(row) in keys, "a paper facet is missing")


def affine_hull_point(equalities, coords, rng):
    """A random point meeting the equalities: the free coordinates are
    drawn on a grid and each equality fixes its greatest coordinate."""
    pivots = {max(c) for c, _ in equalities}
    point = {k: F(rng.randint(0, 12), 12) for k in coords if k not in pivots}
    for coeffs, const in equalities:
        pivot = max(coeffs)
        rest = sum((a * point[k] for k, a in coeffs.items() if k != pivot), const)
        point[pivot] = -rest / coeffs[pivot]
    return point


def facet_normal_steps(equalities, facets, coords):
    """For each facet, the step from a point of the affine hull straight
    towards it: minus the facet's coefficients with their part along the
    equalities taken out (Gram-Schmidt in exact arithmetic).  Facets
    parallel to the hull give none.  A generator, as one step is often
    enough."""
    basis = []
    for coeffs, _ in equalities:
        v = {k: coeffs.get(k, F(0)) for k in coords}
        for b, bb in basis:
            f = sum(v[k] * b[k] for k in coords) / bb
            v = {k: v[k] - f * b[k] for k in coords}
        bb = sum(x * x for x in v.values())
        if bb:
            basis.append((v, bb))
    for coeffs, _ in facets:
        v = {k: -coeffs.get(k, F(0)) for k in coords}
        for b, bb in basis:
            f = sum(v[k] * b[k] for k in coords) / bb
            v = {k: v[k] - f * b[k] for k in coords}
        if any(v.values()):
            yield v


def membership_tables(poly_doc, uniform, rng, attempts=50):
    """Tables that meet the equalities: one inside the polytope and one
    outside it but inside the probability bounds, on a ray from the
    uniform table.  The rays are first ``attempts`` random ones, then one
    towards each facet, so that a facet cutting deeper than the
    probability bounds is found whatever the seed.  The outside table is
    None when no ray found one (the polytope is then cut by the
    probability bounds alone)."""
    equalities, facets = polytope_rows(poly_doc)
    coords = list(uniform)

    def random_steps():
        for _ in range(attempts):
            q = affine_hull_point(equalities, coords, rng)
            yield {k: q[k] - uniform[k] for k in coords}

    inside = None
    for steps in (random_steps(), facet_normal_steps(equalities, facets, coords)):
        for step in steps:
            crossings = []
            for coeffs, const in facets:
                slope = sum(c * step[k] for k, c in coeffs.items())
                if slope < 0:
                    crossings.append(evaluate((coeffs, const), uniform) / -slope)
            bounds = [(uniform[k] if s < 0 else 1 - uniform[k]) / abs(s)
                      for k, s in step.items() if s]
            if not crossings or min(crossings) == 0:
                continue
            t_facet = min(crossings)
            inside = {k: uniform[k] + t_facet / 2 * step[k] for k in uniform}
            t_bound = min(bounds)
            if t_facet < t_bound:
                t_out = (t_facet + min(t_bound, 2 * t_facet)) / 2
                return inside, {k: uniform[k] + t_out * step[k] for k in uniform}
    return inside, None


# --- orbits ----------------------------------------------------------------


def generator_maps(gen_doc):
    """Each generator as a map of (i, j, m) coordinates, for d = 2."""
    maps = []
    for entry in gen_doc["generators"]:
        kind, args = entry["type"], entry["args"]
        meas, prep, flips = {}, {}, set()
        if kind == "swap_measurements":
            meas = {args[0]: args[1], args[1]: args[0]}
        elif kind == "swap_preparations":
            pairs = [args] if isinstance(args[0], int) else args
            for a, b in pairs:
                prep[a], prep[b] = b, a
        elif kind == "flip_outcomes":
            flips = set(args)
        else:
            raise CheckFailed(f"unknown generator {kind!r}")
        maps.append((meas, prep, flips))
    return maps


def group_closure(coords, gen_doc) -> list:
    """All elements of the generated group, each a dict coord -> coord."""
    gens = []
    for meas, prep, flips in generator_maps(gen_doc):
        gens.append({(i, j, m): (meas.get(i, i), prep.get(j, j), 1 - m if i in flips else m)
                     for i, j, m in coords})
    identity = tuple(coords)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for element in frontier:
            for gen in gens:
                moved = tuple(gen[c] for c in element)
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    # element[n] is the image of coords[n]
    return [dict(zip(coords, element)) for element in seen]


def orbit_keys(row, group, reducer) -> set:
    coeffs, const = row
    return {reducer.key(({g[k]: c for k, c in coeffs.items()}, const)) for g in group}


# The paper's seven facet classes of the six-preparation polytope, as
# upper bounds on outcome-0 probabilities.  The fourth corrects a
# one-symbol misprint of the source table, as the acceptance suite does.
SIX_PREP_CLASSES = [
    upper({(1, 1): 1}, 1),
    upper({(1, 1): 2, (2, 3): 2, (3, 5): 2}, 5),
    upper({(1, 1): 1, (2, 2): 1, (3, 5): 1}, F(5, 2)),
    upper({(1, 1): 1, (1, 3): -1, (1, 5): -2, (2, 2): -2, (2, 3): 2, (3, 5): 2}, 3),
    upper({(1, 1): 2, (2, 2): -1, (2, 3): 2}, 3),
    upper({(1, 1): 1, (1, 5): -1, (2, 2): 1, (2, 3): 1, (3, 5): 2}, 4),
    upper({(1, 1): 1, (1, 5): -1, (2, 2): 2, (3, 5): 2}, 4),
]
SIX_PREP_KNOWN_FACET = SIX_PREP_CLASSES[1]
SIX_PREP_FACETS = 1596
SIX_PREP_GROUP_ORDER = 576


def check_orbits_input(poly_doc, uniform):
    """The six-preparation polytope document as the orbits workload reads it."""
    equalities, facets = polytope_rows(poly_doc)
    require(len(facets) == SIX_PREP_FACETS,
            f"{len(facets)} facets, expected {SIX_PREP_FACETS}")
    reducer = Reducer(equalities)
    keys = {reducer.key(r) for r in facets}
    require(len(keys) == len(facets), "repeated facet")
    require(reducer.key(SIX_PREP_KNOWN_FACET) in keys, "the paper's facet is missing")
    check_uniform_inside(poly_doc, uniform)


def check_orbits(orbits_doc, poly_doc, group):
    """Seven classes whose sizes divide the group order and sum to the
    facet count; the paper's representatives fall in seven distinct
    classes, and each class's size is the size of that paper orbit."""
    classes = orbits_doc["classes"]
    sizes = [c["orbit_size"] for c in classes]
    require(len(group) == SIX_PREP_GROUP_ORDER, f"group order {len(group)}")
    require(len(classes) == len(SIX_PREP_CLASSES), f"{len(classes)} orbit classes")
    require(sum(sizes) == SIX_PREP_FACETS, f"orbit sizes sum to {sum(sizes)}")
    require(all(SIX_PREP_GROUP_ORDER % s == 0 for s in sizes),
            "an orbit size does not divide the group order")
    equalities, facets = polytope_rows(poly_doc)
    reducer = Reducer(equalities)
    facet_keys = {reducer.key(r) for r in facets}
    rep_keys = [reducer.key(row_from_doc(c["representative"])) for c in classes]
    require(all(k in facet_keys for k in rep_keys), "a representative is not a facet")
    hits = []
    for row in SIX_PREP_CLASSES:
        orbit = orbit_keys(row, group, reducer)
        matches = [n for n, k in enumerate(rep_keys) if k in orbit]
        require(len(matches) == 1, f"a paper class meets {len(matches)} reported classes")
        require(sizes[matches[0]] == len(orbit),
                f"class size {sizes[matches[0]]}, the orbit has {len(orbit)} facets")
        hits.append(matches[0])
    require(sorted(hits) == list(range(len(classes))),
            "the paper's classes do not cover the reported classes")
