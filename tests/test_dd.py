import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpolytope import dd
from ncpolytope.dd import (_simplicial_start, extreme_rays, hull_facets,
                           vertices)
from ncpolytope.linalg import (GEQ, InternalError, LimitExceeded, LinRow,
                               dense_row)
from oracles import brute_force_vertices, in_convex_hull, simplicial_start

F = Fraction
VARS = ["x", "y", "z"]


def upper(coeffs, bound):
    """coeffs . x <= bound as a GEQ LinRow."""
    return LinRow({v: -F(c) for v, c in zip(VARS, coeffs)}, F(bound), GEQ)


def lower(coeffs, bound):
    """coeffs . x >= bound as a GEQ LinRow."""
    return LinRow({v: F(c) for v, c in zip(VARS, coeffs)}, -F(bound), GEQ)


UNIT = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
CUBE = ([lower(e, 0) for e in UNIT] + [upper(e, 1) for e in UNIT])
SIMPLEX = [lower(e, 0) for e in UNIT] + [upper((1, 1, 1), 1)]
# a cross-polytope of radius 1/2 about (1/3, 1/3, 1/3): rational vertices
CROSS = [upper(s, F(1, 2) + F(sum(s), 3))
         for s in product((1, -1), repeat=3)]
# the unit cube with five oblique cuts, each keeping the centre inside
CUT_CUBE = CUBE + [upper((-2, -1, 2), F(1, 4)), upper((-1, -1, -1), F(-3, 4)),
                   upper((1, 1, -1), F(3, 4)), upper((-1, 1, -1), F(-1, 4)),
                   upper((2, -1, -1), F(1, 4))]


def kernel_vertices(rows, variables=VARS, adaptive=False):
    got = vertices([dense_row(r, variables) for r in rows], len(variables),
                   "test vertices", adaptive)
    return sorted(tuple(F(a, den) for a in ints) for *ints, den in got)


@pytest.mark.parametrize("rows, count, adaptive", [
    # the given order keeps the bare id, the adaptive order adds a suffix
    pytest.param(rows, count, adaptive,
                 id=name + ("-adaptive" if adaptive else ""))
    for name, rows, count in [("cube", CUBE, 8), ("simplex", SIMPLEX, 4),
                              ("cross-polytope", CROSS, 6),
                              ("cut-cube", CUT_CUBE, 12)]
    for adaptive in (False, True)])
def test_vertices_match_brute_force_oracle(rows, count, adaptive):
    got = kernel_vertices(rows, adaptive=adaptive)
    assert got == brute_force_vertices(VARS, rows)
    assert len(got) == count


@pytest.mark.parametrize("rows", [CUBE, SIMPLEX, CROSS],
                         ids=["cube", "simplex", "cross-polytope"])
def test_vertices_are_primitive_points_inside_every_row(rows):
    # the point form (b, t) that the Fourier-Motzkin sign tests rely on:
    # primitive, t > 0, and row . point has the row's sign at b / t
    dense = [dense_row(r, VARS) for r in rows]
    for p in vertices(dense, len(VARS), "test vertices"):
        assert gcd(*p) == 1 and p[-1] > 0
        values = [sum(a * b for a, b in zip(row, p)) for row in dense]
        assert min(values) >= 0
        assert values.count(0) >= len(VARS)


def point(*coords):
    den = lcm(*(F(c).denominator for c in coords))
    return tuple(int(F(c) * den) for c in coords) + (den,)


def test_hull_ignores_points_that_are_not_extreme():
    # the 4-cube: its corners alone, then every point of the half-integer
    # grid (interior, face-interior and corner points) with repeats
    corners = [point(*c) for c in product((0, 1), repeat=4)]
    grid = [point(*c) for c in product((0, F(1, 2), 1), repeat=4)]
    facets = hull_facets(corners)
    assert hull_facets(grid + corners + grid[:5]) == facets
    unit = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    assert set(facets) == ({e + (0,) for e in unit}
                           | {tuple(-a for a in e) + (1,) for e in unit})


def affine_rank(points):
    rows = [[F(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows = [[a - r[col] / piv[col] * b for a, b in zip(r, piv)]
                for r in rows]
        rank += 1
    return rank


def test_hull_facets_match_oracle():
    # random point sets on a small 4-dimensional grid, with many points
    # on common faces: every row must be a facet (valid, and tight on
    # points of affine rank 3), and the rows must cut out exactly the hull
    rng = random.Random(20240613)
    grid = list(product(range(3), repeat=4))
    for pts in [rng.sample(grid, rng.randint(6, 16)) for _ in range(40)]:
        if affine_rank(pts) < 4:
            continue
        facets = hull_facets([p + (1,) for p in pts])
        for *a, a0 in facets:
            values = [sum(x * y for x, y in zip(a, p)) + a0 for p in pts]
            assert min(values) == 0
            assert affine_rank([p for p, v in zip(pts, values) if v == 0]) == 3
        for _ in range(10):
            q = [F(rng.randint(-1, 5), 2) for _ in range(4)]
            inside = all(sum(x * y for x, y in zip(a, q)) + a0 >= 0
                         for *a, a0 in facets)
            assert inside == in_convex_hull(q, pts)


def test_unbounded_region_raises():
    quadrant = [lower((1, 0, 0), 0), lower((0, 1, 0), 0),
                lower((0, 0, 1), 0), upper((0, 0, 1), 1)]
    with pytest.raises(InternalError, match="region is unbounded"):
        vertices([dense_row(r, VARS) for r in quadrant], len(VARS),
                 "test vertices")


def test_rows_or_points_that_do_not_span_raise():
    # x >= 0 and x + y >= 0 leave z free: the cone has a line
    with pytest.raises(InternalError, match="do not span"):
        extreme_rays([(1, 0, 0), (1, 1, 0)], 3, "test rays")
    # every point has z = 0, so the polar rows leave the z axis free
    square = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 1)]
    with pytest.raises(InternalError, match="do not span"):
        hull_facets(square)


def test_empty_region_has_no_vertex():
    # x, y in [0, 1] with x + y >= 3: the kernel finds no vertex, and no
    # caller holds an empty region, so that is a failed invariant
    rows = [lower((1, 0), 0), lower((0, 1), 0), upper((1, 0), 1),
            upper((0, 1), 1), lower((1, 1), 3)]
    with pytest.raises(InternalError, match="^test vertices: no vertex$"):
        kernel_vertices(rows, VARS[:2])


@st.composite
def start_rows(draw):
    """A dimension D and int rows of length D, some of them zero and some
    integer combinations of two earlier rows."""
    D = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(D - 1, D + 4))):
        kind = draw(st.sampled_from(["free", "free", "zero", "dependent"]))
        if kind == "zero":
            rows.append((0,) * D)
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=D, max_size=D))))
    return D, rows


@settings(max_examples=300, deadline=None)
@given(start_rows())
def test_simplicial_start_matches_fraction_oracle(case):
    # the same chosen rows and the same primitive rays as a Fraction
    # Gauss-Jordan inverse, and the same failure when the rows do not span
    D, rows = case
    try:
        expected = simplicial_start(rows, D)
    except InternalError:
        with pytest.raises(InternalError, match="do not span"):
            _simplicial_start(rows, D)
    else:
        assert _simplicial_start(rows, D) == expected


def test_ray_cap_names_the_hull_stage(monkeypatch):
    # the polar double description of the 3-cube's corners stops at the cap
    # with its stage named, as the vertex stages do through the CLI
    monkeypatch.setattr(dd, "RAY_CAP", 3)
    corners = [point(*c) for c in product((0, 1), repeat=3)]
    with pytest.raises(LimitExceeded, match=r"^facets of the image points: "
                       r"double description in dimension 4: more than 3 "
                       r"rays after \d+ of 9 rows$"):
        hull_facets(corners)
