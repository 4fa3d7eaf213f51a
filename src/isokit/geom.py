"""Convex polytopes in R^3: hulls, volume and JSON input.

Each arithmetic has its own type.  ``Polytope`` is exact, on
``fractions.Fraction`` coordinates with exact sign predicates, so volumes
and widths admit exact comparisons.  ``float_hull`` returns a float
body's vertex array and volume, computed by Qhull: the normalization
pipeline's only hull.

The exact hull is an incremental (beneath-beyond) algorithm run on
Python ints.  Each point becomes homogeneous integer coordinates
(X, Y, Z, w), w the lcm of its own three denominators, and each facet
stores its integer plane when it is made, so an orientation test is the
sign of a four-term integer dot product (the cached-plane test of
Quickhull: Barber, Dobkin & Huhdanpaa 1996).  The seed simplex, the
vertex filter and the exact volume run on the same integers, so the hull
does no ``Fraction`` arithmetic.  A ``Polytope`` keeps its vertices'
integer frame (integer triples over one common denominator) and the
positions of its seed simplex among them: the lattice-width search reads
both rather than rebuilding them.  Degenerate inputs (coplanar point
sets) raise ``DegenerateInput`` in both.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DegenerateInput, PreconditionError

__all__ = [
    "Polytope",
    "volume",
    "float_hull",
    "points_from_json",
    "det3",
]


def det3(r0, r1, r2):
    """Determinant of the 3x3 matrix with rows r0, r1, r2.

    Works for any exact or floating scalar type (Fraction, int, float),
    and elementwise on arrays of them.
    """
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# ---------------------------------------------------------------------------
# exact incremental hull, on homogeneous integer coordinates
# ---------------------------------------------------------------------------


def _homogeneous(p):
    """Integer homogeneous coordinates (X, Y, Z, w) of an exact point.

    w > 0 is the lcm of the point's own three denominators, so p = (X, Y,
    Z) / w.  Each point keeps its own w: one common denominator for a
    whole point set would make every coordinate as long as the lcm of all
    of them.  Floats enter at their exact binary value.
    """
    (x, dx), (y, dy), (z, dz) = (c.as_integer_ratio() for c in p)
    w = math.lcm(dx, dy, dz)
    return (x * (w // dx), y * (w // dy), z * (w // dz), w)


def _plane(a, b, c):
    """Integer plane L through the homogeneous points a, b, c.

    L·q = wa wb wc wq · det(b − a, c − a, q − a) in affine terms, so the
    sign of the four-term dot product ``_side(L, q)`` is the orientation
    of q against the triangle abc.  The first three entries are the normal
    (b − a) × (c − a) times wa wb wc; L is zero exactly when a, b and c
    are collinear (every 3x3 minor of the rows a, b, c vanishes).
    """
    ab, bc, ca = _cross(a, b), _cross(b, c), _cross(c, a)
    wa, wb, wc = a[3], b[3], c[3]
    return (
        wc * ab[0] + wa * bc[0] + wb * ca[0],
        wc * ab[1] + wa * bc[1] + wb * ca[1],
        wc * ab[2] + wa * bc[2] + wb * ca[2],
        -_dot(a, bc),
    )


def _side(L, q):
    return L[0] * q[0] + L[1] * q[1] + L[2] * q[2] + L[3] * q[3]


def _argmax_ratio(ratios):
    """Index of the first largest n/d over (n, d) pairs with d > 0."""
    best, bn, bd = 0, None, 1
    for i, (n, d) in enumerate(ratios):
        if bn is None or n * bd > bn * d:
            best, bn, bd = i, n, d
    return best


def _initial_simplex(H):
    """Four affinely independent points of H, each maximizing its predicate.

    H holds homogeneous points in lexicographic order of their affine
    coordinates, so H[0] is the lexicographic minimum p0.  Then p1 is the
    first point farthest from p0, p2 the first farthest from the line
    p0p1 and p3 the first farthest from the plane p0p1p2, all compared as
    exact ratios.
    """
    X0, Y0, Z0, w0 = H[0]
    # e_i = w0 w_i (p_i − p0), so every predicate below is a ratio over w_i
    e = [(w0 * X - w * X0, w0 * Y - w * Y0, w0 * Z - w * Z0) for X, Y, Z, w in H]
    i1 = _argmax_ratio((_dot(d, d), h[3] * h[3]) for d, h in zip(e, H))
    if e[i1] == (0, 0, 0):
        raise DegenerateInput("all points coincide")
    cross = [_cross(e[i1], d) for d in e]
    i2 = _argmax_ratio((_dot(c, c), h[3] * h[3]) for c, h in zip(cross, H))
    if cross[i2] == (0, 0, 0):
        raise DegenerateInput("points are collinear")
    n = cross[i2]
    i3 = _argmax_ratio((abs(_dot(n, d)), h[3]) for d, h in zip(e, H))
    if _dot(n, e[i3]) == 0:
        raise DegenerateInput("points are coplanar")
    return 0, i1, i2, i3


def _hull_exact(H):
    """Exact incremental hull of distinct, sorted homogeneous points.

    Returns (vertex_index_list, triangle_list, seed) where triangles are
    index triples covering the boundary (coplanar facets may appear
    split), each oriented so that the hull lies on its negative side, and
    seed holds the four indices ``_initial_simplex`` picked, in its order.
    Every seed point is a vertex: each is the lexicographically first
    maximizer of a convex function, and a maximizer that is not a vertex
    averages vertices that all maximize it, one of them smaller.  Every
    facet stores its integer plane once, when it is made, so a point is
    tested against a facet by the sign of one integer dot product; points
    on a facet plane are never treated as outside it.
    """
    seed = _initial_simplex(H)
    a, b, c, d = seed
    if _side(_plane(H[a], H[b], H[c]), H[d]) > 0:
        b, c = c, b
    # each facet oriented so the fourth seed point is on the negative side
    facets = {0: (a, b, c), 1: (a, c, d), 2: (a, d, b), 3: (b, d, c)}
    planes = {fid: _plane(H[x], H[y], H[z]) for fid, (x, y, z) in facets.items()}
    next_id = 4
    edge_owner = {}
    for fid, tri in facets.items():
        x, y, z = tri
        edge_owner[(x, y)] = fid
        edge_owner[(y, z)] = fid
        edge_owner[(z, x)] = fid

    for ip, p in enumerate(H):
        if ip in seed:
            continue
        X, Y, Z, W = p
        visible = {fid for fid, (lx, ly, lz, lw) in planes.items() if lx * X + ly * Y + lz * Z + lw * W > 0}
        if not visible:
            continue  # inside or on the boundary: not extreme

        # no horizon plane is zero: a facet seeing p strictly holds uv, so p on line uv would be in its plane
        horizon = []
        for fid in visible:
            x, y, z = facets[fid]
            for u, v in ((x, y), (y, z), (z, x)):
                if edge_owner[(v, u)] not in visible:
                    horizon.append((u, v, _plane(H[u], H[v], p)))

        for fid in visible:
            x, y, z = facets.pop(fid)
            del planes[fid]
            for u, v in ((x, y), (y, z), (z, x)):
                del edge_owner[(u, v)]
        for u, v, L in horizon:
            fid = next_id
            next_id += 1
            facets[fid] = (u, v, ip)
            planes[fid] = L
            edge_owner[(u, v)] = fid
            edge_owner[(v, ip)] = fid
            edge_owner[(ip, u)] = fid

    return _extreme_vertices(facets, planes), list(facets.values()), seed


def _canonical_normal(L):
    """A facet plane's outward normal, gcd-reduced, so the triangles of
    one split facet compare equal."""
    g = math.gcd(L[0], L[1], L[2])
    if g == 0:
        raise DegenerateInput("zero normal")
    return (L[0] // g, L[1] // g, L[2] // g)


def _extreme_vertices(facets, planes):
    """Filter triangle corners down to true hull vertices, in index order.

    Insertion order can strand a point mid-edge or mid-face of the final
    hull.  Every triangle lies in a facet plane of the hull, and distinct
    facets have distinct outward normals, so the canonical normals at a
    corner count the facet planes through it.  A point inside a facet
    lies on one of them and a point inside an edge on exactly two, while
    a vertex of a 3-polytope lies on at least three: three distinct planes
    keep a corner, and that rule is exact.
    """
    incident = {}
    for fid, corners in facets.items():
        normal = _canonical_normal(planes[fid])
        for idx in corners:
            incident.setdefault(idx, set()).add(normal)
    return sorted(idx for idx, normals in incident.items() if len(normals) >= 3)


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------


class Polytope:
    """Convex polytope given by its extreme points, in exact arithmetic.

    vertices : list of ``Fraction`` coordinate triples, sorted,
        deduplicated, reduced to the extreme points of the input.
    integer_vertices : the vertices times ``denominator``, as int triples.
    denominator : the lcm of the vertices' denominators.
    seed : positions in ``vertices`` of the hull's seed simplex.

    Coordinates may be ints, floats or Fractions; a float is read at its
    exact binary value, and a coordinate with no exact value (NaN, ±inf,
    a non-number) is refused.  Construction runs the exact hull, so listed
    vertices are guaranteed extreme and full-dimensionality is enforced.
    """

    __slots__ = ("vertices", "integer_vertices", "denominator", "seed", "_tris")

    def __init__(self, points):
        pts = sorted({_exact_point(p) for p in points})
        if len(pts) < 4:
            raise DegenerateInput("need at least 4 distinct points")
        corners = [_homogeneous(p) for p in pts]
        vidx, tris, seed = _hull_exact(corners)
        self.vertices = [pts[i] for i in vidx]
        H = [corners[i] for i in vidx]
        self.denominator = d = math.lcm(*(w for *_, w in H))
        self.integer_vertices = [(X * (d // w), Y * (d // w), Z * (d // w)) for X, Y, Z, w in H]
        self.seed = tuple(vidx.index(i) for i in seed)
        # boundary triangles, their corners homogeneous integers, each oriented outward
        self._tris = [(corners[a], corners[b], corners[c]) for a, b, c in tris]

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices)"


def _exact_point(p):
    if len(p) != 3:
        raise PreconditionError("points must be 3-dimensional")
    try:
        return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in p)
    except (ValueError, OverflowError, TypeError) as exc:  # Fraction(nan), Fraction(inf), Fraction("a")
        if any(isinstance(c, float) and not math.isfinite(c) for c in p):
            raise PreconditionError("non-finite coordinate") from exc
        raise PreconditionError(f"bad coordinate in point {tuple(p)!r}") from exc


def volume(P: Polytope) -> Fraction:
    """Exact volume of P.

    The hull orients every boundary triangle outward, so the signed cones
    from the origin add up to the volume: sum det(a, b, c) / 6 over the
    triangles, on integers over one common denominator.
    """
    common = math.lcm(*{h[3] for tri in P._tris for h in tri}) ** 3
    total = sum(det3(a, b, c) * (common // (a[3] * b[3] * c[3])) for a, b, c in P._tris)
    return Fraction(total, 6 * common)


def _float_points(points) -> np.ndarray:
    """The points as an (n, 3) float array, each coordinate read by float()."""
    if not isinstance(points, np.ndarray):
        points = list(points)  # any iterable of points, a generator or a set too
        if any(len(p) != 3 for p in points):
            raise PreconditionError("points must be 3-dimensional")
    arr = np.array(points, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise PreconditionError("points must be 3-dimensional")
    return arr


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of a float array, in the order of sorted(set(tuples)).

    Adding 0.0 turns -0.0 into 0.0, which Python's == already equates.  A
    NaN row equals no other row, as a NaN tuple is distinct in a set.
    """
    arr = arr + 0.0
    srt = arr[np.lexsort(arr.T[::-1])]
    keep = np.ones(len(srt), dtype=bool)
    keep[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    return srt[keep]


def float_hull(points) -> tuple:
    """(vertices, volume) of the convex hull of (n, 3) float points, by Qhull.

    ``vertices`` is the read-only array of the hull's vertices, Qhull's own
    list, which is in input order and so lexicographic.  Qhull's triangles
    carry no orientation, so ``volume`` fans them from the vertex centroid:
    the sum of |det(a - c, b - c, d - c)| / 6, added one triangle at a time.
    """
    # scipy loads only when a float hull is built: commands that never
    # take one (certify, verify-lemmas, peculiar) skip its import cost
    from scipy.spatial import ConvexHull, QhullError

    pts = _sorted_unique(_float_points(points))
    if len(pts) < 4:
        raise DegenerateInput("need at least 4 distinct points")
    if not np.all(np.isfinite(pts)):
        raise PreconditionError("non-finite coordinate")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"qhull rejected the input: {exc}") from exc
    vertices = pts[hull.vertices]
    vertices.flags.writeable = False
    # corners of each triangle less the centroid, as [corner][coordinate][triangle]
    X = (pts[hull.simplices] - vertices.mean(axis=0)).transpose(1, 2, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # a body past double range gets a NaN volume
        return vertices, float(np.cumsum(np.abs(det3(*X)))[-1] / 6.0)


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------


def _coord_from_json(x, exact):
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad rational literal {x!r}") from exc
    elif isinstance(x, bool) or not isinstance(x, (int, float)):
        raise PreconditionError(f"bad coordinate {x!r}")
    if exact:
        return Fraction(str(x)) if isinstance(x, float) else Fraction(x)
    try:
        return float(x)
    except OverflowError as exc:
        digits = len(str(abs(int(x))))
        raise PreconditionError(f"coordinate out of float range: its integer part has {digits} digits") from exc


def _number_rows(verts):
    """The (n, 3) float array of JSON rows that are lists of three numbers
    within the double range; None when some row needs the per-coordinate
    path ("p/q" strings, ints past the double range, refusals)."""
    if set(map(type, verts)) != {list} or set(map(len, verts)) != {3}:
        return None
    flat = list(chain.from_iterable(verts))
    if not set(map(type, flat)) <= {float, int}:  # bool is neither
        return None
    try:
        return np.array(flat, dtype=float).reshape(-1, 3)
    except OverflowError:
        return None


def points_from_json(data, exact: bool):
    """The points of ``{"vertices": [[x, y, z], ...]}``.

    Coordinates may be JSON numbers or exact "p/q" strings.  With ``exact``
    each becomes a Fraction, a decimal at face value (0.1 becomes 1/10);
    otherwise a double, and a coordinate beyond the double range is refused.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or "vertices" not in data:
        raise PreconditionError('expected an object with a "vertices" key')
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise PreconditionError("vertices must be a non-empty list")
    if not exact:
        arr = _number_rows(verts)
        if arr is not None:
            return arr
    pts = []
    for v in verts:
        if not isinstance(v, list) or len(v) != 3:
            raise PreconditionError("each vertex must be a list of 3 coordinates")
        pts.append(tuple(_coord_from_json(c, exact) for c in v))
    return pts
