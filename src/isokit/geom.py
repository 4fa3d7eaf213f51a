"""Convex polytopes in R^3: hulls, volume, diameter, difference bodies.

Two arithmetic modes are supported and carried by every ``Polytope``:

* ``"float"``  -- numpy arithmetic, hull computed by Qhull.
* ``"rational"`` -- ``fractions.Fraction`` coordinates with exact sign
  predicates, so volumes and widths admit exact comparisons.

The rational hull is an incremental (beneath-beyond) algorithm run on
Python ints.  Each point becomes homogeneous integer coordinates
(X, Y, Z, w), w the lcm of its own three denominators, and each facet
stores its integer plane when it is made, so an orientation test is the
sign of a four-term integer dot product (the cached-plane test of
Quickhull: Barber, Dobkin & Huhdanpaa 1996).  The seed simplex, the
vertex filter and the exact volume run on the same integers, so the hull
does no ``Fraction`` arithmetic.  Degenerate inputs (coplanar point sets)
raise ``DegenerateInput`` in both modes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, NotFullDimensional, PreconditionError

__all__ = [
    "Polytope",
    "volume",
    "diameter",
    "difference_body",
    "simplex_volume_lower_bound",
    "polytope_from_json",
    "polytope_to_json",
    "det3",
]


def det3(r0, r1, r2):
    """Determinant of the 3x3 matrix with rows r0, r1, r2.

    Works for any exact or floating scalar type (Fraction, int, float).
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
        raise NotFullDimensional("points are collinear")
    n = cross[i2]
    i3 = _argmax_ratio((abs(_dot(n, d)), h[3]) for d, h in zip(e, H))
    if _dot(n, e[i3]) == 0:
        raise NotFullDimensional("points are coplanar")
    return 0, i1, i2, i3


def _hull_exact(H):
    """Exact incremental hull of distinct, sorted homogeneous points.

    Returns (vertex_index_list, triangle_list) where triangles are index
    triples covering the boundary (coplanar facets may appear split),
    each oriented so that the hull lies on its negative side.  Every
    facet stores its integer plane once, when it is made, so a point is
    tested against a facet by the sign of one integer dot product; points
    on a facet plane are never treated as outside it.
    """
    seed = list(_initial_simplex(H))
    a, b, c, d = seed
    if _side(_plane(H[a], H[b], H[c]), H[d]) > 0:
        seed = [a, c, b, d]
    a, b, c, d = seed
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

    verts = _extreme_vertices(facets, planes)
    return verts, list(facets.values())


def _canonical_normal(L):
    """A facet plane's outward normal, gcd-reduced, so the triangles of
    one split facet compare equal."""
    g = math.gcd(L[0], L[1], L[2])
    if g == 0:
        raise DegenerateInput("zero normal")
    return (L[0] // g, L[1] // g, L[2] // g)


def _rank3(rows):
    """Exact rank (at most 3) of integer rows of length 3, by fraction-free
    elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(3):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f != 0:
                m[r] = [x * top[col] - t * f for x, t in zip(m[r], top)]
        rank += 1
        if rank == 3:
            break
    return rank


def _extreme_vertices(facets, planes):
    """Filter triangle corners down to true hull vertices, in index order.

    Insertion order can strand a point mid-edge or mid-face of the final
    hull; such a corner is incident to at most two distinct facet planes,
    while a genuine vertex is incident to planes of full rank 3.
    """
    incident = {}
    for fid, corners in facets.items():
        normal = _canonical_normal(planes[fid])
        for idx in corners:
            incident.setdefault(idx, set()).add(normal)
    return sorted(idx for idx, normals in incident.items() if len(normals) >= 3 and _rank3(normals) == 3)


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------


class Polytope:
    """Convex polytope given by its extreme points.

    vertices : list of coordinate triples (float or Fraction), sorted,
        deduplicated, reduced to the extreme points of the input.
    mode : "float" or "rational".

    Construction runs a full hull reduction, so listed vertices are
    guaranteed extreme and full-dimensionality is enforced.
    """

    __slots__ = ("vertices", "mode", "_tris")

    def __init__(self, points, mode: str = "float"):
        if mode not in ("float", "rational"):
            raise PreconditionError(f"unknown mode {mode!r}")
        pts = [_coerce_point(p, mode) for p in points]
        pts = sorted(set(pts))
        if len(pts) < 4:
            raise DegenerateInput("need at least 4 distinct points")
        if mode == "rational":
            corners = [_homogeneous(p) for p in pts]
            vidx, tris = _hull_exact(corners)
        else:
            corners = pts
            vidx, tris = _hull_float(pts)
        self.mode = mode
        self.vertices = [pts[i] for i in vidx]
        # boundary triangles; in rational mode their corners are
        # homogeneous integers and each is oriented outward
        self._tris = [(corners[a], corners[b], corners[c]) for a, b, c in tris]

    def as_array(self) -> np.ndarray:
        return np.array([[float(c) for c in v] for v in self.vertices], dtype=float)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices, mode={self.mode!r})"


def _coerce_point(p, mode):
    if len(p) != 3:
        raise PreconditionError("points must be 3-dimensional")
    if mode == "rational":
        return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in p)
    return tuple(float(c) + 0.0 for c in p)


def _hull_float(pts):
    # scipy loads only when a float hull is built: commands that never
    # take one (certify, verify-lemmas, peculiar) skip its import cost
    from scipy.spatial import ConvexHull, QhullError

    arr = np.asarray(pts, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("non-finite coordinate")
    try:
        hull = ConvexHull(arr)
    except QhullError as exc:
        raise NotFullDimensional(f"qhull rejected the input: {exc}") from exc
    return sorted(hull.vertices.tolist()), [tuple(s) for s in hull.simplices.tolist()]


def volume(P: Polytope):
    """Volume of P: exact (a Fraction) in rational mode, float otherwise.

    The rational hull orients every boundary triangle outward, so the
    signed cones from the origin add up to the volume: sum det(a, b, c) / 6
    over the triangles, on integers over one common denominator.  Qhull's
    triangles carry no orientation, so the float volume fans them from the
    vertex centroid.
    """
    if P.mode == "rational":
        common = math.lcm(*{h[3] for tri in P._tris for h in tri}) ** 3
        total = sum(det3(a, b, c) * (common // (a[3] * b[3] * c[3])) for a, b, c in P._tris)
        return Fraction(total, 6 * common)
    c = tuple(float(x) for x in np.mean(P.as_array(), axis=0))
    total = 0.0
    for a, b, d in P._tris:
        total += abs(det3(_sub(a, c), _sub(b, c), _sub(d, c)))
    return total / 6.0


def diameter(P: Polytope) -> float:
    """Largest pairwise vertex distance (the Euclidean diameter)."""
    if P.mode == "rational":
        best = Fraction(0)
        vs = P.vertices
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                d = _sub(vs[i], vs[j])
                best = max(best, _dot(d, d))
        return math.sqrt(best)
    arr = P.as_array()
    d2 = np.sum((arr[:, None, :] - arr[None, :, :]) ** 2, axis=-1)
    return math.sqrt(float(np.max(d2)))


def difference_body(P: Polytope, mode: str | None = None) -> Polytope:
    """Hull of all pairwise vertex differences v_i - v_j (origin-symmetric).

    ``mode`` is the arithmetic of the result, P's own by default; a float
    difference body of a rational polytope skips its exact hull.
    """
    if (mode or P.mode) == "rational":
        diffs = [_sub(a, b) for a in P.vertices for b in P.vertices]
        return Polytope(diffs, mode="rational")
    arr = P.as_array()
    diffs = (arr[:, None, :] - arr[None, :, :]).reshape(-1, 3)
    return Polytope(diffs, mode="float")


def simplex_volume_lower_bound(y1, y2, y3):
    """Volume of the simplex conv{0, y1, y2, y3}: |det(y1, y2, y3)| / 6."""
    d = det3(tuple(y1), tuple(y2), tuple(y3))
    if isinstance(d, Fraction):
        return abs(d) / 6
    return abs(float(d)) / 6.0


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _coord_from_json(x, mode):
    if isinstance(x, str):
        try:
            fr = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad rational literal {x!r}") from exc
        return fr if mode == "rational" else float(fr)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise PreconditionError(f"bad coordinate {x!r}")
    if mode == "rational":
        return Fraction(x) if isinstance(x, int) else Fraction(str(x))
    return float(x)


def polytope_from_json(data, mode: str = "float") -> Polytope:
    """Parse ``{"vertices": [[x, y, z], ...]}``.

    Coordinates may be JSON numbers or exact "p/q" strings.  In rational
    mode decimal numbers are read at face value (0.1 becomes 1/10).
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or "vertices" not in data:
        raise PreconditionError('expected an object with a "vertices" key')
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise PreconditionError("vertices must be a non-empty list")
    pts = []
    for v in verts:
        if not isinstance(v, list) or len(v) != 3:
            raise PreconditionError("each vertex must be a list of 3 coordinates")
        pts.append(tuple(_coord_from_json(c, mode) for c in v))
    return Polytope(pts, mode=mode)


def polytope_to_json(P: Polytope) -> dict:
    if P.mode == "rational":
        return {
            "vertices": [
                [f"{c.numerator}/{c.denominator}" for c in v] for v in P.vertices
            ]
        }
    return {"vertices": [[float(c) for c in v] for v in P.vertices]}
