"""Convex polytopes in R^3: hulls, volume, diameter, difference bodies.

Two arithmetic modes are supported and carried by every ``Polytope``:

* ``"float"``  -- numpy arithmetic, hull computed by Qhull.
* ``"rational"`` -- ``fractions.Fraction`` coordinates with exact sign
  predicates, so volumes and widths admit exact comparisons.

The rational hull is an incremental (beneath-beyond) algorithm with exact
orientation tests.  Degenerate inputs (coplanar point sets) raise
``DegenerateInput`` in both modes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, NotFullDimensional, PreconditionError

__all__ = [
    "Polytope",
    "convex_hull",
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


def _orient(a, b, c, d):
    """Signed volume predicate: det(b-a, c-a, d-a)."""
    return det3(_sub(b, a), _sub(c, a), _sub(d, a))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# ---------------------------------------------------------------------------
# exact incremental hull
# ---------------------------------------------------------------------------


def _initial_simplex(pts):
    """Pick four affinely independent points, maximizing each predicate."""
    n = len(pts)
    i0 = min(range(n), key=lambda i: pts[i])
    p0 = pts[i0]
    i1 = max(range(n), key=lambda i: _dot(_sub(pts[i], p0), _sub(pts[i], p0)))
    if pts[i1] == p0:
        raise DegenerateInput("all points coincide")
    e1 = _sub(pts[i1], p0)
    i2 = max(range(n), key=lambda i: _dot(_cross(e1, _sub(pts[i], p0)), _cross(e1, _sub(pts[i], p0))))
    if _cross(e1, _sub(pts[i2], p0)) == (0, 0, 0):
        raise NotFullDimensional("points are collinear")
    i3 = max(range(n), key=lambda i: abs(_orient(p0, pts[i1], pts[i2], pts[i])))
    if _orient(p0, pts[i1], pts[i2], pts[i3]) == 0:
        raise NotFullDimensional("points are coplanar")
    return i0, i1, i2, i3


def _hull_exact(pts):
    """Exact incremental hull of deduplicated Fraction triples.

    Returns (vertex_index_list, triangle_list) where triangles are index
    triples covering the boundary (coplanar facets may appear split).
    Orientation tests are exact, so points on a facet plane are never
    treated as outside it.  Horizon edges collinear with the inserted
    point force the adjacent coplanar facet into the visible region,
    which keeps every created facet non-degenerate.
    """
    i0, i1, i2, i3 = _initial_simplex(pts)
    seed = [i0, i1, i2, i3]
    if _orient(pts[i0], pts[i1], pts[i2], pts[i3]) > 0:
        seed = [i0, i2, i1, i3]
    a, b, c, d = seed
    # each facet oriented so the fourth seed point is on the negative side
    facets = {0: (a, b, c), 1: (a, c, d), 2: (a, d, b), 3: (b, d, c)}
    next_id = 4
    edge_owner = {}
    for fid, tri in facets.items():
        x, y, z = tri
        edge_owner[(x, y)] = fid
        edge_owner[(y, z)] = fid
        edge_owner[(z, x)] = fid

    order = sorted(range(len(pts)), key=lambda i: pts[i])
    for ip in order:
        if ip in seed:
            continue
        p = pts[ip]
        visible = set()
        for fid, (x, y, z) in facets.items():
            if _orient(pts[x], pts[y], pts[z], p) > 0:
                visible.add(fid)
        if not visible:
            continue  # inside or on the boundary: not extreme

        while True:
            horizon = []
            for fid in visible:
                x, y, z = facets[fid]
                for u, v in ((x, y), (y, z), (z, x)):
                    nb = edge_owner[(v, u)]
                    if nb not in visible:
                        horizon.append((u, v, nb))
            bad = [
                (u, v, nb)
                for u, v, nb in horizon
                if _cross(_sub(pts[v], pts[u]), _sub(p, pts[u])) == (0, 0, 0)
            ]
            if not bad:
                break
            # the neighbour across a collinear horizon edge is coplanar
            # with p; absorb it so no zero-area facet gets created
            for _, _, nb in bad:
                visible.add(nb)
            if len(visible) == len(facets):
                raise DegenerateInput("hull insertion saw every facet")

        for fid in visible:
            x, y, z = facets.pop(fid)
            for u, v in ((x, y), (y, z), (z, x)):
                del edge_owner[(u, v)]
        for u, v, _ in horizon:
            fid = next_id
            next_id += 1
            facets[fid] = (u, v, ip)
            edge_owner[(u, v)] = fid
            edge_owner[(v, ip)] = fid
            edge_owner[(ip, u)] = fid

    tris = list(facets.values())
    verts = _extreme_vertices(pts, tris)
    return verts, tris


def _canonical_plane(n):
    """Scale an exact normal vector so collinear normals compare equal."""
    for comp in n:
        if comp != 0:
            return (n[0] / comp, n[1] / comp, n[2] / comp)
    raise DegenerateInput("zero normal")


def _rank3(rows):
    """Exact rank of a list of length-3 exact rows (at most 3)."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(3):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                for cc in range(col, 3):
                    m[r][cc] -= f * m[rank][cc]
        rank += 1
        if rank == 3:
            break
    return rank


def _extreme_vertices(pts, tris):
    """Filter triangle corners down to true hull vertices.

    Insertion order can strand a point mid-edge or mid-face of the final
    hull; such a corner is incident to at most two distinct facet planes,
    while a genuine vertex is incident to planes of full rank 3.
    """
    incident = {}
    for x, y, z in tris:
        n = _cross(_sub(pts[y], pts[x]), _sub(pts[z], pts[x]))
        plane = _canonical_plane(n)
        for idx in (x, y, z):
            incident.setdefault(idx, set()).add(plane)
    out = []
    for idx, planes in incident.items():
        if len(planes) >= 3 and _rank3(sorted(planes)) == 3:
            out.append(idx)
    return sorted(out, key=lambda i: pts[i])


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
            vidx, tris = _hull_exact(pts)
        else:
            vidx, tris = _hull_float(pts)
        self.mode = mode
        self.vertices = [pts[i] for i in vidx]
        self._tris = [(pts[a], pts[b], pts[c]) for a, b, c in tris]

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


def convex_hull(points, mode: str = "float") -> Polytope:
    """Convex hull of a finite point set; returns the extreme points only."""
    return Polytope(points, mode=mode)


def volume(P: Polytope):
    """Volume by fan triangulation from the vertex centroid.

    Exact (a Fraction) in rational mode, float otherwise.
    """
    n = len(P.vertices)
    if P.mode == "rational":
        cx = sum(v[0] for v in P.vertices) / n
        cy = sum(v[1] for v in P.vertices) / n
        cz = sum(v[2] for v in P.vertices) / n
        c = (cx, cy, cz)
        total = Fraction(0)
        for a, b, d in P._tris:
            total += abs(det3(_sub(a, c), _sub(b, c), _sub(d, c)))
        return total / 6
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
