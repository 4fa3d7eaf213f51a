"""Lattice widths of polytopes and the width-volume inequality.

The lattice width of a body K is min over nonzero integer directions u
of max⟨v,u⟩ − min⟨v,u⟩, v in K.  Finding the minimum needs only finitely
many candidates: any simplex S spanned by vertices of K lies in K, so a
direction u of width at most a known W satisfies |⟨d,u⟩| ≤ W for every
edge d of S.  Three of those edges are independent, so the slabs bound
a region holding finitely many lattice points; the search enumerates
them in exact integer arithmetic, shrinking W as narrower directions
appear.  No floating-point step decides which direction is pruned or
returned.

For polytopes built in rational mode every width here is an exact
Fraction, which makes the inequality vol(K) >= width^3 / 12 checkable
with zero rounding; the simplex conv{0, (1,1/2,1/2), (1/2,1,1/2),
(1/2,1/2,1)} attains it with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SingularLattice
from .geom import Polytope, _initial_simplex, _sub, volume

__all__ = [
    "LatticeDirection",
    "LatticeBasis",
    "WidthResult",
    "width_in_direction",
    "lattice_width",
    "is_nonseparable_unit_lattice",
    "is_nonseparable_width",
    "density",
    "verify_width_volume_corollary",
]


def _canonical_primitive(u) -> tuple:
    try:
        a, b, c = (int(x) for x in u)
    except (TypeError, ValueError):
        raise PreconditionError("direction must be three integers")
    if (a, b, c) != tuple(int(x) for x in u) or any(x != int(x) for x in u):
        raise PreconditionError("direction must be three integers")
    if a == b == c == 0:
        raise PreconditionError("direction must be nonzero")
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    for x in (a, b, c):
        if x != 0:
            if x < 0:
                a, b, c = -a, -b, -c
            break
    return (a, b, c)


@dataclass(frozen=True)
class LatticeDirection:
    """Primitive integer direction, gcd-reduced, first nonzero positive."""

    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", _canonical_primitive(self.u))

    def as_tuple(self) -> tuple:
        return self.u


@dataclass(frozen=True)
class WidthResult:
    """Minimal width with an attaining direction and search effort."""

    value: object  # Fraction in rational mode, float otherwise
    direction: tuple
    checked: int


def width_in_direction(P: Polytope, u) -> object:
    """max dot - min dot over the vertices; exact in rational mode.

    The direction is used verbatim (no gcd reduction), so a doubled
    direction reports a doubled width; pass a LatticeDirection for the
    canonical primitive representative.
    """
    if isinstance(u, LatticeDirection):
        d = u.u
    else:
        d = tuple(u)
        if len(d) != 3 or any(x != int(x) for x in d):
            raise PreconditionError("direction must be three integers")
        d = tuple(int(x) for x in d)
        if d == (0, 0, 0):
            raise PreconditionError("direction must be nonzero")
    dots = [vx * d[0] + vy * d[1] + vz * d[2] for (vx, vy, vz) in P.vertices]
    return max(dots) - min(dots)


def _integer_vertices(P: Polytope) -> list:
    """P's vertices times the lcm of their denominators, as integer triples.

    Scaling by a positive constant scales every width by it, so the search
    compares plain integers.  Float coordinates enter at their exact binary
    value, Fraction(x).
    """
    verts = [tuple(Fraction(c) for c in v) for v in P.vertices]
    scale = math.lcm(*(c.denominator for v in verts for c in v))
    return [tuple(c.numerator * (scale // c.denominator) for c in v) for v in verts]


def _reduced(coef, g):
    m = math.gcd(*coef, g)
    return tuple(x // m for x in coef), g // m


def _eliminate(planes, k) -> set:
    """Fourier-Motzkin: the exact shadow of ``planes`` along variable k.

    A plane (coef, g) stands for coef·u <= g W with g > 0, so one set of
    planes serves every W.
    """
    shadow = {p for p in planes if p[0][k] == 0}
    for cu, gu in planes:
        if cu[k] <= 0:
            continue
        for cd, gd in planes:
            if cd[k] < 0:
                s, t = -cd[k], cu[k]
                coef = tuple(s * x + t * y for x, y in zip(cu, cd))
                if any(coef):
                    shadow.add(_reduced(coef, s * gu + t * gd))
    return shadow


def _interval(planes, prefix, W) -> range:
    """Integers x with coef·(prefix, x, 0...) <= g W on every plane (coef, g)."""
    k = len(prefix)
    lo = hi = None
    for coef, g in planes:
        r = g * W - sum(c * x for c, x in zip(coef, prefix))
        if coef[k] > 0:
            q = r // coef[k]
            hi = q if hi is None else min(hi, q)
        elif coef[k] < 0:
            q = -(r // -coef[k])
            lo = q if lo is None else max(lo, q)
        elif r < 0:
            return range(0)
    return range(lo, hi + 1)


def lattice_width(P: Polytope) -> WidthResult:
    """Exact minimal lattice width by simplex-slab enumeration.

    Four affinely independent vertices v0..v3 of K span a simplex S inside
    K, so width_u(S) <= width_u(K): a direction u of width at most W obeys
    |⟨vi − vj, u⟩| ≤ W on all six edges of S.  Those slabs cut a bounded
    region; Fourier-Motzkin elimination gives its exact shadows on (a, b)
    and on a, so the search walks a, then b, then c over exact integer
    intervals.  W is the best width found so far, so the region shrinks as
    the search proceeds.  Candidates are visited in increasing
    lexicographic order and a tie replaces the best, which keeps the
    lexicographically greatest canonical direction among the narrowest.
    Every comparison is exact, in both modes.
    """
    V = _integer_vertices(P)
    S = [V[i] for i in _initial_simplex(V)]
    edges = [_sub(S[i], S[j]) for i in range(4) for j in range(i)]
    planes_abc = {(d, 1) for d in edges} | {(tuple(-x for x in d), 1) for d in edges}
    planes_ab = _eliminate(planes_abc, 2)
    # the shadow on a is [-W a_reach, W a_reach]; keep only its tightest plane
    a_reach = min(Fraction(g, coef[0]) for coef, g in _eliminate(planes_ab, 1) if coef[0] > 0)

    def width(u):
        dots = [x * u[0] + y * u[1] + z * u[2] for x, y, z in V]
        return max(dots) - min(dots)

    W = min(width(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    best_u = None
    checked = 0
    a = 0  # canonical directions have a >= 0
    while a <= W * a_reach:
        for b in _interval(planes_ab, (a,), W):
            if a == 0 and b < 0:
                continue
            for c in _interval(planes_abc, (a, b), W):
                if (a == b == 0 and c <= 0) or math.gcd(a, b, c) != 1:
                    continue
                w = width((a, b, c))
                checked += 1
                if w <= W:
                    W, best_u = w, (a, b, c)
        a += 1
    return WidthResult(value=width_in_direction(P, best_u), direction=best_u, checked=checked)


def is_nonseparable_width(w, mode: str) -> bool:
    """Whether a lattice width w (of a body in ``mode``) is at least 1.

    Exact in rational mode.  In float mode a width within 1e-9 of the
    threshold is refused rather than guessed.
    """
    if mode == "rational":
        return w >= 1
    if abs(float(w) - 1.0) < 1e-9:
        raise PreconditionError("width too close to 1 to decide in float mode")
    return float(w) > 1.0


def is_nonseparable_unit_lattice(P: Polytope) -> bool:
    """Whether the lattice width is at least 1 (see is_nonseparable_width)."""
    return is_nonseparable_width(lattice_width(P).value, P.mode)


def density(P: Polytope):
    """vol(K) / width(K)^3; at least 1/12 for every convex polytope."""
    w = lattice_width(P).value
    v = volume(P)
    if P.mode == "rational":
        return Fraction(v) / Fraction(w) ** 3
    return float(v) / float(w) ** 3


def verify_width_volume_corollary(P: Polytope) -> dict:
    """Check vol(K) >= width(K)^3 / 12, exactly when possible.

    Returns volume, width, the attaining direction, the bound, the slack
    vol - width^3/12, and whether the inequality holds.  In rational mode
    every field is an exact Fraction and ``exact`` is True.
    """
    res = lattice_width(P)
    v = volume(P)
    exact = P.mode == "rational"
    if exact:
        bound = Fraction(res.value) ** 3 / 12
        slack = Fraction(v) - bound
    else:
        bound = float(res.value) ** 3 / 12.0
        slack = float(v) - bound
    return {
        "volume": v,
        "width": res.value,
        "direction": res.direction,
        "bound": bound,
        "slack": slack,
        "holds": slack >= (0 if exact else -1e-9),
        "exact": exact,
    }


class LatticeBasis:
    """Integer basis B of a sublattice; widths are measured against it.

    The width of K with respect to the lattice B Z^3 equals the standard
    lattice width of B^(-1) K, computed exactly through the adjugate.
    """

    def __init__(self, rows):
        B = [[int(x) for x in row] for row in rows]
        if len(B) != 3 or any(len(r) != 3 for r in B):
            raise PreconditionError("basis must be a 3x3 integer matrix")
        (a, b, c), (d, e, f), (g, h, i) = B
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if det == 0:
            raise SingularLattice("basis vectors are linearly dependent")
        self.rows = tuple(tuple(r) for r in B)
        self.det = det
        # adjugate / det = exact inverse
        self._inv = [
            [Fraction(e * i - f * h, det), Fraction(c * h - b * i, det), Fraction(b * f - c * e, det)],
            [Fraction(f * g - d * i, det), Fraction(a * i - c * g, det), Fraction(c * d - a * f, det)],
            [Fraction(d * h - e * g, det), Fraction(b * g - a * h, det), Fraction(a * e - b * d, det)],
        ]

    def transform(self, P: Polytope) -> Polytope:
        """B^(-1) K as a new polytope (exact in rational mode)."""
        inv = self._inv
        if P.mode == "rational":
            verts = [
                tuple(inv[r][0] * x + inv[r][1] * y + inv[r][2] * z for r in range(3))
                for (x, y, z) in P.vertices
            ]
        else:
            fi = [[float(q) for q in row] for row in inv]
            verts = [
                tuple(fi[r][0] * x + fi[r][1] * y + fi[r][2] * z for r in range(3))
                for (x, y, z) in P.vertices
            ]
        return Polytope(verts, mode=P.mode)

    def width(self, P: Polytope) -> WidthResult:
        return lattice_width(self.transform(P))
