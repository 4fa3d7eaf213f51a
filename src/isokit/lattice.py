"""Lattice widths of polytopes and the width-volume inequality.

The lattice width of a body K is min over nonzero integer directions u
of max⟨v,u⟩ − min⟨v,u⟩, v in K.  Finding the minimum needs only finitely
many candidates: any simplex S spanned by vertices of K lies in K, so a
direction u of width at most a known W satisfies |⟨d,u⟩| ≤ W for every
edge d of S.  Three of those edges are independent, so the slabs bound
a region holding finitely many lattice points; the search enumerates
them in exact integer arithmetic, shrinking W as narrower directions
appear.  No floating-point step decides which direction is pruned or
returned.  S is the hull's own seed simplex, and the search runs on the
hull's own integer frame: it rebuilds neither.

A ``Polytope`` is exact, so the lattice width, every width in a
direction and the inequality vol(K) >= width^3 / 12 are decided with
zero rounding; float coordinates enter at their exact binary value.  The
simplex conv{0, (1,1/2,1/2), (1/2,1,1/2), (1/2,1/2,1)} attains it with
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .geom import Polytope, _sub, volume

__all__ = [
    "WidthResult",
    "width_in_direction",
    "lattice_width",
    "verify_width_volume_corollary",
]


@dataclass(frozen=True)
class WidthResult:
    """Minimal width with an attaining direction and search effort."""

    value: Fraction
    direction: tuple
    checked: int


def width_in_direction(P: Polytope, u) -> object:
    """max dot - min dot over the vertices, an exact Fraction.

    The direction is used verbatim (no gcd reduction), so a doubled
    direction reports a doubled width.
    """
    d = tuple(u)
    try:  # int() raises on NaN, ±inf and non-numbers
        integral = len(d) == 3 and all(x == int(x) for x in d)
    except (ValueError, OverflowError, TypeError):
        integral = False
    if not integral:
        raise PreconditionError("direction must be three integers")
    d = tuple(int(x) for x in d)
    if d == (0, 0, 0):
        raise PreconditionError("direction must be nonzero")
    dots = [vx * d[0] + vy * d[1] + vz * d[2] for (vx, vy, vz) in P.vertices]
    return max(dots) - min(dots)


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

    The hull's seed simplex S, four affinely independent vertices v0..v3
    of K, lies inside K, so width_u(S) <= width_u(K): a direction u of
    width at most W obeys |⟨vi − vj, u⟩| ≤ W on all six edges of S.
    Those slabs cut a bounded region; Fourier-Motzkin elimination gives
    its exact shadows on (a, b) and on a, so the search walks a, then b,
    then c over exact integer intervals.  W is the best width found so
    far, so the region shrinks as the search proceeds.  Candidates are
    visited in increasing lexicographic order and a tie replaces the
    best, which keeps the lexicographically greatest canonical direction
    among the narrowest.  Every comparison is on P's integer vertices, and
    the width is returned as the exact Fraction W / P.denominator.
    """
    V = P.integer_vertices
    S = [V[i] for i in P.seed]
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
    return WidthResult(value=Fraction(W, P.denominator), direction=best_u, checked=checked)


def verify_width_volume_corollary(P: Polytope) -> dict:
    """Check vol(K) >= omega(K)^3 / 12 exactly.

    Returns the ``width`` command's report, in print order: the lattice
    width omega, its attaining direction, the volume, the bound
    omega^3/12, the slack vol - omega^3/12, ``exact`` (always true),
    whether the inequality holds, and whether omega >= 1.  Every number is
    an exact Fraction.
    """
    res = lattice_width(P)
    v = volume(P)
    bound = res.value**3 / 12
    slack = v - bound
    return {
        "omega": res.value,
        "direction": list(res.direction),
        "volume": v,
        "bound": bound,
        "slack": slack,
        "exact": True,
        "holds": slack >= 0,
        "nonseparable": res.value >= 1,
    }
