"""Minimum-volume enclosing ellipsoid: frozen cases and solver invariants."""

import numpy as np
import pytest

from conftest import float_difference_vertices, random_polytope_vertices, random_rotation

from isokit import mvee
from isokit.errors import DegenerateInput, InvariantError, NoConvergence, PreconditionError
from isokit.mvee import Ellipsoid, caratheodory, mvee_centered, svec, whiten

CUBE_CORNERS = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)


def test_cube_exact():
    # uniform weights are already optimal for the symmetric cube
    E = mvee_centered(CUBE_CORNERS)
    assert np.allclose(E.M, np.eye(3) / 3.0, atol=1e-12)
    assert E.gap <= 1e-9
    assert E.iterations == 0


def on_boundary(E, pts):
    return np.einsum("ij,jk,ik->i", pts, E.M, pts)


def test_cube_contacts():
    # all eight corners touch, and the uniform design is optimal
    E = mvee_centered(CUBE_CORNERS)
    assert np.allclose(on_boundary(E, CUBE_CORNERS), 1.0, atol=1e-12)
    assert np.allclose(E.weights, 1.0 / 8.0, atol=0)


def test_octahedron_exact():
    pts = np.vstack([2.0 * np.eye(3), -2.0 * np.eye(3)])
    E = mvee_centered(pts)
    assert np.allclose(E.M, np.eye(3) / 4.0, atol=1e-12)
    assert np.allclose(on_boundary(E, pts), 1.0, atol=1e-12)
    assert np.allclose(E.weights, 1.0 / 6.0, atol=1e-12)


def test_containment_and_shrunk_ball(rng):
    # the ellipsoid contains the points and, shrunk by sqrt(3), fits in
    # their symmetric hull (support-function check along random axes)
    for _ in range(20):
        m = int(rng.integers(6, 40))
        pts = rng.normal(size=(m, 3)) @ (np.eye(3) + 0.5 * rng.normal(size=(3, 3)))
        E = mvee_centered(pts, tol=1e-9)
        q = np.einsum("ij,jk,ik->i", pts, E.M, pts)
        assert q.max() <= 1.0 + 1e-9
        Minv_half = np.linalg.cholesky(np.linalg.inv(E.M))
        for u in rng.normal(size=(8, 3)):
            h_body = np.abs(pts @ u).max()
            h_ball = np.linalg.norm(Minv_half.T @ u)
            assert h_body >= h_ball / np.sqrt(3.0) * (1.0 - 1e-7)


def test_equivariance(rng):
    pts = rng.normal(size=(15, 3))
    M = mvee_centered(pts, tol=1e-10).M
    for _ in range(5):
        A = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        MA = mvee_centered(pts @ A.T, tol=1e-10).M
        Ainv = np.linalg.inv(A)
        assert np.allclose(MA, Ainv.T @ M @ Ainv, atol=1e-6 * np.abs(M).max())


def test_scaling(rng):
    pts = rng.normal(size=(12, 3))
    M1 = mvee_centered(pts, tol=1e-10).M
    M5 = mvee_centered(5.0 * pts, tol=1e-10).M
    assert np.allclose(M5, M1 / 25.0, atol=1e-8)


def test_det_trace_monotone(rng):
    # exact line search makes det V nondecreasing step by step, and the
    # feasible det improves overall
    pts = rng.normal(size=(30, 3))
    trace = []
    mvee_centered(pts, tol=1e-9, trace=trace)
    det_v = np.array([t[0] for t in trace])
    assert np.all(np.diff(det_v) >= -1e-12 * det_v[:-1])
    assert trace[-1][1] >= trace[0][1] * (1.0 - 1e-12)


def test_no_convergence(rng):
    pts = rng.normal(size=(50, 3))
    with pytest.raises(NoConvergence):
        mvee_centered(pts, tol=1e-12, max_iter=2)


def test_no_convergence_names_the_gap(rng):
    pts = rng.normal(size=(50, 3))
    with pytest.raises(NoConvergence, match=r"gap \S+ above tol 1\.000e-12 by \S+"):
        mvee_centered(pts, tol=1e-12, max_iter=2)


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6])
def test_one_axis_scaled(rng, scale):
    # the solver's whitened frame makes it blind to the scale of an axis
    base = rng.normal(size=(20, 3))
    E1 = mvee_centered(base)
    S = np.diag([1.0, 1.0, scale])
    E = mvee_centered(base @ S)
    q = np.einsum("ij,jk,ik->i", base @ S, E.M, base @ S)
    assert E.gap <= 1e-9
    assert q.max() <= 1.0 + 1e-9
    assert np.allclose(S @ E.M @ S, E1.M, atol=1e-9 * np.abs(E1.M).max())
    # turned off the axes, the same body takes the same steps
    E = mvee_centered(base @ S @ random_rotation(rng).T)
    assert E.gap <= 1e-9
    assert E.iterations == E1.iterations


PHI = (1.0 + np.sqrt(5.0)) / 2.0
#: the regular dodecahedron: 20 vertices, 10 antipodal pairs, all at radius sqrt(3)
DODECAHEDRON = np.array(
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    + [p for a in (-1 / PHI, 1 / PHI) for b in (-PHI, PHI) for p in ((0, a, b), (a, b, 0), (b, 0, a))],
    dtype=float,
)


def test_dodecahedron_returns_the_ball():
    # repeating three vertices makes the uniform start suboptimal; the
    # optimum has all ten pairs in contact, the design at most six of them
    E = mvee_centered(np.vstack([DODECAHEDRON, DODECAHEDRON[:3]]))
    assert E.iterations > 0
    assert np.allclose(E.M, np.eye(3) / 3.0, atol=1e-12)
    assert np.count_nonzero(E.weights) <= 6
    assert np.allclose(on_boundary(E, DODECAHEDRON), 1.0, atol=1e-12)
    # the design is a John decomposition of the ball: sum 3 u_i s_i s_i^T / 3 = Id
    S = np.vstack([DODECAHEDRON, DODECAHEDRON[:3]])
    assert np.all(E.weights >= 0.0) and abs(E.weights.sum() - 1.0) <= 1e-12
    assert np.allclose((S.T * E.weights) @ S, np.eye(3), atol=1e-9)


def test_caratheodory_keeps_the_sum():
    # ten equally weighted pairs reproduce 10/3 Id; the elimination keeps
    # that sum on six pairs with independent outer products
    C = svec(DODECAHEDRON[DODECAHEDRON[:, 0] + 1e-9 * DODECAHEDRON[:, 1] > 0])
    lam = np.full(10, 1.0 / 3.0)
    support, out = caratheodory(C, lam, rtol=1e-7)
    assert len(support) <= 6 and np.all(out >= 0.0)
    assert np.count_nonzero(out > 1e-15) == len(support)
    assert np.allclose(C @ out, C @ lam, atol=1e-12)
    s = np.linalg.svd(C[:, support], compute_uv=False)
    assert s[-1] > 1e-7 * s[0]


def test_polish_reduces_a_support_of_seven(monkeypatch):
    # a difference body on which a polish support outgrows six points; the
    # elimination keeps the entering violator, so every polish is kept
    sizes, failed = [], []
    polish = mvee._polish

    def counting(C, lam, rtol=None, protect=None):
        sizes.append(int(np.count_nonzero(np.asarray(lam) > 0.0)))
        return caratheodory(C, lam, rtol=rtol, protect=protect)

    def checked(*args):
        steps, polished = polish(*args)
        failed.append(polished is None)
        return steps, polished

    monkeypatch.setattr(mvee, "caratheodory", counting)
    monkeypatch.setattr(mvee, "_polish", checked)
    D = float_difference_vertices(random_polytope_vertices(np.random.default_rng(18)))
    E = mvee_centered(D)
    assert max(sizes) == 7
    assert not any(failed)
    assert np.count_nonzero(E.weights) <= 6
    assert E.gap <= 1e-9
    assert np.einsum("ij,jk,ik->i", D, E.M, D).max() <= 1.0 + 1e-9


def test_rank_check_runs_once_per_support(monkeypatch):
    # the Caratheodory rank check reads only the support's points, so it runs
    # when a polish starts and after each drop at the boundary, not on every
    # Newton step.  On this body the four polishes drop two points in all
    # (counted with the check on every step, where each drop shows as a
    # support one point smaller), and the solve is the one it was then
    calls, polishes = [], []
    polish = mvee._polish

    def counting(*args, **kwargs):
        calls.append(None)
        return caratheodory(*args, **kwargs)

    def counted(*args):
        polishes.append(None)
        return polish(*args)

    monkeypatch.setattr(mvee, "caratheodory", counting)
    monkeypatch.setattr(mvee, "_polish", counted)
    D = float_difference_vertices(random_polytope_vertices(np.random.default_rng(9)))
    E = mvee_centered(D)
    assert len(polishes) == 4
    assert len(calls) == len(polishes) + 2
    assert E.iterations == 21 and E.fw_steps == 0
    T = [
        [0.5764600046837823, 0.052123359431506935, -0.15009202299649982],
        [0.052123359431506935, 0.5558743343873289, -0.22312334222373348],
        [-0.15009202299649982, -0.22312334222373348, 0.6626522031449565],
    ]
    weights = [0.1651854845510308, 0.1858801436965662, 0.09739664318537322, 0.316118443487812, 0.2354192850792178]
    contacts = [
        [-0.8025161699971367, 0.322644245163228, 0.5018650096950166],
        [-0.7996239163066952, -0.28158625449303243, 0.5303873808368083],
        [-0.5825864281916202, 0.7533842054211285, -0.30496769125417955],
        [-0.4123716678827891, -0.6849652922148705, -0.6006431186558006],
        [-0.3006802522734093, 0.6445452766997868, -0.7029600075230413],
    ]
    assert np.flatnonzero(E.weights).tolist() == [2, 4, 5, 6, 7]
    assert np.allclose(E.T, T, rtol=0, atol=1e-14)
    assert np.allclose(E.weights[[2, 4, 5, 6, 7]], weights, rtol=0, atol=1e-14)
    assert np.allclose(E.contacts, contacts, rtol=0, atol=1e-14)


def test_frank_wolfe_fallback_converges(monkeypatch, rng):
    # with every polish failing, the solver is Frank-Wolfe with away steps
    # and lands on the same ellipsoid, det V still nondecreasing
    pts = rng.normal(size=(30, 3))
    M = mvee_centered(pts, tol=1e-10).M
    monkeypatch.setattr(mvee, "_polish", lambda Y, u, w, tol, budget: (0, None))
    trace = []
    E = mvee_centered(pts, tol=1e-10, trace=trace)
    det_v = np.array([t[0] for t in trace])
    assert E.iterations == len(trace) - 1 == E.fw_steps  # one entry per Frank-Wolfe step
    assert np.all(np.diff(det_v) >= -1e-12 * det_v[:-1])
    assert np.allclose(E.M, M, atol=1e-7 * np.abs(M).max())


def noisy_prism(n, seed):
    """The regular n-prism of height 2, each coordinate moved by Gaussian noise of deviation 1e-9."""
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(t), np.sin(t)])
    pts = np.vstack([np.column_stack([ring, np.full(n, z)]) for z in (-1.0, 1.0)])
    return pts + 1e-9 * np.random.default_rng(seed).normal(size=pts.shape)


def test_frank_wolfe_fallback_is_reached():
    # near-ties among the prism's contacts make some Newton polishes fail
    # (the pentagonal prism with seed 4 among them), so the fallback is
    # needed; how many fail depends on rounding, hence "at least one"
    fw_steps = []
    for n in range(3, 16):
        for seed in range(6):
            K = noisy_prism(n, seed)
            i, j = np.triu_indices(len(K), 1)
            for pts in (K, K[i] - K[j]):
                E = mvee_centered(pts)
                assert E.gap <= 1e-9
                fw_steps.append(E.fw_steps)
    assert max(fw_steps) > 0


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (1.0, 1e-6, 1e6), (1.0, 1.0, 1e-8)])
def test_whiten(rng, scales):
    # one QR factor: Y = X L has second moment Id however the axes are scaled
    X = rng.normal(size=(20, 3)) @ np.diag(scales)
    Y, L = whiten(X)
    assert np.allclose(Y.T @ Y / 20.0, np.eye(3), atol=1e-12)
    assert np.allclose(X @ L, Y, atol=1e-9)


def test_degenerate_inputs():
    planar = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (-1.0, 2.0, 0.0)]
    with pytest.raises(DegenerateInput, match="points span fewer than 3 dimensions"):
        mvee_centered(planar)
    with pytest.raises(DegenerateInput, match="points span fewer than 3 dimensions"):
        mvee_centered([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_non_finite_tol_is_refused(tol):
    # an infinite tol would return the starting design as converged, and
    # a NaN one would fail in the iteration cap's int()
    with pytest.raises(PreconditionError, match="^tol must be finite$"):
        mvee_centered(CUBE_CORNERS, tol=tol)
    with pytest.raises(PreconditionError, match="^tol 1.000e-13 is below the solver's floor 1e-12$"):
        mvee_centered(CUBE_CORNERS, tol=1e-13)


def test_ellipsoid_validation():
    with pytest.raises(InvariantError):
        Ellipsoid(T=np.eye(2))
    with pytest.raises(InvariantError):
        Ellipsoid(T=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(InvariantError):
        Ellipsoid(T=np.diag([1.0, 1.0, -1.0]))


def test_duplicates_and_negatives_harmless():
    doubled = np.vstack([CUBE_CORNERS, -CUBE_CORNERS, CUBE_CORNERS[:3]])
    E = mvee_centered(doubled)
    assert np.allclose(E.M, np.eye(3) / 3.0, atol=1e-9)
