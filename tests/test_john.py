"""Contact decompositions, witness triples, and the normalization pipeline."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    EXTREMAL_SIMPLEX,
    FLAT_SLAB,
    REGULAR_TETRA,
    UNIT_CUBE,
    float_difference_vertices,
    random_polytope_vertices,
    random_rotation,
)

from isokit import geom
from isokit.errors import InvariantError, PreconditionError
from isokit.geom import float_hull, points_from_json
from isokit.john import (
    IDQ_LOWER_BOUND,
    WITNESS_LOWER_BOUND,
    JohnDecomposition,
    normalize,
    witness_triple,
)
from isokit.mvee import mvee_centered

SQRT2 = math.sqrt(2.0)
DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def test_bound_constants():
    assert IDQ_LOWER_BOUND == pytest.approx(SQRT2 / 12.0, abs=0)
    assert WITNESS_LOWER_BOUND == pytest.approx(1.0 / SQRT2, abs=0)


def test_decomposition_validation():
    u = np.vstack([np.eye(3), np.eye(3)])
    lam_ok = np.array([0.5] * 6)
    JohnDecomposition(lambdas=lam_ok, u=u)
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=np.array([0.5] * 5 + [0.6]), u=u)  # sum != 3
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=np.array([1.5, 1.5, 1.0, -1.0, 0, 0]), u=u)
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=np.array([1.0, 1.0, 1.0, 0, 0, 0]), u=u)  # max not last
    with pytest.raises(InvariantError):
        JohnDecomposition(lambdas=lam_ok, u=2.0 * u)  # not unit


def test_normalize_regular_tetra():
    res = normalize(REGULAR_TETRA)
    # the difference body's ellipsoid is the unit ball: T is the identity
    assert np.allclose(res.T, np.eye(3), atol=1e-9)
    assert abs(res.idq - SQRT2 / 12.0) <= 1e-12
    assert np.allclose(res.decomposition.lambdas, 0.5, atol=1e-9)
    assert abs(res.witness_value - 1.0 / SQRT2) <= 1e-9


def test_normalize_unit_cube():
    res = normalize(UNIT_CUBE)
    assert np.allclose(res.T, np.eye(3) / math.sqrt(3.0), atol=1e-9)
    assert abs(res.idq - 3.0 ** -1.5) <= 1e-12
    assert np.allclose(np.sort(res.decomposition.lambdas), [0, 0, 0.75, 0.75, 0.75, 0.75], atol=1e-9)
    # best triple of the four main diagonals
    assert abs(res.witness_value - 4.0 / (3.0 * math.sqrt(3.0))) <= 1e-9


def _witness_reference(u):
    """One determinant per triple, in lexicographic order; a later triple
    wins only by more than 1e-15."""
    best = (-1.0, (0, 1, 2))
    for ijk in itertools.combinations(range(6), 3):
        val = abs(float(np.linalg.det(u[list(ijk)])))
        if val > best[0] + 1e-15:
            best = (val, ijk)
    return best[1], best[0]


def test_witness_matches_brute_force(rng):
    bodies = [random_polytope_vertices(rng) for _ in range(5)]
    # the cube's and the demo bodies' decompositions have tied triples
    bodies += [UNIT_CUBE] + demo_bodies()
    for pts in bodies:
        res = normalize(pts)
        best = max(
            abs(np.linalg.det(res.decomposition.u[[i, j, k]]))
            for i in range(6)
            for j in range(i + 1, 6)
            for k in range(j + 1, 6)
        )
        ijk, val = witness_triple(res.decomposition)
        assert val == pytest.approx(best, abs=1e-12)
        assert len(set(ijk)) == 3 and all(0 <= i < 6 for i in ijk)
        assert (ijk, val) == _witness_reference(res.decomposition.u)
        assert all(type(i) is int for i in ijk) and type(val) is float


def test_normalize_affine_invariance(rng):
    base = random_polytope_vertices(rng)
    ref = normalize(base, tol=1e-10)
    for _ in range(5):
        A = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
        res = normalize(base @ A.T, tol=1e-10)
        assert res.idq == pytest.approx(ref.idq, abs=1e-7)
        assert res.witness_value == pytest.approx(ref.witness_value, abs=1e-5)


def test_normalize_random_batch(rng):
    for _ in range(20):
        res = normalize(random_polytope_vertices(rng))
        assert res.idq >= SQRT2 / 12.0 - 1e-9
        assert res.witness_value >= 1.0 / SQRT2 - 1e-9
        assert res.decomposition.residual <= 1e-7


def test_normalize_flat_slab():
    res = normalize(FLAT_SLAB)
    assert res.idq >= SQRT2 / 12.0 - 1e-9
    assert res.witness_value >= 1.0 / SQRT2 - 1e-9


#: seven points whose six contact weights all equal 1/2 within 1e-9, so
#: they round alike at nine digits
TIED_WEIGHTS_BODY = [
    [-0.23819718583817862, -0.5128549993957083, -0.41127248495224045],
    [-0.16016233759485, 0.9245227898295085, -0.08227886203683399],
    [0.9002700242246349, -0.9389358568328889, -0.867779482853561],
    [-0.9443681876054615, 0.33188927652470857, -0.5595346177724096],
    [0.152840362586097, 0.5907322712108491, -0.3363721626829925],
    [-0.5086450145818264, 0.45081717428114976, -0.048204413400859236],
    [-0.7015797079013988, -0.8251097650606227, 0.4743350022788413],
]


def test_normalize_tied_weights_keep_the_maximum_last():
    for s in range(10):
        q, r = np.linalg.qr(np.random.default_rng([s, 17]).normal(size=(3, 3)))
        res = normalize(np.array(TIED_WEIGHTS_BODY) @ (q * np.sign(np.diag(r))).T)
        lam = res.decomposition.lambdas
        assert lam[5] == lam.max(), s
        assert np.allclose(lam, 0.5, atol=1e-8)
        assert res.idq >= SQRT2 / 12.0 - 1e-9


def test_json_dict_shape():
    res = normalize(REGULAR_TETRA)
    d = res.to_json_dict()
    assert set(d) == {"T", "idq", "lambda", "u", "witness"}
    assert len(d["T"]) == 9 and len(d["lambda"]) == 6 and len(d["u"]) == 6
    assert sorted(d["witness"]["ijk"]) == list(d["witness"]["ijk"])
    assert all(1 <= i <= 6 for i in d["witness"]["ijk"])
    assert d["witness"]["value"] >= 1.0 / SQRT2 - 1e-9


def test_coplanar_contacts_rejected():
    # five directions fanned out in the xy-plane, and a sixth repeated there:
    # no weights on them reproduce the identity
    ang = np.linspace(0.0, np.pi, 5, endpoint=False)
    flat = np.stack([np.cos(ang), np.sin(ang), np.zeros(5)], axis=1)
    u = np.vstack([flat[:1], flat])
    with pytest.raises(InvariantError, match=r"^weights do not reproduce the identity"):
        JohnDecomposition(lambdas=np.array([0.0] + [0.6] * 5), u=u)


def test_no_decomposition_names_the_bound():
    # the cube's decomposition, its four diagonals pressed into the xy-plane:
    # sum lam_i u_i u_i^T = diag(3/2, 3/2, 0), residual sqrt(3/2)
    d = normalize(UNIT_CUBE).decomposition
    flat = d.u * [1.0, 1.0, 0.0]
    flat /= np.linalg.norm(flat, axis=1)[:, None]
    message = r"^weights do not reproduce the identity: residual 1\.225e\+00 above bound 1\.000e-07 by 1\.225e\+00$"
    with pytest.raises(InvariantError, match=message):
        JohnDecomposition(lambdas=d.lambdas, u=flat)


@pytest.mark.parametrize(
    "body, support",
    [(UNIT_CUBE, 4), ([s * e for e in np.eye(3) for s in (1.0, -1.0)], 3)],
    ids=["cube", "octahedron"],
)
def test_normalize_pads_a_small_support(body, support):
    # the cube's four diagonals and the octahedron's three axes: the missing
    # entries are zero-weight repeats of kept directions, and come first
    d = normalize(body).decomposition
    lam, u = d.lambdas, d.u
    pad = 6 - support
    assert np.all(lam[:pad] == 0.0) and np.allclose(lam[pad:], 3.0 / support, atol=1e-9)
    assert all(any(np.array_equal(row, kept) for kept in u[pad:]) for row in u[:pad])


def scaled_bodies(scale, seeds=range(6)):
    """(base, [scaled, scaled and turned]) Gaussian bodies, one axis scaled."""
    for seed in seeds:
        rng = np.random.default_rng([seed, 31])
        base = rng.normal(size=(int(rng.integers(4, 30)), 3))
        S = np.diag([1.0, 1.0, scale])[np.roll(range(3), seed)]
        yield base, [base @ S, base @ S @ random_rotation(rng).T]


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6])
def test_normalize_one_axis_scaled(scale):
    # linear images of a body share its certificate: the whitened frame
    # makes normalize blind to the scale of an axis.  Turned off the axes,
    # the input and vol(K) carry relative errors of about 1e-16 times the
    # condition number (up to 1e7 here), hence the 1e-6 agreement
    for base, images in scaled_bodies(scale):
        ref = normalize(base)
        for pts in images:
            res = normalize(pts)
            assert res.idq == pytest.approx(ref.idq, rel=1e-6)
            assert res.idq >= IDQ_LOWER_BOUND - 1e-8
            assert res.witness_value == pytest.approx(ref.witness_value, abs=1e-6)
            assert res.decomposition.residual <= 1e-7


def test_normalize_nearly_flat_gaussian():
    # condition number about 1e16 in the original frame
    base = np.random.default_rng(5).normal(size=(20, 3))
    ref = normalize(base)
    flat = base @ np.diag([1.0, 1.0, 1e-8])
    for pts in (flat, flat @ random_rotation(np.random.default_rng(5)).T):
        res = normalize(pts)
        assert res.idq == pytest.approx(ref.idq, rel=1e-6)
        assert res.witness_value >= WITNESS_LOWER_BOUND
        assert res.witness_value == pytest.approx(ref.witness_value, abs=1e-6)


def test_normalize_refuses_a_non_finite_idq():
    # at scale 1e200 Qhull still accepts the body, but its float volume is NaN
    pts = [[1e200 * float(c) for c in v] for v in EXTREMAL_SIMPLEX + [(0.5, 0.5, 0.5)]]
    with pytest.raises(PreconditionError, match=r"idq is not finite: vol\(K\) = nan, diam\(TK\) = "):
        normalize(pts)


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e4])
def test_certificate_directions_are_contacts(rng, scale):
    # every weighted direction is T s / |T s| for a vertex s of K - K on
    # the ellipsoid, |T s| = 1 within tol: checked apart from the solver
    bodies = [random_polytope_vertices(rng) for _ in range(5)]
    bodies += [imgs[1] for _, imgs in scaled_bodies(scale, seeds=range(3))]
    for pts in bodies:
        res = normalize(pts, tol=1e-9)
        TD = float_difference_vertices(pts) @ res.T.T
        norms = np.linalg.norm(TD, axis=1)
        for lam, u in zip(res.decomposition.lambdas, res.decomposition.u):
            if lam > 0.0:
                dist = np.linalg.norm(TD / norms[:, None] - u, axis=1)
                i = int(np.argmin(dist))
                assert dist[i] <= 1e-9
                assert abs(norms[i] - 1.0) <= 1e-9


def test_normalize_builds_only_the_hull_of_k(monkeypatch):
    # the MVEE runs on K's vertex differences, not on a hull of K - K:
    # one Qhull call per body, on K's own distinct points, and no exact hull
    import scipy.spatial

    bodies = [UNIT_CUBE + [(0.5, 0.5, 0.5)], FLAT_SLAB, EXTREMAL_SIMPLEX]
    rows = []
    hull = scipy.spatial.ConvexHull
    monkeypatch.setattr(scipy.spatial, "ConvexHull", lambda pts: rows.append(len(pts)) or hull(pts))

    def no_exact_hull(*args):
        raise AssertionError("normalize must not build an exact hull")

    monkeypatch.setattr(geom, "_hull_exact", no_exact_hull)
    for pts in bodies:
        rows.clear()
        normalize(pts)
        assert rows == [len(pts)]


def test_normalize_takes_any_array_like():
    ref = normalize(np.array(FLAT_SLAB)).to_json_dict()
    assert normalize(FLAT_SLAB).to_json_dict() == ref
    assert normalize(list(map(list, FLAT_SLAB))).to_json_dict() == ref
    assert normalize(p for p in FLAT_SLAB).to_json_dict() == ref


#: normalize's T (row by row), idq, lambdas and witness triple on the demo
#: bodies and on seeded Gaussian bodies ("gauss<n>-<seed>"), as computed
#: before the ellipsoid solver's Newton steps moved to direct LAPACK solves
NORMALIZE_PINNED = [
    ("cube", [0.5773502691896257, 0.0, 0.0, 0.0, 0.577350269189626, 0.0, 0.0, 0.0, 0.5773502691896261], 0.19245008972987523, [0.0, 0.0, 0.7499999999999999, 0.7499999999999997, 0.7500000000000003, 0.7500000000000003], (0, 1, 3)),
    ("extremal_simplex", [1.178511301977579, -0.23570226039551526, -0.23570226039551595, -0.23570226039551526, 1.178511301977579, -0.23570226039551606, -0.23570226039551595, -0.23570226039551606, 1.1785113019775777], 0.11785113019775773, [0.5000000000000001, 0.4999999999999997, 0.5000000000000002, 0.49999999999999944, 0.5000000000000002, 0.5000000000000004], (0, 1, 2)),
    ("flat_slab", [0.35355339059327373, 0.0, 0.0, 0.0, 0.35355339059326996, 6.681364101992383e-15, 0.0, 6.681364101992383e-15, 49.999999999999986], 0.16666666666666494, [0.0, 0.0, 0.0, 1.0, 0.9999999999999998, 1.0000000000000002], (0, 1, 2)),
    ("random_12", [0.6428840322198696, -0.0887715545876951, -0.0027687521621416415, -0.0887715545876951, 0.45520797350918235, 0.02976279950604032, -0.0027687521621416415, 0.02976279950604032, 0.46857445170139433], 0.2110376140859116, [0.0, 0.0, 0.27792177168047355, 0.7646144832292415, 0.9675235811820975, 0.9899401639081872], (0, 1, 5)),
    ("tetrahedron", [1.0, 0.0, 0.0, 0.0, 0.9999999999999992, 0.0, 0.0, 0.0, 0.9999999999999993], 0.11785113019775788, [0.5000000000000001, 0.5000000000000001, 0.5000000000000001, 0.49999999999999994, 0.4999999999999993, 0.5000000000000002], (0, 1, 2)),
    ("gauss12-1", [0.18636557842533993, -0.03986267745766084, 0.020319110113553033, -0.03986267745766084, 0.38676920064735587, -0.2616683973049764, 0.020319110113553033, -0.2616683973049764, 0.8825298807058288], 0.20047652076246872, [0.0, 0.33011936094828676, 0.620379371407605, 0.6629696893105628, 0.6700902051817823, 0.7164413731517632], (0, 2, 5)),
    ("gauss30-4", [0.22409740958081265, 0.04421829242360047, -0.05004851518309858, 0.04421829242360047, 0.24156641736647058, -0.012912151307749257, -0.05004851518309858, -0.012912151307749257, 0.22883825865639817], 0.227964502466285, [0.046866819344708766, 0.05294669770128009, 0.2963763752808051, 0.7353192613674984, 0.9239494547205992, 0.9445413915851086], (3, 4, 5)),
    ("gauss60-0", [0.20527113775319797, 0.016554727658629777, -0.014085530557855339, 0.016554727658629777, 0.2573888173998173, -0.01921860343687674, -0.014085530557855339, -0.01921860343687674, 0.242571110819782], 0.30425501979063635, [0.21293053323069477, 0.3717285672970447, 0.5452850405035267, 0.5881663542134047, 0.5909555449003868, 0.690933959854942], (2, 4, 5)),
]


def test_normalize_output_is_pinned():
    # the solver's linear algebra may move the last bits, never more
    bodies = {f.stem: points_from_json(f.read_text(), False) for f in sorted(DEMO_DATA.glob("*.json"))}
    for n, seed in ((12, 1), (30, 4), (60, 0)):
        bodies[f"gauss{n}-{seed}"] = np.random.default_rng(seed).normal(size=(n, 3))
    assert sorted(bodies) == sorted(row[0] for row in NORMALIZE_PINNED)
    for name, T, idq, lambdas, ijk in NORMALIZE_PINNED:
        res = normalize(bodies[name])
        for got, want in ((res.T.ravel(), T), ([res.idq], [idq]), (res.decomposition.lambdas, lambdas)):
            assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max(), name
        assert res.witness_ijk == ijk, name


def demo_bodies():
    """The demo bodies' points, read as normalize reads them."""
    return [points_from_json(f.read_text(), False) for f in sorted(DEMO_DATA.glob("*.json"))]


def vertex_differences(points):
    """One row v_i - v_j per vertex pair i < j of K's float hull, as normalize forms them."""
    A, _ = float_hull(points)
    i, j = np.triu_indices(len(A), 1)
    return A[i] - A[j]


def slab_vertices(rng):
    """A turned slab of 8 to 40 points, thickness 1e-3 to 1e-1 of its width."""
    n = int(rng.integers(8, 41))
    eps = 10.0 ** rng.uniform(-3.0, -1.0)
    pts = np.column_stack([rng.uniform(-1, 1, (n, 2)), rng.uniform(-eps, eps, n)])
    return pts @ random_rotation(rng).T


def test_vertex_differences_share_the_mvee_of_the_difference_body(rng):
    bodies = demo_bodies()
    bodies += [random_polytope_vertices(rng) for _ in range(10)]
    bodies += [slab_vertices(rng) for _ in range(10)]
    for pts in bodies:
        M = mvee_centered(vertex_differences(pts)).M
        ref = mvee_centered(float_difference_vertices(pts)).M
        assert np.abs(M - ref).max() <= 1e-7 * np.abs(ref).max()


def test_mvee_returns_the_ball_map_and_its_contacts(rng):
    # T is the SPD square root of M, and the contacts are T s for the
    # support rows s, unit within tol; they are read in the solver's
    # whitened frame, so they are checked against D T^T only where that
    # product is well conditioned
    bodies = [(pts, True) for pts in demo_bodies()]
    bodies += [(slab_vertices(rng), True) for _ in range(10)]
    for scale in (1e-6, 1e6):
        bodies += [(pts, False) for _, images in scaled_bodies(scale) for pts in images]
    for pts, well_conditioned in bodies:
        D = vertex_differences(pts)
        E = mvee_centered(D, tol=1e-9)
        assert np.array_equal(E.T, E.T.T)
        assert np.linalg.eigvalsh(E.T)[0] > 0.0
        assert np.array_equal(E.M, E.T @ E.T)
        support = np.flatnonzero(E.weights)
        assert E.contacts.shape == (len(support), 3)
        assert np.abs(np.linalg.norm(E.contacts, axis=1) - 1.0).max() <= 1e-9
        if well_conditioned:
            assert np.abs(E.contacts - D[support] @ E.T.T).max() <= 1e-9


def test_normalize_whitens_once(monkeypatch):
    # the solver's whitened frame serves normalize too: one QR factor of
    # the vertex differences per body
    bodies = demo_bodies() + [UNIT_CUBE, FLAT_SLAB]
    qr, rows = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs: rows.append(len(a)) or qr(a, *args, **kwargs))
    for pts in bodies:
        rows.clear()
        normalize(pts)
        assert rows == [len(vertex_differences(pts))]


def test_width_picks_its_seed_once(tmp_path, monkeypatch, capsys):
    # lattice_width reads the seed simplex the exact hull picked: one pick per body
    from isokit import cli, lattice

    pick, calls = geom._initial_simplex, []
    for module in (geom, lattice):
        monkeypatch.setattr(module, "_initial_simplex", lambda H: calls.append(len(H)) or pick(H), raising=False)
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"vertices": UNIT_CUBE + [(0.5, 0.5, 0.5)]}))
    assert cli.main(["width", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["omega"] == "1"
    assert calls == [9]
