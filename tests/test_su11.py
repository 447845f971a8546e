import cmath
import math

import numpy as np
import pytest

from floquetlab import su11
from floquetlab.errors import CommutingInput, NotElliptic, NotInGroup


def rotation(theta):
    return np.diag([cmath.exp(1j * theta), cmath.exp(-1j * theta)])


def boost(xi):
    # SU(1,1) element moving 0 to -xi-ish; inverse moves 0 to xi
    s = 1.0 / math.sqrt(1.0 - abs(xi) ** 2)
    return su11.mat2(s, -s * xi, -s * complex(xi).conjugate(), s)


def random_su11(rng, factors=2):
    M = np.eye(2, dtype=complex)
    for _ in range(factors):
        theta = rng.uniform(0, 2 * math.pi)
        xi = 0.6 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        B = boost(xi)
        M = M @ su11.sl2_inverse(B) @ rotation(theta) @ B
    return M


def random_elliptic(rng):
    while True:
        M = random_su11(rng)
        t = M[0, 0] + M[1, 1]
        if abs(t.real) < 1.95:
            return M


def test_defect_identity_and_rotations():
    assert su11.su11_defect(np.eye(2, dtype=complex)) == 0.0
    assert su11.su11_defect(rotation(0.7)) < 1e-15


def test_defect_positive_for_shear():
    M = su11.mat2(1, 1, 0, 1)
    # M* j M - j has nonzero off-diagonal entries
    assert su11.su11_defect(M) > 0.5


def test_classify_elliptic():
    cls = su11.classify(rotation(math.pi / 3))
    assert cls.is_elliptic
    assert abs(cls.angle - math.pi / 3) < 1e-12


def test_classify_hyperbolic_cosh_form():
    M = su11.mat2(1.25, 0.75, 0.75, 1.25)
    assert su11.su11_defect(M) < 1e-12
    cls = su11.classify(M)
    assert cls.is_hyperbolic
    assert abs(cls.multiplier - 2.0) < 1e-12


def test_classify_rejects_non_group():
    with pytest.raises(NotInGroup):
        su11.classify(np.diag([2.0, 0.5]).astype(complex))


def test_classify_identity_parabolic():
    cls = su11.classify(np.eye(2, dtype=complex))
    assert cls.is_parabolic and cls.sign == 1


def test_mobius_rotation_fixes_zero():
    assert su11.mobius_apply(rotation(1.1), 0j) == 0j


def test_mobius_identity():
    z = 0.3 + 0.2j
    assert su11.mobius_apply(np.eye(2, dtype=complex), z) == z


def test_mobius_at_infinity():
    M = su11.mat2(0, 1j, -1j, 0)
    assert su11.mobius_apply(M, su11.INF) == 0


def test_disk_fixed_point_rotation():
    assert su11.disk_fixed_point(rotation(0.9)) == 0j


def test_disk_fixed_point_conjugated():
    rng = np.random.default_rng(0)
    B = boost(0.5)
    M = su11.sl2_inverse(B) @ rotation(0.8) @ B
    xi = su11.disk_fixed_point(M)
    expected = su11.mobius_apply(su11.sl2_inverse(B), 0j)
    assert abs(xi - expected) < 1e-12
    del rng


def test_disk_fixed_point_hyperbolic_raises():
    with pytest.raises(NotElliptic):
        su11.disk_fixed_point(su11.mat2(1.25, 0.75, 0.75, 1.25))


def test_conjugate_to_rotation_trivial_for_rotations():
    B = su11.conjugate_to_rotation(rotation(0.4))
    assert np.allclose(B, np.eye(2), atol=1e-12)


def test_conjugate_norm_formula():
    # squared Hilbert-Schmidt norm is 2 (1 + |xi|^2) / (1 - |xi|^2)
    B0 = boost(0.5)
    M = su11.sl2_inverse(B0) @ rotation(0.8) @ B0
    B = su11.conjugate_to_rotation(M)
    xi = su11.disk_fixed_point(M)
    expected = 2.0 * (1.0 + abs(xi) ** 2) / (1.0 - abs(xi) ** 2)
    assert abs(su11.hs_norm_sq(B) - expected) < 1e-10
    assert abs(su11.hs_norm_sq(B) - 10.0 / 3.0) < 1e-10


def test_conjugate_to_rotation_diagonalizes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        M = random_elliptic(rng)
        theta = su11.classify(M).angle
        B = su11.conjugate_to_rotation(M)
        D = B @ M @ su11.sl2_inverse(B)
        assert abs(D[0, 1]) < 1e-10 and abs(D[1, 0]) < 1e-10
        # diagonal is {exp(i theta), exp(-i theta)} as a set; the order
        # depends on the rotation direction of M
        got = sorted([D[0, 0], D[1, 1]], key=lambda w: w.imag)
        want = sorted([cmath.exp(1j * theta), cmath.exp(-1j * theta)],
                      key=lambda w: w.imag)
        assert abs(got[0] - want[0]) < 1e-9
        assert abs(got[1] - want[1]) < 1e-9


def test_mobius_equivariance_of_fixed_points():
    rng = np.random.default_rng(3)
    for _ in range(50):
        M = random_elliptic(rng)
        G = random_su11(rng)
        lhs = su11.disk_fixed_point(G @ M @ su11.sl2_inverse(G))
        rhs = su11.mobius_apply(G, su11.disk_fixed_point(M))
        assert abs(lhs - rhs) < 1e-9


def test_cayley_identity():
    out = su11.cayley_to_sl2r(np.eye(2, dtype=complex))
    assert np.allclose(out, np.eye(2), atol=1e-14)


def test_cayley_rotation_to_real_rotation():
    theta = 0.37
    R = su11.cayley_to_sl2r(rotation(theta))
    assert np.max(np.abs(R.imag)) < 1e-12
    Rr = R.real
    assert abs(np.linalg.det(Rr) - 1.0) < 1e-12
    assert np.allclose(Rr @ Rr.T, np.eye(2), atol=1e-12)
    assert abs(np.trace(Rr) - 2.0 * math.cos(theta)) < 1e-12


def test_cayley_real_entries_randomized():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        M = random_su11(rng)
        out = su11.cayley_to_sl2r(M)
        assert np.max(np.abs(out.imag)) < 1e-11
        assert abs(su11.det2(out) - 1.0) < 1e-10
        back = su11.CAYLEY_W @ out @ su11.CAYLEY_W.conj().T
        assert su11.max_entry_norm(back - M) < 1e-11


def test_gordon_bounds_identity():
    m3, m2 = su11.gordon_lower_bounds(np.eye(2, dtype=complex), (1, 0))
    assert m3 == 1.0 and m2 == 1.0


def test_gordon_bounds_zero_trace():
    # trace zero forces M^2 = -I, so the second power preserves norms
    M = su11.mat2(0, 1, -1, 0)
    v = np.array([0.6, 0.8j])
    m3, m2 = su11.gordon_lower_bounds(M, v)
    assert m3 >= 0.5 and m2 >= 0.5


def test_gordon_bounds_randomized():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        M = A / np.sqrt(det)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        nv = float(np.linalg.norm(v))
        m3, m2 = su11.gordon_lower_bounds(M, v)
        assert m3 >= 0.5 * nv * (1 - 1e-12)
        tr = abs(M[0, 0] + M[1, 1])
        bound = 0.5 * min(1.0, 1.0 / tr) * nv if tr > 0 else 0.5 * nv
        assert m2 >= bound * (1 - 1e-12)


def _all_words_bfs(A, B, max_len):
    # exhaustive enumeration oracle: all products of positive letters
    frontier = [(np.eye(2, dtype=complex), ())]
    best = 0.0
    for _ in range(max_len):
        nxt = []
        for M, word in frontier:
            for letter, G in ((0, A), (1, B)):
                P = G @ M
                t = P[0, 0] + P[1, 1]
                if abs(t.imag) < 1e-9 * max(1.0, abs(t.real)):
                    best = max(best, abs(t.real))
                nxt.append((P, word + (letter,)))
        frontier = nxt
        if len(frontier) > 1 << 13:
            break
    return best


def test_semigroup_search_commuting_rotations():
    with pytest.raises(CommutingInput):
        su11.hyperbolic_in_semigroup(rotation(0.5), rotation(1.2))


def test_semigroup_search_powers_commute():
    A = random_elliptic(np.random.default_rng(2))
    with pytest.raises(CommutingInput):
        su11.hyperbolic_in_semigroup(A, A @ A)


def test_semigroup_search_finds_word_and_matches_oracle():
    # rotations about distinct fixed points 0 and 0.5, generic angles
    A = rotation(0.9)
    B0 = boost(0.5)
    B = su11.sl2_inverse(B0) @ rotation(0.53) @ B0
    word = su11.hyperbolic_in_semigroup(A, B)
    assert abs(word.trace) > 2.0 + 0.05
    assert word.length <= 24
    assert word.verify(A, B, tol=1e-10)
    # brute-force breadth-first oracle confirms hyperbolicity is
    # reachable within length 12 for this pair
    assert _all_words_bfs(A, B, 12) > 2.0 + 0.05


def test_semigroup_word_never_in_forbidden_band():
    rng = np.random.default_rng(9)
    found = 0
    for _ in range(10):
        A = random_elliptic(rng)
        B = random_elliptic(rng)
        if su11.commutator_norm(A, B) < 1e-6:
            continue
        try:
            word = su11.hyperbolic_in_semigroup(A, B)
        except su11.WordNotFound:
            continue
        found += 1
        assert abs(word.trace) > 2.0 + 0.05
    assert found >= 3


def test_scan_bands_on_uneven_closed_grid():
    # |3 cos x| <= 2 on the bands pi/2 + k pi -+ asin(2/3); a first
    # cell of width 1e-4, then widths 0.1 to 0.3 in random order, so each
    # edge is bisected on a cell far wider than the first; the interval
    # ends inside bands
    rng = np.random.default_rng(4)
    widths = np.append(1e-4, rng.permutation(np.linspace(0.1, 0.3, 40)))
    points = 1.0 + np.concatenate(([0.0], np.cumsum(widths)))
    points = points[points < 8.0]
    points = np.append(points, 8.0)
    half = math.asin(2.0 / 3.0)
    tol = 1e-10
    bands = su11.scan_bands(lambda xs: 3.0 * np.cos(xs), points, tol, 3)
    want = [(1.0, math.pi / 2 + half),
            (3 * math.pi / 2 - half, 3 * math.pi / 2 + half),
            (5 * math.pi / 2 - half, 8.0)]
    assert len(bands) == len(want)
    for (a, b), (wa, wb) in zip(bands, want):
        assert abs(a - wa) <= tol and abs(b - wb) <= tol
    assert bands[0][0] == 1.0 and bands[-1][1] == 8.0
