import cmath
import math

import numpy as np
import pytest

from floquetlab import cmv, su11
from floquetlab.errors import BandCountExceeded, OutOfDisk

TWO_PI = 2.0 * math.pi


def random_cycle(rng, q, sup=0.6):
    vals = [sup * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            for _ in range(q)]
    return cmv.VerblunskyCycle.from_values(vals)


def test_szego_free():
    A = cmv.szego_matrix(0.0, 0.3 + 0.1j)
    assert np.allclose(A, np.diag([0.3 + 0.1j, 1.0]))


def test_szego_printed_value():
    A = cmv.szego_matrix(0.5, 1.0)
    r = 1.0 / math.sqrt(0.75)
    assert np.allclose(A, r * np.array([[1.0, -0.5], [-0.5, 1.0]]))


def test_szego_determinant_is_z():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        z = cmath.exp(1j * rng.uniform(0, TWO_PI))
        A = cmv.szego_matrix(a, z)
        assert abs(su11.det2(A) - z) < 1e-13


def test_szego_rejects_boundary():
    with pytest.raises(OutOfDisk):
        cmv.szego_matrix(1.0, 1.0)


def test_monodromy_free_cycle():
    theta = 1.3
    M = cmv.cmv_monodromy(cmv.VerblunskyCycle.constant(0.0, 1), theta)
    assert abs(M[0, 0] - cmath.exp(0.5j * theta)) < 1e-14
    assert abs(M[1, 1] - cmath.exp(-0.5j * theta)) < 1e-14
    assert abs(M.trace().real - 2 * math.cos(theta / 2)) < 1e-14


def test_monodromy_constant_trace_closed_form():
    a = 0.5
    rho = math.sqrt(1 - a * a)
    alpha = cmv.VerblunskyCycle.constant(a, 1)
    for theta in (0.3, 1.1, 2.9, 4.4):
        t = cmv.cmv_discriminant(alpha, theta)
        assert abs(t - 2 * math.cos(theta / 2) / rho) < 1e-12


def test_monodromy_trace_real_randomized():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = int(rng.integers(1, 5))
        alpha = random_cycle(rng, q)
        theta = rng.uniform(0, TWO_PI)
        M = cmv.cmv_monodromy(alpha, theta)
        t = M.trace()
        assert abs(t.imag) <= 1e-9 * max(1.0, abs(t.real))
        assert abs(su11.det2(M) - 1.0) < 1e-10
        assert su11.su11_defect(M) <= 1e-9


def test_bands_free_full_circle():
    arcs = cmv.cmv_bands(cmv.VerblunskyCycle.constant(0.0, 1), 1e-8)
    assert arcs.is_full_circle
    assert abs(arcs.measure - TWO_PI) < 1e-12


def test_bands_constant_half_arc():
    arcs = cmv.cmv_bands(cmv.VerblunskyCycle.constant(0.5, 1), 1e-8)
    assert arcs.count == 1
    a, b = arcs.arcs[0]
    assert abs(a - math.pi / 3) < 1e-8
    assert abs(b - 5 * math.pi / 3) < 1e-8
    assert abs(arcs.measure - 4 * math.pi / 3) < 1e-7


def test_bands_do_not_depend_on_the_representation():
    # the doubled cycle's discriminant touches 2 at pi: a closed gap
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    assert cmv.cmv_bands(alpha.repeated(2), 1e-8) == cmv.cmv_bands(alpha, 1e-8)


def test_scan_beyond_the_arc_bound_raises():
    # |3 cos(5 theta)| <= 2 on ten arcs, more than q + 1 = 2
    with pytest.raises(BandCountExceeded):
        cmv._scan_arcs(lambda ts: 3.0 * np.cos(5.0 * ts), 1, 1e-8)


def test_arc_counts_reported_for_random_cycles():
    # no arc-count bound is asserted, only observed
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = int(rng.integers(1, 5))
        alpha = random_cycle(rng, q)
        arcs = cmv.cmv_bands(alpha, 1e-6)
        assert arcs.count >= 1
        assert arcs.measure <= TWO_PI + 1e-9


def test_lyapunov_free_zero():
    alpha = cmv.VerblunskyCycle.constant(0.0, 1)
    for theta in (0.0, 1.0, 3.0):
        assert cmv.cmv_lyapunov(alpha, theta) == 0.0


def test_lyapunov_constant_closed_form():
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    got = cmv.cmv_lyapunov(alpha, 0.0)
    assert abs(got - 0.5 * math.log(3.0)) < 1e-12
    assert abs(got - math.log(1.5 / math.sqrt(0.75))) < 1e-12


def test_lyapunov_sign_pattern_against_arcs():
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    arcs = cmv.cmv_bands(alpha, 1e-8)
    inside = 0.5 * (arcs.arcs[0][0] + arcs.arcs[0][1])
    assert cmv.cmv_lyapunov(alpha, inside) == 0.0
    assert cmv.cmv_lyapunov(alpha, 0.05) > 0.01


def test_truncation_interior_rows_unitary():
    rng = np.random.default_rng(2)
    alpha = random_cycle(rng, 3, sup=0.7)
    E = cmv.extended_cmv_truncation(alpha, 8)
    G = E @ E.conj().T
    n = E.shape[0]
    defect = np.max(np.abs((G - np.eye(n))[2:n - 2, 2:n - 2]))
    assert defect <= 1e-12


def test_truncation_periodic_boundary_is_unitary():
    rng = np.random.default_rng(3)
    alpha = random_cycle(rng, 2, sup=0.7)
    E = cmv.extended_cmv_truncation(alpha, 8, boundary="periodic")
    n = E.shape[0]
    assert np.max(np.abs(E @ E.conj().T - np.eye(n))) <= 1e-12


def test_truncation_free_eigenvalues_on_circle():
    alpha = cmv.VerblunskyCycle.constant(0.0, 1)
    eigs = cmv.truncation_eigenvalues(alpha, 8, boundary="periodic")
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-10


def test_truncation_eigenvalue_oracle_constant():
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    arcs = cmv.cmv_bands(alpha, 1e-8)
    eigs = cmv.truncation_eigenvalues(alpha, 64, boundary="periodic")
    dists = np.array(sorted(arcs.distance_point(w) for w in eigs))
    trimmed = dists[: int(math.ceil(len(dists) * 0.95))]
    assert np.mean(trimmed <= 1e-2) >= 0.95


def test_truncation_hausdorff_oracle_random():
    # verbatim section, boundary outliers trimmed
    rng = np.random.default_rng(8)
    for _ in range(3):
        q = int(rng.integers(1, 5))
        alpha = random_cycle(rng, q, sup=0.8)
        arcs = cmv.cmv_bands(alpha, 1e-6)
        eigs = cmv.truncation_eigenvalues(alpha, 64)
        dists = np.array(sorted(arcs.distance_point(w) for w in eigs))
        keep = dists[: len(dists) - max(1, int(len(dists) * 0.05))]
        assert keep[-1] <= 0.05
        # coverage direction: every arc point near some eigenvalue
        for a, b in arcs.arcs:
            for t in np.linspace(a, b, 40):
                p = cmath.exp(1j * t)
                assert min(abs(p - w) for w in eigs) <= 0.05


def test_arc_presentation_merges_across_zero():
    arcs = cmv.ArcSet(((0.0, 0.5), (1.0, 2.0), (5.5, TWO_PI)))
    merged = arcs.merged_presentation()
    assert len(merged) == 2
    assert merged[-1] == (5.5, TWO_PI + 0.5)
    assert abs(sum(b - a for a, b in merged) - arcs.measure) < 1e-12


def test_scanned_arc_across_zero_is_cut_there():
    alpha = cmv.VerblunskyCycle.from_values(
        [(-0.3 + 0.1j), (-0.4 + 0.2j), (0.3 - 0.5j), (0.4 + 0.3j)])
    assert abs(cmv.cmv_discriminant(alpha, 0.0)) < 2.0
    arcs = cmv.cmv_bands(alpha, 1e-8)
    assert arcs.arcs[0][0] == 0.0
    assert arcs.arcs[-1][1] == TWO_PI
    assert len(arcs.merged_presentation()) == arcs.count - 1


def test_poincare_identity_and_value():
    assert cmv.poincare_delta([0.0], [0.0]) == 0.0
    assert abs(cmv.poincare_delta([0.0], [0.5]) - math.atanh(0.5)) < 1e-12


def test_poincare_symmetry_and_triangle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, c = (0.9 * math.sqrt(rng.uniform())
                   * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(3))
        dab = cmv.poincare_delta([a], [b])
        dba = cmv.poincare_delta([b], [a])
        assert abs(dab - dba) < 1e-12
        dac = cmv.poincare_delta([a], [c])
        dcb = cmv.poincare_delta([c], [b])
        assert dab <= dac + dcb + 1e-12


def test_poincare_shape_mismatch():
    with pytest.raises(ValueError):
        cmv.poincare_delta([0.0], [0.0, 0.1])


def test_poincare_rejects_boundary():
    with pytest.raises(OutOfDisk):
        cmv.poincare_delta([1.0], [0.0])


def test_branch_sign_consistency():
    # band membership is invariant under the half-power sign ambiguity:
    # evaluate near the theta = 0 seam for an odd-period cycle
    rng = np.random.default_rng(6)
    alpha = random_cycle(rng, 3)
    for theta in (1e-9, TWO_PI - 1e-9):
        t = cmv.cmv_discriminant(alpha, theta)
        assert abs(t) >= 0.0  # well-defined single value
    lo = cmv.cmv_discriminant(alpha, 1e-9)
    hi = cmv.cmv_discriminant(alpha, TWO_PI - 1e-9)
    # odd q flips the trace sign across the seam; magnitude agrees
    assert abs(abs(lo) - abs(hi)) < 1e-6


def test_grouped_cmv_profile_matches_direct():
    rng = np.random.default_rng(7)
    c1 = random_cycle(rng, 2)
    c2 = random_cycle(rng, 2)
    groups = [(c1, 3), (c2, 2)]
    full = cmv.concatenate_cycles([c1.repeated(3), c2.repeated(2)])
    thetas = np.linspace(0, TWO_PI, 101, endpoint=False)
    d1 = cmv.grouped_cmv_discriminant_profile(groups, thetas)
    d2 = cmv.cmv_discriminant_profile(full, thetas)
    assert np.max(np.abs(d1 - d2) / np.maximum(1.0, np.abs(d2))) < 1e-12


def test_arc_starting_in_the_last_cell_is_clipped_at_two_pi():
    # an arc of length 1 starting half a cell before 2 pi: its start is
    # bisected in the last cell [grid[-1], 2 pi] and its end is 2 pi
    cell = TWO_PI / 4096
    start = TWO_PI - 0.5 * cell
    centre = start + 0.5

    def profile(ts):
        return 2.0 + 10.0 * (math.cos(0.5) - np.cos(ts - centre))

    arcs = cmv._scan_arcs(profile, 1, 1e-10)
    assert len(arcs.arcs) == 2
    (a0, b0), (a1, b1) = arcs.arcs
    assert a0 == 0.0 and abs(b0 - (start + 1.0 - TWO_PI)) <= 1e-10
    assert TWO_PI - cell < a1 < TWO_PI and abs(a1 - start) <= 1e-10
    assert b1 == TWO_PI
