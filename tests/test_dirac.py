import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from floquetlab import analysis, dirac, su11
from floquetlab.errors import NotInBandInterior


def random_potential(rng, max_segments=4, sup=1.0):
    n = int(rng.integers(1, max_segments + 1))
    lengths = rng.uniform(0.2, 1.0, size=n)
    values = [sup * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
              for _ in range(n)]
    return dirac.PiecewisePotential.from_values(lengths, values)


def test_step_matrix_free_is_diagonal():
    lam = 1.3
    M = dirac.step_matrix(0.0, lam, 1.0)
    assert abs(M[0, 0] - cmath.exp(-1j * lam)) < 1e-14
    assert abs(M[1, 1] - cmath.exp(1j * lam)) < 1e-14
    assert abs(M[0, 1]) == 0.0 and abs(M[1, 0]) == 0.0


def test_step_matrix_constant_closed_form():
    # c=1, z=0, l=1: cosh(1) I + sinh(1) [[0, i], [-i, 0]]
    M = dirac.step_matrix(1.0, 0.0, 1.0)
    assert abs(M[0, 0] - math.cosh(1.0)) < 1e-14
    assert abs(M[0, 1] - 1j * math.sinh(1.0)) < 1e-14
    assert abs(M[1, 0] + 1j * math.sinh(1.0)) < 1e-14


def test_step_matrix_determinant_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = rng.normal() + 1j * rng.normal()
        z = rng.normal() + 1j * rng.normal()
        l = rng.uniform(0.1, 2.0)
        M = dirac.step_matrix(c, z, l)
        scale = max(1.0, float(np.max(np.abs(M))) ** 2)
        assert abs(su11.det2(M) - 1.0) < 1e-12 * scale
        if abs(z.imag) < 0.5 and abs(z) < 2 and abs(c) < 2:
            assert abs(su11.det2(M) - 1.0) < 1e-12


def test_transfer_identity_at_equal_endpoints():
    phi = dirac.PiecewisePotential.free(1.0)
    assert np.allclose(dirac.transfer(phi, 0.3, 0.3, 1.0), np.eye(2))


def test_transfer_free_monodromy():
    phi = dirac.PiecewisePotential.free(1.0)
    lam = 0.77
    M = dirac.transfer(phi, 0.0, 2.0, lam)
    assert abs(M[0, 0] - cmath.exp(-2j * lam)) < 1e-12
    assert abs(M[1, 1] - cmath.exp(2j * lam)) < 1e-12


def test_transfer_composition():
    phi = dirac.PiecewisePotential.from_values(
        [0.3, 0.5, 0.2], [0.2 + 0.1j, -0.4, 0.05 - 0.3j])
    z = 1.3
    full = dirac.transfer(phi, 0.0, 1.0, z)
    split = dirac.transfer(phi, 0.55, 1.0, z) @ dirac.transfer(phi, 0.0, 0.55, z)
    assert su11.max_entry_norm(full - split) < 1e-10


def test_cocycle_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        phi = random_potential(rng)
        lam = rng.uniform(-2, 2)
        x, t, y = sorted(rng.uniform(-2, 3, size=3))
        lhs = dirac.transfer(phi, x, y, lam)
        rhs = dirac.transfer(phi, t, y, lam) @ dirac.transfer(phi, x, t, lam)
        assert su11.max_entry_norm(lhs - rhs) < 1e-10


def test_transfer_inverse_direction():
    phi = dirac.PiecewisePotential.from_values([0.5, 0.5], [0.3, -0.2j])
    z = 0.9
    A = dirac.transfer(phi, 0.2, 1.4, z)
    Ainv = dirac.transfer(phi, 1.4, 0.2, z)
    assert su11.max_entry_norm(A @ Ainv - np.eye(2)) < 1e-10


def test_monodromy_trace_base_independent():
    rng = np.random.default_rng(8)
    phi = random_potential(rng, max_segments=4)
    lam = 1.21
    t0 = dirac.monodromy(phi, lam, 0.0).trace()
    t1 = dirac.monodromy(phi, lam, 0.37 * phi.period).trace()
    assert abs(t0 - t1) < 1e-10


def test_monodromy_constant_below_barrier():
    # constant c, |z| < |c|: trace = 2 cosh(T sqrt(|c|^2 - z^2)) > 2
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    lam = 0.5
    expected = 2.0 * math.cosh(math.sqrt(1.0 - lam * lam))
    assert abs(dirac.discriminant(phi, lam) - expected) < 1e-12


def test_discriminant_free():
    phi = dirac.PiecewisePotential.free(1.0)
    for lam in np.linspace(-3, 3, 25):
        assert abs(dirac.discriminant(phi, lam) - 2 * math.cos(lam)) < 1e-12


def test_discriminant_constant_values():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    assert abs(dirac.discriminant(phi, 0.0) - 2 * math.cosh(1.0)) < 1e-12
    assert abs(dirac.discriminant(phi, 2.0) - 2 * math.cos(math.sqrt(3.0))) < 1e-12


def test_bands_free():
    phi = dirac.PiecewisePotential.free(1.0)
    bs = dirac.bands(phi, 3.0, 1e-8)
    assert bs.count == 1
    assert bs.intervals[0] == (-3.0, 3.0)
    assert abs(bs.measure - 6.0) < 1e-12


def test_bands_constant_gap():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    bs = dirac.bands(phi, 3.0, 1e-8)
    assert bs.count == 2
    (a1, b1), (a2, b2) = bs.intervals
    assert a1 == -3.0 and b2 == 3.0
    assert abs(b1 + 1.0) < 1e-8
    assert abs(a2 - 1.0) < 1e-8
    assert abs(bs.measure - 4.0) < 1e-7


def test_band_count_bound_random_corpus():
    rng = np.random.default_rng(12)
    for _ in range(25):
        phi = random_potential(rng, max_segments=3)
        R = rng.uniform(1.0, 3.0)
        bs = dirac.bands(phi, R, 1e-6)
        assert bs.count <= dirac.band_count_bound(phi, R)


def test_lyapunov_free_zero():
    phi = dirac.PiecewisePotential.free(1.0)
    assert dirac.lyapunov(phi, 0.7) == 0.0


def test_lyapunov_constant_at_zero():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    assert abs(dirac.lyapunov(phi, 0.0) - 1.0) < 1e-12


def test_lyapunov_zero_inside_bands():
    rng = np.random.default_rng(21)
    phi = random_potential(rng, max_segments=3)
    bs = dirac.bands(phi, 2.0, 1e-8)
    for a, b in bs.intervals:
        lam = 0.5 * (a + b)
        assert dirac.lyapunov(phi, lam) < 1e-8


def test_lyapunov_positive_outside_bands():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    assert dirac.lyapunov(phi, 0.3) > 0.1


def test_floquet_exponent_free_at_i():
    phi = dirac.PiecewisePotential.free(1.0)
    w = dirac.floquet_exponent(phi, 1j)
    assert abs(w - (-1.0)) < 1e-12


def test_floquet_exponent_identities():
    rng = np.random.default_rng(17)
    phi = random_potential(rng, max_segments=3)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.0))
        w = dirac.floquet_exponent(phi, z)
        assert w.real <= 1e-15
        T = phi.period
        M = dirac.monodromy(phi, z)
        D = M[0, 0] + M[1, 1]
        assert abs(D - 2.0 * cmath.cosh(T * w)) < 1e-9 * max(1.0, abs(D))
        assert abs(dirac.lyapunov(phi, z) + w.real) < 1e-9


def test_su11_membership_of_transfers():
    rng = np.random.default_rng(30)
    for _ in range(300):
        phi = random_potential(rng)
        lam = rng.uniform(-3, 3)
        M = dirac.monodromy(phi, lam)
        assert su11.su11_defect(M) <= 1e-9
        assert abs(su11.det2(M) - 1.0) <= 1e-10


def test_dos_density_free():
    phi = dirac.PiecewisePotential.free(1.0)
    assert abs(dirac.dos_density(phi, 0.5) - 1.0 / math.pi) < 1e-12


def test_dos_density_refuses_band_edge():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    with pytest.raises(NotInBandInterior):
        dirac.dos_density(phi, 1.0000001)


def test_dos_band_weight_free():
    phi = dirac.PiecewisePotential.free(1.0)
    w = dirac.dos_band_weight(phi, (0.0, math.pi))
    assert abs(w - 1.0) < 5e-3


def test_dos_band_weight_sums():
    # two adjacent free bands carry total weight 2/T
    phi = dirac.PiecewisePotential.free(1.0)
    w = (dirac.dos_band_weight(phi, (-math.pi, 0.0))
         + dirac.dos_band_weight(phi, (0.0, math.pi)))
    assert abs(w - 2.0) < 1e-2


def test_dos_lower_bound_via_conjugacy_norm():
    # density >= (1/(4 pi T)) integral of the squared conjugacy norm
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    T = phi.period
    for lam in (1.3, 1.7, 2.5):
        rho = dirac.dos_density(phi, lam)
        gx, gw = np.polynomial.legendre.leggauss(32)
        total = 0.0
        for length, _c in phi.segments:
            for u, w in zip((gx + 1) * length / 2, gw * length / 2):
                B = su11.conjugate_to_rotation(dirac.monodromy(phi, lam, u))
                total += w * su11.hs_norm_sq(B)
        assert rho >= total / (4.0 * math.pi * T) - 1e-10


def test_hausdorff_perturbation_bound():
    rng = np.random.default_rng(77)
    tol = 1e-6
    checked = 0
    for _ in range(40):
        phi1 = random_potential(rng, max_segments=3)
        offsets = [0.05 * math.sqrt(rng.uniform())
                   * cmath.exp(2j * math.pi * rng.uniform())
                   for _ in phi1.segments]
        segs = tuple((l, v + o) for (l, v), o in zip(phi1.segments, offsets))
        phi2 = dirac.PiecewisePotential(segments=segs)
        d = dirac.sup_distance(phi1, phi2)
        b1 = dirac.bands(phi1, 2.0, tol, oversample=8.0)
        b2 = dirac.bands(phi2, 2.0, tol, oversample=8.0)
        if not b1.intervals or not b2.intervals:
            continue
        # window clipping breaks the spectral bound when a true band
        # edge sits close enough to the window boundary to exit it; a
        # band cut by the window itself (edge exactly at +-R) is fine
        edges = [e for bs in (b1, b2) for iv in bs.intervals for e in iv]
        if any(abs(e) != 2.0 and abs(abs(e) - 2.0) < 3 * d for e in edges):
            continue
        checked += 1
        assert analysis.hausdorff_distance(b1, b2) <= d + 2 * tol + 1e-9
    assert checked >= 10


def test_sup_distance_exact():
    p1 = dirac.PiecewisePotential.from_values([0.5, 0.5], [0.1, 0.4])
    p2 = dirac.PiecewisePotential.from_values([0.5, 0.5], [0.15, 0.38])
    assert abs(dirac.sup_distance(p1, p2) - 0.05) < 1e-15


def test_grouped_profile_matches_direct():
    rng = np.random.default_rng(6)
    a = random_potential(rng, max_segments=2)
    b = random_potential(rng, max_segments=2)
    b = dirac.PiecewisePotential(
        segments=tuple((l * a.period / b.period, v) for l, v in b.segments))
    groups = [(a, 3), (b, 2)]
    full = dirac.concatenate([a.repeated(3), b.repeated(2)])
    lams = np.linspace(-2, 2, 57)
    d1 = dirac.grouped_discriminant_profile(groups, lams)
    d2 = dirac.discriminant_profile(full, lams)
    assert np.max(np.abs(d1 - d2) / np.maximum(1.0, np.abs(d2))) < 1e-12


def test_sampled_ingestion_tracks_continuous_data():
    # smooth data sampled finely: spectra converge per the perturbation bound
    fn = lambda x: 0.4 * math.cos(2 * math.pi * x) + 0.1j
    coarse = dirac.PiecewisePotential.sample(fn, 1.0, 8)
    fine = dirac.PiecewisePotential.sample(fn, 1.0, 64)
    assert abs(coarse.period - 1.0) < 1e-12
    b1 = dirac.bands(coarse, 2.0, 1e-6)
    b2 = dirac.bands(fine, 2.0, 1e-6)
    if b1.intervals and b2.intervals:
        # sup distance between the two samplings bounds the spectral move
        d = max(abs(fn((i + 0.5) / 64) - coarse.value_at((i + 0.5) / 64))
                for i in range(64))
        assert analysis.hausdorff_distance(b1, b2) <= d + 0.05


def test_sup_distance_matches_pointwise_scan():
    # the vectorised segment lookup against value_at at every midpoint
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        base = dirac.PiecewisePotential.from_values(
            rng.uniform(0.1, 1.0, n), rng.normal(size=n) + 1j * rng.normal(size=n))
        reps = int(rng.integers(1, 5))
        moved = list(base.repeated(reps).segments)
        for k in rng.integers(0, len(moved), size=3):
            moved[k] = (moved[k][0], moved[k][1] + complex(*rng.normal(size=2)))
        if rng.uniform() < 0.5:
            moved[0:1] = [(moved[0][0] / 2.0, moved[0][1])] * 2
        moved = dirac.PiecewisePotential(segments=tuple(moved))
        # exact cuts: Fraction sums of the float lengths, so boundaries
        # that coincide are one cut and no rounding sliver appears
        cuts = set()
        for p, rep in ((base, reps), (moved, 1)):
            starts = [Fraction(0)]
            for length in p.lengths.tolist():
                starts.append(starts[-1] + Fraction(length))
            cuts |= {r * starts[-1] + b for r in range(rep) for b in starts[:-1]}
        cuts = sorted(cuts) + [starts[-1]]  # the exact period of moved
        mids = [float((a + b) / 2) for a, b in zip(cuts[:-1], cuts[1:])]
        want = max(abs(base.value_at(x) - moved.value_at(x)) for x in mids)
        assert dirac.sup_distance(base, moved) == want
        assert dirac.sup_distance(moved, base) == want


# the sums k T + b and the cumulative sums of the repeated lengths differ
# by rounding here, which once left slivers between cuts that looked up
# neighbouring segments (the first read distance 1.0 at n = 10)
SLIVER_DATA = [([0.1, 0.2], [0.0, 1.0]),
               ([0.5, 0.3, 0.1], [0.5, -0.2, 0.1j])]


@pytest.mark.parametrize("lengths, values", SLIVER_DATA)
@pytest.mark.parametrize("n", [1, 5, 6, 10, 37])
def test_sup_distance_of_repeated_data_is_zero(lengths, values, n):
    p = dirac.PiecewisePotential.from_values(lengths, values)
    assert dirac.sup_distance(p, p.repeated(n)) == 0.0
    assert dirac.sup_distance(p.repeated(n), p) == 0.0


# ---------------------------------------------------------------------------
# Array-backed segment store
# ---------------------------------------------------------------------------

def bits(x):
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def tuple_period(segs):
    total = 0.0
    for length, _ in segs:
        total += length
    return total


def tuple_value_at(segs, x):
    # value_at over the (length, value) tuples
    period = tuple_period(segs)
    bounds = np.zeros(len(segs) + 1)
    np.cumsum([l for l, _ in segs], out=bounds[1:])
    u = x - math.floor(x / period) * period
    k = int(np.searchsorted(bounds, u, side="right")) - 1
    return segs[min(max(k, 0), len(segs) - 1)][1]


@pytest.mark.parametrize("n", [1, 7, 2000])
def test_array_store_matches_tuple_path(n):
    rng = np.random.default_rng(n)
    segs = tuple((float(l), complex(re, im)) for l, re, im in zip(
        rng.uniform(0.05, 1.0, n), rng.normal(size=n), rng.normal(size=n)))
    phi = dirac.PiecewisePotential(segments=segs)
    assert phi.segments == segs
    assert all(type(l) is float and type(v) is complex
               for l, v in phi.segments)
    assert [(l.hex(), *bits(v)) for l, v in phi.segments] == [
        (l.hex(), *bits(v)) for l, v in segs]
    assert phi.period.hex() == tuple_period(segs).hex()
    bounds = np.zeros(n + 1)
    np.cumsum([l for l, _ in segs], out=bounds[1:])
    assert phi.boundaries.tobytes() == bounds.tobytes()
    assert phi.rows == [[l, v.real, v.imag] for l, v in segs]
    assert all(type(x) is float for row in phi.rows for x in row)
    assert phi.sup_norm.hex() == max(abs(v) for _, v in segs).hex()
    T = phi.period
    for x in list(rng.uniform(-2 * T, 3 * T, 50)) + list(bounds) + [-T, 2 * T]:
        got = phi.value_at(x)
        assert type(got) is complex
        assert bits(got) == bits(tuple_value_at(segs, x))

    other = dirac.PiecewisePotential(segments=segs[::-1])
    assert phi.repeated(3).segments == segs * 3
    assert dirac.concatenate([phi, other, phi]).segments == (
        segs + segs[::-1] + segs)
    k = int(rng.integers(n))
    split = list(segs)
    split[k:k + 1] = [(segs[k][0] / 2.0, segs[k][1])] * 2
    assert phi.with_split(k).segments == tuple(split)
    moved = list(segs)
    moved[k] = (segs[k][0], 0.25 - 0.5j)
    assert phi.with_value(k, 0.25 - 0.5j).segments == tuple(moved)
    offsets = rng.normal(size=n - k) + 1j * rng.normal(size=n - k)
    moved = segs[:k] + tuple((l, v + w) for (l, v), w in zip(
        segs[k:], offsets.tolist()))
    assert [bits(v) for _, v in phi.with_offsets(k, offsets).segments] == [
        bits(v) for _, v in moved]

    twin = dirac.PiecewisePotential(segments=list(segs))
    assert twin == phi and hash(twin) == hash(phi)
    assert phi.with_value(k, segs[k][1] + 1.0) != phi
    assert phi != segs
    with pytest.raises(ValueError):
        phi.lengths[0] = 1.0
    with pytest.raises(ValueError):
        phi.values[-1] = 0j
    with pytest.raises(AttributeError):
        phi.values = np.zeros(n, dtype=complex)


def test_signed_zero_values_compare_and_hash_equal():
    a = dirac.PiecewisePotential(segments=((0.5, complex(-0.0, 0.0)),
                                           (0.5, complex(0.0, -0.0))))
    b = dirac.PiecewisePotential(segments=((0.5, 0j), (0.5, 0j)))
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("segments", [(), ((0.0, 0j),), ((1.0, 0j), (-0.5, 0j)),
                                      ((math.nan, 0j),)])
def test_segments_constructor_rejects_bad_data(segments):
    with pytest.raises(ValueError):
        dirac.PiecewisePotential(segments=segments)
