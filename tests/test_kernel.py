"""The batched SU(1,1) product kernel against the scalar 2x2 path."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from floquetlab import cmv, construct, dirac, su11
from floquetlab.errors import NonRealTrace

TWO_PI = 2.0 * math.pi


def random_potential(rng, max_segments=4, sup=1.0):
    n = int(rng.integers(1, max_segments + 1))
    lengths = rng.uniform(0.2, 1.0, size=n)
    values = [sup * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
              for _ in range(n)]
    return dirac.PiecewisePotential.from_values(lengths, values)


def random_cycle(rng, q, sup=0.7):
    return cmv.VerblunskyCycle.from_values(
        [sup * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
         for _ in range(q)])


def scalar_trace(monodromy, groups, x):
    M = np.eye(2, dtype=complex)
    for block, reps in groups:
        M = np.linalg.matrix_power(monodromy(block, x), reps) @ M
    return M[0, 0] + M[1, 1]


def assert_traces_match(D, groups, monodromy, points):
    for x, d in zip(points, D):
        ref = scalar_trace(monodromy, groups, float(x))
        assert abs(ref.imag) <= 1e-6 * max(1.0, abs(ref.real))
        assert abs(d - ref.real) <= 1e-7 * max(1.0, abs(ref.real)), (x, d, ref)


def test_batch_mul_and_power_match_matrices():
    rng = np.random.default_rng(3)
    phi = random_potential(rng)
    lams = np.linspace(-2.0, 2.0, 7)
    mats = [dirac.monodromy(phi, lam) for lam in lams]
    P = su11.Su11Batch(np.array([M[0, 0] for M in mats]),
                       np.array([M[0, 1] for M in mats]), np.zeros(lams.size))
    for k in (1, 2, 5, 8, 9, 16, 21):
        Pk = su11.batch_power(P, k)
        for i, M in enumerate(mats):
            ref = np.linalg.matrix_power(M, k) * math.exp(-Pk.logscale[i])
            assert abs(Pk.a[i] - ref[0, 0]) <= 1e-9 * abs(ref[0, 0])
            assert abs(Pk.b[i] - ref[0, 1]) <= 1e-9 * abs(ref[0, 0])
    Q = su11.batch_mul(P, su11.batch_power(P, 3))
    assert np.allclose(Q.a, su11.batch_power(P, 4).a, rtol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_dirac_profiles_match_scalar_path(seed):
    rng = np.random.default_rng(seed)
    blocks = [random_potential(rng) for _ in range(3)]
    # a constant block puts a deep gap around 0
    blocks.append(dirac.PiecewisePotential.constant(1.0, 0.8))
    groups = [(b, int(k)) for b, k in zip(blocks, rng.integers(1, 21, len(blocks)))]
    lams = np.concatenate([rng.uniform(-3.0, 3.0, 40), [0.0, 1e-7, -0.3, 0.5]])
    D = dirac.grouped_discriminant_profile(groups, lams)
    assert np.max(np.abs(D)) > 1e6          # energies deep inside gaps
    assert_traces_match(D, groups, dirac.monodromy, lams)
    for block in blocks:
        assert_traces_match(dirac.discriminant_profile(block, lams),
                            [(block, 1)], dirac.monodromy, lams)


@pytest.mark.parametrize("seed", range(4))
def test_cmv_profiles_match_scalar_path(seed):
    rng = np.random.default_rng(10 + seed)
    cycles = [random_cycle(rng, int(rng.integers(1, 5))) for _ in range(3)]
    cycles.append(cmv.VerblunskyCycle.constant(0.9))
    groups = [(c, int(k)) for c, k in zip(cycles, rng.integers(1, 21, len(cycles)))]
    thetas = np.concatenate([rng.uniform(0.0, TWO_PI, 40), [0.0, math.pi]])
    D = cmv.grouped_cmv_discriminant_profile(groups, thetas)
    assert np.max(np.abs(D)) > 1e6
    assert_traces_match(D, groups, cmv.cmv_monodromy, thetas)
    for cycle in cycles:
        assert_traces_match(cmv.cmv_discriminant_profile(cycle, thetas),
                            [(cycle, 1)], cmv.cmv_monodromy, thetas)


def test_lyapunov_profile_matches_scalar():
    rng = np.random.default_rng(5)
    phi = random_potential(rng)
    lams = np.linspace(-2.5, 2.5, 31)
    prof = dirac.lyapunov_profile(phi, lams)
    for lam, value in zip(lams, prof):
        assert abs(value - dirac.lyapunov(phi, lam)) < 1e-9


def test_long_blocks_over_several_chunks():
    # 100 steps at 600 points: the points fall into several chunks
    assert 600 > 2 * (su11.CHUNK // 100)
    rng = np.random.default_rng(7)
    lengths = rng.uniform(0.05, 0.2, size=100)
    values = [0.5 * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(100)]
    phi = dirac.PiecewisePotential.from_values(lengths, values)
    lams = np.linspace(-3.0, 3.0, 600)
    D = dirac.discriminant_profile(phi, lams)
    assert_traces_match(D[::23], [(phi, 1)], dirac.monodromy, lams[::23])
    alpha = random_cycle(rng, 100, sup=0.3)
    thetas = np.linspace(0.0, TWO_PI, 600, endpoint=False)
    D = cmv.cmv_discriminant_profile(alpha, thetas)
    assert_traces_match(D[::23], [(alpha, 1)], cmv.cmv_monodromy, thetas[::23])


def long_block():
    # |a| grows like exp(960) over the period at lambda = 0: unscaled
    # partial products of the pairwise reduction would overflow
    values = [2.0 * cmath.exp(0.4j * k) for k in range(160)]
    return dirac.PiecewisePotential.from_values([3.0] * 160, values)


def test_long_block_rescales_partial_products():
    phi = long_block()
    lams = np.array([0.0, 0.7, 1.9])
    _, bound = dirac._stack([phi])(lams)
    assert np.all(bound >= su11.LOG_NO_RESCALE)     # the rescaling path
    trace, logscale = dirac._trace_profile(phi, lams)
    assert logscale[0] > 710.0
    for lam, value in zip(lams, dirac.lyapunov_profile(phi, lams)):
        assert abs(value - dirac.lyapunov(phi, lam)) <= 1e-9 * max(1.0, value)


def test_too_small_bound_raises_not_numbers():
    phi = long_block()
    lams = np.array([0.0, 0.7, 1.9])
    steps, bound = dirac._stack([phi])(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        P = su11.batch_product(steps, 160, np.zeros_like(bound))
        with pytest.raises(NonRealTrace):
            su11.batch_trace(su11.Su11Batch(*(x[0] for x in P)), lams)


def random_block(family, rng, nsteps):
    """A random Dirac block of nsteps segments or cycle of nsteps
    coefficients."""
    if family == "dirac":
        return dirac.PiecewisePotential.from_values(
            rng.uniform(0.05, 0.3, nsteps),
            [0.8 * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(nsteps)])
    return random_cycle(rng, nsteps, sup=0.9)


def random_points(family, rng, n):
    """(points, labels): n random energies, or the half angles and the
    angles of n random angles."""
    if family == "dirac":
        lams = np.sort(rng.uniform(-3.0, 3.0, n))
        return lams, lams
    thetas, half = cmv._angles(rng.uniform(0.0, TWO_PI, n))
    return half, thetas


@pytest.mark.parametrize("family", ["dirac", "cmv"])
def test_rescale_free_reduction_is_bitwise(family):
    # under the bound, skipping the rescales changes no bit: the same
    # steps reduced with an infinite bound take the rescaling path
    rng = np.random.default_rng(17)
    stack = dirac._stack if family == "dirac" else cmv._stack
    for nsteps, ncols in ((1, 1), (24, 3), (41, 5), (200, 2)):
        at = stack([random_block(family, rng, nsteps) for _ in range(ncols)])
        steps, bound = at(random_points(family, rng, 700)[0])
        assert np.max(bound) < su11.LOG_NO_RESCALE
        P = su11.batch_product(steps, nsteps, bound)
        Q = su11.batch_product(steps, nsteps, np.full(bound.shape, np.inf))
        for x, y in zip(P, Q):
            assert np.array_equal(x, y)


def per_block_reference(product, groups, points):
    """The grouped product as a sequential batch_concat of single-block
    products raised to their powers."""
    return su11.batch_concat(su11.batch_power(product(block, points), reps)
                             for block, reps in groups)


@pytest.mark.parametrize("family", ["dirac", "cmv"])
def test_grouped_profile_matches_per_block_reference(family):
    rng = np.random.default_rng(23)
    grouped, product = {
        "dirac": (dirac.grouped_trace_profile, dirac._period_product),
        "cmv": (cmv.grouped_cmv_trace_profile, cmv._szego_product)}[family]
    # 1500 points fill several point blocks, each over several chunks;
    # GROUP_POINTS points are one block, returned as it is, and one more
    # point starts a second block, joined to the first
    assert 1500 > 2 * su11.GROUP_POINTS
    for _ in range(3):
        # three blocks stacked in one product, one of another step count
        blocks = [random_block(family, rng, nsteps) for nsteps in (3, 3, 3, 5)]
        # repeated blocks, reps 1, 5 and binary powers
        groups = [(blocks[k], int(rng.choice([1, 5, 9, 13])))
                  for k in (0, 1, 0, 2, 3, 1, 0, 3, 2)]
        # one point, as in the merge check of the band scan, many times:
        # a rounding that differs for a lone number shows only now and then
        for n in (1,) * 20 + (2, 6, su11.GROUP_POINTS,
                             su11.GROUP_POINTS + 1, 700, 1500):
            points, labels = random_points(family, rng, n)
            got = grouped(groups, labels)
            want = su11.batch_trace(per_block_reference(product, groups, points),
                                    labels)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_grouped_call_transient_memory():
    # the band scan's grid call: 16 distinct blocks of 24 segments at
    # 5 580 energies stay within 2 MB of traced allocations
    rng = np.random.default_rng(29)
    groups = [(dirac.PiecewisePotential.from_values(
        np.ones(24), 0.3 * np.exp(2j * math.pi * rng.uniform(size=24))), 5)
        for _ in range(16)]
    lams = np.linspace(-0.5, 0.5, 5580)
    tracemalloc.start()
    try:
        dirac.grouped_trace_profile(groups, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_wrong_dirac_step_raises(monkeypatch):
    right = dirac._real_cosh_sinhc

    def cosh_for_cos(nw):
        ch, shc = right(nw)
        return np.where(nw > 0, np.cosh(np.sqrt(np.abs(nw))), ch), shc

    monkeypatch.setattr(dirac, "_real_cosh_sinhc", cosh_for_cos)
    with pytest.raises(NonRealTrace):
        dirac.discriminant_profile(dirac.PiecewisePotential.free(),
                                   np.linspace(-2.0, 2.0, 50))


def test_wrong_szego_step_raises(monkeypatch):
    def unnormalised(alpha, half):
        # 1 / (1 - |alpha|^2) where 1 / rho belongs
        values = np.array(alpha.values)[:, None]
        r = 1.0 / (1.0 - np.abs(values) ** 2)
        # the bound of the right step, as the real code passes it
        return su11.batch_product(
            lambda lo, hi: (r * half[lo:hi], -r * values.conj() * half[lo:hi].conj()),
            alpha.q, np.broadcast_to(cmv._norm_bound(values), half.shape))

    monkeypatch.setattr(cmv, "_szego_product", unnormalised)
    with pytest.raises(NonRealTrace):
        cmv.cmv_discriminant_profile(cmv.VerblunskyCycle.constant(0.5, 3),
                                     np.linspace(0.0, TWO_PI, 50))


def test_cmv_thin_run_completes_on_former_nonreal_seed():
    # the imaginary-part test stopped this run with NonRealTrace
    # (trace 1.65e11 deep inside a gap, imaginary part -1.9e4)
    seed = 1363666852
    alpha = cmv.VerblunskyCycle((0j,))
    members = construct.cmv_resolvent_cover(alpha, 1.0, seed)
    cover = [members[i % len(members)] for i in range(max(8, len(members)))]
    _, report = construct.thin_spectrum(alpha, None, 1.0, 768, seed,
                                        cover=cover)
    assert report.spectrum.count >= 1
    groups = [(mem, report.n_hat + 1) for mem in cover]
    remainder = 768 - len(cover) * (report.n_hat + 1) * cover[0].q
    if remainder:
        groups.append((alpha, remainder))
    for a, b in report.spectrum.arcs:
        trace = scalar_trace(cmv.cmv_monodromy, groups, 0.5 * (a + b))
        assert abs(trace.real) <= 2.0


def assert_screen_sound(batch, scalar):
    traces, sound = su11.screen_traces(batch)
    assert sound.all()
    for t, M in zip(traces, scalar):
        assert abs(t - su11.real_trace(M)) <= su11.DEFECT_TOL * max(1.0, abs(t))


@pytest.mark.parametrize("seed", range(4))
def test_gap_screen_traces_match_scalar_path(seed):
    rng = np.random.default_rng([seed, 77])
    lifted = dirac.PiecewisePotential.free().repeated(24)
    for _ in range(5):
        lam = float(rng.uniform(-3.0, 3.0))
        # columns of different lengths, padded with identity steps
        phis = [random_potential(rng, max_segments=40, sup=0.5)
                for _ in range(7)]
        phis.append(construct._resonant_potentials(lifted, lam)(rng, 0.15))
        phis.append(lifted.with_offsets(1, construct._disk_offsets(
            rng, 0.15, 23)))
        assert_screen_sound(dirac.monodromies(phis, lam),
                            [dirac.monodromy(phi, lam) for phi in phis])
        theta = float(rng.uniform(-TWO_PI, 2.0 * TWO_PI))
        q = int(rng.integers(1, 30))
        alphas = [random_cycle(rng, q) for _ in range(9)]
        assert_screen_sound(cmv.cmv_monodromies(alphas, theta),
                            [cmv.cmv_monodromy(a, theta) for a in alphas])


def test_screen_passes_unsound_entries_on():
    # a NaN entry, the identity, and a determinant defect of 1
    a = np.array([np.nan, 1.0, 2.0], dtype=complex)
    b = np.array([0.0, 0.0, 1.0], dtype=complex)
    _, sound = su11.screen_traces(su11.Su11Batch(a, b, np.zeros(3)))
    assert sound.tolist() == [False, True, False]
