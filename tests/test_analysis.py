import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from floquetlab import analysis, cmv, dirac
from floquetlab.errors import EmptySet


def bandset(*intervals):
    return dirac.BandSet(intervals=tuple(intervals))


def test_measure_basic():
    assert analysis.lebesgue_measure(bandset((-3.0, 3.0))) == 6.0
    assert analysis.lebesgue_measure(bandset((-3.0, -1.0), (1.0, 3.0))) == 4.0
    assert analysis.lebesgue_measure(bandset()) == 0.0


def test_measure_additive_and_translation_invariant():
    rng = np.random.default_rng(0)
    pts = np.sort(rng.uniform(-5, 5, size=8))
    ivs = [(pts[i], pts[i + 1]) for i in range(0, 8, 2)]
    total = sum(b - a for a, b in ivs)
    assert abs(analysis.lebesgue_measure(bandset(*ivs)) - total) < 1e-12
    shifted = [(a + 2.5, b + 2.5) for a, b in ivs]
    assert abs(analysis.lebesgue_measure(bandset(*shifted)) - total) < 1e-12


def test_measure_of_arcs():
    arcs = cmv.ArcSet(arcs=((0.0, 1.0), (2.0, 2.5)))
    assert abs(analysis.lebesgue_measure(arcs) - 1.5) < 1e-15


def test_hausdorff_identity_and_translation():
    S = bandset((0.0, 1.0))
    assert analysis.hausdorff_distance(S, S) == 0.0
    T = bandset((0.1, 1.1))
    assert abs(analysis.hausdorff_distance(S, T) - 0.1) < 1e-12


def test_hausdorff_interior_gap_matters():
    S = bandset((0.0, 10.0))
    T = bandset((0.0, 0.5), (9.5, 10.0))
    # farthest point of S from T is the midpoint of T's gap
    assert abs(analysis.hausdorff_distance(S, T) - 4.5) < 1e-12


def test_hausdorff_metric_properties_random():
    rng = np.random.default_rng(3)

    def random_set():
        pts = np.sort(rng.uniform(-4, 4, size=6))
        return bandset(*[(pts[i], pts[i + 1]) for i in range(0, 6, 2)])

    for _ in range(40):
        A, B, C = random_set(), random_set(), random_set()
        dab = analysis.hausdorff_distance(A, B)
        assert abs(dab - analysis.hausdorff_distance(B, A)) < 1e-12
        assert dab <= (analysis.hausdorff_distance(A, C)
                       + analysis.hausdorff_distance(C, B) + 1e-12)


def test_hausdorff_empty_raises():
    with pytest.raises(EmptySet):
        analysis.hausdorff_distance(bandset(), bandset((0.0, 1.0)))


def test_covering_full_interval():
    S = bandset((0.0, 1.0))
    for n in (4, 8, 16, 32):
        assert analysis.covering_count(S, 1.0 / n) == n


def test_covering_two_points():
    S = bandset((0.0, 1e-9), (1.0, 1.0 + 1e-9))
    for eps in (0.5, 0.25, 0.1):
        assert analysis.covering_count(S, eps) == 2


def _brute_force_cover(ivs, eps, step=0.125):
    # exhaustive oracle on a rational grid: each cover interval may start
    # at any grid point at most eps left of the first uncovered point;
    # memoized on the quantized frontier position
    from functools import lru_cache

    def first_uncovered(pos):
        for a, b in ivs:
            if b > pos + 1e-12:
                return max(a, pos)
        return None

    @lru_cache(maxsize=None)
    def rec(pos_key):
        pos = pos_key * step
        first = first_uncovered(pos)
        if first is None:
            return 0
        best = math.inf
        k_lo = math.ceil((first - eps) / step - 1e-9)
        k_hi = math.floor(first / step + 1e-9)
        for k in range(k_lo, k_hi + 1):
            s = k * step
            if s + eps < first - 1e-12:
                continue
            end_key = round((s + eps) / step)
            if end_key <= pos_key:
                continue
            best = min(best, 1 + rec(end_key))
        return best

    start = first_uncovered(-math.inf)
    return 0 if start is None else rec(round((start - 10 * eps) / step))


def test_greedy_cover_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(12):
        k = int(rng.integers(1, 5))
        raw = sorted(rng.integers(0, 24, size=2 * k).tolist())
        ivs = []
        for i in range(0, 2 * k, 2):
            a, b = raw[i] / 4.0, raw[i + 1] / 4.0
            if not ivs or a > ivs[-1][1] + 1e-9:
                ivs.append((a, b if b > a else a + 0.25))
            else:
                ivs[-1] = (ivs[-1][0], max(ivs[-1][1], b))
        S = bandset(*ivs)
        for eps in (0.25, 0.5, 1.0):
            greedy = analysis.covering_count(S, eps)
            brute = _brute_force_cover(ivs, eps)
            assert greedy == brute


def test_box_counting_slopes():
    rep = analysis.box_counting(bandset((0.0, 1.0)), [2.0 ** -k for k in range(2, 8)])
    assert all(abs(s - 1.0) < 1e-12 for s in rep.slopes)
    assert rep.dim_lower == 1.0 and rep.dim_upper == 1.0
    rep2 = analysis.box_counting(bandset((0.0, 1e-12), (1.0, 1.0 + 1e-12)),
                                 [2.0 ** -k for k in range(2, 8)])
    assert all(abs(s) < 1e-9 for s in rep2.slopes)
    assert rep2.dim_upper == 0.0


def test_box_counting_counts_non_increasing_in_scale():
    rng = np.random.default_rng(9)
    pts = np.sort(rng.uniform(0, 4, size=10))
    ivs = [(pts[i], pts[i + 1]) for i in range(0, 10, 2)]
    rep = analysis.box_counting(bandset(*ivs), [0.9 ** k for k in range(1, 15)])
    assert all(c2 >= c1 for c1, c2 in zip(rep.counts, rep.counts[1:]))


def test_gordon_defect_exact_period():
    phi = dirac.PiecewisePotential.from_values([0.5, 0.5], [0.1, 0.2 + 0.1j])
    for C in (1.5, 2.0, 5.0):
        assert analysis.gordon_defect(phi, 1.0, C) == 0.0
        assert analysis.gordon_defect(phi.repeated(3), 1.0, C) == 0.0


@pytest.mark.parametrize("lengths, values", [([0.1, 0.2], [0.0, 1.0]),
                                             ([0.5, 0.3, 0.1],
                                              [0.5, -0.2, 0.1j])])
@pytest.mark.parametrize("k", [1, 2, 3, 10])
@pytest.mark.parametrize("C", [1.0, 2.0])
def test_gordon_defect_zero_at_period_multiples(lengths, values, k, C):
    # k T rounds differently from the breakpoints it shifts; cuts that
    # agree to rounding are one cut, so no sliver reads a neighbour
    phi = dirac.PiecewisePotential.from_values(lengths, values)
    assert analysis.gordon_defect(phi, k * phi.period, C) == 0.0


def gordon_defect_loop(phi, q, C):
    # the cut loop gordon_defect replaced, with a scalar segment lookup:
    # one cut at a time, one lookup per midpoint
    def value_at(x):
        u = x - math.floor(x / phi.period) * phi.period
        k = int(np.searchsorted(phi.boundaries, u, side="right")) - 1
        return phi.values[min(max(k, 0), phi.values.size - 1)].item()

    q = float(q)
    cuts = {0.0}
    T = phi.period
    for shift in (0.0, q, -q):
        k0 = math.floor(shift / T) - 1
        k1 = math.ceil((shift + q) / T) + 1
        for k in range(k0, k1 + 1):
            for b in phi.boundaries[:-1]:
                x = b + k * T - shift
                if 0.0 < x < q:
                    cuts.add(x)
    sup = 0.0
    for mid in dirac.cell_midpoints(list(cuts), q).tolist():
        v = value_at(mid)
        sup = max(sup, abs(value_at(mid - q) - v), abs(value_at(mid + q) - v))
    return analysis._scaled_defect(C, q, sup)


def test_gordon_defect_matches_cut_loop():
    rng = np.random.default_rng(37)
    for case in range(30):
        n = int(rng.integers(1, 9))
        phi = dirac.PiecewisePotential.from_values(
            rng.uniform(0.05, 1.0, n),
            rng.normal(size=n) + 1j * rng.normal(size=n))
        if case % 3 == 0:
            # repeated data: shifted cuts meet boundaries up to rounding
            phi = phi.repeated(int(rng.integers(2, 5)))
        T = phi.period
        k = int(rng.integers(1, 4))
        # below T, a non-multiple of T, a multiple of T, above T
        for q in (T * rng.uniform(0.05, 0.95), T * (k + rng.uniform(0.05, 0.95)),
                  k * T, T * rng.uniform(1.0, 5.0)):
            C = float(rng.uniform(0.5, 2.0))
            assert analysis.gordon_defect(phi, q, C) == gordon_defect_loop(
                phi, q, C)


def test_gordon_defect_single_changed_segment():
    base = dirac.PiecewisePotential.from_values([0.5, 0.5], [0.1, 0.2])
    changed = base.with_value(1, 0.2 + 0.03)
    phi = dirac.concatenate([base, changed])  # period 2, compare at q = 1
    defect = analysis.gordon_defect(phi, 1.0, 2.0)
    assert abs(defect - 2.0 * 0.03) < 1e-12


def test_gordon_defect_cycles():
    alpha = cmv.VerblunskyCycle.from_values([0.1, 0.2, 0.1, 0.2])
    assert analysis.gordon_defect(alpha, 2, 3.0) == 0.0
    beta = cmv.VerblunskyCycle.from_values([0.1, 0.2, 0.1, 0.25])
    assert analysis.gordon_defect(beta, 2, 2.0) == pytest.approx(4 * 0.05)


def test_gordon_defect_cycle_beyond_its_length():
    # the index terms repeat with the cycle length n, so q = 3n + 1 gives
    # the defect of the full loop over range(q)
    rng = np.random.default_rng(11)
    for n in (1, 2, 5):
        alpha = cmv.VerblunskyCycle.from_values(
            0.3 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)))
        q = 3 * n + 1
        vals = alpha.values
        sup = 0.0
        for k in range(q):
            sup = max(sup, abs(vals[(k - q) % n] - vals[k % n]),
                      abs(vals[(k + q) % n] - vals[k % n]))
        assert analysis.gordon_defect(alpha, q, 1.5) == analysis._scaled_defect(
            1.5, q, sup)


def test_gordon_defect_overflow_guarded():
    base = dirac.PiecewisePotential.from_values([1.0], [0.1])
    changed = dirac.concatenate([base] * 599 + [base.with_value(0, 0.2)])
    assert analysis.gordon_defect(changed, 300.0, 100.0) == math.inf


def test_schedule_zero_stages():
    phi0 = dirac.PiecewisePotential.free(1.0)
    sched = analysis.build_schedule(phi0, 0.4, 0, seed=1)
    assert len(sched.stages) == 1
    assert sched.stages[0].data is phi0


def test_schedule_two_stages_constraints():
    phi0 = dirac.PiecewisePotential.free(1.0)
    sched = analysis.build_schedule(phi0, 0.4, 2, seed=5)
    assert len(sched.stages) == 3
    measures = [s.measure for s in sched.stages]
    assert all(a > b for a, b in zip(measures, measures[1:]))

    # step bounds hold by independent recomputation
    for n in range(1, len(sched.stages)):
        prev = sched.stages[n - 1]
        cur = sched.stages[n]
        used = prev.epsilon
        assert used is not None and used > 0
        # distance between consecutive stages is below the recorded bound
        d = dirac.sup_distance(prev.data.repeated(
            int(round(cur.period / prev.period))), cur.data)
        assert d < used
        if n >= 2:
            before = sched.stages[n - 2].epsilon if n >= 2 else None
            recomputed = analysis.step_bound(
                sched.stages[n - 2].epsilon if n > 1 else 0.4 / 2,
                n - 1, prev.period, prev.measure)
            assert used <= recomputed / 2 + 1e-18

    # Gordon defect at q = T_n with C = n + 1 stays below one
    final = sched.final.data
    for n in range(1, len(sched.stages)):
        q = sched.stages[n].period
        defect = analysis.gordon_defect(final, q, float(n + 1))
        assert defect < 1.0

    # box-counting slopes do not grow from seed to final stage
    scales = [2.0 ** -k for k in range(3, 9)]
    seed_rep = analysis.box_counting(sched.stages[0].spectrum, scales)
    final_rep = analysis.box_counting(sched.final.spectrum, scales)
    assert final_rep.dim_upper <= seed_rep.dim_upper + 1e-12


def test_reports_serialize():
    rep = analysis.box_counting(bandset((0.0, 1.0)), [0.5, 0.25])
    doc = rep.to_json_dict()
    assert doc["counts"] == [2, 4]
