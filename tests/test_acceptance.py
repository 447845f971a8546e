"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and asserting its stated tolerance and runtime budget."""

import cmath
import json
import math
import time

import numpy as np
import pytest

from floquetlab import analysis, cli, cmv, construct, dirac, su11

FREE = dirac.PiecewisePotential.free(1.0)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_potential(rng, segments, sup=1.0):
    lengths = rng.uniform(0.2, 1.0, size=segments)
    values = [sup * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
              for _ in range(segments)]
    return dirac.PiecewisePotential.from_values(lengths, values)


def test_criterion_1_free_dirac_floquet_exactness():
    t0 = time.monotonic()
    bs = dirac.bands(FREE, 3.0, 1e-8)
    ok = bs.count == 1 and bs.intervals[0] == (-3.0, 3.0)
    ok = ok and abs(bs.measure - 6.0) <= 1e-7
    lams = np.linspace(-3.0, 3.0, 1000)
    D = dirac.discriminant_profile(FREE, lams)
    err = float(np.max(np.abs(D - 2.0 * np.cos(lams))))
    ok = ok and err <= 1e-10
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"(measure={bs.measure}, max discriminant err={err:.2e}, "
                   f"{elapsed:.2f}s)")


def test_criterion_2_constant_data_gap():
    t0 = time.monotonic()
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    bs = dirac.bands(phi, 3.0, 1e-8)
    ok = bs.count == 2
    (a1, b1), (a2, b2) = bs.intervals
    ok = ok and a1 == -3.0 and b2 == 3.0
    ok = ok and abs(b1 + 1.0) <= 1e-8 and abs(a2 - 1.0) <= 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, f"(inner edges {b1:.12f}, {a2:.12f}, {elapsed:.2f}s)")


def test_criterion_3_su11_invariant_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_defect = 0.0
    worst_det = 0.0
    for _ in range(10_000):
        phi = random_potential(rng, int(rng.integers(1, 5)))
        lam = rng.uniform(-3.0, 3.0)
        x = rng.uniform(0.0, phi.period)
        y = x + rng.uniform(0.1, phi.period)
        M = dirac.transfer(phi, x, y, lam)
        worst_defect = max(worst_defect, su11.su11_defect(M))
        worst_det = max(worst_det, abs(su11.det2(M) - 1.0))
    ok = worst_defect <= 1e-9 and worst_det <= 1e-10

    bound_ok = True
    for _ in range(10_000):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        M = A / np.sqrt(det)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        nv = float(np.linalg.norm(v))
        m3, m2 = su11.gordon_lower_bounds(M, v)
        tr = abs(M[0, 0] + M[1, 1])
        if m3 < 0.5 * nv * (1 - 1e-12):
            bound_ok = False
        if m2 < 0.5 * min(1.0, 1.0 / tr) * nv * (1 - 1e-12):
            bound_ok = False
    ok = ok and bound_ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(3, ok, f"(max defect={worst_defect:.2e}, max |det-1|={worst_det:.2e}, "
                   f"{elapsed:.1f}s)")


def test_criterion_4_band_count_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    ok = True
    worst_ratio = 0.0
    for _ in range(40):
        phi = random_potential(rng, int(rng.integers(1, 4)), sup=1.5)
        R = rng.uniform(1.0, 3.0)
        bs = dirac.bands(phi, R, 1e-6)
        bound = dirac.band_count_bound(phi, R)
        worst_ratio = max(worst_ratio, bs.count / bound)
        if bs.count > bound:
            ok = False
    elapsed = time.monotonic() - t0
    _report(4, ok, f"(worst count/bound ratio={worst_ratio:.2f}, {elapsed:.1f}s)")


def test_criterion_5_dos_normalization():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    # free case: closed-form bands [k pi, (k+1) pi]
    for k in (-2, -1, 0, 1):
        w = dirac.dos_band_weight(FREE, (k * math.pi, (k + 1) * math.pi))
        worst = max(worst, abs(w - 1.0))
    rng = np.random.default_rng(55)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 60:
        attempts += 1
        phi = random_potential(rng, 3, sup=1.2)
        R = 4.0 / phi.period
        bs = dirac.bands(phi, R, 1e-8)
        complete = [(a, b) for a, b in bs.intervals if a > -R and b < R]
        if not complete:
            continue
        checked += 1
        for band in complete[:3]:
            w = dirac.dos_band_weight(phi, band)
            worst = max(worst, abs(w * phi.period - 1.0))
    ok = worst <= 0.01 and checked >= 20
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(5, ok, f"(worst |T*weight - 1|={worst:.4f} over {checked} potentials, "
                   f"{elapsed:.1f}s)")


def _directed_windowed(src, dst, shrink):
    # sup over points of src inside the shrunken window of the distance
    # to dst; band sets are window clips, so points within `shrink` of
    # the window edge may have left the window in the other spectrum
    worst = 0.0
    lo, hi = -2.0 + shrink, 2.0 - shrink

    def dist(x):
        return min(max(a - x, x - b, 0.0) for a, b in dst.intervals)

    for a, b in src.intervals:
        ca, cb = max(a, lo), min(b, hi)
        if ca > cb:
            continue
        worst = max(worst, dist(ca), dist(cb))
    for (_, b1), (a2, _) in zip(dst.intervals[:-1], dst.intervals[1:]):
        mid = 0.5 * (b1 + a2)
        if lo <= mid <= hi and any(a <= mid <= b for a, b in src.intervals):
            worst = max(worst, dist(mid))
    return worst


def test_criterion_6_hausdorff_perturbation_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    tol = 1e-6
    ok = True
    worst_slack = -math.inf
    pairs = 0
    while pairs < 500:
        phi1 = random_potential(rng, int(rng.integers(1, 4)))
        offsets = [rng.uniform(0.0, 0.1) * cmath.exp(2j * math.pi * rng.uniform())
                   for _ in phi1.segments]
        phi2 = dirac.PiecewisePotential(segments=tuple(
            (l, v + o) for (l, v), o in zip(phi1.segments, offsets)))
        d = dirac.sup_distance(phi1, phi2)
        b1 = dirac.bands(phi1, 2.0, tol, oversample=8.0)
        b2 = dirac.bands(phi2, 2.0, tol, oversample=8.0)
        if not b1.intervals or not b2.intervals:
            continue
        pairs += 1
        dh = max(_directed_windowed(b1, b2, d + 2 * tol),
                 _directed_windowed(b2, b1, d + 2 * tol))
        slack = dh - (d + 2 * tol)
        worst_slack = max(worst_slack, slack)
        if slack > 0:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(6, ok, f"(500 pairs, worst d_H - (d + 2 tol) = {worst_slack:.2e}, "
                   f"{elapsed:.1f}s)")


def test_criterion_7_gap_opening():
    t0 = time.monotonic()
    lam = math.pi / 2
    phit, cert = construct.open_gap(FREE, lam, 0.2, seed=7)
    ok = abs(dirac.discriminant(phit, lam)) > 2.0
    ok = ok and (cert.word is None or cert.word.length <= 24)
    ok = ok and cert.distance < 0.2
    checks = construct.verify_gap_certificate(phit, cert)
    ok = ok and all(checks.values())
    dirac_time = time.monotonic() - t0

    t1 = time.monotonic()
    alpha = cmv.VerblunskyCycle.constant(0.0, 1)
    tilde, ccert = construct.cmv_open_gap(alpha, math.pi, 0.2, seed=7)
    ok = ok and abs(cmv.cmv_discriminant(tilde, math.pi)) > 2.0
    ok = ok and ccert.distance < 0.2
    ok = ok and (ccert.word is None or ccert.word.length <= 24)
    cchecks = construct.verify_gap_certificate(tilde, ccert)
    ok = ok and cchecks["gap_open"]
    cmv_time = time.monotonic() - t1
    ok = ok and dirac_time < 60.0 and cmv_time < 60.0
    _report(7, ok, f"(dirac |D|={abs(cert.achieved_trace):.3f} in {dirac_time:.1f}s; "
                   f"cmv |D|={abs(ccert.achieved_trace):.3f} in {cmv_time:.1f}s)")


@pytest.fixture(scope="module")
def thin_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("thin")
    cfg = {"kind": "dirac", "potential": [[1.0, 0.0, 0.0]], "window": 2.0,
           "tol": 1e-8, "seed": 11, "construction": {"epsilon": 0.3}}
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.monotonic()
    rc = cli.main(["thin", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.monotonic() - t0
    return out, rc, elapsed


def test_criterion_8_exponential_thinning(thin_experiment):
    out, rc, elapsed = thin_experiment
    ok = rc == 0
    summary = json.loads((out / "thin_summary.json").read_text())
    rows = summary["rows"]
    ok = ok and len(rows) == 3
    measures = [r["measure"] for r in rows]
    ok = ok and all(a > b for a, b in zip(measures, measures[1:]))
    slope = summary["fitted_rate"]
    ok = ok and slope is not None and slope < 0
    # c1 = kappa / (2 m) from the per-N reports
    report0 = json.loads((out / f"thin_N{rows[0]['N']}.json").read_text())
    c1 = report0["c1"]
    ok = ok and abs(slope) >= 0.1 * c1
    ok = ok and elapsed < 600.0
    _report(8, ok, f"(measures={['%.3g' % m for m in measures]}, "
                   f"slope={slope:.3e}, c1={c1:.3e}, {elapsed:.0f}s)")


def test_criterion_9_cmv_closed_form_arc():
    t0 = time.monotonic()
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    arcs = cmv.cmv_bands(alpha, 1e-8)
    ok = arcs.count == 1
    a, b = arcs.arcs[0]
    ok = ok and abs(a - math.pi / 3) <= 1e-8 and abs(b - 5 * math.pi / 3) <= 1e-8
    eigs = cmv.truncation_eigenvalues(alpha, 64, boundary="periodic")
    dists = np.array(sorted(arcs.distance_point(w) for w in eigs))
    trimmed = dists[: int(math.ceil(len(dists) * 0.95))]
    frac = float(np.mean(trimmed <= 1e-2))
    ok = ok and frac >= 0.95
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(9, ok, f"(edges=({a:.10f}, {b:.10f}), trimmed within 1e-2: "
                   f"{frac:.1%}, {elapsed:.1f}s)")


def test_criterion_10_schedule_coherence():
    t0 = time.monotonic()
    sched = analysis.build_schedule(FREE, 0.4, 2, seed=5)
    ok = len(sched.stages) == 3

    # step bounds by independent recomputation
    for n in range(1, len(sched.stages)):
        prev, cur = sched.stages[n - 1], sched.stages[n]
        used = prev.epsilon
        ok = ok and used is not None and 0 < used
        if n >= 2:
            bound = analysis.step_bound(sched.stages[n - 2].epsilon, n - 1,
                                        prev.period, prev.measure)
            ok = ok and used < bound
        reps = int(round(cur.period / prev.period))
        d = dirac.sup_distance(prev.data.repeated(reps), cur.data)
        ok = ok and d < used

    # Gordon defect at q = T_n with C = n + 1 below one at every stage
    final = sched.stages[-1].data
    defects = []
    for n in range(1, len(sched.stages)):
        defect = analysis.gordon_defect(final, sched.stages[n].period,
                                        float(n + 1))
        defects.append(defect)
        ok = ok and defect < 1.0

    # box-counting slopes on the final stage do not exceed the seed's
    scales = [2.0 ** -k for k in range(3, 10)]
    seed_rep = analysis.box_counting(sched.stages[0].spectrum, scales)
    final_rep = analysis.box_counting(sched.stages[-1].spectrum, scales)
    ok = ok and final_rep.dim_upper <= seed_rep.dim_upper + 1e-12

    measures = [s.measure for s in sched.stages]
    ok = ok and all(a > b for a, b in zip(measures, measures[1:]))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 900.0
    _report(10, ok, f"(measures={['%.5g' % m for m in measures]}, "
                    f"gordon={['%.3g' % d for d in defects]}, "
                    f"slopes {final_rep.dim_upper:.2f} <= {seed_rep.dim_upper:.2f}, "
                    f"{elapsed:.0f}s)")
