import math
from dataclasses import replace

import numpy as np
import pytest

from floquetlab import cmv, construct, dirac, su11
from floquetlab.errors import (BudgetExhausted, NonRealTrace, NTooSmall,
                               NumericalAssertionError)

FREE = dirac.PiecewisePotential.free(1.0)


def test_open_gap_case1_returns_input():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    phit, cert = construct.open_gap(phi, 0.0, 0.2, seed=1)
    assert phit is phi
    assert cert.case == 1
    assert cert.distance == 0.0
    assert abs(cert.achieved_trace) > 2.0


def test_open_gap_midband():
    lam = math.pi / 2
    phit, cert = construct.open_gap(FREE, lam, 0.2, seed=7)
    assert cert.case == 2
    assert abs(dirac.discriminant(phit, lam)) > 2.0
    assert cert.distance < 0.2
    assert cert.word is not None and cert.word.length <= 24
    assert round(phit.period / FREE.period) == cert.word.length
    checks = construct.verify_gap_certificate(phit, cert)
    assert all(checks.values())


def test_open_gap_band_edge_takes_case3():
    # free discriminant at pi is exactly -2
    phit, cert = construct.open_gap(FREE, math.pi, 0.2, seed=7)
    assert len(cert.preperturbations) >= 1
    assert abs(dirac.discriminant(phit, math.pi)) > 2.0
    assert cert.distance < 0.2
    checks = construct.verify_gap_certificate(phit, cert)
    assert checks["gap_open"]


def test_open_gap_passes_word_limits_to_word_search(monkeypatch):
    seen = []

    def spy(A, B, budget=None, _fn=su11.hyperbolic_in_semigroup):
        seen.append(budget)
        return _fn(A, B, budget)
    monkeypatch.setattr(su11, "hyperbolic_in_semigroup", spy)
    budget = construct.GapSearchBudget(word_lengths=frozenset(range(1, 21)),
                                       trace_margin=0.04)
    construct.open_gap(FREE, math.pi / 2, 0.2, seed=7, budget=budget)
    assert seen
    for got in seen:
        assert (got.word_lengths, got.trace_margin) == (
            frozenset(range(1, 21)), 0.04)


def test_single_letter_budget_skips_word_search(monkeypatch):
    # a single letter of an elliptic partner is elliptic: no word search
    # can succeed, so none runs
    calls = []

    def spy(A, B, budget=None, _fn=su11.hyperbolic_in_semigroup):
        calls.append(budget)
        return _fn(A, B, budget)
    monkeypatch.setattr(su11, "hyperbolic_in_semigroup", spy)
    budget = replace(construct.COVER_BUDGET, word_lengths=frozenset({1}),
                     trace_margin=0.5)
    _, cert = construct.open_gap(dirac.PiecewisePotential.free().repeated(24),
                                 0.3, 0.3, seed=5, budget=budget)
    assert calls == []
    assert cert.case == 2
    assert cert.word_label() == "B^1"
    assert cert.achieved_trace == -2.977198788514687


def test_open_gap_cmv_finds_phase2_word():
    # eight alternating runs: the word comes from the exhaustive phase of
    # the word search, not from the two-run phase (A^a B^b)^r
    alpha = cmv.VerblunskyCycle((0.5 + 0j,))
    _, cert = construct.open_gap(alpha, 2.0, 0.2, seed=7)
    assert cert.case == 2
    assert cert.word.runs == ((1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 4),
                              (1, 1), (0, 4))
    assert cert.achieved_trace == pytest.approx(2.0537, abs=1e-4)
    assert cert.result_period == 28


def test_open_gap_deterministic():
    lam = math.pi / 2
    a1, c1 = construct.open_gap(FREE, lam, 0.2, seed=42)
    a2, c2 = construct.open_gap(FREE, lam, 0.2, seed=42)
    assert a1.segments == a2.segments
    assert c1.achieved_trace == c2.achieved_trace


def test_cmv_open_gap_midband():
    alpha = cmv.VerblunskyCycle.constant(0.0, 1)
    tilde, cert = construct.cmv_open_gap(alpha, math.pi, 0.2, seed=7)
    assert abs(cmv.cmv_discriminant(tilde, math.pi)) > 2.0
    assert cert.distance < 0.2
    assert all(abs(v) < 1.0 for v in tilde.values)
    checks = construct.verify_gap_certificate(tilde, cert)
    assert checks["gap_open"]


def test_cmv_open_gap_case1():
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    # theta = 0 lies in the gap around z = 1
    tilde, cert = construct.cmv_open_gap(alpha, 0.0, 0.2, seed=3)
    assert cert.case == 1
    assert tilde is alpha


def test_resolvent_cover_stub_already_gapped():
    # window strictly inside the constant-data gap (-1, 1)
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    members = construct.resolvent_cover(phi, 0.5, 0.2, seed=1)
    assert members == [phi]


def test_resolvent_cover_free_window():
    members = construct.resolvent_cover(FREE, 1.0, 0.3, seed=11)
    kappa = construct.cover_kappa(members, 1.0)
    assert kappa > 1e-3
    periods = {round(m.period) for m in members}
    assert len(periods) == 1
    for mem in members:
        assert construct._distance(FREE, mem) < 0.3


def test_thin_spectrum_feasibility_threshold():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    members = [phi]
    with pytest.raises(NTooSmall):
        construct.thin_spectrum(phi, 0.5, 0.2, 3, seed=1, cover=members)


def test_thin_spectrum_layout_and_report():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    members = [phi.with_value(0, 1.05)]
    N = 9
    phit, report = construct.thin_spectrum(phi, 0.5, 0.2, N, seed=1,
                                           cover=members)
    assert abs(phit.period - N * phi.period) < 1e-12
    m, ratio = 1, 1
    n_hat = report.n_hat
    # maximality: m (n_hat + 2) T' > N T
    assert m * (n_hat + 1) * ratio <= N
    assert m * (n_hat + 2) * ratio > N
    # block layout is exact concatenation: first (n_hat+1) blocks are the
    # member, the remainder is the seed
    segs = phit.segments
    assert segs[: n_hat + 1] == members[0].segments * (n_hat + 1)
    assert segs[n_hat + 1:] == phi.segments * (N - n_hat - 1)
    assert report.schedule == (float(n_hat + 1),)
    assert report.c1 == report.kappa / 2.0
    assert report.distance < 0.2


def test_thin_spectrum_free_seed_small_window():
    members = construct.resolvent_cover(FREE, 1.0, 0.3, seed=11)
    m = len(members)
    ratio = round(members[0].period)
    n0 = construct.feasibility_threshold(m, ratio)
    phit, report = construct.thin_spectrum(FREE, 1.0, 0.3, n0, seed=11,
                                           cover=members)
    assert report.measure < 2.0  # strictly thinner than the full window
    assert report.kappa > 1e-3
    assert report.distance < 0.3
    assert report.n_hat >= 1
    # schedule positions are multiples of (n_hat + 1) T'
    step = (report.n_hat + 1) * report.block_period
    for j, s in enumerate(report.schedule, start=1):
        assert abs(s - j * step) < 1e-9


def test_thin_series_equals_per_n_calls(monkeypatch):
    # cover-level work (kappa, distance) is done once per series; each
    # report matches the one-N call on the same cover
    kappa_calls = []
    kappa = construct.cover_kappa

    def counted(*args, **kwargs):
        kappa_calls.append(args)
        return kappa(*args, **kwargs)

    monkeypatch.setattr(construct, "cover_kappa", counted)
    alpha = cmv.VerblunskyCycle((0j,))
    cases = [(FREE, 0.1, 0.3, 1, construct.resolvent_cover(FREE, 0.1, 0.3, 1)),
             (alpha, None, 2.5, 2, construct.cmv_resolvent_cover(alpha, 2.5, 2))]
    for data, R, eps, seed, cover in cases:
        kappa_calls.clear()
        series = [r.to_json_dict() for r in construct.thin_series(
            data, R, eps, seed, cover=cover)]
        assert len(kappa_calls) == 1
        period = construct._family(data).period
        m, ratio = len(cover), round(period(cover[0]) / period(data))
        n0 = construct.feasibility_threshold(m, ratio)
        assert [doc["N"] for doc in series] == [n0, n0 + m * ratio,
                                                n0 + 2 * m * ratio]
        for doc in series:
            assembled, report = construct.thin_spectrum(
                data, R, eps, doc["N"], seed, cover=cover)
            assert report.to_json_dict() == doc
            # the largest member distance is the assembled data's
            assert doc["distance"] == construct._distance(data, assembled)


def test_fit_decay_rate_two_points():
    slope = construct.fit_decay_rate([10.0, 20.0], [1.0, math.exp(-1.0)])
    assert abs(slope + 0.1) < 1e-12


def test_cmv_thin_spectrum_layout():
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    member = cmv.VerblunskyCycle.from_values([0.52])
    N = 9
    tilde, report = construct.thin_spectrum(alpha, None, 0.3, N, seed=1,
                                            cover=[member])
    assert tilde.q == N
    n_hat = report.n_hat
    assert tilde.values[: n_hat + 1] == member.values * (n_hat + 1)
    assert tilde.values[n_hat + 1:] == alpha.values * (N - n_hat - 1)
    assert report.distance < 0.3


def test_reports_serialize():
    phi = dirac.PiecewisePotential.constant(1.0, 1.0)
    members = [phi.with_value(0, 1.05)]
    _, report = construct.thin_spectrum(phi, 0.5, 0.2, 9, seed=1,
                                        cover=members)
    doc = report.to_json_dict()
    assert doc["kind"] == "dirac"
    assert doc["N"] == 9
    assert isinstance(doc["cover"][0][0], list)


def test_resolvent_cover_beyond_sixty_members():
    # this window-2 cover needs 61 members; the cap only guards against
    # non-termination
    members = construct.resolvent_cover(FREE, 2.0, 0.3, 2094412827)
    assert len(members) == 61
    assert construct.cover_kappa(members, 2.0) > 0.0


def test_cmv_cover_rejects_partner_outside_group():
    # a sampled partner here fails the group check in the word search
    members = construct.cmv_resolvent_cover(
        cmv.VerblunskyCycle((0.3,)), 2.5, 209)
    assert len(members) == 5


@pytest.mark.parametrize("kind", ["dirac", "cmv"])
def test_cover_rows_only_where_open(monkeypatch, kind):
    # every row the grid phase of the cover search asks for is also
    # computed on the full grid; replaying the full rows gives the same
    # targets and row points: the open points and the other ends of
    # their cells.  Later targets are holes between grid points.
    fam = construct.FAMILIES[kind]
    module, name = (dirac, "lyapunov_profile") if kind == "dirac" else (
        cmv, "cmv_lyapunov_profile")
    profile = getattr(module, name)
    # cell i runs from grid[i] to grid[i + 1]; the CMV grid closes at 2 pi
    grid = fam.closed(fam.grid(2.0, construct.COVER_GRID_POINTS))
    # the base row comes first, then the row of each new member, after
    # its gap search; the cover check's calls in between are not rows
    rows, target_of_row = [], [None]

    def row(data, points):
        got = profile(data, points)
        if target_of_row:
            rows.append((data, points, got, target_of_row.pop()))
        return got

    def gap(data, target, *args, _fn=construct.open_gap):
        target_of_row[:] = [target]
        return _fn(data, target, *args)
    monkeypatch.setattr(module, name, row)
    monkeypatch.setattr(construct, "open_gap", gap)
    if kind == "dirac":
        members = construct.resolvent_cover(FREE, 2.0, 0.3, 41)
    else:
        members = construct.cmv_resolvent_cover(
            cmv.VerblunskyCycle((0.5 + 0j,)), 0.3, 41)
    (_, points, base_row, _), rows = rows[0], rows[1:]
    assert len(members) >= 4
    assert len(rows) == len(members) - (base_row.max() > construct.KAPPA_THRESHOLD)
    assert points.tobytes() == grid.tobytes()
    targets = [target for *_, target in rows]
    phase = (np.isin(targets, grid).tolist() + [False]).index(False)
    # the full-grid rule: a running maximum of full rows
    best = np.full(grid.size, -1.0)
    if base_row.max() > construct.KAPPA_THRESHOLD:
        best = np.maximum(best, base_row)
    for data, points, got, target in rows[:phase]:
        worst = int(np.argmin(best))
        assert best[worst] <= construct.KAPPA_THRESHOLD
        assert target == grid[worst]
        open_ = best <= construct.KAPPA_THRESHOLD
        asked = open_.copy()
        asked[:-1] |= open_[1:]
        asked[1:] |= open_[:-1]
        assert points.tobytes() == grid[asked].tobytes()
        full = profile(data, grid)
        assert got.tobytes() == full[asked].tobytes()
        best = np.maximum(best, full)
    assert best.min() > construct.KAPPA_THRESHOLD
    for target in targets[phase:]:
        j = int(np.searchsorted(grid, target))
        assert 0 < j < grid.size and grid[j - 1] < target < grid[j]
    if kind == "cmv":
        assert len(targets) > phase     # this cover had a hole


def common_spectrum(members, R=None):
    """The intervals where every member is in its spectrum: Dirac bands
    in [-R, R], or CMV arcs when R is None."""
    common = [(-math.inf, math.inf)]
    for mem in dict.fromkeys(members):
        spectrum = (cmv.cmv_bands(mem, 1e-8) if R is None
                    else dirac.bands(mem, R, 1e-8))
        common = [(max(a, c), min(b, d)) for a, b in common
                  for c, d in spectrum.intervals if max(a, c) < min(b, d)]
    return common


def test_dirac_cover_has_no_hole_between_grid_points():
    # checked at the grid points only, this cover had 47 members and left
    # (-1.239556, -1.238915) in every member's spectrum
    members = construct.resolvent_cover(FREE, 2.0, 0.3, 1637806335)
    assert common_spectrum(members, 2.0) == []
    assert common_spectrum(members[:47], 2.0) != []


def test_cmv_cover_has_no_hole_between_grid_points():
    # checked at the grid points only, this cover had 32 members and
    # left (2.820052, 2.821329) and (4.495266, 4.496181) in every
    # member's spectrum
    members = construct.cmv_resolvent_cover(cmv.VerblunskyCycle((0j,)), 0.3,
                                            52244900)
    assert common_spectrum(members) == []
    assert common_spectrum(members[:32]) != []


def test_family_entries_see_rebound_library_functions(monkeypatch):
    # perfbench/tracer.py times layers by rebinding module attributes, so
    # the construction must look library functions up at call time
    counts = {}
    watched = [(dirac, "monodromy"), (dirac, "monodromies"),
               (dirac, "discriminant"),
               (dirac, "lyapunov_profile"), (dirac, "bands_of_groups"),
               (cmv, "cmv_monodromy"), (cmv, "cmv_monodromies"),
               (cmv, "cmv_discriminant"),
               (cmv, "cmv_lyapunov_profile"), (construct, "open_gap"),
               (construct, "cover_kappa")]
    for module, name in watched:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    # a five-member cover of [-0.1, 0.1], built inside thin_spectrum
    _, report = construct.thin_spectrum(FREE, 0.1, 0.3, 480, seed=1)
    assert report.member_count == 5
    construct.cmv_resolvent_cover(cmv.VerblunskyCycle((0.0,)), 2.5, 2)
    assert {name for _, name in watched} == set(counts)


# ---------------------------------------------------------------------------
# Batch screen of the gap search
# ---------------------------------------------------------------------------

def nan_batch(data, target):
    # every column unsound: the screen passes all samples to the scalar path
    n = len(data)
    return su11.Su11Batch(np.full(n, np.nan + 0j), np.full(n, np.nan + 0j),
                          np.zeros(n))


def gap_outcome(data, target, eps, seed, budget=None):
    try:
        result, cert = construct.open_gap(data, target, eps, seed, budget)
    except BudgetExhausted as exc:
        return str(exc)
    word = cert.word
    return (result, cert.case, cert.partner, cert.achieved_trace,
            cert.distance, cert.preperturbations,
            (word.runs, word.trace, word.matrix.tobytes()) if word else None)


def screen_cases():
    rung = replace(construct.COVER_BUDGET,
                   word_lengths=construct._admissible_lengths(2, 12, 1),
                   trace_margin=0.05)
    gaps = [gap_outcome(cmv.VerblunskyCycle((0.5 + 0j,)), 2.0, 0.2, 7),
            gap_outcome(FREE, math.pi / 2, 0.2, 7),
            gap_outcome(FREE, math.pi, 0.2, 7),
            gap_outcome(FREE.repeated(12), 1.3, 0.3, 11, rung),
            gap_outcome(cmv.VerblunskyCycle((0j,)).repeated(12), 2.0, 0.3, 3,
                        rung)]
    covers = [construct.resolvent_cover(FREE, 0.5, 0.3, 4),
              construct.cmv_resolvent_cover(cmv.VerblunskyCycle((0.5 + 0j,)),
                                            0.3, 4)]
    return gaps, covers


def test_screened_search_equals_unscreened(monkeypatch):
    calls = {"n": 0}

    def counted(phi, lam, _fn=dirac.monodromy):
        calls["n"] += 1
        return _fn(phi, lam)
    monkeypatch.setattr(dirac, "monodromy", counted)
    screened = screen_cases()
    screened_calls = calls["n"]
    monkeypatch.setattr(dirac, "monodromies", nan_batch)
    monkeypatch.setattr(cmv, "cmv_monodromies", nan_batch)
    calls["n"] = 0
    unscreened = screen_cases()
    assert screened == unscreened
    # the screen decided most samples without the scalar path
    assert screened_calls < calls["n"] / 4


@pytest.mark.parametrize("family", ["dirac", "cmv"])
@pytest.mark.parametrize("wrong", ["defect", "phase"])
def test_wrong_batch_step_never_gives_a_cover(monkeypatch, family, wrong):
    # a wrong step of the batch kernel, shared by the screen and the
    # discriminants, trips the defect check or the word-trace self-check
    phase = np.exp(0.01j)
    if family == "dirac":
        right = dirac._stepper

        def stepper(lengths, values):
            step = right(lengths, values)
            if wrong == "defect":
                return lambda lam: (step(lam)[0], 1.001 * step(lam)[1])
            return lambda lam: tuple(phase * x for x in step(lam))
        monkeypatch.setattr(dirac, "_stepper", stepper)
        run = lambda: construct.resolvent_cover(FREE, 2.0, 0.3, 5)
    else:
        right = cmv._szego_rows

        def rows(values):
            r, rb = right(values)
            return (r, 1.001 * rb) if wrong == "defect" else (
                phase * r, phase * rb)
        monkeypatch.setattr(cmv, "_szego_rows", rows)
        run = lambda: construct.cmv_resolvent_cover(
            cmv.VerblunskyCycle((0j,)), 0.3, 5)
    with pytest.raises((NumericalAssertionError, NonRealTrace)):
        run()


def disk_offset(rng, radius):
    # one scalar draw: u, then v
    u = rng.uniform()
    v = rng.uniform()
    return complex(radius * math.sqrt(u) * np.exp(2j * math.pi * v))


def test_disk_offsets_match_sequential_draws():
    for seed, n, radius in [(0, 1, 0.15), (1, 23, 0.15), (2, 47, 0.1487),
                            (3, 200, 1.0)]:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = construct._disk_offsets(rng, radius, n)
        want = [disk_offset(ref, radius) for _ in range(n)]
        assert [(w.real, w.imag) for w in got] == [
            (w.real, w.imag) for w in want]
        assert rng.uniform() == ref.uniform()


def per_draw_resonant(phi, rng, radius, lam):
    # the proposal with its piece layout rebuilt on every draw
    T = phi.period
    direction = -1.0 if lam >= 0 else 1.0
    nu_star = round(abs(lam) * T / math.pi)
    nu_max = max(3, nu_star + 2, round(1.4 * abs(lam) * T / math.pi))
    main_div, low, span, sides, side_div = construct.RESONANT_MODES[
        int(rng.choice(tuple(construct.RESONANT_MODES)))]
    modes = [(nu_star + int(rng.integers(-1, 2)),
              (radius / main_div) * (low + span * rng.uniform()),
              rng.uniform(0.0, construct.TWO_PI))]
    for _ in range(sides):
        modes.append((int(rng.integers(1, nu_max + 1)),
                      (radius / side_div) * rng.uniform(),
                      rng.uniform(0.0, construct.TWO_PI)))
    h_target = min(math.pi / (2.0 * abs(lam) + 2.0), T / 8.0)
    split = {}
    hs, values, mids = [], [], []
    x = 0.0
    for length, value in phi.segments:
        if length not in split:
            pieces = max(1, int(math.ceil(length / h_target)))
            split[length] = (pieces, length / pieces)
        pieces, h = split[length]
        hs += [h] * pieces
        values += [value] * pieces
        mids.append(x + (np.arange(pieces) + 0.5) * h)
        x += length
    mid = np.concatenate(mids)[1:]
    offset = 0
    for nu, a, ph in modes:
        offset = offset + a * np.exp(
            1j * (ph + direction * construct.TWO_PI * nu * mid / T))
    return dirac.PiecewisePotential(segments=((hs[0], values[0]),) + tuple(
        zip(hs[1:], [v + w for v, w in zip(values[1:], offset.tolist())])))


def test_resonant_offsets_match_sequential_draws():
    two = dirac.PiecewisePotential.from_values([0.7, 0.3], [0.2, -0.1j])
    uneven = dirac.PiecewisePotential.from_values(
        [0.25, 1.5, 0.125, 0.8], [0.1, 0.3j, -0.2, 0.05 + 0.05j])
    cases = [(FREE.repeated(24), 1.9), (FREE.repeated(12), -0.4),
             (two.repeated(6), 0.05), (FREE.with_split(0), 1.2),
             (uneven.repeated(3), -2.7), (FREE, 0.0)]
    for seed, (phi, lam) in enumerate(cases):
        draw = construct._resonant_potentials(phi, lam)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # one layout serves every draw of a search
        for radius in (0.15, 0.15, 0.3, 0.05, 0.15, 0.15):
            got = draw(rng, radius)
            want = per_draw_resonant(phi, ref, radius, lam)
            assert got == want
            assert [(l, v.real, v.imag) for l, v in got.segments] == [
                (l, v.real, v.imag) for l, v in want.segments]
            assert rng.uniform() == ref.uniform()


def test_single_block_concatenation_is_the_block():
    phi = FREE.repeated(3)
    alpha = cmv.VerblunskyCycle((0.5 + 0j, 0.1j))
    assert dirac.concatenate(iter([phi])) is phi
    assert cmv.concatenate_cycles([alpha]) is alpha
    assert dirac.concatenate([phi, FREE]).segments == phi.segments + FREE.segments
