import math
from dataclasses import replace

import numpy as np
import pytest

from floquetlab import cmv, construct, dirac, su11
from floquetlab.errors import NTooSmall

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


def test_fit_decay_rate_two_points():
    slope = construct.fit_decay_rate([10.0, 20.0], [1.0, math.exp(-1.0)])
    assert abs(slope + 0.1) < 1e-12


def test_cmv_thin_spectrum_layout():
    alpha = cmv.VerblunskyCycle.constant(0.5, 1)
    member = cmv.VerblunskyCycle.from_values([0.52])
    N = 9
    tilde, report = construct.cmv_thin_spectrum(alpha, 0.3, N, seed=1,
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


def test_family_entries_see_rebound_library_functions(monkeypatch):
    # perfbench/tracer.py times layers by rebinding module attributes, so
    # the construction must look library functions up at call time
    counts = {}
    watched = [(dirac, "monodromy"), (dirac, "discriminant"),
               (dirac, "lyapunov_profile"), (dirac, "bands_of_groups"),
               (cmv, "cmv_monodromy"), (cmv, "cmv_discriminant"),
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
