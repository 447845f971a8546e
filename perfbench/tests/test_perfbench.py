"""Self-tests of the benchmark: repeatable traced counts and an oracle
that a wrong transfer trips.  They run small thin constructions, a few
seconds each."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import floquetlab as fl                               # noqa: E402
import oracle                                         # noqa: E402
import tracer                                         # noqa: E402
import workloads                                      # noqa: E402

SMALL = dict(workloads.THIN_CONFIG, window=0.2, cover_members=4)
SEED = 11


def run_small(tmp_path, name="u"):
    out_dir = tmp_path / name
    out_dir.mkdir()
    return workloads._thin(fl, SMALL, SEED, out_dir)


def test_traced_counts_repeat(tmp_path):
    counts = []
    for name in ("a", "b"):
        with tracer.Tracer(fl) as tr:
            result = run_small(tmp_path, name)
        assert not result.errors
        counts.append(tr.computed_counts())
    assert counts[0] == counts[1]
    assert counts[0]["dirac.grouped:grouped_discriminant_profile.steps"] > 0


def test_tracer_restores_library(tmp_path):
    original = fl.dirac.grouped_discriminant_profile
    with tracer.Tracer(fl):
        assert fl.dirac.grouped_discriminant_profile is not original
    assert fl.dirac.grouped_discriminant_profile is original


def _free_coupling(groups):
    # the transfer of the same blocks with the off-diagonal data dropped
    return [(fl.dirac.PiecewisePotential(
        segments=tuple((length, 0j) for length, _ in block.segments)), reps)
        for block, reps in groups]


def test_oracle_passes_real_and_trips_on_wrong_transfer(tmp_path, monkeypatch):
    real = run_small(tmp_path, "real")
    assert not real.errors
    rng = np.random.default_rng(0)
    assert oracle.check_thin(fl, SMALL, real.reports, rng) == []

    # a wrong transfer inside the band-scan kernel only: the cover search
    # and its own consistency checks still run on the real code
    right = fl.dirac.grouped_trace_profile
    monkeypatch.setattr(fl.dirac, "grouped_trace_profile",
                        lambda groups, lams: right(_free_coupling(groups), lams))
    wrong = run_small(tmp_path, "wrong")
    monkeypatch.undo()
    assert not wrong.errors
    bad = oracle.check_thin(fl, SMALL, wrong.reports, rng)
    assert any("|trace|" in msg for msg in bad)


def test_oracle_sorts_subgrid_gap_band_as_known_defect():
    # Reported by thin_spectrum on free data, window 0.5, eps 0.3, the
    # 16-member padded cover of construction seed 1593437049, N = 1536:
    # the scan grid (spacing 2.26e-4) sees one band where a dense grid
    # sees two, [0.313367, 0.313384] and [0.313426, 0.313443].
    cfg = workloads.THIN_CONFIG
    phi = fl.dirac.PiecewisePotential.free()
    members = fl.construct.resolvent_cover(phi, cfg["window"], 0.3, 1593437049)
    cover = workloads.padded(members, cfg["cover_members"])
    doc = {"N": 1536, "N_hat": 3, "epsilon": 0.3,
           "distance": 0.0,
           "cover": [[[l, v.real, v.imag] for l, v in mem.segments]
                     for mem in cover],
           "spectrum": [[0.3133671500466087, 0.31344322487543425]]}
    known = []
    assert oracle.check_thin_report(fl, cfg, doc, known) == []
    assert len(known) == 1 and "narrower than the scan spacing" in known[0]
    # without a known list it is a mismatch
    bad = oracle.check_thin_report(fl, cfg, doc)
    assert len(bad) == 1 and "|trace|" in bad[0]
    # a band reaching across a wide gap is a mismatch either way
    doc["spectrum"] = [[0.3133671500466087, 0.31344322487543425 + 0.01]]
    assert oracle.check_thin_report(fl, cfg, doc, known) != []


def test_oracle_rejects_member_beyond_eps():
    base = fl.dirac.PiecewisePotential.free()
    far = fl.dirac.PiecewisePotential(segments=((0.5, 0j), (0.5, 0.4 + 0j)))
    bad = oracle.check_cover(fl, "dirac", base, [far], 0.3,
                             np.random.default_rng(0), 1.0)
    assert any("distance" in msg for msg in bad)
