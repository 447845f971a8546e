import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from floquetlab import cli, construct

FREE_CFG = {"kind": "dirac", "potential": [[1.0, 0.0, 0.0]],
            "window": 3.0, "tol": 1e-8}
CONST_CFG = {"kind": "dirac", "potential": [[1.0, 1.0, 0.0]],
             "window": 3.0, "tol": 1e-8}
CMV_CFG = {"kind": "cmv", "verblunsky": [[0.5, 0.0]], "tol": 1e-8}
# two segments with interior gaps, so complete bands exist
GAPPED_CFG = {"kind": "dirac", "potential": [[0.5, 0.3, 0.1], [0.5, -0.2, 0.0]],
              "window": 3.5, "tol": 1e-8}
GORDON_CFG = {"kind": "dirac", "potential": [[1, 0.5, 0], [0.5, 0.1, 0]]}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_bands_free(tmp_path):
    rc = cli.main(["bands", "--config", write_cfg(tmp_path, FREE_CFG),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "bands.json").read_text())
    assert doc["count"] == 1
    assert abs(doc["measure"] - 6.0) < 1e-7
    csv = (tmp_path / "out" / "bands.csv").read_text().splitlines()
    assert csv[0] == "index,left,right,length"
    assert len(csv) == 2


def test_bands_constant(tmp_path):
    rc = cli.main(["bands", "--config", write_cfg(tmp_path, CONST_CFG),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "bands.json").read_text())
    assert doc["count"] == 2
    assert abs(doc["measure"] - 4.0) < 1e-6


def test_cmv_bands(tmp_path):
    rc = cli.main(["cmv-bands", "--config", write_cfg(tmp_path, CMV_CFG),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "bands.json").read_text())
    assert doc["count"] == 1
    (a, b), = doc["bands"]
    assert abs(a - math.pi / 3) < 1e-7
    assert abs(b - 5 * math.pi / 3) < 1e-7


def test_config_error_exit_code(tmp_path):
    rc = cli.main(["bands", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"dirac\"}")
    rc = cli.main(["bands", "--config", str(bad), "--out", str(tmp_path / "o2")])
    assert rc == 2


def test_seed_required_for_randomized(tmp_path):
    cfg = dict(FREE_CFG)
    cfg["open_gap"] = {"target": 1.0, "epsilon": 0.2}
    rc = cli.main(["open-gap", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def test_open_gap_command(tmp_path):
    cfg = dict(FREE_CFG)
    cfg["seed"] = 7
    cfg["open_gap"] = {"target": math.pi / 2, "epsilon": 0.2}
    rc = cli.main(["open-gap", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "gap_certificate.json").read_text())
    assert abs(doc["achieved_trace"]) > 2.0
    assert all(doc["verification"].values())


def test_gordon_command(tmp_path):
    cfg = {"kind": "dirac",
           "potential": [[0.5, 0.1, 0.0], [0.5, 0.2, 0.0]],
           "gordon": {"q": 1.0, "c": 2.0}}
    rc = cli.main(["gordon", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "gordon.json").read_text())
    assert doc["defect"] == 0.0


def run_module(tmp_path, command, cfg, timeout):
    # python -m floquetlab in a child process of at most 2 GB address
    # space, so a runaway allocation fails there instead of here
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "floquetlab", command,
         "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=timeout, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 ** 31, 2 ** 31)))


@pytest.mark.parametrize("q", [1e9, 1e20, 1e300])
def test_gordon_command_far_shift(tmp_path, q):
    # the mismatch has the period of the data, so a shift across many
    # periods is taken modulo the period; no mismatch exceeds the
    # difference of the two values, 0.5 - 0.1
    cfg = {**GORDON_CFG, "gordon": {"q": q, "c": 1.0}}
    assert run_module(tmp_path, "gordon", cfg, 60).returncode == 0
    doc = json.loads((tmp_path / "out" / "gordon.json").read_text())
    assert doc["q"] == q and 0.0 <= doc["defect"] <= 0.5 - 0.1


def test_lyapunov_command(tmp_path):
    cfg = dict(CONST_CFG)
    cfg["grid_points"] = 64
    rc = cli.main(["lyapunov", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "lyapunov.csv").read_text().splitlines()
    assert rows[0] == "point,lyapunov"
    assert len(rows) == 65


def test_dos_command(tmp_path):
    # two-segment data with genuine interior gaps, so complete bands exist
    cfg = {"kind": "dirac",
           "potential": [[0.5, 1.3, 0.4], [0.5, -0.6, 0.0]],
           "tol": 1e-8, "window": 4.0, "dos": {"nodes": 32}}
    rc = cli.main(["dos", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "dos.json").read_text())
    weights = [w for w in doc["weights"] if w is not None]
    assert weights
    for w in weights:
        assert abs(w - 1.0) < 0.01


def test_thin_command_stub_cover(tmp_path, monkeypatch):
    # window inside the constant-data gap: the cover is the seed itself,
    # keeping this CLI exercise fast
    kappa_calls = []
    kappa = construct.cover_kappa
    monkeypatch.setattr(construct, "cover_kappa",
                        lambda *a, **k: kappa_calls.append(a) or kappa(*a, **k))
    cfg = {"kind": "dirac", "potential": [[1.0, 1.0, 0.0]],
           "window": 0.5, "tol": 1e-8, "seed": 3,
           "construction": {"epsilon": 0.2, "n_values": [4, 5, 6]}}
    rc = cli.main(["thin", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    # kappa belongs to the cover: one call for the three N
    assert len(kappa_calls) == 1
    summary = (tmp_path / "out" / "thin_summary.csv").read_text().splitlines()
    assert summary[0] == "N,final_period,measure,log_measure"
    assert len(summary) == 4
    for n in (4, 5, 6):
        assert (tmp_path / "out" / f"thin_N{n}.json").exists()


def test_thin_command_infeasible_N(tmp_path):
    cfg = {"kind": "dirac", "potential": [[1.0, 1.0, 0.0]],
           "window": 0.5, "tol": 1e-8, "seed": 3,
           "construction": {"epsilon": 0.2, "n_values": [2]}}
    rc = cli.main(["thin", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 4
    # the partial summary is preserved
    assert (tmp_path / "out" / "thin_summary.csv").exists()
    # a feasible N, then an infeasible one: the first report is kept and
    # the series stops at the failure
    cfg["construction"]["n_values"] = [4, 2, 6]
    out = tmp_path / "partial"
    rc = cli.main(["thin", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 4
    assert (out / "thin_N4.json").exists()
    assert not (out / "thin_N6.json").exists()
    summary = json.loads((out / "thin_summary.json").read_text())
    assert [row["N"] for row in summary["rows"]] == [4]
    assert "N=2 below feasibility threshold" in summary["error"]


def test_dimension_command(tmp_path):
    cfg = {"kind": "dirac", "potential": [[1.0, 0.0, 0.0]], "tol": 1e-8,
           "seed": 5, "dimension": {"epsilon": 0.4, "n_stages": 2,
                                    "window": 0.5}}
    rc = cli.main(["dimension", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "dimension.json").read_text())
    assert len(doc["stages"]) == 3
    measures = [s["measure"] for s in doc["stages"]]
    assert all(a > b for a, b in zip(measures, measures[1:]))
    assert (tmp_path / "out" / "dimension_stage0.csv").exists()
    assert (tmp_path / "out" / "dimension_stage2.csv").exists()


def test_dimension_small_box_scale(tmp_path):
    # about 1e12 boxes of 1e-12 cover the window's one band; the boxes
    # inside a band are counted at once, not placed one by one
    cfg = {**FREE_CFG, "seed": 5,
           "dimension": {"n_stages": 0, "window": 0.5,
                         "scales": [1e-3, 1e-12]}}
    assert run_module(tmp_path, "dimension", cfg, 20).returncode == 0
    doc = json.loads((tmp_path / "out" / "dimension.json").read_text())
    counts = doc["stages"][0]["box"]["counts"]
    assert counts[0] == 1000 and abs(counts[1] - 10 ** 12) <= 1


def test_determinism_byte_identical(tmp_path):
    cfg = dict(FREE_CFG)
    cfg["seed"] = 7
    cfg["open_gap"] = {"target": math.pi / 2, "epsilon": 0.2}
    p = write_cfg(tmp_path, cfg)
    cli.main(["open-gap", "--config", p, "--out", str(tmp_path / "a")])
    cli.main(["open-gap", "--config", p, "--out", str(tmp_path / "b")])
    for name in ("gap_certificate.json", "gap_certificate.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_open_gap_command_cmv(tmp_path):
    cfg = dict(CMV_CFG)
    cfg["seed"] = 7
    cfg["open_gap"] = {"target": 2.0, "epsilon": 0.2}
    p = write_cfg(tmp_path, cfg)
    for out in ("a", "b"):
        assert cli.main(["open-gap", "--config", p,
                         "--out", str(tmp_path / out)]) == 0
    doc = json.loads((tmp_path / "a" / "gap_certificate.json").read_text())
    assert doc["kind"] == "cmv" and doc["case"] == 2
    assert len(doc["verification"]) == 4
    assert all(doc["verification"].values())
    for name in ("gap_certificate.json", "gap_certificate.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_lyapunov_command_cmv(tmp_path):
    cfg = dict(CMV_CFG)
    cfg["grid_points"] = 64
    rc = cli.main(["lyapunov", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "lyapunov.json").read_text())
    points = [p for p, _ in doc["values"]]
    assert doc["kind"] == "cmv" and len(points) == 64
    assert points[0] == 0.0
    assert abs(points[-1] - 2.0 * math.pi * 63 / 64) < 1e-12


def test_gordon_command_cmv_constant_cycle(tmp_path):
    cfg = {"kind": "cmv", "verblunsky": [[0.3, 0.1]],
           "gordon": {"q": 1, "c": 2.0}}
    rc = cli.main(["gordon", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "gordon.json").read_text())
    assert doc["kind"] == "cmv" and doc["defect"] == 0.0


def test_bands_kind_cmv_matches_cmv_bands(tmp_path):
    p = write_cfg(tmp_path, CMV_CFG)
    assert cli.main(["bands", "--config", p, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["cmv-bands", "--config", p,
                     "--out", str(tmp_path / "b")]) == 0
    for name in ("bands.json", "bands.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_cmv_thin_command(tmp_path):
    cfg = {"verblunsky": [[0.0, 0.0]], "tol": 1e-8, "seed": 2,
           "construction": {"epsilon": 2.5}}
    rc = cli.main(["cmv-thin", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "thin_summary.json").read_text())
    assert summary["kind"] == "cmv" and len(summary["rows"]) == 3
    for row in summary["rows"]:
        doc = json.loads(
            (tmp_path / "out" / f"thin_N{row['N']}.json").read_text())
        assert doc["kind"] == "cmv"
        assert doc["measure"] == row["measure"]


@pytest.mark.parametrize("rows", [None, [["a", 0.0]], [[0.1]], 5])
def test_bad_verblunsky_rows_exit_code(tmp_path, rows):
    cfg = {"kind": "cmv", "seed": 1, "open_gap": {"target": 1.0},
           "gordon": {"q": 1}}
    if rows is not None:
        cfg["verblunsky"] = rows
    p = write_cfg(tmp_path, cfg)
    for command in ("bands", "lyapunov", "open-gap", "cmv-thin", "gordon"):
        out = tmp_path / command
        assert cli.main([command, "--config", p, "--out", str(out)]) == 2
        assert out.is_dir()


@pytest.mark.parametrize("command, cfg, code, prefix", [
    ("bands", {**FREE_CFG, "window": "x"}, 2, "config error:"),
    ("bands", {**FREE_CFG, "tol": "abc"}, 2, "config error:"),
    ("bands", {**FREE_CFG, "potential": [[0.0, 0, 0]]}, 2, "config error:"),
    ("open-gap", {**FREE_CFG, "seed": "abc", "open_gap": {"target": 1.0}},
     2, "config error:"),
    ("open-gap", {**FREE_CFG, "seed": 1, "open_gap": {"target": "q"}},
     2, "config error:"),
    # a coefficient outside the disk is a numerical error, not a config one
    ("bands", {**CMV_CFG, "verblunsky": [[1.5, 0.0]]}, 3, "error:"),
    ("open-gap", {**FREE_CFG, "seed": 1,
                  "open_gap": {"target": 1.0, "epsilon": 0}},
     2, "config error:"),
    ("thin", {**FREE_CFG, "seed": 1, "construction": {"epsilon": -0.1}},
     2, "config error:"),
    ("gordon", {**FREE_CFG, "gordon": {"q": "x"}}, 2, "config error:"),
    ("dos", {**FREE_CFG, "dos": 5}, 2, "config error:"),
    ("open-gap", {**FREE_CFG, "seed": 1, "open_gap": [1]}, 2, "config error:"),
    ("dimension", {**FREE_CFG, "seed": 1, "dimension": {"scales": ["a"]}},
     2, "config error:"),
    ("thin", {**FREE_CFG, "seed": 1, "construction": {"n_values": 5}},
     2, "config error:"),
    # 1e400 reads as an infinite float
    ("bands", {**FREE_CFG, "window": 1e400}, 2, "config error:"),
    ("bands", {**FREE_CFG, "window": -1}, 2, "config error:"),
    ("dos", {**FREE_CFG, "window": 0}, 2, "config error:"),
    ("lyapunov", {**FREE_CFG, "window": -1}, 2, "config error:"),
    ("thin", {**FREE_CFG, "seed": 1, "window": 1e400}, 2, "config error:"),
    ("dimension", {**FREE_CFG, "seed": 1, "dimension": {"window": -0.5}},
     2, "config error:"),
    ("lyapunov", {**FREE_CFG, "grid_points": -5}, 2, "config error:"),
    ("lyapunov", {**FREE_CFG, "grid_points": 0}, 2, "config error:"),
    ("dimension", {**FREE_CFG, "seed": 1, "dimension": {"n_stages": -1}},
     2, "config error:"),
    ("gordon", {**FREE_CFG, "gordon": {"q": -1}}, 2, "config error:"),
    ("gordon", {**CMV_CFG, "verblunsky": [[0.1, 0], [0.5, 0]],
                "gordon": {"q": 0.9}}, 2, "config error:"),
    ("gordon", {**CMV_CFG, "verblunsky": [[0.1, 0], [0.5, 0]],
                "gordon": {"q": -1}}, 2, "config error:"),
    ("open-gap", {**FREE_CFG, "seed": -1, "open_gap": {"target": 1.0}},
     2, "config error:"),
    ("open-gap", {**FREE_CFG, "seed": 1.5, "open_gap": {"target": 1.0}},
     2, "config error:"),
    ("thin", {**FREE_CFG, "seed": 1, "construction": {"n_values": [2.5]}},
     2, "config error:"),
    ("gordon", {**GORDON_CFG, "gordon": {"q": 0.5, "c": 0}}, 2,
     "config error:"),
    ("gordon", {**GORDON_CFG, "gordon": {"q": 0.5, "c": -2}}, 2,
     "config error:"),
    ("gordon", {**GORDON_CFG, "gordon": {"q": 0.5, "c": 1e400}}, 2,
     "config error:"),
    ("gordon", {**GORDON_CFG, "gordon": {"q": 0.5, "c": "nan"}}, 2,
     "config error:"),
    ("dimension", {**FREE_CFG, "seed": 1, "dimension": {"scales": [0.1, 0.2]}},
     2, "config error:"),
    ("dimension", {**FREE_CFG, "seed": 1, "dimension": {"scales": [-0.1]}},
     2, "config error:"),
    ("dos", {**GAPPED_CFG, "dos": {"nodes": 0}}, 2, "config error:"),
    ("dos", {**GAPPED_CFG, "dos": {"nodes": -3}}, 2, "config error:"),
    ("bands", {**FREE_CFG, "oversample": 1e400}, 2, "config error:"),
], ids=["window", "tol", "segment", "seed", "target", "out-of-disk",
        "zero-epsilon", "negative-epsilon", "q", "dos-section",
        "open-gap-section", "scales", "n-values", "infinite-window",
        "negative-window", "dos-window", "lyapunov-window", "thin-window",
        "dimension-window", "negative-grid-points", "zero-grid-points",
        "negative-stages", "negative-q", "cmv-fractional-q",
        "cmv-negative-q", "negative-seed", "fractional-seed",
        "fractional-n-value", "zero-c", "negative-c", "infinite-c", "nan-c",
        "increasing-scales", "negative-scale", "zero-nodes",
        "negative-nodes", "infinite-oversample"])
def test_bad_config_values_exit_code(tmp_path, capsys, command, cfg, code,
                                     prefix):
    rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("cfg, code, stderr", [
    (FREE_CFG, 0, ""),
    ({**FREE_CFG, "window": "x"}, 2,
     "config error: window must be a number, got 'x'\n"),
], ids=["free", "bad-window"])
def test_python_m_entry_point(tmp_path, cfg, code, stderr):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "floquetlab", "bands",
         "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (code, stderr)


@pytest.mark.parametrize("args", [
    ["--seed", "-1"], ["--out", "{file}"], ["--out", "{file}/sub"],
], ids=["negative-seed", "out-is-a-file", "out-below-a-file"])
def test_bad_arguments_exit_code(tmp_path, capsys, args):
    cfg = {**FREE_CFG, "seed": 1, "open_gap": {"target": 1.0}}
    existing = tmp_path / "existing"
    existing.write_text("")
    args = [a.format(file=existing) for a in args]
    rc = cli.main(["open-gap", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out"), *args])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert existing.read_text() == ""


@pytest.mark.parametrize("command, cfg", [
    ("bands", FREE_CFG),
    ("dos", {**GAPPED_CFG, "dos": {"nodes": 16}}),
    ("lyapunov", {**CONST_CFG, "grid_points": 64}),
    ("open-gap", {**FREE_CFG, "seed": 7,
                  "open_gap": {"target": math.pi / 2, "epsilon": 0.2}}),
    ("gordon", {**GORDON_CFG, "gordon": {"q": 0.5, "c": 2}}),
], ids=["bands", "dos", "lyapunov", "open-gap", "gordon"])
def test_format_writes_the_files_of_its_suffix(tmp_path, capsys, command,
                                               cfg):
    # each format writes exactly its files of the "both" run, with the
    # same bytes, and reports them in the same order
    p = write_cfg(tmp_path, cfg)
    wrote, files = {}, {}
    for fmt in ("both", "csv", "json"):
        out = tmp_path / fmt
        assert cli.main([command, "--config", p, "--out", str(out),
                         "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith(f"wrote {out}") for line in lines)
        wrote[fmt] = [Path(line[len("wrote "):]).name for line in lines]
        files[fmt] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(files[fmt]) == sorted(wrote[fmt])
    for fmt in ("csv", "json"):
        assert wrote[fmt]
        assert wrote[fmt] == [name for name in wrote["both"]
                              if name.endswith("." + fmt)]
        assert all(files[fmt][name] == files["both"][name]
                   for name in wrote[fmt])
    assert len(wrote["both"]) == len(wrote["csv"]) + len(wrote["json"])
