"""Command-line surface: config ingestion, experiment orchestration, and
bit-stable result emission.

Every command is a deterministic function of (config, seed); reruns with
the same inputs produce byte-identical artifacts (no timestamps).  All
numbers are emitted with repr, the shortest decimal form that parses
back to the same double.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import analysis, construct, dirac
from .errors import (FloquetLabError, NumericalAssertionError, SearchFailure)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SEARCH = 4


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _number(value, name: str, convert=float):
    """A number read from the config; anything else is a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _positive(value, name: str) -> float:
    number = _number(value, name)
    if not number > 0:
        raise ConfigError(f"{name} must be positive")
    return number


def _numbers(section: dict, name: str, convert=float) -> list:
    """A list of numbers in a config section; missing or empty reads as []."""
    values = section.get(name) or []
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return [_number(v, name, convert) for v in values]


def _section(cfg: dict, name: str) -> dict:
    """A config section: an object, empty when missing."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {section!r}")
    return section


def _data_from(cfg: dict, kind: str):
    """The operator data of the config: a potential or a Verblunsky cycle."""
    fam = construct.FAMILIES[kind]
    rows = cfg.get(fam.config_key)
    if not rows:
        raise ConfigError(f"config needs '{fam.config_key}': {fam.row_hint}")
    try:
        return fam.make(tuple(fam.parse_row(r) for r in rows))
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"bad {fam.config_key} rows: {exc}") from exc


def _kind(cfg: dict) -> str:
    kind = cfg.get("kind", "dirac")
    if kind not in ("dirac", "cmv"):
        raise ConfigError(f"kind must be 'dirac' or 'cmv', got {kind!r}")
    return kind


def _require_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is mandatory for randomized commands")
    return _number(seed, "seed", int)


def _tol(cfg: dict) -> float:
    return _positive(cfg.get("tol", 1e-8), "tol")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str, fmt_wanted: str, fmt: str) -> None:
    if fmt in (fmt_wanted, "both"):
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_bands(cfg: dict, args) -> int:
    kind = _kind(cfg)
    tol = _tol(cfg)
    out = _out_dir(args)
    fam = construct.FAMILIES[kind]
    spectrum = fam.bands(
        _data_from(cfg, kind), _number(cfg.get("window", 3.0), "window"), tol,
        _number(cfg.get("oversample", 1.0), "oversample"))
    intervals = fam.intervals(spectrum)
    rows = [[i, a, b, b - a] for i, (a, b) in enumerate(intervals)]
    summary = {
        "kind": kind,
        "count": len(intervals),
        "measure": spectrum.measure,
        "bands": [[a, b] for a, b in intervals],
    }
    _write_text(out / "bands.csv",
                _csv_text(["index", "left", "right", "length"], rows),
                "csv", args.format)
    _write_text(out / "bands.json", _json_text(summary), "json", args.format)
    return EXIT_OK


def cmd_dos(cfg: dict, args) -> int:
    phi = _data_from(cfg, "dirac")
    tol = _tol(cfg)
    out = _out_dir(args)
    R = _number(cfg.get("window", 3.0), "window")
    nodes = _number(_section(cfg, "dos").get("nodes", 48), "nodes", int)
    bandset = dirac.bands(phi, R, tol)
    rows = []
    for i, (a, b) in enumerate(bandset.intervals):
        complete = a > -R and b < R
        weight = dirac.dos_band_weight(phi, (a, b), nodes=nodes) if complete else None
        rows.append([i, a, b, weight if weight is not None else "", complete])
    summary = {
        "period": phi.period,
        "expected_weight": 1.0 / phi.period,
        "bands": [
            {"left": a, "right": b}
            for a, b in bandset.intervals
        ],
        "weights": [r[3] if r[3] != "" else None for r in rows],
    }
    _write_text(out / "dos.csv",
                _csv_text(["index", "left", "right", "weight", "complete"], rows),
                "csv", args.format)
    _write_text(out / "dos.json", _json_text(summary), "json", args.format)
    return EXIT_OK


def cmd_lyapunov(cfg: dict, args) -> int:
    kind = _kind(cfg)
    out = _out_dir(args)
    n = _number(cfg.get("grid_points", 512), "grid_points", int)
    fam = construct.FAMILIES[kind]
    data = _data_from(cfg, kind)
    grid = fam.grid(_number(cfg.get("window", 3.0), "window"), n)
    rows = [[float(x), float(v)] for x, v in zip(grid, fam.lyapunov(data, grid))]
    _write_text(out / "lyapunov.csv",
                _csv_text(["point", "lyapunov"], rows), "csv", args.format)
    _write_text(out / "lyapunov.json",
                _json_text({"kind": kind, "values": rows}), "json", args.format)
    return EXIT_OK


def _certificate_dict(cert: construct.GapCertificate) -> dict:
    return {
        "kind": cert.kind,
        "target": cert.target,
        "case": cert.case,
        "word": cert.word_label(),
        "word_runs": [list(r) for r in cert.word.runs] if cert.word else None,
        "base": cert.base.rows,
        "partner": cert.partner.rows if cert.partner is not None else None,
        "result_period": cert.result_period,
        "achieved_trace": cert.achieved_trace,
        "distance": cert.distance,
        "preperturbations": list(cert.preperturbations),
    }


def cmd_open_gap(cfg: dict, args) -> int:
    kind = _kind(cfg)
    out = _out_dir(args)
    seed = _require_seed(cfg, args)
    gap_cfg = _section(cfg, "open_gap")
    eps = _positive(gap_cfg.get("epsilon", 0.2), "epsilon")
    if "target" not in gap_cfg:
        raise ConfigError("open_gap config needs 'target'")
    target = _number(gap_cfg["target"], "target")
    result, cert = construct.open_gap(_data_from(cfg, kind), target, eps, seed)
    doc = _certificate_dict(cert)
    doc["verification"] = construct.verify_gap_certificate(result, cert)
    _write_text(out / "gap_certificate.json", _json_text(doc), "json", args.format)
    if args.format in ("csv", "both"):
        rows = [[cert.target, cert.case, cert.achieved_trace, cert.distance,
                 cert.result_period]]
        _write_text(out / "gap_certificate.csv",
                    _csv_text(["target", "case", "trace", "distance", "period"],
                              rows), "csv", args.format)
    return EXIT_OK


def _thin_common(cfg: dict, args, kind: str) -> int:
    out = _out_dir(args)
    seed = _require_seed(cfg, args)
    tol = _tol(cfg)
    ccfg = _section(cfg, "construction")
    eps = _positive(ccfg.get("epsilon", 0.3), "epsilon")
    n_values = _numbers(ccfg, "n_values", int)
    summary_rows = []
    reports = []
    partial_error: Optional[SearchFailure] = None
    period = construct.FAMILIES[kind].period

    try:
        data = _data_from(cfg, kind)
        R = _number(cfg.get("window", 2.0), "window")
        cover = construct.resolvent_cover(data, R, eps, seed)
        m, ratio = len(cover), int(round(period(cover[0]) / period(data)))
        n0 = construct.feasibility_threshold(m, ratio)
        if not n_values:
            n_values = [n0, n0 + m * ratio, n0 + 2 * m * ratio]
        for N in n_values:
            _, report = construct.thin_spectrum(
                data, R, eps, N, seed, tol=tol, cover=cover)
            reports.append(report)
            summary_rows.append([N, report.final_period, report.measure,
                                 math.log(max(report.measure, 1e-300))])
    except SearchFailure as exc:
        partial_error = exc

    fitted = None
    if len(reports) >= 2:
        fitted = construct.fit_decay_rate(
            [r.final_period for r in reports], [r.measure for r in reports])
    for i, report in enumerate(reports):
        doc = report.to_json_dict()
        doc["fitted_rate"] = fitted
        name = f"thin_N{report.n_value}.json"
        _write_text(out / name, _json_text(doc), "json", args.format)
    _write_text(out / "thin_summary.csv",
                _csv_text(["N", "final_period", "measure", "log_measure"],
                          summary_rows), "csv", args.format)
    if args.format in ("json", "both"):
        measures = [r[2] for r in summary_rows]
        summary = {
            "kind": kind,
            "seed": seed,
            "epsilon": eps,
            "fitted_rate": fitted,
            "monotone_non_increasing": all(
                a >= b for a, b in zip(measures, measures[1:])),
            "rows": [dict(zip(("N", "final_period", "measure", "log_measure"), r))
                     for r in summary_rows],
        }
        if partial_error is not None:
            summary["error"] = str(partial_error)
        _write_text(out / "thin_summary.json", _json_text(summary),
                    "json", args.format)
    if partial_error is not None:
        print(f"search failure (partial results kept): {partial_error}",
              file=sys.stderr)
        return EXIT_SEARCH
    return EXIT_OK


def cmd_thin(cfg: dict, args) -> int:
    return _thin_common(cfg, args, "dirac")


def cmd_cmv_thin(cfg: dict, args) -> int:
    return _thin_common(cfg, args, "cmv")


def cmd_cmv_bands(cfg: dict, args) -> int:
    return cmd_bands({**cfg, "kind": "cmv"}, args)


def cmd_dimension(cfg: dict, args) -> int:
    out = _out_dir(args)
    seed = _require_seed(cfg, args)
    tol = _tol(cfg)
    dcfg = _section(cfg, "dimension")
    phi = _data_from(cfg, "dirac")
    eps = _positive(dcfg.get("epsilon", 0.4), "epsilon")
    n_stages = _number(dcfg.get("n_stages", 2), "n_stages", int)
    window = _number(dcfg.get("window", 0.5), "window")
    scales = _numbers(dcfg, "scales") or [2.0 ** -k for k in range(3, 11)]
    schedule = analysis.build_schedule(phi, eps, n_stages, seed,
                                       window=window, tol=tol)
    stage_docs = []
    for i, stage in enumerate(schedule.stages):
        rep = analysis.box_counting(stage.spectrum, scales)
        stage_docs.append({"stage": i, "period": stage.period,
                           "measure": stage.measure,
                           "target": stage.target,
                           "epsilon": stage.epsilon,
                           "box": rep.to_json_dict()})
        rows = [[e, c, s] for e, c, s in
                zip(rep.scales, rep.counts, list(rep.slopes) + [""])]
        _write_text(out / f"dimension_stage{i}.csv",
                    _csv_text(["epsilon", "count", "slope"], rows),
                    "csv", args.format)
    _write_text(out / "dimension.json",
                _json_text({"window": schedule.window, "seed": seed,
                            "stages": stage_docs}), "json", args.format)
    return EXIT_OK


def cmd_gordon(cfg: dict, args) -> int:
    kind = _kind(cfg)
    out = _out_dir(args)
    gcfg = _section(cfg, "gordon")
    q = gcfg.get("q")
    if q is None:
        raise ConfigError("gordon config needs 'q'")
    C = _number(gcfg.get("c", 2.0), "c")
    # q is checked as a number but written as given (1 stays 1)
    value = analysis.gordon_defect(_data_from(cfg, kind), _number(q, "q"), C)
    doc = {"kind": kind, "q": q, "c": C, "defect": value}
    _write_text(out / "gordon.json", _json_text(doc), "json", args.format)
    _write_text(out / "gordon.csv",
                _csv_text(["q", "c", "defect"], [[q, C, value]]),
                "csv", args.format)
    return EXIT_OK


COMMANDS = {
    "bands": cmd_bands,
    "dos": cmd_dos,
    "lyapunov": cmd_lyapunov,
    "open-gap": cmd_open_gap,
    "thin": cmd_thin,
    "cmv-bands": cmd_cmv_bands,
    "cmv-thin": cmd_cmv_thin,
    "dimension": cmd_dimension,
    "gordon": cmd_gordon,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquetlab",
        description="Spectra of periodic Dirac and CMV operators, "
                    "gap opening, and thin-spectrum constructions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="seed; overrides the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       default="both")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAssertionError as exc:
        print(f"numerical assertion failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SearchFailure as exc:
        print(f"search failure: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except FloquetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
