"""Workload inputs and units of work.

Every workload is a stream of units; the workload seed draws the
construction seeds of the units in order, and nothing else reaches the
library.  README.md explains the choices and sizes.

A thin unit is what ``floquetlab thin`` does, through the same library
calls: search a gapped cover, assemble and scan the thin-spectrum
operator for the first two of the CLI's default N values, fit the decay
rate, serialise the reports as the CLI does, and quantify each spectrum
by box counting.  One difference: the cover is padded to a fixed member
count by repeating its own members (still a gapped cover within eps).
The cover size is random and the scan cost grows with its square, so
without padding the work of a run would vary with the seed by more
than any useful regression bound.

A search unit is one round of cover searches: one Dirac cover of
[-2, 2] and one cover per CMV cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

THIN_CONFIG = {
    "potential": [[1.0, 0.0, 0.0]],
    "window": 0.5,
    "tol": 1e-8,
    "construction": {"epsilon": 0.3},
    "cover_members": 16,
}
# search: one Dirac cover of [-R, R] and one cover per CMV cycle per round
SEARCH_WINDOW = 2.0
SEARCH_EPS = 0.3
SEARCH_CYCLES = ((0j,), (0.5 + 0j,))
# box-counting scales of the quantification step (the CLI's defaults)
BOX_SCALES = [2.0 ** -k for k in range(3, 11)]

WORKLOADS = ("thin-dirac", "search")


@dataclass
class Unit:
    """Inputs of one unit of work."""

    index: int
    seeds: tuple[int, ...]


@dataclass
class UnitResult:
    """What one unit returned, kept for the output oracle."""

    ops: int = 1                                    # operations attempted
    errors: dict = field(default_factory=dict)      # op index -> message
    reports: list = field(default_factory=list)     # thin: report documents
    covers: list = field(default_factory=list)      # search: (op, kind, base, members)
    cover_size: int = 0                             # thin: members found


def ops_per_unit(workload: str) -> int:
    return 1 + len(SEARCH_CYCLES) if workload == "search" else 1


def units(workload: str, seed: int):
    """Endless stream of unit inputs drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        yield Unit(index, tuple(int(rng.integers(2 ** 31))
                                for _ in range(ops_per_unit(workload))))
        index += 1


def run_unit(fl, workload: str, unit: Unit, out_dir: Path) -> UnitResult:
    """Run one unit through the public floquetlab entry points."""
    if workload == "search":
        return _search_round(fl, unit)
    return _thin(fl, THIN_CONFIG, unit.seeds[0], out_dir)


def padded(members: list, size: int) -> list:
    """The cover with its members repeated in order up to size members."""
    return [members[i % len(members)] for i in range(max(size, len(members)))]


def _thin(fl, cfg: dict, seed: int, out_dir: Path) -> UnitResult:
    construct = fl.construct
    eps = cfg["construction"]["epsilon"]
    tol = cfg["tol"]
    phi = fl.dirac.PiecewisePotential(segments=tuple(
        (l, complex(re, im)) for l, re, im in cfg["potential"]))
    R = cfg["window"]
    members = construct.resolvent_cover(phi, R, eps, seed)
    ratio = int(round(members[0].period / phi.period))
    cover = padded(members, cfg["cover_members"])
    m = len(cover)
    n0 = construct.feasibility_threshold(m, ratio)
    try:
        reports = [construct.thin_spectrum(phi, R, eps, N, seed, tol=tol,
                                           cover=cover)[1]
                   for N in (n0, n0 + m * ratio)]
    except fl.errors.FloquetLabError as exc:
        return UnitResult(errors={0: f"{type(exc).__name__}: {exc}"},
                          cover_size=len(members))
    fitted = construct.fit_decay_rate([r.final_period for r in reports],
                                      [r.measure for r in reports])
    result = UnitResult(cover_size=len(members))
    for report in reports:
        doc = report.to_json_dict()
        doc["fitted_rate"] = fitted
        (out_dir / f"thin_N{report.n_value}.json").write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        fl.analysis.box_counting(report.spectrum, BOX_SCALES)
        result.reports.append(doc)
    return result


def _search_round(fl, unit) -> UnitResult:
    result = UnitResult(ops=ops_per_unit("search"))
    phi = fl.dirac.PiecewisePotential.free()
    calls = [("dirac", phi, lambda s: fl.construct.resolvent_cover(
        phi, SEARCH_WINDOW, SEARCH_EPS, s))]
    for values in SEARCH_CYCLES:
        alpha = fl.cmv.VerblunskyCycle(values=values)
        calls.append(("cmv", alpha, lambda s, a=alpha: fl.construct.cmv_resolvent_cover(
            a, SEARCH_EPS, s)))
    for op, ((kind, base, call), s) in enumerate(zip(calls, unit.seeds)):
        try:
            members = call(s)
        except fl.errors.SearchFailure as exc:
            result.errors[op] = f"{kind} cover failed: {exc}"
            continue
        result.covers.append((op, kind, base, members))
    return result
