"""Output oracle: re-checks what a unit returned through the scalar path.

For a thin report it rebuilds the assembled operator from the report's
cover, N and N_hat with the layout that ``thin_spectrum`` documents
(N_hat + 1 copies of each member, then copies of the seed data for the
remainder) and evaluates the monodromy at every reported band midpoint
with ``dirac.monodromy`` and ``su11.real_trace``; the midpoint must lie
in the spectrum, |trace| <= 2.
For every cover it checks each member's distance from the seed data
against epsilon and spot-checks cover positivity at a few seeded points
(some member must have |trace| > 2 there).  Measures are not compared
with stored values: the band enumeration may change them on purpose.

One mismatch is a known defect of the band scan, not a failure: a
reported band whose midpoint falls in a gap narrower than one spacing
of the scan grid, with both ends of the band in the spectrum.  The scan
bisects each grid cell that changes sign as if it held one crossing; a
cell that holds a sub-grid band and a gap can yield the far crossing,
so the band spans the gap.  Such bands are returned separately as
``known`` messages and counted, never silently dropped.  A midpoint in
any wider gap, or a band whose ends are not in the spectrum, fails.

Each function returns a list of mismatch messages; empty means correct.
"""

from __future__ import annotations

import math

import numpy as np

import tracer

# Positivity spot checks per cover.
SPOT_CHECKS = 3
# Bisection steps that locate the gap around a failing midpoint.
GAP_BISECTIONS = 40
# Imaginary part of the trace allowed per unit of the largest entry met
# in the product: rounding (about 1e-16 per operation) grows with the
# partial products, which can be far larger than an O(1) trace.
ROUNDING = 1e-12


def _scalar_trace(fl, kind: str, groups, x: float) -> float:
    """Trace of the monodromy of a (block, repetitions) concatenation,
    one scalar block monodromy at a time."""
    monodromy = fl.dirac.monodromy if kind == "dirac" else fl.cmv.cmv_monodromy
    M = np.eye(2, dtype=complex)
    largest = 1.0
    for block, reps in groups:
        P = np.linalg.matrix_power(monodromy(block, x), reps)
        M = P @ M
        largest = max(largest, np.abs(P).max(), np.abs(M).max())
    return fl.su11.real_trace(M, tol=max(fl.su11.GROUP_TOL, ROUNDING * largest))


def _dirac_block(fl, rows):
    return fl.dirac.PiecewisePotential(
        segments=tuple((float(l), complex(re, im)) for l, re, im in rows))


def check_cover(fl, kind, base, members, eps, rng, window=None) -> list[str]:
    """Distances against eps and positivity at seeded points: energies in
    [-window, window] (Dirac) or angles on the whole circle (CMV)."""
    bad = []
    for j, mem in enumerate(members):
        if kind == "dirac":
            reps = int(round(mem.period / base.period))
            dist = fl.dirac.sup_distance(base.repeated(reps), mem)
        else:
            dist = fl.cmv.poincare_delta(base.repeated(mem.q // base.q), mem)
        if not dist < eps:
            bad.append(f"{kind} member {j} at distance {dist} >= eps {eps}")
    if kind == "dirac":
        points = rng.uniform(-window, window, SPOT_CHECKS)
    else:
        points = rng.uniform(0.0, 2.0 * math.pi, SPOT_CHECKS)
    for x in points:
        traces = [_scalar_trace(fl, kind, [(mem, 1)], float(x)) for mem in members]
        if not max(abs(t) for t in traces) > 2.0:
            bad.append(f"{kind} cover has no gapped member at {x!r}")
    return bad


def _crossing(trace_at, inside: float, outside: float) -> float:
    """A point where |trace| = 2 between an inside and an outside point."""
    for _ in range(GAP_BISECTIONS):
        mid = 0.5 * (inside + outside)
        if abs(trace_at(mid)) <= 2.0:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def scan_spacing(groups, window: float) -> float:
    """Spacing of the grid the library scans for this operator."""
    period = sum(block.period * reps for block, reps in groups)
    sup = max(block.sup_norm for block, _ in groups)
    return 2.0 * window / (tracer._dirac_grid(period, sup, window, 1.0) - 1)


def subgrid_gap(trace_at, a: float, b: float, tol: float,
                spacing: float) -> tuple[float, float] | None:
    """The gap around the midpoint of [a, b] if it is the scan's known
    defect: both ends of the band in the spectrum and the gap narrower
    than the scan spacing.  None otherwise."""
    left, right = a + tol, b - tol
    if abs(trace_at(left)) > 2.0 or abs(trace_at(right)) > 2.0:
        return None
    mid = 0.5 * (a + b)
    lo, hi = _crossing(trace_at, left, mid), _crossing(trace_at, right, mid)
    return (lo, hi) if hi - lo < spacing else None


def check_thin_report(fl, cfg: dict, doc: dict,
                      known: list[str] | None = None) -> list[str]:
    tol = float(cfg.get("tol", 1e-8))
    base = _dirac_block(fl, cfg["potential"])
    members = [_dirac_block(fl, rows) for rows in doc["cover"]]
    ratio = int(round(members[0].period / base.period))
    N, n_hat, m = doc["N"], doc["N_hat"], len(members)
    remainder = N - m * (n_hat + 1) * ratio
    bad = []
    if remainder < 0 or n_hat != N // (m * ratio) - 1:
        bad.append(f"N={N}: N_hat={n_hat} does not fit m={m}, ratio={ratio}")
        return bad
    groups = [(mem, n_hat + 1) for mem in members]
    if remainder:
        groups.append((base, remainder))
    spacing = scan_spacing(groups, cfg["window"])

    def trace_at(x):
        return _scalar_trace(fl, "dirac", groups, x)

    for a, b in doc["spectrum"]:
        if b - a <= 2.0 * tol:
            continue        # edges are known to tol only
        mid = 0.5 * (a + b)
        try:
            D = trace_at(mid)
            if abs(D) <= 2.0:
                continue
            gap = subgrid_gap(trace_at, a, b, tol, spacing)
        except fl.errors.NotInGroup as exc:
            bad.append(f"N={N}: midpoint {mid!r}: {exc}")
            continue
        msg = (f"N={N}: midpoint {mid!r} of [{a!r}, {b!r}] has "
               f"|trace| {abs(D)!r} > 2")
        if gap is None or known is None:
            bad.append(msg)
        else:
            known.append(f"{msg}; it lies in the gap [{gap[0]!r}, {gap[1]!r}], "
                         f"narrower than the scan spacing {spacing!r}")
    if not doc["distance"] < doc["epsilon"]:
        bad.append(f"N={N}: assembled distance {doc['distance']} >= eps")
    return bad


def check_thin(fl, cfg: dict, reports: list, rng,
               known: list[str] | None = None) -> list[str]:
    """All reports of one thin run; the cover is shared, so it is
    checked once.  Bands that show the scan's known defect go to known,
    if given, and are failures otherwise."""
    if not reports:
        return ["thin run produced no report"]
    first = reports[0]
    base = _dirac_block(fl, cfg["potential"])
    members = [_dirac_block(fl, rows) for rows in first["cover"]]
    bad = check_cover(fl, "dirac", base, members, first["epsilon"], rng,
                      cfg["window"])
    for doc in reports:
        bad += check_thin_report(fl, cfg, doc, known)
    return bad
