"""Quantitative geometry of computed spectra and nested thinning schedules.

Lebesgue measure, Hausdorff distance and box-counting dimension act on
the band sets (su11.BandSet) of the dirac and cmv modules; the
Gordon defect quantifies how far data is from exact repetition at a
given scale; build_schedule chains thin-spectrum stages whose step
sizes obey the Gordon-compatible recursion
0 < eps_n < min(eps_{n-1}/2, (n+1)^(-T_n)/2, measure_n/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cmv, construct, dirac, su11
from .errors import EmptySet, StageInfeasible

# Below this step size, double precision cannot express a meaningful
# perturbation of order-one data, so a further stage cannot be built.
STEP_FLOOR = 1e-7


def lebesgue_measure(S: su11.BandSet) -> float:
    """Total length of a band set (or angular length of an arc set)."""
    return S.measure


def hausdorff_distance(S1: su11.BandSet, S2: su11.BandSet) -> float:
    """Hausdorff distance between two nonempty closed interval unions.

    Computed exactly from endpoints: the directed distance from A to B
    is maximized either at an endpoint of A or at a gap midpoint of B
    clipped into A.
    """
    A, B = S1.intervals, S2.intervals
    if not A or not B:
        raise EmptySet("Hausdorff distance needs nonempty sets")

    def point_dist(x: float, ivs) -> float:
        return min(max(a - x, x - b, 0.0) for a, b in ivs)

    def directed(src, dst) -> float:
        worst = 0.0
        for a, b in src:
            worst = max(worst, point_dist(a, dst), point_dist(b, dst))
        # interior candidates: midpoints of dst's complementary gaps
        for (_, b1), (a2, _) in zip(dst[:-1], dst[1:]):
            mid = 0.5 * (b1 + a2)
            for a, b in src:
                if a <= mid <= b:
                    worst = max(worst, point_dist(mid, dst))
                    break
        return worst

    return max(directed(A, B), directed(B, A))


def covering_count(S: su11.BandSet, eps: float) -> int:
    """Minimal number of closed length-eps intervals covering the set.

    The greedy sweep placing each interval at the leftmost uncovered
    point is optimal for finite unions of closed intervals.  The boxes
    ending inside an interval are counted at once from its length.
    """
    ivs = S.intervals
    if not ivs:
        return 0
    if not eps > 0:
        raise ValueError("eps must be positive")
    count = 0
    i = 0
    pos = ivs[0][0]
    while i < len(ivs):
        a, b = ivs[i]
        start = max(a, pos)
        if start > b:
            i += 1
            continue
        boxes = max(math.ceil((b - start) / eps - 1e-12), 1)
        count += boxes
        end = start + boxes * eps
        pos = end
        while i < len(ivs) and ivs[i][1] <= end + 1e-12 * eps:
            i += 1
    return count


@dataclass(frozen=True)
class DimensionReport:
    """Per-scale covering counts and box-dimension estimates."""

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slopes: tuple[float, ...]
    dim_lower: float
    dim_upper: float
    measure: float

    def to_json_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "counts": list(self.counts),
            "slopes": list(self.slopes),
            "dim_lower": self.dim_lower,
            "dim_upper": self.dim_upper,
            "measure": self.measure,
        }


def box_counting(S, scales: Sequence[float]) -> DimensionReport:
    """Covering counts N(S, eps) over decreasing scales and the slopes
    log N / log(1/eps) between consecutive scales.

    The summary lower/upper estimates are the extreme slopes clipped to
    [0, 1]; they bound the box-counting dimensions at the given scales.
    """
    scales = [float(e) for e in scales]
    if not scales or any(e <= 0 for e in scales):
        raise ValueError("scales must be positive")
    if any(b <= a for a, b in zip(scales[1:], scales[:-1])):
        raise ValueError("scales must be strictly decreasing")
    counts = [covering_count(S, e) for e in scales]
    slopes = []
    for (e1, n1), (e2, n2) in zip(zip(scales, counts), zip(scales[1:], counts[1:])):
        if n1 == 0 or n2 == 0:
            slopes.append(0.0)
            continue
        slopes.append(math.log(n2 / n1) / math.log(e1 / e2))
    if slopes:
        lo = min(max(s, 0.0) for s in slopes)
        hi = max(min(s, 1.0) for s in slopes)
    else:
        lo = hi = 0.0
    return DimensionReport(
        scales=tuple(scales), counts=tuple(counts), slopes=tuple(slopes),
        dim_lower=min(lo, 1.0), dim_upper=max(hi, 0.0),
        measure=lebesgue_measure(S))


# ---------------------------------------------------------------------------
# Gordon defect
# ---------------------------------------------------------------------------

def gordon_defect(data, q, C: float) -> float:
    """C^q times the worst mismatch between data and its two q-translates.

    Exact for piecewise-constant potentials (dirac.gordon_sup) and for
    Verblunsky cycles (sup over indices, which repeat with the cycle);
    zero for exactly q-periodic data, for every C.
    """
    if isinstance(data, cmv.VerblunskyCycle):
        qi = int(q)
        vals = data.values
        n = len(vals)
        sup = 0.0
        for k in range(min(qi, n)):
            sup = max(sup,
                      abs(vals[(k - qi) % n] - vals[k % n]),
                      abs(vals[(k + qi) % n] - vals[k % n]))
        return _scaled_defect(C, qi, sup)
    q = float(q)
    return _scaled_defect(C, q, dirac.gordon_sup(data, q))


def _scaled_defect(C: float, q: float, sup: float) -> float:
    if sup == 0.0:
        return 0.0
    log_val = q * math.log(C) + math.log(sup)
    if log_val > 700.0:
        return math.inf
    return math.exp(log_val)


# ---------------------------------------------------------------------------
# Nested thinning schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One schedule stage: the data, its period, the measured window
    spectrum, the target measure, and the step bound toward the next
    stage (None for the final stage)."""

    data: dirac.PiecewisePotential
    period: float
    measure: float
    spectrum: dirac.BandSet
    target: Optional[float]
    epsilon: Optional[float]


@dataclass(frozen=True)
class Schedule:
    """A chain of thin-spectrum stages with verifiable step bounds."""

    window: float
    seed: int
    stages: tuple[Stage, ...]

    @property
    def final(self) -> Stage:
        return self.stages[-1]


def step_bound(previous_eps: float, n: int, period: float, measure: float) -> float:
    """Upper bound for the stage-n step size:
    min(eps_{n-1}/2, (n+1)^(-T_n)/2, measure_n/4).

    The middle term makes the limit data Gordon-type; it decays so fast
    in the period that multi-stage schedules are only feasible when the
    early stages keep their periods small.
    """
    log_mid = -period * math.log(n + 1.0) - math.log(2.0)
    mid = math.exp(log_mid) if log_mid > -700.0 else 0.0
    return min(previous_eps / 2.0, mid, measure / 4.0)


STAGE_LADDER: tuple[tuple[int, int, float], ...] = (
    (8, 1, 0.05), (8, 1, 0.01), (4, 1, 0.01), (4, 2, 0.01), (2, 4, 0.008),
    (1, 8, 0.006), (1, 8, 0.004), (2, 3, 0.004), (1, 6, 0.004))
# Gap search of a stage attempt; each ladder rung sets length and margin.
STAGE_BUDGET = construct.GapSearchBudget(
    max_samples=400, resonant_proposals=True, trace_cap=4.0)


def _stage_targets(spectrum: dirac.BandSet, period: float) -> list[float]:
    """Deterministic gap targets: midpoints of the largest surviving
    bands, plus the nearby crossing-lattice points of the lifted
    representations, where the resonant proposals have reach."""
    bands_by_size = sorted(spectrum.intervals, key=lambda iv: iv[1] - iv[0],
                           reverse=True)
    lifts = sorted({lift * wl for lift, wl, _ in STAGE_LADDER}, reverse=True)
    targets: list[float] = []
    for a, b in bands_by_size[:6]:
        mid = 0.5 * (a + b)
        cands = [mid]
        for blocks in lifts:
            T_eff = blocks * period
            k = round(mid * T_eff / math.pi)
            snapped = k * math.pi / T_eff
            margin = 0.05 * (b - a)
            if a + margin < snapped < b - margin:
                cands.append(snapped)
        for c in cands[:4]:
            if all(abs(c - t) > 1e-12 for t in targets):
                targets.append(c)
    return targets


def build_schedule(phi0: dirac.PiecewisePotential, eps: float, n_max: int,
                   seed: int, window: float = 0.5,
                   tol: float = 1e-8) -> Schedule:
    """Chain n_max gap-opening stages starting from phi0.

    Stage n perturbs the previous data by less than the step bound
    eps_{n-1} and opens at least one new spectral gap inside the fixed
    window, so the window measure strictly decreases; afterwards eps_n
    is fixed to half its bound min(eps_{n-1}/2, (n+1)^(-T_n)/2,
    measure_n/4), which holds strictly by construction.  Stage periods
    are kept in the single digits of multiples of the previous period
    (at most 8 blocks per stage): the (n+1)^(-T_n) term decays so fast
    that deeper or longer-period stages would demand steps below
    floating-point resolution; each stage records the aspirational
    measure target exp(-sqrt(T_n)) next to the achieved value.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rng = np.random.default_rng(seed)
    oversample0 = 8.0
    spectrum0 = dirac.bands(phi0, window, tol, oversample=oversample0)
    eps_allow = eps / 2.0
    stages = [Stage(data=phi0, period=phi0.period, measure=spectrum0.measure,
                    spectrum=spectrum0, target=None,
                    epsilon=eps_allow if n_max > 0 else None)]
    data = phi0
    spectrum = spectrum0

    for n in range(1, n_max + 1):
        if eps_allow < STEP_FLOOR:
            raise StageInfeasible(
                f"stage {n} step bound {eps_allow:.3e} is below the "
                f"floating-point floor {STEP_FLOOR}",
                diagnostics={"stage": n, "bound": eps_allow})
        oversample = max(8.0, 64.0 / data.period)
        lifted = {lift: data.repeated(lift) for lift, _, _ in STAGE_LADDER}
        for lam_target in _stage_targets(spectrum, data.period):
            try:
                # climb raises after its last rung, so this loop ends
                # only at a measure-decreasing gap
                for phit in construct.climb(
                        lifted, lam_target, eps_allow, rng, STAGE_LADDER,
                        STAGE_BUDGET,
                        lambda lift, length: frozenset(range(1, length + 1))):
                    new_spectrum = dirac.bands(phit, window, tol,
                                               oversample=oversample)
                    if new_spectrum.measure < spectrum.measure - 8.0 * tol:
                        break
            except construct.BudgetExhausted:
                continue
            break
        else:
            raise StageInfeasible(
                f"stage {n}: no target admitted a measure-decreasing gap "
                f"within the step bound {eps_allow:.3e}",
                diagnostics={"stage": n, "bound": eps_allow})
        period = phit.period
        target = math.exp(-math.sqrt(period)) if period < 1e6 else 0.0
        if new_spectrum.measure <= 0.0:
            raise StageInfeasible(
                f"stage {n} emptied the window; the step recursion needs "
                f"positive measure", diagnostics={"stage": n})
        bound = step_bound(eps_allow, n, period, new_spectrum.measure)
        eps_next: Optional[float] = bound / 2.0 if n < n_max else None
        stages.append(Stage(data=phit, period=period,
                            measure=new_spectrum.measure,
                            spectrum=new_spectrum, target=target,
                            epsilon=eps_next))
        data = phit
        spectrum = new_spectrum
        if eps_next is not None:
            eps_allow = eps_next

    return Schedule(window=window, seed=seed, stages=tuple(stages))
