"""Gap opening by noncommutation and thin-spectrum constructions.

To push a target energy out of the spectrum of a periodic operator, the
monodromy there is combined with the monodromy of a nearby seeded random
perturbation: once both are elliptic and fail to commute, the semigroup
they generate contains a hyperbolic element, and concatenating the two
blocks along the corresponding word yields a higher-period operator
whose discriminant at the target lies outside [-2, 2].  Covering a
window by finitely many such gapped operators and repeating each one
many times inside a long period produces spectra of exponentially small
measure in the window.

The argument is the same for Dirac potentials and Verblunsky cycles, so
it is written once over a ``Family`` record that holds only what differs
between the two (``DIRAC`` and ``CMV``); the family is picked from the
type of the data.

Everything is deterministic given (seed, budget): samples are drawn in a
fixed order and the word search accepts the first word in a fixed
canonical order.  The search policy is a set of module constants: the
pragmatic caps of an argument without effective bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import cmv, dirac, su11
from .errors import (BudgetExhausted, CommutingInput, NotElliptic,
                     NotInGroup, NTooSmall, NumericalAssertionError,
                     WordNotFound)

TWO_PI = 2.0 * math.pi

Data = Union[dirac.PiecewisePotential, cmv.VerblunskyCycle]


# Nested pre-perturbations allowed at parabolic targets (case 3).
CASE3_RETRIES = 8
# Both blocks need |trace| <= 2 - ELLIPTIC_MARGIN before the word search.
ELLIPTIC_MARGIN = 0.01
# Samples whose monodromy commutes with the base's within this are rejected.
COMMUTATOR_MIN = 1e-3
# Largest block of gap-search samples screened by one batch product.
SCREEN_BLOCK = 16


@dataclass(frozen=True)
class GapSearchBudget(su11.SearchBudget):
    """Limits for the randomized gap-opening search.

    max_samples bounds the number of perturbation candidates per call;
    the inherited fields bound the word search (length <= 24 by default:
    the underlying existence lemma gives no length bound, so this is a
    pragmatic cap).  With resonant_proposals, every other candidate
    follows the Fourier mode matched to the target energy instead of
    independent offsets: on long blocks, independent offsets spread
    their weight over many modes and cannot move band edges far, while
    a resonant mode opens a wide gap directly.
    """

    max_samples: int = 1000
    resonant_proposals: bool = False


@dataclass(frozen=True)
class GapCertificate:
    """Provenance of one gap opening, re-verifiable from its fields.

    case is the resolved proof case (1: already gapped, 2: noncommutation
    word); preperturbations records any case-3 nudges taken first.  The
    word evaluates on the monodromies of (base, partner) at the target to
    the hyperbolic matrix whose trace is achieved_trace.
    """

    kind: str                    # "dirac" | "cmv"
    target: float                # energy lambda or angle theta
    case: int
    word: Optional[su11.SemigroupWord]
    base: Data
    partner: Optional[Data]
    result_period: float
    achieved_trace: float
    distance: float              # sup-norm (dirac) or Poincare (cmv) move
    preperturbations: tuple[float, ...] = ()

    def word_label(self) -> str:
        return self.word.label() if self.word is not None else ""


# ---------------------------------------------------------------------------
# Operator families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """What differs between the Dirac and the CMV construction.

    Entries that call a traced library function look it up at call time
    (``lambda phi, lam: dirac.monodromy(phi, lam)``), so a rebinding of
    the module attribute is seen.  R is the half-width of the energy
    window; the CMV entries ignore it and take the whole circle.
    """

    kind: str                                # "dirac" | "cmv"
    target_name: str                         # labels used in messages
    point_name: str
    period_symbol: str
    discriminant_name: str
    config_key: str                          # config rows of the data
    row_hint: str
    parse_row: Callable[[Sequence], Any]     # config row -> entry
    make: Callable[[tuple], Data]            # entries -> data
    size: Callable[[Data], int]              # number of entries
    period: Callable[[Data], float]
    prepare: Callable[[Data], Data]
    disk_radius: Callable[[float], float]    # Euclidean radius of a move
    moved: Callable                          # (data, k, offsets) -> data
    resonant: Callable                       # (data, target) -> draw
    monodromy: Callable
    monodromies: Callable                    # (data list, target) -> batch
    discriminant: Callable
    lyapunov: Callable                       # profile over a grid
    concat: Callable
    distance: Callable                       # between equal-length data
    grid: Callable                           # (R, n) -> cover grid
    closed: Callable                         # cover grid -> with its last end
    bands: Callable                          # (data, R, tol, oversample)
    bands_of_groups: Callable                # (groups, R, tol)


# Resonant proposal shapes by mode count: (main divisor, low, span, side
# modes, side divisor).  The single full-strength mode opens a gap about
# its amplitude to either side of its lattice crossing.
RESONANT_MODES = {1: (1.0, 0.7, 0.3, 0, 1.0), 2: (2.0, 0.7, 0.3, 1, 2.0),
                  4: (2.0, 0.5, 0.5, 3, 6.0)}


def _resonant_potentials(phi: dirac.PiecewisePotential, lam: float):
    """Fourier-mode proposals: draw(rng, radius) returns one.

    Off-diagonal data at frequency 2 lam couples the two free components
    at energy lam, so a mode near the index closest to |lam| T / pi opens
    a gap there directly; weaker side modes at random indices broaden the
    Lyapunov landscape of the candidate so a single cover member helps at
    many energies.

    Segments are subdivided so the piecewise-constant data resolves the
    resonant frequency (the Nyquist limit of segments of length h is
    pi/h, while the mode needs 2 |lam|).  The subdivision depends only on
    phi and lam, so it is built once for all draws."""
    T = phi.period
    # coupling between the free components picks frequency -2 lam
    direction = -1.0 if lam >= 0 else 1.0
    nu_star = round(abs(lam) * T / math.pi)
    nu_max = max(3, nu_star + 2, round(1.4 * abs(lam) * T / math.pi))
    # the T/8 cap keeps the preserved first piece short, so the mode
    # retains nearly full strength even on two-block lifts
    h_target = min(math.pi / (2.0 * abs(lam) + 2.0), T / 8.0)
    # each segment is cut into equal pieces
    pieces = np.maximum(np.ceil(phi.lengths / h_target), 1.0).astype(int)
    h = np.repeat(phi.lengths / pieces, pieces)
    split = dirac.PiecewisePotential._of(h, np.repeat(phi.values, pieces))
    # piece i of a segment starting at x has its midpoint at
    # x + (i + 0.5) h; every piece but the first moves by the sum of the
    # modes at its midpoint
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)
    starts = np.repeat(dirac._boundaries(phi.lengths)[:-1], pieces)
    mid = (starts + (np.arange(h.size) - first + 0.5) * h)[1:]

    def draw(rng: np.random.Generator,
             radius: float) -> dirac.PiecewisePotential:
        main_div, low, span, sides, side_div = RESONANT_MODES[
            int(rng.choice(tuple(RESONANT_MODES)))]
        modes = [(nu_star + int(rng.integers(-1, 2)),
                  (radius / main_div) * (low + span * rng.uniform()),
                  rng.uniform(0.0, TWO_PI))]
        for _ in range(sides):
            modes.append((int(rng.integers(1, nu_max + 1)),
                          (radius / side_div) * rng.uniform(),
                          rng.uniform(0.0, TWO_PI)))
        # summed in mode order, which fixes the rounding
        offset = 0
        for nu, a, ph in modes:
            offset = offset + a * np.exp(
                1j * (ph + direction * TWO_PI * nu * mid / T))
        return split.with_offsets(1, offset)

    return draw


def _resonant_cycles(alpha: cmv.VerblunskyCycle, theta: float):
    """Fourier-mode proposals matched to the target angle: draw(rng,
    radius) returns one.  Coefficient modes near index q theta / (2 pi)
    open a gap at exp(i theta)."""
    q = alpha.q

    def draw(rng: np.random.Generator,
             radius: float) -> cmv.VerblunskyCycle:
        nu = round(theta * q / TWO_PI) + int(rng.integers(-1, 2))
        phase = rng.uniform(0.0, TWO_PI)
        amp = math.tanh(radius) * (0.5 + 0.5 * rng.uniform())
        vals = list(alpha.values)
        for k in range(1, q):
            w = amp * np.exp(1j * (phase - TWO_PI * nu * k / q))
            vals[k] = cmv.poincare_push(vals[k], w)
        return cmv.VerblunskyCycle(values=tuple(vals))

    return draw


def _moved_cycle(alpha: cmv.VerblunskyCycle, k: int,
                 offsets) -> cmv.VerblunskyCycle:
    vals = list(alpha.values)
    for i, w in enumerate(offsets, start=k):
        vals[i] = cmv.poincare_push(vals[i], w)
    return cmv.VerblunskyCycle(values=tuple(vals))


DIRAC = Family(
    kind="dirac", target_name="lambda", point_name="energy",
    period_symbol="T", discriminant_name="discriminant",
    config_key="potential", row_hint="[[length, re, im], ...]",
    parse_row=lambda r: (float(r[0]), complex(float(r[1]), float(r[2]))),
    make=lambda segs: dirac.PiecewisePotential(segments=segs),
    size=lambda phi: phi.values.size,
    period=lambda phi: phi.period,
    # Perturbations preserve segment 0, so single-segment data is split
    # into two equal halves first (same operator, richer representation).
    prepare=lambda phi: phi.with_split(0) if phi.values.size == 1 else phi,
    disk_radius=lambda r: r,
    moved=lambda phi, k, offsets: phi.with_offsets(k, offsets),
    resonant=_resonant_potentials,
    monodromy=lambda phi, lam: dirac.monodromy(phi, lam),
    monodromies=lambda phis, lam: dirac.monodromies(phis, lam),
    discriminant=lambda phi, lam: dirac.discriminant(phi, lam),
    lyapunov=lambda phi, lams: dirac.lyapunov_profile(phi, lams),
    concat=dirac.concatenate,
    distance=dirac.sup_distance,
    grid=lambda R, n: np.linspace(-R, R, n),
    closed=lambda points: points,
    bands=lambda phi, R, tol, over: dirac.bands(phi, R, tol, oversample=over),
    bands_of_groups=lambda g, R, tol: dirac.bands_of_groups(g, R, tol),
)

CMV = Family(
    kind="cmv", target_name="theta", point_name="angle", period_symbol="q",
    discriminant_name="CMV discriminant",
    config_key="verblunsky", row_hint="[[re, im], ...]",
    parse_row=lambda r: complex(float(r[0]), float(r[1])),
    make=lambda vals: cmv.VerblunskyCycle(values=vals),
    size=lambda alpha: alpha.q,
    period=lambda alpha: alpha.q,
    # Entry 0 is preserved under perturbation, so a 1-cycle is doubled
    # first (same operator, richer representation).
    prepare=lambda alpha: alpha.repeated(2) if alpha.q == 1 else alpha,
    # geodesic offsets: Euclidean radius tanh(r) maps to hyperbolic radius r
    disk_radius=math.tanh,
    moved=_moved_cycle,
    resonant=_resonant_cycles,
    monodromy=lambda alpha, theta: cmv.cmv_monodromy(alpha, theta),
    monodromies=lambda alphas, theta: cmv.cmv_monodromies(alphas, theta),
    discriminant=lambda alpha, theta: cmv.cmv_discriminant(alpha, theta),
    lyapunov=lambda alpha, thetas: cmv.cmv_lyapunov_profile(alpha, thetas),
    concat=cmv.concatenate_cycles,
    distance=cmv.poincare_delta,
    grid=lambda R, n: np.linspace(0.0, TWO_PI, n, endpoint=False),
    # 2 pi closes the circle: the first point again, as an angle
    closed=lambda points: np.append(points, TWO_PI),
    bands=lambda alpha, R, tol, over: cmv.cmv_bands(alpha, tol),
    bands_of_groups=lambda g, R, tol: cmv.cmv_bands_of_groups(g, tol),
)

FAMILIES = {fam.kind: fam for fam in (DIRAC, CMV)}


def _family(data: Data) -> Family:
    return DIRAC if isinstance(data, dirac.PiecewisePotential) else CMV


# ---------------------------------------------------------------------------
# Gap opening
# ---------------------------------------------------------------------------

def _disk_offsets(rng: np.random.Generator, radius: float,
                  n: int) -> np.ndarray:
    """n uniform offsets in the disk of the radius; each draws u, then v."""
    u, v = rng.uniform(size=(n, 2)).T
    return radius * np.sqrt(u) * np.exp(2j * math.pi * v)


def _distance(data: Data, moved: Data) -> float:
    """Distance of moved from data repeated to its period: sup norm for
    Dirac data, Poincare metric for Verblunsky cycles."""
    fam = _family(data)
    reps = int(round(fam.period(moved) / fam.period(data)))
    return fam.distance(data.repeated(reps) if reps > 1 else data, moved)


def open_gap(data: Data, target: float, eps: float, seed: int,
             budget: Optional[GapSearchBudget] = None,
             ) -> tuple[Data, GapCertificate]:
    """Perturb data by less than eps so the target leaves the spectrum.

    Dirac data moves in sup norm and the target is an energy; a
    Verblunsky cycle moves in the Poincare metric and the target is an
    angle.  Case 1 (|D| > 2): the data is returned unchanged.  Case 3
    (|D| within the elliptic margin of 2): one entry is nudged by a
    seeded random offset below eps/2 and the search retries with the
    remaining budget.  Case 2 (elliptic): seeded random perturbations are
    sampled until both monodromies are elliptic with a noncommuting pair,
    a hyperbolic word is found, and the corresponding block
    concatenation verifies |D(target)| > 2.  Raises BudgetExhausted when
    sampling runs out; retry with another seed.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    budget = budget or GapSearchBudget()
    rng = np.random.default_rng(seed)
    fam, orig, pre = _family(data), data, ()
    while True:
        D0 = fam.discriminant(data, target)
        if abs(D0) > 2.0 + su11.PARABOLIC_TOL:
            return data, GapCertificate(
                kind=fam.kind, target=target, case=1, word=None, base=data,
                partner=None, result_period=fam.period(data),
                achieved_trace=D0, distance=_distance(orig, data),
                preperturbations=pre)
        # Doubling a 1-cycle changes the discriminant (Chebyshev relation),
        # so the case split looks at the prepared representation.
        base = fam.prepare(data)
        D = D0 if base is data else fam.discriminant(base, target)
        if abs(D) < 2.0 - ELLIPTIC_MARGIN:
            break
        # Case 3: parabolic or too close to it for a stable word search.
        if len(pre) >= CASE3_RETRIES:
            raise BudgetExhausted(
                f"case-3 retries exhausted at {fam.target_name}={target}, "
                f"|D|={abs(D):.6f}")
        k = 1 + int(rng.integers(fam.size(base) - 1))
        w = complex(_disk_offsets(rng, fam.disk_radius(eps / 2.0), 1)[0])
        data = fam.moved(base, k, [w])
        eps /= 2.0
        pre += (abs(w),)

    # Case 2: elliptic monodromy; search for a noncommuting partner.
    M0 = fam.monodromy(base, target)
    # the base must pass the group check; a partner that fails it is a
    # rejected sample
    su11.classify(M0)
    single_ok = 1 in budget.word_lengths
    # a single letter of an elliptic partner is elliptic, so without a
    # longer admissible length no word search can succeed
    words_ok = max(budget.word_lengths, default=0) > 1
    n = fam.size(base)
    radius = fam.disk_radius(eps / 2.0)
    resonant = (fam.resonant(base, target) if budget.resonant_proposals
                else None)

    def draw(trial: int) -> Data:
        if resonant is not None and trial % 2 == 0:
            return resonant(rng, eps / 2.0)
        # independent offsets on every entry but the preserved first
        return fam.moved(base, 1, _disk_offsets(rng, radius, n - 1))

    # Samples are drawn in blocks of 1, 2, 4, ... SCREEN_BLOCK and
    # screened by one batch product per block.  Nothing else draws from
    # rng, so drawing ahead changes no outcome.
    trial, block = 0, 1
    while trial < budget.max_samples:
        partners = [draw(t) for t in
                    range(trial, min(trial + block, budget.max_samples))]
        trial += len(partners)
        block = min(2 * block, SCREEN_BLOCK)
        traces, sound = su11.screen_traces(fam.monodromies(partners, target))
        # Drop a sample only where the scalar path rejects it on its
        # trace alone: outside the single-letter accept band, and too
        # close to parabolic for a word search or with words off.  The
        # guard covers the gap between the batch and the scalar trace;
        # an unsound entry is decided by the scalar path.
        t = np.abs(traces)
        guard = su11.DEFECT_TOL * np.maximum(1.0, t)
        may_accept = single_ok & (t + guard > 2.0 + budget.trace_margin) & (
            t - guard <= budget.trace_cap)
        may_search = words_ok & (t - guard <= 2.0 - ELLIPTIC_MARGIN)
        for partner, keep in zip(partners, ~sound | may_accept | may_search):
            if not keep:
                continue
            M1 = fam.monodromy(partner, target)
            try:
                t1 = su11.real_trace(M1)
            except NotInGroup:
                continue
            if single_ok and budget.accepts(t1):
                # the partner alone is hyperbolic: single-letter word
                word = su11.SemigroupWord(runs=((1, 1),), matrix=M1, trace=t1)
            elif abs(t1) > 2.0 - ELLIPTIC_MARGIN:
                continue
            elif (not words_ok
                  or su11.commutator_norm(M0, M1) <= COMMUTATOR_MIN):
                continue
            else:
                try:
                    word = su11.hyperbolic_in_semigroup(M0, M1, budget)
                except (WordNotFound, CommutingInput, NotElliptic, NotInGroup):
                    continue
            blocks = (base, partner)
            result = fam.concat(blocks[letter].repeated(count)
                                for letter, count in word.runs)
            Dt = fam.discriminant(result, target)
            if abs(Dt - word.trace) > 1e-8 * max(1.0, abs(Dt)):
                raise NumericalAssertionError(
                    f"word trace {word.trace} disagrees with concatenated "
                    f"{fam.discriminant_name} {Dt}")
            if abs(Dt) <= 2.0:
                continue
            return result, GapCertificate(
                kind=fam.kind, target=target, case=2, word=word, base=base,
                partner=partner, result_period=fam.period(result),
                achieved_trace=Dt, distance=_distance(orig, result),
                preperturbations=pre)
    raise BudgetExhausted(
        f"no gap within {budget.max_samples} samples at "
        f"{fam.target_name}={target}")


cmv_open_gap = open_gap


def verify_gap_certificate(data: Data, cert: GapCertificate) -> dict:
    """Independent re-verification of a certificate's claims."""
    fam = _family(data)
    checks: dict[str, bool] = {}
    D = fam.discriminant(data, cert.target)
    checks["gap_open"] = abs(D) > 2.0
    if cert.word is not None and cert.partner is not None:
        M0 = fam.monodromy(cert.base, cert.target)
        M1 = fam.monodromy(cert.partner, cert.target)
        product = cert.word.evaluate(M0, M1)
        checks["word_reproduces"] = (
            su11.max_entry_norm(product - cert.word.matrix) <= 1e-8)
        checks["word_hyperbolic"] = abs(su11.real_trace(product)) > 2.0
        checks["trace_matches"] = abs(D - su11.real_trace(product)) <= 1e-8 * max(1.0, abs(D))
    return checks


# ---------------------------------------------------------------------------
# Resolvent cover
# ---------------------------------------------------------------------------

# Gap opening for cover members runs on lifted representations of the
# seed (lift copies viewed as one period): lifted perturbation partners
# carry many independent segments, so short words with high trace
# margins succeed at most energies and produce wide gaps, while stubborn
# resonant energies fall back to longer words over smaller lifts at
# lower margins.  The attempt ladder lists (lift, word_length, margin)
# rungs in that order of preference; together with the admissible-length
# filter it keeps the least common multiple of member block counts at or
# below MAX_COMMON_BLOCKS.
ATTEMPT_LADDER: tuple[tuple[int, int, float], ...] = (
    (24, 1, 0.5), (24, 1, 0.15), (12, 2, 0.25), (12, 2, 0.05),
    (24, 1, 0.02), (12, 2, 0.01), (8, 3, 0.01), (6, 4, 0.006))
MAX_COMMON_BLOCKS = 24
# The cover is complete once the grid minimax Lyapunov exponent exceeds this.
KAPPA_THRESHOLD = 1e-3
MAX_MEMBERS = 96
# Grid of the cover search and of cover_kappa.
COVER_GRID_POINTS = 2048
# Band-edge tolerance of the cover check between grid points.
HOLE_TOL = 1e-8
# Gap search of one cover member; each ladder rung sets the admissible
# word lengths and the trace margin.
COVER_BUDGET = GapSearchBudget(max_samples=150, resonant_proposals=True,
                               trace_cap=4.0)


def _admissible_lengths(max_len: int, lift: int,
                        current: int) -> frozenset[int]:
    """Word lengths (in lifted blocks) whose total block count keeps the
    shared period at or below MAX_COMMON_BLOCKS."""
    return frozenset(w for w in range(1, max_len + 1)
                     if math.lcm(current, w * lift) <= MAX_COMMON_BLOCKS)


def resolvent_cover(data: Data, R: Optional[float], eps: float,
                    seed: int) -> list[Data]:
    """Greedy gapped cover: members within eps of the data whose
    resolvent sets jointly cover [-R, R] (Dirac) or the whole circle
    (CMV; R is ignored).

    Repeatedly opens a gap at the point with the currently smallest
    best-member Lyapunov exponent until the grid minimax exceeds the
    positivity threshold, then at the midpoint of each hole between grid
    points where every member is in its spectrum, until none is left.
    Verification is numerical, not a rigorous enclosure: it assumes no
    member has a band narrower than the grid spacing.  Returns members
    sharing a period that is a multiple of the data's; when the data
    itself already covers the window, the cover is [data].
    """
    return _cover(data, R, eps, seed)


def cmv_resolvent_cover(alpha: cmv.VerblunskyCycle, eps: float,
                        seed: int) -> list[cmv.VerblunskyCycle]:
    """Greedy gapped cover of the whole circle (compact, no window)."""
    return _cover(alpha, None, eps, seed)


def _cover(data, R, eps, seed):
    fam = _family(data)
    T = fam.period(data)
    # every ladder lift is at least 6, so prepare never doubles a lifted
    # cycle and a word letter is worth lift base periods
    lifts = {lift: data.repeated(lift) for lift, _, _ in ATTEMPT_LADDER}

    rng = np.random.default_rng(seed)
    # cell i runs from points[i] to points[i + 1]
    points = fam.closed(fam.grid(R, COVER_GRID_POINTS))

    raw_members: list[Data] = []
    # Lyapunov rows are >= 0, so the -1 fill marks points no member covers
    best = np.full(points.size, -1.0)
    # cells known to hold no hole
    settled = np.zeros(points.size - 1, dtype=bool)
    common = 1

    base_row = fam.lyapunov(data, points)
    if base_row.max() > KAPPA_THRESHOLD:
        raw_members.append(data)
        best = np.maximum(best, base_row)
        settled = (base_row[:-1] > 0.0) & (base_row[1:] > 0.0)

    while True:
        worst = int(np.argmin(best))
        if best[worst] > KAPPA_THRESHOLD:
            # every point is covered; a hole between points becomes a
            # new point, uncovered, and splits its cell
            holes = _holes(fam, raw_members, points, np.flatnonzero(~settled))
            if not holes:
                break
            at = np.searchsorted(points, holes)
            points = np.insert(points, at, holes)
            best = np.insert(best, at, -1.0)
            new = np.insert(np.zeros(points.size - at.size, dtype=bool), at,
                            True)
            settled = ~(new[:-1] | new[1:])
            continue
        if len(raw_members) >= MAX_MEMBERS:
            raise BudgetExhausted(
                f"cover needs more than {MAX_MEMBERS} members; "
                f"worst uncovered {fam.point_name} {points[worst]} with "
                f"max Lyapunov {best[worst]:.3e}")
        target = float(points[worst])
        member = None
        failure: Exception = BudgetExhausted("no attempts made")
        for lift, word_length, margin in ATTEMPT_LADDER:
            sub_seed = int(rng.integers(2 ** 63))
            admissible = _admissible_lengths(word_length, lift, common)
            if not admissible:
                continue
            attempt_budget = replace(COVER_BUDGET, word_lengths=admissible,
                                     trace_margin=margin)
            try:
                member, _cert = open_gap(lifts[lift], target, eps, sub_seed,
                                         attempt_budget)
                break
            except BudgetExhausted as exc:
                failure = exc
        if member is None:
            raise BudgetExhausted(
                f"gap opening failed at {fam.point_name} {target}: {failure}")
        common = math.lcm(common, int(round(fam.period(member) / T)))
        raw_members.append(member)
        # A covered point stays covered, so it can never again be the
        # argmin or fail the stop test: rows are needed only where
        # points are still open, and each energy is computed on its own.
        # The row also takes the covered other ends of cells with an
        # open end, so every member is known at both ends of each cell
        # that was open when it came, and settles the cells it covers.
        open_ = best <= KAPPA_THRESHOLD
        asked = open_.copy()
        asked[:-1] |= open_[1:]
        asked[1:] |= open_[:-1]
        at = np.flatnonzero(asked)
        row = fam.lyapunov(member, points[at])
        best[at] = np.maximum(best[at], row)
        gapped = np.zeros(points.size, dtype=bool)
        gapped[at] = row > 0.0
        settled |= gapped[:-1] & gapped[1:]

    members = []
    for member in raw_members:
        reps = int(round(common * T / fam.period(member)))
        members.append(member.repeated(reps) if reps > 1 else member)
    return members


def _holes(fam: Family, members: list, points: np.ndarray,
           cells: np.ndarray) -> list[float]:
    """Midpoints of the holes of a cover in the cells
    [points[i], points[i+1]] listed: nonempty sets where every member is
    in its spectrum.

    A member with a positive Lyapunov exponent at both ends of a cell
    covers the cell, assuming no band of a member is narrower than a
    cell.  Each member is evaluated once, at the ends of all the cells.
    In a cell no member covers, each member in its spectrum at one end
    only has one band edge there, found by a one-cell su11.scan_bands,
    and the members' spectra in the cell are intersected.
    """
    if not cells.size:
        return []
    where, back = np.unique(np.concatenate((cells, cells + 1)),
                            return_inverse=True)
    gapped = np.array([(fam.lyapunov(mem, points[where]) > 0.0)[back]
                       for mem in members])
    left, right = gapped[:, :cells.size], gapped[:, cells.size:]
    still = ~(left & right).any(axis=0)
    holes = []
    for i, left_i, right_i in zip(cells[still], left[:, still].T,
                                  right[:, still].T):
        spans = [su11.scan_bands(
            lambda xs, mem=mem: np.where(fam.lyapunov(mem, xs) > 0.0, 3.0, 0.0),
            points[i:i + 2], HOLE_TOL, 1)
            for mem, gap_l, gap_r in zip(members, left_i, right_i)
            if gap_l != gap_r]
        lo = max([points[i]] + [a for band in spans for a, _ in band])
        hi = min([points[i + 1]] + [b for band in spans for _, b in band])
        if all(spans) and lo <= hi:
            holes.append(0.5 * (lo + hi))
    return holes


def cover_kappa(members: Sequence[Data], R: Optional[float] = None) -> float:
    """Grid minimax Lyapunov exponent over [-R, R] (Dirac) or the circle
    (CMV): min over the grid of the best member exponent."""
    fam = _family(members[0])
    grid = fam.grid(R, COVER_GRID_POINTS)
    # padded covers repeat members, whose rows cannot change the max
    rows = np.vstack([fam.lyapunov(mem, grid) for mem in dict.fromkeys(members)])
    return float(np.min(np.max(rows, axis=0)))


# ---------------------------------------------------------------------------
# Thin spectrum construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionReport:
    """Full provenance of one thin-spectrum build."""

    kind: str
    cover: tuple
    kappa: float
    n_value: int
    n_hat: int
    block_period: float
    schedule: tuple[float, ...]
    final_period: float
    spectrum: Union[dirac.BandSet, cmv.ArcSet]
    measure: float
    c1: float
    epsilon: float
    distance: float
    seed: int

    @property
    def member_count(self) -> int:
        return len(self.cover)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cover": [mem.rows for mem in self.cover],
            "kappa": self.kappa,
            "N": self.n_value,
            "N_hat": self.n_hat,
            "block_period": self.block_period,
            "schedule": list(self.schedule),
            "final_period": self.final_period,
            "spectrum": [list(iv) for iv in self.spectrum.intervals],
            "measure": self.measure,
            "c1": self.c1,
            "epsilon": self.epsilon,
            "distance": self.distance,
            "seed": self.seed,
            # the fit spans a series: callers with one fill it in
            "fitted_rate": None,
        }


def feasibility_threshold(m: int, block_ratio: int) -> int:
    """Smallest N for which the repetition count satisfies
    N_hat * T' > N T / (2 m)."""
    return 4 * m * block_ratio


def thin_series(data: Data, R: Optional[float], eps: float, seed: int,
                n_values: Sequence[int] = (), tol: float = 1e-8,
                cover: Optional[Sequence[Data]] = None,
                ) -> Iterator[ConstructionReport]:
    """Reports of thin period-NT data within eps of the data, one per N
    in order, all from one cover; the spectrum is taken in [-R, R]
    (Dirac) or on the circle (CMV; R is ignored).

    The construction concatenates N_hat + 1 copies of each of the m
    cover members at positions s_j = j (N_hat + 1) T' and fills the
    remainder with copies of the data, exactly as blocks of entries;
    N_hat is maximal with m (N_hat + 1) T' <= N T.  The cover (searched
    when none is given), kappa, c1 and the distance belong to the cover
    and are computed once.  The distance is the largest member distance:
    every member block starts at a multiple of T', and the remainder
    copies the data.  Without n_values the series is N0, N0 + m r and
    N0 + 2 m r, with r = T'/T and N0 = feasibility_threshold(m, r).
    Reports are yielded as they are made, so those before an N that
    fails (NTooSmall below N0) reach the caller.
    """
    fam = _family(data)
    members = list(cover) if cover is not None else resolvent_cover(
        data, R, eps, seed)
    T = fam.period(data)
    Tp = fam.period(members[0])
    for mem in members:
        if abs(fam.period(mem) - Tp) > 1e-9 * Tp:
            raise ValueError("cover members must share a common period")
    m = len(members)
    ratio = int(round(Tp / T))
    n0 = feasibility_threshold(m, ratio)
    kappa = cover_kappa(members, R)
    # the distinct members end to end: one distance call, the largest
    # member distance
    distance = _distance(data, fam.concat(dict.fromkeys(members)))
    for N in n_values or (n0, n0 + m * ratio, n0 + 2 * m * ratio):
        if N < n0:
            raise NTooSmall(f"N={N} below feasibility threshold N0={n0} "
                            f"(m={m}, {fam.period_symbol}'={Tp})")
        n_hat, groups = _layout(data, members, ratio, N)
        period = sum(fam.period(block) * reps for block, reps in groups)
        if abs(period - N * T) > 1e-9 * max(1.0, N * T):
            raise NumericalAssertionError(
                f"laid-out period {period} is not "
                f"N {fam.period_symbol} = {N * T}")
        spectrum = fam.bands_of_groups(groups, R, tol)
        schedule = tuple(float(j * (n_hat + 1) * Tp) for j in range(1, m + 1))
        yield ConstructionReport(
            kind=fam.kind, cover=tuple(members), kappa=kappa, n_value=N,
            n_hat=n_hat, block_period=float(Tp), schedule=schedule,
            final_period=float(N * T), spectrum=spectrum,
            measure=spectrum.measure, c1=kappa / (2.0 * m), epsilon=eps,
            distance=distance, seed=seed)


def _layout(data: Data, members: Sequence[Data], ratio: int,
            N: int) -> tuple[int, list[tuple[Data, int]]]:
    """(N_hat, groups): the (block, reps) groups of the period-NT data,
    each member N_hat + 1 times, then the data for the rest; ratio is
    the member period in data periods."""
    n_hat = N // (len(members) * ratio) - 1
    groups = [(mem, n_hat + 1) for mem in members]
    remainder = N - len(members) * (n_hat + 1) * ratio
    if remainder > 0:
        groups.append((data, remainder))
    return n_hat, groups


def thin_spectrum(data: Data, R: Optional[float], eps: float, N: int,
                  seed: int, tol: float = 1e-8,
                  cover: Optional[Sequence[Data]] = None,
                  ) -> tuple[Data, ConstructionReport]:
    """The one-N call of thin_series, with the assembled period-NT data."""
    report = next(thin_series(data, R, eps, seed, (N,), tol, cover))
    fam = _family(data)
    ratio = int(round(report.block_period / fam.period(data)))
    _, groups = _layout(data, report.cover, ratio, N)
    return fam.concat(block.repeated(reps) for block, reps in groups), report


def fit_decay_rate(final_periods: Sequence[float],
                   measures: Sequence[float]) -> float:
    """Least-squares slope of log measure against the final period.

    Negative when the measure decays; the proof's rate is not sharp, so
    the fitted value is reported alongside c1 without claiming equality.
    """
    if len(final_periods) < 2:
        raise ValueError("need at least two points to fit a rate")
    logs = np.log(np.maximum(np.asarray(measures, dtype=float), 1e-300))
    slope = np.polyfit(np.asarray(final_periods, dtype=float), logs, 1)[0]
    return float(slope)
