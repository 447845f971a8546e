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

Everything is deterministic given (seed, budget): samples are drawn in a
fixed order and the word search accepts the first word in a fixed
canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import cmv, dirac, su11
from .errors import (BudgetExhausted, CommutingInput, NotElliptic,
                     NotInGroup, NTooSmall, NumericalAssertionError,
                     WordNotFound)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GapSearchBudget:
    """Limits and thresholds for the randomized gap-opening search.

    max_samples bounds the number of perturbation candidates per call;
    case3_retries bounds nested pre-perturbations at parabolic targets;
    elliptic_margin requires |trace| <= 2 - margin for both blocks before
    the word search; commutator_min rejects nearly commuting samples.
    The word budget fixes the semigroup search (length <= 24 by default:
    the underlying existence lemma gives no length bound, so this is a
    pragmatic cap).  With resonant_proposals, every other candidate
    follows the Fourier mode matched to the target energy instead of
    independent offsets: on long blocks, independent offsets spread
    their weight over many modes and cannot move band edges far, while
    a resonant mode opens a wide gap directly.
    """

    max_samples: int = 1000
    case3_retries: int = 8
    elliptic_margin: float = 0.01
    commutator_min: float = 1e-3
    resonant_proposals: bool = False
    side_targets: tuple[float, ...] = ()
    word: su11.SearchBudget = field(default_factory=su11.SearchBudget)


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
    base: Union[dirac.PiecewisePotential, cmv.VerblunskyCycle]
    partner: Optional[Union[dirac.PiecewisePotential, cmv.VerblunskyCycle]]
    result_period: float
    achieved_trace: float
    distance: float              # sup-norm (dirac) or Poincare (cmv) move
    preperturbations: tuple[float, ...] = ()

    def word_label(self) -> str:
        return self.word.label() if self.word is not None else ""


# ---------------------------------------------------------------------------
# Dirac gap opening
# ---------------------------------------------------------------------------

def _prepare(phi: dirac.PiecewisePotential) -> dirac.PiecewisePotential:
    # Perturbations preserve segment 0, so single-segment data is split
    # into two equal halves first (same operator, richer representation).
    return phi.with_split(0) if len(phi.segments) == 1 else phi


def _disk_offset(rng: np.random.Generator, radius: float) -> complex:
    u = rng.uniform()
    v = rng.uniform()
    return complex(radius * math.sqrt(u) * np.exp(2j * math.pi * v))


def _perturb_potential(phi: dirac.PiecewisePotential, rng: np.random.Generator,
                       radius: float) -> dirac.PiecewisePotential:
    segs = list(phi.segments)
    for k in range(1, len(segs)):
        length, value = segs[k]
        segs[k] = (length, value + _disk_offset(rng, radius))
    return dirac.PiecewisePotential(segments=tuple(segs))


def _perturb_potential_resonant(phi: dirac.PiecewisePotential,
                                rng: np.random.Generator, radius: float,
                                lam: float,
                                side_targets: tuple[float, ...] = (),
                                ) -> dirac.PiecewisePotential:
    """Fourier-mode proposal: off-diagonal data at frequency 2 lam
    couples the two free components at energy lam, so a mode near the
    index closest to |lam| T / pi opens a gap there directly; weaker
    side modes at random indices broaden the Lyapunov landscape of the
    candidate so a single cover member helps at many energies.

    Segments are subdivided so the piecewise-constant data resolves the
    resonant frequency (the Nyquist limit of segments of length h is
    pi/h, while the mode needs 2 |lam|)."""
    T = phi.period
    # coupling between the free components picks frequency -2 lam
    direction = -1.0 if lam >= 0 else 1.0
    nu_star = round(abs(lam) * T / math.pi)
    nu_max = max(3, nu_star + 2, round(1.4 * abs(lam) * T / math.pi))
    if side_targets:
        # primary mode plus modes at requested extra energies, so one
        # member conquers several uncovered cells at once
        share = radius / (1.0 + len(side_targets))
        modes = [(nu_star + int(rng.integers(-1, 2)),
                  share * (0.7 + 0.3 * rng.uniform()),
                  rng.uniform(0.0, TWO_PI))]
        for side in side_targets:
            nu_side = round(abs(side) * T / math.pi) + int(rng.integers(-1, 2))
            modes.append((nu_side, share * (0.7 + 0.3 * rng.uniform()),
                          rng.uniform(0.0, TWO_PI)))
    else:
        nmodes = int(rng.choice([1, 2, 4]))
        if nmodes == 1:
            # full-strength single mode: the opened gap reaches about the
            # mode amplitude to either side of its lattice crossing
            modes = [(nu_star + int(rng.integers(-1, 2)),
                      radius * (0.7 + 0.3 * rng.uniform()),
                      rng.uniform(0.0, TWO_PI))]
        elif nmodes == 2:
            modes = [(nu_star + int(rng.integers(-1, 2)),
                      (radius / 2.0) * (0.7 + 0.3 * rng.uniform()),
                      rng.uniform(0.0, TWO_PI)),
                     (int(rng.integers(1, nu_max + 1)),
                      (radius / 2.0) * rng.uniform(),
                      rng.uniform(0.0, TWO_PI))]
        else:
            modes = [(nu_star + int(rng.integers(-1, 2)),
                      (radius / 2.0) * (0.5 + 0.5 * rng.uniform()),
                      rng.uniform(0.0, TWO_PI))]
            for _ in range(3):
                modes.append((int(rng.integers(1, nu_max + 1)),
                              (radius / 6.0) * rng.uniform(),
                              rng.uniform(0.0, TWO_PI)))
    # the T/8 cap keeps the preserved first piece short, so the mode
    # retains nearly full strength even on two-block lifts
    h_target = min(math.pi / (2.0 * abs(lam) + 2.0), T / 8.0)
    segs: list[tuple[float, complex]] = []
    x = 0.0
    first = True
    for length, value in phi.segments:
        pieces = max(1, int(math.ceil(length / h_target)))
        h = length / pieces
        for i in range(pieces):
            mid = x + (i + 0.5) * h
            if first:
                segs.append((h, value))
                first = False
                continue
            offset = complex(sum(
                a * np.exp(1j * (ph + direction * TWO_PI * nu * mid / T))
                for nu, a, ph in modes))
            segs.append((h, value + offset))
        x += length
    return dirac.PiecewisePotential(segments=tuple(segs))


def _concat_word_potential(block0: dirac.PiecewisePotential,
                           block1: dirac.PiecewisePotential,
                           word: su11.SemigroupWord) -> dirac.PiecewisePotential:
    blocks = (block0, block1)
    return dirac.concatenate(blocks[letter].repeated(count)
                             for letter, count in word.runs)


def open_gap(phi0: dirac.PiecewisePotential, lam: float, eps: float, seed: int,
             budget: Optional[GapSearchBudget] = None,
             ) -> tuple[dirac.PiecewisePotential, GapCertificate]:
    """Perturb phi0 by less than eps in sup norm so lam leaves the spectrum.

    Case 1 (|D| > 2): phi0 is returned unchanged.  Case 3 (|D| within the
    elliptic margin of 2): one segment value is nudged by a seeded random
    offset below eps/2 and the search retries with the remaining budget.
    Case 2 (elliptic): seeded random perturbations are sampled until both
    monodromies are elliptic with a noncommuting pair, a hyperbolic word
    is found, and the corresponding block concatenation verifies
    |D(lam)| > 2.  Raises BudgetExhausted when sampling runs out; retry
    with another seed.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    budget = budget or GapSearchBudget()
    rng = np.random.default_rng(seed)
    return _open_gap_dirac(phi0, phi0, lam, eps, rng, budget, 0, ())


def _open_gap_dirac(phi_orig, phi0, lam, eps, rng, budget, depth, pre):
    D0 = dirac.discriminant(phi0, lam)
    if abs(D0) > 2.0 + su11.PARABOLIC_TOL:
        phit = phi0
        return phit, GapCertificate(
            kind="dirac", target=lam, case=1, word=None, base=phi0,
            partner=None, result_period=phit.period, achieved_trace=D0,
            distance=_dirac_distance(phi_orig, phit), preperturbations=pre)

    phi0p = _prepare(phi0)
    if abs(D0) >= 2.0 - budget.elliptic_margin:
        # Case 3: parabolic or too close to it for a stable word search.
        if depth >= budget.case3_retries:
            raise BudgetExhausted(
                f"case-3 retries exhausted at lambda={lam}, |D|={abs(D0):.6f}")
        k = 1 + int(rng.integers(len(phi0p.segments) - 1))
        offset = _disk_offset(rng, eps / 2.0)
        nudged = phi0p.with_value(k, phi0p.segments[k][1] + offset)
        return _open_gap_dirac(phi_orig, nudged, lam, eps / 2.0, rng, budget,
                               depth + 1, pre + (abs(offset),))

    # Case 2: elliptic monodromy; search for a noncommuting partner.
    M0 = dirac.monodromy(phi0p, lam)
    # the base must pass the group check; a partner that fails it is a
    # rejected sample
    su11.classify(M0)
    single_ok = (budget.word.admissible_lengths is None
                 or 1 in budget.word.admissible_lengths)
    for trial in range(budget.max_samples):
        if budget.resonant_proposals and trial % 2 == 0:
            phi1 = _perturb_potential_resonant(phi0p, rng, eps / 2.0, lam,
                                               budget.side_targets)
        else:
            phi1 = _perturb_potential(phi0p, rng, eps / 2.0)
        M1 = dirac.monodromy(phi1, lam)
        try:
            t1 = su11.real_trace(M1)
        except NotInGroup:
            continue
        if single_ok and 2.0 + budget.word.trace_margin < abs(t1) <= budget.word.trace_cap:
            # the partner alone is hyperbolic: single-letter word
            word = su11.SemigroupWord(runs=((1, 1),), matrix=M1, trace=t1)
        elif abs(t1) > 2.0 - budget.elliptic_margin:
            continue
        elif su11.commutator_norm(M0, M1) <= budget.commutator_min:
            continue
        else:
            try:
                word = su11.hyperbolic_in_semigroup(M0, M1, budget.word)
            except (WordNotFound, CommutingInput, NotElliptic, NotInGroup):
                continue
        phit = _concat_word_potential(phi0p, phi1, word)
        Dt = dirac.discriminant(phit, lam)
        if abs(Dt - word.trace) > 1e-8 * max(1.0, abs(Dt)):
            raise NumericalAssertionError(
                f"word trace {word.trace} disagrees with concatenated "
                f"discriminant {Dt}")
        if abs(Dt) <= 2.0:
            continue
        return phit, GapCertificate(
            kind="dirac", target=lam, case=2, word=word, base=phi0p,
            partner=phi1, result_period=phit.period, achieved_trace=Dt,
            distance=_dirac_distance(phi_orig, phit), preperturbations=pre)
    raise BudgetExhausted(
        f"no gap within {budget.max_samples} samples at lambda={lam}")


def _dirac_distance(phi: dirac.PiecewisePotential,
                    phit: dirac.PiecewisePotential) -> float:
    reps = int(round(phit.period / phi.period))
    base = phi.repeated(reps) if reps > 1 else phi
    return dirac.sup_distance(base, phit)


def verify_gap_certificate(phit, cert: GapCertificate, tol: float = 1e-8) -> dict:
    """Independent re-verification of a certificate's claims."""
    checks: dict[str, bool] = {}
    if cert.kind == "dirac":
        D = dirac.discriminant(phit, cert.target)
    else:
        D = cmv.cmv_discriminant(phit, cert.target)
    checks["gap_open"] = abs(D) > 2.0
    if cert.word is not None and cert.partner is not None:
        if cert.kind == "dirac":
            M0 = dirac.monodromy(cert.base, cert.target)
            M1 = dirac.monodromy(cert.partner, cert.target)
        else:
            M0 = cmv.cmv_monodromy(cert.base, cert.target)
            M1 = cmv.cmv_monodromy(cert.partner, cert.target)
        product = cert.word.evaluate(M0, M1)
        checks["word_reproduces"] = (
            su11.max_entry_norm(product - cert.word.matrix) <= tol)
        checks["word_hyperbolic"] = abs(su11.real_trace(product)) > 2.0
        checks["trace_matches"] = abs(D - su11.real_trace(product)) <= tol * max(1.0, abs(D))
    return checks


# ---------------------------------------------------------------------------
# Dirac resolvent cover
# ---------------------------------------------------------------------------

def _admissible_lengths(max_len: int, lift: int, current: int,
                        cap: int) -> frozenset[int]:
    """Word lengths (in lifted blocks) whose total block count keeps the
    shared period under the cap."""
    return frozenset(w for w in range(1, max_len + 1)
                     if math.lcm(current, w * lift) <= cap)


@dataclass(frozen=True)
class CoverOptions:
    """Tuning for the greedy cover construction.

    Gap opening for cover members runs on lifted representations of the
    seed (lift copies viewed as one period): lifted perturbation
    partners carry many independent segments, so short words with high
    trace margins succeed at most energies and produce wide gaps, while
    stubborn resonant energies fall back to longer words over smaller
    lifts at lower margins.  The attempt ladder lists (lift,
    word_length, margin) rungs in that order of preference; together
    with the admissible-length filter it keeps the least common
    multiple of member block counts at or below max_common_blocks.
    """

    attempt_ladder: tuple[tuple[int, int, float], ...] = (
        (24, 1, 0.5), (24, 1, 0.15), (12, 2, 0.25), (12, 2, 0.05),
        (24, 1, 0.02), (12, 2, 0.01), (8, 3, 0.01), (6, 4, 0.006))
    max_common_blocks: int = 24
    kappa_threshold: float = 1e-3
    grid_points: int = 2048
    max_members: int = 96
    trace_cap: float = 4.0
    samples_per_target: int = 150
    word_nodes: int = 60_000


def _cover_budget(budget: Optional[GapSearchBudget],
                  options: CoverOptions) -> GapSearchBudget:
    budget = budget or GapSearchBudget()
    word_budget = replace(budget.word, max_nodes=options.word_nodes,
                          trace_cap=options.trace_cap)
    return replace(budget, word=word_budget,
                   max_samples=options.samples_per_target,
                   resonant_proposals=True)


def resolvent_cover(phi: dirac.PiecewisePotential, R: float, eps: float,
                    seed: int, budget: Optional[GapSearchBudget] = None,
                    options: Optional[CoverOptions] = None,
                    ) -> list[dirac.PiecewisePotential]:
    """Greedy gapped cover: members within eps of phi whose resolvent
    sets jointly cover [-R, R].

    Repeatedly opens a gap at the energy with the currently smallest
    best-member Lyapunov exponent until the grid minimax exceeds the
    positivity threshold.  Verification is numerical: a fine grid plus
    margin, not a rigorous enclosure.  Returns members sharing a period
    in phi.period * N, except for the degenerate single-member case
    where phi itself already covers the window.
    """
    options = options or CoverOptions()
    budget = _cover_budget(budget, options)
    lifts = {lift: (phi.repeated(lift) if lift > 1 else phi)
             for lift, _, _ in options.attempt_ladder}

    rng = np.random.default_rng(seed)
    grid = np.linspace(-R, R, options.grid_points)

    raw_members: list[dirac.PiecewisePotential] = []
    rows: list[np.ndarray] = []
    common = 1

    base_row = dirac.lyapunov_profile(phi, grid)
    if base_row.max() > options.kappa_threshold:
        raw_members.append(phi)
        rows.append(base_row)

    while True:
        if rows:
            best = np.max(np.vstack(rows), axis=0)
        else:
            best = np.full(grid.size, -1.0)
        worst = int(np.argmin(best))
        if best[worst] > options.kappa_threshold:
            break
        if len(raw_members) >= options.max_members:
            raise BudgetExhausted(
                f"cover needs more than {options.max_members} members; "
                f"worst uncovered energy {grid[worst]} with "
                f"max Lyapunov {best[worst]:.3e}")
        lam_star = float(grid[worst])
        member = None
        failure: Exception = BudgetExhausted("no attempts made")
        for lift, word_length, margin in options.attempt_ladder:
            sub_seed = int(rng.integers(2 ** 63))
            admissible = _admissible_lengths(
                word_length, lift, common, options.max_common_blocks)
            if not admissible:
                continue
            attempt_budget = replace(budget, word=replace(
                budget.word, max_word_length=word_length,
                trace_margin=margin, admissible_lengths=admissible))
            try:
                member, _cert = open_gap(lifts[lift], lam_star, eps, sub_seed,
                                         attempt_budget)
                break
            except (BudgetExhausted, WordNotFound) as exc:
                failure = exc
        if member is None:
            raise BudgetExhausted(
                f"gap opening failed at energy {lam_star}: {failure}")
        common = math.lcm(common, int(round(member.period / phi.period)))
        raw_members.append(member)
        rows.append(dirac.lyapunov_profile(member, grid))

    if len(raw_members) == 1 and raw_members[0] is phi:
        return [phi]
    members = []
    for member in raw_members:
        reps = int(round(common * phi.period / member.period))
        members.append(member.repeated(reps) if reps > 1 else member)
    return members


def cover_kappa(members: Sequence[dirac.PiecewisePotential], R: float,
                grid_points: int = 2048) -> float:
    """Grid minimax Lyapunov exponent: min over energies of the best
    member exponent."""
    grid = np.linspace(-R, R, grid_points)
    rows = np.vstack([dirac.lyapunov_profile(mem, grid) for mem in members])
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
    fitted_rate: Optional[float] = None

    @property
    def member_count(self) -> int:
        return len(self.cover)

    def to_json_dict(self) -> dict:
        if self.kind == "dirac":
            spectrum = [list(iv) for iv in self.spectrum.intervals]
        else:
            spectrum = [list(arc) for arc in self.spectrum.arcs]
        return {
            "kind": self.kind,
            "cover": [mem.rows for mem in self.cover],
            "kappa": self.kappa,
            "N": self.n_value,
            "N_hat": self.n_hat,
            "block_period": self.block_period,
            "schedule": list(self.schedule),
            "final_period": self.final_period,
            "spectrum": spectrum,
            "measure": self.measure,
            "c1": self.c1,
            "epsilon": self.epsilon,
            "distance": self.distance,
            "seed": self.seed,
            "fitted_rate": self.fitted_rate,
        }


def feasibility_threshold(m: int, block_ratio: int) -> int:
    """Smallest N for which the repetition count satisfies
    N_hat * T' > N T / (2 m)."""
    return 4 * m * block_ratio


def thin_spectrum(phi: dirac.PiecewisePotential, R: float, eps: float, N: int,
                  seed: int, tol: float = 1e-8,
                  budget: Optional[GapSearchBudget] = None,
                  options: Optional[CoverOptions] = None,
                  cover: Optional[Sequence[dirac.PiecewisePotential]] = None,
                  scan_oversample: float = 1.0,
                  ) -> tuple[dirac.PiecewisePotential, ConstructionReport]:
    """Build period-NT data within eps of phi whose spectrum in [-R, R]
    is thin.

    The construction concatenates N_hat + 1 copies of each cover member
    at positions s_j = j (N_hat + 1) T' and fills the remainder with
    copies of phi, exactly as blocks of segments; N_hat is maximal with
    m (N_hat + 1) T' <= N T.
    """
    members = list(cover) if cover is not None else resolvent_cover(
        phi, R, eps, seed, budget, options)
    T = phi.period
    Tp = members[0].period
    for mem in members:
        if abs(mem.period - Tp) > 1e-9 * Tp:
            raise ValueError("cover members must share a common period")
    m = len(members)
    ratio = int(round(Tp / T))
    n0 = feasibility_threshold(m, ratio)
    if N < n0:
        raise NTooSmall(f"N={N} below feasibility threshold N0={n0} "
                        f"(m={m}, T'={Tp})")
    n_hat = N // (m * ratio) - 1
    if (n_hat + 1) * m * ratio > N:
        n_hat -= 1
    groups = [(mem, n_hat + 1) for mem in members]
    remainder = N - m * (n_hat + 1) * ratio
    if remainder > 0:
        groups.append((phi, remainder))
    phit = dirac.concatenate(block.repeated(reps) for block, reps in groups)
    if abs(phit.period - N * T) > 1e-9 * max(1.0, N * T):
        raise NumericalAssertionError(
            f"assembled period {phit.period} is not N T = {N * T}")
    distance = _dirac_distance(phi, phit)
    spectrum = dirac.bands_of_groups(groups, R, tol, scan_oversample)
    kappa = cover_kappa(members, R)
    schedule = tuple(j * (n_hat + 1) * Tp for j in range(1, m + 1))
    report = ConstructionReport(
        kind="dirac", cover=tuple(members), kappa=kappa, n_value=N,
        n_hat=n_hat, block_period=Tp, schedule=schedule,
        final_period=N * T, spectrum=spectrum, measure=spectrum.measure,
        c1=kappa / (2.0 * m), epsilon=eps, distance=distance, seed=seed)
    return phit, report


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


# ---------------------------------------------------------------------------
# CMV mirrors
# ---------------------------------------------------------------------------

def _prepare_cycle(alpha: cmv.VerblunskyCycle) -> cmv.VerblunskyCycle:
    # Entry 0 is preserved under perturbation, so a 1-cycle is doubled
    # first (same operator, richer representation).
    return alpha.repeated(2) if alpha.q == 1 else alpha


def _perturb_cycle(alpha: cmv.VerblunskyCycle, rng: np.random.Generator,
                   radius: float) -> cmv.VerblunskyCycle:
    # geodesic offsets: Euclidean radius tanh(r) maps to hyperbolic radius r
    vals = list(alpha.values)
    t = math.tanh(radius)
    for k in range(1, len(vals)):
        w = _disk_offset(rng, t)
        vals[k] = cmv.poincare_push(vals[k], w)
    return cmv.VerblunskyCycle(values=tuple(vals))


def _perturb_cycle_resonant(alpha: cmv.VerblunskyCycle,
                            rng: np.random.Generator, radius: float,
                            theta: float) -> cmv.VerblunskyCycle:
    # Fourier-mode proposal matched to the target angle: coefficient
    # modes near index q theta / (2 pi) open a gap at exp(i theta).
    q = alpha.q
    nu = round(theta * q / TWO_PI) + int(rng.integers(-1, 2))
    phase = rng.uniform(0.0, TWO_PI)
    amp = math.tanh(radius) * (0.5 + 0.5 * rng.uniform())
    vals = list(alpha.values)
    for k in range(1, q):
        w = amp * np.exp(1j * (phase - TWO_PI * nu * k / q))
        vals[k] = cmv.poincare_push(vals[k], w)
    return cmv.VerblunskyCycle(values=tuple(vals))


def _cycle_distance(alpha: cmv.VerblunskyCycle, beta: cmv.VerblunskyCycle) -> float:
    reps = len(beta.values) // len(alpha.values)
    base = alpha.repeated(reps) if reps > 1 else alpha
    return cmv.poincare_delta(base, beta)


def cmv_open_gap(alpha: cmv.VerblunskyCycle, theta: float, eps: float,
                 seed: int, budget: Optional[GapSearchBudget] = None,
                 ) -> tuple[cmv.VerblunskyCycle, GapCertificate]:
    """Poincare-metric mirror of open_gap for extended CMV matrices."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    budget = budget or GapSearchBudget()
    rng = np.random.default_rng(seed)
    return _open_gap_cmv(alpha, alpha, theta, eps, rng, budget, 0, ())


def _open_gap_cmv(alpha_orig, alpha, theta, eps, rng, budget, depth, pre):
    D0 = cmv.cmv_discriminant(alpha, theta)
    if abs(D0) > 2.0 + su11.PARABOLIC_TOL:
        return alpha, GapCertificate(
            kind="cmv", target=theta, case=1, word=None, base=alpha,
            partner=None, result_period=alpha.q, achieved_trace=D0,
            distance=_cycle_distance(alpha_orig, alpha), preperturbations=pre)

    # Doubling a 1-cycle changes the discriminant (Chebyshev relation),
    # so the case split below must look at the prepared representation.
    alphap = _prepare_cycle(alpha)
    D0p = cmv.cmv_discriminant(alphap, theta)
    if abs(D0p) >= 2.0 - budget.elliptic_margin:
        if depth >= budget.case3_retries:
            raise BudgetExhausted(
                f"case-3 retries exhausted at theta={theta}, |D|={abs(D0p):.6f}")
        k = 1 + int(rng.integers(alphap.q - 1))
        w = _disk_offset(rng, math.tanh(eps / 2.0))
        nudged = alphap.with_value(k, cmv.poincare_push(alphap.values[k], w))
        return _open_gap_cmv(alpha_orig, nudged, theta, eps / 2.0, rng, budget,
                             depth + 1, pre + (abs(w),))

    M0 = cmv.cmv_monodromy(alphap, theta)
    su11.classify(M0)
    single_ok = (budget.word.admissible_lengths is None
                 or 1 in budget.word.admissible_lengths)
    for trial in range(budget.max_samples):
        if budget.resonant_proposals and trial % 2 == 0:
            beta = _perturb_cycle_resonant(alphap, rng, eps / 2.0, theta)
        else:
            beta = _perturb_cycle(alphap, rng, eps / 2.0)
        M1 = cmv.cmv_monodromy(beta, theta)
        try:
            t1 = su11.real_trace(M1)
        except NotInGroup:
            continue
        if single_ok and 2.0 + budget.word.trace_margin < abs(t1) <= budget.word.trace_cap:
            word = su11.SemigroupWord(runs=((1, 1),), matrix=M1, trace=t1)
        elif abs(t1) > 2.0 - budget.elliptic_margin:
            continue
        elif su11.commutator_norm(M0, M1) <= budget.commutator_min:
            continue
        else:
            try:
                word = su11.hyperbolic_in_semigroup(M0, M1, budget.word)
            except (WordNotFound, CommutingInput, NotElliptic, NotInGroup):
                continue
        blocks = (alphap, beta)
        tilde = cmv.concatenate_cycles(blocks[letter].repeated(count)
                                       for letter, count in word.runs)
        Dt = cmv.cmv_discriminant(tilde, theta)
        if abs(Dt - word.trace) > 1e-8 * max(1.0, abs(Dt)):
            raise NumericalAssertionError(
                f"word trace {word.trace} disagrees with concatenated "
                f"CMV discriminant {Dt}")
        if abs(Dt) <= 2.0:
            continue
        return tilde, GapCertificate(
            kind="cmv", target=theta, case=2, word=word, base=alphap,
            partner=beta, result_period=tilde.q, achieved_trace=Dt,
            distance=_cycle_distance(alpha_orig, tilde), preperturbations=pre)
    raise BudgetExhausted(
        f"no gap within {budget.max_samples} samples at theta={theta}")


def cmv_resolvent_cover(alpha: cmv.VerblunskyCycle, eps: float, seed: int,
                        budget: Optional[GapSearchBudget] = None,
                        options: Optional[CoverOptions] = None,
                        ) -> list[cmv.VerblunskyCycle]:
    """Greedy gapped cover of the whole circle (compact, no window).

    Mirrors resolvent_cover with the Poincare metric and angular grid;
    gap opening runs on the lifted cycle representation.
    """
    options = options or CoverOptions()
    budget = _cover_budget(budget, options)
    lifts = {lift: (alpha.repeated(lift) if lift > 1 else alpha)
             for lift, _, _ in options.attempt_ladder}

    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, TWO_PI, options.grid_points, endpoint=False)

    raw_members: list[cmv.VerblunskyCycle] = []
    rows: list[np.ndarray] = []
    common = 1

    base_row = cmv.cmv_lyapunov_profile(alpha, grid)
    if base_row.max() > options.kappa_threshold:
        raw_members.append(alpha)
        rows.append(base_row)

    while True:
        if rows:
            best = np.max(np.vstack(rows), axis=0)
        else:
            best = np.full(grid.size, -1.0)
        worst = int(np.argmin(best))
        if best[worst] > options.kappa_threshold:
            break
        if len(raw_members) >= options.max_members:
            raise BudgetExhausted(
                f"cover needs more than {options.max_members} members; "
                f"worst uncovered angle {grid[worst]} with "
                f"max Lyapunov {best[worst]:.3e}")
        theta_star = float(grid[worst])
        member = None
        failure: Exception = BudgetExhausted("no attempts made")
        for lift, word_length, margin in options.attempt_ladder:
            sub_seed = int(rng.integers(2 ** 63))
            # a doubled 1-cycle makes each word letter worth two periods
            unit = 2 if alpha.q * lift == 1 else 1
            admissible = _admissible_lengths(
                word_length, lift * unit, common, options.max_common_blocks)
            if not admissible:
                continue
            attempt_budget = replace(budget, word=replace(
                budget.word, max_word_length=word_length,
                trace_margin=margin, admissible_lengths=admissible))
            try:
                member, _cert = cmv_open_gap(lifts[lift], theta_star, eps,
                                             sub_seed, attempt_budget)
                break
            except (BudgetExhausted, WordNotFound) as exc:
                failure = exc
        if member is None:
            raise BudgetExhausted(
                f"gap opening failed at angle {theta_star}: {failure}")
        common = math.lcm(common, member.q // alpha.q)
        raw_members.append(member)
        rows.append(cmv.cmv_lyapunov_profile(member, grid))

    if len(raw_members) == 1 and raw_members[0] is alpha:
        return [alpha]
    members = []
    for member in raw_members:
        reps = (common * alpha.q) // member.q
        members.append(member.repeated(reps) if reps > 1 else member)
    return members


def cmv_cover_kappa(members: Sequence[cmv.VerblunskyCycle],
                    grid_points: int = 2048) -> float:
    grid = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    rows = np.vstack([cmv.cmv_lyapunov_profile(mem, grid) for mem in members])
    return float(np.min(np.max(rows, axis=0)))


def cmv_thin_spectrum(alpha: cmv.VerblunskyCycle, eps: float, N: int,
                      seed: int, tol: float = 1e-8,
                      budget: Optional[GapSearchBudget] = None,
                      options: Optional[CoverOptions] = None,
                      cover: Optional[Sequence[cmv.VerblunskyCycle]] = None,
                      ) -> tuple[cmv.VerblunskyCycle, ConstructionReport]:
    """Period-Nq Verblunsky data within eps of alpha (Poincare metric)
    whose spectrum has small angular measure."""
    members = list(cover) if cover is not None else cmv_resolvent_cover(
        alpha, eps, seed, budget, options)
    q = alpha.q
    qp = members[0].q
    for mem in members:
        if mem.q != qp:
            raise ValueError("cover members must share a common period")
    m = len(members)
    ratio = qp // q
    n0 = feasibility_threshold(m, ratio)
    if N < n0:
        raise NTooSmall(f"N={N} below feasibility threshold N0={n0} "
                        f"(m={m}, q'={qp})")
    n_hat = N // (m * ratio) - 1
    if (n_hat + 1) * m * ratio > N:
        n_hat -= 1
    groups = [(mem, n_hat + 1) for mem in members]
    remainder = N - m * (n_hat + 1) * ratio
    if remainder > 0:
        groups.append((alpha, remainder))
    tilde = cmv.concatenate_cycles(cycle.repeated(reps)
                                   for cycle, reps in groups)
    if tilde.q != N * q:
        raise NumericalAssertionError(
            f"assembled period {tilde.q} is not N q = {N * q}")
    distance = _cycle_distance(alpha, tilde)
    spectrum = cmv.cmv_bands_of_groups(groups, tol)
    kappa = cmv_cover_kappa(members)
    schedule = tuple(float(j * (n_hat + 1) * qp) for j in range(1, m + 1))
    report = ConstructionReport(
        kind="cmv", cover=tuple(members), kappa=kappa, n_value=N,
        n_hat=n_hat, block_period=float(qp), schedule=schedule,
        final_period=float(N * q), spectrum=spectrum,
        measure=spectrum.measure, c1=kappa / (2.0 * m), epsilon=eps,
        distance=distance, seed=seed)
    return tilde, report
