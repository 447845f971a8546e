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
from typing import Any, Callable, Optional, Sequence, Union

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
    entries: Callable[[Data], tuple]
    period: Callable[[Data], float]
    prepare: Callable[[Data], Data]
    disk_radius: Callable[[float], float]    # Euclidean radius of a move
    move: Callable[[Any, complex], Any]      # entry moved by a disk offset
    resonant: Callable                       # (data, rng, radius, target)
    monodromy: Callable
    discriminant: Callable
    lyapunov: Callable                       # profile over a grid
    concat: Callable
    distance: Callable                       # between equal-length data
    grid: Callable                           # (R, n) -> cover grid
    bands: Callable                          # (data, R, tol, oversample)
    bands_of_groups: Callable                # (groups, R, tol)
    intervals: Callable                      # spectrum -> its intervals


# Resonant proposal shapes by mode count: (main divisor, low, span, side
# modes, side divisor).  The single full-strength mode opens a gap about
# its amplitude to either side of its lattice crossing.
RESONANT_MODES = {1: (1.0, 0.7, 0.3, 0, 1.0), 2: (2.0, 0.7, 0.3, 1, 2.0),
                  4: (2.0, 0.5, 0.5, 3, 6.0)}


def _resonant_potential(phi: dirac.PiecewisePotential,
                        rng: np.random.Generator, radius: float,
                        lam: float) -> dirac.PiecewisePotential:
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
    main_div, low, span, sides, side_div = RESONANT_MODES[
        int(rng.choice(tuple(RESONANT_MODES)))]
    modes = [(nu_star + int(rng.integers(-1, 2)),
              (radius / main_div) * (low + span * rng.uniform()),
              rng.uniform(0.0, TWO_PI))]
    for _ in range(sides):
        modes.append((int(rng.integers(1, nu_max + 1)),
                      (radius / side_div) * rng.uniform(),
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


def _resonant_cycle(alpha: cmv.VerblunskyCycle, rng: np.random.Generator,
                    radius: float, theta: float) -> cmv.VerblunskyCycle:
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


DIRAC = Family(
    kind="dirac", target_name="lambda", point_name="energy",
    period_symbol="T", discriminant_name="discriminant",
    config_key="potential", row_hint="[[length, re, im], ...]",
    parse_row=lambda r: (float(r[0]), complex(float(r[1]), float(r[2]))),
    make=lambda segs: dirac.PiecewisePotential(segments=segs),
    entries=lambda phi: phi.segments,
    period=lambda phi: phi.period,
    # Perturbations preserve segment 0, so single-segment data is split
    # into two equal halves first (same operator, richer representation).
    prepare=lambda phi: phi.with_split(0) if len(phi.segments) == 1 else phi,
    disk_radius=lambda r: r,
    move=lambda seg, w: (seg[0], seg[1] + w),
    resonant=_resonant_potential,
    monodromy=lambda phi, lam: dirac.monodromy(phi, lam),
    discriminant=lambda phi, lam: dirac.discriminant(phi, lam),
    lyapunov=lambda phi, lams: dirac.lyapunov_profile(phi, lams),
    concat=dirac.concatenate,
    distance=dirac.sup_distance,
    grid=lambda R, n: np.linspace(-R, R, n),
    bands=lambda phi, R, tol, over: dirac.bands(phi, R, tol, oversample=over),
    bands_of_groups=lambda g, R, tol: dirac.bands_of_groups(g, R, tol),
    intervals=lambda spectrum: spectrum.intervals,
)

CMV = Family(
    kind="cmv", target_name="theta", point_name="angle", period_symbol="q",
    discriminant_name="CMV discriminant",
    config_key="verblunsky", row_hint="[[re, im], ...]",
    parse_row=lambda r: complex(float(r[0]), float(r[1])),
    make=lambda vals: cmv.VerblunskyCycle(values=vals),
    entries=lambda alpha: alpha.values,
    period=lambda alpha: alpha.q,
    # Entry 0 is preserved under perturbation, so a 1-cycle is doubled
    # first (same operator, richer representation).
    prepare=lambda alpha: alpha.repeated(2) if alpha.q == 1 else alpha,
    # geodesic offsets: Euclidean radius tanh(r) maps to hyperbolic radius r
    disk_radius=math.tanh,
    move=cmv.poincare_push,
    resonant=_resonant_cycle,
    monodromy=lambda alpha, theta: cmv.cmv_monodromy(alpha, theta),
    discriminant=lambda alpha, theta: cmv.cmv_discriminant(alpha, theta),
    lyapunov=lambda alpha, thetas: cmv.cmv_lyapunov_profile(alpha, thetas),
    concat=cmv.concatenate_cycles,
    distance=cmv.poincare_delta,
    grid=lambda R, n: np.linspace(0.0, TWO_PI, n, endpoint=False),
    bands=lambda alpha, R, tol, over: cmv.cmv_bands(alpha, tol),
    bands_of_groups=lambda g, R, tol: cmv.cmv_bands_of_groups(g, tol),
    intervals=lambda spectrum: spectrum.arcs,
)

FAMILIES = {fam.kind: fam for fam in (DIRAC, CMV)}


def _family(data: Data) -> Family:
    return DIRAC if isinstance(data, dirac.PiecewisePotential) else CMV


# ---------------------------------------------------------------------------
# Gap opening
# ---------------------------------------------------------------------------

def _disk_offset(rng: np.random.Generator, radius: float) -> complex:
    u = rng.uniform()
    v = rng.uniform()
    return complex(radius * math.sqrt(u) * np.exp(2j * math.pi * v))


def _moved(fam: Family, data: Data, moves) -> Data:
    """data with entry k moved by the disk offset w for each (k, w)."""
    entries = list(fam.entries(data))
    for k, w in moves:
        entries[k] = fam.move(entries[k], w)
    return fam.make(tuple(entries))


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
        k = 1 + int(rng.integers(len(fam.entries(base)) - 1))
        w = _disk_offset(rng, fam.disk_radius(eps / 2.0))
        data = _moved(fam, base, [(k, w)])
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
    n = len(fam.entries(base))
    radius = fam.disk_radius(eps / 2.0)
    for trial in range(budget.max_samples):
        if budget.resonant_proposals and trial % 2 == 0:
            partner = fam.resonant(base, rng, eps / 2.0, target)
        else:
            # independent offsets on every entry but the preserved first
            partner = _moved(fam, base, [(k, _disk_offset(rng, radius))
                                         for k in range(1, n)])
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
        elif not words_ok or su11.commutator_norm(M0, M1) <= COMMUTATOR_MIN:
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
    positivity threshold.  Verification is numerical: a fine grid plus
    margin, not a rigorous enclosure.  Returns members sharing a period
    that is a multiple of the data's; when the data itself already
    covers the window, the cover is [data].
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
    grid = fam.grid(R, COVER_GRID_POINTS)

    raw_members: list[Data] = []
    # Lyapunov rows are >= 0, so the -1 fill marks points no member covers
    best = np.full(grid.size, -1.0)
    common = 1

    base_row = fam.lyapunov(data, grid)
    if base_row.max() > KAPPA_THRESHOLD:
        raw_members.append(data)
        best = np.maximum(best, base_row)

    while True:
        worst = int(np.argmin(best))
        if best[worst] > KAPPA_THRESHOLD:
            break
        if len(raw_members) >= MAX_MEMBERS:
            raise BudgetExhausted(
                f"cover needs more than {MAX_MEMBERS} members; "
                f"worst uncovered {fam.point_name} {grid[worst]} with "
                f"max Lyapunov {best[worst]:.3e}")
        target = float(grid[worst])
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
        best = np.maximum(best, fam.lyapunov(member, grid))

    members = []
    for member in raw_members:
        reps = int(round(common * T / fam.period(member)))
        members.append(member.repeated(reps) if reps > 1 else member)
    return members


def cover_kappa(members: Sequence[Data], R: Optional[float] = None) -> float:
    """Grid minimax Lyapunov exponent over [-R, R] (Dirac) or the circle
    (CMV): min over the grid of the best member exponent."""
    fam = _family(members[0])
    grid = fam.grid(R, COVER_GRID_POINTS)
    rows = np.vstack([fam.lyapunov(mem, grid) for mem in members])
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
        intervals = FAMILIES[self.kind].intervals(self.spectrum)
        return {
            "kind": self.kind,
            "cover": [mem.rows for mem in self.cover],
            "kappa": self.kappa,
            "N": self.n_value,
            "N_hat": self.n_hat,
            "block_period": self.block_period,
            "schedule": list(self.schedule),
            "final_period": self.final_period,
            "spectrum": [list(iv) for iv in intervals],
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


def thin_spectrum(data: Data, R: Optional[float], eps: float, N: int,
                  seed: int, tol: float = 1e-8,
                  cover: Optional[Sequence[Data]] = None,
                  ) -> tuple[Data, ConstructionReport]:
    """Build period-NT data within eps of the data whose spectrum in
    [-R, R] (Dirac) or on the circle (CMV; R is ignored) is thin.

    The construction concatenates N_hat + 1 copies of each cover member
    at positions s_j = j (N_hat + 1) T' and fills the remainder with
    copies of the data, exactly as blocks of entries; N_hat is maximal
    with m (N_hat + 1) T' <= N T.
    """
    return _thin(data, R, eps, N, seed, tol, cover)


def cmv_thin_spectrum(alpha: cmv.VerblunskyCycle, eps: float, N: int,
                      seed: int, tol: float = 1e-8,
                      cover: Optional[Sequence[cmv.VerblunskyCycle]] = None,
                      ) -> tuple[cmv.VerblunskyCycle, ConstructionReport]:
    """Period-Nq Verblunsky data within eps of alpha (Poincare metric)
    whose spectrum has small angular measure."""
    return _thin(alpha, None, eps, N, seed, tol, cover)


def _thin(data, R, eps, N, seed, tol, cover):
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
    if N < n0:
        raise NTooSmall(f"N={N} below feasibility threshold N0={n0} "
                        f"(m={m}, {fam.period_symbol}'={Tp})")
    n_hat = N // (m * ratio) - 1
    groups = [(mem, n_hat + 1) for mem in members]
    remainder = N - m * (n_hat + 1) * ratio
    if remainder > 0:
        groups.append((data, remainder))
    result = fam.concat(block.repeated(reps) for block, reps in groups)
    if abs(fam.period(result) - N * T) > 1e-9 * max(1.0, N * T):
        raise NumericalAssertionError(
            f"assembled period {fam.period(result)} is not "
            f"N {fam.period_symbol} = {N * T}")
    distance = _distance(data, result)
    spectrum = fam.bands_of_groups(groups, R, tol)
    kappa = cover_kappa(members, R)
    schedule = tuple(float(j * (n_hat + 1) * Tp) for j in range(1, m + 1))
    report = ConstructionReport(
        kind=fam.kind, cover=tuple(members), kappa=kappa, n_value=N,
        n_hat=n_hat, block_period=float(Tp), schedule=schedule,
        final_period=float(N * T), spectrum=spectrum,
        measure=spectrum.measure, c1=kappa / (2.0 * m), epsilon=eps,
        distance=distance, seed=seed)
    return result, report


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
