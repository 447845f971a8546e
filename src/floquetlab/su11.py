"""Exact 2x2 complex matrix algebra on the group SU(1,1).

SU(1,1) = {M in SL(2,C) : M* j M = j} with j = diag(-1, 1) is the group
containing every real-energy transfer matrix produced by the dirac and
cmv modules.  This module supplies the group-level machinery those
modules share: membership defect, trace classification, Moebius action
on the disk, conjugation of elliptic elements to diagonal rotations,
the Cayley transform to SL(2,R), Cayley-Hamilton lower bounds used by
Gordon-type estimates, batched products of real-energy transfer
matrices stored as the pair (a, b) of [[a, b], [conj b, conj a]], the
band scan with its band sets, and a deterministic search for
hyperbolic elements in the semigroup generated by two elliptic matrices.

Outside the batched kernel, all matrices are 2x2 complex numpy arrays.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import (BandCountExceeded, CommutingInput, NonRealTrace,
                     NotElliptic, NotInGroup, WordNotFound)

# Membership and classification tolerances.  Transfer matrices are
# products of closed-form exponentials, so only rounding error accumulates.
GROUP_TOL = 1e-9
PARABOLIC_TOL = 1e-9

# The form j defining the group.
FORM_J = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

# Unitary Cayley transform: M in SU(1,1) iff CAYLEY_W* M CAYLEY_W in SL(2,R).
CAYLEY_W = -(1.0 / (1.0 + 1.0j)) * np.array([[1.0, -1.0j], [1.0, 1.0j]])

IDENTITY = np.eye(2, dtype=complex)

#: Point at infinity for the Moebius action, in the projective
#: convention [inf, 1] = [1, 0].
INF = complex(math.inf, 0.0)


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


def max_entry_norm(M) -> float:
    return float(np.max(np.abs(M)))


def det2(M) -> complex:
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def sl2_inverse(M) -> np.ndarray:
    """Inverse of a determinant-one matrix via the adjugate."""
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=complex)


def commutator_norm(A, B) -> float:
    return max_entry_norm(A @ B - B @ A)


def su11_defect(M) -> float:
    """max(||M* j M - j||, |det M - 1|); zero iff M lies in SU(1,1)."""
    M = np.asarray(M, dtype=complex)
    form = M.conj().T @ FORM_J @ M - FORM_J
    return max(max_entry_norm(form), abs(det2(M) - 1.0))


def _require_group(M) -> None:
    if not su11_defect(M) <= GROUP_TOL:     # a NaN defect fails too
        raise NotInGroup(f"su11_defect = {su11_defect(M):.3e} exceeds {GROUP_TOL}")


def real_trace(M, tol: float = GROUP_TOL) -> float:
    """Trace of an SU(1,1) matrix, asserted real within tolerance."""
    t = M[0, 0] + M[1, 1]
    if abs(t.imag) > tol * max(1.0, abs(t.real)):
        raise NotInGroup(f"trace {t} is not real within {tol}")
    return float(t.real)


@dataclass(frozen=True)
class Su11Class:
    """Trace classification of an SU(1,1) matrix.

    kind is one of "elliptic", "hyperbolic", "parabolic".  Elliptic
    matrices carry the angle theta in (0, pi) with 2 cos(theta) = trace;
    hyperbolic ones the real eigenvalue with modulus > 1; parabolic ones
    the sign of the trace (+1 or -1).
    """

    kind: str
    angle: Optional[float] = None
    multiplier: Optional[float] = None
    sign: Optional[int] = None

    @property
    def is_elliptic(self) -> bool:
        return self.kind == "elliptic"

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == "hyperbolic"

    @property
    def is_parabolic(self) -> bool:
        return self.kind == "parabolic"


def classify(M) -> Su11Class:
    """Classify an SU(1,1) matrix by its (real) trace.

    Traces within PARABOLIC_TOL of +-2 are reported parabolic; callers
    treat that as "needs perturbation".
    """
    _require_group(M)
    t = real_trace(M)
    if abs(abs(t) - 2.0) <= PARABOLIC_TOL:
        return Su11Class(kind="parabolic", sign=+1 if t > 0 else -1)
    if abs(t) < 2.0:
        return Su11Class(kind="elliptic", angle=math.acos(t / 2.0))
    lam = (t + math.copysign(math.sqrt(t * t - 4.0), t)) / 2.0
    return Su11Class(kind="hyperbolic", multiplier=lam)


def mobius_apply(M, z):
    """Moebius action of an invertible matrix on C union {inf}."""
    a, b = complex(M[0, 0]), complex(M[0, 1])
    c, d = complex(M[1, 0]), complex(M[1, 1])
    if z == INF or (isinstance(z, complex) and cmath.isinf(z)):
        if c == 0:
            return INF
        return a / c
    num = a * z + b
    den = c * z + d
    if den == 0:
        return INF
    return num / den


def disk_fixed_point(M) -> complex:
    """The unique fixed point in the open unit disk of an elliptic matrix.

    Solves c xi^2 + (d - a) xi - b = 0 and selects the root inside the
    disk.  For diagonal (rotation) input the fixed point is 0.  Requires
    trace strictly inside (-2, 2); hyperbolic and parabolic matrices
    have no disk fixed point.
    """
    _require_group(M)
    t = real_trace(M)
    if not abs(t) < 2.0:
        raise NotElliptic(f"trace {t} is not in (-2, 2)")
    a, b = complex(M[0, 0]), complex(M[0, 1])
    c, d = complex(M[1, 0]), complex(M[1, 1])
    if abs(c) < 1e-150:
        return 0.0j
    disc = (d - a) * (d - a) + 4.0 * b * c
    sq = cmath.sqrt(disc)
    r1 = ((a - d) + sq) / (2.0 * c)
    r2 = ((a - d) - sq) / (2.0 * c)
    xi = r1 if abs(r1) <= abs(r2) else r2
    if abs(xi) >= 1.0:
        raise NotElliptic(f"fixed point modulus {abs(xi):.6f} not inside disk")
    return xi


def conjugate_to_rotation(M) -> np.ndarray:
    """B in SU(1,1) with B M B^-1 diagonal, built from the disk fixed point.

    With xi the fixed point, B = (1 - |xi|^2)^(-1/2) [[1, -xi], [-conj(xi), 1]];
    its squared Hilbert-Schmidt norm is 2 (1 + |xi|^2) / (1 - |xi|^2).
    """
    xi = disk_fixed_point(M)
    s = 1.0 / math.sqrt(1.0 - abs(xi) ** 2)
    return mat2(s, -s * xi, -s * xi.conjugate(), s)


def hs_norm_sq(M) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm."""
    return float(np.sum(np.abs(M) ** 2))


def cayley_to_sl2r(M) -> np.ndarray:
    """Map SU(1,1) to SL(2,R): returns W* M W, which has real entries.

    Round trip: W (W* M W) W* = M since W is unitary.
    """
    _require_group(M)
    return CAYLEY_W.conj().T @ np.asarray(M, dtype=complex) @ CAYLEY_W


def gordon_lower_bounds(M, v) -> tuple[float, float]:
    """Cayley-Hamilton norm bounds for det-1 matrices.

    Returns (m3, m2) with m3 = max(||M^-1 v||, ||M v||, ||M^2 v||) and
    m2 = max(||M v||, ||M^2 v||).  For any M with det M = 1 these satisfy
    m3 >= ||v||/2 and m2 >= min(1, 1/|tr M|) ||v||/2.
    """
    M = np.asarray(M, dtype=complex)
    v = np.asarray(v, dtype=complex).reshape(2)
    Mv = M @ v
    M2v = M @ Mv
    Minv_v = sl2_inverse(M) @ v
    n = np.linalg.norm
    m3 = float(max(n(Minv_v), n(Mv), n(M2v)))
    m2 = float(max(n(Mv), n(M2v)))
    return m3, m2


# ---------------------------------------------------------------------------
# Batched products
# ---------------------------------------------------------------------------
#
# Every real-energy transfer matrix of both operator families has the
# form [[a, b], [conj b, conj a]] with |a|^2 - |b|^2 = 1, so a batch of
# them is stored as the two arrays a and b.  A product carries a log
# scale: the true matrix is (a, b) * exp(logscale), hence
# |a|^2 - |b|^2 = exp(-2 logscale) and |a| is the largest entry.

# Divide a product by |a| once |a| exceeds this.
RESCALE_AT = 1e150
# A product whose log-norm bound stays below this never reaches RESCALE_AT.
LOG_NO_RESCALE = math.log(RESCALE_AT) - 1.0
# Steps x points of one chunk of a step product: its arrays stay in cache.
CHUNK = 1 << 13
# Points per block of a grouped product: the stacked period products and
# powers of one block stay within a few CHUNK-sized arrays.
GROUP_POINTS = CHUNK >> 4
# Saturate reconstructed traces at exp(300) ~ 2e130.
LOG_SATURATE = 300.0
# Largest estimated trace error, relative to max(1, |trace|), accepted
# from the determinant defect of a finished product.
DEFECT_TOL = 1e-7


class Su11Batch(NamedTuple):
    """A batch of scaled SU(1,1) matrices (a, b) * exp(logscale)."""

    a: np.ndarray
    b: np.ndarray
    logscale: np.ndarray


def _rescale(P: Su11Batch) -> None:
    absa = np.abs(P.a)
    big = absa > RESCALE_AT
    if big.any():
        P.a[big] /= absa[big]
        P.b[big] /= absa[big]
        P.logscale[big] += np.log(absa[big])


def _product(a1: np.ndarray, b1: np.ndarray, a0: np.ndarray,
             b0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the products (a1, b1) @ (a0, b0):
    a1 a0 + b1 conj(b0) and a1 b0 + b1 conj(a0)."""
    # summed in place; no product is written over its own input, which
    # numpy rounds differently for a lone complex number
    na, nb = a1 * a0, a1 * b0
    na += b1 * b0.conj()
    nb += b1 * a0.conj()
    return na, nb


def batch_mul(P: Su11Batch, Q: Su11Batch) -> Su11Batch:
    """The products P @ Q, rescaled."""
    out = Su11Batch(*_product(P.a, P.b, Q.a, Q.b), P.logscale + Q.logscale)
    _rescale(out)
    return out


def _pairwise_product(a: np.ndarray, b: np.ndarray, rescale: bool) -> Su11Batch:
    # rows are steps in time order; each level multiplies neighbours, an
    # odd last row waits for the next level.  With rescale, each level
    # first rescales its rows and carries their log scales; without, no
    # partial product can reach RESCALE_AT, so skipping the rescales and
    # the log scales changes no bit.
    logscale = np.zeros(a.shape) if rescale else None
    while a.shape[0] > 1:
        if rescale:
            _rescale(Su11Batch(a, b, logscale))
        m = a.shape[0] // 2 * 2
        na, nb = _product(a[1:m:2], b[1:m:2], a[0:m:2], b[0:m:2])
        if m < a.shape[0]:
            na, nb = np.concatenate((na, a[m:])), np.concatenate((nb, b[m:]))
        if rescale:
            logscale = np.concatenate((logscale[1:m:2] + logscale[0:m:2],
                                       logscale[m:]))
        a, b = na, nb
    if not rescale:
        return Su11Batch(a[0], b[0], np.zeros(a.shape[1:]))
    P = Su11Batch(a[0], b[0], logscale[0])
    _rescale(P)
    return P


def batch_product(steps, nsteps: int, bound: np.ndarray) -> Su11Batch:
    """Ordered products of nsteps steps, the first step rightmost, with
    the shape of bound: its last axis indexes the n points, any leading
    axes the columns at each point.

    steps(lo, hi) returns the arrays a and b, shape (nsteps,) +
    bound.shape[:-1] + (hi - lo,), of the steps at points lo:hi.  bound
    bounds the log of each product's infinity norm, as the sum over its
    steps of log(|a| + |b|).  The points are taken in chunks of at most
    CHUNK steps x columns x points (at least one point); a chunk is
    reduced by products of neighbours, level by level, rescaled only
    where its bound reaches LOG_NO_RESCALE: below it no partial product
    can reach RESCALE_AT, so the result is the same to the bit.  A bound
    too small for the steps leaves overflowed products, which
    batch_trace rejects.
    """
    n = bound.shape[-1]
    width = max(1, CHUNK // (nsteps * math.prod(bound.shape[:-1])))

    def chunk(lo, hi):
        rescale = not np.max(bound[..., lo:hi], initial=-math.inf) < LOG_NO_RESCALE
        return _pairwise_product(*steps(lo, hi), rescale)

    return _joined([chunk(lo, min(lo + width, n))
                    for lo in range(0, max(n, 1), width)])


def _joined(parts: list[Su11Batch]) -> Su11Batch:
    # batches of consecutive points, joined along the points axis; a
    # single batch is returned as it is
    if len(parts) == 1:
        return parts[0]
    return Su11Batch(*(np.concatenate(x, axis=-1) for x in zip(*parts)))


def batch_power(P: Su11Batch, k: int) -> Su11Batch:
    """k-th powers, k >= 1."""
    # plain repeated multiplication for small powers: squaring can
    # amplify rounding error through ill-conditioned elliptic factors
    if k <= 8:
        out = P
        for _ in range(k - 1):
            out = batch_mul(P, out)
        return out
    out = None
    base = P
    while k:
        if k & 1:
            out = base if out is None else batch_mul(base, out)
        k >>= 1
        if k:
            base = batch_mul(base, base)
    return out


def batch_concat(batches: Iterable[Su11Batch]) -> Su11Batch:
    """Product of the batches, the first rightmost; they are consumed
    one at a time."""
    M = None
    for P in batches:
        M = P if M is None else batch_mul(P, M)
    return M


def grouped_product(groups, points: np.ndarray, nsteps, stack) -> Su11Batch:
    """Product of the powers P^reps of the period products P of (block,
    reps) groups at the points, the first group rightmost, with one
    period product per distinct block.

    stack(blocks) returns at(points) -> (steps, nsteps, bound), the
    arguments of batch_product with one column per block.  Single data,
    one (block, 1) group, is one batch_product over all the points.
    Otherwise distinct blocks (by content) with equal nsteps(block) are
    the columns of one batch_product; the points are taken in blocks of
    GROUP_POINTS; in each, every distinct (block, reps) power is
    computed once, and the powers are multiplied in group order.
    """
    if len(groups) == 1 and groups[0][1] == 1:
        P = batch_product(*stack([groups[0][0]])(points))
        return Su11Batch(*(x[0] for x in P))
    by_size: dict[int, list] = {}
    for block in dict.fromkeys(block for block, _ in groups):
        by_size.setdefault(nsteps(block), []).append(block)
    stacks = [(blocks, stack(blocks)) for blocks in by_size.values()]
    return _joined([_grouped_block(groups, stacks, points[lo:lo + GROUP_POINTS])
                    for lo in range(0, max(points.size, 1), GROUP_POINTS)])


def _grouped_block(groups, stacks, points: np.ndarray) -> Su11Batch:
    # the grouped product at one block of points, in a function of its
    # own so that its products are freed before the next block's
    period = {}
    for blocks, at in stacks:
        P = batch_product(*at(points))
        period.update((block, Su11Batch(*(x[k] for x in P)))
                      for k, block in enumerate(blocks))
    powers = {key: batch_power(period[key[0]], key[1])
              for key in dict.fromkeys(groups)}
    return batch_concat(powers[key] for key in groups)


def _trace_defect(P: Su11Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # scaled traces, their estimated error from the determinant defect,
    # and where that error is within DEFECT_TOL * max(1, |trace|)
    absa = np.abs(P.a)
    trace = 2.0 * P.a.real
    err = np.abs(absa * absa - np.abs(P.b) ** 2
                 - np.exp(-2.0 * P.logscale)) / (2.0 * absa)
    return trace, err, err <= DEFECT_TOL * np.maximum(1.0, np.abs(trace))


def screen_traces(P: Su11Batch) -> tuple[np.ndarray, np.ndarray]:
    """(traces, sound): the true traces, saturated, and where they are
    finite and pass the determinant-defect check of batch_trace.  For
    screens, which pass an unsound entry on instead of raising."""
    trace, _, sound = _trace_defect(P)
    traces = saturated(trace, P.logscale)
    return traces, sound & np.isfinite(traces)


def batch_trace(P: Su11Batch, points: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """(trace, logscale): the true trace is trace * exp(logscale).

    Raises NonRealTrace where the determinant defect of a product puts
    the estimated trace error | |a|^2 - |b|^2 - exp(-2 logscale) | / (2|a|)
    above DEFECT_TOL * max(1, |trace|); points labels the batch entries
    in the message.
    """
    trace, err, sound = _trace_defect(P)
    bad = ~sound
    if bad.any():
        i = int(np.argmax(bad))
        raise NonRealTrace(
            f"trace {trace[i]:.6e} (scaled by exp({P.logscale[i]:.6g})) at "
            f"{points[i]!r} has estimated error {err[i]:.3e} from the "
            f"determinant defect")
    return trace, P.logscale


def saturated(trace: np.ndarray, logscale: np.ndarray) -> np.ndarray:
    """True traces, saturated near exp(LOG_SATURATE)."""
    return trace * np.exp(np.minimum(logscale, LOG_SATURATE))


def log_spectral_radius(trace: np.ndarray, logscale: np.ndarray) -> np.ndarray:
    """log of the larger eigenvalue modulus; zero where |trace| <= 2."""
    absD_log = np.log(np.maximum(np.abs(trace), 1e-300)) + logscale
    out = np.zeros(trace.size)
    big = absD_log > math.log(1e15)
    mid = ~big & (absD_log > math.log(2.0) - 1e-12)
    if mid.any():
        D = np.abs(trace[mid]) * np.exp(logscale[mid])
        D = np.maximum(D, 2.0)
        out[np.flatnonzero(mid)] = np.log((D + np.sqrt(D * D - 4.0)) / 2.0)
    if big.any():
        out[np.flatnonzero(big)] = absD_log[big]
    return np.maximum(out, 0.0)


def bisect_band_edges(profile, lo: np.ndarray, hi: np.ndarray,
                      spacing: float, tol: float) -> np.ndarray:
    """Band edges to within tol, bisected between points lo inside the
    spectrum (|profile| <= 2) and points hi outside it, at most spacing
    apart; all brackets share one profile call per step."""
    niter = max(int(math.ceil(math.log2(max(spacing / tol, 2.0)))) + 2, 4)
    for _ in range(niter):
        mid = 0.5 * (lo + hi)
        inside_mid = np.abs(profile(mid)) <= 2.0
        lo = np.where(inside_mid, mid, lo)
        hi = np.where(inside_mid, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BandSet:
    """Sorted disjoint closed intervals: the bands of a spectrum in a
    window, or its arcs on the circle (cmv.ArcSet), from scan_bands."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))


def scan_bands(profile, points: np.ndarray, tol: float,
               bound: int) -> tuple[tuple[float, float], ...]:
    """Connected components of {|profile| <= 2} in [points[0], points[-1]],
    sorted, with edges to within tol.

    points is a closed, increasing grid: the cells [points[i],
    points[i+1]] tile the interval.  The profile is evaluated once at
    points; a cell whose two ends differ in membership holds one band
    edge, bisected on the cell, and a band holding an end of the
    interval is clipped there.  A gap no wider than a cell whose
    midpoint has |profile| within 1e-10 of 2 is numerically closed and
    merged.  Bands narrower than a cell can be missed.  Raises
    BandCountExceeded when more than bound bands remain.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    inside = np.abs(profile(points)) <= 2.0
    width = float(np.max(np.diff(points)))
    idx = np.flatnonzero(inside[:-1] != inside[1:])
    exits = inside[idx]                      # inside -> outside edges
    edges = np.empty(0)
    if idx.size:
        lo = np.where(exits, points[idx], points[idx + 1])    # inside end
        hi = np.where(exits, points[idx + 1], points[idx])    # outside end
        edges = bisect_band_edges(profile, lo, hi, width, tol)

    # a band starts at an outside -> inside edge (or at the interval
    # start) and ends at the next inside -> outside edge (or at its end)
    starts = ([float(points[0])] if inside[0] else []) + edges[~exits].tolist()
    ends = edges[exits].tolist() + ([float(points[-1])] if inside[-1] else [])
    merged: list[tuple[float, float]] = []
    for a, b in zip(starts, ends):
        if not b > a:
            continue
        if merged and a - merged[-1][1] <= width:
            mid = 0.5 * (a + merged[-1][1])
            if abs(float(profile(np.array([mid]))[0])) <= 2.0 + 1e-10:
                merged[-1] = (merged[-1][0], b)
                continue
        merged.append((a, b))
    if len(merged) > bound:
        raise BandCountExceeded(
            f"{len(merged)} bands exceed the Floquet bound {bound}")
    return tuple(merged)


# ---------------------------------------------------------------------------
# Semigroup word search
# ---------------------------------------------------------------------------

# Most alternating power blocks in a word of the exhaustive search phase.
MAX_RUNS = 8
# Most matrix products one word search evaluates.
MAX_NODES = 400_000


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the hyperbolic-word search.

    word_lengths is the set of admissible total word lengths, counting
    letters with multiplicity (the cover builder admits divisors of a
    common block count so member periods match without an lcm blow-up);
    a word is accepted when its trace passes accepts.
    """

    word_lengths: frozenset[int] = frozenset(range(1, 25))
    trace_margin: float = 0.05
    trace_cap: float = math.inf

    def accepts(self, trace: float) -> bool:
        return 2.0 + self.trace_margin < abs(trace) <= self.trace_cap


@dataclass(frozen=True)
class SemigroupWord:
    """A positive word in two generators, stored as alternating runs.

    runs are (letter, count) pairs in time order, letter 0 for the first
    generator and 1 for the second.  The evaluated product applies the
    first run rightmost, matching the monodromy of the corresponding
    block concatenation.
    """

    runs: tuple[tuple[int, int], ...]
    matrix: np.ndarray = field(repr=False)
    trace: float

    @property
    def length(self) -> int:
        return sum(k for _, k in self.runs)

    def evaluate(self, A, B) -> np.ndarray:
        gens = (np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))
        M = IDENTITY
        for letter, count in self.runs:
            M = np.linalg.matrix_power(gens[letter], count) @ M
        return M

    def verify(self, A, B, tol: float = 1e-8) -> bool:
        return max_entry_norm(self.evaluate(A, B) - self.matrix) <= tol

    def label(self) -> str:
        return " ".join(f"{'AB'[letter]}^{count}" for letter, count in self.runs)


def _as_tuple(M) -> tuple[complex, complex, complex, complex]:
    return (complex(M[0, 0]), complex(M[0, 1]), complex(M[1, 0]), complex(M[1, 1]))


def _mul(p, q):
    # p @ q on flattened 2x2 tuples
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


def _tuple_to_mat(p) -> np.ndarray:
    return np.array([[p[0], p[1]], [p[2], p[3]]])


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # the parts - 1 cut points in lexicographic order give the
    # compositions in lexicographic order
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def _word_product(runs, powers):
    # first run rightmost
    m = powers[runs[0][0]][runs[0][1]]
    for letter, count in runs[1:]:
        m = _mul(powers[letter][count], m)
    return m


def _is_real(trace: complex) -> bool:
    return abs(trace.imag) <= 1e-9 * max(1.0, abs(trace.real))


def hyperbolic_in_semigroup(A, B, budget: Optional[SearchBudget] = None) -> SemigroupWord:
    """Find a positive word in (A, B) whose product is hyperbolic.

    A and B must be elliptic SU(1,1) matrices.  The search enumerates all
    alternating power words in increasing total length; every power A^n
    is an admissible run, so the inverse-approximating powers A^(q-1)
    that make the semigroup equal the group closure are included
    automatically.  A fast first phase checks two-run words A^a B^b and
    their repetitions, which amplify any hyperbolicity multiplicatively.

    Raises CommutingInput when ||[A, B]|| is below tolerance (no
    hyperbolic element need exist) and WordNotFound when the budget is
    exhausted; neither certifies nonexistence.
    """
    budget = budget or SearchBudget()
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    for name, M in (("A", A), ("B", B)):
        cls = classify(M)
        if not cls.is_elliptic:
            raise NotElliptic(f"generator {name} is {cls.kind}, need elliptic")
    if commutator_norm(A, B) <= GROUP_TOL:
        raise CommutingInput("generators commute within tolerance")

    lengths = budget.word_lengths
    L = max(lengths, default=0)

    # powers[letter][k] = letter^k as flattened tuples, k = 0..L
    powers = []
    for gen in (A, B):
        p = [(1 + 0j, 0j, 0j, 1 + 0j)]
        t = _as_tuple(gen)
        for _ in range(L):
            p.append(_mul(p[-1], t))
        powers.append(p)

    nodes = 0

    # Phase 1: A^a B^b and repetitions (A^a B^b)^r.
    for base_len in range(2, L + 1):
        for a in range(1, base_len):
            b = base_len - a
            w = _mul(powers[1][b], powers[0][a])
            nodes += 1
            t = w[0] + w[3]
            if not _is_real(t) or abs(t.real) <= 2.0:
                continue
            # hyperbolic seed; repetitions amplify |trace| = 2 cosh(r nu)
            nu = math.acosh(min(abs(t.real) / 2.0, 1e15))
            for r in range(1, L // base_len + 1):
                if r * base_len not in lengths:
                    continue
                if 2.0 * math.cosh(r * nu) > 2.0 + budget.trace_margin:
                    runs = tuple(((0, a), (1, b)) * r)
                    m = _word_product(runs, powers)
                    trace = m[0] + m[3]
                    if _is_real(trace) and budget.accepts(trace.real):
                        return SemigroupWord(runs=runs, matrix=_tuple_to_mat(m),
                                             trace=float(trace.real))
                    if abs(trace.real) > budget.trace_cap:
                        break
            if nodes >= MAX_NODES:
                raise WordNotFound(f"budget {MAX_NODES} nodes exhausted")

    # Phase 2: exhaustive enumeration of alternating power words by length.
    for total in range(1, L + 1):
        if total not in lengths:
            continue
        for nruns in range(1, min(MAX_RUNS, total) + 1):
            for comp in _compositions(total, nruns):
                for start in (0, 1):
                    runs = tuple(((start + i) % 2, k) for i, k in enumerate(comp))
                    m = _word_product(runs, powers)
                    nodes += len(runs)
                    trace = m[0] + m[3]
                    if _is_real(trace) and budget.accepts(trace.real):
                        return SemigroupWord(runs=runs, matrix=_tuple_to_mat(m),
                                             trace=float(trace.real))
                    if nodes >= MAX_NODES:
                        raise WordNotFound(f"budget {MAX_NODES} nodes exhausted")
    raise WordNotFound(
        f"no hyperbolic word within length {L}, runs {MAX_RUNS}, "
        f"margin {budget.trace_margin}")
