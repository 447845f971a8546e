"""Exact 2x2 complex matrix algebra on the group SU(1,1).

SU(1,1) = {M in SL(2,C) : M* j M = j} with j = diag(-1, 1) is the group
containing every real-energy transfer matrix produced by the dirac and
cmv modules.  This module supplies the group-level machinery those
modules share: membership defect, trace classification, Moebius action
on the disk, conjugation of elliptic elements to diagonal rotations,
the Cayley transform to SL(2,R), Cayley-Hamilton lower bounds used by
Gordon-type estimates, batched products of real-energy transfer
matrices stored as the pair (a, b) of [[a, b], [conj b, conj a]], and a
deterministic search for hyperbolic elements in the semigroup generated
by two elliptic matrices.

Outside the batched kernel, all matrices are 2x2 complex numpy arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import (CommutingInput, NonRealTrace, NotElliptic, NotInGroup,
                     WordNotFound)

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
# Steps x points of one chunk of a step product: its arrays stay in cache.
CHUNK = 1 << 13
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


def _mul_unscaled(P: Su11Batch, Q: Su11Batch) -> Su11Batch:
    return Su11Batch(P.a * Q.a + P.b * Q.b.conj(), P.a * Q.b + P.b * Q.a.conj(),
                     P.logscale + Q.logscale)


def batch_mul(P: Su11Batch, Q: Su11Batch) -> Su11Batch:
    """The products P @ Q, rescaled."""
    out = _mul_unscaled(P, Q)
    _rescale(out)
    return out


def _pairwise_product(a: np.ndarray, b: np.ndarray) -> Su11Batch:
    # rows are steps in time order; each level rescales the rows and
    # multiplies neighbours, an odd last row waits for the next level
    P = Su11Batch(a, b, np.zeros(a.shape))
    while P.a.shape[0] > 1:
        _rescale(P)
        m = P.a.shape[0] // 2 * 2
        Q = _mul_unscaled(Su11Batch(*(x[1:m:2] for x in P)),
                          Su11Batch(*(x[0:m:2] for x in P)))
        if m < P.a.shape[0]:
            Q = Su11Batch(*(np.concatenate((x, y[m:])) for x, y in zip(Q, P)))
        P = Q
    P = Su11Batch(*(x[0] for x in P))
    _rescale(P)
    return P


def batch_product(steps, nsteps: int, n: int) -> Su11Batch:
    """Ordered products of nsteps steps at n points, the first step rightmost.

    steps(lo, hi) returns the arrays a and b, shape (nsteps, hi - lo), of
    the steps at points lo:hi.  The points are taken in chunks of at
    most CHUNK steps x points (at least one point); a chunk is reduced by
    products of neighbours, level by level.
    """
    width = max(1, CHUNK // nsteps)
    parts = [_pairwise_product(*steps(lo, min(lo + width, n)))
             for lo in range(0, max(n, 1), width)]
    if len(parts) == 1:
        return parts[0]
    return Su11Batch(*(np.concatenate(x) for x in zip(*parts)))


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


def batch_concat(groups: Iterable[tuple[Su11Batch, int]]) -> Su11Batch:
    """Product of the powers P^k of (P, k) groups, the first group
    rightmost; groups are consumed one at a time."""
    M = None
    for P, k in groups:
        P = batch_power(P, k)
        M = P if M is None else batch_mul(P, M)
    return M


def batch_trace(P: Su11Batch, points: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """(trace, logscale): the true trace is trace * exp(logscale).

    Raises NonRealTrace where the determinant defect of a product puts
    the estimated trace error | |a|^2 - |b|^2 - exp(-2 logscale) | / (2|a|)
    above DEFECT_TOL * max(1, |trace|); points labels the batch entries
    in the message.
    """
    absa = np.abs(P.a)
    trace = 2.0 * P.a.real
    err = np.abs(absa * absa - np.abs(P.b) ** 2
                 - np.exp(-2.0 * P.logscale)) / (2.0 * absa)
    bad = ~(err <= DEFECT_TOL * np.maximum(1.0, np.abs(trace)))
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
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
