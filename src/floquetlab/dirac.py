"""Floquet engine for periodic Dirac operators with piecewise-constant data.

The operator acts on C^2-valued functions as -i j d/dx + off-diagonal
data phi; its transfer matrix across a constant segment is an exact
2x2 matrix exponential, so band structure, Lyapunov exponents and the
density of states are computed without any ODE-solver error.  All
potentials are piecewise constant: every construction used elsewhere in
the package concatenates finitely many such blocks exactly, and other
data can be ingested by sampling (the induced band-edge error is
bounded by the sup-norm sampling error).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import su11
from .errors import NotElliptic, NotInBandInterior

# Refuse density-of-states evaluation when |D| is this close to 2.
DOS_EDGE_MARGIN = 1e-6
# Gauss-Legendre nodes per segment of the density-of-states period average.
DOS_NODES_PER_SEGMENT = 24
# Segment boundaries closer than this fraction of the span are one
# boundary (sup_distance, gordon_sup).
SAME_CUT = 1e-12


class PiecewisePotential:
    """Periodic operator data: ordered segments of constant value.

    Held as two read-only arrays, lengths (float64) and values
    (complex128); segments is a tuple of (length, value) pairs built on
    each access.  The period is the sum of the segment lengths,
    accumulated in order so it is reproducible bit for bit.  The sup
    norm is the largest modulus.  Equal data compares and hashes equal.
    """

    def __init__(self, segments: Iterable[tuple[float, complex]]):
        pairs = tuple(segments)
        if not pairs:
            raise ValueError("potential needs at least one segment")
        lengths = np.array([length for length, _ in pairs], dtype=float)
        bad = lengths[~(lengths > 0)]
        if bad.size:
            raise ValueError(f"segment length {float(bad[0])} must be positive")
        self._hold(lengths, np.array([v for _, v in pairs], dtype=complex))

    @classmethod
    def _of(cls, lengths: np.ndarray, values: np.ndarray) -> "PiecewisePotential":
        """The potential holding these arrays as they are: no copy, no
        check.  The arrays become read-only and may be shared."""
        phi = cls.__new__(cls)
        phi._hold(lengths, values)
        return phi

    def _hold(self, lengths: np.ndarray, values: np.ndarray) -> None:
        lengths.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("PiecewisePotential is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.lengths.tobytes(), (self.values + 0.0).tobytes()))

    def __repr__(self):
        return f"PiecewisePotential(segments={self.segments!r})"

    @classmethod
    def constant(cls, value, period: float = 1.0) -> "PiecewisePotential":
        return cls(segments=((float(period), complex(value)),))

    @classmethod
    def free(cls, period: float = 1.0) -> "PiecewisePotential":
        return cls.constant(0.0, period)

    @classmethod
    def from_values(cls, lengths: Sequence[float], values: Sequence[complex]) -> "PiecewisePotential":
        if len(lengths) != len(values):
            raise ValueError("lengths and values differ in size")
        return cls(segments=zip(lengths, values))

    @classmethod
    def sample(cls, fn, period: float, n: int) -> "PiecewisePotential":
        """Ingest continuous data by midpoint sampling on n equal segments.

        The induced band-edge error is bounded by the sup-norm sampling
        error through the Hausdorff perturbation bound.
        """
        if n < 1:
            raise ValueError("need at least one sample")
        h = period / n
        return cls(segments=tuple((h, complex(fn((i + 0.5) * h)))
                                  for i in range(n)))

    @property
    def segments(self) -> tuple[tuple[float, complex], ...]:
        return tuple(zip(self.lengths.tolist(), self.values.tolist()))

    @cached_property
    def period(self) -> float:
        # cumsum adds in order, as a loop would; np.sum is pairwise
        return float(np.cumsum(self.lengths)[-1])

    @cached_property
    def boundaries(self) -> np.ndarray:
        return _boundaries(self.lengths)

    @cached_property
    def rows(self) -> list[list[float]]:
        """[length, Re value, Im value] per segment, the rows of configs
        and reports; built once, so every report of this potential
        shares them: read-only."""
        return [[l, v.real, v.imag] for l, v in self.segments]

    @property
    def sup_norm(self) -> float:
        # Python abs: numpy's complex modulus can differ in the last bit
        return max(map(abs, self.values.tolist()))

    def value_at(self, x: float) -> complex:
        if not math.isfinite(x):
            raise ValueError(f"point {x} is not finite")
        return values_at(self, self.boundaries, np.float64(x)).item()

    def repeated(self, n: int) -> "PiecewisePotential":
        if n < 1:
            raise ValueError("repetition count must be >= 1")
        return PiecewisePotential._of(np.tile(self.lengths, n),
                                      np.tile(self.values, n))

    def with_value(self, k: int, value) -> "PiecewisePotential":
        values = self.values.copy()
        values[k] = complex(value)
        return PiecewisePotential._of(self.lengths, values)

    def with_offsets(self, k: int, offsets) -> "PiecewisePotential":
        """Values k, k+1, ... moved by the offsets, one each."""
        values = self.values.copy()
        values[k:k + len(offsets)] += offsets
        return PiecewisePotential._of(self.lengths, values)

    def with_split(self, k: int) -> "PiecewisePotential":
        """Split segment k into two halves of the same value."""
        k = range(self.lengths.size)[k]
        lengths = np.insert(self.lengths, k, self.lengths[k] / 2.0)
        lengths[k + 1] = lengths[k]
        return PiecewisePotential._of(lengths,
                                      np.insert(self.values, k, self.values[k]))


def _boundaries(lengths: np.ndarray) -> np.ndarray:
    """Segment boundaries from 0 to the period, accumulated in order."""
    b = np.zeros(lengths.size + 1)
    np.cumsum(lengths, out=b[1:])
    return b


def values_at(p: PiecewisePotential, boundaries: np.ndarray, xs):
    """The values of the periodic extension of p at the points xs: each
    x, reduced modulo the period, takes the last segment that starts at
    or before it.  boundaries are the segment boundaries of p."""
    u = xs - np.floor(xs / p.period) * p.period
    k = np.searchsorted(boundaries, u, side="right") - 1
    return p.values[np.clip(k, 0, p.values.size - 1)]


def concatenate(potentials: Iterable[PiecewisePotential]) -> PiecewisePotential:
    """The blocks one after another; a single block is returned as it is."""
    blocks = list(potentials)
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        raise ValueError("potential needs at least one segment")
    return PiecewisePotential._of(np.concatenate([p.lengths for p in blocks]),
                                  np.concatenate([p.values for p in blocks]))


def cell_midpoints(cuts, span: float) -> np.ndarray:
    """Midpoints of the cells into which the cut 0 and the cuts, all in
    [0, span), divide [0, span].

    Cuts that agree to SAME_CUT times the span count as one cut: a cut
    placed at k T + b and the cumulative sum of the same segments differ
    by rounding, and the midpoint of the sliver between them would look
    up neighbouring segments.  Assumes no segment is shorter than
    SAME_CUT times the span.
    """
    cuts = np.sort(np.concatenate(([0.0], cuts, [span])))
    cuts = cuts[np.append(True, np.diff(cuts) > SAME_CUT * span)]
    return (cuts[:-1] + cuts[1:]) / 2.0


def _cuts(p: PiecewisePotential, boundaries: np.ndarray, s: float,
          span: float) -> np.ndarray:
    """The segment cuts of x -> p(x + s) in (0, span): the points
    b + k T - s there, for b a segment start of p (boundaries are its
    segment boundaries) and T its period."""
    T = p.period
    ks = np.arange(math.floor(s / T) - 1, math.ceil((s + span) / T) + 2)
    x = (boundaries[:-1] + (ks * T)[:, None] - s).ravel()
    return x[(0.0 < x) & (x < span)]


def sup_distance(p1: PiecewisePotential, p2: PiecewisePotential) -> float:
    """Exact sup-norm distance between two periodic piecewise potentials.

    Requires commensurate periods (one an integer multiple of the other).
    Segment boundaries that agree to rounding are one boundary
    (cell_midpoints), so equal operators are at distance 0 however each
    is repeated.
    """
    span = max(p1.period, p2.period)
    ratio1, ratio2 = span / p1.period, span / p2.period
    if abs(ratio1 - round(ratio1)) > 1e-9 or abs(ratio2 - round(ratio2)) > 1e-9:
        raise ValueError("periods are not commensurate")
    # boundaries built here, not the cached p.boundaries, which would
    # keep an array alive with every measured cover member
    pieces = [(p, _boundaries(p.lengths)) for p in (p1, p2)]
    mids = cell_midpoints(np.concatenate(
        [_cuts(p, bounds, 0.0, span) for p, bounds in pieces]), span)
    values = [values_at(p, bounds, mids) for p, bounds in pieces]
    # Python abs: numpy's complex modulus can differ in the last bit
    return max(map(abs, (values[0] - values[1]).tolist()), default=0.0)


def gordon_sup(p: PiecewisePotential, q: float) -> float:
    """The largest mismatch |p(x -+ q) - p(x)| of p with its two
    q-translates, exact: one value per cell of the segment cuts of the
    three in [0, q) (cell_midpoints); zero when q is a period of p."""
    bounds = p.boundaries
    mids = cell_midpoints(np.concatenate(
        [_cuts(p, bounds, s, q) for s in (0.0, q, -q)]), q)
    v = values_at(p, bounds, mids)
    diffs = np.concatenate((values_at(p, bounds, mids - q) - v,
                            values_at(p, bounds, mids + q) - v))
    # Python abs: numpy's complex modulus can differ in the last bit
    return max(map(abs, diffs.tolist()), default=0.0)


# ---------------------------------------------------------------------------
# Transfer matrices
# ---------------------------------------------------------------------------

def _cosh_sinhc(w: complex) -> tuple[complex, complex]:
    # cosh(sqrt(w)) and sinh(sqrt(w))/sqrt(w): even functions of sqrt(w),
    # so the branch of the square root is irrelevant.
    if abs(w) < 1e-12:
        return 1.0 + w / 2.0 + w * w / 24.0, 1.0 + w / 6.0 + w * w / 120.0
    s = cmath.sqrt(w)
    return cmath.cosh(s), cmath.sinh(s) / s


def step_matrix(c, z, length: float) -> np.ndarray:
    """Transfer matrix exp(length * [[-iz, ic], [-i conj(c), iz]]).

    Closed form cosh(l mu) I + (sinh(l mu)/mu) B with mu^2 = |c|^2 - z^2,
    evaluated through functions of mu^2 only; det = 1 up to rounding.
    """
    if not length > 0:
        raise ValueError("segment length must be positive")
    c = complex(c)
    z = complex(z)
    w = length * length * (abs(c) ** 2 - z * z)
    ch, shc = _cosh_sinhc(w)
    e = length * shc
    return np.array(
        [[ch - 1j * z * e, 1j * c * e], [-1j * c.conjugate() * e, ch + 1j * z * e]]
    )


def transfer(phi: PiecewisePotential, x: float, y: float, z) -> np.ndarray:
    """Propagator A_z(y, x): ordered product of segment steps over [x, y].

    For y < x this is the inverse of the forward propagator; the cocycle
    identity A_z(y, x) = A_z(y, t) A_z(t, x) holds to rounding error.
    """
    if y == x:
        return su11.IDENTITY.copy()
    if y < x:
        return su11.sl2_inverse(transfer(phi, y, x, z))
    T = phi.period
    shift = math.floor(x / T) * T
    x0, y0 = x - shift, y - shift
    bounds = _boundaries(phi.lengths)
    values = phi.values.tolist()
    nseg = len(values)
    per = int(x0 // T)
    u = x0 - per * T
    seg = min(max(int(np.searchsorted(bounds, u, side="right")) - 1, 0), nseg - 1)
    M = su11.IDENTITY.copy()
    pos = x0
    while True:
        seg_end = per * T + bounds[seg + 1]
        upper = min(seg_end, y0)
        dt = upper - pos
        if dt > 0:
            M = step_matrix(values[seg], z, dt) @ M
        if upper >= y0:
            return M
        pos = seg_end
        seg += 1
        if seg == nseg:
            seg = 0
            per += 1


def monodromy(phi: PiecewisePotential, z, base: float = 0.0) -> np.ndarray:
    """Transfer over one full period starting at the given base point."""
    return transfer(phi, base, base + phi.period, z)


# ---------------------------------------------------------------------------
# Discriminant and band structure
# ---------------------------------------------------------------------------

def _real_cosh_sinhc(nw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_cosh_sinhc elementwise at real w = -nw: cosh and sinh where w > 0,
    cos and sin where w < 0, the series where |w| < 1e-12."""
    s = np.sqrt(np.abs(nw))
    hyp = nw < 0.0
    ell = ~hyp
    ch = np.cos(s, out=np.empty_like(s), where=ell)
    sh = np.sin(s, out=np.empty_like(s), where=ell)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.cosh(s, out=ch, where=hyp)
        np.sinh(s, out=sh, where=hyp)
        shc = sh / s
    small = np.abs(nw) < 1e-12
    if small.any():
        w = -nw[small]
        ch[small] = 1.0 + w / 2.0 + w * w / 24.0
        shc[small] = 1.0 + w / 6.0 + w * w / 120.0
    return ch, shc


def _stepper(lengths: np.ndarray, values: np.ndarray):
    """step(lam): the segment steps a = ch - i lam e, b = i c e with
    e = length sinh(sqrt(w))/sqrt(w) and w = length^2 (|c|^2 - lam^2),
    of the (segment, column) arrays lengths and values at the real
    energies lam (broadcast against the columns)."""
    l2 = lengths * lengths
    c2 = np.abs(values) ** 2

    def step(lam):
        ch, shc = _real_cosh_sinhc(l2 * (lam * lam - c2))
        e = lengths * shc
        a = np.empty(e.shape, dtype=complex)
        a.real = ch
        np.multiply(e, -lam, out=a.imag)
        return a, (1j * values) * e

    return step


def _norm_bound(lengths: np.ndarray, values: np.ndarray):
    """bound(lam): a bound on the log infinity norm of the product of the
    segment steps, per column of the (segment, column) arrays lengths
    and values, at the real energies lam (broadcast against the
    columns): each step has log(|a| + |b|) <= length (|lam| + 2|c|)."""
    period = lengths.sum(axis=0)
    offset = 2.0 * (lengths * np.abs(values)).sum(axis=0)
    return lambda lam: period * np.abs(lam) + offset


def _stack(blocks: Sequence[PiecewisePotential]):
    """at(lams) -> (steps, bound): the batch_product arguments of the
    period products of the blocks at the real energies lams, one column
    per block.  Shorter blocks are padded with zero-length segments,
    whose steps are the identity."""
    nseg = max(block.lengths.size for block in blocks)
    lengths = np.zeros((nseg, len(blocks), 1))
    values = np.zeros((nseg, len(blocks), 1), dtype=complex)
    for j, block in enumerate(blocks):
        lengths[:block.lengths.size, j, 0] = block.lengths
        values[:block.values.size, j, 0] = block.values
    step = _stepper(lengths, values)
    bound = _norm_bound(lengths, values)
    return lambda lams: (lambda lo, hi: step(lams[lo:hi]), bound(lams))


def _period_product(phi: PiecewisePotential, lams: np.ndarray) -> su11.Su11Batch:
    """One-period products at real energies."""
    steps, bound = _stack([phi])(lams)
    P = su11.batch_product(steps, phi.lengths.size, bound)
    return su11.Su11Batch(*(x[0] for x in P))


def monodromies(potentials: Sequence[PiecewisePotential],
                lam: float) -> su11.Su11Batch:
    """Monodromies of several potentials at one real energy, one column
    each; shorter potentials are padded with identity steps (_stack)."""
    steps, bound = _stack(potentials)(np.array([lam], dtype=float))
    P = su11.batch_product(steps, max(p.lengths.size for p in potentials),
                           bound)
    return su11.Su11Batch(*(x[:, 0] for x in P))


def _trace_profile(phi: PiecewisePotential, lams) -> tuple[np.ndarray, np.ndarray]:
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return su11.batch_trace(_period_product(phi, lams), lams)


def grouped_trace_profile(groups: Sequence[tuple[PiecewisePotential, int]],
                          lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monodromy traces of a concatenation given as (block, repetitions)
    groups, as (trace, logscale) with true trace = trace * exp(logscale).

    One period product per distinct block (su11.grouped_product):
    distinct blocks of one segment count are stacked as the columns of
    one batch product, energy block by energy block, and each distinct
    (block, repetitions) power is computed once (binary powers above 8
    repetitions)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return su11.batch_trace(su11.grouped_product(
        groups, lams, lambda phi: phi.lengths.size, _stack), lams)


def discriminant_profile(phi: PiecewisePotential, lams) -> np.ndarray:
    """Real discriminant values over an energy grid, saturated near 1e130."""
    return su11.saturated(*_trace_profile(phi, lams))


def grouped_discriminant_profile(groups, lams) -> np.ndarray:
    return su11.saturated(*grouped_trace_profile(groups, lams))


def discriminant(phi: PiecewisePotential, lam: float) -> float:
    """Trace of the monodromy at real energy."""
    return float(discriminant_profile(phi, [lam])[0])


def band_count_bound(phi: PiecewisePotential, R: float) -> int:
    """Upper bound on the number of bands meeting [-R, R]."""
    return _band_count_bound(phi.period, phi.sup_norm, R)


def _band_count_bound(period: float, sup: float, R: float) -> int:
    return int(math.floor(2.0 * ((period / math.pi) * (R + sup) + 1.0)))


@dataclass(frozen=True)
class BandSet:
    """Sorted disjoint closed intervals: a spectrum clipped to [-R, R]."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))


def bands(phi: PiecewisePotential, R: float, tol: float,
          oversample: float = 1.0) -> BandSet:
    """Connected components of {|D| <= 2} in [-R, R], edges to within tol.

    Scans a grid dense enough to give several samples per band, then
    bisects each inside/outside bracket on band membership.  Gaps
    narrower than the grid spacing whose midpoint discriminant is within
    1e-10 of +-2 are treated as closed and merged.  oversample densifies
    the scan grid beyond the default band-count heuristic; bands thinner
    than the grid spacing are otherwise missed.
    """
    return _scan_bands(lambda xs: discriminant_profile(phi, xs),
                       phi.period, phi.sup_norm, R, tol, oversample)


def bands_of_groups(groups: Sequence[tuple[PiecewisePotential, int]],
                    R: float, tol: float) -> BandSet:
    """bands() for a concatenation given as (block, repetitions) groups,
    evaluated through the grouped profile for speed."""
    period = sum(block.period * reps for block, reps in groups)
    sup = max(block.sup_norm for block, _ in groups)
    return _scan_bands(lambda xs: grouped_discriminant_profile(groups, xs),
                       period, sup, R, tol, 1.0)


def _scan_bands(profile, period: float, sup: float, R: float, tol: float,
                oversample: float) -> BandSet:
    spacing0 = math.pi / (8.0 * period * (1.0 + sup) * max(oversample, 1.0))
    npts = max(int(math.ceil(2.0 * R / spacing0)) + 1, 9)
    grid = np.linspace(-R, R, npts)
    return BandSet(intervals=su11.scan_bands(
        profile, grid, tol, _band_count_bound(period, sup, R)))


# ---------------------------------------------------------------------------
# Lyapunov and Floquet exponents
# ---------------------------------------------------------------------------

def lyapunov_profile(phi: PiecewisePotential, lams) -> np.ndarray:
    """Lyapunov exponent over an array of real energies (vectorized)."""
    return su11.log_spectral_radius(*_trace_profile(phi, lams)) / phi.period


def _scaled_monodromy(phi: PiecewisePotential, z) -> tuple[np.ndarray, float]:
    """Monodromy as (matrix, logscale) with the true matrix M * exp(logscale)."""
    M = su11.IDENTITY.copy()
    logscale = 0.0
    for length, c in phi.segments:
        M = step_matrix(c, z, length) @ M
        mx = float(np.max(np.abs(M)))
        if mx > su11.RESCALE_AT:
            M = M / mx
            logscale += math.log(mx)
    return M, logscale


def lyapunov(phi: PiecewisePotential, z) -> float:
    """(1/T) log of the spectral radius of the monodromy; >= 0.

    Vanishes exactly on the spectrum for real z.
    """
    M, logscale = _scaled_monodromy(phi, z)
    eigs = np.linalg.eigvals(M)
    spr_log = math.log(float(np.max(np.abs(eigs)))) + logscale
    return max(spr_log / phi.period, 0.0)


def floquet_exponent(phi: PiecewisePotential, z) -> complex:
    """The exponent w with exp(+-Tw) the monodromy eigenvalues, Re w <= 0.

    Satisfies D(z) = 2 cosh(T w) and L(z) = -Re w for Im z > 0.
    """
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("floquet_exponent requires Im z > 0")
    M, logscale = _scaled_monodromy(phi, z)
    eigs = np.linalg.eigvals(M)
    mu_small = eigs[int(np.argmin(np.abs(eigs)))]
    w = (cmath.log(complex(mu_small)) + logscale) / phi.period
    if w.real > 0:
        w = -w
    return w


# ---------------------------------------------------------------------------
# Density of states
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _dos_mean(phi: PiecewisePotential, lam: float) -> float:
    """(1/T) integral over a period of (1 + |s|^2) / (1 - |s|^2), with
    s(x) the disk fixed point of the monodromy based at x.

    The fixed point is propagated from the base-0 fixed point by Moebius
    equivariance, so a single pass accumulating partial transfer
    products suffices.  The integrand equals half the squared
    Hilbert-Schmidt norm of the rotation conjugacy at x; the simpler
    form 1/(1 - |s|^2) agrees only at s = 0 and fails the 1/T band
    normalization on data with nonzero fixed points.
    """
    M0 = monodromy(phi, lam, 0.0)
    xi0 = su11.disk_fixed_point(M0)
    total = 0.0
    A = su11.IDENTITY.copy()
    gx, gw = _gauss(DOS_NODES_PER_SEGMENT)
    for length, c in phi.segments:
        u = (gx + 1.0) * (length / 2.0)
        for ui, wi in zip(u, gw * (length / 2.0)):
            xi = su11.mobius_apply(step_matrix(c, lam, ui) @ A, xi0)
            a2 = abs(xi) ** 2
            total += wi * (1.0 + a2) / (1.0 - a2)
        A = step_matrix(c, lam, length) @ A
    return total / phi.period


def dos_density(phi: PiecewisePotential, lam: float) -> float:
    """Density of states inside a band:
    (1/(pi T)) * integral over a period of (1+|s|^2)/(1-|s|^2) with s
    the disk fixed point of the monodromy based at x.  Each complete
    band then integrates to exactly 1/T.
    """
    D = discriminant(phi, lam)
    if abs(D) >= 2.0 - DOS_EDGE_MARGIN:
        raise NotInBandInterior(f"|D| = {abs(D):.9f} too close to 2")
    return _dos_mean(phi, lam) / math.pi


def dos_band_weight(phi: PiecewisePotential, band: tuple[float, float],
                    nodes: int = 48) -> float:
    """Integral of the DOS density over one band; equals 1/T for a
    complete band.

    The integrand diverges like an inverse square root at the band
    edges, so each half is integrated in the variable u with
    lambda = edge +- u^2, which makes the integrand bounded.
    """
    a, b = band
    if not b > a:
        raise ValueError("band must be a nondegenerate interval")
    m = 0.5 * (a + b)
    gx, gw = _gauss(nodes)

    def half(edge: float, sign: float) -> float:
        umax = math.sqrt(abs(m - edge))
        u = (gx + 1.0) * (umax / 2.0)
        w = gw * (umax / 2.0)
        total = 0.0
        for ui, wi in zip(u, w):
            if ui == 0.0:
                continue
            lam = edge + sign * ui * ui
            try:
                rho = _dos_mean(phi, lam) / math.pi
            except NotElliptic as exc:
                raise NotInBandInterior(
                    f"quadrature node {lam} left the band interior") from exc
            total += wi * 2.0 * ui * rho
        return total

    return half(a, +1.0) + half(b, -1.0)
