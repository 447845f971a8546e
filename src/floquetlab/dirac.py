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
from .errors import BandCountExceeded, NotElliptic, NotInBandInterior

# Refuse density-of-states evaluation when |D| is this close to 2.
DOS_EDGE_MARGIN = 1e-6
# Gauss-Legendre nodes per segment of the density-of-states period average.
DOS_NODES_PER_SEGMENT = 24


@dataclass(frozen=True)
class PiecewisePotential:
    """Periodic operator data: ordered (length, value) segments.

    The period is the sum of the segment lengths, accumulated in order so
    it is reproducible bit for bit.  Values are complex; the sup norm is
    the largest modulus.
    """

    segments: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("potential needs at least one segment")
        for length, _ in self.segments:
            if not length > 0:
                raise ValueError(f"segment length {length} must be positive")

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
        return cls(segments=tuple((float(l), complex(v)) for l, v in zip(lengths, values)))

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

    @cached_property
    def period(self) -> float:
        total = 0.0
        for length, _ in self.segments:
            total += length
        return total

    @cached_property
    def boundaries(self) -> np.ndarray:
        b = np.zeros(len(self.segments) + 1)
        np.cumsum([l for l, _ in self.segments], out=b[1:])
        return b

    @cached_property
    def rows(self) -> list[list[float]]:
        """[length, Re value, Im value] per segment, the rows of configs
        and reports; built once, so every report of this potential
        shares them: read-only."""
        return [[l, v.real, v.imag] for l, v in self.segments]

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for _, v in self.segments)

    def value_at(self, x: float) -> complex:
        u = x - math.floor(x / self.period) * self.period
        k = int(np.searchsorted(self.boundaries, u, side="right")) - 1
        k = min(max(k, 0), len(self.segments) - 1)
        return self.segments[k][1]

    def repeated(self, n: int) -> "PiecewisePotential":
        if n < 1:
            raise ValueError("repetition count must be >= 1")
        return PiecewisePotential(segments=self.segments * n)

    def with_value(self, k: int, value) -> "PiecewisePotential":
        segs = list(self.segments)
        segs[k] = (segs[k][0], complex(value))
        return PiecewisePotential(segments=tuple(segs))

    def with_split(self, k: int) -> "PiecewisePotential":
        """Split segment k into two halves of the same value."""
        segs = list(self.segments)
        length, value = segs[k]
        segs[k : k + 1] = [(length / 2.0, value), (length / 2.0, value)]
        return PiecewisePotential(segments=tuple(segs))


def concatenate(potentials: Iterable[PiecewisePotential]) -> PiecewisePotential:
    segs: list[tuple[float, complex]] = []
    for p in potentials:
        segs.extend(p.segments)
    return PiecewisePotential(segments=tuple(segs))


def sup_distance(p1: PiecewisePotential, p2: PiecewisePotential) -> float:
    """Exact sup-norm distance between two periodic piecewise potentials.

    Requires commensurate periods (one an integer multiple of the other).
    """
    span = max(p1.period, p2.period)
    ratio1, ratio2 = span / p1.period, span / p2.period
    if abs(ratio1 - round(ratio1)) > 1e-9 or abs(ratio2 - round(ratio2)) > 1e-9:
        raise ValueError("periods are not commensurate")
    cuts = set()
    for p, rep in ((p1, int(round(ratio1))), (p2, int(round(ratio2)))):
        for r in range(rep):
            base = r * p.period
            cuts.update(base + b for b in p.boundaries[:-1])
    cuts = sorted(cuts) + [span]
    worst = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = (a + b) / 2.0
        worst = max(worst, abs(p1.value_at(mid) - p2.value_at(mid)))
    return worst


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
    bounds = phi.boundaries
    nseg = len(phi.segments)
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
            M = step_matrix(phi.segments[seg][1], z, dt) @ M
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


def _period_product(phi: PiecewisePotential, lams: np.ndarray) -> su11.Su11Batch:
    """One-period products at real energies: each segment step is
    a = ch - i lam e, b = i c e with e = length sinh(sqrt(w))/sqrt(w)
    and w = length^2 (|c|^2 - lam^2)."""
    lengths = np.array([length for length, _ in phi.segments])[:, None]
    values = np.array([c for _, c in phi.segments])[:, None]
    l2 = lengths * lengths
    c2 = np.abs(values) ** 2

    def steps(lo, hi):
        lam = lams[lo:hi]
        ch, shc = _real_cosh_sinhc(l2 * (lam * lam - c2))
        e = lengths * shc
        a = np.empty(e.shape, dtype=complex)
        a.real = ch
        np.multiply(e, -lam, out=a.imag)
        return a, (1j * values) * e

    return su11.batch_product(steps, len(phi.segments), lams.size)


def _trace_profile(phi: PiecewisePotential, lams) -> tuple[np.ndarray, np.ndarray]:
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return su11.batch_trace(_period_product(phi, lams), lams)


def grouped_trace_profile(groups: Sequence[tuple[PiecewisePotential, int]],
                          lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monodromy traces of a concatenation given as (block, repetitions)
    groups, as (trace, logscale) with true trace = trace * exp(logscale);
    repeated blocks are raised to matrix powers, so the cost per energy
    is one period product per distinct block plus log(reps) squarings."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return su11.batch_trace(su11.batch_concat(
        (_period_product(block, lams), reps) for block, reps in groups), lams)


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
    window: float

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
    if not tol > 0:
        raise ValueError("tol must be positive")
    spacing0 = math.pi / (8.0 * period * (1.0 + sup) * max(oversample, 1.0))
    npts = max(int(math.ceil(2.0 * R / spacing0)) + 1, 9)
    grid = np.linspace(-R, R, npts)
    spacing = grid[1] - grid[0]
    inside = np.abs(profile(grid)) <= 2.0

    idx = np.flatnonzero(inside[:-1] != inside[1:])
    exits = inside[idx]                      # inside -> outside edges
    edges = np.empty(0)
    if idx.size:
        lo = np.where(exits, grid[idx], grid[idx + 1])   # inside end
        hi = np.where(exits, grid[idx + 1], grid[idx])   # outside end
        edges = su11.bisect_band_edges(profile, lo, hi, spacing, tol)

    # a band starts at an outside -> inside edge (or at -R) and ends at
    # the next inside -> outside edge (or at R)
    starts = ([-R] if inside[0] else []) + edges[~exits].tolist()
    ends = edges[exits].tolist() + ([R] if inside[-1] else [])
    intervals = [(a, b) for a, b in zip(starts, ends) if b > a]

    # merge across numerically closed gaps
    merged: list[tuple[float, float]] = []
    for iv in intervals:
        if merged:
            gap = iv[0] - merged[-1][1]
            if gap <= spacing:
                mid_gap = 0.5 * (iv[0] + merged[-1][1])
                dmid = abs(float(profile(np.array([mid_gap]))[0]))
                if dmid <= 2.0 + 1e-10:
                    merged[-1] = (merged[-1][0], iv[1])
                    continue
        merged.append(iv)

    result = BandSet(intervals=tuple(merged), window=R)
    bound = _band_count_bound(period, sup, R)
    if result.count > bound:
        raise BandCountExceeded(
            f"{result.count} bands exceed the Floquet bound {bound}")
    return result


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
