"""Floquet engine for periodic extended CMV matrices.

The operator data is a periodic cycle of Verblunsky coefficients in the
open unit disk.  Szego matrices play the role of transfer matrices; the
monodromy over one period, normalized by z^(-q/2), has determinant one
and real trace on the unit circle, and the spectrum is the set of
z = exp(i theta) where that trace lies in [-2, 2].  A finite section of
the doubly infinite five-diagonal matrix serves as an independent
eigenvalue oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import su11
from .errors import OutOfDisk

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class VerblunskyCycle:
    """q-periodic Verblunsky coefficients, each strictly inside the disk."""

    values: tuple[complex, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("cycle needs at least one coefficient")
        for v in self.values:
            if not abs(v) < 1.0:        # a NaN coefficient fails too
                raise OutOfDisk(f"coefficient {v} has modulus {abs(v)} >= 1")

    @classmethod
    def constant(cls, value, q: int = 1) -> "VerblunskyCycle":
        return cls(values=(complex(value),) * q)

    @classmethod
    def from_values(cls, values: Sequence[complex]) -> "VerblunskyCycle":
        return cls(values=tuple(complex(v) for v in values))

    @property
    def q(self) -> int:
        return len(self.values)

    @cached_property
    def rows(self) -> list[list[float]]:
        """[Re value, Im value] per coefficient, the rows of configs and
        reports; built once, so every report of this cycle shares them:
        read-only."""
        return [[v.real, v.imag] for v in self.values]

    def repeated(self, n: int) -> "VerblunskyCycle":
        """n periods as one; one period is the cycle as it is."""
        if n < 1:
            raise ValueError("repetition count must be >= 1")
        return self if n == 1 else VerblunskyCycle(values=self.values * n)

    def with_value(self, k: int, value) -> "VerblunskyCycle":
        vals = list(self.values)
        vals[k] = complex(value)
        return VerblunskyCycle(values=tuple(vals))


def concatenate_cycles(cycles: Iterable[VerblunskyCycle]) -> VerblunskyCycle:
    """The cycles one after another; a single cycle is returned as it is."""
    blocks = list(cycles)
    if len(blocks) == 1:
        return blocks[0]
    vals: list[complex] = []
    for c in blocks:
        vals.extend(c.values)
    return VerblunskyCycle(values=tuple(vals))


def szego_matrix(a, z) -> np.ndarray:
    """(1 - |a|^2)^(-1/2) [[z, -conj(a)], [-a z, 1]]; det = z."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise OutOfDisk(f"coefficient {a} has modulus >= 1")
    z = complex(z)
    r = 1.0 / math.sqrt(1.0 - abs(a) ** 2)
    return np.array([[r * z, -r * a.conjugate()], [-r * a * z, r]])


def cmv_monodromy(alpha: VerblunskyCycle, theta: float) -> np.ndarray:
    """z^(-q/2) A(alpha_{q-1}, z) ... A(alpha_0, z) at z = exp(i theta).

    The half power is fixed as exp(-i q theta / 2) with theta reduced to
    [0, 2 pi); for odd q the branch seam at theta = 0 only flips the
    sign of the trace, which does not affect band membership.
    """
    theta = theta % TWO_PI
    z = cmath.exp(1j * theta)
    M = su11.IDENTITY.copy()
    for a in alpha.values:
        M = szego_matrix(a, z) @ M
    return cmath.exp(-0.5j * alpha.q * theta) * M


def _szego_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 / rho and -conj(alpha) / rho of the coefficients alpha."""
    r = 1.0 / np.sqrt(1.0 - np.abs(values) ** 2)
    return r, -r * values.conj()


def _norm_bound(values: np.ndarray) -> np.ndarray:
    """The log infinity norm bound of the product of the normalised
    Szego steps, per column of the (coefficient, column) array values:
    each step has log(|a| + |b|) = atanh |alpha|."""
    return np.arctanh(np.abs(values)).sum(axis=0)


def _stack(cycles: Sequence[VerblunskyCycle]):
    """at(half) -> (steps, nsteps, bound): the batch_product arguments
    of the one-period products of cycles of one length, one column per
    cycle, of the Szego steps normalised by z^(-1/2) at z = half**2:
    a = half / rho and b = -conj(alpha) conj(half) / rho."""
    values = np.array([cycle.values for cycle in cycles]).T[:, :, None]
    r, rb = _szego_rows(values)
    bound = _norm_bound(values)

    def at(half):
        half_conj = half.conj()
        return ((lambda lo, hi: (r * half[lo:hi], rb * half_conj[lo:hi])),
                values.shape[0], np.broadcast_to(bound, (len(cycles), half.size)))

    return at


def cmv_monodromies(cycles: Sequence[VerblunskyCycle],
                    theta: float) -> su11.Su11Batch:
    """Normalised monodromies of several cycles of one length at one
    angle, one column each."""
    P = su11.batch_product(*_stack(cycles)(_angles(theta)[1]))
    return su11.Su11Batch(*(x[:, 0] for x in P))


def _angles(thetas) -> tuple[np.ndarray, np.ndarray]:
    """thetas reduced to [0, 2 pi), and exp(i theta / 2)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float)) % TWO_PI
    return thetas, np.exp(0.5j * thetas)


def _traces(groups, thetas) -> tuple[np.ndarray, np.ndarray]:
    # the body of grouped_cmv_trace_profile; single data calls it
    # directly, so rebinding that name leaves the single profiles alone
    thetas, half = _angles(thetas)
    return su11.batch_trace(su11.grouped_product(
        groups, half, lambda alpha: alpha.q, _stack), thetas)


def grouped_cmv_trace_profile(groups: Sequence[tuple[VerblunskyCycle, int]],
                              thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monodromy traces of a cycle concatenation given as (cycle,
    repetitions) groups, with one period product per distinct cycle
    (su11.grouped_product): distinct cycles of one length are stacked as
    the columns of one batch product, angle block by angle block, and
    each distinct (cycle, repetitions) power is computed once."""
    return _traces(groups, thetas)


def cmv_discriminant_profile(alpha: VerblunskyCycle, thetas) -> np.ndarray:
    """Real monodromy traces over an angle grid, saturated near 1e130."""
    return su11.saturated(*_traces([(alpha, 1)], thetas))


def grouped_cmv_discriminant_profile(groups, thetas) -> np.ndarray:
    return su11.saturated(*grouped_cmv_trace_profile(groups, thetas))


def cmv_discriminant(alpha: VerblunskyCycle, theta: float) -> float:
    return float(cmv_discriminant_profile(alpha, [theta])[0])


class ArcSet(su11.BandSet):
    """A band set of sorted disjoint closed arcs on the circle, in [0, 2 pi].

    Arcs are stored cut at theta = 0; a spectral arc crossing 0 appears
    as two stored arcs and is re-merged for presentation.
    """

    @property
    def arcs(self) -> tuple[tuple[float, float], ...]:
        return self.intervals

    @property
    def is_full_circle(self) -> bool:
        return self.measure >= TWO_PI - 1e-12

    def merged_presentation(self) -> tuple[tuple[float, float], ...]:
        """Arcs with a wrap-around pair joined across theta = 0."""
        arcs = list(self.arcs)
        if len(arcs) >= 2 and arcs[0][0] <= 1e-12 and arcs[-1][1] >= TWO_PI - 1e-12:
            first, last = arcs[0], arcs[-1]
            if not self.is_full_circle:
                arcs = arcs[1:-1] + [(last[0], first[1] + TWO_PI)]
        return tuple(arcs)

    def distance_point(self, w: complex) -> float:
        """Euclidean distance from a point in C to the arc set."""
        if not self.arcs:
            return math.inf
        t = cmath.phase(w) % TWO_PI
        best = math.inf
        for a, b in self.arcs:
            if a <= t <= b or a <= t + TWO_PI <= b or a <= t - TWO_PI <= b:
                proj = cmath.exp(1j * t)
            else:
                proj = min((cmath.exp(1j * a), cmath.exp(1j * b)),
                           key=lambda p: abs(w - p))
            best = min(best, abs(w - proj))
        return best


def cmv_bands(alpha: VerblunskyCycle, tol: float) -> ArcSet:
    """Arcs where the real monodromy trace lies in [-2, 2], edges to tol."""
    return _scan_arcs(lambda ts: cmv_discriminant_profile(alpha, ts),
                      alpha.q, tol)


def cmv_bands_of_groups(groups: Sequence[tuple[VerblunskyCycle, int]],
                        tol: float) -> ArcSet:
    """cmv_bands for a cycle concatenation given as (cycle, repetitions)
    groups, evaluated through the grouped profile for speed."""
    q = sum(cycle.q * reps for cycle, reps in groups)
    return _scan_arcs(lambda ts: grouped_cmv_discriminant_profile(groups, ts),
                      q, tol)


def _scan_arcs(profile, q: int, tol: float) -> ArcSet:
    # a closed grid of max(4096, 64 q) cells on [0, 2 pi]; the profile at
    # 2 pi equals its value at 0
    npts = max(4096, 64 * q)
    return ArcSet(su11.scan_bands(
        profile, np.linspace(0.0, TWO_PI, npts + 1), tol, q + 1))


def cmv_lyapunov(alpha: VerblunskyCycle, theta: float) -> float:
    """(1/q) log spectral radius of the monodromy; zero exactly on arcs."""
    return float(cmv_lyapunov_profile(alpha, [theta])[0])


def cmv_lyapunov_profile(alpha: VerblunskyCycle, thetas) -> np.ndarray:
    return su11.log_spectral_radius(*_traces([(alpha, 1)], thetas)) / alpha.q


def extended_cmv_truncation(alpha: VerblunskyCycle, copies: int,
                            boundary: str = "verbatim") -> np.ndarray:
    """Finite section of the doubly infinite five-diagonal CMV matrix.

    Size 2 * copies * q.  With boundary="verbatim" the section is cut
    from the infinite pattern with zero interpretation: the two boundary
    rows are not unitary, and eigenvalue comparisons trim the resulting
    outliers.  With boundary="periodic" the pattern wraps around, which
    restores exact unitarity; the eigenvalues then sit on the spectral
    arcs to machine precision (discretized Floquet spectrum).
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if boundary not in ("verbatim", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    q = alpha.q
    size = 2 * copies * q
    wrap = boundary == "periodic"
    rhos = tuple(math.sqrt(1.0 - abs(v) ** 2) for v in alpha.values)

    def av(n: int) -> complex:
        return alpha.values[n % q]

    def rv(n: int) -> float:
        return rhos[n % q]

    E = np.zeros((size, size), dtype=complex)

    def put(i: int, j: int, val: complex) -> None:
        if wrap:
            E[i % size, j % size] = val
        elif 0 <= j < size:
            E[i, j] = val

    for k in range(0, size, 2):
        # even row 2m with k = 2m, and the odd row below it
        put(k, k - 1, av(k).conjugate() * rv(k - 1))
        put(k, k, -av(k).conjugate() * av(k - 1))
        put(k, k + 1, rv(k) * av(k + 1).conjugate())
        put(k, k + 2, rv(k) * rv(k + 1))
        i = k + 1
        put(i, k - 1, rv(k) * rv(k - 1))
        put(i, k, -rv(k) * av(k - 1))
        put(i, k + 1, -av(k) * av(k + 1).conjugate())
        put(i, k + 2, -av(k) * rv(k + 1))
    return E


def truncation_eigenvalues(alpha: VerblunskyCycle, copies: int,
                           boundary: str = "verbatim") -> np.ndarray:
    return np.linalg.eigvals(extended_cmv_truncation(alpha, copies, boundary))


def _poincare_point(a, b) -> float:
    a, b = complex(a), complex(b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise OutOfDisk("Poincare distance needs both points inside the disk")
    r = abs((a - b) / (1.0 - a * b.conjugate()))
    return math.atanh(min(r, 1.0 - 1e-16))


def poincare_delta(alpha, beta) -> float:
    """Sup over positions of the hyperbolic distance between entries.

    Accepts VerblunskyCycle instances or plain sequences of disk points;
    shapes must match (equal lengths, compared positionwise).
    """
    avals = alpha.values if isinstance(alpha, VerblunskyCycle) else tuple(alpha)
    bvals = beta.values if isinstance(beta, VerblunskyCycle) else tuple(beta)
    if len(avals) != len(bvals):
        raise ValueError(f"shape mismatch: {len(avals)} vs {len(bvals)}")
    return max(_poincare_point(a, b) for a, b in zip(avals, bvals))


def poincare_push(a, w) -> complex:
    """Moebius image of w under the disk automorphism sending 0 to a.

    Maps the Euclidean disk |w| < tanh(r) onto the hyperbolic ball of
    radius r around a; used for seeded geodesic perturbation sampling.
    """
    a, w = complex(a), complex(w)
    return (w + a) / (1.0 + a.conjugate() * w)
