"""Long-term channel statistics.

One-ring spatial covariance synthesis (azimuth and elevation), Hermitian
eigendecomposition with effective-rank selection, and the effective
polarization statistics seen under random transmitter/receiver polarization
mismatch.

Every array is a uniform linear array, its element spacing given in units
of the carrier wavelength, so the covariance kernel never needs the
wavelength itself and every covariance is Toeplitz.

The kernel integrates the lags with an adaptive Simpson rule whose levels
double the panel count. Each level evaluates the integrand only at its new
odd nodes, next to the previous level's values on its even nodes. The lags
run in near-equal chunks of at most ``_CHUNK_ROWS``, each through its own
levels, so the working memory is one chunk's last two levels. A chunk has
at least 3 rows unless it holds every lag: only then does the BLAS product
give its Simpson sums the bits of the product over all lags. Every lag
stops at the first level where no lag moves by ``QUADRATURE_TOL`` or more:
a chunk that needs a finer level than the chunks before it raises the
level, and those are recomputed. The result is bit for bit that of
evaluating every level afresh over all lags at once.

A covariance is synthesized on one thread, and nothing here is shared
between calls, so ``scenario.make_scenario`` may run its groups' calls on
several threads at once (when OpenBLAS runs one thread); ``exp`` and the
BLAS product release the GIL.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalError

__all__ = [
    "GroupGeometry",
    "SpatialCovariance",
    "MismatchStats",
    "one_ring_covariance",
    "elevation_covariance",
    "eigendecompose",
    "mismatch_effective_stats",
]

#: Relative eigenvalue threshold below which a mode does not count towards
#: the effective rank.
RANK_TOL = 1e-6

#: Absolute per-entry tolerance of the covariance quadrature.
QUADRATURE_TOL = 1e-10

#: Bound on the quadrature's size: it raises ``NumericalError`` before a
#: level whose array over all lags, next to the level before it, would take
#: more bytes than this. The levels are computed in chunks and never held
#: over all lags at once, so this bounds the work (lags times panels), with
#: the refusal of the unchunked rule: at 15 degrees and half-wavelength
#: spacing the ledger's M = 480 cell (239 lags) would need 89.7 MiB, and
#: 499 lags, a dual-polarized M = 1000, 374 MiB.
_MAX_BYTES = 1 << 29

#: Lags per quadrature chunk, at most. More lags than this split into
#: near-equal chunks of at least 8 rows, above the 3 a row block needs to
#: get the same Simpson sums from the BLAS product as the whole array.
_CHUNK_ROWS = 16


@dataclass(frozen=True)
class GroupGeometry:
    """One-ring geometry of a user group as seen from the base station."""

    azimuth_center: float
    angular_spread: float

    def __post_init__(self):
        if not (np.isfinite(self.azimuth_center) and np.isfinite(self.angular_spread)):
            raise InvalidInputError("geometry must be finite")
        if not 0.0 < self.angular_spread < math.pi / 2:
            raise InvalidInputError("angular spread must lie in (0, pi/2)")


@dataclass(frozen=True)
class SpatialCovariance:
    """Hermitian PSD covariance with cached eigenmodes and effective rank."""

    matrix: np.ndarray
    eigvecs: np.ndarray = field(repr=False)
    eigvals: np.ndarray = field(repr=False)
    effective_rank: int

    @classmethod
    def from_matrix(cls, matrix):
        eigvecs, eigvals, rank = eigendecompose(matrix)
        return cls(np.asarray(matrix), eigvecs, eigvals, rank)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dominant_eigvecs(self, r: int) -> np.ndarray:
        return self.eigvecs[:, :r]

    def factor(self) -> np.ndarray:
        """U * sqrt(Lambda) over the effective rank; channels are U L^1/2 g."""
        r = self.effective_rank
        return self.eigvecs[:, :r] * np.sqrt(np.maximum(self.eigvals[:r], 0.0))


@dataclass(frozen=True)
class MismatchStats:
    """Effective long-term statistics under random polarization rotation;
    ``c_eff`` and ``chi_eff`` are arrays when chi is."""

    c_eff: float | np.ndarray
    chi_eff: float | np.ndarray
    theta_max: float


def _half_spread_weight(theta_max: float) -> float:
    # sin(2t)/(4t) with its analytic limit 1/2 at t = 0.
    if theta_max == 0.0:
        return 0.5
    return math.sin(2.0 * theta_max) / (4.0 * theta_max)


def mismatch_effective_stats(chi, theta_max: float) -> MismatchStats:
    """Effective (c_eff, chi_eff) for rotation angles uniform on [-theta_max, theta_max].

    ``chi`` is one value or an array of them, each mapped as on its own.
    """
    if not np.all((0.0 <= chi) & (chi <= 1.0)):
        raise InvalidInputError("chi must lie in [0, 1]")
    if not 0.0 <= theta_max <= math.pi / 2:
        raise InvalidInputError("theta_max must lie in [0, pi/2]")
    s = _half_spread_weight(theta_max)
    c_eff = 0.5 + s + chi * (0.5 - s)
    chi_eff = (0.5 - s + chi * (0.5 + s)) / c_eff
    return MismatchStats(c_eff=c_eff, chi_eff=chi_eff, theta_max=theta_max)


def eigendecompose(matrix):
    """Eigenmodes of a Hermitian matrix, sorted by descending eigenvalue.

    Returns (eigvecs, eigvals, effective_rank) where the effective rank counts
    eigenvalues above RANK_TOL times the largest one.
    """
    R = np.asarray(matrix)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise InvalidInputError("covariance must be square")
    scale = max(np.abs(R).max(), 1.0)
    if np.abs(R - R.conj().T).max() > 1e-10 * scale:
        raise InvalidInputError("covariance must be Hermitian")
    eigvals, eigvecs = np.linalg.eigh((R + R.conj().T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if eigvals[0] <= 0.0:
        effective_rank = 0
    else:
        effective_rank = int(np.count_nonzero(eigvals > RANK_TOL * eigvals[0]))
    return eigvecs, eigvals, effective_rank


def _one_ring_kernel(displacements, theta, delta):
    """Average of exp(-j pi sin(a+theta) d) over a ~ U[-delta, delta].

    ``displacements`` holds the distances d along the array axis, in
    wavelengths. Adaptive composite Simpson: the panel count doubles from 8
    until no entry moves by ``QUADRATURE_TOL`` or more, or raises
    ``NumericalError`` when the next level and the one before it, over all
    lags, would exceed ``_MAX_BYTES``. Each level evaluates
    exp((-j pi) (sin(a + theta) d)) at its new odd nodes only: the level's
    array takes the previous level's values on its even nodes, where they
    sit exactly. The operations and their order are those of evaluating
    every level afresh, so the result is bit for bit the same.

    The lags run in near-equal chunks of at most ``_CHUNK_ROWS`` rows, so
    the working memory is one chunk's last two levels. A chunk of 3 or
    more rows gets the same Simpson sums ``f @ w`` as all lags at once
    (one chunk holds fewer only when it holds every lag). The stopping
    level stays that of all lags: chunks run in order, each stopping at
    the first level at or above the running floor where it moves by less
    than the tolerance; a chunk that needs a finer level raises the floor,
    and the chunks already done are recomputed at it. Listing the largest
    displacement first, as ``one_ring_covariance`` does, lets the first
    chunk set the floor, so the others are not redone. Each level's node
    sines and Simpson weights are computed once and shared by the chunks.
    """
    d = np.asarray(displacements)[:, None]
    lags = d.shape[0]
    phase = -1j * np.pi

    @functools.cache
    def level(n):
        # The first level's node sines are all of them, a finer level's
        # only its new odd ones; then the level's Simpson weights.
        alpha = np.linspace(-delta, delta, 2 * n + 1)
        w = np.ones(2 * n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return np.sin((alpha if n == 8 else alpha[1::2]) + theta), w

    def simpson(f, n):
        h = (2.0 * delta) / (2 * n)
        return (h / 3.0) * (f @ level(n)[1]) / (2.0 * delta)

    def integrate(rows, floor):
        # The chunk's sums at the first level of at least ``floor`` panels
        # where they move by less than QUADRATURE_TOL, and that level.
        n = 8
        f = np.exp(phase * (level(n)[0] * rows))
        prev, err = simpson(f, n), None
        while True:
            n *= 2
            if 16 * lags * ((n + 1) + (2 * n + 1)) > _MAX_BYTES:
                raise NumericalError(
                    f"one-ring quadrature did not converge in {n // 2} panels on "
                    f"{lags} lags; more would exceed {_MAX_BYTES >> 20} MiB",
                    residual=err)
            finer = np.empty((rows.shape[0], 2 * n + 1), dtype=complex)
            finer[:, ::2] = f
            f = finer
            np.exp(phase * (level(n)[0] * rows), out=f[:, 1::2])
            cur = simpson(f, n)
            err = np.abs(cur - prev).max()
            if n >= floor and err < QUADRATURE_TOL:
                return n, cur
            prev = cur

    chunks = np.array_split(d, -(-lags // _CHUNK_ROWS))
    floor, panels, sums = 16, [0] * len(chunks), [None] * len(chunks)
    while min(panels) < floor:
        for i, rows in enumerate(chunks):
            if panels[i] < floor:
                panels[i], sums[i] = integrate(rows, floor)
                floor = panels[i]
    return np.concatenate(sums)


def one_ring_covariance(
    geometry: GroupGeometry,
    n_elements: int,
    spacing: float,
) -> SpatialCovariance:
    """One-ring spatial covariance of a group over a uniform linear array.

    Entries are [R]_{mn} = (1/2D) \\int_{-D}^{D} exp(-j pi sin(a+theta) (m-n) s) da
    with the element spacing s in wavelengths. R is Toeplitz: the n-1 lags
    of its upper triangle are integrated once and mirror-conjugated into
    the lower one, so Hermitian symmetry is exact.
    """
    if n_elements < 1:
        raise InvalidInputError("n_elements must be positive")
    if not math.isfinite(spacing):
        raise InvalidInputError("spacing must be finite")
    n = n_elements
    # by_lag[n - 1 + k] is R's entry at m - n = k.
    by_lag = np.ones(2 * n - 1, dtype=complex)
    if n > 1:
        upper = _one_ring_kernel(spacing * np.arange(1 - n, 0),
                                 geometry.azimuth_center, geometry.angular_spread)
        by_lag[:n - 1] = upper
        by_lag[n:] = np.conj(upper[::-1])
    lags = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
    return SpatialCovariance.from_matrix(by_lag[lags])


def elevation_covariance(
    height: float,
    distance: float,
    scatter_radius: float,
    n_elements: int,
    spacing: float,
) -> SpatialCovariance:
    """One-ring covariance over the elevation angles subtended by a scatter ring.

    The ring at `distance` with radius `scatter_radius` seen from a BS at
    `height` spans elevation angles [atan(h/d), atan(h/(d-s))]; the same
    quadrature kernel is applied over that interval along a vertical
    uniform linear array of `n_elements` at `spacing` wavelengths.
    """
    if height <= 0.0:
        raise InvalidInputError("height must be positive")
    if scatter_radius < 0.0 or distance <= scatter_radius:
        raise InvalidInputError("need distance > scatter_radius >= 0")
    lo = math.atan2(height, distance)
    hi = math.atan2(height, distance - scatter_radius)
    center = 0.5 * (lo + hi)
    spread = 0.5 * (hi - lo)
    if spread == 0.0:
        # Zero scatter radius: rank-1 steering outer product at the LoS angle.
        spread = 1e-9
    geometry = GroupGeometry(azimuth_center=center, angular_spread=spread)
    return one_ring_covariance(geometry, n_elements, spacing)
