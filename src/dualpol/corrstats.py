"""Long-term channel statistics.

One-ring spatial covariance synthesis (azimuth and elevation), Hermitian
eigendecomposition with effective-rank selection, and the effective
polarization statistics seen under random transmitter/receiver polarization
mismatch.

All positions are stored in units of the carrier wavelength, so the
covariance kernel never needs the wavelength itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalError

__all__ = [
    "ArrayLayout",
    "GroupGeometry",
    "SpatialCovariance",
    "MismatchStats",
    "ula",
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

_MAX_PANELS = 1 << 20


@dataclass(frozen=True)
class ArrayLayout:
    """Antenna element positions in units of the carrier wavelength.

    For a dual-polarized array the two polarizations are co-located, so one
    position list describes M/2 element pairs.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise InvalidInputError("positions must be an (n, 2) array")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    def __len__(self):
        return self.positions.shape[0]


def ula(n_elements: int, spacing: float) -> ArrayLayout:
    """Uniform linear array along the y-axis with `spacing` in wavelengths."""
    if n_elements < 1:
        raise InvalidInputError("n_elements must be positive")
    y = spacing * np.arange(n_elements)
    return ArrayLayout(np.column_stack([np.zeros(n_elements), y]))


@dataclass(frozen=True)
class GroupGeometry:
    """One-ring geometry of a user group as seen from the base station.

    Either the angular spread is given directly, or it is derived from the
    scatterer-ring radius and the group distance as atan(radius/distance).
    """

    azimuth_center: float
    angular_spread: float | None = None
    scatter_radius: float | None = None
    distance: float | None = None

    def __post_init__(self):
        spread = self.angular_spread
        if self.scatter_radius is not None and self.distance is not None:
            derived = math.atan2(self.scatter_radius, self.distance)
            if spread is None:
                spread = derived
                object.__setattr__(self, "angular_spread", derived)
            elif abs(spread - derived) > 1e-9:
                raise InvalidInputError(
                    "angular_spread inconsistent with atan(scatter_radius/distance)"
                )
        if spread is None:
            raise InvalidInputError("angular spread is undetermined")
        if not (np.isfinite(self.azimuth_center) and np.isfinite(spread)):
            raise InvalidInputError("geometry must be finite")
        if not 0.0 < spread < math.pi / 2:
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
    """Effective long-term statistics under random polarization rotation."""

    c_eff: float
    chi_eff: float
    theta_max: float


def _half_spread_weight(theta_max: float) -> float:
    # sin(2t)/(4t) with its analytic limit 1/2 at t = 0.
    if theta_max == 0.0:
        return 0.5
    return math.sin(2.0 * theta_max) / (4.0 * theta_max)


def mismatch_effective_stats(chi: float, theta_max: float) -> MismatchStats:
    """Effective (c_eff, chi_eff) for rotation angles uniform on [-theta_max, theta_max]."""
    if not 0.0 <= chi <= 1.0:
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


def _one_ring_kernel(displacements, theta, delta, tol=QUADRATURE_TOL):
    """Average of exp(-j pi Omega(a+theta).d) over a ~ U[-delta, delta].

    Vectorized adaptive composite Simpson over all displacement rows at once;
    panel count doubles until the worst entry moves by less than `tol`.
    Each level keeps the integrand values of the one before, which sit on
    its even nodes exactly, and evaluates only its new odd nodes.
    """
    d = np.atleast_2d(displacements)

    def integrand(alpha):
        phase = np.cos(alpha + theta)[None, :] * d[:, :1] + np.sin(alpha + theta)[None, :] * d[:, 1:2]
        return np.exp(-1j * np.pi * phase)

    def simpson(f, n_panels):
        w = np.ones(f.shape[1])
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = (2.0 * delta) / (2 * n_panels)
        return (h / 3.0) * (f @ w) / (2.0 * delta)

    n = 8
    f = integrand(np.linspace(-delta, delta, 2 * n + 1))
    prev = simpson(f, n)
    while n <= _MAX_PANELS:
        n *= 2
        odd = integrand(np.linspace(-delta, delta, 2 * n + 1)[1::2])
        finer = np.empty((f.shape[0], 2 * n + 1), dtype=complex)
        finer[:, ::2] = f
        finer[:, 1::2] = odd
        f = finer
        cur = simpson(f, n)
        err = np.abs(cur - prev).max()
        if err < tol:
            return cur
        prev = cur
    raise NumericalError("one-ring quadrature did not converge", residual=float(err))


def _one_ring_matrix(geometry: GroupGeometry, array: ArrayLayout) -> np.ndarray:
    pos = array.positions
    n = len(array)
    iu, ju = np.triu_indices(n, k=1)
    diffs = pos[iu] - pos[ju]
    # Uniform arrays repeat the same displacement many times; integrate each
    # distinct one once.
    keys = np.round(diffs, 12)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    vals = _one_ring_kernel(uniq, geometry.azimuth_center, geometry.angular_spread)
    R = np.eye(n, dtype=complex)
    R[iu, ju] = vals[inverse]
    R[ju, iu] = np.conj(vals[inverse])
    return R


def one_ring_covariance(
    geometry: GroupGeometry,
    array: ArrayLayout,
) -> SpatialCovariance:
    """One-ring spatial covariance of a group over the given array.

    Entries are [R]_{mn} = (1/2D) \\int_{-D}^{D} exp(-j pi Omega(a+theta).(r_m-r_n)) da
    with positions already expressed in wavelengths. The upper triangle is
    integrated and mirror-conjugated, so Hermitian symmetry is exact.
    """
    if len(array) == 0:
        raise InvalidInputError("array must be nonempty")
    return SpatialCovariance.from_matrix(_one_ring_matrix(geometry, array))


def elevation_covariance(
    height: float,
    distance: float,
    scatter_radius: float,
    vertical_array: ArrayLayout,
) -> SpatialCovariance:
    """One-ring covariance over the elevation angles subtended by a scatter ring.

    The ring at `distance` with radius `scatter_radius` seen from a BS at
    `height` spans elevation angles [atan(h/d), atan(h/(d-s))]; the same
    quadrature kernel is applied over that interval along the vertical array.
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
    return one_ring_covariance(geometry, vertical_array)
