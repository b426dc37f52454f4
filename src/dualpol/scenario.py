"""Scenario descriptions: cell-level long-term state shared by all modules.

A ``GroupScenario`` bundles everything that varies slowly: per-group
covariances, polarization statistics, dimensions and the transmit power.
Short-term quantities (channel realizations, CSIT quality tau) are passed
separately to the Monte Carlo and asymptotic routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .corrstats import (
    ArrayLayout,
    GroupGeometry,
    SpatialCovariance,
    one_ring_covariance,
    ula,
)
from .errors import InvalidConfigurationError

__all__ = ["GroupScenario", "make_scenario", "default_theta_grid", "power_from_db"]


def power_from_db(snr_db: float) -> float:
    """Transmit power of an SNR in dB; the noise power is one."""
    return 10.0 ** (snr_db / 10.0)


def default_theta_grid(n_groups: int) -> list:
    """Group centers -pi/4 + (g-1) pi/6, the clustered-cell layout."""
    return [-math.pi / 4 + math.pi / 6 * g for g in range(n_groups)]


@dataclass(frozen=True)
class GroupScenario:
    """Long-term description of one cell.

    For a dual-polarized scenario `M` counts antenna elements (M/2 co-located
    pairs) and each covariance is (M/2 x M/2); a single-polarized baseline
    uses full (M x M) covariances. `gains` are per-group amplitude scalings
    applied to the channel (used by the 3D reduction).
    """

    M: int
    n_bar: int
    b_bar: int
    r: int
    covariances: tuple
    chi: float = 0.0
    power: float = 1.0
    dual_pol: bool = True
    gains: tuple | None = None
    scenario_id: str = "scenario"
    # The equal-aperture quarter-wavelength baseline intentionally runs with
    # b_bar above the covariance rank; it alone may waive that check.
    enforce_rank_constraint: bool = True

    def __post_init__(self):
        object.__setattr__(self, "covariances", tuple(self.covariances))
        if self.gains is None:
            object.__setattr__(self, "gains", (1.0,) * self.G)
        else:
            object.__setattr__(self, "gains", tuple(self.gains))
        self.validate()

    @property
    def G(self) -> int:
        return len(self.covariances)

    @property
    def n_users(self) -> int:
        return self.G * self.n_bar

    @property
    def alpha(self) -> float:
        """RZF regularization N_bar / (B_bar P), the MMSE-consistent choice."""
        return self.n_bar / (self.b_bar * self.power)

    def validate(self):
        half = self.M // 2 if self.dual_pol else self.M
        for cov in self.covariances:
            if cov.dim != half:
                raise InvalidConfigurationError(
                    f"covariance dimension {cov.dim} does not match array size {half}"
                )
        if self.dual_pol and self.M % 2 != 0:
            raise InvalidConfigurationError("dual-polarized M must be even")
        if self.n_bar % 2 != 0 and self.dual_pol:
            raise InvalidConfigurationError("n_bar must be even (half per polarization)")
        if self.r < 1:
            raise InvalidConfigurationError("r must be at least 1")
        min_rank = min(c.effective_rank for c in self.covariances)
        if self.r > min_rank:
            raise InvalidConfigurationError(
                f"r={self.r} exceeds the smallest effective rank {min_rank}"
            )
        pol_factor = 2 if self.dual_pol else 1
        room = pol_factor * (half - (self.G - 1) * self.r)
        if not self.n_bar <= self.b_bar:
            raise InvalidConfigurationError(
                f"violated n_bar <= b_bar: {self.n_bar} > {self.b_bar}"
            )
        if not self.b_bar <= room:
            raise InvalidConfigurationError(
                f"violated b_bar <= {pol_factor}*(M/{pol_factor} - (G-1) r) = {room}"
            )
        rank_cap = pol_factor * min_rank
        if self.enforce_rank_constraint and not self.b_bar <= rank_cap:
            raise InvalidConfigurationError(
                f"violated b_bar <= {pol_factor}*r_g: {self.b_bar} > {rank_cap}"
            )

    def with_power(self, power: float) -> "GroupScenario":
        return replace(self, power=power)

    def with_power_db(self, snr_db: float) -> "GroupScenario":
        return replace(self, power=power_from_db(snr_db))

    def with_chi(self, chi: float) -> "GroupScenario":
        return replace(self, chi=chi)


def _default_dims(covs, n_bar: int, pol: int, b_bar=None, r=None) -> tuple:
    """(b_bar, r) of a scenario on covariances ``covs``, ``pol`` per position.

    Unless given, r is the smallest effective rank and b_bar =
    min(pol n_bar, pol r). r is then capped so that every group keeps
    enough interference-free dimensions for the preprocessor.
    """
    min_rank = min(c.effective_rank for c in covs)
    if r is None:
        r = min_rank
    if b_bar is None:
        b_bar = min(pol * n_bar, pol * r)
    G, n_positions = len(covs), covs[0].dim
    r_cap = (n_positions - b_bar // pol) // (G - 1) if G > 1 else min_rank
    return b_bar, min(r, r_cap)


def make_scenario(
    M: int = 120,
    G: int = 4,
    n_bar: int = 8,
    spacing: float = 0.5,
    spread: float = math.pi / 12,
    thetas=None,
    chi: float = 0.0,
    power: float = 1.0,
    b_bar: int | None = None,
    r: int | None = None,
    dual_pol: bool = True,
    scenario_id: str = "scenario",
    enforce_rank_constraint: bool = True,
) -> GroupScenario:
    """Build a uniform-linear-array scenario from one-ring geometry.

    Defaults follow the clustered four-group cell used throughout the
    experiments. When not given, r is the smallest effective rank across
    groups (capped so the null-space constraint stays satisfiable) and
    b_bar = min(2 n_bar, 2 r) for dual polarization, min(n_bar scaled) else.
    """
    if thetas is None:
        thetas = default_theta_grid(G)
    n_positions = M // 2 if dual_pol else M
    array = ula(n_positions, spacing)
    covs = tuple(
        one_ring_covariance(GroupGeometry(theta, spread), array)
        for theta in thetas
    )
    b_bar, r = _default_dims(covs, n_bar, 2 if dual_pol else 1, b_bar, r)
    return GroupScenario(
        M=M, n_bar=n_bar, b_bar=b_bar, r=r, covariances=covs, chi=chi,
        power=power, dual_pol=dual_pol, scenario_id=scenario_id,
        enforce_rank_constraint=enforce_rank_constraint,
    )
