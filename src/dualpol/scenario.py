"""Scenario descriptions: cell-level long-term state shared by all modules.

A ``GroupScenario`` bundles everything that varies slowly: per-group
covariances, polarization statistics, dimensions and the transmit power.
Short-term quantities (channel realizations, CSIT quality tau) are passed
separately to the Monte Carlo and asymptotic routines; a ``SweepPoint``
sets them for one point of either engine's sweep.

``make_scenario`` synthesizes its G covariances on min(G, cores in the
affinity set) worker threads when the environment starts OpenBLAS on one
thread (``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``, read as OpenBLAS reads them), else on the calling
thread (``_on_cores``): each covariance is computed whole on one thread,
so the bits are those of a serial loop. The quadrature's ``exp`` and BLAS
products release the GIL.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace

from .corrstats import GroupGeometry, one_ring_covariance
from .errors import InvalidConfigurationError, InvalidInputError

__all__ = ["GroupScenario", "SweepPoint", "make_scenario", "default_theta_grid",
           "power_from_db"]


def power_from_db(snr_db: float) -> float:
    """Transmit power of an SNR in dB; the noise power is one."""
    return 10.0 ** (snr_db / 10.0)


def default_theta_grid(n_groups: int) -> list:
    """Group centers -pi/4 + (g-1) pi/6, the clustered-cell layout."""
    return [-math.pi / 4 + math.pi / 6 * g for g in range(n_groups)]


@dataclass(frozen=True)
class GroupScenario:
    """Long-term description of one cell.

    The covariances set the array size `M`: a dual-polarized array has M/2
    co-located pairs and (M/2 x M/2) covariances, a single-polarized
    baseline full (M x M) ones. `gains` are per-group amplitude scalings
    applied to the channel (used by the 3D reduction).
    """

    n_bar: int
    b_bar: int
    r: int
    covariances: tuple
    chi: float = 0.0
    power: float = 1.0
    dual_pol: bool = True
    gains: tuple | None = None
    scenario_id: str = "scenario"

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
    def pols(self) -> int:
        """Polarizations of the array: 2 dual-polarized, 1 single."""
        return 2 if self.dual_pol else 1

    @property
    def M(self) -> int:
        """Antenna elements: one covariance dimension per polarization."""
        return self.pols * self.covariances[0].dim

    @property
    def alpha(self) -> float:
        """RZF regularization N_bar / (B_bar P), the MMSE-consistent choice."""
        return self.n_bar / (self.b_bar * self.power)

    def validate(self):
        if not 0.0 < self.power < math.inf:
            raise InvalidConfigurationError(f"power must be positive and finite: {self.power}")
        if not self.covariances:
            raise InvalidConfigurationError("a scenario needs at least one group")
        half = self.covariances[0].dim
        if any(cov.dim != half for cov in self.covariances):
            raise InvalidConfigurationError("every group's covariance needs the same dimension")
        if self.n_bar % self.pols != 0:
            raise InvalidConfigurationError("n_bar must be even (half per polarization)")
        if self.b_bar % self.pols != 0:
            raise InvalidConfigurationError(
                f"b_bar must be even (half per polarization): {self.b_bar}")
        if self.r < 1:
            raise InvalidConfigurationError("r must be at least 1")
        min_rank = min(c.effective_rank for c in self.covariances)
        if self.r > min_rank:
            raise InvalidConfigurationError(
                f"r={self.r} exceeds the smallest effective rank {min_rank}"
            )
        room = self.pols * (half - (self.G - 1) * self.r)
        if not self.n_bar <= self.b_bar:
            raise InvalidConfigurationError(
                f"violated n_bar <= b_bar: {self.n_bar} > {self.b_bar}"
            )
        if not self.b_bar <= room:
            raise InvalidConfigurationError(
                f"violated b_bar <= {self.pols}*(M/{self.pols} - (G-1) r) = {room}"
            )
        # Single-polarized baselines (the equal-aperture quarter-wavelength
        # array) intentionally run with b_bar above the covariance rank.
        if self.dual_pol and not self.b_bar <= 2 * min_rank:
            raise InvalidConfigurationError(
                f"violated b_bar <= 2*r_g: {self.b_bar} > {2 * min_rank}"
            )

    def with_power(self, power: float) -> "GroupScenario":
        return replace(self, power=power)

    def with_power_db(self, snr_db: float) -> "GroupScenario":
        return replace(self, power=power_from_db(snr_db))

    def with_chi(self, chi: float) -> "GroupScenario":
        return replace(self, chi=chi)


def _ends(value) -> tuple:
    """The ends of a number or of a drawn (lo, hi) range, which must be
    finite with lo <= hi."""
    ends = value if isinstance(value, tuple) else (value,)
    if len(ends) > 1 and not 0.0 <= ends[1] - ends[0] < math.inf:  # an inf or nan end fails
        raise InvalidInputError(f"a drawn range needs finite lo <= hi, got {value}")
    return ends


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep over a fixed geometry, in either engine.

    ``power`` and ``chi`` default to the scenario's. ``tau_sq`` and
    ``n_bits`` set the schemes' CSIT qualities as in
    ``modeswitch.csit_tau_sq``: a set ``n_bits`` replaces tau^2, drawn or
    not. chi and tau^2 are each a number or a (lo, hi) range, which a
    Monte Carlo trial draws uniformly, once per trial for all users; the
    deterministic equivalents take numbers only. A positive ``theta_max``
    turns each user's antenna by a random angle (Monte Carlo only).
    """

    power: float | None = None
    chi: float | tuple | None = None
    tau_sq: float | tuple = 0.0
    n_bits: int | None = None
    theta_max: float = 0.0

    @property
    def draws(self) -> tuple:
        """What a Monte Carlo trial reads for this point: (theta_max, chi
        range, tau^2 range), with None for a fixed chi or tau^2."""
        return (self.theta_max, *(v if isinstance(v, tuple) else None
                                  for v in (self.chi, self.tau_sq)))

    def on(self, scenario: GroupScenario) -> "SweepPoint":
        """This point on the scenario, as both engines and
        ``metrics.draw_trial`` read it: an unset power and chi taken from
        the scenario; chi, or both ends of its range, checked to lie in
        [0, 1], tau^2's to be nonnegative, a range's to be finite with
        lo <= hi, and theta_max in [0, pi/2]; theta_max 0 on a
        single-polarized array, which is never mismatched. The power is
        checked where a scenario takes it (``GroupScenario.validate``).
        """
        chi = scenario.chi if self.chi is None else self.chi
        if not all(0.0 <= end <= 1.0 for end in _ends(chi)):
            raise InvalidInputError("chi must lie in [0, 1]")
        if min(_ends(self.tau_sq)) < 0.0:
            raise InvalidInputError("tau_sq must be nonnegative")
        if not 0.0 <= self.theta_max <= math.pi / 2:
            raise InvalidInputError("theta_max must lie in [0, pi/2]")
        return replace(self, power=scenario.power if self.power is None else self.power,
                       chi=chi, theta_max=self.theta_max if scenario.dual_pol else 0.0)


def _one_blas_thread() -> bool:
    """Whether the environment starts OpenBLAS on one thread, read as
    OpenBLAS reads it at load: the first positive count among
    OPENBLAS_NUM_THREADS and GOTO_NUM_THREADS, else OMP_NUM_THREADS, each
    parsed as C's ``atoi`` parses it ("1,4" is 1, "abc" is 0)."""
    counts = (re.match(r"\s*[+-]?[0-9]+", os.environ.get(name, ""))
              for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    return next((int(c[0]) for c in counts if c and int(c[0]) > 0), None) == 1


def _on_cores(fn, items) -> list:
    """``[fn(x) for x in items]``, on min(len(items), cores in the affinity
    set) worker threads when the environment starts OpenBLAS on one thread
    (``_one_blas_thread``), else on the calling thread: OpenBLAS's own
    threads contend with ours, and without ``os.sched_getaffinity`` (not
    Linux) the cores are not known. Each call runs whole on one thread and
    the results come in item order, so they are the loop's, bit for bit; so
    is the exception, the first failing item's, raised once every worker
    has stopped.
    """
    items = list(items)
    k = (min(len(items), len(os.sched_getaffinity(0)))
         if _one_blas_thread() and hasattr(os, "sched_getaffinity") else 1)
    if k <= 1:
        return [fn(x) for x in items]
    # Imported here, so that a process on the serial path does not pay for
    # concurrent.futures and the logging it imports (15 ms and 1 MB).
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(k) as pool:
        return list(pool.map(fn, items))


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
) -> GroupScenario:
    """Build a uniform-linear-array scenario from one-ring geometry, one
    group per entry of ``thetas`` (default: ``default_theta_grid(G)``).

    Defaults follow the clustered four-group cell used throughout the
    experiments. When not given, r is the smallest effective rank across
    groups and b_bar = min(2 n_bar, 2 r) for dual polarization,
    min(n_bar, r) for one. r is then capped so that every group keeps
    enough interference-free dimensions for the preprocessor; a single
    group's cap is the smallest rank. The groups' covariances are
    synthesized on the affinity set's cores when the environment starts
    OpenBLAS on one thread (``_on_cores``).
    """
    if thetas is None:
        thetas = default_theta_grid(G)
    pols = 2 if dual_pol else 1
    if M % pols != 0:
        raise InvalidConfigurationError("dual-polarized M must be even")
    # one_ring_covariance is looked up here at call time, so a wrapper
    # installed on this module (perfbench/tracer.py) sees every call.
    covs = tuple(_on_cores(
        lambda theta: one_ring_covariance(GroupGeometry(theta, spread), M // pols, spacing),
        thetas))
    if not covs:
        raise InvalidConfigurationError("a scenario needs at least one group")
    min_rank = min(c.effective_rank for c in covs)
    r = min_rank if r is None else r
    if b_bar is None:
        b_bar = pols * min(n_bar, r)
    G = len(covs)
    r_cap = (M // pols - b_bar // pols) // (G - 1) if G > 1 else min_rank
    return GroupScenario(
        n_bar=n_bar, b_bar=b_bar, r=min(r, r_cap), covariances=covs, chi=chi,
        power=power, dual_pol=dual_pol, scenario_id=scenario_id,
    )
