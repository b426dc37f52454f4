"""Channel realizations and the imperfect-CSIT model.

A group's channel is held as one state: its Karhunen-Loeve (KL)
coefficients X and their CSIT noise Z. The channel is
H = gain blockdiag(A, A) X with A = U Lambda^(1/2) the covariance
eigenmodes (gain A X for a single-polarized array), and X is built from
white inner Gaussian factors. Polarization mismatch turns each user's
antenna by a random angle, mixing its own receive port with the orthogonal
one, which has an independent inner factor. Z is drawn white and scaled to
the standard deviation of each entry of X, so every CSIT view follows one
rule: the estimate of X is ``mix_csit(X, Z, tau)``, the variance-preserving
mix of Wagner, Couillet, Debbah and Slock (IEEE Trans. Inf. Theory, 2012),
and the estimate of H is its KL synthesis.

A channel may also stack many trials along a leading axis
(``channel_from_normals``); the coefficient and CSIT helpers below act on
the last two axes and broadcast per-trial chi and tau over the leading one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corrstats import SpatialCovariance
from .errors import InvalidInputError

__all__ = [
    "RngStream",
    "GroupChannel",
    "draw_channel",
    "draw_mismatched_channel",
    "draw_single_pol_channel",
    "channel_from_normals",
    "mix_csit",
]


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: identical (seed, stream_id) => identical draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


#: numpy divides a complex number by a real one (Smith's algorithm with a
#: zero imaginary part) as each part times this reciprocal.
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _complex(x, y):
    """(x + jy)/sqrt(2), bit for bit on nonzero parts, written part by part
    into one array with no complex temporaries."""
    z = np.empty(x.shape, dtype=complex)
    np.multiply(x, _SQRT_HALF, out=z.real)
    np.multiply(y, _SQRT_HALF, out=z.imag)
    return z


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1): (x + jy)/sqrt(2) with x, y standard normal."""
    return _complex(rng.standard_normal(shape), rng.standard_normal(shape))


@dataclass(frozen=True)
class GroupChannel:
    """One group's realization: KL coefficients and their CSIT noise.

    ``X`` holds the KL coefficients of H (H = gain blockdiag(A, A) X with
    A = U Lambda^(1/2)), one row block per polarization; its first half of
    columns are vertically polarized users, the second half horizontally
    polarized ones. ``Z`` is the CSIT noise, scaled at draw time to the
    standard deviation of each entry of X, or None when the draw kept no
    noise: such a channel has perfect CSIT only. Single-polarized channels
    have one row block (H = gain A X). Mismatched draws carry the users'
    rotation angles.

    A trial-stacked channel (``channel_from_normals``) has a leading trial
    axis on X and Z: ``coefficients_hat`` then takes one tau per trial.
    """

    X: np.ndarray = field(repr=False)
    Z: np.ndarray | None = field(repr=False)
    stats: SpatialCovariance = field(repr=False)
    gain: float = 1.0
    mismatch_angles: np.ndarray | None = None

    @property
    def n_users(self) -> int:
        return self.X.shape[-1]

    @property
    def pols(self) -> int:
        """The row blocks of X: 2 for a dual-polarized array, 1 for a single."""
        return self.X.shape[-2] // self.stats.effective_rank

    def _synthesis(self, X) -> np.ndarray:
        """The channel with KL coefficients X in this group's basis."""
        A = self.gain * self.stats.factor()
        lead, n = X.shape[:-2], X.shape[-1]
        return (A @ X.reshape(*lead, self.pols, -1, n)).reshape(*lead, -1, n)

    @cached_property
    def H(self) -> np.ndarray:
        """The true channel, synthesised from X on first use."""
        return self._synthesis(self.X)

    def coefficients_hat(self, tau) -> np.ndarray:
        """Imperfect CSIT of the KL coefficients of H.

        A user measures the channel it actually sees, rotation included, so
        the estimate is X corrupted by ``mix_csit``; since Z is scaled to
        each entry's standard deviation, tau keeps its meaning as the
        estimate's distance from X.
        """
        return mix_csit(self.X, self.Z, tau)

    def copolar_hat(self, tau) -> tuple:
        """The co-polarized blocks of ``coefficients_hat``: the vertical
        users' upper rows and the horizontal users' lower rows."""
        r, n2 = self.X.shape[-2] // 2, self.n_users // 2
        X_hat = self.coefficients_hat(tau)
        return X_hat[..., :r, :n2], X_hat[..., r:, n2:]

    def h_hat(self, tau: float) -> np.ndarray:
        """Imperfect CSIT of H: the KL synthesis of ``coefficients_hat``."""
        return self.H if tau == 0.0 else self._synthesis(self.coefficients_hat(tau))


def _blockwise(M, w):
    """Scale the rows of each polarization block of M (..., pols r, n) by
    the matching row of w (..., pols, n)."""
    blocks = M.reshape(*M.shape[:-2], w.shape[-2], -1, M.shape[-1])
    return (blocks * w[..., None, :]).reshape(M.shape)


def _kl_coefficients(chi, G, pols, angles=None, G_cross=None):
    """KL coefficients X of a group with ``pols`` row blocks and their
    entries' std.

    User k is co-polar to block k pols // n. A user's own receive port
    weighs its inner factor ``G`` by 1 on its co-polarized block and
    sqrt(chi) on the other; with one block every weight is 1, so X = G.
    An antenna turned by theta adds the orthogonal port, with its own inner
    factor ``G_cross`` and the mirrored weights: the antenna responds with
    (cos, sin) to the (vertical, horizontal) ports for vertical users and
    (-sin, cos) for horizontal ones. The terms are independent, so the
    standard deviation of an entry is the root sum of squares of its two
    weights. The std is returned per block, shape (..., pols, n).
    """
    n = G.shape[-1]
    copolar = np.arange(pols)[:, None] == np.arange(n) * pols // n
    own = np.where(copolar, 1.0, np.sqrt(chi)[..., None, None])
    if angles is None:
        return _blockwise(G, own), own
    c, s = np.cos(angles), np.sin(angles)
    s[..., n // 2:] = -s[..., n // 2:]
    w_own = c[..., None, :] * own
    w_cross = s[..., None, :] * own[..., ::-1, :]
    return (_blockwise(G, w_own) + _blockwise(G_cross, w_cross),
            np.hypot(w_own, w_cross))


def _read_group(gen, normals, theta_max=None, scratch=None):
    """Read one group's draws from ``gen`` in stream order: the normals of
    the inner factor G and the CSIT noise Z into ``normals[:4]`` and, when
    mismatched (``theta_max`` given), the users' angles and the orthogonal
    port's normals into the rest. ``normals`` is the (k, rows, n) array
    ``channel_from_normals`` takes; returns the angles, or None.

    With a 1-D ``scratch`` array, the noise's normals are read into its
    head and dropped, so ``normals`` holds G, then the orthogonal port's
    normals: the draw of a channel with perfect CSIT only.
    """
    if scratch is None:
        gen.standard_normal(out=normals[:4])
        rest = normals[4:]
    else:
        gen.standard_normal(out=normals[:2])
        gen.standard_normal(out=scratch[:normals[:2].size])
        rest = normals[2:]
    if theta_max is None:
        return None
    angles = gen.uniform(-theta_max, theta_max, size=normals.shape[-1])
    gen.standard_normal(out=rest)
    return angles


def _draw(stats, chi, n_users, rng, theta_max=None, gain=1.0):
    if n_users % 2 != 0:
        raise InvalidInputError("n_users must be even")
    if stats.effective_rank < 1:
        raise InvalidInputError("covariance has no significant eigenmode")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    normals = np.empty((4 if theta_max is None else 6, 2 * stats.effective_rank, n_users))
    angles = _read_group(gen, normals, theta_max)
    return channel_from_normals(stats, chi, normals, angles, gain)


def channel_from_normals(stats: SpatialCovariance, chi, normals: np.ndarray,
                         angles=None, gain: float = 1.0) -> GroupChannel:
    """One group's channel from the standard normals of its draw.

    ``normals`` (..., k, rows, n) holds, in draw order, the real and
    imaginary parts of the inner factor G, of the CSIT noise and, for a
    mismatched draw (``angles`` given), of the orthogonal port's inner
    factor: k = 4, or 6 when mismatched. Without the noise's two parts
    (k = 2, or 4 when mismatched) the channel holds no noise (``Z`` is
    None) and has perfect CSIT only. Leading axes stack trials, and
    ``chi`` and ``angles`` then carry one entry per trial. The rows hold
    one block of the effective rank per polarization: two for a
    dual-polarized channel, one for a single-polarized one, whose weights
    are all 1 (X = G, whatever ``chi``).
    """
    if not np.all((0.0 <= chi) & (chi <= 1.0)):
        raise InvalidInputError("chi must lie in [0, 1]")
    k = normals.shape[-3]
    G = _complex(normals[..., 0, :, :], normals[..., 1, :, :])
    Z = None
    if k == (4 if angles is None else 6):
        Z = _complex(normals[..., 2, :, :], normals[..., 3, :, :])
    G_cross = None
    if angles is not None:
        G_cross = _complex(normals[..., k - 2, :, :], normals[..., k - 1, :, :])
    X, std = _kl_coefficients(chi, G, normals.shape[-2] // stats.effective_rank,
                              angles, G_cross)
    return GroupChannel(X=X, Z=None if Z is None else _blockwise(Z, std), stats=stats,
                        gain=gain, mismatch_angles=angles)


def draw_channel(stats: SpatialCovariance, chi: float, n_users: int, rng,
                 gain: float = 1.0) -> GroupChannel:
    """Draw one group's dual-polarized channel at inverse XPD ``chi``.

    H = [[A Gvv, sqrt(chi) A Ghv], [sqrt(chi) A Gvh, A Ghh]] with
    A = U Lambda^(1/2) and i.i.d. CN(0,1) inner blocks: each receive port
    of a user sees the array through its own inner factor, scaled by 1 on
    its co-polarized transmit block and by sqrt(chi) on the other, with no
    cross-polar correlation. ``chi`` must lie in [0, 1].
    """
    return _draw(stats, chi, n_users, rng, gain=gain)


def draw_mismatched_channel(stats: SpatialCovariance, chi: float,
                            theta_max: float, n_users: int, rng,
                            gain: float = 1.0) -> GroupChannel:
    """Like draw_channel but each user's antenna is turned by an angle
    theta ~ U[-theta_max, theta_max].

    A turned antenna mixes the user's own receive port (weight cos theta)
    with the orthogonal port (weight sin theta), which gets an independent
    inner factor drawn after the angles, so the turned antenna carries power
    cos^2 + chi sin^2 on its co-polarized block and chi cos^2 + sin^2 on
    the other (``mismatch_effective_stats``). The CSIT
    (``GroupChannel.coefficients_hat``) estimates this rotated channel.
    """
    if not 0.0 <= theta_max <= np.pi / 2:
        raise InvalidInputError("theta_max must lie in [0, pi/2]")
    return _draw(stats, chi, n_users, rng, theta_max=theta_max, gain=gain)


def draw_single_pol_channel(stats: SpatialCovariance, n_users: int, rng,
                            gain: float = 1.0) -> GroupChannel:
    """Co-polarized baseline: H = U Lambda^(1/2) G over the full array."""
    if n_users < 1:
        raise InvalidInputError("n_users must be positive")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    normals = np.empty((4, stats.effective_rank, n_users))
    _read_group(gen, normals)
    return channel_from_normals(stats, 0.0, normals, gain=gain)


def mix_csit(G: np.ndarray, Z: np.ndarray, tau) -> np.ndarray:
    """sqrt(1 - tau^2) G + tau Z: variance-preserving CSIT corruption.

    ``tau`` is one value, or one per trial of a trial-stacked G. ``Z`` may
    be None where every tau is 0.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= tau) & (tau <= 1.0)):
        raise InvalidInputError("tau must lie in [0, 1]")
    if not tau.any():
        return G
    if Z is None:
        raise InvalidInputError("a channel drawn without CSIT noise has perfect CSIT only")
    tau = tau[..., None, None]
    return np.sqrt(1.0 - tau * tau) * G + tau * Z

