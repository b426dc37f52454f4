"""Dual-structured precoders.

The outer preprocessor projects each group onto the dominant eigenspace that
is orthogonal to the other groups' dominant eigenvectors (block
diagonalization); the inner precoder is regularized zero-forcing on the
effective channel estimate. BDS splits each group into co-polarized
subgroups that only consume co-polarized CSIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateInputError, InvalidConfigurationError, InvalidInputError
from .scenario import GroupScenario

__all__ = [
    "Preprocessor",
    "InnerPrecoder",
    "PrecoderSet",
    "bd_preprocessor",
    "build_preprocessors",
    "null_space_modes",
    "rzf_precoder",
    "build_all",
    "kl_projections",
    "CsitView",
    "csit_view",
    "stacked_precoders",
]

_NULLSPACE_TOL = 1e-10


@dataclass(frozen=True)
class Preprocessor:
    """Outer matrix of one group.

    ``B_s`` is the per-polarization block (M/pols x B_bar/pols) of an
    array with ``pols`` polarizations; the BD matrix is I_pols (x) B_s (B_s
    itself for a single-polarized array) and the BDS pair stacks B_s over
    a zero block.
    """

    B_s: np.ndarray
    pols: int = 2

    @property
    def bd(self) -> np.ndarray:
        return np.kron(np.eye(self.pols), self.B_s)

    @property
    def bds_v(self) -> np.ndarray:
        z = np.zeros_like(self.B_s)
        return np.vstack([self.B_s, z])

    @property
    def bds_h(self) -> np.ndarray:
        z = np.zeros_like(self.B_s)
        return np.vstack([z, self.B_s])


@dataclass(frozen=True)
class InnerPrecoder:
    """RZF inner precoder with its normalization."""

    P: np.ndarray
    xi_sq: float


@dataclass(frozen=True)
class PrecoderSet:
    """The precoders of one realization. ``inner`` is one trial of
    ``stacked_precoders``, (G, B_bar, n_bar): blockdiag(P_v, P_h) for BDS."""

    mode: str
    preprocessors: tuple
    inner: np.ndarray = field(repr=False)

    def transmit_matrix(self, g: int) -> np.ndarray:
        """B_g P_g with columns ordered like the group's users."""
        return self.preprocessors[g].bd @ self.inner[g]


def null_space_modes(R: np.ndarray, others, n_cols: int) -> np.ndarray:
    """Top ``n_cols`` eigenmodes of R compressed into the null space of
    ``others``, a list of column blocks, in array coordinates.

    Takes an orthonormal basis E0 of the orthogonal complement of the
    blocks' span and returns E0 F, F the top eigenvectors of E0^H R E0. It
    has fewer columns when the complement is smaller, none when it is
    empty.
    """
    U_minus = np.hstack([np.zeros((R.shape[0], 0)), *others])
    E0 = np.eye(R.shape[0], dtype=complex)
    if U_minus.shape[1] > 0:
        u, s, _ = np.linalg.svd(U_minus, full_matrices=True)
        E0 = u[:, np.count_nonzero(s >= _NULLSPACE_TOL * s[0]):]
    R_tilde = E0.conj().T @ R @ E0
    vals, vecs = np.linalg.eigh((R_tilde + R_tilde.conj().T) / 2.0)
    order = np.argsort(vals)[::-1]
    return E0 @ vecs[:, order[:n_cols]]


def bd_preprocessor(all_stats, g: int, r: int, b_bar: int,
                    pols: int = 2) -> Preprocessor:
    """Block-diagonalization preprocessor of group ``g`` on an array with
    ``pols`` polarizations.

    The top B_bar/pols eigenmodes of R_g compressed into the null space of
    the other groups' top-r eigenvectors (``null_space_modes``).
    """
    n_cols = b_bar // pols
    G = len(all_stats)
    stats = all_stats[g]
    room = stats.dim - (G - 1) * r
    if n_cols > room:
        raise InvalidConfigurationError(
            f"violated b_bar <= {pols}*(array - (G-1) r): "
            f"{n_cols} columns > {room} free dimensions"
        )
    if r > min(s.effective_rank for s in all_stats):
        raise InvalidConfigurationError("violated r <= min effective rank")
    others = [all_stats[l].dominant_eigvecs(r) for l in range(G) if l != g]
    return Preprocessor(B_s=null_space_modes(stats.matrix, others, n_cols), pols=pols)


def build_preprocessors(scenario: GroupScenario) -> tuple:
    return tuple(
        bd_preprocessor(scenario.covariances, g, scenario.r, scenario.b_bar, scenario.pols)
        for g in range(scenario.G)
    )


def _gram(H: np.ndarray) -> np.ndarray:
    """The users-side Gram matrix H^H H, over the last two axes."""
    return H.conj().swapaxes(-1, -2) @ H


def rzf_precoder(H_eff_hat: np.ndarray, alpha: float, n_streams: int,
                 gram: np.ndarray | None = None) -> InnerPrecoder:
    """Regularized ZF on the effective channel estimate.

    P = xi K H with K = (H H^H + dim alpha I)^-1, dim the row count and
    xi^2 = n_streams / tr(H^H K^H K H), which fixes the transmit power.
    K H is formed by push-through as H (H^H H + dim alpha I)^-1, which
    inverts the users-side Gram matrix: H has no more columns than rows
    (``GroupScenario.validate`` keeps n_bar <= b_bar). Leading axes of H
    stack independent trials (and groups); P and xi^2 keep them.
    ``gram``, H^H H when the caller already holds it, saves forming it
    again at another regularizer.
    """
    if alpha <= 0.0:
        raise InvalidInputError("alpha must be positive")
    dim, n = H_eff_hat.shape[-2:]
    if gram is None:
        gram = _gram(H_eff_hat)
    KH = H_eff_hat @ np.linalg.inv(gram + dim * alpha * np.eye(n))
    norm = np.abs(KH)
    norm = np.square(norm, out=norm).sum(axis=(-2, -1))
    if np.any(norm <= 0.0):
        raise DegenerateInputError("all-zero effective channel cannot be normalized")
    xi_sq = n_streams / norm
    KH *= np.sqrt(xi_sq)[..., None, None]
    return InnerPrecoder(P=KH, xi_sq=xi_sq)


def build_all(scenario: GroupScenario, channels, mode: str,
              tau: float = 0.0, preprocessors=None) -> PrecoderSet:
    """Assemble the outer/inner precoders of every group for one realization:
    ``stacked_precoders`` at one trial, in the channels' KL bases.

    BD computes one RZF per group on B_g^H H_hat_g with regularizer
    B_bar alpha = n_bar / P; BDS computes one RZF per co-polarized subgroup
    on (B_g^s)^H H_hat_g^{pp}, consuming only co-polarized CSIT. The BDS
    blocks keep the same absolute regularizer n_bar / P (the MMSE value for
    half the streams at half the power), which is what makes BDS coincide
    with BD when the polarizations do not leak into each other.
    """
    if preprocessors is None:
        preprocessors = build_preprocessors(scenario)
    C, _ = kl_projections(preprocessors, [entry.stats for entry in channels],
                          [entry.gain for entry in channels])
    view = csit_view(scenario, C, _one_trial(channels), mode, np.full(1, float(tau)))
    return PrecoderSet(mode, tuple(preprocessors), stacked_precoders(scenario, view)[0])


def _one_trial(channels) -> list:
    """The group channels of one realization as a one-trial stack."""
    return [replace(entry, X=entry.X[None], Z=None if entry.Z is None else entry.Z[None])
            for entry in channels]


def kl_projections(preprocessors, covariances, gains) -> tuple:
    """The outer precoders seen from every group's KL basis.

    With A_g = gain_g U_g Lambda_g^(1/2) the basis group g's channel is
    drawn in, returns (C, D): C[g] = B_s,g^H A_g and
    D[g] = [A_g^H B_s,0, ..., A_g^H B_s,G-1] side by side. The two-stage
    (outer BD, inner RZF) structure makes the reduced form exact: BD's
    effective channel is blockdiag(C_g, C_g) X_hat_g, the BDS subgroups see
    C_g X_hat_g^{pp}, and group l's inner precoder P_l reaches group g's
    users as X_g^H blockdiag(D_gl, D_gl) P_l, so no M-row matrix is formed.
    Single-polarized scenarios drop the block diagonal.
    """
    C, D = [], []
    for pre, cov, gain in zip(preprocessors, covariances, gains):
        A = gain * cov.factor()
        C.append(pre.B_s.conj().T @ A)
        D.append(np.hstack([A.conj().T @ other.B_s for other in preprocessors]))
    return C, D


@dataclass(frozen=True)
class CsitView:
    """Every group's effective channel estimate for a stack of trials, at
    one CSIT quality ``tau`` per trial, with its Gram matrix.

    ``H`` is (T, G, B_bar, n_bar) for BD and (T, G, 2, B_bar/2, n_bar/2)
    for BDS, whose co-polarized subgroups sit on the third axis. Neither
    ``H`` nor ``gram`` (H^H H) depends on the power, so one view serves
    every power of a sweep.
    """

    mode: str
    tau: np.ndarray
    H: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)


def csit_view(scenario: GroupScenario, C, channels, mode: str, tau) -> CsitView:
    """The ``CsitView`` of trial-stacked group channels in the KL domain.

    ``tau`` holds one CSIT quality per trial and ``C`` comes from
    ``kl_projections``. BD's effective channel of group g is
    blockdiag(C_g, C_g) X_hat_g; each BDS subgroup sees C_g X_hat_g^{pp},
    only the co-polarized CSIT.
    """
    if mode not in ("BD", "BDS"):
        raise InvalidInputError(f"unknown precoding mode {mode!r}")
    if mode == "BDS" and not scenario.dual_pol:
        raise InvalidInputError("BDS requires a dual-polarized scenario")
    n_bar, pols = scenario.n_bar, scenario.pols
    H = []
    for C_g, entry in zip(C, channels):
        if mode == "BD":
            X_hat = entry.coefficients_hat(tau)
            blocks = X_hat.reshape(X_hat.shape[0], pols, -1, n_bar)
            H.append((C_g @ blocks).reshape(X_hat.shape[0], -1, n_bar))
        else:
            H.append(np.stack([C_g @ X_hat for X_hat in entry.copolar_hat(tau)], axis=1))
    H = np.stack(H, axis=1)
    return CsitView(mode=mode, tau=tau, H=H, gram=_gram(H))


def stacked_precoders(scenario: GroupScenario, view: CsitView) -> np.ndarray:
    """The inner precoders of every group of a ``CsitView``, from one
    batched RZF at the scenario's power.

    Returns one (T, G, B_bar, n_bar) array: group g transmits
    blockdiag(B_s, B_s) P_g, where P_g is BD's RZF or, for BDS,
    blockdiag(P_v, P_h).
    """
    alpha, n_bar = scenario.alpha, scenario.n_bar
    if view.mode == "BD":
        return rzf_precoder(view.H, alpha, n_bar, view.gram).P
    inner = rzf_precoder(view.H, 2.0 * alpha, n_bar // 2, view.gram).P
    T, G, _, b2, n2 = inner.shape
    P = np.zeros((T, G, 2 * b2, n_bar), dtype=complex)
    P[..., :b2, :n2] = inner[:, :, 0]
    P[..., b2:, n2:] = inner[:, :, 1]
    return P
