"""Noise spectroscopy: second-order kernel model, correlation fits, spectra, scaling protocol."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .liouville import (PAULIS, _free_superops, commutator_superop, left_multiply,
                        right_multiply, vec)

__all__ = [
    "CorrelationSeries",
    "fit_correlations",
    "spectral_density",
    "combine_scaled_kernels",
]

_AXES = {"x": 0, "y": 1, "z": 2}
# Huber knee of the continuity term and iteration cap of the reweighted solve
_KNEE = 1e-6
_MAX_ITER = 60


@dataclass(frozen=True)
class CorrelationSeries:
    """Fitted correlation functions C_{aa'}(t_n) on a uniform grid.

    values has shape (K, 3, 3) over the (x, y, z) channel grid at times
    t_n = n dt, n = 0..K-1; entries outside the active mask are zero.
    """

    dt: float
    values: np.ndarray
    active: np.ndarray
    residuals: np.ndarray = field(default=None)
    iterations: np.ndarray = field(default=None)

    @property
    def times(self):
        return self.dt * np.arange(self.values.shape[0])

    def channel(self, a, b):
        return self.values[:, _AXES[a], _AXES[b]]


_SIGMAS = np.array([PAULIS[a] for a in "XYZ"])
_COMMUTATORS = np.array([commutator_superop(p) for p in _SIGMAS])


def _interaction_superops(hs, times):
    # left- and right-multiplication superoperators of sigma_b(t) = U(t) sigma_b U(t)^dag,
    # U(t) = e^{-i hs t}, each (T, 3, 4, 4); vec(sigma_b(t)) = S(t) vec(sigma_b) with
    # S(t) = U(t) (x) conj(U(t))
    sig = _free_superops(hs, times)[:, None] @ _SIGMAS.reshape(3, 4, 1)
    sig = sig.reshape(-1, 3, 2, 2)
    return left_multiply(sig), right_multiply(sig)


def _k2_stack(corr, left, right):
    # K2 = -sum_{aa'} [sigma^a, C_{aa'} sigma^{a'}(t) (.) - C*_{aa'} (.) sigma^{a'}(t)]
    # for (..., 3, 3) channel matrices against a (T, 3, 4, 4) superoperator stack;
    # returns (..., T, 4, 4). The sign convention is stated on fit_correlations.
    inner = (np.einsum("...ab,tbij->...taij", corr, left)
             - np.einsum("...ab,tbij->...taij", corr.conj(), right))
    return np.einsum("aij,...tajk->...tik", -_COMMUTATORS, inner)


def _solve_one(a_mat, b_vec, lam, c_prev):
    # minimize |A c - b|_2 + lam * sum_i |c_i - c_prev_i| over real c,
    # by iteratively reweighted least squares with a Huber knee on both terms.
    # Returns (c, residual, iterations, shift); shift is the last update's size
    # when the loop hit _MAX_ITER unconverged, else None.
    if lam == 0:
        c, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        return c, float(np.linalg.norm(a_mat @ c - b_vec)), 1, None
    eps_data = 1e-12 * max(1.0, float(np.linalg.norm(b_vec)))
    ata = a_mat.T @ a_mat
    atb = a_mat.T @ b_vec
    if a_mat.shape[1] == 1:
        c, iters, shift = _irls_scalar(a_mat[:, 0], b_vec, lam, float(c_prev[0]),
                                       float(ata[0, 0]), float(atb[0]), eps_data)
        c = np.array([c])
    else:
        c = c_prev.copy()
        for iters in range(1, _MAX_ITER + 1):
            r = float(np.linalg.norm(a_mat @ c - b_vec))
            w_data = 1.0 / max(r, eps_data)
            w_reg = lam / np.maximum(np.abs(c - c_prev), _KNEE)
            lhs = w_data * ata + np.diag(w_reg)
            rhs = w_data * atb + w_reg * c_prev
            c_new = np.linalg.solve(lhs, rhs)
            shift = float(np.max(np.abs(c_new - c)))
            c = c_new
            if shift < 1e-12 * max(1.0, float(np.max(np.abs(c)))):
                shift = None
                break
    return c, float(np.linalg.norm(a_mat @ c - b_vec)), iters, shift


def _irls_scalar(a, b, lam, c_prev, ata, atb, eps_data):
    # the loop of _solve_one for one channel, on Python floats; each step rounds
    # as the matrix loop's does (norm is sqrt(x.dot(x)), a 1x1 solve is one
    # division), so the iterates are bit-identical
    c = c_prev
    for iters in range(1, _MAX_ITER + 1):
        x = a * c - b
        w_data = 1.0 / max(math.sqrt(x.dot(x)), eps_data)
        w_reg = lam / max(abs(c - c_prev), _KNEE)
        c_new = (w_data * atb + w_reg * c_prev) / (w_data * ata + w_reg)
        shift = abs(c_new - c)
        c = c_new
        if shift < 1e-12 * max(1.0, abs(c)):
            return c, iters, None
    return c, iters, shift


def fit_correlations(kernels, hs, dt, active=(("z", "z"),), lambdas=None):
    """Recover real correlation functions from a sampled memory kernel.

    Solves, sequentially in n, min_C |K2(t_n; C) - K_exp(t_n)|_F
    + lambda_n * sum over active channels of |C(t_n) - C(t_{n-1})|,
    warm-starting each point at the previous solution. The continuity
    term uses a Huber knee so it stays differentiable near zero. The model
    is the second-order kernel

        K2(t) = -sum_{aa'} [sigma^a, C_{aa'}(t) sigma^{a'}(t) (.)
                            - C*_{aa'}(t) (.) sigma^{a'}(t)]

    with sigma^{a'}(t) = e^{-iH_s t} sigma^{a'} e^{iH_s t}. The overall
    minus puts the kernel on the +int K rho side of the master equation,
    so pure z dephasing gives rhodot_12 = -4 C_zz(0) rho_12 at t = 0.

    Parameters
    ----------
    kernels : sequence of (4, 4) arrays
        K(t_j) at t_j = j dt from t = 0, as :func:`ttmkit.ttm.extract_kernel`
        lays the series out; its docstring states the convention.
    hs : (2, 2) Hermitian array
        System Hamiltonian, needed for the interaction-picture rotation.
    active : sequence of (a, b) axis-label pairs
        Channels allowed to be nonzero, at least one and each at most once;
        everything else is pinned to 0.
    lambdas : scalar or length-K sequence, optional
        Continuity weights. Default 0.05 |K_exp(0)|_F at every point.

    Returns
    -------
    CorrelationSeries
        On the grid t_n = n dt, n = 0..K-1. The fit solves over real C, so
        the values are real classical correlations.
    """
    kernels = [np.asarray(k, dtype=complex) for k in kernels]
    n_points = len(kernels)
    channels = [(a, b) for a, b in active]
    if not channels:
        raise ValueError("active must name at least one channel pair")
    units = np.zeros((len(channels), 3, 3), dtype=complex)
    for j, (a, b) in enumerate(channels):
        if a not in _AXES or b not in _AXES:
            raise ValueError(f"unknown channel ({a}, {b})")
        if (a, b) in channels[:j]:
            raise ValueError(f"active names channel ({a}, {b}) more than once")
        units[j, _AXES[a], _AXES[b]] = 1.0

    if lambdas is None:
        lambdas = 0.05 * float(np.linalg.norm(kernels[0]))
    lam_seq = np.broadcast_to(np.asarray(lambdas, dtype=float), (n_points,))

    # Column j of design[n] is [Re vec, Im vec] of K2(t_n) for a unit C on channel j;
    # the copy makes every design[n] a C-ordered (32, n_ch) matrix for the solver.
    g = _k2_stack(units, *_interaction_superops(hs, np.arange(n_points) * dt))
    g = g.reshape(len(channels), n_points, -1)
    design = np.concatenate([g.real, g.imag], axis=2).transpose(1, 2, 0).copy()

    values = np.zeros((n_points, 3, 3), dtype=complex)
    residuals = np.zeros(n_points)
    iterations = np.zeros(n_points, dtype=int)
    c_prev = None  # also the warm start of the next point
    for n in range(n_points):
        b_vec = np.concatenate([vec(kernels[n]).real, vec(kernels[n]).imag])
        lam = 0.0 if n == 0 else float(lam_seq[n])
        c, res, iters, shift = _solve_one(design[n], b_vec, lam, c_prev)
        if shift is not None:
            warnings.warn(f"correlation fit at point {n} stopped at shift {shift:.3e} "
                          f"after {_MAX_ITER} iterations", stacklevel=2)
        for (a, b), value in zip(channels, c):
            values[n, _AXES[a], _AXES[b]] = value
        residuals[n] = res
        iterations[n] = iters
        c_prev = c
    return CorrelationSeries(dt, values, units.any(axis=0), residuals, iterations)


def spectral_density(series, channel=("z", "z"), pad_factor=4):
    """Classical spectral density of a fitted correlation function.

    S(w) = dt * sum_n C(t_n) e^{i w t_n} over the two-sided extension
    C_ab(-t) = C_ba(t) (Wiener-Khinchin convention) of the grid t_n = n dt
    that starts at t = 0. A plain array input is C(t_n) itself, with dt as
    the second argument. Returns (omega, s) with omega ascending and s real.
    """
    if isinstance(series, CorrelationSeries):
        a, b = channel
        fwd = series.channel(a, b)
        rev = series.channel(b, a)
        if not series.active[_AXES[b], _AXES[a]]:
            rev = fwd
        dt = series.dt
    else:
        fwd = np.asarray(series, dtype=complex)
        rev = fwd
        dt = channel if np.isscalar(channel) else None
        if dt is None:
            raise ValueError("pass dt as the second argument for plain arrays")

    k = len(fwd)
    full = np.concatenate([rev[1:][::-1], fwd])
    n_full = 2 * k - 1
    n_pad = pad_factor * n_full
    if n_pad % 2 == 0:
        n_pad += 1  # odd grid keeps +w/-w in exact pairs
    omega = 2.0 * np.pi * np.fft.fftfreq(n_pad, dt)
    # S(w_m) = dt * sum_j full_j e^{i w_m t_j}, t_j = (j - (k-1)) dt
    spec = dt * n_pad * np.fft.ifft(full, n_pad) * np.exp(-1j * omega * (k - 1) * dt)
    order = np.argsort(omega)
    spec = spec[order]
    if np.max(np.abs(spec.imag)) > 1e-8 * max(np.max(np.abs(spec)), 1e-30):
        raise ValueError("spectral transform came out complex; check the input symmetry")
    return omega[order], spec.real


def combine_scaled_kernels(kernels, gammas=None, biases=None, dt=None):
    """Strip higher-order kernel contributions from a family of scaled runs.

    The expansion K = K2 + K4 + ... scales as K_{2n, i} = g_i^{2n} K_{2n, 0}
    across experiments indexed by i. Supplying N runs determines the first
    N even orders; the returned series is the solved K2 of run 0.

    Each run is a kernel series laid out as :func:`ttmkit.ttm.extract_kernel`
    states: slot j holds K(j dt) from t = 0.

    Two ways to declare the scaling:
    - gammas: direct scale factors g_i (g_0 = 1), e.g. coupling ratios
      sqrt(lambda_i / lambda_0). All runs share the same time grid.
    - biases: system frequencies w_i with w_0 the reference; g_i = w_0/w_i.
      Runs are compared on the dimensionless grid tau = w_i t, so the
      kernels are rescaled by 1/w_i^2 and linearly interpolated onto the
      reference grid (requires dt and w_i >= w_0 > 0). Node 0, t = 0, is
      shared by every run; each run i's kernels must come from its own
      Liouvillian, (w_i / w_0) L_0 for a qubit whose Hamiltonian is its bias.

    Returns
    -------
    (k2_series, info) where info carries the Vandermonde condition number.
    """
    stack = np.asarray(kernels, dtype=complex)
    if stack.ndim != 4:
        raise ValueError("kernels must stack as (runs, times, d^2, d^2)")
    n_runs, n_times = stack.shape[:2]
    if (gammas is None) == (biases is None):
        raise ValueError("pass exactly one of gammas or biases")
    if len(gammas if biases is None else biases) != n_runs:
        raise ValueError("need one scale factor per kernel series")

    if gammas is not None:
        g = np.asarray(gammas, dtype=float)
        tilde = stack
    else:
        w = np.asarray(biases, dtype=float)
        if dt is None:
            raise ValueError("biases route needs dt to build the dimensionless grids")
        if not np.all(w > 0):
            raise ValueError(f"bias frequencies must be positive, got {w.tolist()}")
        if np.any(w[1:] < w[0]):
            raise ValueError("bias frequencies must not fall below the reference w_0")
        g = w[0] / w
        t_grid = dt * np.arange(n_times)
        tau_ref = w[0] * t_grid
        tilde = np.empty_like(stack)
        for i in range(n_runs):
            tau_i = w[i] * t_grid
            scaled = stack[i] / w[i] ** 2
            flat = scaled.reshape(n_times, -1)
            interp = np.empty_like(flat)
            for col in range(flat.shape[1]):
                interp[:, col] = np.interp(tau_ref, tau_i, flat[:, col].real) + 1j * np.interp(
                    tau_ref, tau_i, flat[:, col].imag
                )
            tilde[i] = interp.reshape(stack[i].shape)

    powers = np.arange(1, n_runs + 1)
    vand = g[:, None] ** (2 * powers[None, :])
    unit = np.zeros(n_runs)
    unit[0] = 1.0
    weights = np.linalg.solve(vand.T, unit)  # first row of vand^{-1}
    k2 = np.einsum("i,itab->tab", weights, tilde)
    if gammas is None:
        k2 = k2 * w[0] ** 2
    info = {"condition": float(np.linalg.cond(vand)), "gammas": g}
    return k2, info
