"""Transfer-tensor construction, truncated prediction, and memory-kernel recovery."""

from __future__ import annotations

import numpy as np

from .liouville import identity_superop, unvec, vec

__all__ = [
    "build_ttms",
    "predict_maps",
    "predict_states",
    "extract_kernel",
    "kernel_to_ttms",
    "estimate_liouvillian",
    "norm_profile",
    "count_above_threshold",
    "choose_truncation",
]


def build_ttms(maps):
    """Deconvolve a map series into transfer tensors.

    T_1 = E_1 and T_n = E_n - sum_{m=1}^{n-1} T_{n-m} E_m. The recursion is
    exact; truncation decisions happen at prediction time.
    """
    if len(maps) == 0:
        raise ValueError("empty map series")
    maps = [np.asarray(e, dtype=complex) for e in maps]
    tensors = []
    for n, e_n in enumerate(maps, start=1):
        acc = e_n.copy()
        for m in range(1, n):
            acc -= tensors[n - m - 1] @ maps[m - 1]
        tensors.append(acc)
    return tensors


def _check_trunc(tensors, k_trunc):
    if k_trunc is None:
        return len(tensors)
    if not 1 <= k_trunc <= len(tensors):
        raise ValueError(f"k_trunc must be in [1, {len(tensors)}], got {k_trunc}")
    return k_trunc


def predict_maps(tensors, n_total, k_trunc=None):
    """Extend a map series to n_total steps using at most k_trunc tensors.

    E_n = sum_{m=1}^{min(n, k_trunc)} T_m E_{n-m} with E_0 = I. For
    n <= k_trunc this reproduces the maps the tensors came from.
    """
    k_trunc = _check_trunc(tensors, k_trunc)
    dim = tensors[0].shape[0]
    history = [identity_superop(int(round(np.sqrt(dim))))]
    out = []
    for n in range(1, n_total + 1):
        acc = np.zeros_like(tensors[0])
        for m in range(1, min(n, k_trunc) + 1):
            acc += tensors[m - 1] @ history[n - m]
        history.append(acc)
        out.append(acc)
    return out


def predict_states(tensors, rho0, n_steps, k_trunc=None):
    """Propagate a state with the truncated transfer-tensor recursion.

    rho(t_n) = sum_{m=1}^{min(n, k_trunc)} T_m rho(t_{n-m}), seeded with
    rho(t_0) = rho0. Returns the states at t_1..t_n.
    """
    k_trunc = _check_trunc(tensors, k_trunc)
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if tensors[0].shape[0] != d * d:
        raise ValueError("state dimension does not match the tensors")
    vecs = [vec(rho0)]
    for n in range(1, n_steps + 1):
        acc = np.zeros(d * d, dtype=complex)
        for m in range(1, min(n, k_trunc) + 1):
            acc += tensors[m - 1] @ vecs[n - m]
        vecs.append(acc)
    return [unvec(v) for v in vecs[1:]]


def extract_kernel(tensors, liouvillian, dt):
    """Convert transfer tensors into discrete memory-kernel samples.

    K(t_1) = (T_1 - I - L dt) / dt^2 and K(t_n) = T_n / dt^2 for n >= 2.
    The first sample mixes in 0.5 L^2 plus half the true K(0) under the
    trapezoid-consistent discretization; downstream fits undo that.
    """
    d2 = tensors[0].shape[0]
    eye = np.eye(d2, dtype=complex)
    out = [(tensors[0] - eye - np.asarray(liouvillian) * dt) / dt**2]
    for t_n in tensors[1:]:
        out.append(np.asarray(t_n, dtype=complex) / dt**2)
    return out


def kernel_to_ttms(kernels, liouvillian, dt):
    """Inverse of extract_kernel, mostly for synthesizing test fixtures."""
    d2 = kernels[0].shape[0]
    eye = np.eye(d2, dtype=complex)
    out = [eye + np.asarray(liouvillian) * dt + np.asarray(kernels[0]) * dt**2]
    for k_n in kernels[1:]:
        out.append(np.asarray(k_n, dtype=complex) * dt**2)
    return out


def _richardson(g_dt, g_2dt):
    """(a dt, b dt^2) of g(dt) = a dt + b dt^2 from its values at dt and 2 dt."""
    g1 = np.asarray(g_dt, dtype=complex)
    g2 = np.asarray(g_2dt, dtype=complex)
    if g1.shape != g2.shape:
        raise ValueError("the dt and 2 dt inputs must share a shape")
    return (4.0 * g1 - g2) / 2.0, -(2.0 * g1 - g2) / 2.0


def estimate_liouvillian(e1_dt, e1_2dt, dt):
    """Richardson estimate of the time-local generator from two step sizes.

    L = (4(E(dt) - I) - (E(2dt) - I)) / (2 dt) cancels the quadratic terms
    shared by the two one-step maps.
    """
    e1_dt = np.asarray(e1_dt, dtype=complex)
    eye = np.eye(e1_dt.shape[0], dtype=complex)
    return _richardson(e1_dt - eye, np.asarray(e1_2dt) - eye)[0] / dt


def norm_profile(tensors, subtract_identity=True):
    """Frobenius norms of the tensors, by default with I removed from T_1.

    The T_1 - I convention matches how decay profiles are reported: the
    identity part of T_1 carries no information about memory.
    """
    out = []
    for n, t_n in enumerate(tensors, start=1):
        t_n = np.asarray(t_n)
        if n == 1 and subtract_identity:
            t_n = t_n - np.eye(t_n.shape[0])
        out.append(float(np.linalg.norm(t_n)))
    return np.array(out)


def count_above_threshold(profile, fraction=0.01, reference=None):
    """How many profile entries exceed fraction * reference.

    reference defaults to the first profile entry.
    """
    profile = np.asarray(profile, dtype=float)
    ref = float(profile[0]) if reference is None else float(reference)
    return int(np.sum(profile > fraction * ref))


def choose_truncation(tensors, threshold=1e-3):
    """Default memory cutoff: first n where |T_n| drops below threshold |T_1|.

    Falls back to the full length when no tensor is that small.
    """
    norms = [float(np.linalg.norm(t)) for t in tensors]
    for n, value in enumerate(norms[1:], start=2):
        if value < threshold * norms[0]:
            return n
    return len(tensors)
