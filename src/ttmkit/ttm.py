"""Transfer-tensor construction, truncated prediction, and memory-kernel recovery."""

from __future__ import annotations

import numpy as np

from .liouville import unvec, vec

__all__ = [
    "build_ttms",
    "predict_maps",
    "predict_states",
    "extract_kernel",
    "norm_profile",
    "count_above_threshold",
    "choose_truncation",
]
# a tensor counts as memory while its norm exceeds this share of the reference
_THRESHOLD_FRACTION = 0.01


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
    n <= k_trunc this reproduces the maps the tensors came from. Each step is
    one product of [T_k ... T_1] with the last k maps, zero-padded before E_0.
    """
    k_trunc = _check_trunc(tensors, k_trunc)
    d2 = tensors[0].shape[0]
    t_cat = np.concatenate(tensors[k_trunc - 1::-1], axis=1)
    buf = np.zeros((k_trunc + n_total, d2, d2), dtype=complex)
    buf[k_trunc - 1] = np.eye(d2)
    for n in range(1, n_total + 1):
        buf[k_trunc - 1 + n] = t_cat @ buf[n - 1:n - 1 + k_trunc].reshape(-1, d2)
    return list(buf[k_trunc:])


def predict_states(tensors, rho0, n_steps, k_trunc=None):
    """Propagate a state with the truncated transfer-tensor recursion.

    rho(t_n) = E_n rho0 with E_n from :func:`predict_maps`, so that
    rho(t_n) = sum_{m=1}^{min(n, k_trunc)} T_m rho(t_{n-m}) with
    rho(t_0) = rho0. Returns the states at t_1..t_n.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if tensors[0].shape[0] != d * d:
        raise ValueError("state dimension does not match the tensors")
    return [unvec(e_n @ vec(rho0)) for e_n in predict_maps(tensors, n_steps, k_trunc)]


def extract_kernel(tensors, liouvillian, dt):
    """Convert transfer tensors into memory-kernel samples K(t_j), t_j = j dt.

    This is the one statement of the kernel-series convention: slot j holds
    K(j dt) on a grid that starts at t = 0, and every reader
    (:func:`ttmkit.spectroscopy.fit_correlations`,
    :func:`ttmkit.spectroscopy.combine_scaled_kernels`) takes the series as
    it is. Under the trapezoid-consistent discretization
    T_1 = I + L dt + (L^2 + K(0)) dt^2 / 2 and T_{j+1} = K(j dt) dt^2, so
    slot 0 is 2 (T_1 - I - L dt) / dt^2 - L^2, which is K(0) to first order
    in dt, and slot j >= 1 is T_{j+1} / dt^2.
    """
    d2 = tensors[0].shape[0]
    eye = np.eye(d2, dtype=complex)
    gen = np.asarray(liouvillian)
    out = [2 * ((tensors[0] - eye - gen * dt) / dt**2) - gen @ gen]
    for t_n in tensors[1:]:
        out.append(np.asarray(t_n, dtype=complex) / dt**2)
    return out


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


def count_above_threshold(profile, reference=None):
    """How many profile entries exceed 1% of reference.

    reference defaults to the first profile entry.
    """
    profile = np.asarray(profile, dtype=float)
    ref = float(profile[0]) if reference is None else float(reference)
    return int(np.sum(profile > _THRESHOLD_FRACTION * ref))


def choose_truncation(tensors, threshold=1e-3):
    """Default memory cutoff: first n where |T_n| drops below threshold |T_1|.

    Falls back to the full length when no tensor is that small.
    """
    norms = [float(np.linalg.norm(t)) for t in tensors]
    for n, value in enumerate(norms[1:], start=2):
        if value < threshold * norms[0]:
            return n
    return len(tensors)
