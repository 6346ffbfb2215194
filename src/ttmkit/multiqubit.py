"""Two-qubit unraveling: separable part, collective remainder, generator isolation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .liouville import factorize_bipartite, kron_superop
from .ttm import build_ttms, norm_profile

__all__ = ["UnravelResult", "unravel", "isolate_generator_kernel", "isolate_collective",
           "SingularMapError", "collective_report"]
# norm ratio between dL dt and dK dt^2 beyond which one mechanism dominates
_DOMINANCE_RATIO = 3.0
_EIG_COND_MAX = 1e4


@dataclass(frozen=True)
class UnravelResult:
    """Decomposition E_n = E1_n (x) E2_n + dE_n and the matching transfer tensors."""

    full_tensors: list
    separable_tensors: list
    delta_tensors: list
    separable_maps: list
    delta_maps: list
    local_maps: list  # [(E1_n, E2_n), ...]


def unravel(maps):
    """Split two-qubit dynamical maps into a product part and a collective rest.

    Each 16x16 map is reduced to its single-qubit marginals, the product of
    those marginals is subtracted, and transfer tensors are built for the
    full and the product series. delta_tensors[n] = T_n - Tbar_n measures
    genuinely collective memory.
    """
    maps = [np.asarray(m, dtype=complex) for m in maps]
    if any(m.shape != (16, 16) for m in maps):
        raise ValueError("unravel expects 16x16 superoperators")
    local = []
    separable = []
    deltas = []
    for m in maps:
        e1, e2, delta = factorize_bipartite(m)
        local.append((e1, e2))
        separable.append(kron_superop(e1, e2))
        deltas.append(delta)
    full_t = build_ttms(maps)
    sep_t = build_ttms(separable)
    delta_t = [tf - ts for tf, ts in zip(full_t, sep_t)]
    return UnravelResult(full_t, sep_t, delta_t, separable, deltas, local)


def _warn_coarse_step(dt, noise):
    # stacklevel 3 points past isolate_collective at its caller
    rate = float(np.max(np.abs(np.asarray(noise.kappas, dtype=float))))
    if rate > 0 and dt * rate > 0.1:
        warnings.warn(
            f"dt = {dt} is not small against the correlation time "
            f"{1.0 / rate:.3g}; the Richardson remainder O(kappa dt^3) makes "
            f"the L/K split order-of-magnitude only",
            stacklevel=3,
        )


def isolate_generator_kernel(delta_t1_dt, delta_t1_2dt):
    """Two-point Richardson split of a collective correction into generator and kernel.

    The inputs are one collective quantity measured on a grid of step dt and
    on the doubled grid, assumed to expand as dG(dt) = dL dt + dK dt^2 and
    dG(2dt) = 2 dL dt + 4 dK dt^2, so

        dL dt   = (4 dG(dt) - dG(2dt)) / 2
        dK dt^2 = -(2 dG(dt) - dG(2dt)) / 2.

    Both are returned premultiplied by their power of dt, matching how they
    enter the propagation. The expansion holds for the log-domain collective
    part that :func:`isolate_collective` feeds in, not for raw delta maps:
    those carry the local decay as a factor and stop scaling as dt, dt^2
    once the phase variance is of order one. On log-domain input the
    Richardson remainder is O(kappa dt^3) in both parts, with kappa the
    fastest correlation decay rate. When the local and collective generators
    do not commute, (1/2) [L_loc, dL] dt^2 also enters (Baker-Campbell-
    Hausdorff) and is booked as kernel.
    """
    g1 = np.asarray(delta_t1_dt, dtype=complex)
    g2 = np.asarray(delta_t1_2dt, dtype=complex)
    if g1.shape != g2.shape:
        raise ValueError("the dt and 2 dt inputs must share a shape")
    return (4.0 * g1 - g2) / 2.0, -(2.0 * g1 - g2) / 2.0


class SingularMapError(ValueError):
    """A map with a zero eigenvalue, which has no logarithm."""


def _logm(sop):
    """Principal log V diag(log w) V^-1 of a map, exact to about kappa(V) eps (Higham 2008,
    ch. 11); scipy's logm once kappa(V) >= _EIG_COND_MAX; SingularMapError if it is singular."""
    w, v = np.linalg.eig(sop)
    mag = np.abs(w)
    if mag.min() <= 1e-12 * mag.max():
        raise SingularMapError(f"the map is singular (smallest |eigenvalue| {mag.min():.1e}); "
                               f"it has no logarithm")
    if np.linalg.cond(v, 1) < _EIG_COND_MAX:
        return (v * np.emath.log(w)) @ np.linalg.inv(v)
    # imported here: scipy.linalg would add most of the package's import time
    from scipy.linalg import logm

    return logm(sop)


def isolate_collective(result, dt, noise=None):
    """Generator and kernel parts of the collective dynamics of an unraveled series.

    The collective part of the map at t_n = n dt is taken in the log domain,

        G_n = log E_n - log(E1_n (x) E2_n),

    with the principal matrix logarithm and E1_n, E2_n the local marginals
    of ``result``. Products of local maps add in the log domain, so the
    local decay cancels; for Gaussian dephasing G_n is exactly the cross
    term -dz1 dz2 Phi_12(t_n) of the phase variance plus the coupling phase.
    G_1 and G_2 then go through :func:`isolate_generator_kernel`. Returns
    (dL dt, dK dt^2); raises :class:`SingularMapError` when one of these maps
    has a zero eigenvalue. Pass the noise model to get a warning when
    kappa dt is not small.
    """
    if len(result.local_maps) < 2:
        raise ValueError("the split needs the maps at dt and 2 dt")
    eye = np.eye(4)
    logs = []
    for n in range(2):
        e1, e2 = result.local_maps[n]
        full = result.separable_maps[n] + result.delta_maps[n]
        local = kron_superop(_logm(e1), eye) + kron_superop(eye, _logm(e2))
        logs.append(_logm(full) - local)
    if noise is not None:
        _warn_coarse_step(dt, noise)
    return isolate_generator_kernel(logs[0], logs[1])


def collective_report(result, dl_dt=None, dk_dt2=None):
    """Attribute collective memory to direct coupling versus correlated noise.

    Compares |dL dt| against |dK dt^2| from :func:`isolate_collective`.
    A ratio above 3 either way gives a coupling-dominated or
    noise-dominated verdict, anything in between is mixed. dL is uniquely a
    coupling signature; dK can be fed by both mechanisms, so a noise verdict
    is an attribution bound, not a proof, and the report says so.

    Norm profiles of the separable and collective tensors ride along for
    plotting. All norms are Frobenius.
    """
    report = {
        "full_tensor_norms": norm_profile(result.full_tensors, subtract_identity=False),
        "separable_tensor_norms": norm_profile(result.separable_tensors,
                                               subtract_identity=False),
        "delta_tensor_norms": norm_profile(result.delta_tensors, subtract_identity=False),
    }
    if dl_dt is None or dk_dt2 is None:
        report["verdict"] = "not attributed (no isolation inputs)"
        return report
    dl_norm = float(np.linalg.norm(dl_dt))
    dk_norm = float(np.linalg.norm(dk_dt2))
    report["dl_dt_norm"] = dl_norm
    report["dk_dt2_norm"] = dk_norm
    report["ratio"] = dl_norm / dk_norm if dk_norm > 0 else np.inf
    if dk_norm == 0 and dl_norm == 0:
        verdict = "no collective dynamics"
    elif dl_norm >= _DOMINANCE_RATIO * dk_norm:
        verdict = "coupling-dominated"
    elif dk_norm >= _DOMINANCE_RATIO * dl_norm:
        verdict = "noise-dominated (dK also admits coupling contributions)"
    else:
        verdict = "mixed"
    report["verdict"] = verdict
    return report
