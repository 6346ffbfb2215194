"""Process tomography: preparation bases, measurement simulation, map reconstruction."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .liouville import _pauli_columns, all_pauli_labels, superop_dim, to_choi, vec

__all__ = [
    "QptRecord",
    "prep_labels",
    "prep_states",
    "simulate_qpt",
    "reconstruct_maps",
    "project_cptp",
]


def _ket(amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


_SINGLE = {"psi0": _ket([1, 0]), "psi1": _ket([0, 1]), "psiX": _ket([1, 1]),
           "psiY": _ket([1, 1j])}

# the twelve product states in record order, each the kron of its one-qubit kets,
# then the four maximally entangled states
_TWO = {f"psi{a}{b}": np.kron(_SINGLE[f"psi{a}"], _SINGLE[f"psi{b}"])
        for a, b in "00 01 10 11 0X 0Y 1X 1Y X0 Y0 X1 Y1".split()}
_TWO.update(Phi=_ket([1, 0, 0, 1]), Psi=_ket([0, 1, 1, 0]), PhiStar=_ket([1, 0, 0, 1j]),
            PsiStar=_ket([0, 1, 1j, 0]))

_BASES = {1: _SINGLE, 2: _TWO}
# iteration cap and target residual of the alternating CPTP projection
_CPTP_ITERS = 200
_CPTP_TOL = 1e-9


@dataclass(frozen=True)
class QptRecord:
    """One tomography data point: Tr(P E_k(rho_prep)), possibly shot-sampled."""

    time_index: int
    prep_label: str
    pauli: str
    expectation: float
    shots: int


def prep_labels(n_qubits):
    """Ordered preparation-state labels for the given register size."""
    if n_qubits not in _BASES:
        raise ValueError(f"no preparation basis tabulated for {n_qubits} qubits")
    return tuple(_BASES[n_qubits])


def prep_states(n_qubits):
    """Preparation density matrices keyed by label.

    The single-qubit basis is {|0>, |1>, |+>, |+i>}; the two-qubit basis is
    the sixteen-state set combining local versions of those with the four
    maximally entangled states Phi, Psi, PhiStar, PsiStar.
    """
    labels = prep_labels(n_qubits)
    kets = _BASES[n_qubits]
    return {lab: np.outer(kets[lab], kets[lab].conj()) for lab in labels}


def _blocks(n_qubits):
    # Pauli block (rows vec(P^T), Pv Pv^H = d I) and preparation block (rows vec(rho)).
    paulis = all_pauli_labels(n_qubits)
    states = prep_states(n_qubits)
    d = 1 << n_qubits
    p_vecs = _pauli_columns(n_qubits).reshape(d, d, -1).transpose(2, 1, 0).reshape(-1, d * d)
    rho_vecs = np.array([vec(rho) for rho in states.values()])
    return p_vecs, rho_vecs, [(lab, p) for lab in states for p in paulis]


def _design_matrix(n_qubits):
    # Row (prep, P) is kron(vec(P^T), vec(rho)), so that its dot product with
    # vec(E) is vec(P^T) . E vec(rho) = Tr(P E(rho)). Rows run over preps, then
    # Paulis: the emission order of simulate_qpt.
    p_vecs, rho_vecs, keys = _blocks(n_qubits)
    return np.einsum("pi,sj->spij", p_vecs, rho_vecs).reshape(len(keys), -1), keys


def simulate_qpt(maps, shots=0, seed=None):
    """Generate tomography records for a map series.

    Every exact expectation Tr(P E_k(rho_prep)) comes from one product of
    the stacked vec(E_k) with the design matrix that
    :func:`reconstruct_maps` inverts.

    Parameters
    ----------
    maps : sequence of (d^2, d^2) arrays
        Dynamical maps at time indices 1..K.
    shots : int
        0 returns exact expectations. Positive values draw a binomial
        sample of single-shot +-1 outcomes per (time, prep, Pauli) setting.
    seed : int or None
        Required when shots > 0. Randomness is consumed in the emission
        order (time, then prep, then Pauli), so records are reproducible.

    Returns
    -------
    list of QptRecord
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if shots > 0 and seed is None:
        raise ValueError("seed is required when shots > 0")
    maps = np.asarray(maps, dtype=complex)
    d = superop_dim(maps)
    if d not in (2, 4):
        raise ValueError(f"no preparation basis tabulated for Hilbert dimension {d}")
    a, keys = _design_matrix(d // 2)  # one qubit at d = 2, two at d = 4
    vals = np.real(maps.reshape(len(maps), -1) @ a.T)
    if shots > 0:
        # Clip guards non-CP inputs whose expectations spill out of [-1, 1].
        probs = np.clip((1.0 + vals) / 2.0, 0.0, 1.0)
        # binomial draws p > 1/2 as shots minus a draw at 1 - p, so a zero
        # expectation that rounding leaves a few ulp off 1/2 would flip its
        # record's sign; such a probability is taken as exactly 1/2
        probs[np.abs(probs - 0.5) <= 4 * np.spacing(0.5)] = 0.5
        vals = 2.0 * np.random.default_rng(seed).binomial(shots, probs) / shots - 1.0
    return [QptRecord(k, lab, p, float(val), shots)
            for k, row in enumerate(vals, start=1)
            for (lab, p), val in zip(keys, row)]


def reconstruct_maps(records):
    """Invert tomography records back into a map series.

    Expects exactly one record per (prep, Pauli) pair of one register's
    basis at every time index, and consecutive indices starting at 1;
    duplicate, missing and unknown pairs raise. The design matrix that
    :func:`simulate_qpt` applies is then square, the Kronecker product of
    the Pauli block Pv and the preparation block Rv, so with Y_k the
    (prep, Pauli) records of index k, E_k = (Pv^H / d) Y_k^T Rv^{-T}: one
    solve against Rv for all time indices. Exact when shots=0.

    Returns
    -------
    list of (d^2, d^2) arrays ordered by time index.
    """
    if not records:
        raise ValueError("no records supplied")
    by_time = {}
    for r in records:
        by_time.setdefault(r.time_index, []).append(r)
    indices = sorted(by_time)
    if indices != list(range(1, len(indices) + 1)):
        raise ValueError(f"time indices must be consecutive from 1, got {indices}")

    n_qubits = 1 if by_time[1][0].prep_label in _SINGLE else 2
    p_vecs, rho_vecs, keys = _blocks(n_qubits)

    columns = []
    for k in indices:
        got = {(r.prep_label, r.pauli): r.expectation for r in by_time[k]}
        # with equal counts, a KeyError means an unknown pair took a missing one's place
        try:
            if len(by_time[k]) == len(got) == len(keys):
                columns.append([got[key] for key in keys])
                continue
        except KeyError:
            pass
        raise ValueError(_record_set_error(k, by_time[k], keys))
    y = np.array(columns).reshape(len(indices), len(rho_vecs), len(p_vecs))
    e_t = np.linalg.solve(rho_vecs, y @ p_vecs.conj() / 2**n_qubits)  # Rv E_k^T = Y_k Pv^* / d
    return list(e_t.swapaxes(1, 2))


def _record_set_error(k, recs, keys):
    # names up to 8 duplicate, missing and unknown (prep, Pauli) pairs of index k
    counts = Counter((r.prep_label, r.pauli) for r in recs)
    known = set(keys)
    found = [("duplicate", [key for key, n in counts.items() if n > 1]),
             ("missing", [key for key in keys if key not in counts]),
             ("unknown", [key for key in counts if key not in known])]
    return f"time index {k}: " + "; ".join(
        f"{what} {bad[:8]}" + ("..." if len(bad) > 8 else "") for what, bad in found if bad)


def project_cptp(sop):
    """Alternating projection of one map, or a (K, d^2, d^2) stack, onto the CPTP set.

    Each iteration Hermitises the Choi matrices of the maps still in the
    loop, clips their negative eigenvalues (one stacked ``eigh``) and applies
    the affine trace-preservation correction, so outputs are exactly trace
    preserving. A map leaves once its most negative Choi eigenvalue and its
    correction are both below 1e-9: at the iteration where it would stop
    alone, so a stack equals per-map calls byte for byte. After 200
    iterations a warning names the unconverged maps and their worst residual.
    """
    sop = np.asarray(sop, dtype=complex)
    if sop.ndim not in (2, 3) or not sop.size:
        raise ValueError(f"expected one superoperator or a non-empty stack of them, "
                         f"got shape {sop.shape}")
    d = superop_dim(sop)  # names a non-square shape
    eye = np.eye(d)
    eye_over_d = (eye / d)[:, None, :, None]
    x = to_choi(sop).reshape(-1, d * d, d * d)
    live, out = list(range(len(x))), np.empty_like(x)
    for _ in range(_CPTP_ITERS):
        x = 0.5 * (x + x.conj().swapaxes(1, 2))
        w, v = np.linalg.eigh(x)  # ascending, so w[:, 0] is each smallest
        x_psd = (v * np.maximum(w, 0.0)[:, None]) @ v.conj().swapaxes(1, 2)
        # affine projection onto {Tr_out X = I}; output index is the first slot pair
        x4 = x_psd.reshape(-1, d, d, d, d)
        x = (x4 - eye_over_d * (x4.trace(axis1=1, axis2=3) - eye)[:, None, :, None]
             ).reshape(x_psd.shape)
        diff = x - x_psd
        residuals = [max(-w[j, 0], float(np.linalg.norm(diff[j]))) for j in range(len(x))]
        stay = [not r < _CPTP_TOL for r in residuals]  # a NaN residual stays, as alone
        if not all(stay):
            for k, xk, s in zip(live, x, stay):
                if not s:
                    out[k] = xk
            if not any(stay):
                break
            live, x = [k for k, s in zip(live, stay) if s], x[stay]
    else:
        warnings.warn(f"CPTP projection stopped at residual {max(residuals):.3e} after "
                      f"{_CPTP_ITERS} iterations on maps {live}", stacklevel=2)
        out[live] = x
    return to_choi(out).reshape(sop.shape)
