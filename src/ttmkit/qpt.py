"""Process tomography: preparation bases, measurement simulation, map reconstruction."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .liouville import all_pauli_labels, pauli_string, superop_dim, to_choi, vec

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


_K0 = _ket([1, 0])
_K1 = _ket([0, 1])
_KX = _ket([1, 1])
_KY = _ket([1, 1j])

_SINGLE = {
    "psi0": _K0,
    "psi1": _K1,
    "psiX": _KX,
    "psiY": _KY,
}

_TWO = {
    "psi00": np.kron(_K0, _K0),
    "psi01": np.kron(_K0, _K1),
    "psi10": np.kron(_K1, _K0),
    "psi11": np.kron(_K1, _K1),
    "psi0X": np.kron(_K0, _KX),
    "psi0Y": np.kron(_K0, _KY),
    "psi1X": np.kron(_K1, _KX),
    "psi1Y": np.kron(_K1, _KY),
    "psiX0": np.kron(_KX, _K0),
    "psiY0": np.kron(_KY, _K0),
    "psiX1": np.kron(_KX, _K1),
    "psiY1": np.kron(_KY, _K1),
    "Phi": _ket([1, 0, 0, 1]),
    "Psi": _ket([0, 1, 1, 0]),
    "PhiStar": _ket([1, 0, 0, 1j]),
    "PsiStar": _ket([0, 1, 1j, 0]),
}

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
    p_vecs = np.array([vec(pauli_string(p).T) for p in paulis])
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
    d = superop_dim(maps[0])
    if d not in (2, 4):
        raise ValueError(f"no preparation basis tabulated for Hilbert dimension {d}")
    a, keys = _design_matrix(d // 2)  # one qubit at d = 2, two at d = 4
    vals = np.real(maps.reshape(len(maps), -1) @ a.T)
    if shots > 0:
        # Clip guards non-CP inputs whose expectations spill out of [-1, 1].
        probs = np.clip((1.0 + vals) / 2.0, 0.0, 1.0)
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


def _project_trace_preserving(x4, eye, eye_over_d):
    # Affine projection onto {Tr_out X = I}; output index is the first slot pair.
    t2 = np.einsum("irik->rk", x4)
    return x4 - np.einsum("ij,rk->irjk", eye_over_d, t2 - eye)


def project_cptp(sop):
    """Alternating projection of a superoperator onto the CPTP set.

    Alternates a positive-semidefinite clip of the Choi matrix with the
    affine trace-preservation correction, ending on the affine step so
    trace preservation is exact. Warns if the projection does not converge.
    """
    sop = np.asarray(sop, dtype=complex)
    d = superop_dim(sop)
    eye = np.eye(d)
    eye_over_d = eye / d
    x = to_choi(sop)
    for _ in range(_CPTP_ITERS):
        x = 0.5 * (x + x.conj().T)
        w, v = np.linalg.eigh(x)  # ascending, so w[0] is the smallest
        neg = float(-w[0])
        x_psd = (v * np.maximum(w, 0.0)) @ v.conj().T
        x4 = _project_trace_preserving(x_psd.reshape(d, d, d, d), eye, eye_over_d)
        x_new = x4.reshape(d * d, d * d)
        tp_shift = float(np.linalg.norm(x_new - x_psd))
        residual = max(neg, tp_shift)
        x = x_new
        if residual < _CPTP_TOL:
            break
    else:
        warnings.warn(
            f"CPTP projection stopped at residual {residual:.3e} after {_CPTP_ITERS} iterations",
            stacklevel=2,
        )
    return to_choi(x)  # the Choi reshuffle is its own inverse
