"""Superoperator algebra in the row-major vectorization convention.

A linear map E acting on d x d density matrices is stored as a d^2 x d^2
complex array such that vec(E(rho)) = E @ vec(rho), where vec stacks the
rows of rho: vec index m = d*r + c for matrix element rho[r, c].

Choi matrices use the same row-major convention: the Choi matrix of E is
X[(r1, r2), (c1, c2)] = E[(r1, c1), (r2, c2)], normalized so that a
trace-preserving map has Tr X = d.
"""

import math

import numpy as np

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Order matters: index 0..3 used by Bloch-vector routines.
PAULIS = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def pauli_string(label):
    """Tensor product of single-qubit Paulis, e.g. ``"XZ"`` -> X (x) Z.

    Parameters
    ----------
    label : str
        One character per qubit, each in {I, X, Y, Z}.

    Returns
    -------
    ndarray
        2^n x 2^n complex matrix.
    """
    op = np.array([[1.0 + 0.0j]])
    for ch in label:
        if ch not in PAULIS:
            raise ValueError(f"unknown Pauli label {ch!r}, expected I, X, Y or Z")
        op = np.kron(op, PAULIS[ch])
    return op


def all_pauli_labels(n_qubits):
    """All 4^n Pauli-string labels in lexicographic order, identity included."""
    labels = [""]
    for _ in range(n_qubits):
        labels = [s + p for s in labels for p in PAULIS]
    return labels


def vec(rho):
    """Row-major vectorization of a matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v):
    """Inverse of :func:`vec`. The length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d)


def left_multiply(a):
    """Superoperator for rho -> a @ rho; a stack of matrices gives a stack."""
    a = np.asarray(a, dtype=complex)
    return np.kron(a, np.eye(a.shape[-1], dtype=complex))


def right_multiply(b):
    """Superoperator for rho -> rho @ b; a stack of matrices gives a stack."""
    b = np.asarray(b, dtype=complex)
    return np.kron(np.eye(b.shape[-1], dtype=complex), b.swapaxes(-1, -2))


def commutator_superop(h):
    """Superoperator for rho -> [h, rho]."""
    return left_multiply(h) - right_multiply(h)


def hamiltonian_liouvillian(h):
    """Superoperator L with d rho/dt = L rho for unitary dynamics: L = -i [h, .]."""
    return -1.0j * commutator_superop(h)


def unitary_superop(u):
    """Superoperator U (x) conj(U) of rho -> u rho u^dagger.

    ``u`` is one d x d matrix or a (..., d, d) stack, which gives the
    (..., d^2, d^2) stack of their superoperators; on one matrix the result
    equals ``np.kron(u, u.conj())``.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    return (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(
        u.shape[:-2] + (d * d, d * d))


def _free_superops(h, times):
    """Superoperators U(t) (x) conj(U(t)) of U(t) = exp(-i h t), one per time."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return unitary_superop((v * np.exp(-1.0j * w * np.reshape(times, (-1, 1)))[:, None, :])
                           @ v.conj().T)


def superop_dim(sop):
    """Hilbert-space dimension d of a d^2 x d^2 superoperator or a (..., d^2, d^2) stack."""
    shape = np.shape(sop)
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ValueError(f"superoperator must be a square matrix or a stack of them, "
                         f"got shape {shape}")
    n = shape[-1]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"superoperator side {n} is not a perfect square")
    return d


def to_choi(sop):
    """Choi matrix of a superoperator, or the Choi stack of a (..., d^2, d^2) stack.

    The row-major reshuffle X[(r1, r2), (c1, c2)] = E[(r1, c1), (r2, c2)]
    acts on the last two axes. It is an involution, so the same call inverts
    it.
    """
    sop = np.asarray(sop, dtype=complex)
    d = superop_dim(sop)
    lead = sop.shape[:-2]
    return sop.reshape(lead + (d, d, d, d)).swapaxes(-3, -2).reshape(lead + (d * d, d * d))


def trace_preservation_defect(sop):
    """Frobenius norm of (sum of rows that should give Tr E(rho) = Tr rho).

    For a TP map, summing superoperator rows over diagonal output indices
    must reproduce the projection onto diagonal input indices.
    """
    sop = np.asarray(sop, dtype=complex)
    d = superop_dim(sop)
    rows = sop.reshape(d, d, d * d)
    # sum_i E[(i,i), (j,j')] must equal delta_{j j'}
    s = rows[np.arange(d), np.arange(d), :].sum(axis=0).reshape(d, d)
    return np.linalg.norm(s - np.eye(d))


def min_choi_eigenvalue(sop):
    """Smallest eigenvalue of the Hermitized Choi matrix.

    Negative values quantify the complete-positivity violation.
    """
    x = to_choi(sop)
    x = 0.5 * (x + x.conj().T)
    return float(np.linalg.eigvalsh(x)[0])


# ---------------------------------------------------------------------------
# Bloch (affine) representation of qubit maps
# ---------------------------------------------------------------------------

# Columns vec(I), vec(X), vec(Y), vec(Z). B^H B = 2 I, so B^H E B / 2 is the
# Pauli transfer matrix R_ij = Tr(sigma_i E(sigma_j)) / 2 and E = B R B^H / 2.
_B = np.stack([vec(SIGMA_I), vec(SIGMA_X), vec(SIGMA_Y), vec(SIGMA_Z)], axis=1)


def _pauli_columns(n_qubits):
    """Columns vec(P) of the 4^n Pauli strings P, in :func:`all_pauli_labels` order.

    Built from ``_B`` by one Kronecker step per qubit after the first, the
    first qubit slowest: vec(A (x) B) holds A[a, b] B[c, d] in row (a c, b d).
    """
    basis = _B
    for q in range(1, n_qubits):
        s = 1 << q
        basis = np.einsum("abk,cdl->acbdkl", basis.reshape(s, s, -1),
                          _B.reshape(2, 2, 4)).reshape(4 * s * s, -1)
    return basis


def bloch_affine(sop):
    """Affine Bloch representation (M, c) of a single-qubit map.

    E(rho) with rho = (I + v . sigma) / 2 maps v -> M v + c. Rows and
    columns are ordered (x, y, z). (M, c) is read off the Pauli transfer
    matrix R = B^H E B / 2, with B the columns vec(I), vec(X), vec(Y),
    vec(Z): R_ij = Tr(sigma_i E(sigma_j)) / 2, M = Re R[1:, 1:] and
    c = Re R[1:, 0].

    Returns
    -------
    M : ndarray, shape (3, 3)
    c : ndarray, shape (3,)
    """
    sop = np.asarray(sop, dtype=complex)
    if sop.shape != (4, 4):
        raise ValueError("Bloch representation is defined for single-qubit maps")
    r = np.real(_B.conj().T @ (sop @ _B)) / 2.0
    return r[1:, 1:], r[1:, 0]


def bloch_volume(sop):
    """det M for the affine Bloch action: signed volume contraction factor."""
    M, _ = bloch_affine(sop)
    return float(np.linalg.det(M))


# ---------------------------------------------------------------------------
# Two-qubit index reordering and tensor factorization
# ---------------------------------------------------------------------------

def reindex_bipartite(mat):
    """Reorder a 16 x 16 superoperator (or Choi) between the standard basis
    and the per-qubit-grouped basis.

    Each side's index packs the qubit bits (r1 r2 c1 c2) in the standard
    basis and (r1 c1 r2 c2) in the grouped one. Swapping the middle two bits
    is an involution: applying it twice returns the input.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (16, 16):
        raise ValueError("reindexing is defined for two-qubit superoperators")
    return mat.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def kron_superop(sop1, sop2):
    """Tensor product of two single-qubit superoperators, in the standard basis."""
    s1 = np.asarray(sop1, dtype=complex)
    s2 = np.asarray(sop2, dtype=complex)
    if s1.shape != (4, 4) or s2.shape != (4, 4):
        raise ValueError("expected single-qubit superoperators")
    return reindex_bipartite(np.kron(s1, s2))


def factorize_bipartite(sop):
    """Split a two-qubit map into local parts and a correlated remainder.

    Returns (sop1, sop2, delta) with
    ``sop == kron_superop(sop1, sop2) + delta`` exactly. The local parts
    are partial traces of the reordered Choi matrix, normalized so each is
    trace preserving when the input is.
    """
    sop = np.asarray(sop, dtype=complex)
    xr = reindex_bipartite(to_choi(sop)).reshape(4, 4, 4, 4)
    # Partial traces over the other qubit's (row, col) block; the factor
    # 1/2 restores Choi normalization Tr x_i = 2.
    sop1 = to_choi(np.einsum("abcb->ac", xr) / 2.0)
    sop2 = to_choi(np.einsum("abad->bd", xr) / 2.0)
    return sop1, sop2, sop - kron_superop(sop1, sop2)
