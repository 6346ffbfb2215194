"""Superoperator algebra, Choi diagnostics, Bloch geometry, bipartite tools."""

import numpy as np
import numpy.testing as npt
import pytest

from ttmkit.liouville import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    all_pauli_labels,
    bloch_affine,
    bloch_volume,
    commutator_superop,
    factorize_bipartite,
    hamiltonian_liouvillian,
    kron_superop,
    left_multiply,
    min_choi_eigenvalue,
    pauli_string,
    reindex_bipartite,
    right_multiply,
    superop_dim,
    to_choi,
    trace_preservation_defect,
    unitary_superop,
    unvec,
    vec,
)

from conftest import is_density_matrix, random_cptp, random_density


def test_vec_row_major_ordering():
    rho = np.arange(4).reshape(2, 2).astype(complex)
    npt.assert_array_equal(vec(rho), [0, 1, 2, 3])
    npt.assert_array_equal(unvec(vec(rho)), rho)


def test_multiplication_superops():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        npt.assert_allclose(unvec(left_multiply(a) @ vec(rho)), a @ rho, atol=1e-13)
        npt.assert_allclose(unvec(right_multiply(b) @ vec(rho)), rho @ b, atol=1e-13)


def test_commutator_and_liouvillian():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (h + h.conj().T)
    rho = random_density(2, rng)
    npt.assert_allclose(unvec(commutator_superop(h) @ vec(rho)),
                        h @ rho - rho @ h, atol=1e-13)
    npt.assert_allclose(unvec(hamiltonian_liouvillian(h) @ vec(rho)),
                        -1j * (h @ rho - rho @ h), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_commutator_superop_acts_as_commutator(d):
    rng = np.random.default_rng(40 + d)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T)
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sop = commutator_superop(h)
    npt.assert_allclose(sop @ vec(rho), vec(h @ rho - rho @ h), rtol=0, atol=1e-13)
    # the same bits as the Kronecker form kron(h, I) - kron(I, h^T)
    eye = np.eye(d, dtype=complex)
    npt.assert_array_equal(sop, np.kron(h, eye) - np.kron(eye, h.T))


def test_unitary_superop_matches_conjugation():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    rho = random_density(4, rng)
    npt.assert_allclose(unvec(unitary_superop(u) @ vec(rho)),
                        u @ rho @ u.conj().T, atol=1e-12)


def test_sigma_z_sign_convention():
    # |0> is the +1 eigenstate; a positive bias advances rho_01 backwards.
    assert SIGMA_Z[0, 0] == 1.0 and SIGMA_Z[1, 1] == -1.0
    gen = hamiltonian_liouvillian(0.5 * SIGMA_Z)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    drho = unvec(gen @ vec(rho))
    assert abs(drho[0, 1] - (-1j) * 0.5) < 1e-14
    assert abs(drho[1, 0] - (+1j) * 0.5) < 1e-14


def test_pauli_string_and_labels():
    npt.assert_array_equal(pauli_string("X"), SIGMA_X)
    npt.assert_array_equal(pauli_string("ZX"), np.kron(SIGMA_Z, SIGMA_X))
    labels = all_pauli_labels(2)
    assert len(labels) == 16 and labels[0] == "II" and "ZY" in labels
    with pytest.raises(ValueError):
        pauli_string("Q")


def test_choi_roundtrip_and_cptp_diagnostics():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        sop = random_cptp(d, rng)
        npt.assert_array_equal(to_choi(to_choi(sop)), sop)  # the reshuffle is an involution
        assert superop_dim(sop) == d
        assert trace_preservation_defect(sop) < 1e-12
        choi = to_choi(sop)
        assert np.linalg.norm(choi - choi.conj().T) < 1e-12  # Hermiticity preserving
        assert min_choi_eigenvalue(sop) > -1e-12
        assert abs(np.trace(choi) - d) < 1e-12
        rho = random_density(d, rng)
        assert is_density_matrix(unvec(sop @ vec(rho)))


def test_choi_flags_non_positive_maps():
    # transposition is positive but not completely positive
    d = 2
    transpose = np.zeros((4, 4))
    for r in range(d):
        for c in range(d):
            transpose[d * c + r, d * r + c] = 1.0
    assert min_choi_eigenvalue(transpose) < -0.4
    assert trace_preservation_defect(transpose) < 1e-14


def test_bloch_affine_roundtrip():
    rng = np.random.default_rng(17)
    paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
    for _ in range(6):
        sop = random_cptp(2, rng)
        m, c = bloch_affine(sop)
        assert m.shape == (3, 3) and c.shape == (3,)
        # oracle: M_ij = Tr(sigma_i E(sigma_j)) / 2 and c_i = Tr(sigma_i E(I)) / 2
        want_m = [[0.5 * np.trace(a @ unvec(sop @ vec(b))).real for b in paulis]
                  for a in paulis]
        want_c = [0.5 * np.trace(a @ unvec(sop @ vec(PAULIS["I"]))).real for a in paulis]
        npt.assert_allclose(m, want_m, rtol=0, atol=1e-15)
        npt.assert_allclose(c, want_c, rtol=0, atol=1e-15)
        # (M, c) fix the map: E(I) = I + c . sigma and E(sigma_j) = sum_i M_ij sigma_i
        images = [PAULIS["I"] + sum(ci * p for ci, p in zip(c, paulis))]
        images += [sum(m[i, j] * paulis[i] for i in range(3)) for j in range(3)]
        rebuilt = sum(np.outer(vec(e), vec(p).conj())
                      for e, p in zip(images, [PAULIS["I"]] + paulis)) / 2.0
        npt.assert_allclose(rebuilt, sop, atol=1e-12)
    with pytest.raises(ValueError, match="single-qubit"):
        bloch_affine(np.eye(16))


def test_bloch_affine_known_channels():
    m, c = bloch_affine(unitary_superop(SIGMA_X))
    npt.assert_allclose(m, np.diag([1.0, -1.0, -1.0]), atol=1e-13)
    npt.assert_allclose(c, 0.0, atol=1e-13)

    # rho -> (1-p) rho + p tr(rho) I/2
    p = 0.3
    depol = (1 - p) * np.eye(4) + p * np.outer(vec(np.eye(2) / 2), vec(np.eye(2)))
    m, c = bloch_affine(depol)
    npt.assert_allclose(m, (1 - p) * np.eye(3), atol=1e-13)
    npt.assert_allclose(c, 0.0, atol=1e-13)
    assert abs(bloch_volume(depol) - (1 - p) ** 3) < 1e-12


def test_bloch_volume_unitary_is_one():
    rng = np.random.default_rng(19)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    assert abs(bloch_volume(unitary_superop(u)) - 1.0) < 1e-12


def test_reindex_bipartite_is_an_involution():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    npt.assert_array_equal(reindex_bipartite(reindex_bipartite(x)), x)


def test_reindex_bipartite_matches_written_out_index_map():
    # each side's index packs the bits (r1 r2 c1 c2) in the standard basis and
    # (r1 c1 r2 c2) in the grouped one; other involutions fail this test
    def standard(r1, r2, c1, c2):
        return 8 * r1 + 4 * r2 + 2 * c1 + c2

    def grouped(r1, r2, c1, c2):
        return 8 * r1 + 4 * c1 + 2 * r2 + c2

    bits = [(r1, r2, c1, c2) for r1 in range(2) for r2 in range(2)
            for c1 in range(2) for c2 in range(2)]
    rng = np.random.default_rng(24)
    for _ in range(3):
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        want = np.empty_like(x)
        for row in bits:
            for col in bits:
                want[grouped(*row), grouped(*col)] = x[standard(*row), standard(*col)]
        npt.assert_array_equal(reindex_bipartite(x), want)


def test_kron_superop_acts_as_tensor_product():
    rng = np.random.default_rng(29)
    s1 = random_cptp(2, rng)
    s2 = random_cptp(2, rng)
    r1 = random_density(2, rng)
    r2 = random_density(2, rng)
    joint = unvec(kron_superop(s1, s2) @ vec(np.kron(r1, r2)))
    npt.assert_allclose(joint,
                        np.kron(unvec(s1 @ vec(r1)), unvec(s2 @ vec(r2))),
                        atol=1e-12)


def test_factorize_bipartite_recovers_product_factors():
    rng = np.random.default_rng(31)
    s1 = random_cptp(2, rng)
    s2 = random_cptp(2, rng)
    f1, f2, delta = factorize_bipartite(kron_superop(s1, s2))
    npt.assert_allclose(f1, s1, atol=1e-12)
    npt.assert_allclose(f2, s2, atol=1e-12)
    npt.assert_allclose(delta, 0.0, atol=1e-12)


def test_factorize_bipartite_split_is_exact_for_entangling_maps():
    # local factors must stay valid maps and the remainder must close the sum
    rng = np.random.default_rng(37)
    sop = random_cptp(4, rng)
    f1, f2, delta = factorize_bipartite(sop)
    for f in (f1, f2):
        assert trace_preservation_defect(f) < 1e-10
        assert min_choi_eigenvalue(f) > -1e-10
    npt.assert_allclose(kron_superop(f1, f2) + delta, sop, atol=1e-12)
    assert np.linalg.norm(delta) > 0.1  # a Haar-random joint map is correlated
