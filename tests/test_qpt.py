"""Tomography record generation, linear inversion, CPTP projection."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from ttmkit.io import read_qpt_csv, write_qpt_csv
from ttmkit.liouville import (
    all_pauli_labels,
    min_choi_eigenvalue,
    pauli_string,
    trace_preservation_defect,
    unvec,
    vec,
)
from ttmkit.qpt import (
    QptRecord,
    _design_matrix,
    prep_labels,
    prep_states,
    project_cptp,
    reconstruct_maps,
    simulate_qpt,
)

from conftest import is_density_matrix, map_distance, random_cptp


def test_prep_states_are_valid_and_informationally_complete():
    for n_qubits in (1, 2):
        states = prep_states(n_qubits)
        assert len(states) == 4**n_qubits
        for rho in states.values():
            assert is_density_matrix(rho)
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12  # pure preps
        # the span of the preparations must be the full operator space
        stack = np.array([rho.reshape(-1) for rho in states.values()])
        assert np.linalg.matrix_rank(stack, tol=1e-10) == 4**n_qubits
    for n_qubits in (1, 2):
        assert np.isfinite(np.linalg.cond(_design_matrix(n_qubits)[0]))
    with pytest.raises(ValueError):
        prep_labels(3)


def test_exact_records_invert_exactly():
    rng = np.random.default_rng(11)
    for d in (2, 4):
        maps = [random_cptp(d, rng) for _ in range(3)]
        records = simulate_qpt(maps, shots=0)
        back = reconstruct_maps(records)
        worst = max(map_distance(a, b) for a, b in zip(maps, back))
        assert worst < 1e-10


def test_exact_records_match_trace_loop_in_emission_order():
    rng = np.random.default_rng(41)
    for n_qubits in (1, 2):
        maps = [random_cptp(2**n_qubits, rng) for _ in range(2)]
        want = []
        for k, sop in enumerate(maps, start=1):
            for lab, rho in prep_states(n_qubits).items():
                out = unvec(sop @ vec(rho))
                for p in all_pauli_labels(n_qubits):
                    want.append((k, lab, p, np.real(np.trace(pauli_string(p) @ out))))
        records = simulate_qpt(maps)
        assert [(r.time_index, r.prep_label, r.pauli) for r in records] \
            == [w[:3] for w in want]
        npt.assert_allclose([r.expectation for r in records], [w[3] for w in want],
                            rtol=0, atol=1e-15)


def test_record_expectations_are_python_floats(tmp_path):
    rng = np.random.default_rng(43)
    maps = [random_cptp(4, rng)]
    for shots, seed in ((0, None), (64, 3)):
        records = simulate_qpt(maps, shots=shots, seed=seed)
        assert all(type(r.expectation) is float for r in records)
        path = tmp_path / f"records_{shots}.csv"
        write_qpt_csv(path, records)
        assert "np.float64" not in path.read_text()
        assert read_qpt_csv(path) == records


def test_record_grid_is_complete_and_ordered():
    rng = np.random.default_rng(13)
    maps = [random_cptp(2, rng)]
    records = simulate_qpt(maps, shots=0)
    assert len(records) == 16  # 4 preps x 4 Paulis
    assert all(r.time_index == 1 and r.shots == 0 for r in records)
    labels = {r.prep_label for r in records}
    assert labels == set(prep_labels(1))


def test_shot_noise_is_seeded_and_unbiased():
    rng = np.random.default_rng(17)
    maps = [random_cptp(2, rng)]
    a = simulate_qpt(maps, shots=512, seed=5)
    b = simulate_qpt(maps, shots=512, seed=5)
    assert all(x.expectation == y.expectation for x, y in zip(a, b))
    c = simulate_qpt(maps, shots=512, seed=6)
    assert any(x.expectation != y.expectation for x, y in zip(a, c))
    with pytest.raises(ValueError, match="seed"):
        simulate_qpt(maps, shots=512)
    exact = {(r.prep_label, r.pauli): r.expectation for r in simulate_qpt(maps)}
    sampled = simulate_qpt(maps, shots=200_000, seed=7)
    worst = max(abs(r.expectation - exact[(r.prep_label, r.pauli)]) for r in sampled)
    assert worst < 0.02


def test_shot_error_shrinks_like_inverse_sqrt():
    rng = np.random.default_rng(19)
    maps = [random_cptp(2, rng)]
    errs = []
    shots_grid = [512, 8192]
    for shots in shots_grid:
        recon = reconstruct_maps(simulate_qpt(maps, shots=shots, seed=23))
        errs.append(np.linalg.norm(recon[0] - maps[0]))
    ratio = errs[0] / errs[1]
    want = np.sqrt(shots_grid[1] / shots_grid[0])
    assert want / 2.0 < ratio < want * 2.0


def test_kronecker_inversion_matches_least_squares_on_the_design():
    rng = np.random.default_rng(37)
    for n_qubits in (1, 2):
        maps = [random_cptp(2**n_qubits, rng) for _ in range(3)]
        records = simulate_qpt(maps, shots=400, seed=5)
        a, keys = _design_matrix(n_qubits)
        y = np.array([r.expectation for r in records]).reshape(len(maps), len(keys))
        x, *_ = np.linalg.lstsq(a, y.T, rcond=None)
        want = x.T.reshape(np.shape(maps))
        npt.assert_allclose(reconstruct_maps(records), want, rtol=0, atol=1e-13)


def test_reconstruct_validates_grid():
    rng = np.random.default_rng(29)
    maps = [random_cptp(2, rng) for _ in range(2)]
    records = simulate_qpt(maps, shots=0)
    with pytest.raises(ValueError, match="no records"):
        reconstruct_maps([])
    with pytest.raises(ValueError, match="missing"):
        reconstruct_maps(records[:-1])
    shifted = [QptRecord(r.time_index + 1, r.prep_label, r.pauli, r.expectation,
                         r.shots) for r in records]
    with pytest.raises(ValueError, match="consecutive"):
        reconstruct_maps(shifted)


def _one_qubit_records():
    return simulate_qpt([random_cptp(2, np.random.default_rng(30)) for _ in range(2)])


def test_reconstruct_rejects_duplicate_records():
    # a second record for one setting used to replace the first without notice
    records = _one_qubit_records()
    extra = QptRecord(1, "psi0", "Z", records[3].expectation + 1.0, 0)
    with pytest.raises(ValueError, match=re.escape("time index 1: duplicate [('psi0', 'Z')]")):
        reconstruct_maps(records + [extra])


@pytest.mark.parametrize("prep, pauli", [("psiQ", "Z"), ("psi0", "W")])
def test_reconstruct_rejects_unknown_labels(prep, pauli):
    records = _one_qubit_records()
    bad = QptRecord(2, prep, pauli, 0.0, 0)
    with pytest.raises(ValueError, match=re.escape(f"time index 2: unknown [{(prep, pauli)}]")):
        reconstruct_maps(records + [bad])
    # in place of a known record the counts agree, and the swap still raises
    with pytest.raises(ValueError, match=re.escape(
            f"time index 2: missing [('psiY', 'Z')]; unknown [{(prep, pauli)}]")):
        reconstruct_maps(records[:-1] + [bad])


def test_reconstruct_rejects_mixed_registers():
    one = _one_qubit_records()
    two = simulate_qpt([random_cptp(4, np.random.default_rng(31))])
    with pytest.raises(ValueError, match=r"time index 1: unknown \[\('psi00', 'II'\), .*\.\.\.$"):
        reconstruct_maps(one + two)
    with pytest.raises(ValueError, match=r"time index 1: unknown \[\('psi0', 'I'\), .*\.\.\.$"):
        reconstruct_maps(two + one[:16])


def test_simulate_qpt_names_an_untabulated_dimension():
    with pytest.raises(ValueError, match="no preparation basis tabulated for Hilbert dimension 3"):
        simulate_qpt([np.eye(9)])
    with pytest.raises(ValueError, match="perfect square"):
        simulate_qpt([np.eye(5)])


def test_project_cptp_fixes_noisy_reconstructions():
    rng = np.random.default_rng(31)
    sop = random_cptp(2, rng)
    noisy = sop + 0.05 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    fixed = project_cptp(noisy)
    assert trace_preservation_defect(fixed) < 1e-12
    assert min_choi_eigenvalue(fixed) > -1e-9
    # projection must not wander far from the input
    assert map_distance(fixed, noisy) < 0.5


def test_project_cptp_is_identity_on_cptp_maps():
    rng = np.random.default_rng(37)
    sop = random_cptp(2, rng)
    npt.assert_allclose(project_cptp(sop), sop, atol=1e-9)
    ident = np.eye(16)
    npt.assert_allclose(project_cptp(ident), ident, atol=1e-9)


@pytest.mark.parametrize("shape", [(4, 5), (1, 4, 4)])
def test_project_cptp_rejects_non_square_input(shape):
    # a (4, 5) array used to fail inside numpy's reshape, naming no shape
    with pytest.raises(ValueError, match=re.escape(f"square 2-D array, got shape {shape}")):
        project_cptp(np.ones(shape))
