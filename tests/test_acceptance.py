"""Twelve numbered end-to-end checks, one printed verdict line each.

Every test covers one shipped claim at its stated tolerance and time budget
and prints a single [PASS]/[FAIL] line with the measured numbers (run with
pytest -s to see the lines for passing tests too). Monte Carlo checks use
fixed seeds, so reruns are bit-stable.
"""

import time
import warnings

import numpy as np
import pytest

from ttmkit.io import read_series_csv
from ttmkit.liouville import unvec, vec
from ttmkit.multiqubit import isolate_collective, unravel
from ttmkit.noisegen import NoiseModel
from ttmkit.nonmarkov import volume_measure, volume_series
from ttmkit.presets import (
    PLUS,
    correlated_pair_model,
    coupled_pair_model,
    dephasing_demo_model,
    revival_demo_model,
    run_fig3bottom,
    run_fig3top,
    run_fig4,
    run_xy4,
)
from ttmkit.propagator import dephasing_map_series, simulate_process
from ttmkit.qpt import reconstruct_maps, simulate_qpt
from ttmkit.spectroscopy import CorrelationSeries, spectral_density
from ttmkit.ttm import build_ttms, norm_profile, predict_maps, predict_states

from conftest import dephasing_coherence, random_cptp, random_lindblad_step


def _verdict(num, ok, budget, elapsed, detail):
    ok = ok and elapsed < budget
    word = "PASS" if ok else "FAIL"
    line = f"[{word}] criterion {num:02d}: {detail} ({elapsed:.1f} s, budget {budget:.0f} s)"
    print(line)
    assert ok, line


def _bootstrap_means(chunk_means, n_rep, seed):
    """Resampled grand means of per-chunk map estimates, one row per replicate."""
    rng = np.random.default_rng(seed)
    n_chunks = chunk_means.shape[0]
    for _ in range(n_rep):
        idx = rng.integers(0, n_chunks, size=n_chunks)
        yield chunk_means[idx].mean(axis=0)


def test_criterion_01_ttm_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for d in (2, 4):
        maps = [random_cptp(d, rng) for _ in range(8)]
        rebuilt = predict_maps(build_ttms(maps), 8)
        worst = max(worst, max(np.max(np.abs(a - b)) for a, b in zip(rebuilt, maps)))
    _verdict(1, worst < 1e-10, 1.0, time.perf_counter() - t0,
             f"rebuild residual {worst:.2e} < 1e-10 for d=2 and d=4")


def test_criterion_02_markovian_null():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_tail = 0.0
    worst_measure = 0.0
    for _ in range(10):
        e1 = random_lindblad_step(2, rng)
        maps = [e1.copy()]
        for _ in range(11):
            maps.append(e1 @ maps[-1])
        tensors = build_ttms(maps)
        worst_tail = max(worst_tail, max(np.linalg.norm(t) for t in tensors[1:]))
        worst_measure = max(worst_measure, volume_measure(volume_series(maps, 0.3)))
    ok = worst_tail < 1e-10 and worst_measure < 1e-12
    _verdict(2, ok, 1.0, time.perf_counter() - t0,
             f"10 semigroups: max |T_n| (n>=2) {worst_tail:.2e}, "
             f"max volume growth {worst_measure:.2e}")


def test_criterion_03_strong_dephasing_predictions():
    t0 = time.perf_counter()
    model = dephasing_demo_model()
    dt, n_steps = 0.2, 40
    maps = simulate_process(model, dt, n_steps, 100_000, seed=11, antithetic=True)
    tensors = build_ttms(maps)

    profile = norm_profile(tensors)
    n_above = int(np.sum(profile[1:] > 0.01 * profile[0]))

    lam = model.noise.cross[0, 0]
    kappa, omega_c = model.noise.kappas[0], model.noise.omegas[0]
    times = dt * np.arange(1, n_steps + 1)
    oracle = np.array([dephasing_coherence(lam, kappa, omega_c, t) for t in times])
    errs = {}
    for k in (1, 3, 5):
        states = predict_states(tensors, PLUS, n_steps, k_trunc=k)
        coh = np.array([abs(s[1, 0]) for s in states]) / 0.5
        errs[k] = float(np.max(np.abs(coh - oracle)))

    ok = n_above >= 3 and errs[5] < 0.02 and errs[1] >= errs[3] >= errs[5]
    _verdict(3, ok, 120.0, time.perf_counter() - t0,
             f"{n_above} tensors above 1% of |T_1 - I|; normalized coherence error "
             f"k=1: {errs[1]:.4f} >= k=3: {errs[3]:.4f} >= k=5: {errs[5]:.4f} < 0.02")


def test_criterion_04_volume_revival():
    t0 = time.perf_counter()
    model = revival_demo_model()
    dt, n_fit, n_total = 0.2, 16, 30
    maps, chunk_means = simulate_process(model, dt, n_fit, 409_600, seed=13,
                                         antithetic=True, collect_chunk_means=True)
    extended = predict_maps(build_ttms(maps), n_total)
    values = volume_series(extended, dt).values
    exact = volume_series(dephasing_map_series(model, dt, n_total), dt).values

    replicates = []
    for bs in _bootstrap_means(chunk_means, 200, seed=0):
        ext_b = predict_maps(build_ttms(list(bs)), n_total)
        replicates.append(volume_series(ext_b, dt).values)
    sigma = np.std(np.array(replicates), axis=0)

    deviation = np.abs(values - exact)
    within = bool(np.all(deviation <= 3.0 * sigma + 1e-12))
    diffs = np.diff(values)
    revival = float(np.max(diffs[4:8]))
    ok = within and revival > 0.0
    _verdict(4, ok, 120.0, time.perf_counter() - t0,
             f"max positive volume step in n=[4,7] is {revival:+.5f}; "
             f"max |extended - exact| / (3 sigma) = "
             f"{np.max(deviation / (3.0 * sigma + 1e-12)):.2f}")


def test_criterion_05_correlation_recovery_dephasing(tmp_path):
    t0 = time.perf_counter()
    run_fig3top(str(tmp_path))
    cols, _ = read_series_csv(tmp_path / "fig3top_correlation.csv")
    rel = float(np.max(np.abs(cols["c_fit"] - cols["c_true"]) / np.abs(cols["c_true"])))
    _verdict(5, cols["time"].size == 20 and rel < 0.05, 180.0,
             time.perf_counter() - t0,
             f"fitted C_zz relative error {rel:.4f} < 0.05 over 20 points")


def test_criterion_06_coupling_sweep_protocol(tmp_path):
    t0 = time.perf_counter()
    run_fig3bottom(str(tmp_path))
    cols, _ = read_series_csv(tmp_path / "fig3bottom_coupling_sweep.csv")
    assert cols["lam"].size == 6 and cols["lam"][-1] == pytest.approx(1.6 ** 2)
    exact = cols["c_exact"][-1]
    rel_naive = float(abs(cols["c_naive"][-1] - exact) / abs(exact))
    rel_protocol = float(abs(cols["c_protocol"][-1] - exact) / abs(exact))
    ok = rel_naive > 0.25 and rel_protocol < 0.10
    _verdict(6, ok, 600.0, time.perf_counter() - t0,
             f"at C_zz(0)=2.56 the plain fit is off by {rel_naive:.1%} (> 25%) "
             f"while the two-run protocol is off by {rel_protocol:.1%} (< 10%)")


def test_criterion_07_correlation_recovery_transverse(tmp_path):
    t0 = time.perf_counter()
    run_fig4(str(tmp_path))
    cols, _ = read_series_csv(tmp_path / "fig4_correlation.csv")
    rel = float(np.max(np.abs(cols["c_fit"] - cols["c_true"]) / np.abs(cols["c_true"])))
    _verdict(7, cols["time"].size == 20 and rel < 0.05, 180.0,
             time.perf_counter() - t0,
             f"fitted C_xx relative error {rel:.4f} < 0.05 over 20 points")


def test_criterion_08_pair_generator_kernel_numbers():
    t0 = time.perf_counter()
    dt = 0.2
    # coupled pair, independent fast noises: the collective part is the
    # zz generator, the collective kernel stays at the noise floor
    model = coupled_pair_model(10.0)
    maps = simulate_process(model, dt, 2, 4_000_000, seed=41, antithetic=True)
    res = unravel(maps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        dl1, dk1 = isolate_collective(res, dt, noise=model.noise)
    positions = [1, 2, 4, 7, 8, 11, 13, 14]
    signs = [-1, -1, 1, 1, 1, 1, -1, -1]
    diag = np.diag(dl1).imag
    mags_ok = bool(np.all(np.abs(np.abs(diag[positions]) - 0.02) <= 0.002))
    signs_ok = bool(np.all(np.sign(diag[positions]) == signs))
    dk1_max = float(np.max(np.abs(dk1)))
    m1_ok = mags_ok and signs_ok and dk1_max < 0.005

    # independent pair, fully correlated slow noises (correlation time 20):
    # the collective part should be all kernel
    model = correlated_pair_model(0.05)
    maps = simulate_process(model, dt, 2, 1_000_000, seed=43, antithetic=True)
    res = unravel(maps)
    dl2, dk2 = isolate_collective(res, dt, noise=model.noise)
    dl2_max = float(np.max(np.abs(dl2)))
    # superdecoherent pair (3,3),(12,12) negative, subdecoherent (6,6),(9,9)
    # positive, all four magnitudes in [0.03, 0.08]
    kd = np.diag(dk2).real
    pattern = [(3, -1), (6, 1), (9, 1), (12, -1)]
    pat_ok = bool(all(np.sign(kd[p]) == s and 0.03 <= abs(kd[p]) <= 0.08
                      for p, s in pattern))
    m2_ok = dl2_max < 0.005 and pat_ok

    detail = (
        f"coupled pair: generator magnitudes "
        f"{np.abs(diag[positions]).min():.4f}..{np.abs(diag[positions]).max():.4f} "
        f"(target 0.02 +- 10%), signs {'ok' if signs_ok else 'WRONG'}, "
        f"|kernel| {dk1_max:.4f} < 0.005; "
        f"correlated pair: |generator| {dl2_max:.4f} (need < 0.005), "
        f"kernel diag at (3,6,9,12) = "
        f"{kd[3]:+.4f} {kd[6]:+.4f} {kd[9]:+.4f} {kd[12]:+.4f} "
        f"(need -,+,+,- with magnitudes in [0.03, 0.08])"
    )
    _verdict(8, m1_ok and m2_ok, 600.0, time.perf_counter() - t0, detail)


def test_criterion_09_collective_prediction_gap():
    t0 = time.perf_counter()
    dt, n_fit, n_pred = 0.2, 16, 25
    psi_x0 = np.zeros(4, dtype=complex)
    psi_x0[[0, 2]] = 1 / np.sqrt(2)
    psi_bell = np.zeros(4, dtype=complex)
    psi_bell[[1, 2]] = 1 / np.sqrt(2)
    cases = (
        ("coupled", coupled_pair_model(1.0), np.outer(psi_x0, psi_x0.conj()), (0, 2)),
        ("correlated", correlated_pair_model(1.0), np.outer(psi_bell, psi_bell.conj()), (1, 2)),
    )
    details = []
    ok = True
    for name, model, rho0, (r, c) in cases:
        maps, chunk_means = simulate_process(model, dt, n_fit, 409_600, seed=23,
                                             antithetic=True, collect_chunk_means=True)
        res = unravel(maps)
        # Deviations are taken on the complex matrix element: the separable
        # reconstruction errs mostly in phase, which a modulus would hide.
        full_obs = np.array([s[r, c] for s in
                             predict_states(res.full_tensors, rho0, n_pred)])
        sep_obs = np.array([s[r, c] for s in
                            predict_states(res.separable_tensors, rho0, n_pred)])
        exact_maps = dephasing_map_series(model, dt, n_pred)
        exact_obs = np.array([unvec(m @ vec(rho0))[r, c] for m in exact_maps])

        replicates = []
        for bs in _bootstrap_means(chunk_means, 120, seed=5):
            res_b = unravel(list(bs))
            replicates.append([s[r, c] for s in
                               predict_states(res_b.full_tensors, rho0, n_pred)])
        rep = np.array(replicates)
        sigma = np.sqrt(np.mean(np.abs(rep - rep.mean(axis=0)) ** 2, axis=0))
        band = 3.0 * sigma + 1e-12

        full_dev = np.abs(full_obs - exact_obs)
        sep_dev = np.abs(sep_obs - exact_obs)
        n_star = int(np.argmax(sep_dev))
        within = bool(np.all(full_dev <= band))
        gap = float(sep_dev[n_star] / band[n_star])
        ok = ok and within and gap > 5.0
        gap_txt = f"{gap:.1f}x band" if gap < 1e4 else f"{sep_dev[n_star]:.2f} abs vs band {band[n_star]:.1e}"
        details.append(f"{name}: full/band max {np.max(full_dev / band):.2f} <= 1, "
                       f"separable gap {gap_txt} at step {n_star + 1}")
    _verdict(9, ok, 600.0, time.perf_counter() - t0, "; ".join(details))


def test_criterion_10_pulse_sequence_shortens_memory(tmp_path):
    t0 = time.perf_counter()
    run_xy4(str(tmp_path))
    cols, _ = read_series_csv(tmp_path / "xy4_ttm_norms.csv")
    threshold = 0.01 * cols["free"][0]
    count_free = int(np.sum(cols["free"] > threshold))
    count_xy4 = int(np.sum(cols["xy4"] > threshold))
    _verdict(10, count_xy4 < count_free, 300.0, time.perf_counter() - t0,
             f"profile entries above 1% of the free |T_1 - I|: "
             f"free {count_free}, XY4 {count_xy4}")


def test_criterion_11_tomography_roundtrip_and_shot_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in (2, 4):
        for _ in range(50):
            target = random_cptp(d, rng)
            recon = reconstruct_maps(simulate_qpt([target], shots=0))[0]
            worst = max(worst, float(np.max(np.abs(recon - target))))
    exact_ok = worst < 1e-10

    target = random_cptp(2, rng)
    sweep = [512, 2048, 8192, 32768]
    scaled = []
    for shots in sweep:
        errs = [np.mean(np.abs(
            reconstruct_maps(simulate_qpt([target], shots=shots, seed=rep))[0] - target))
            for rep in range(6)]
        scaled.append(float(np.mean(errs)) * np.sqrt(shots))
    ratio = max(scaled) / min(scaled)
    _verdict(11, exact_ok and ratio < 2.0, 120.0, time.perf_counter() - t0,
             f"noiseless round-trip residual {worst:.2e} < 1e-10 over 100 maps; "
             f"error * sqrt(shots) spread {ratio:.2f}x < 2x across {sweep}")


def test_criterion_12_spectral_identities():
    t0 = time.perf_counter()
    lam, kappa, dt, k = 1.0, 1.0, 0.02, 500
    noise = NoiseModel.single(lam, kappa, 0.0)
    values = np.zeros((k, 3, 3), dtype=complex)
    values[:, 2, 2] = noise.correlation_entry(0, 0, dt * np.arange(k)).real
    active = np.zeros((3, 3), dtype=bool)
    active[2, 2] = True
    omega, s = spectral_density(CorrelationSeries(dt, values, active), ("z", "z"))

    s_true = 2.0 * lam * kappa / (kappa ** 2 + omega ** 2)
    mask = np.abs(omega) <= 10.0
    rel = float(np.max(np.abs(s[mask] - s_true[mask]) / s_true[mask]))

    d_omega = omega[1] - omega[0]
    power_sq = float(np.sum(s ** 2) * d_omega / (2.0 * np.pi))
    parseval_rel = abs(power_sq - lam ** 2 / kappa) / (lam ** 2 / kappa)

    evenness = float(np.max(np.abs(s - s[::-1])))
    ok = rel < 0.02 and parseval_rel < 0.01 and evenness < 1e-10
    _verdict(12, ok, 1.0, time.perf_counter() - t0,
             f"Lorentzian pair error {rel:.4f} < 0.02 on |omega| <= 10; "
             f"Parseval mismatch {parseval_rel:.4f} < 0.01; "
             f"evenness residual {evenness:.1e} < 1e-10")
