"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with its
measured numbers (bypassing capture) before asserting, so a full run
reads as a checklist.  The definitional forms that criteria 1, 2, 4, 8b
and 9 compare against, and the paper's order rule of criterion 8, come
from ``tests/reference.py``.  Criteria 6 and 7 execute the checked-in
sweep configs end to end and run for a few minutes each; everything else
is fast.  Criterion 8's model-order clause asserts the four published
orders and is expected to fail: the paper's order rule with the pinned
oversampling factor yields a different set, which is documented rather
than patched around.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from otfs_sync.cfo import (OpCounter, build_workspace, fine_cfo, ml_cost,
                           pilot_sample_indices, projection)
from otfs_sync.channel import EVA_TS, eva_model, realize_channel
from otfs_sync.harness import (_child_words, build_point, load_config,
                               run_sweep, run_trial)
from otfs_sync.modem import OtfsParams
from otfs_sync.pilot import PcpSpec
from otfs_sync.timing import (_slot_band, metric_delay_iterative,
                              metric_time_iterative)
from reference import (bem_basis, bem_fit_nmse, bem_order, beta_coefficients,
                       build_g, metric_delay, metric_time, ml_cost_fast,
                       trial_words)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(capsys, criterion, ok, detail):
    """Emit one checklist line straight to the terminal."""
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")


def random_buffer(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestCriterion1:
    """Sliding metric updates against their direct definitions."""

    def test_sliding_metric_forms_match_direct(self, capsys):
        """Both timing metrics' iterative forms reproduce the direct forms
        within 1e-9 relative over 100 random buffers at (M,N,L)=(64,16,8)."""
        tic = time.perf_counter()
        params = OtfsParams(m=64, n=16, lcp=16)
        spec = PcpSpec(length=8, m_p=32)
        worst_d = worst_t = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            buf = random_buffer(rng, 2 * params.mn)
            p_d = metric_delay(buf, params, spec)
            p_d_it = metric_delay_iterative(buf, params, spec)
            worst_d = max(worst_d, float(np.max(np.abs(p_d_it - p_d))
                                         / np.max(np.abs(p_d))))
            p_t = metric_time(buf, params, spec, mprime_p=32)
            p_t_it = metric_time_iterative(
                _slot_band(buf, params, spec, 32 - spec.length))
            worst_t = max(worst_t, float(np.max(np.abs(p_t_it - p_t))
                                         / np.max(np.abs(p_t))))
        elapsed = time.perf_counter() - tic
        ok = worst_d <= 1e-9 and worst_t <= 1e-9 and elapsed < 10.0
        report(capsys, 1, ok,
               f"delay dev {worst_d:.2e}, slot dev {worst_t:.2e} over 100 "
               f"seeds in {elapsed:.2f}s (budget 10s)")
        assert worst_d <= 1e-9
        assert worst_t <= 1e-9
        assert elapsed < 10.0


class TestCriterion2:
    """Trigonometric-polynomial cost against the matrix cost."""

    def test_fast_cost_matches_matrix_form(self, capsys):
        """ml_cost_fast equals ml_cost within 1e-9 relative over 100 random
        (observation, trial offset) cases at (N,L,Q) in {(8,4,3),(16,8,5)}."""
        tic = time.perf_counter()
        worst = 0.0
        cases = 0
        for n, length, q in ((8, 4, 3), (16, 8, 5)):
            params = OtfsParams(m=4 * length, n=n, lcp=length)
            spec = PcpSpec(length=length, m_p=2 * length)
            g = build_g(params, spec, bem_basis(params, spec, k=2, q=q))
            # The factored projector, from G's slot factor S.
            lam = np.kron(projection(g[::length, :q]), np.eye(length))
            rng = np.random.default_rng(1000 + n)
            for _ in range(50):
                r_p = random_buffer(rng, n * length)
                eps = float(rng.uniform(-n / 2, n / 2))
                ref = ml_cost(r_p, lam, params, spec, eps)
                fast = ml_cost_fast(r_p, lam, params, eps)
                worst = max(worst, abs(fast - ref) / max(abs(ref), 1e-300))
                cases += 1
        elapsed = time.perf_counter() - tic
        ok = worst <= 1e-9 and cases == 100 and elapsed < 30.0
        report(capsys, 2, ok,
               f"max rel dev {worst:.2e} over {cases} cases in "
               f"{elapsed:.2f}s (budget 30s)")
        assert worst <= 1e-9
        assert elapsed < 30.0


class TestCriterion3:
    """Noiseless exact recovery on the full estimation chain."""

    def test_noiseless_exhaustive_offset_recovery(self, capsys):
        """Static single-tap link at (M,N)=(32,8): every timing offset in
        [-MN/2, MN/2) is recovered exactly, and 50 random CFOs come back
        within 1e-4."""
        tic = time.perf_counter()
        config = load_config(CONFIG_DIR / "noiseless_recovery.cfg")
        ctx = build_point(config)
        span = config.m * config.n // 2
        words = _child_words(config.seed, 0, 2 * span)
        theta_misses = []
        for idx, theta in enumerate(range(-span, span)):
            [r] = run_trial([(dataclasses.replace(config, theta=theta), ctx)],
                            words[idx])
            if r.failure is not None or r.theta_hat != theta:
                theta_misses.append((theta, r.theta_hat, r.failure))
        rng = np.random.default_rng(3)
        eps_worst = 0.0
        for trial in range(50):
            eps = float(rng.uniform(-config.n / 2, config.n / 2))
            [r] = run_trial([(dataclasses.replace(config, epsilon=eps), ctx)],
                            words[trial])
            eps_worst = max(eps_worst, abs(r.eps_fine - eps))
        elapsed = time.perf_counter() - tic
        ok = not theta_misses and eps_worst <= 1e-4 and elapsed < 60.0
        report(capsys, 3, ok,
               f"theta exact {2 * span - len(theta_misses)}/{2 * span}, "
               f"worst CFO err {eps_worst:.2e} over 50 draws in "
               f"{elapsed:.1f}s (budget 60s)")
        assert theta_misses == []
        assert eps_worst <= 1e-4
        assert elapsed < 60.0


class TestCriterion4:
    """Projector structure and noiseless cost saturation."""

    def test_projection_properties_and_cost_saturation(self, capsys):
        """Over 20 random geometries the projector is Hermitian and
        idempotent within 1e-9 * ||Lambda||, and the noiseless cost at the
        true offset equals the observation energy within 1e-9 relative."""
        tic = time.perf_counter()
        rng = np.random.default_rng(44)
        worst_h = worst_i = worst_c = 0.0
        for _ in range(20):
            n = int(rng.integers(4, 13))
            length = int(rng.integers(2, 7))
            q = int(rng.integers(1, min(n, 4) + 1))
            m = 2 * length + 2 * int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            params = OtfsParams(m=m, n=n, lcp=int(rng.integers(0, 9)))
            spec = PcpSpec(length=length, m_p=m // 2)
            g = build_g(params, spec, bem_basis(params, spec, k=k, q=q))
            lam = projection(g)
            scale = float(np.linalg.norm(lam))
            worst_h = max(worst_h,
                          float(np.linalg.norm(lam - lam.conj().T)) / scale)
            worst_i = max(worst_i,
                          float(np.linalg.norm(lam @ lam - lam)) / scale)
            c = random_buffer(rng, length * q)
            eps = float(rng.uniform(-n / 2, n / 2))
            gamma = np.exp(2j * np.pi * eps
                           * pilot_sample_indices(params, spec).ravel()
                           / params.mn)
            r_p = gamma * (g @ c)
            energy = float(np.sum(np.abs(r_p) ** 2))
            cost = ml_cost(r_p, lam, params, spec, eps)
            worst_c = max(worst_c, abs(cost - energy) / energy)
        elapsed = time.perf_counter() - tic
        ok = max(worst_h, worst_i, worst_c) <= 1e-9
        report(capsys, 4, ok,
               f"hermitian dev {worst_h:.2e}, idempotent dev {worst_i:.2e}, "
               f"cost dev {worst_c:.2e} over 20 geometries in {elapsed:.1f}s")
        assert worst_h <= 1e-9
        assert worst_i <= 1e-9
        assert worst_c <= 1e-9


class TestCriterion5:
    """Metric traces peak at the injected offsets."""

    def test_metric_traces_peak_at_injected_offsets(self, capsys):
        """At the snapshot operating point (theta = -10 plus the derived
        advance 1970 shifts the stream by 15M + 40, so the slot metric
        peaks at 15 and the delay metric at theta_d + (m_p - L) + Lcp +
        floor(mu_h) = 40 + 43 + 32 + 3 = 118), at least 95 of 100 seeded
        snapshots put the slot peak exactly at 15 and the delay peak
        within +-2 of 118."""
        tic = time.perf_counter()
        config = load_config(CONFIG_DIR / "snapshot_timing.cfg")
        ctx = build_point(config)
        delay_hits = slot_hits = 0
        for seed in range(100):
            traces = {}
            run_trial([(dataclasses.replace(config, seed=seed), ctx)],
                      trial_words(seed, 0), traces)
            to = traces["to"]
            if abs(int(np.argmax(np.abs(to.p_d))) - 118) <= 2:
                delay_hits += 1
            if int(np.argmax(np.abs(to.p_t))) == 15:
                slot_hits += 1
        elapsed = time.perf_counter() - tic
        ok = delay_hits >= 95 and slot_hits >= 95
        report(capsys, 5, ok,
               f"delay peak within +-2 of 118: {delay_hits}/100, slot peak "
               f"at 15: {slot_hits}/100 in {elapsed:.1f}s")
        assert delay_hits >= 95
        assert slot_hits >= 95


class TestCriterion8:
    """The paper's model-order rule: its values and the expressiveness
    of the basis it selects.  The published bands {0, 660, 1640, 2730}
    Hz at 128x32 are converted once to nu_max M N Ts at the EVA sampling
    period (``BANDS_NU_T``)."""

    BANDS_NU_T = [hz * 128 * 32 * EVA_TS for hz in (0.0, 660.0, 1640.0,
                                                     2730.0)]

    def test_jakes_fit_quality(self, capsys):
        """The tone set the paper's rule selects at K = 4 fits a generated
        vehicular fading channel over the pilot region to NMSE <= 1e-2."""
        params, nu_t = OtfsParams(m=128, n=32, lcp=32), self.BANDS_NU_T[-1]
        spec = PcpSpec(length=21, m_p=64)
        model = eva_model(21, nu_t)
        real = realize_channel(model, params, params.n_t, seed=11)
        q = bem_order(4, nu_t)
        nmse = bem_fit_nmse(real.taps, params, spec,
                            bem_basis(params, spec, k=4, q=q))
        ok = nmse <= 1e-2
        report(capsys, "8b", ok,
               f"Jakes LS fit NMSE {nmse:.2e} at K=4, Q={q} "
               f"(threshold 1e-2)")
        assert nmse <= 1e-2

    def test_published_order_set(self, capsys):
        """The paper's rule at K = 4 should reproduce the published orders
        {1,3,6,8} for bands {0, 660, 1640, 2730} Hz.  It does not: the
        pinned ceiling rule yields {1,4,8,12} at K = 4, the mismatch is
        recorded as an inconsistency in the published numbers, and this
        test fails by design rather than restating the rule to fit."""
        orders = [bem_order(4, nu_t) for nu_t in self.BANDS_NU_T]
        ok = orders == [1, 3, 6, 8]
        report(capsys, "8a", ok,
               f"rule orders {orders} vs published [1, 3, 6, 8] "
               f"(known mismatch, expected FAIL)")
        assert orders == [1, 3, 6, 8], \
            "order rule disagrees with the published set (documented)"


class TestCriterion9:
    """Complexity instrumentation of the cost search."""

    def test_fast_cost_complexity_budget(self, capsys):
        """At (N,L) = (32,21) the fast path's per-grid-point work is
        independent of L once the banded reduction is in hand, and its
        total grid-search multiplies undercut the matrix path >= 10x."""
        params = OtfsParams(m=128, n=32, lcp=32)
        per_point = []
        for length in (21, 11):
            spec = PcpSpec(length=length, m_p=64)
            ws = build_workspace(params, spec, 7)
            rng = np.random.default_rng(length)
            r_p = random_buffer(rng, params.n * length)
            beta = beta_coefficients(r_p, ws.lam, params)
            counter = OpCounter()
            ml_cost_fast(r_p, ws.lam, params, 0.123, beta=beta,
                         counter=counter)
            per_point.append(counter.multiplies)
        spec = PcpSpec(length=21, m_p=64)
        ws = build_workspace(params, spec, 7)
        rng = np.random.default_rng(5)
        r_p = random_buffer(rng, params.n * 21)
        fast_counter = OpCounter()
        fine_cfo(r_p, ws, eps_coarse=0.0, use_fast=True,
                 counter=fast_counter)
        matrix_counter = OpCounter()
        fine_cfo(r_p, ws, eps_coarse=0.0, use_fast=False,
                 counter=matrix_counter)
        ratio = matrix_counter.multiplies / fast_counter.multiplies
        ok = per_point[0] == per_point[1] == params.n and ratio >= 10.0
        report(capsys, 9, ok,
               f"per-point multiplies {per_point} (N={params.n}) at L=21/11; "
               f"grid totals fast {fast_counter.multiplies} vs matrix "
               f"{matrix_counter.multiplies} ({ratio:.0f}x)")
        assert per_point[0] == per_point[1] == params.n
        assert fast_counter.multiplies * 10 <= matrix_counter.multiplies


class TestCriterion6:
    """SNR trend suite on the shipped config (few minutes)."""

    @pytest.mark.slow
    def test_snr_trend_suite(self, capsys, tmp_path):
        """500-trial points at SNR {0,10,20} dB, vehicular channel at high
        Doppler: (a) timing-error variance strictly decreases with SNR;
        (b) |mean timing error| <= 1 sample at SNR >= 10 (fractional mean
        delay leaves a sub-sample bias); (c) fine CFO MSE is at least 10x
        below coarse at 20 dB; (d) fine CFO MSE is non-increasing in SNR."""
        tic = time.perf_counter()
        config = load_config(CONFIG_DIR / "sweep_snr.cfg")
        emitted = run_sweep(config, tmp_path)
        rows = emitted["results.csv"]
        elapsed = time.perf_counter() - tic
        var = [s.to_err_var for s in rows]
        mean = [s.to_err_mean for s in rows]
        mse_c = [s.cfo_mse_coarse for s in rows]
        mse_f = [s.cfo_mse_fine for s in rows]
        fails = sum(s.failures for s in rows)
        a = var[0] > var[1] > var[2]
        b = all(abs(x) <= 1.0 for x in mean[1:])
        c = mse_f[2] <= mse_c[2] / 10.0
        d = mse_f[0] >= mse_f[1] >= mse_f[2]
        ok = a and b and c and d and elapsed <= 600.0 and fails == 0
        report(capsys, 6, ok,
               f"var {var[0]:.4f}>{var[1]:.4f}>{var[2]:.4f} ({a}), "
               f"|mean|<=1 ({b}), coarse/fine {mse_c[2] / mse_f[2]:.0f}x "
               f"({c}), fine monotone ({d}) in {elapsed:.0f}s (budget 600s)")
        assert a, f"variance not strictly decreasing: {var}"
        assert b, f"mean timing error above one sample: {mean}"
        assert c, f"fine MSE above a tenth of coarse: {mse_f[2]} vs {mse_c[2]}"
        assert d, f"fine MSE not monotone: {mse_f}"
        assert elapsed <= 600.0


class TestCriterion7:
    """Doppler-diversity trend on the shipped config (several minutes)."""

    @pytest.mark.slow
    def test_doppler_diversity_trend(self, capsys, tmp_path):
        """At SNR 20 dB and fixed MN = 4096, for each of the geometries
        64x64, 128x32, 256x16 over 500 trials: the timing-error variance
        at normalized Doppler 1.36 is below the 0.14 value; fine CFO MSE
        is at least 10x below coarse at 1.36; and fine CFO MSE is at most
        1e-2 at 0.14, where both stages sit on the floor set by the fading's
        own Doppler centroid (near 2e-3), so fine <= coarse is not
        asserted there."""
        tic = time.perf_counter()
        config = load_config(CONFIG_DIR / "sweep_doppler_geometries.cfg")
        emitted = run_sweep(config, tmp_path)
        elapsed = time.perf_counter() - tic
        details = []
        all_ok = True
        for name in sorted(emitted):
            by = {s.sweep_value: s for s in emitted[name]}
            lo, hi = by[0.14], by[1.36]
            geom_ok = hi.to_err_var < lo.to_err_var \
                and hi.cfo_mse_fine <= hi.cfo_mse_coarse / 10.0 \
                and lo.cfo_mse_fine <= 1e-2 \
                and lo.failures == 0 and hi.failures == 0
            all_ok = all_ok and geom_ok
            geom = name.replace("results_", "").replace(".csv", "")
            details.append(f"{geom}: {hi.to_err_var:.2f}<{lo.to_err_var:.2f}"
                           f", coarse/fine at 1.36 "
                           f"{hi.cfo_mse_coarse / hi.cfo_mse_fine:.0f}x, "
                           f"fine at 0.14 {lo.cfo_mse_fine:.2e} ({geom_ok})")
        report(capsys, 7, all_ok,
               "; ".join(details) + f" in {elapsed:.0f}s")
        for name in sorted(emitted):
            by = {s.sweep_value: s for s in emitted[name]}
            assert by[1.36].to_err_var < by[0.14].to_err_var, name
            assert by[1.36].cfo_mse_fine <= by[1.36].cfo_mse_coarse / 10.0, \
                name
            assert by[0.14].cfo_mse_fine <= 1e-2, name
