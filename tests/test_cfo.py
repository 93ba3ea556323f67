"""Tests for coarse and BEM-based fine CFO estimation."""

import contextlib
import dataclasses
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.cfo import (BEM_K, COARSE_STEP, FINE_STEP, OpCounter,
                           _phase_table, build_workspace, coarse_cfo,
                           fine_cfo, matched_order, ml_cost,
                           pilot_sample_indices, projection)
from otfs_sync.channel import (apply_impairments, mean_delay, noise_sigma,
                               realize_channel, single_tap_model, unit_noise)
from otfs_sync import harness
from otfs_sync.harness import (ExperimentConfig, build_point, load_config,
                               run_trial)
from otfs_sync.modem import OtfsParams, build_stream
from otfs_sync.pilot import PcpSpec, build_frame, pilot_dt_slots
from otfs_sync.timing import (_slot_band, estimate_to, fold_offset,
                              metric_delay_iterative)
from reference import (bem_basis, bem_fit_nmse, bem_order, beta_coefficients,
                       build_g, coarse_cfo_gather, crb_cfo, extract_pilot,
                       ml_cost_fast, trial_words)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def chain_setup(seed=0):
    """Noiseless single-tap link at (32, 8) used by the coarse tests, and
    its acquisition footprint Lcp + m_p - L + floor(mu)."""
    params = OtfsParams(m=32, n=8, lcp=16)
    spec = PcpSpec(length=2, m_p=16)
    rng = np.random.default_rng(seed)
    stream = build_stream(build_frame(params, spec, rng), params)
    model = single_tap_model()
    real = realize_channel(model, params, 2 * params.n_t, seed=1)
    footprint = (params.lcp + spec.m_p - spec.length
                 + math.floor(mean_delay(model)))
    return params, spec, stream, real, footprint


def receive_and_time(params, spec, stream, real, footprint, eps,
                     snr_db=None, noise_seed=None):
    received = apply_impairments(stream, real, 0, eps, params)
    if snr_db is not None:
        received += noise_sigma(snr_db) * unit_noise(received.size,
                                                     noise_seed)
    return estimate_to(received, params, spec, footprint)


def model_matrix(params, spec, q):
    """The dense model matrix G of the Q-tone model at K = BEM_K, the
    tone set ``build_workspace`` runs."""
    return build_g(params, spec, bem_basis(params, spec, k=BEM_K, q=q))


def rotate(params, spec, eps, v):
    """Gamma(eps) v: the CFO ramp e^{j 2 pi eps k / (M N)} at the pilot
    samples k."""
    k = pilot_sample_indices(params, spec).ravel()
    return np.exp(2j * np.pi * eps * k / params.mn) * v


def factored_lambda(g, length, q):
    """P kron I_L, with P the projector onto G's slot factor S: its rows
    at each slot's first pilot row and its columns for delay shift 0."""
    return np.kron(projection(g[::length, :q]), np.eye(length))


class TestCoarseCfo:
    """Slot-phase-advance estimate."""

    @pytest.mark.parametrize("eps", [0.0, 0.25, -3.7, 2.83])
    def test_noiseless_exact(self, eps):
        """On a clean static channel the estimate is exact to rounding."""
        params, spec, stream, real, footprint = chain_setup()
        to = receive_and_time(params, spec, stream, real, footprint, eps)
        assert abs(coarse_cfo(to, params, spec) - eps) < 1e-9

    def test_ambiguity_window(self):
        """Offsets are resolved modulo N into [-N/2, N/2)."""
        params, spec, stream, real, footprint = chain_setup()
        eps = 2.3 + params.n
        to = receive_and_time(params, spec, stream, real, footprint, eps)
        assert abs(coarse_cfo(to, params, spec) - 2.3) < 1e-9

    def test_stable_at_wrap_point(self):
        """Near eps = N/2 the per-row phases straddle the +-pi branch cut;
        the branch-centered average must not mix wrapped rows."""
        params, spec, stream, real, footprint = chain_setup()
        eps = params.n / 2 - 0.01
        for noise_seed in range(10):
            to = receive_and_time(params, spec, stream, real, footprint,
                                  eps, snr_db=30.0, noise_seed=noise_seed)
            got = coarse_cfo(to, params, spec)
            assert abs(fold_offset(got - eps, params.n)) < 0.05

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(eps=st.floats(-4.0, 4.0, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_full_ambiguity_window(self, eps, seed):
        """On a noiseless static link, any offset in the whole ambiguity
        window [-N/2, N/2) (N = 8), its edge -N/2 included, is recovered
        to rounding, modulo N, as a value inside the window."""
        params, spec, stream, real, footprint = chain_setup(seed)
        to = receive_and_time(params, spec, stream, real, footprint, eps)
        got = coarse_cfo(to, params, spec)
        assert -params.n / 2 <= got < params.n / 2
        assert abs(fold_offset(got - eps, params.n)) < 1e-9

    def test_dead_buffer_raises(self):
        """A buffer with no pilot energy cannot produce an estimate."""
        params, spec, stream, real, footprint = chain_setup()
        dead = np.zeros(2 * params.n_t, dtype=complex)
        to = estimate_to(dead, params, spec, footprint)
        with pytest.raises(ValueError, match="usable"):
            coarse_cfo(to, params, spec)

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(length=st.integers(2, 8), n=st.integers(2, 12),
           extra_m=st.integers(0, 24), theta_t_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slot_band_sum_equals_buffer_gather(self, length, n, extra_m,
                                                theta_t_frac, seed):
        """At random (M, N, L) and slot offset, over a random buffer, the
        estimate summed from the timing stage's slot band equals, bit for
        bit, the one gathered from the buffer (``coarse_cfo_gather``)."""
        m = 2 * length + extra_m
        params = OtfsParams(m=m, n=n, lcp=length)
        spec = PcpSpec(length=length, m_p=length + extra_m // 2)
        rng = np.random.default_rng(seed)
        received = rng.standard_normal(2 * params.n_t) \
            + 1j * rng.standard_normal(2 * params.n_t)
        to = estimate_to(received, params, spec, 0)
        to = dataclasses.replace(to, theta_t_hat=int(theta_t_frac * (n - 1)))
        assert coarse_cfo(to, params, spec) == \
            coarse_cfo_gather(received, to, params, spec)


class TestReadSet:
    """The receive chain reads only the samples its stages document."""

    @staticmethod
    def chain(received, ctx, half_width):
        params, spec = ctx.params, ctx.spec
        to = estimate_to(received, params, spec, ctx.footprint)
        eps_coarse = coarse_cfo(to, params, spec)
        estimate = fine_cfo(to.pilot, ctx.workspace, eps_coarse,
                            half_width=half_width)
        return to, eps_coarse, estimate

    @pytest.mark.parametrize("config_name, overrides", [
        ("noiseless_recovery.cfg", dict(theta=None, epsilon=None)),
        ("sweep_snr.cfg", dict(snr_db=20.0)),
        ("sweep_doppler_geometries.cfg", dict(m=64, n=64, nu_max_t=0.14)),
        ("sweep_doppler_geometries.cfg", dict(m=256, n=16, nu_max_t=1.36)),
    ], ids=["32x8", "128x32", "64x64", "256x16"])
    def test_unread_samples_do_not_matter(self, monkeypatch, config_name,
                                          overrides):
        """Every sample outside the delay window [0, MN + 2L - 2) and the
        slot rows (the 2L rows from the delay peak argmax |P_d|, of slots
        0 .. 2N - 2) is set to NaN; the timing estimate, its traces and
        pilot vector, both CFO estimates and the cost trace stay bit for
        bit those of the whole buffer, at every shipped grid.  The pilot
        vector is the buffer's pilot rows of the block at theta_hat
        (``extract_pilot``)."""
        config = dataclasses.replace(load_config(CONFIG_DIR / config_name),
                                     **overrides)
        ctx = build_point(config)
        params, spec, length = ctx.params, ctx.spec, ctx.spec.length
        seen = []

        def capture(received, *args):
            seen.append(received)
            return estimate_to(received, *args)

        monkeypatch.setattr(harness, "estimate_to", capture)
        for trial in range(4):
            [result] = run_trial([(config, ctx)],
                                 trial_words(config.seed, trial))
            assert result.failure is None
            received = seen[-1]
            whole = self.chain(received, ctx, config.cfo_half_width)
            to = whole[0]
            read = np.zeros(received.size, dtype=bool)
            read[:params.mn + 2 * length - 2] = True
            band = (np.arange(2 * params.n - 1)[:, None] * params.m
                    + int(np.argmax(np.abs(to.p_d)))
                    + np.arange(2 * length))
            read[band] = True
            assert 0 < read.sum() < received.size
            assert_array_equal(to.pilot, extract_pilot(received, to.theta_hat,
                                                       params, spec))
            poisoned = np.where(read, received, np.nan)
            part = self.chain(poisoned, ctx, config.cfo_half_width)
            for name in ("theta_d_hat", "theta_t_hat", "theta_hat"):
                assert getattr(part[0], name) == getattr(to, name)
            for name in ("p_d", "p_t", "slot_band", "pilot"):
                assert_array_equal(getattr(part[0], name),
                                   getattr(to, name))
            assert part[1] == whole[1]
            assert part[2].eps_fine == whole[2].eps_fine
            assert_array_equal(part[2].cost_trace, whole[2].cost_trace)

    @staticmethod
    def random_configs(count, seed):
        """``count`` random configs that ``build_point`` accepts, as (config,
        context) pairs: 2 <= L <= 8, 2 <= N <= 12, either channel, every
        fourth draw with lcp = 0, and the pilot centred or anywhere."""
        rng = np.random.default_rng(seed)
        accepted, draws = [], 0
        while len(accepted) < count:
            length = int(rng.integers(2, 9))
            m = 2 * length + int(rng.integers(0, 3 * length + 1))
            config = ExperimentConfig(
                m=m, n=int(rng.integers(2, 13)),
                lcp=0 if draws % 4 == 0 else int(rng.integers(0, m + 1)),
                pilot_length=length,
                pilot_m_p=None if rng.random() < 0.5
                else int(rng.integers(length, m - length + 1)),
                channel=("eva", "single_tap")[int(rng.integers(0, 2))],
                nu_max_t=float(rng.choice([0.0, 0.14, 0.5, 1.36])),
                cfo_half_width=0.5)
            draws += 1
            try:
                accepted.append((config, build_point(config)))
            except ValueError:
                continue
        return accepted

    def test_buffer_holds_every_read(self, caplog):
        """A trial's 2 N_T buffer holds every read of the chain, for every
        delay peak and slot candidate, so no stage needs a length check.
        On a zero buffer, at each shipped geometry and at 200 random
        configs that ``build_point`` accepts (both channels, lcp = 0
        among them): the delay metric has M outputs; the slot rows at
        every peak row in [0, M) have shape (2N - 1, 2L) and their band
        (2N - 2, 2L); and the pilot's first column in the slot rows, c =
        Lcp + m_p - footprint, lies in [0, L - 1], so the L pilot columns
        from c lie in the 2L rows gathered (``timing.estimate_to``).
        Small random L clips the EVA profile, whose warnings are
        silenced."""
        shipped = []
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            config = load_config(path)
            shipped += [dataclasses.replace(config, m=m, n=n)
                        for m, n in config.geometries] or [config]
        with caplog.at_level(logging.ERROR, logger="otfs_sync.channel"):
            points = [(c, build_point(c)) for c in shipped] \
                + self.random_configs(200, seed=2)
        assert {c.channel for c, _ in points} == {"eva", "single_tap"}
        assert any(c.lcp == 0 for c, _ in points)
        for _, ctx in points:
            params, spec = ctx.params, ctx.spec
            buffer = np.zeros(2 * params.n_t, dtype=complex)
            assert metric_delay_iterative(buffer, params, spec).shape \
                == (params.m,)
            for peak in range(params.m):
                rows, band = _slot_band(buffer, params, spec, peak)
                assert rows.shape == (2 * params.n - 1, 2 * spec.length)
                assert band.shape == (2 * params.n - 2, 2 * spec.length)
            assert 0 <= params.lcp + spec.m_p - ctx.footprint \
                <= spec.length - 1


class TestBemOrder:
    """Model-order rules: the paper's, kept in ``tests/reference.py``,
    and the one the trial path runs."""

    def test_zero_doppler_needs_one_tone(self):
        """A static band collapses the basis to the DC tone."""
        assert bem_order(4, 0.0) == 1

    def test_order_grows_with_band(self):
        """Q = ceil(2 K nu_max_t) + 1."""
        assert bem_order(4, 1.36) == int(np.ceil(2 * 4 * 1.36)) + 1 == 12

    def test_bad_arguments_raise(self):
        """Nonpositive oversampling and negative bands are refused."""
        with pytest.raises(ValueError):
            bem_order(0, 0.1)
        with pytest.raises(ValueError):
            bem_order(4, -1.0)

    def test_matched_order_values(self):
        """Q = 2 floor(K nu T / 2 + 1/2) + 1 at K = 4 over the shipped and
        tabulated Doppler points; nu T = 0.25 rounds half up to Q = 3."""
        nus = (0.0, 0.14, 0.25, 0.5, 0.8, 1.36)
        assert [matched_order(nu) for nu in nus] == [1, 1, 3, 3, 5, 7]


class TestBemModel:
    """Where the tone set is evaluated."""

    def test_pilot_indices(self):
        """Pilot sample (l, a) sits at stream index Lcp + l M + m_p + a."""
        params = OtfsParams(m=16, n=4, lcp=5)
        spec = PcpSpec(length=3, m_p=8)
        idx = pilot_sample_indices(params, spec)
        assert idx.shape == (4, 3)
        for l in range(4):
            for a in range(3):
                assert idx[l, a] == 5 + l * 16 + 8 + a


class TestModelMatrix:
    """Structure of the coefficient-to-observation map."""

    def test_column_factorization(self):
        """Each column is a cyclically shifted pilot profile times a tone."""
        params = OtfsParams(m=16, n=4, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        basis = bem_basis(params, spec, k=BEM_K, q=2)
        g = build_g(params, spec, basis)
        assert g.shape == (12, 6)
        slots = pilot_dt_slots(spec, params)
        for l in range(4):
            for a in range(3):
                for ell in range(3):
                    for q in range(2):
                        expected = slots[l, (a - ell) % 3] \
                            * basis[l * 3 + a, q]
                        assert_allclose(g[l * 3 + a, ell * 2 + q], expected,
                                        rtol=1e-12)

    def test_too_many_tones_raise(self):
        """More tones than slots leave the model rank deficient: G has
        rank N L, short of its L Q columns, and ``build_workspace``
        refuses the order."""
        params = OtfsParams(m=16, n=4, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        g = model_matrix(params, spec, 5)
        assert np.linalg.matrix_rank(g) == 12 < g.shape[1] == 15
        with pytest.raises(ValueError, match="rank deficient"):
            build_workspace(params, spec, 5)

    def test_full_column_rank(self):
        """Within the slot budget the model matrix has full column rank."""
        params = OtfsParams(m=16, n=8, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        g = model_matrix(params, spec, 4)
        assert np.linalg.matrix_rank(g) == 12


class TestProjection:
    """Orthogonal projector onto the model's column space."""

    def test_hermitian_idempotent(self):
        """Lambda^H = Lambda and Lambda^2 = Lambda within 1e-9 * ||Lambda||."""
        params = OtfsParams(m=16, n=8, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        lam = projection(model_matrix(params, spec, 4))
        scale = np.linalg.norm(lam)
        assert np.linalg.norm(lam - lam.conj().T) < 1e-9 * scale
        assert np.linalg.norm(lam @ lam - lam) < 1e-9 * scale

    def test_reproduces_model_vectors(self):
        """Vectors already in the column space pass through unchanged."""
        params = OtfsParams(m=16, n=8, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        g = model_matrix(params, spec, 3)
        lam = projection(g)
        rng = np.random.default_rng(6)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = g @ c
        assert_allclose(lam @ v, v, atol=1e-9 * np.linalg.norm(v))

    def test_ill_conditioned_falls_back_to_ridge(self):
        """A duplicated tone makes G rank deficient; the projector keeps
        its rank L of 2L columns, logs that, and equals both the
        projector onto one tone's columns and the factored build.  The
        name follows the benchmark counter
        ``cfo.projection.ridge_fallbacks``, which counts truncations."""
        params, spec, g = duplicated_tone_model()
        with rank_messages() as messages:
            lam = projection(g)
        assert logged_ranks(messages) == [(3, 6)]
        expected = projection(g[:, ::2])
        assert np.linalg.norm(lam - expected) <= 1e-12 * np.linalg.norm(
            expected)
        factored = factored_lambda(g, spec.length, 2)
        assert np.linalg.norm(factored - lam) <= 1e-10 * np.linalg.norm(lam)


def duplicated_tone_model():
    """The model matrix of a two-tone BEM at (16, 8), L = 3, whose tones
    coincide."""
    params = OtfsParams(m=16, n=8, lcp=4)
    spec = PcpSpec(length=3, m_p=8)
    basis = bem_basis(params, spec, k=BEM_K, q=2)
    return params, spec, build_g(params, spec, basis[:, [0, 0]])


RANK_PREFIX = "projection: cond(G^H G)"
GEOMETRY_CONFIG = CONFIG_DIR / "sweep_doppler_geometries.cfg"


def logged_ranks(messages):
    """(kept rank, columns) of each rank-truncation warning."""
    return [tuple(int(v) for v in re.search(
        r"keeping rank (\d+) of (\d+)$", m).groups()) for m in messages]


@contextlib.contextmanager
def rank_messages():
    """Collect the projector's rank-truncation warnings logged inside
    the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda rec: messages.append(rec.getMessage())
    logger = logging.getLogger("otfs_sync.cfo")
    level = logger.level
    logger.setLevel(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        messages[:] = [m for m in messages if m.startswith(RANK_PREFIX)]


def stored_arrays(ws):
    """Every array held by the workspace."""
    for f in dataclasses.fields(ws):
        value = getattr(ws, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value


def shipped_workspace(geometry, q):
    """The ML workspace of a Q-tone model on the pilot of
    sweep_doppler_geometries.cfg at ``geometry``."""
    m, n = geometry
    ctx = build_point(dataclasses.replace(load_config(GEOMETRY_CONFIG),
                                          m=m, n=n))
    return build_workspace(ctx.params, ctx.spec, q)


def check_factored(ws, q, r_p):
    """The Kronecker-factored workspace of a Q-tone model against the
    dense definitions: P is bit for bit the projector onto G's slot
    factor, both builds truncate alike (rank(G) = L rank(S)), Lambda =
    projection(G) within 1e-10 ||Lambda|| and beta within 1e-10
    relative with equal multiply counts; with L > 1, no stored array
    has (N L)^2 entries."""
    params, spec = ws.params, ws.spec
    nl = params.n * spec.length
    g = model_matrix(params, spec, q)
    with rank_messages() as dense_ranks:
        dense = projection(g)
    with rank_messages() as factored_ranks:
        rebuilt = build_workspace(params, spec, q)
    assert logged_ranks(dense_ranks) == [
        (spec.length * r, spec.length * c)
        for r, c in logged_ranks(factored_ranks)]
    assert_array_equal(rebuilt.p, ws.p)
    assert_array_equal(projection(g[::spec.length, :q]), ws.p)
    lam = ws.lam
    assert lam.shape == (nl, nl)
    counter, ref_counter = OpCounter(), OpCounter()
    beta = ws.beta(r_p, counter=counter)
    reference = beta_coefficients(r_p, lam, params, counter=ref_counter)
    assert counter.multiplies == ref_counter.multiplies
    assert np.linalg.norm(beta - reference) <= 1e-10 * np.linalg.norm(
        reference)
    assert np.linalg.norm(lam - dense) <= 1e-10 * np.linalg.norm(dense)
    reference = beta_coefficients(r_p, dense, params)
    assert np.linalg.norm(beta - reference) <= 1e-10 * np.linalg.norm(
        reference)
    for name, value in stored_arrays(ws):
        assert spec.length == 1 or value.size < nl * nl, name


class TestFactoredWorkspace:
    """Lambda = P kron I_L: the N x N slot projector replaces the NL x NL
    projector and its SVD without changing the cost."""

    @pytest.mark.parametrize("geometry", [(64, 64), (128, 32), (256, 16)])
    @pytest.mark.parametrize("nu_max_t", [0.14, 1.36])
    def test_shipped_geometries(self, geometry, nu_max_t):
        """The three geometries of sweep_doppler_geometries.cfg, at the
        model order each of its Doppler points runs."""
        q = matched_order(nu_max_t)
        ws = shipped_workspace(geometry, q)
        rng = np.random.default_rng(geometry[1])
        nl = ws.params.n * ws.spec.length
        r_p = rng.standard_normal(nl) + 1j * rng.standard_normal(nl)
        check_factored(ws, q, r_p)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(length=st.integers(1, 8), n=st.integers(1, 16),
           extra_m=st.integers(0, 40), q_frac=st.floats(0.0, 1.0),
           lcp_frac=st.floats(0.0, 1.0), mp_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_geometries(self, length, n, extra_m, q_frac, lcp_frac,
                               mp_frac, seed):
        m = 2 * length + extra_m
        q = 1 + int(q_frac * (n - 1))
        params = OtfsParams(m=m, n=n, lcp=int(lcp_frac * m))
        spec = PcpSpec(length=length,
                       m_p=length + int(mp_frac * (m - 2 * length)))
        ws = build_workspace(params, spec, q)
        rng = np.random.default_rng(seed)
        nl = n * length
        r_p = rng.standard_normal(nl) + 1j * rng.standard_normal(nl)
        check_factored(ws, q, r_p)

    def test_matrix_path_builds_lambda_once(self, monkeypatch):
        """The use_fast = False search fetches Lambda once per call."""
        ws = shipped_workspace((256, 16), 7)
        calls = []
        kron = np.kron

        def counted_kron(*args):
            calls.append(args)
            return kron(*args)

        monkeypatch.setattr(np, "kron", counted_kron)
        r_p = np.ones(ws.params.n * ws.spec.length, dtype=complex)
        fine_cfo(r_p, ws, eps_coarse=0.0, use_fast=False)
        assert len(calls) == 1

    @pytest.mark.parametrize("geometry", [(64, 64), (128, 32), (256, 16)])
    @pytest.mark.parametrize("q", [12, 7, 11])
    def test_ridge_engages_on_the_dense_cases(self, geometry, q):
        """Rank truncation happens exactly where the dense build
        truncates: at Q = 11 and at Q = 12 (the paper's rule at nu T =
        1.36), both kept at rank 10, and not at Q = 7; the two
        projectors agree.  The name follows the benchmark counter
        ``cfo.projection.ridge_fallbacks``, which counts truncations."""
        with rank_messages() as factored:
            ws = shipped_workspace(geometry, q)
        with rank_messages() as dense:
            lam = projection(model_matrix(ws.params, ws.spec, q))
        length = ws.spec.length
        expected = [(10, q)] if q >= 11 else []
        assert logged_ranks(factored) == expected
        assert logged_ranks(dense) == [(length * r, length * c)
                                       for r, c in expected]
        assert np.linalg.norm(ws.lam - lam) <= 1e-10 * np.linalg.norm(lam)

    @pytest.mark.parametrize("geometry", [(64, 64), (128, 32), (256, 16)])
    @pytest.mark.parametrize("q", [11, 12])
    def test_truncated_projector_is_exact(self, geometry, q):
        """Where the rank is truncated (Q = 11 and 12), P is still
        Hermitian and idempotent to 1e-12 relative."""
        p = shipped_workspace(geometry, q).p
        scale = np.linalg.norm(p)
        assert np.linalg.norm(p - p.conj().T) <= 1e-12 * scale
        assert np.linalg.norm(p @ p - p) <= 1e-12 * scale

    def test_duplicated_tone_falls_back_to_ridge(self):
        """The duplicated-tone BEM of the projection test keeps rank 1 of
        2 through the slot factor, rank 3 of 6 densely, and the two
        projectors agree.  The name follows the benchmark counter
        ``cfo.projection.ridge_fallbacks``, which counts truncations."""
        params, spec, g = duplicated_tone_model()
        with rank_messages() as factored:
            factored_lam = factored_lambda(g, spec.length, 2)
        with rank_messages() as dense:
            lam = projection(g)
        assert logged_ranks(factored) == [(1, 2)]
        assert logged_ranks(dense) == [(3, 6)]
        assert np.linalg.norm(factored_lam - lam) <= 1e-10 * np.linalg.norm(
            lam)

    def test_too_many_tones_raise(self):
        """More tones than slots are refused before any projector is
        built."""
        params = OtfsParams(m=16, n=4, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        with rank_messages() as messages:
            with pytest.raises(ValueError, match="need at least Q slots"):
                build_workspace(params, spec, 5)
        assert messages == []


class TestMlCost:
    """Matrix cost, banded reduction, and their agreement."""

    def _workspace(self, n=8, length=4, q=3, m=16, seed=3):
        params = OtfsParams(m=m, n=n, lcp=4)
        spec = PcpSpec(length=length, m_p=m // 2)
        ws = build_workspace(params, spec, q)
        rng = np.random.default_rng(seed)
        nl = n * length
        r_p = rng.standard_normal(nl) + 1j * rng.standard_normal(nl)
        return ws, r_p

    def test_noiseless_loopback_saturates(self):
        """For r_p = Gamma(eps) G c the cost at eps equals ||r_p||^2 and
        beats every wrong hypothesis."""
        ws, _ = self._workspace()
        rng = np.random.default_rng(9)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        eps = 1.37
        params, spec = ws.params, ws.spec
        r_p = rotate(params, spec, eps, model_matrix(params, spec, 3) @ c)
        full = float(np.sum(np.abs(r_p) ** 2))
        at_truth = ml_cost(r_p, ws.lam, params, spec, eps)
        assert abs(at_truth - full) < 1e-9 * full
        for wrong in (eps - 1.0, eps + 0.5, 0.0):
            assert ml_cost(r_p, ws.lam, params, spec, wrong) < at_truth

    def test_fast_matches_matrix(self):
        """The trigonometric form agrees with the matrix form everywhere."""
        for case in range(20):
            ws, r_p = self._workspace(seed=case)
            rng = np.random.default_rng(100 + case)
            for eps in rng.uniform(-4, 4, 5):
                ref = ml_cost(r_p, ws.lam, ws.params, ws.spec, eps)
                fast = ml_cost_fast(r_p, ws.lam, ws.params, eps)
                assert abs(fast - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_beta_reduction_identity(self):
        """beta[m] collects the m-th L-band diagonal of the quadratic form."""
        ws, r_p = self._workspace()
        beta = beta_coefficients(r_p, ws.lam, ws.params)
        nl, length = r_p.size, ws.spec.length
        for m_lag in range(ws.params.n):
            off = m_lag * length
            expected = sum(ws.lam[k + off, k] * np.conj(r_p[k + off]) * r_p[k]
                           for k in range(nl - off))
            assert_allclose(beta[m_lag], expected, rtol=1e-10)

    def test_counter_budgets(self):
        """Counted multiplies follow the documented per-call budgets."""
        ws, r_p = self._workspace()
        nl, n, length = r_p.size, ws.params.n, ws.spec.length
        counter = OpCounter()
        ml_cost(r_p, ws.lam, ws.params, ws.spec, 0.1, counter=counter)
        assert counter.multiplies == nl * nl + 2 * nl
        counter = OpCounter()
        beta = beta_coefficients(r_p, ws.lam, ws.params, counter=counter)
        assert counter.multiplies == 2 * length * n * (n + 1) // 2
        counter = OpCounter()
        ml_cost_fast(r_p, ws.lam, ws.params, 0.1, beta=beta,
                     counter=counter)
        assert counter.multiplies == n

    def test_per_point_work_independent_of_length(self):
        """After the banded reduction, a grid evaluation costs N multiplies
        no matter how long the pilot is."""
        increments = []
        for length in (4, 8):
            ws, r_p = self._workspace(n=8, length=length, m=32)
            beta = beta_coefficients(r_p, ws.lam, ws.params)
            counter = OpCounter()
            ml_cost_fast(r_p, ws.lam, ws.params, 0.3, beta=beta,
                         counter=counter)
            increments.append(counter.multiplies)
        assert increments[0] == increments[1] == 8


class TestFineCfo:
    """Two-stage grid refinement."""

    def _loopback(self, eps, eps_coarse):
        params = OtfsParams(m=16, n=8, lcp=4)
        spec = PcpSpec(length=4, m_p=8)
        ws = build_workspace(params, spec, 3)
        rng = np.random.default_rng(2)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        return ws, rotate(params, spec, eps, model_matrix(params, spec, 3) @ c)

    def test_recovers_on_grid_offset(self):
        """An offset on the refinement grid is recovered exactly."""
        eps = 0.0837
        ws, r_p = self._loopback(eps, 0.0)
        est = fine_cfo(r_p, ws, eps_coarse=0.0)
        assert abs(est.eps_fine - eps) < 1e-9

    def test_off_grid_offset_within_step(self):
        """Any offset is recovered to within the fine grid step."""
        eps = 0.123456
        ws, r_p = self._loopback(eps, 0.0)
        est = fine_cfo(r_p, ws, eps_coarse=0.0)
        assert abs(est.eps_fine - eps) <= 1e-4

    def test_trace_covers_both_stages(self):
        """The cost trace holds the full coarse grid then the fine grid."""
        ws, r_p = self._loopback(0.05, 0.0)
        est = fine_cfo(r_p, ws, eps_coarse=0.0, half_width=0.5)
        assert est.cost_trace.shape == (101 + 201, 2)
        assert_allclose(est.cost_trace[0, 0], -0.5)
        assert_allclose(est.cost_trace[100, 0], 0.5)

    def test_matrix_path_agrees(self):
        """use_fast = False searches the identical grid to the same peak."""
        eps = -0.2041
        ws, r_p = self._loopback(eps, 0.0)
        fast = fine_cfo(r_p, ws, eps_coarse=0.0, use_fast=True)
        slow = fine_cfo(r_p, ws, eps_coarse=0.0, use_fast=False)
        assert fast.eps_fine == slow.eps_fine
        assert_allclose(fast.cost_trace, slow.cost_trace, rtol=1e-9)

    @staticmethod
    def _scalar_fine_cfo(r_p, ws, eps_coarse, counter):
        """The two-stage search as one ml_cost_fast call per grid point."""
        beta = beta_coefficients(r_p, ws.lam, ws.params, counter=counter)

        def costs(grid):
            return np.array([ml_cost_fast(r_p, ws.lam, ws.params, e,
                                          beta=beta, counter=counter)
                             for e in grid])

        grid1 = eps_coarse + np.arange(-50, 51) * 1e-2
        center = grid1[int(np.argmax(costs(grid1)))]
        grid2 = center + np.arange(-100, 101) * 1e-4
        return float(grid2[int(np.argmax(costs(grid2)))])

    def _noisy_case(self, seed):
        """A random BEM loopback in noise at a random offset."""
        rng = np.random.default_rng(seed)
        n, length, q = (8, 16, 32)[seed % 3], 1 + seed % 4, 1 + seed % 3
        params = OtfsParams(m=16, n=n, lcp=4)
        spec = PcpSpec(length=length, m_p=8)
        ws = build_workspace(params, spec, q)
        c = rng.standard_normal(length * q) + 1j * rng.standard_normal(
            length * q)
        eps = rng.uniform(-0.4, 0.4)
        noise = rng.standard_normal(n * length) + 1j * rng.standard_normal(
            n * length)
        r_p = rotate(params, spec, eps, model_matrix(params, spec, q) @ c)
        return ws, r_p + 0.3 * noise, eps

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           half_width=st.sampled_from([0.5, 1.0]),
           frac=st.floats(-1.0, 1.0))
    def test_two_stages_find_the_dense_scan_peak(self, seed, half_width,
                                                 frac):
        """The two-stage peak is the grid point a dense FINE_STEP scan of
        ml_cost_fast over eps_coarse +- half_width peaks at, for a noisy
        BEM loopback whose offset lies anywhere up to two coarse steps
        inside the window."""
        ws, r_p, eps = self._noisy_case(seed)
        coarse = eps - frac * (half_width - 2 * COARSE_STEP)
        est = fine_cfo(r_p, ws, eps_coarse=coarse, half_width=half_width)
        beta = beta_coefficients(r_p, ws.lam, ws.params)
        steps = round(half_width / FINE_STEP)
        dense = coarse + np.arange(-steps, steps + 1) * FINE_STEP
        costs = ml_cost_fast(r_p, ws.lam, ws.params, dense, beta=beta)
        assert abs(est.eps_fine - dense[int(np.argmax(costs))]) \
            < FINE_STEP / 2

    def test_grid_matches_per_point_costs(self):
        """Each traced cost equals ml_cost_fast at that point within 1e-12
        relative, and the matrix-form ml_cost within 1e-9."""
        for seed in range(6):
            ws, r_p, _ = self._noisy_case(seed)
            est = fine_cfo(r_p, ws, eps_coarse=0.05)
            beta = beta_coefficients(r_p, ws.lam, ws.params)
            for eps, cost in est.cost_trace[::7]:
                fast = ml_cost_fast(r_p, ws.lam, ws.params, eps, beta=beta)
                matrix = ml_cost(r_p, ws.lam, ws.params, ws.spec, eps)
                assert abs(cost - fast) <= 1e-12 * abs(fast)
                assert abs(cost - matrix) <= 1e-9 * abs(matrix)

    def test_same_estimate_and_count_as_scalar_loop(self):
        """Over 120 seeded noisy cases the vectorized search returns the
        scalar loop's eps_fine and counts the same multiplies."""
        for seed in range(120):
            ws, r_p, eps = self._noisy_case(seed)
            coarse = eps + (seed % 5 - 2) * 0.1
            ref_counter, counter = OpCounter(), OpCounter()
            expected = self._scalar_fine_cfo(r_p, ws, coarse, ref_counter)
            est = fine_cfo(r_p, ws, eps_coarse=coarse, counter=counter)
            assert est.eps_fine == expected, seed
            assert counter.multiplies == ref_counter.multiplies

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_grid_matches_exact_phasors(self, seed):
        """At N = 64 with the shipped sweeps' half width 1.0 and order
        Q = 7, every traced cost of both stages is within 1e-12 relative
        of ml_cost_fast's exact-exp phasors, and the counter still adds N
        multiplies per grid point on top of the beta reduction."""
        rng = np.random.default_rng(seed)
        n, length, q = 64, 3, 7
        params = OtfsParams(m=16, n=n, lcp=4)
        spec = PcpSpec(length=length, m_p=8)
        ws = build_workspace(params, spec, q)
        c = rng.standard_normal(length * q) + 1j * rng.standard_normal(
            length * q)
        eps = rng.uniform(-n / 2, n / 2)
        noise = rng.standard_normal(n * length) + 1j * rng.standard_normal(
            n * length)
        r_p = rotate(params, spec, eps, model_matrix(params, spec, q) @ c) \
            + 0.3 * noise
        counter = OpCounter()
        est = fine_cfo(r_p, ws, eps_coarse=eps + 0.3, half_width=1.0,
                       counter=counter)
        assert est.cost_trace.shape == (201 + 201, 2)
        beta = beta_coefficients(r_p, ws.lam, params)
        for point, cost in est.cost_trace:
            fast = ml_cost_fast(r_p, ws.lam, params, point, beta=beta)
            assert abs(cost - fast) <= 1e-12 * abs(fast)
        assert counter.multiplies == length * n * (n + 1) + n * (201 + 201)

    def test_phase_table_is_read_only(self):
        """Both cached arrays of a stage, its grid offsets and their
        phasor table, refuse writes."""
        offsets, table = _phase_table(64, 1e-2, 100)
        assert offsets.shape == (201,)
        assert table.shape == (201, 64)
        with pytest.raises(ValueError, match="read-only"):
            offsets[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_boundary_peak_warns(self, caplog):
        """A peak pinned to the search edge logs a warning."""
        ws, r_p = self._loopback(0.9, 0.0)
        with caplog.at_level("WARNING", logger="otfs_sync.cfo"):
            fine_cfo(r_p, ws, eps_coarse=0.0, half_width=0.5)
        assert any("boundary" in rec.message for rec in caplog.records)


class TestCramerRaoBound:
    """The fine CFO against its Cramer-Rao bound on a static link."""

    TRIALS = 300

    def test_fine_cfo_is_efficient_on_a_static_link(self):
        """On ``sweep_snr.cfg`` with a static single tap the Q = 1 model
        holds exactly, so the bound (``crb_cfo``) is exact.  At 10, 20 and
        30 dB the mean over trials of err^2 / (CRB + FINE_STEP^2 / 12), the
        last term the error of rounding to the fine grid, lies within three
        standard deviations of 1.  An efficient estimator's normalized
        error is about unit normal, so each ratio is about chi-square with
        one degree of freedom and their mean over T trials spreads by
        sqrt(2 / T).  theta = -1000 keeps clear of the timing misses at
        small residues theta mod M; 0 dB is left out, where one threshold
        outlier dominates the mean."""
        config = dataclasses.replace(
            load_config(CONFIG_DIR / "sweep_snr.cfg"), channel="single_tap",
            nu_max_t=0.0, theta=-1000, seed=11, trials=self.TRIALS)
        snrs = (10.0, 20.0, 30.0)
        ctx = build_point(config)
        points = [(dataclasses.replace(config, snr_db=snr), ctx)
                  for snr in snrs]
        params, spec = ctx.params, ctx.spec
        lam = np.kron(ctx.workspace.p, np.eye(spec.length))
        shift, length = config.theta + ctx.advance, 2 * params.n_t
        lo, hi = harness.stream_reach(shift, params.n_t, ctx.model.n_taps,
                                      length)
        ratios = np.empty((self.TRIALS, len(snrs)))
        for t, words in enumerate(harness._child_words(11, 0, self.TRIALS)):
            results = run_trial(points, words)
            # The trial's own frame and channel, received without CFO.
            stream = build_stream(build_frame(
                params, spec, harness._child_rng(words, 0)), params)
            real = realize_channel(ctx.model, params, hi - lo,
                                   harness._child_rng(words, 1), start=lo)
            s_tilde = extract_pilot(apply_impairments(
                stream, real, shift, 0.0, params, length=length), shift,
                params, spec)
            for i, (snr, result) in enumerate(zip(snrs, results)):
                assert result.failure is None
                err = fold_offset(result.eps_fine - result.eps_true,
                                  params.n)
                crb = crb_cfo(s_tilde, lam, params, spec,
                              10.0 ** (-snr / 10.0))
                ratios[t, i] = err ** 2 / (crb + FINE_STEP ** 2 / 12.0)
        means = ratios.mean(axis=0)
        assert np.all(np.abs(means - 1.0)
                      <= 3.0 * math.sqrt(2.0 / self.TRIALS)), means


class TestChannelEstimation:
    """Least-squares fit of the BEM tone set to known taps."""

    def test_fit_nmse_zero_for_basis_signals(self):
        """Trajectories drawn from the tone set fit with zero residual."""
        params = OtfsParams(m=16, n=8, lcp=4)
        spec = PcpSpec(length=3, m_p=8)
        rng = np.random.default_rng(8)
        coef = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        freqs = np.array([-1, 0, 1]) / (BEM_K * params.mn)
        tones = np.exp(2j * np.pi * np.arange(params.n_t)[:, None] * freqs)
        taps = coef @ tones.T
        basis = bem_basis(params, spec, k=BEM_K, q=3)
        assert bem_fit_nmse(taps, params, spec, basis) < 1e-20

    def test_fit_nmse_small_for_jakes(self):
        """The rule-selected tone set tracks a generated fading channel
        over the pilot region to well under one percent."""
        params = OtfsParams(m=64, n=16, lcp=16)
        spec = PcpSpec(length=8, m_p=32)
        basis = bem_basis(params, spec, k=4, q=bem_order(4, 1.0))
        model = single_tap_model(1.0)
        real = realize_channel(model, params, params.n_t, seed=3)
        assert bem_fit_nmse(real.taps, params, spec, basis) < 1e-2


class TestExtractPilot:
    """The pilot vector that the timing stage cuts from its slot rows."""

    def test_gathers_slot_major(self):
        """At every first pilot column c = Lcp + m_p - footprint in
        [0, L - 1], over random buffers, ``ToEstimate.pilot`` stacks slot
        0's rows first, then slot 1's, and so on: entry (l, a) is the
        sample at theta_hat + Lcp + l M + m_p + a, as the buffer gather
        ``extract_pilot`` takes it."""
        params = OtfsParams(m=16, n=4, lcp=5)
        spec = PcpSpec(length=3, m_p=8)
        rng = np.random.default_rng(4)
        for col in range(spec.length):
            buffer = rng.standard_normal(2 * params.n_t) \
                + 1j * rng.standard_normal(2 * params.n_t)
            to = estimate_to(buffer, params, spec, 5 + 8 - col)
            r_p = to.pilot.reshape(params.n, spec.length)
            for l in range(params.n):
                for a in range(spec.length):
                    assert r_p[l, a] == buffer[to.theta_hat + 5 + l * 16
                                               + 8 + a]
            assert_array_equal(to.pilot, extract_pilot(
                buffer, to.theta_hat, params, spec))
