import dataclasses
import math
import sys
import threading
import time
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from geoasian import (
    ConstantVol,
    FullModel,
    MarketState,
    McConfig,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    bs_fixed_call,
    bs_fixed_put,
    bs_floating_call,
    price_mc,
    reference_full_model,
    simulate_paths,
    stationary_effective_vol,
)
from geoasian import mc
from geoasian.closedform import q_drift_term
from geoasian.errors import NonFiniteInput, OutOfDomain
from geoasian.mc import (
    F_MAX,
    F_MIN,
    _lognormal_pair_call,
    _payoff_mean,
    _uniforms_for_chunk,
    f_full,
)
from perfbench.tracing import Stats, Tracer

MODEL = reference_full_model(0.001)
STATE = MarketState(t=0.0, x=100.0, g=100.0)
FLOAT_CALL = OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.CALL, maturity=0.45)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------------ config


def test_mc_config_validation():
    McConfig(n_paths=100, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=1, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=100, n_steps=1, seed=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=100, n_steps=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(n_paths=101, n_steps=10, seed=0, antithetic=True)
    # one antithetic pair has no standard error
    with pytest.raises(OutOfDomain, match="n_paths >= 4"):
        McConfig(n_paths=2, n_steps=10, seed=0, antithetic=True)
    McConfig(n_paths=2, n_steps=10, seed=0)
    McConfig(n_paths=4, n_steps=10, seed=0, antithetic=True)
    with pytest.raises(ValueError):
        McConfig(n_paths=100, n_steps=10, seed=0, chunk_size=0)
    McConfig(n_paths=np.int64(100), n_steps=np.int32(10), seed=np.uint64(3), chunk_size=7)


def test_mc_config_seed_fits_the_128_bit_philox_key():
    """A larger seed would fail only later, inside a pool worker."""
    McConfig(n_paths=100, n_steps=10, seed=2**128 - 1)
    with pytest.raises(ValueError, match=r"seed must be >= 0 and < 2\*\*128"):
        McConfig(n_paths=100, n_steps=10, seed=2**128)


@pytest.mark.parametrize("name, value", [
    ("n_paths", 100.0), ("n_paths", True), ("n_steps", 10.0), ("n_steps", "10"),
    ("seed", 1.5), ("seed", True), ("chunk_size", 2.5), ("chunk_size", True),
])
def test_mc_config_rejects_non_integer_counts(name, value):
    """A float seed would run the truncated seed's path set, and a float size
    would fail later, inside a worker thread."""
    kwargs = dict(n_paths=100, n_steps=10, seed=0)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        McConfig(**kwargs)


def test_vol_spec_validation():
    ConstantVol(0.0)
    with pytest.raises(ValueError):
        ConstantVol(-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, name", [(ConstantVol, "sigma")], ids=["sigma"])
def test_vol_spec_refuses_a_non_finite_field(make, name, value):
    with pytest.raises(NonFiniteInput, match=f"^{name} must be finite"):
        make(value)


def test_f_full_clamps():
    assert (F_MIN, F_MAX) == (0.01, 2.0)
    assert f_full(np.array([0.0]), np.array([0.15]))[0] == 0.15
    assert f_full(np.array([40.0]), np.array([0.15]))[0] == 2.0
    assert f_full(np.array([-40.0]), np.array([0.15]))[0] == 0.01


@pytest.mark.parametrize("z", [np.linspace(0.05, 1.5, 101), 0.1834])
def test_f_full_into_a_buffer_has_the_bits_of_the_plain_call(z):
    y = np.linspace(-3.0, 3.0, 101)  # z e^y crosses both clamp bounds
    buf = np.empty(101)
    got = f_full(y, z, out=buf)
    want = f_full(y, z)
    assert got is buf
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.min() == F_MIN and got.max() == F_MAX


def test_reference_model_and_stationary_vol():
    m = reference_full_model(0.01)
    assert m.epsilon == 0.01
    assert (m.k, m.r) == (2.0, 0.0264)
    assert m.beta == 0.0 and m.rho_xz == 0.0 and m.rho_yz == 0.0
    assert m.z0 != m.alpha_prime
    assert abs(m.z0 - m.alpha_prime) < 1e-3  # nearly level slow path
    assert rel(stationary_effective_vol(0.1834, 0.3), 0.2006715636315356) < 1e-14
    assert stationary_effective_vol(0.2, 0.0) == 0.2


def record_f_range(monkeypatch) -> list:
    """Wrap ``mc.f_full`` so that each call appends the (min, max) of the
    volatilities it returns to the list returned here."""
    f_range = []

    def recorded(y, z, out=None):
        f = f_full(y, z, out=out)
        f_range.append((f.min(), f.max()))
        return f

    monkeypatch.setattr(mc, "f_full", recorded)
    return f_range


@pytest.mark.parametrize("epsilon", [0.1, 0.001])
def test_the_clamp_never_binds_on_the_reference_model(monkeypatch, epsilon):
    """Criterion 11 and ``stationary_effective_vol`` treat the reference
    model's volatility as the unclamped z e^y: no f_j of its paths reaches
    F_MIN or F_MAX, at either epsilon of the direction check."""
    f_range = record_f_range(monkeypatch)
    cfg = McConfig(n_paths=4000, n_steps=200, seed=2024, antithetic=True)
    simulate_paths(reference_full_model(epsilon), FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    assert len(f_range) == cfg.n_steps  # one block: one call a step
    low, high = min(lo for lo, _ in f_range), max(hi for _, hi in f_range)
    assert F_MIN < low and high < F_MAX, (low, high)


# ----------------------------------------------------------- reproducibility


def assert_same_bits(a, b):
    """Two path batches hold the same bits in every array, and in the
    frozen pair's laws."""
    for name in ("ln_x", "ln_g", "moments", "noise_sums", "frozen_law"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if name == "frozen_law" and x is not None:
            x, y = (np.hstack([np.hstack(law) for law in laws]) for laws in (x, y))
        if x is not None:
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def test_chunk_layout_invariance(monkeypatch):
    """Path i owns a fixed Philox word block, so the terminal state, the
    conditional moments and the estimate are bit-identical no matter how the
    work is chunked or how many threads run the blocks."""
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)  # pool even these small chunks
    for vol in (FullModel(), ConstantVol(0.2)):
        kwargs = dict(model=MODEL, vol=vol, t=0.0, T=0.45, x0=100.0, g0=100.0)
        for anti in (False, True):
            cfgs = [
                McConfig(n_paths=500, n_steps=30, seed=42, antithetic=anti, chunk_size=size)
                for size in (None, 37, 500)
            ]
            runs = {}
            for workers in (None, 1, 3):  # None: one per CPU; 1: the serial run
                with monkeypatch.context() as patch:
                    if workers is not None:
                        patch.setattr(mc, "_worker_count", lambda: workers)
                    runs[workers] = (
                        [simulate_paths(cfg=cfg, **kwargs) for cfg in cfgs],
                        [price_mc(FLOAT_CALL, MODEL, vol, STATE, cfg) for cfg in cfgs],
                    )
            serial, serial_estimate = runs[1][0][0], runs[1][1][0]
            for batches, estimates in runs.values():
                for batch in batches:
                    assert_same_bits(serial, batch)
                assert all(est == serial_estimate for est in estimates)
            if isinstance(vol, FullModel):
                assert serial_estimate.price != serial_estimate.price_plain  # priced conditionally


def _stepped_full_model(model, t, T, x0, g0, cfg):
    """The full-model scheme stepped one step at a time, spot included, on
    draws of its own: three normals a step per path, correlated through the
    Cholesky factor in the order (x, y, z). Returns the terminal (ln X, ln G,
    Y, Z); it is the oracle the conditional route's law is checked against."""
    n_steps = cfg.n_steps
    n_words = 3 * n_steps
    words_per_path = 4 * ((n_words + 3) // 4)
    draw_paths = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    normals = ndtri(_uniforms_for_chunk(cfg.seed, 0, draw_paths, words_per_path))[:, :n_words]
    dt = (T - t) / n_steps
    sqrt_dt = math.sqrt(dt)
    r = model.r
    chol = np.linalg.cholesky(np.array([
        [1.0, model.rho_xy, model.rho_xz],
        [model.rho_xy, 1.0, model.rho_yz],
        [model.rho_xz, model.rho_yz, 1.0],
    ]))
    ey = math.exp(-dt / model.epsilon)
    sd_y = model.nu * math.sqrt(max(0.0, 1.0 - ey * ey))
    ez = math.exp(-model.k * dt)
    sd_z = model.beta * math.sqrt(max(0.0, (1.0 - ez * ez) / (2.0 * model.k)))
    m = cfg.n_paths
    lnx = np.full(m, math.log(x0))
    integral = np.zeros(m)
    y = np.zeros(m)
    z = np.full(m, model.z0)
    for j in range(n_steps):
        e = normals[:, 3 * j:3 * j + 3]
        if cfg.antithetic:
            e = np.concatenate([e, -e])
        f = f_full(y, z)
        d_lnx = (r - 0.5 * f * f) * dt + f * sqrt_dt * e[:, 0]
        integral += 0.5 * dt * (2.0 * lnx + d_lnx)
        lnx += d_lnx
        w_y = chol[1, 0] * e[:, 0] + chol[1, 1] * e[:, 1]
        w_z = chol[2, 0] * e[:, 0] + chol[2, 1] * e[:, 1] + chol[2, 2] * e[:, 2]
        y = y * ey + sd_y * w_y
        z = model.alpha_prime + (z - model.alpha_prime) * ez + sd_z * w_z
    return dict(ln_x=lnx, ln_g=(t * math.log(g0) + integral) / T, y=y, z=z)


def _stepped_vol_path(model, t, T, x0, g0, cfg):
    """The conditional route stepped one step at a time on the raw Philox
    words of each path's block (two terminal words, then a word a step for
    each noisy factor, y before z): Y_T and Z_T, the conditional moments from
    the plain weighted sums S0, S1, S2 of f_j^2 and the two sums of the known
    x noise, those two sums, the two sums of the known x noise at the frozen
    volatility fbar_j = clamp(zbar_j) of Z's noise-free path, the share a_x^2
    of the x noise the y and z draws leave open, and the terminal pair drawn
    from words 0 and 1."""
    n = cfg.n_steps
    noisy = [name for name, scale in (("y", model.nu), ("z", model.beta)) if scale != 0.0]
    n_words = 2 + len(noisy) * n
    draw_paths = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    words = _raw_normals(cfg.seed, draw_paths, 4 * ((n_words + 3) // 4), n_words)
    if cfg.antithetic:
        words = np.concatenate([words, -words])
    draws = {name: words[:, 2 + c::len(noisy)] for c, name in enumerate(noisy)}
    corr = np.array([
        [1.0, model.rho_yz, model.rho_xy],
        [model.rho_yz, 1.0, model.rho_xz],
        [model.rho_xy, model.rho_xz, 1.0],
    ])  # (y, z, x)
    keep = [("y", "z").index(name) for name in noisy] + [2]
    chol = np.linalg.cholesky(corr[np.ix_(keep, keep)])
    tau = T - t
    dt = tau / n
    sqrt_dt = math.sqrt(dt)
    ey = math.exp(-dt / model.epsilon)
    sd_y = model.nu * math.sqrt(max(0.0, 1.0 - ey * ey))
    ez = math.exp(-model.k * dt)
    sd_z = model.beta * math.sqrt(max(0.0, (1.0 - ez * ez) / (2.0 * model.k)))
    z_shift = model.alpha_prime * (1.0 - ez)
    m = cfg.n_paths
    u = np.zeros(m)  # y
    z = np.full(m, model.z0)
    zbar = model.z0
    # S0, S1, S2, sum f nx, sum w_j f nx, sum fbar nx, sum w_j fbar nx
    sums = np.zeros((7, m))
    for j in range(n):
        w = n - j - 0.5
        f = f_full(u, z)
        fbar = min(max(zbar, F_MIN), F_MAX)
        nx = sqrt_dt * sum(chol[-1, c] * draws[name][:, j] for c, name in enumerate(noisy))
        q, h, hbar = f * f, f * nx, fbar * nx
        sums += [q, w * q, w * w * q, h, w * h, hbar, w * hbar]
        zbar = zbar * ez + z_shift
        if "y" in draws:
            u = u * ey + draws["y"][:, j] * sd_y
        if "z" in draws:
            e_z = draws["z"][:, j] * (sd_z * chol[len(noisy) - 1, len(noisy) - 1])
            if "y" in draws:
                e_z = e_z + draws["y"][:, j] * (sd_z * chol[1, 0])
            z = z * ez + (e_z + z_shift)
        else:
            z = z * ez + z_shift
    s0, s1, s2, h0, h1, hbar0, hbar1 = sums
    a2 = chol[-1, -1] ** 2
    mean_x = math.log(x0) + model.r * tau - 0.5 * dt * s0 + h0
    mean_g = (t * math.log(g0) + tau * math.log(x0) + 0.5 * model.r * tau * tau
              + dt * (h1 - 0.5 * dt * s1)) / T
    var_x, cov, var_g = a2 * dt * s0, a2 * dt * dt * s1 / T, a2 * dt ** 3 * s2 / (T * T)
    g_on_x = cov / np.sqrt(var_x)
    return dict(
        ln_x=mean_x + np.sqrt(var_x) * words[:, 0],
        ln_g=mean_g + g_on_x * words[:, 0] + np.sqrt(var_g - g_on_x ** 2) * words[:, 1],
        y=u, z=z, moments=np.stack((mean_x, mean_g, var_x, var_g, cov)),
        noise_sums=np.stack((h0, h1)), frozen_sums=np.stack((hbar0, hbar1)), a2=a2,
    )


CORRELATED_MODEL = ModelParams(
    r=0.0264, k=2.0, alpha_prime=0.5, z0=0.3, epsilon=0.05,
    nu=0.1, beta=0.4, rho_xy=-0.1, rho_xz=0.1, rho_yz=0.05,
)
SLOW_ONLY_MODEL = ModelParams(
    r=0.0264, k=2.0, alpha_prime=0.5, z0=0.3, epsilon=0.05,
    nu=0.0, beta=0.4, rho_xy=-0.1, rho_xz=0.1, rho_yz=0.05,
)
# Y swings wide enough that f_j reaches both clamp bounds
CLAMPED_MODEL = dataclasses.replace(CORRELATED_MODEL, nu=1.5)


@pytest.mark.parametrize("n_steps", [2, 37])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("model", [MODEL, CORRELATED_MODEL, SLOW_ONLY_MODEL, CLAMPED_MODEL],
                         ids=["reference", "correlated", "slow-only", "clamped"])
def test_full_model_loop_has_the_bits_of_one_step_at_a_time(monkeypatch, model, antithetic, n_steps):
    """The tiled volatility loop reproduces Var ln X_T = a_x^2 dt S0 of the
    plain per-step loop bit for bit, so every f_j of the volatility path
    too, and its prefix sums give the other conditional moments and the
    terminal pair of the plain weighted sums to 1e-12, and the four x-noise
    sums, sum h and sum w_j h at f_j and at the frozen fbar_j (the latter two
    in the frozen pair's means), to 1e-12 of their largest value; the frozen
    pair's law is that of the OU mean path to 1e-12: with a noiseless and a
    noisy Y and Z, f_j clamped at both bounds, step counts on and off the
    tile, an uneven chunk and a pooled run."""
    kwargs = dict(model=model, t=0.05, T=0.45, x0=100.0, g0=98.0)
    want = _stepped_vol_path(
        cfg=McConfig(n_paths=300, n_steps=n_steps, seed=17, antithetic=antithetic), **kwargs
    )
    f_range = record_f_range(monkeypatch)
    runs = []
    monkeypatch.setattr(mc, "_worker_count", lambda: 1)
    for chunk_size in (None, 37):
        cfg = McConfig(n_paths=300, n_steps=n_steps, seed=17, antithetic=antithetic,
                       chunk_size=chunk_size)
        runs.append(simulate_paths(vol=FullModel(), cfg=cfg, **kwargs))
    monkeypatch.setattr(mc, "_worker_count", lambda: 3)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    runs.append(simulate_paths(vol=FullModel(), cfg=cfg, **kwargs))
    if model is CLAMPED_MODEL:
        assert (min(lo for lo, _ in f_range), max(hi for _, hi in f_range)) == (F_MIN, F_MAX)
    for batch in runs:
        var_x = batch.moments[2]
        assert np.array_equal(var_x.view(np.uint64), want["moments"][2].view(np.uint64))
        for name in ("ln_x", "ln_g", "moments"):
            got = getattr(batch, name)
            assert np.max(np.abs(got - want[name]) / np.abs(want[name])) < 1e-12, name
        # a sum of mean-zero terms can come near 0, so each row is compared
        # on its own scale
        for got, row in zip(batch.noise_sums, want["noise_sums"], strict=True):
            assert np.max(np.abs(got - row)) < 1e-12 * np.max(np.abs(row))
        given, law = batch.frozen_law
        hbar0, hbar1 = want["frozen_sums"]
        dt_over_T = (0.45 - 0.05) / n_steps / 0.45
        for got, mean, row in zip(given, law, (hbar0, dt_over_T * hbar1)):
            assert np.max(np.abs(got - (mean + row))) < 1e-12 * np.max(np.abs(row))
        frozen_law = _deterministic_vol_moments(model, 0.05, 0.45, 100.0, 98.0, n_steps)
        for got, closed in zip(law, frozen_law, strict=True):
            assert rel(got, closed) < 1e-12
        for spread, got in zip(given[2:], law[2:], strict=True):
            assert rel(spread, want["a2"] * got) < 1e-15
    assert (np.ptp(want["y"]) > 0.0) == (model.nu > 0.0)
    assert (np.ptp(want["z"]) > 0.0) == (model.beta > 0.0)


@pytest.mark.parametrize("chunk_size", [None, 100])
@pytest.mark.parametrize("vol, words_per_path", [(FullModel(), 32), (ConstantVol(0.2), 4)],
                         ids=["full", "constant"])
def test_blocks_in_flight_hold_at_most_one_chunk(monkeypatch, vol, words_per_path, chunk_size):
    """Each draw path's words are drawn exactly once, and the workers' draws
    together never exceed one chunk of words: a full-model path owns 2
    terminal words and 30 steps of one noisy factor, a constant-vol path a
    4-word block."""
    lock = threading.Lock()
    live, peak, drawn = [0], [0], [0]
    draws_per_path = np.zeros(600, dtype=int)

    def release(words):
        with lock:
            live[0] -= words

    def counted(seed, lo, n_chunk, words_per_path):
        uniforms = _uniforms_for_chunk(seed, lo, n_chunk, words_per_path)
        words = n_chunk * words_per_path
        with lock:
            live[0] += words
            peak[0] = max(peak[0], live[0])
            drawn[0] += words
            draws_per_path[lo:lo + n_chunk] += 1
        weakref.finalize(uniforms.base, release, words)  # the buffer's lifetime
        time.sleep(0.002)  # let the other workers start their blocks meanwhile
        return uniforms

    chunk = chunk_size or 50
    monkeypatch.setattr(mc, "WORD_BUDGET", 50 * words_per_path)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    monkeypatch.setattr(mc, "_uniforms_for_chunk", counted)
    monkeypatch.setattr(mc, "_worker_count", lambda: 3)
    cfg = McConfig(n_paths=1200, n_steps=30, seed=42, antithetic=True, chunk_size=chunk_size)
    simulate_paths(MODEL, vol, 0.0, 0.45, 100.0, 100.0, cfg)
    assert np.all(draws_per_path == 1)
    assert drawn[0] == 600 * words_per_path
    assert live[0] == 0
    block_words = chunk // 3 * words_per_path
    assert block_words < peak[0] <= chunk * words_per_path  # blocks overlapped, within one chunk


def _raw_normals(seed, n_rows, words_per_path, n_words):
    """ndtri of the first n_words raw Philox words of each row's block,
    uniforms formed from the raw words as u = (word >> 11) 2^-53 + 2^-54."""
    raw = np.random.Philox(key=seed).random_raw(n_rows * words_per_path)
    raw = raw.reshape(n_rows, words_per_path)[:, :n_words]
    return ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)


def _two_normal_terminal(z, n_steps, sigma, r, t, T, x0, g0, antithetic):
    """Terminal (ln X, ln G) of the n-step constant-vol path from the normals
    (z1, z2) of each row, drawn from the module docstring's law at a_x = 1,
    mu_j = (r - sigma^2/2) dt and the sums S0 = n sigma^2,
    S1 = n^2 sigma^2 / 2 and S2 = n (4n^2 - 1) sigma^2 / 12."""
    n, q = n_steps, sigma * sigma
    s0, s1, s2 = n * q, n * n * q / 2, n * (4 * n * n - 1) * q / 12
    tau = T - t
    dt = tau / n
    mean_x = math.log(x0) + r * tau - 0.5 * dt * s0
    mean_g = (t * math.log(g0) + tau * math.log(x0) + 0.5 * r * tau * tau
              - dt * (0.5 * dt * s1)) / T
    var_x, var_g, cov = dt * s0, dt * dt * dt / (T * T) * s2, dt * dt / T * s1
    sd_x = math.sqrt(var_x)
    g_on_x = cov / sd_x
    sd_g = math.sqrt(var_g - g_on_x * g_on_x)
    dev_x = z[:, 0] * sd_x
    dev_g = z[:, 0] * g_on_x + z[:, 1] * sd_g
    signs = (1.0, -1.0) if antithetic else (1.0,)
    return (np.concatenate([mean_x + sign * dev_x for sign in signs]),
            np.concatenate([mean_g + sign * dev_g for sign in signs]))


@pytest.mark.parametrize("budget_paths", [0.5, 4.5])
@pytest.mark.parametrize("chunk_size", [None, 37])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_steps", [2, 36, 37])
@pytest.mark.parametrize("antithetic", [False, True])
def test_constant_vol_tiles_have_the_bits_of_one_array(
    monkeypatch, antithetic, n_steps, workers, chunk_size, budget_paths
):
    """A constant-vol run drawn in chunks of 37 paths, of four paths, or of
    one path when a path has more words than the word budget, has the bits of
    the two-normal formula applied to the first two raw Philox words of each
    path's 4-word block, at any step count."""
    monkeypatch.setattr(mc, "WORD_BUDGET", int(budget_paths * 4))
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    monkeypatch.setattr(mc, "_worker_count", lambda: workers)
    cfg = McConfig(n_paths=300, n_steps=n_steps, seed=29, antithetic=antithetic,
                   chunk_size=chunk_size)
    batch = simulate_paths(MODEL, ConstantVol(0.21), 0.1, 0.45, 100.0, 97.0, cfg)
    draw_paths = cfg.n_paths // 2 if antithetic else cfg.n_paths
    z = _raw_normals(cfg.seed, draw_paths, 4, 2)
    want = _two_normal_terminal(z, n_steps, 0.21, MODEL.r, 0.1, 0.45, 100.0, 97.0, antithetic)
    for got, values in zip((batch.ln_x, batch.ln_g), want):
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
    assert np.ptp(batch.ln_x) > 0.5  # the draws moved the paths


@pytest.mark.parametrize("n", [2, 37, 200, 10 ** 6])
def test_constant_vol_sums_are_closed_forms_of_any_integer_step_count(n):
    """S1 and S2 of a constant sigma are the closed forms n^2/2 and
    n (4n^2 - 1)/12 of the weights w_j = n - j - 1/2 (times sigma^2), checked
    exactly on the integers 2 w_j, and a numpy step count, which would
    overflow in their n^3, gives the bits of a Python one."""
    k = 2 * n - 1 - 2 * np.arange(n, dtype=np.int64)
    assert (int(k.sum()), int((k * k).sum())) == (n * n, n * (4 * n * n - 1) // 3)
    kwargs = dict(model=MODEL, vol=ConstantVol(0.21), t=0.1, T=0.45, x0=100.0, g0=97.0)
    assert_same_bits(*(simulate_paths(cfg=McConfig(n_paths=300, n_steps=m, seed=29), **kwargs)
                       for m in (n, np.int32(n))))


@pytest.mark.parametrize("n_steps", [2, 37])
def test_constant_vol_law_is_that_of_the_stepped_scheme(n_steps):
    """Means and covariance of (ln X_T, ln G_T) drawn from two normals per path
    agree, within 4 standard errors of their difference, with the scheme
    stepped one step at a time on n independent normals per path."""
    sigma, t, T, x0, g0 = 0.21, 0.1, 0.45, 100.0, 97.0
    n_drawn, n_stepped = 400_000, 200_000
    batch = simulate_paths(MODEL, ConstantVol(sigma), t, T, x0, g0,
                           McConfig(n_paths=n_drawn, n_steps=n_steps, seed=51))
    e = _uniforms_for_chunk(52, 0, n_stepped, 4 * ((n_steps + 3) // 4))[:, :n_steps]
    ndtri(e, out=e)
    stepped = np.stack(_euler_trapezoid_oracle(e, sigma, MODEL.r, t, T, x0, g0))
    drawn = np.stack((batch.ln_x, batch.ln_g))
    cov = np.cov(stepped)
    for i in range(2):
        se = math.sqrt(cov[i, i] * (1.0 / n_drawn + 1.0 / n_stepped))
        assert abs(drawn[i].mean() - stepped[i].mean()) < 4.0 * se, i
    # Var of a Gaussian sample covariance: (s_ii s_jj + s_ij^2) / N
    diff = np.cov(drawn) - cov
    for i, j in ((0, 0), (0, 1), (1, 1)):
        se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) * (1.0 / n_drawn + 1.0 / n_stepped))
        assert abs(diff[i, j]) < 4.0 * se, (i, j, diff[i, j] / se)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_steps", [36, 37])
@pytest.mark.parametrize("model", [MODEL, CORRELATED_MODEL], ids=["reference", "correlated"])
def test_full_model_runs_turn_only_the_draws_they_read_into_normals(
    monkeypatch, model, n_steps, workers
):
    """ndtri sees the two terminal words and the y words of each draw path,
    and the z words only when beta > 0 makes Z noisy; the padding words (36
    steps of one factor: 38 words in a 40-word block) are never turned."""
    lock = threading.Lock()
    turned = [0]

    def counted(u, *args, **kwargs):
        with lock:
            turned[0] += np.size(u)
        return ndtri(u, *args, **kwargs)

    monkeypatch.setattr(mc, "ndtri", counted)
    monkeypatch.setattr(mc, "_worker_count", lambda: workers)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    cfg = McConfig(n_paths=600, n_steps=n_steps, seed=3, antithetic=True, chunk_size=100)
    simulate_paths(model, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    factors = 2 if model.beta > 0.0 else 1
    assert turned[0] == 300 * (2 + factors * n_steps)


@pytest.mark.parametrize("n_steps", [2, 36, 37, 10 ** 6])
def test_constant_vol_runs_turn_only_the_x_draws_into_normals(monkeypatch, n_steps):
    """Each draw path owns a 4-word block at any step count; ndtri sees its
    first two words, never the two padding words."""
    turned = []

    def counted(u, *args, **kwargs):
        turned.append(np.size(u))
        return ndtri(u, *args, **kwargs)

    monkeypatch.setattr(mc, "ndtri", counted)
    monkeypatch.setattr(mc, "_worker_count", lambda: 1)
    cfg = McConfig(n_paths=600, n_steps=n_steps, seed=3, antithetic=True, chunk_size=100)
    simulate_paths(MODEL, ConstantVol(0.21), 0.0, 0.45, 100.0, 100.0, cfg)
    assert sum(turned) == 300 * 2


def test_four_workers_with_fast_switching_match_the_serial_run(monkeypatch):
    """More workers than a 2-CPU host has, switching threads every microsecond."""
    kwargs = dict(model=MODEL, vol=FullModel(), t=0.0, T=0.45, x0=100.0, g0=100.0,
                  cfg=McConfig(n_paths=2000, n_steps=40, seed=5, antithetic=True, chunk_size=250))
    monkeypatch.setattr(mc, "_worker_count", lambda: 1)
    serial = simulate_paths(**kwargs)
    monkeypatch.setattr(mc, "_worker_count", lambda: 4)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    result = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.update(batch=simulate_paths(**kwargs)))
        runner.start()
        runner.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert_same_bits(serial, result["batch"])


def test_a_worker_error_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    class Broken(Exception):
        pass

    def broken(*args, **kwargs):
        raise Broken("f_full failed in a worker")

    threads = threading.active_count()
    monkeypatch.setattr(mc, "f_full", broken)
    monkeypatch.setattr(mc, "_worker_count", lambda: 2)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    cfg = McConfig(n_paths=400, n_steps=10, seed=0, chunk_size=50)
    with pytest.raises(Broken):
        simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    assert threading.active_count() == threads


def test_same_seed_same_estimate():
    cfg = McConfig(n_paths=2000, n_steps=20, seed=9)
    a = price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2), STATE, cfg)
    b = price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2), STATE, cfg)
    assert a == b
    c = price_mc(
        FLOAT_CALL, MODEL, ConstantVol(0.2), STATE,
        McConfig(n_paths=2000, n_steps=20, seed=10),
    )
    assert c.price != a.price


# 4000 paths x 50 steps of a floating call at sigma = 0.1834, seed 123: z = -1.01
# against the discrete scheme's exact mean, 3.19608
PIN_PRICE, PIN_SE = 3.1212756015166074, 0.07378894587990896


def test_frozen_estimates():
    """Regression pin on the Philox draw layout; any change to the stream
    contract shows up here first."""
    cfg = McConfig(n_paths=4000, n_steps=50, seed=123)
    est = price_mc(FLOAT_CALL, MODEL, ConstantVol(0.1834), STATE, cfg)
    assert rel(est.price, PIN_PRICE) < 1e-12
    assert rel(est.std_error, PIN_SE) < 1e-12
    assert (est.price, est.std_error) == (est.price_plain, est.std_error_plain)
    # the constant-vol pin, recomputed from the first two raw words of each
    # path's 4-word block
    z = _raw_normals(cfg.seed, cfg.n_paths, 4, 2)
    ln_x, ln_g = _two_normal_terminal(z, cfg.n_steps, 0.1834, MODEL.r, 0.0, 0.45,
                                      100.0, 100.0, False)
    payoff = np.maximum(np.exp(ln_x) - np.exp(ln_g), 0.0)
    disc = math.exp(-MODEL.r * 0.45)
    assert rel(est.price, disc * payoff.mean()) < 1e-12
    assert rel(est.std_error, disc * payoff.std(ddof=1) / math.sqrt(cfg.n_paths)) < 1e-12
    full = price_mc(FLOAT_CALL, MODEL, FullModel(), STATE, cfg)
    assert rel(full.price_plain, 3.511583043079909) < 1e-12
    assert rel(full.std_error_plain, 0.08108852302090228) < 1e-12
    assert rel(full.price, 3.4670563244542723) < 1e-12
    assert rel(full.std_error, 0.0027440806457917186) < 1e-12
    # the full-model pins, recomputed from the raw Philox words of each
    # path's 52-word block (2 terminal words, 50 y words) stepped one step at
    # a time, and the controlled estimate by least squares on an intercept,
    # E[X_T | vol], the two x-noise sums and the frozen-volatility control,
    # whose exact means are x0 e^{r T}, 0, 0 and the pair formula on the law
    # of the path with volatility clamp(zbar_j) on Z's OU mean path
    paths = _stepped_vol_path(MODEL, 0.0, 0.45, 100.0, 100.0, cfg)
    n = cfg.n_paths
    payoff = np.maximum(np.exp(paths["ln_x"]) - np.exp(paths["ln_g"]), 0.0)
    assert rel(full.price_plain, disc * payoff.mean()) < 1e-10
    assert rel(full.std_error_plain, disc * payoff.std(ddof=1) / math.sqrt(n)) < 1e-9

    def floating_call(mean_x, mean_g, var_x, var_g, cov):
        s = np.sqrt(var_x + var_g - 2.0 * cov)
        d1 = (mean_x - mean_g + 0.5 * (var_x - var_g)) / s + 0.5 * s
        return np.exp(mean_x + 0.5 * var_x) * ndtr(d1) - np.exp(mean_g + 0.5 * var_g) * ndtr(d1 - s)

    mean_x, mean_g, var_x, var_g, cov = paths["moments"]
    conditional = floating_call(mean_x, mean_g, var_x, var_g, cov)
    e_x = np.exp(mean_x + 0.5 * var_x)  # E[X_T | vol]
    h0, h1 = paths["noise_sums"]
    hbar0, hbar1 = paths["frozen_sums"]
    frozen_law = _deterministic_vol_moments(MODEL, 0.0, 0.45, 100.0, 100.0, cfg.n_steps)
    a2 = 1.0 - MODEL.rho_xy ** 2  # the share of the x noise the y draws leave open
    f_mean_x, f_mean_g, f_var_x, f_var_g, f_cov = frozen_law
    frozen = floating_call(f_mean_x + hbar0, f_mean_g + hbar1 / cfg.n_steps,  # dt/T = 1/n
                           a2 * f_var_x, a2 * f_var_g, a2 * f_cov)
    controls = np.column_stack([e_x, h0, h1, frozen])
    exact = np.array([100.0 * math.exp(MODEL.r * 0.45), 0.0, 0.0, floating_call(*frozen_law)])
    coef, ss_resid, rank, _ = np.linalg.lstsq(
        np.column_stack([np.ones(n), controls]), conditional, rcond=None
    )
    assert rank == 5
    price = disc * (conditional.mean() - coef[1:] @ (controls.mean(axis=0) - exact))
    se = disc * math.sqrt(ss_resid[0] / (n - 5)) / math.sqrt(n)
    assert rel(full.price, price) < 1e-10
    assert rel(full.std_error, se) < 1e-9


@pytest.mark.parametrize("seed", [0, 123, 2**40 + 7])
@pytest.mark.parametrize("lo", [0, 1, 37])
def test_normals_match_out_of_place_conversion(seed, lo):
    """A chunk's uniforms, turned into normals, have the bits of the raw-word expression."""
    n_chunk, words_per_path, n_words = 50, 32, 30
    got = ndtri(_uniforms_for_chunk(seed, lo, n_chunk, words_per_path))[:, :n_words]
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(lo * words_per_path // 4)
    raw = bitgen.random_raw(n_chunk * words_per_path)
    want = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
    want = want.reshape(n_chunk, words_per_path)[:, :n_words]
    assert got.shape == (n_chunk, n_words)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------- conditional pricing and control


def _control_law(state, T, sigma, r, n_steps):
    """Mean and covariance of (ln X_T, ln G_T) of the n-step constant-vol
    scheme in mpmath, built by running the scheme's recursion on the
    coefficients of each step's draw."""
    t = mp.mpf(state.t)
    dt = (mp.mpf(T) - t) / n_steps
    drift = (r - sigma ** 2 / 2) * dt
    lnx = [mp.log(state.x)] + [mp.mpf(0)] * n_steps  # constant, then per-draw
    integral = [mp.mpf(0)] * (n_steps + 1)
    for j in range(n_steps):
        step = [drift] + [mp.mpf(0)] * n_steps
        step[1 + j] = sigma * mp.sqrt(dt)
        integral = [i + dt / 2 * (2 * a + d) for i, a, d in zip(integral, lnx, step)]
        lnx = [a + d for a, d in zip(lnx, step)]
    lng = [i / T for i in integral]
    lng[0] += t * mp.log(state.g) / T
    var_x = mp.fsum(a * a for a in lnx[1:])
    var_g = mp.fsum(a * a for a in lng[1:])
    cov = mp.fsum(a * b for a, b in zip(lnx[1:], lng[1:]))
    return (lnx[0], lng[0]), mp.matrix([[var_x, cov], [cov, var_g]])


def _control_mean_quadrature(spec, state, sigma, r, n_steps):
    """E[payoff(X_T, G_T)] by Gaussian quadrature over the law above.

    Fixed strikes integrate ln G over the half-line where the payoff is
    positive. Floating strikes write ln G = m_g + g1 z1 and
    ln X = m_x + x1 z1 + x2 z2 and integrate z2 the same way for each z1,
    whose smooth outer integral takes 24-node Gauss-Hermite.
    """
    (m_x, m_g), cov = _control_law(state, spec.maturity, sigma, r, n_steps)
    phi = mp.npdf
    if spec.style is StrikeStyle.FIXED:
        sd = mp.sqrt(cov[1, 1])
        edge = (mp.log(spec.strike) - m_g) / sd
        value = lambda z: (mp.exp(m_g + sd * z) - spec.strike) * phi(z)
        if spec.kind is OptionKind.CALL:
            return mp.quad(value, [edge, mp.inf])
        return -mp.quad(value, [-mp.inf, edge])
    g1 = mp.sqrt(cov[1, 1])
    x1 = cov[0, 1] / g1
    x2 = mp.sqrt(cov[0, 0] - x1 * x1)
    sign = 1 if spec.kind is OptionKind.CALL else -1

    def inner(z1):  # E[payoff | z1]; X > G for z2 above the edge
        g = mp.exp(m_g + g1 * z1)
        edge = (m_g + g1 * z1 - m_x - x1 * z1) / x2
        value = lambda z2: (mp.exp(m_x + x1 * z1 + x2 * z2) - g) * phi(z2)
        return sign * mp.quad(value, [edge, mp.inf] if sign > 0 else [-mp.inf, edge])

    nodes, weights = np.polynomial.hermite_e.hermegauss(24)
    total = mp.fsum(mp.mpf(w) * inner(mp.mpf(z)) for z, w in zip(nodes, weights))
    return total / mp.sqrt(2 * mp.pi)


CONTROL_STATE = MarketState(t=0.1, x=100.0, g=97.0)
CONTROL_SPECS = [
    OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=0.45),
    OptionSpec(StrikeStyle.FLOATING, OptionKind.PUT, maturity=0.45),
    OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=0.45, strike=99.0),
    OptionSpec(StrikeStyle.FIXED, OptionKind.PUT, maturity=0.45, strike=99.0),
]


@pytest.mark.parametrize("n_steps", [2, 3, 7])
@pytest.mark.parametrize("spec", CONTROL_SPECS, ids=lambda s: f"{s.style.name}-{s.kind.name}")
def test_control_mean_matches_quadrature_at_coarse_steps(spec, n_steps):
    """The lognormal-pair formula fed the law of the discrete constant-vol
    scheme gives that scheme's exact payoff mean, not that of its limit."""
    with mp.workdps(15):
        want = _control_mean_quadrature(spec, CONTROL_STATE, 0.21, 0.0264, n_steps)
        (m_x, m_g), cov = _control_law(CONTROL_STATE, spec.maturity, 0.21, 0.0264, n_steps)
    moments = tuple(float(v) for v in (m_x, m_g, cov[0, 0], cov[1, 1], cov[0, 1]))
    got = float(_payoff_mean(spec, moments))
    assert rel(got, float(want)) < 1e-10


def test_pair_formula_without_spread_is_the_deterministic_difference():
    """Where Var(ln A - ln B) = 0 the mean is max(E[A] - E[B], 0), with no
    division warning: two constants, or two perfectly correlated logs of
    equal variance."""
    mean_a, mean_b = np.log([100.0, 95.0, 100.0]), np.log([97.0, 97.0, 100.0])
    with np.errstate(all="raise"):
        got = _lognormal_pair_call((mean_a, 0.0), (mean_b, 0.0), 0.0)
        tied = _lognormal_pair_call((mean_a, 0.04), (mean_b, 0.04), 0.04)
    assert np.array_equal(got, np.maximum(np.exp(mean_a) - np.exp(mean_b), 0.0))
    assert np.allclose(tied, np.maximum(np.exp(mean_a + 0.02) - np.exp(mean_b + 0.02), 0.0),
                       rtol=1e-15, atol=0.0)


def _constant_vol_moments(state, T, sigma, r, n_steps):
    """Means of ln X_T and ln G_T, their variances and their covariance for
    the n-step constant-vol scheme, in closed form."""
    t, tau = state.t, T - state.t
    dt = tau / n_steps
    var = sigma * sigma
    mu = r - 0.5 * var
    ln_x0 = math.log(state.x)
    return (
        ln_x0 + mu * tau,
        (t * math.log(state.g) + tau * ln_x0 + 0.5 * mu * tau * tau) / T,
        var * tau,
        var * dt ** 3 * n_steps * (4.0 * n_steps * n_steps - 1.0) / 12.0 / (T * T),
        var * tau * tau / (2.0 * T),
    )


def test_control_mean_converges_to_the_closed_forms():
    sigma, r, T = 0.21, 0.0264, 0.45
    state = CONTROL_STATE
    disc = math.exp(-r * (T - state.t))
    closed = {
        (StrikeStyle.FLOATING, OptionKind.CALL): bs_floating_call(state, sigma, T, r),
        (StrikeStyle.FIXED, OptionKind.CALL): bs_fixed_call(state, sigma, T, 99.0, r),
        (StrikeStyle.FIXED, OptionKind.PUT): bs_fixed_put(state, sigma, T, 99.0, r),
    }
    for (style, kind), want in closed.items():
        strike = None if style is StrikeStyle.FLOATING else 99.0
        spec = OptionSpec(style, kind, maturity=T, strike=strike)
        errors = [rel(disc * float(_payoff_mean(spec, _constant_vol_moments(state, T, sigma, r, n))),
                      want) for n in (30, 300)]
        assert errors[1] < 1e-5
        assert errors[1] < 0.02 * errors[0]  # the O(dt^2) gap of the time grid


@pytest.mark.parametrize("antithetic", [False, True])
def test_plain_fields_are_the_plain_estimate(antithetic):
    cfg = McConfig(n_paths=3000, n_steps=20, seed=8, antithetic=antithetic)
    est = price_mc(FLOAT_CALL, MODEL, FullModel(), STATE, cfg)
    batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    payoff = np.maximum(np.exp(batch.ln_x) - np.exp(batch.ln_g), 0.0)
    if antithetic:
        payoff = 0.5 * (payoff[:1500] + payoff[1500:])
    disc = math.exp(-MODEL.r * 0.45)
    assert est.price_plain == disc * float(payoff.mean())
    assert est.std_error_plain == disc * float(payoff.std(ddof=1)) / math.sqrt(payoff.size)


@pytest.mark.parametrize("spec", CONTROL_SPECS, ids=lambda s: f"{s.style.name}-{s.kind.name}")
def test_controlled_price_agrees_with_plain(spec):
    state = MarketState(t=0.1, x=100.0, g=97.0)
    cfg = McConfig(n_paths=8000, n_steps=40, seed=19, antithetic=True)
    est = price_mc(spec, MODEL, FullModel(), state, cfg)
    assert est.std_error < est.std_error_plain
    gap = abs(est.price - est.price_plain)
    assert gap <= 3.0 * math.hypot(est.std_error, est.std_error_plain), (spec, est)


def test_controls_shrink_the_error_at_the_benchmark_point():
    """25000 antithetic paths x 200 steps of an ATM floating call, eps = 0.001."""
    spec = OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=0.5)
    cfg = McConfig(n_paths=25_000, n_steps=200, seed=2024, antithetic=True)
    est = price_mc(spec, MODEL, FullModel(), STATE, cfg)
    assert est.std_error < est.std_error_plain
    assert est.std_error < 0.5 * est.std_error_plain


def test_constant_vol_runs_carry_no_control():
    cfg = McConfig(n_paths=400, n_steps=10, seed=4, antithetic=True)
    batch = simulate_paths(MODEL, ConstantVol(0.2), 0.0, 0.45, 100.0, 100.0, cfg)
    assert batch.moments is None
    est = price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2), STATE, cfg, paths=batch)
    assert (est.price, est.std_error) == (est.price_plain, est.std_error_plain)


def test_controlled_estimate_falls_back_to_the_conditional_mean():
    """Two pairs leave no residual degree of freedom for the controls, so
    the price is the uncontrolled mean of the conditional payoffs, which is
    unbiased too: c controls need 2 + c samples. A constant control has no
    slope to fit and is dropped; with none left there is no regression, and
    none either where a control's orthogonalized sum of squares is 0."""
    cfg = McConfig(n_paths=4, n_steps=10, seed=4, antithetic=True)
    few = price_mc(FLOAT_CALL, MODEL, FullModel(), STATE, cfg)
    batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    disc = math.exp(-MODEL.r * 0.45)
    conditional = mc.mean_and_se(_payoff_mean(FLOAT_CALL, batch.moments), True, disc)
    assert (few.price, few.std_error) == conditional
    assert few.price != few.price_plain
    rng = np.random.default_rng(3)
    values, controls = rng.normal(size=50), rng.normal(size=(3, 50))

    def plain(values, controls, antithetic=False):
        """Whether the estimate on ``controls`` is the plain one."""
        return (mc.mean_and_se(values, antithetic, 1.0, controls)
                == mc.mean_and_se(values, antithetic))

    for c in (1, 3):
        assert plain(values[:1 + c], [(v[:1 + c], 0.0) for v in controls[:c]])
        assert not plain(values[:2 + c], [(v[:2 + c], 0.0) for v in controls[:c]])
    constant = (np.full(50, 2.0), 0.0)
    assert plain(values, [constant])
    # a control left with a zero sum of squares, here twice the one before
    assert plain(values, [(controls[0], 0.0), (2.0 * controls[0], 0.0)])
    assert (mc.mean_and_se(values, False, 1.0, [constant, (controls[0], 0.0), constant])
            == mc.mean_and_se(values, False, 1.0, [(controls[0], 0.0)]))
    # one number whose mean sum/n rounds away from it is dropped all the
    # same, and so are antithetic pairs whose means are one number
    assert sum(np.full(3, 0.1)) / 3 != 0.1
    assert plain(values[:3], [(np.full(3, 0.1), 0.1)])
    values = rng.normal(size=1000)
    assert np.full(1000, 3.321410415757264).sum() / 1000 != 3.321410415757264
    assert plain(values, [(np.full(1000, 3.321410415757264), 0.0)])
    spread = np.arange(50) / 8.0  # 1 + s and 1 - s are exact, so each pair means 1
    mirrored = np.concatenate([1.0 + spread, 1.0 - spread])
    assert plain(np.resize(values, 100), [(mirrored, 1.0)], True)


@pytest.mark.parametrize("model", [MODEL, CORRELATED_MODEL], ids=["reference", "correlated"])
def test_zero_spot_correlations_leave_no_control(model):
    """With rho_xy = rho_xz = 0 no factor noise reaches x: E[X_T | vol] is
    x0 e^{r T} on every path (here to the bit), both x-noise sums are
    exactly 0 and the frozen control is one number, so no control is used,
    and price and SE are those of the conditional payoff means, bit for bit
    as numpy's mean and std write them."""
    model = dataclasses.replace(model, rho_xy=0.0, rho_xz=0.0)
    disc = math.exp(-model.r * 0.45)
    for antithetic in (False, True):
        cfg = McConfig(n_paths=2000, n_steps=20, seed=8, antithetic=antithetic)
        batch = simulate_paths(model, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
        assert not batch.noise_sums.any()
        assert np.ptp(np.exp(batch.moments[0] + 0.5 * batch.moments[2])) == 0.0
        assert np.ptp(_payoff_mean(FLOAT_CALL, batch.frozen_law[0])) == 0.0
        est = price_mc(FLOAT_CALL, model, FullModel(), STATE, cfg, paths=batch)
        conditional = _payoff_mean(FLOAT_CALL, batch.moments)
        assert (est.price, est.std_error) == _numpy_mean_and_se(conditional, antithetic, disc)


def test_the_noise_controls_keep_the_standard_error_honest():
    """Over 40 seeds of a small antithetic run, the spread of the
    four-control prices matches their mean reported SE, and their mean gaps
    to the one-control and three-control estimates of the same batches
    (without the x-noise sums and the frozen control, and without the frozen
    control alone) are within 4 standard errors of 0: the x-noise and
    frozen-volatility controls shrink the SE without bias or an understated
    error, for a floating call and a fixed put."""
    put = OptionSpec(StrikeStyle.FIXED, OptionKind.PUT, maturity=0.45, strike=100.0)
    specs = [FLOAT_CALL, put]
    disc, exact = math.exp(-MODEL.r * 0.45), 100.0 * math.exp(MODEL.r * 0.45)
    prices, ses = (np.empty((len(specs), 40)) for _ in range(2))
    gaps = np.empty((2, len(specs), 40))
    for seed in range(40):
        cfg = McConfig(n_paths=2000, n_steps=40, seed=seed, antithetic=True)
        batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
        controls = [(np.exp(batch.moments[0] + 0.5 * batch.moments[2]), exact),
                    *((noise, 0.0) for noise in batch.noise_sums)]
        for i, spec in enumerate(specs):
            est = price_mc(spec, MODEL, FullModel(), STATE, cfg, paths=batch)
            conditional = _payoff_mean(spec, batch.moments)
            prices[i, seed], ses[i, seed] = est.price, est.std_error
            for k, c in enumerate((1, 3)):
                fewer, _ = mc.mean_and_se(conditional, True, disc, controls[:c])
                gaps[k, i, seed] = est.price - fewer
    ratios = prices.std(axis=1, ddof=1) / ses.mean(axis=1)
    assert np.all((0.7 <= ratios) & (ratios <= 1.4)), ratios
    gap_se = gaps.std(axis=2, ddof=1) / math.sqrt(40)
    assert np.all(np.abs(gaps.mean(axis=2)) <= 4.0 * gap_se), (gaps.mean(axis=2), gap_se)


@pytest.mark.parametrize("spec", CONTROL_SPECS, ids=lambda s: f"{s.style.name}-{s.kind.name}")
def test_the_frozen_control_mean_is_the_price_without_factor_noise(spec):
    """The frozen control's exact mean, formed from the closed sums of
    fbar_j^2, is the price that price_mc gives, with SE 0, to the model with
    nu = beta = 0 and the same k, alpha', z0 and r, formed from the step
    loop's prefix sums: to 1e-12, for all four contracts."""
    state, T = CONTROL_STATE, spec.maturity
    cfg = McConfig(n_paths=600, n_steps=37, seed=2, antithetic=True)
    batch = simulate_paths(CORRELATED_MODEL, FullModel(), state.t, T, state.x, state.g, cfg)
    exact = float(_payoff_mean(spec, batch.frozen_law[1]))
    still = dataclasses.replace(CORRELATED_MODEL, nu=0.0, beta=0.0)
    est = price_mc(spec, still, FullModel(), state, cfg)
    assert est.std_error == 0.0
    assert rel(est.price, math.exp(-still.r * (T - state.t)) * exact) < 1e-12


@pytest.mark.parametrize("antithetic", [False, True])
def test_the_frozen_control_is_centred_on_its_exact_mean(antithetic):
    """Over 40 seeds, the frozen control's sample mean against its exact mean
    gives z-scores of mean within 0.5 of 0 and spread in [0.7, 1.3]: the
    exact mean is that of the simulated control, for a floating call."""
    z = np.empty(40)
    for seed in range(40):
        cfg = McConfig(n_paths=2000, n_steps=40, seed=seed, antithetic=antithetic)
        batch = simulate_paths(CORRELATED_MODEL, FullModel(), CONTROL_STATE.t, 0.45,
                               CONTROL_STATE.x, CONTROL_STATE.g, cfg)
        given, law = batch.frozen_law
        control, exact = (_payoff_mean(CONTROL_SPECS[0], moments) for moments in (given, law))
        mean, se = mc.mean_and_se(control, antithetic)
        z[seed] = (mean - exact) / se
    assert abs(z.mean()) <= 0.5 and 0.7 <= z.std(ddof=1) <= 1.3, (z.mean(), z.std(ddof=1))


@pytest.mark.parametrize("antithetic", [False, True])
def test_the_price_is_continuous_at_the_deterministic_limit(antithetic):
    """At nu = beta = 1e-9 with rho_xy = -0.5 the frozen control takes nearly
    all of the spread: the price is within 1e-8 of the nu = beta = 0 price,
    relative, with an SE of at most 1e-8 (the three other controls alone left
    SEs of 0.008 and 0.011 here, and the antithetic price 0.36% off)."""
    still = ModelParams(r=0.0264, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001,
                        rho_xy=-0.5)
    near = dataclasses.replace(still, nu=1e-9, beta=1e-9)
    cfg = McConfig(n_paths=2000, n_steps=40, seed=5, antithetic=antithetic)
    want = price_mc(FLOAT_CALL, still, FullModel(), STATE, cfg)
    est = price_mc(FLOAT_CALL, near, FullModel(), STATE, cfg)
    assert rel(est.price, want.price) < 1e-8
    assert est.std_error <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", [
    FLOAT_CALL, OptionSpec(StrikeStyle.FIXED, OptionKind.PUT, maturity=0.45, strike=1e300),
], ids=["floating-call", "fixed-put"])
def test_a_spot_of_1e300_prices_with_the_frozen_control(spec):
    """Every price scales with the spot, so at spot 1e300 (a run priced
    before the frozen control came in) the estimate is 1e300 times that at
    spot 1, up to rounding, with the frozen control kept and finite."""
    cfg = McConfig(n_paths=2000, n_steps=20, seed=3, antithetic=True)
    unit_spec = spec if spec.strike is None else dataclasses.replace(spec, strike=1.0)
    unit = price_mc(unit_spec, MODEL, FullModel(), MarketState(t=0.0, x=1.0, g=1.0), cfg)
    state = MarketState(t=0.0, x=1e300, g=1e300)
    est = price_mc(spec, MODEL, FullModel(), state, cfg)
    batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 1e300, 1e300, cfg)
    frozen, exact = (_payoff_mean(spec, moments) for moments in batch.frozen_law)
    assert math.isfinite(exact) and np.isfinite(frozen).all()
    assert rel(est.price, 1e300 * unit.price) < 1e-9
    assert rel(est.std_error, 1e300 * unit.std_error) < 1e-9


def test_a_frozen_control_past_the_float_range_is_dropped():
    """A frozen control that is not finite on every path, or whose exact mean
    is not finite (here a batch whose frozen law has ln X_T at 1e308), is
    left out, as a constant is: the estimate is that of the three other
    controls, where a kept inf would have made it NaN."""
    put = OptionSpec(StrikeStyle.FIXED, OptionKind.PUT, maturity=3.0, strike=1.5e308)
    state = MarketState(t=0.0, x=1.5e308, g=1.5e308)
    cfg = McConfig(n_paths=1000, n_steps=10, seed=1, antithetic=True)
    batch = simulate_paths(MODEL, FullModel(), 0.0, 3.0, state.x, state.g, cfg)
    disc = math.exp(-MODEL.r * 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        frozen, exact = (_payoff_mean(put, moments) for moments in batch.frozen_law)
        conditional = _payoff_mean(put, batch.moments)
        e_x = np.exp(batch.moments[0] + 0.5 * batch.moments[2])
    assert math.isfinite(exact) and not np.isfinite(frozen).all()
    controls = [(e_x, state.x * math.exp(MODEL.r * 3.0)),
                *((noise, 0.0) for noise in batch.noise_sums)]
    with np.errstate(over="ignore", invalid="ignore"):
        three = mc.mean_and_se(conditional, True, disc, controls)
    est = price_mc(put, MODEL, FullModel(), state, cfg, paths=batch)
    assert (est.price, est.std_error) == three and math.isfinite(est.price)
    # an exact mean past the float range drops a control finite on every path
    small = MarketState(t=0.0, x=100.0, g=100.0)
    batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    kept = price_mc(FLOAT_CALL, MODEL, FullModel(), small, cfg, paths=batch)
    given, law = batch.frozen_law
    batch = dataclasses.replace(batch, frozen_law=(given, (1e308, *law[1:])))
    with np.errstate(over="ignore"):
        assert _payoff_mean(FLOAT_CALL, batch.frozen_law[1]) == math.inf
    dropped = price_mc(FLOAT_CALL, MODEL, FullModel(), small, cfg, paths=batch)
    controls = [(np.exp(batch.moments[0] + 0.5 * batch.moments[2]), 100.0 * math.exp(MODEL.r * 0.45)),
                *((noise, 0.0) for noise in batch.noise_sums)]
    assert (dropped.price, dropped.std_error) == mc.mean_and_se(
        _payoff_mean(FLOAT_CALL, batch.moments), True, math.exp(-MODEL.r * 0.45), controls)
    assert kept.std_error < dropped.std_error


def test_no_control_is_used_where_no_factor_noise_reaches_x():
    """With rho_xy = rho_xz = 0, E[X_T | vol] is x0 e^{r T} in exact
    arithmetic but rounds here to two values a last bit apart; a slope fitted
    to that noise moved the price 12.6 SE (5.38350 against 5.14053, where
    200000 paths give 5.11802 +- 0.00091). Where the x-noise sums are all 0
    no control is used: price and SE are the uncontrolled conditional
    mean's, bit for bit."""
    model = dataclasses.replace(MODEL, rho_xy=0.0)
    spec = dataclasses.replace(FLOAT_CALL, maturity=1.0)
    cfg = McConfig(n_paths=500, n_steps=2, seed=1, antithetic=True)
    batch = simulate_paths(model, FullModel(), 0.0, 1.0, 100.0, 100.0, cfg)
    assert not batch.noise_sums.any()
    assert np.ptp(np.exp(batch.moments[0] + 0.5 * batch.moments[2])) > 0.0
    est = price_mc(spec, model, FullModel(), STATE, cfg, paths=batch)
    conditional = _payoff_mean(spec, batch.moments)
    assert (est.price, est.std_error) == _numpy_mean_and_se(conditional, True, math.exp(-model.r))


def test_a_full_model_price_factors_the_correlation_matrix_once(monkeypatch):
    """The run's constants are derived once, in simulate_paths: pricing a
    batch already simulated factors nothing."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    cfg = McConfig(n_paths=200, n_steps=10, seed=1, antithetic=True)
    price_mc(FLOAT_CALL, CORRELATED_MODEL, FullModel(), STATE, cfg)
    assert len(calls) == 1
    batch = simulate_paths(CORRELATED_MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    price_mc(FLOAT_CALL, CORRELATED_MODEL, FullModel(), STATE, cfg, paths=batch)
    assert len(calls) == 2


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("antithetic", [False, True])
def test_controlled_estimate_is_least_squares(antithetic, c):
    """The estimate and its standard error are those of least squares on an
    intercept and the c controls, with 1 + c degrees of freedom spent; an
    antithetic batch averages its pairs first. The three controls are
    correlated with one another, as E[X_T | vol] and the x-noise sums are."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(3, 60))
    controls = np.stack([base[0], base[0] + 0.3 * base[1], base[1] - 0.5 * base[2]])[:c]
    values = 1.0 + np.array([0.7, -0.4, 0.2])[:c] @ controls + rng.normal(size=60)
    exact = np.array([0.1, 0.0, -0.2])[:c]
    price, se = mc.mean_and_se(values, antithetic, 2.0, list(zip(controls, exact)))
    if antithetic:
        values = 0.5 * (values[:30] + values[30:])
        controls = 0.5 * (controls[:, :30] + controls[:, 30:])
    n = values.shape[0]
    design = np.column_stack([np.ones(n), *controls])
    coef, ss_resid, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    assert rank == 1 + c
    assert rel(price, 2.0 * (values.mean() - coef[1:] @ (controls.mean(axis=1) - exact))) < 1e-12
    assert rel(se, 2.0 * math.sqrt(ss_resid[0] / (n - 1 - c)) / math.sqrt(n)) < 1e-12


def _numpy_mean_and_se(values, antithetic, scale):
    """mean_and_se as numpy's mean and std(ddof=1) write it."""
    if antithetic:
        n = values.shape[0] // 2
        values = 0.5 * (values[:n] + values[n:])
    n = values.shape[0]
    return scale * float(values.mean()), scale * float(values.std(ddof=1)) / math.sqrt(n)


def _numpy_controlled_mean_and_se(values, control, exact, antithetic, scale):
    """mean_and_se on one control as numpy's mean, matmul and std(ddof=2) write it."""
    if antithetic:
        n = values.shape[0] // 2
        values = 0.5 * (values[:n] + values[n:])
        control = 0.5 * (control[:n] + control[n:])
    n = values.shape[0]
    mean_v, mean_c = values.mean(), control.mean()
    dv, dc = values - mean_v, control - mean_c
    b = (dc @ dv) / (dc @ dc)
    mean = float(mean_v - b * (mean_c - exact))
    return scale * mean, scale * float((dv - b * dc).std(ddof=2)) / math.sqrt(n)


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n", [6, 10, 130, 1002, 20_000, 100_002])
@pytest.mark.parametrize("antithetic", [False, True])
def test_estimators_keep_the_bits_of_numpy_and_their_inputs(antithetic, n):
    """The in-place mean and SE, plain and controlled by one control, have
    the bits of numpy's mean and std over new arrays, at sizes on and off
    the pairwise sum's blocks, and leave the caller's arrays bit-unchanged,
    with three controls too."""
    rng = np.random.default_rng(n)
    control = np.exp(0.2 * rng.normal(size=n))
    values = np.maximum(control - 1.0 + 0.1 * rng.normal(size=n), 0.0)
    others = rng.normal(size=(2, n))
    before = _bits(values, control, *others)
    assert mc.mean_and_se(values, antithetic, 0.97) == _numpy_mean_and_se(values, antithetic, 0.97)
    assert (mc.mean_and_se(values, antithetic, 0.97, [(control, 1.01)])
            == _numpy_controlled_mean_and_se(values, control, 1.01, antithetic, 0.97))
    controls = [(control, 1.01), *((other, 0.0) for other in others)]
    if n > 8:  # room for three controls
        assert (mc.mean_and_se(values, antithetic, 0.97, controls)
                != mc.mean_and_se(values, antithetic, 0.97))
    assert _bits(values, control, *others) == before


@pytest.mark.parametrize("spec", CONTROL_SPECS, ids=lambda s: f"{s.style.name}-{s.kind.name}")
def test_payoffs_keep_the_bits_of_new_arrays_and_their_inputs(spec):
    """Payoffs formed in place have the bits of the max over a new difference,
    and x and g are read only."""
    rng = np.random.default_rng(5)
    x, g = np.exp(rng.normal(4.6, 0.2, size=(2, 1001)))
    before = _bits(x, g)
    high, low = {
        (StrikeStyle.FLOATING, OptionKind.CALL): (x, g),
        (StrikeStyle.FLOATING, OptionKind.PUT): (g, x),
        (StrikeStyle.FIXED, OptionKind.CALL): (g, spec.strike),
        (StrikeStyle.FIXED, OptionKind.PUT): (spec.strike, g),
    }[spec.style, spec.kind]
    assert _bits(mc._payoffs(spec, x, g)) == _bits(np.maximum(high - low, 0.0))
    assert _bits(x, g) == before


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", [-1000, 1000])
@pytest.mark.parametrize("antithetic", [False, True])
def test_a_power_of_two_scales_the_estimates_exactly(antithetic, e):
    """Values scaled by 2^-1000 or 2^1000 give the estimates of the unscaled
    values scaled by the same power, bit for bit, where numpy's std loses its
    squares to underflow (SE 0) or to overflow (SE inf); each control of the
    controlled estimate takes a power of its own."""
    rng = np.random.default_rng(7)
    control, other = 1.0 + 0.2 * rng.normal(size=(2, 600))
    values = 2.0 * control - other + rng.normal(size=600)
    scaled = np.ldexp(values, e)
    controls = [(control, 1.02), (other, 0.98)]
    scaled_controls = [(np.ldexp(control, -e), math.ldexp(1.02, -e)),
                       (np.ldexp(other, e // 2), math.ldexp(0.98, e // 2))]

    def scaled_back(estimate):
        return tuple(float(np.ldexp(v, e)) for v in estimate)

    assert mc.mean_and_se(scaled, antithetic) == scaled_back(mc.mean_and_se(values, antithetic))
    for c in (1, 2):
        assert (mc.mean_and_se(scaled, antithetic, 1.0, scaled_controls[:c])
                == scaled_back(mc.mean_and_se(values, antithetic, 1.0, controls[:c])))
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        assert _numpy_mean_and_se(scaled, antithetic, 1.0)[1] in (0.0, math.inf)


def test_a_batch_exponentiates_each_path_array_once(monkeypatch):
    """X_T and G_T have the bits of np.exp of the batch's logs, are computed
    on first read, and serve every payoff priced on the batch."""
    model = ModelParams(r=0.0264, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    vol, T = ConstantVol(0.1834), 0.5
    cfg = McConfig(n_paths=3000, n_steps=20, seed=17, antithetic=True)
    batch = simulate_paths(model, vol, STATE.t, T, STATE.x, STATE.g, cfg)
    path_exps = []
    exp = np.exp

    def counted(a, *args, **kwargs):
        if getattr(a, "shape", None) == (cfg.n_paths,):
            path_exps.append(a)
        return exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    for spec in CONTROL_SPECS:
        price_mc(dataclasses.replace(spec, maturity=T), model, vol, STATE, cfg, paths=batch)
    x, g = batch.x, batch.g
    assert len(path_exps) == 2 and path_exps[0] is batch.ln_x and path_exps[1] is batch.ln_g
    assert _bits(x, g) == _bits(exp(batch.ln_x), exp(batch.ln_g))


def _deterministic_vol_moments(model, t, T, x0, g0, n_steps):
    """Means of ln X_T and ln G_T, their variances and their covariance on
    the time grid when nu = beta = 0: Y stays at 0, Z follows its OU mean
    z_j = alpha' + (z0 - alpha') e^{-k j dt} exactly, and f_j = clamp(z_j), so
    the n x draws, all of the x noise, enter ln X_T and the trapezoid integral
    linearly with weights 1 and dt (n - j - 1/2)."""
    tau = T - t
    dt = tau / n_steps
    f2 = [min(max(model.alpha_prime + (model.z0 - model.alpha_prime) * math.exp(-model.k * j * dt),
                  F_MIN), F_MAX) ** 2 for j in range(n_steps)]
    w = [n_steps - j - 0.5 for j in range(n_steps)]
    drift = [(model.r - 0.5 * q) * dt for q in f2]
    ln_x0 = math.log(x0)
    return (
        ln_x0 + math.fsum(drift),
        (t * math.log(g0) + tau * ln_x0 + dt * math.fsum(a * b for a, b in zip(w, drift))) / T,
        dt * math.fsum(f2),
        dt ** 3 * math.fsum(a * a * q for a, q in zip(w, f2)) / (T * T),
        dt * dt * math.fsum(a * q for a, q in zip(w, f2)) / T,
    )


DETERMINISTIC_VOL_RUNS = {  # test id suffix: (model, state, T, cfg)
    "": (
        ModelParams(r=0.0264, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001, rho_xy=-0.3),
        CONTROL_STATE, 0.45, McConfig(n_paths=600, n_steps=37, seed=2, antithetic=True),
    ),
    "-uncorrelated": (
        ModelParams(r=0.03, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001),
        STATE, 0.5, McConfig(n_paths=16, n_steps=100, seed=5),
    ),
}


@pytest.mark.parametrize("spec, run", [
    pytest.param(spec, run, id=f"{spec.style.name}-{spec.kind.name}{suffix}")
    for suffix, run in DETERMINISTIC_VOL_RUNS.items() for spec in CONTROL_SPECS
])
def test_deterministic_vol_prices_every_path_by_the_pair_formula(spec, run):
    """nu = beta = 0 pins Y at 0 and Z on its OU mean path, so every path
    has the moments of the time grid and one conditional payoff mean, that
    of the lognormal pair formula, to 1e-12; the control is then one number
    and the price is that mean, with no spread."""
    model, state, T, cfg = run
    vol, spec = FullModel(), dataclasses.replace(spec, maturity=T)
    batch = simulate_paths(model, vol, state.t, T, state.x, state.g, cfg)
    want = _deterministic_vol_moments(model, state.t, T, state.x, state.g, cfg.n_steps)
    for row, value in zip(batch.moments, want):
        assert np.max(np.abs(row - value)) <= 1e-12 * abs(value)
    est = price_mc(spec, model, vol, state, cfg, paths=batch)
    mean = math.exp(-model.r * (T - state.t)) * float(_payoff_mean(spec, want))
    assert rel(est.price, mean) < 1e-12
    assert est.std_error <= 1e-12 * mean
    assert np.ptp(batch.ln_x) > 0.05  # the terminal pairs are still drawn


@pytest.mark.parametrize("spec", [
    FLOAT_CALL, OptionSpec(StrikeStyle.FIXED, OptionKind.PUT, maturity=0.45, strike=100.0),
], ids=["floating-call", "fixed-put"])
def test_zero_slow_level_prices_with_a_constant_control(spec):
    """z0 = 0 with nu = beta = 0: the clamp binds at f_min on the first step
    and the slow factor's mean path sets the rest, the same on every path. The
    control E[X_T | vol] is then a constant, the regression cannot be formed,
    and the price is the conditional payoff mean of that path."""
    model = ModelParams(r=0.0264, k=2.0, alpha_prime=0.2, z0=0.0, epsilon=0.001,
                        nu=0.0, rho_xy=-0.3)
    vol = FullModel()
    est = price_mc(spec, model, vol, STATE, McConfig(n_paths=1000, n_steps=10, seed=1))
    moments = _deterministic_vol_moments(model, 0.0, 0.45, 100.0, 100.0, 10)
    mean = math.exp(-model.r * 0.45) * float(_payoff_mean(spec, moments))
    assert rel(est.price, mean) < 1e-12
    assert est.std_error <= 1e-12 * mean
    assert math.isfinite(est.price_plain) and est.price != est.price_plain


AGREEMENT_MODELS = [reference_full_model(0.1), reference_full_model(0.001), CORRELATED_MODEL]


@pytest.mark.parametrize("model", AGREEMENT_MODELS, ids=["eps-0.1", "eps-0.001", "correlated"])
def test_conditional_route_agrees_with_the_stepped_spot(model):
    """Each contract's conditional price agrees within 4 standard errors with
    the plain price over the scheme stepped spot and all, on draws of its own
    and at the same step count: floating and fixed calls and puts, eps 0.1
    and 0.001, and beta > 0 with nonzero rho_xz and rho_yz."""
    vol, state, T = FullModel(), CONTROL_STATE, 0.45
    cfg = McConfig(n_paths=20_000, n_steps=25, seed=61, antithetic=True)
    stepped = _stepped_full_model(model, state.t, T, state.x, state.g,
                                  McConfig(n_paths=20_000, n_steps=25, seed=62, antithetic=True))
    x, g = np.exp(stepped["ln_x"]), np.exp(stepped["ln_g"])
    disc = math.exp(-model.r * (T - state.t))
    batch = simulate_paths(model, vol, state.t, T, state.x, state.g, cfg)
    for spec in CONTROL_SPECS:
        est = price_mc(spec, model, vol, state, cfg, paths=batch)
        want, want_se = mc.mean_and_se(mc._payoffs(spec, x, g), True, disc)
        gap = abs(est.price - want)
        assert gap < 4.0 * math.hypot(est.std_error, want_se), (spec, est, want, want_se)
        assert est.std_error < want_se


def test_traced_mc_records_its_spans():
    """The benchmark's tracer replaces ``mc.simulate_paths`` and ``mc.f_full``
    with timing wrappers, so ``price_mc`` must reach the first, with its
    positional arguments, and the volatility loop the second, through the
    module's globals."""
    tracer = Tracer()
    cfg = McConfig(n_paths=400, n_steps=10, seed=1, antithetic=True)
    with tracer.install():
        price_mc(FLOAT_CALL, MODEL, FullModel(), STATE, cfg)
        price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2), STATE, cfg)
    stats = Stats(tracer.spans)
    assert stats.count.get("mc.simulate_paths.full") == 1
    assert stats.work["mc.simulate_paths.full"] == cfg.n_paths * cfg.n_steps
    assert stats.count.get("mc.simulate_paths.constant") == 1
    assert stats.count.get("mc.f_full") == cfg.n_steps  # one block: one call a step
    assert stats.nested("mc.f_full", "mc.simulate_paths.full") == cfg.n_steps


# ------------------------------------------------- constant-vol closed form


def _euler_trapezoid_oracle(e, sigma, r, t, T, x0, g0):
    """Terminal (ln X, ln G) of the constant-vol log-Euler/trapezoid scheme,
    stepped one step at a time on the normals ``e`` (one row per path, one
    column per step)."""
    n = e.shape[1]
    dt = (T - t) / n
    lnx = np.full(e.shape[0], math.log(x0))
    integral = np.zeros(e.shape[0])
    for j in range(n):
        d_lnx = (r - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * e[:, j]
        integral += 0.5 * dt * (2.0 * lnx + d_lnx)
        lnx += d_lnx
    return lnx, (t * math.log(g0) + integral) / T


def test_zero_vol_is_exactly_the_deterministic_path():
    cfg = McConfig(n_paths=8, n_steps=37, seed=1, antithetic=True)
    batch = simulate_paths(MODEL, ConstantVol(0.0), 0.1, 0.45, 100.0, 97.0, cfg)
    tau = 0.45 - 0.1
    want_x = math.log(100.0) + MODEL.r * tau
    want_g = (0.1 * math.log(97.0) + tau * math.log(100.0) + 0.5 * MODEL.r * tau * tau) / 0.45
    assert np.all(batch.ln_x == want_x)
    assert np.all(batch.ln_g == want_g)
    e = _raw_normals(cfg.seed, cfg.n_paths, 40, cfg.n_steps)  # sigma = 0 ignores them
    stepped_x, stepped_g = _euler_trapezoid_oracle(e, 0.0, MODEL.r, 0.1, 0.45, 100.0, 97.0)
    assert np.max(np.abs(stepped_x - want_x)) < 1e-13
    assert np.max(np.abs(stepped_g - want_g)) < 1e-13


# -------------------------------------------------------- shared path sets


@pytest.mark.parametrize("antithetic", [False, True])
def test_price_on_shared_batch_equals_standalone(antithetic):
    """Every payoff validate prices gives the same estimate on a batch it is
    handed as on the batch price_mc simulates itself."""
    model = ModelParams(r=0.0264, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    vol = ConstantVol(0.1834)
    T = 0.5
    cfg = McConfig(n_paths=3000, n_steps=20, seed=17, antithetic=antithetic)
    batch = simulate_paths(model, vol, STATE.t, T, STATE.x, STATE.g, cfg)
    specs = [
        OptionSpec(StrikeStyle.FLOATING, OptionKind.CALL, maturity=T),
        OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=T, strike=STATE.x),
        OptionSpec(StrikeStyle.FIXED, OptionKind.CALL, maturity=T, strike=1e-6 * STATE.x),
    ]
    for spec in specs:
        alone = price_mc(spec, model, vol, STATE, cfg)
        shared = price_mc(spec, model, vol, STATE, cfg, paths=batch)
        assert shared == alone


def test_price_rejects_a_batch_of_another_config():
    """A batch of another size, layout, step count, seed, model, start state
    or maturity, or whose moments do not match the vol spec, would be priced
    against the wrong means."""
    cfg = McConfig(n_paths=200, n_steps=10, seed=1, antithetic=True)
    const, full = ConstantVol(0.2), FullModel()
    batch = simulate_paths(MODEL, const, 0.0, 0.45, 100.0, 100.0, cfg)
    full_batch = simulate_paths(MODEL, full, 0.0, 0.45, 100.0, 100.0, cfg)
    long_batch = simulate_paths(MODEL, full, 0.0, 0.9, 100.0, 100.0, cfg)
    for paths, vol, other, model, state in (
        (batch, const, McConfig(n_paths=400, n_steps=10, seed=1, antithetic=True), MODEL, STATE),
        (batch, const, McConfig(n_paths=200, n_steps=10, seed=1, antithetic=False), MODEL, STATE),
        (batch, const, McConfig(n_paths=200, n_steps=50, seed=1, antithetic=True), MODEL, STATE),
        (full_batch, full, McConfig(n_paths=200, n_steps=50, seed=1, antithetic=True), MODEL, STATE),
        (batch, full, cfg, MODEL, STATE),
        (full_batch, const, cfg, MODEL, STATE),
        (long_batch, full, cfg, MODEL, STATE),  # simulated to T = 0.9, priced to 0.45
        (full_batch, full, cfg, MODEL, MarketState(t=0.0, x=101.0, g=100.0)),
        (full_batch, full, cfg, reference_full_model(0.1), STATE),
        (full_batch, full, McConfig(n_paths=200, n_steps=10, seed=2, antithetic=True), MODEL, STATE),
    ):
        with pytest.raises(ValueError, match="does not match cfg"):
            price_mc(FLOAT_CALL, model, vol, state, other, paths=paths)
    assert price_mc(FLOAT_CALL, MODEL, full, STATE, cfg, paths=full_batch) == price_mc(
        FLOAT_CALL, MODEL, full, STATE, cfg
    )
    # the chunk size never changes the paths, so it is not checked
    chunked = McConfig(n_paths=200, n_steps=10, seed=1, antithetic=True, chunk_size=30)
    assert price_mc(FLOAT_CALL, MODEL, full, STATE, chunked, paths=full_batch) == price_mc(
        FLOAT_CALL, MODEL, full, STATE, cfg
    )


# ------------------------------------------------------------- antithetic


def test_antithetic_pairs_mirror_the_drift():
    cfg = McConfig(n_paths=400, n_steps=25, seed=3, antithetic=True)
    batch = simulate_paths(MODEL, ConstantVol(0.22), 0.0, 0.45, 100.0, 100.0, cfg)
    sigma = 0.22
    drift = (MODEL.r - 0.5 * sigma * sigma) * 0.45
    pair_sum = batch.ln_x[:200] + batch.ln_x[200:]
    want = 2.0 * (math.log(100.0) + drift)
    assert np.max(np.abs(pair_sum - want)) < 1e-10


def test_antithetic_reduces_standard_error_here():
    plain = price_mc(
        FLOAT_CALL, MODEL, ConstantVol(0.1834), STATE,
        McConfig(n_paths=20000, n_steps=30, seed=77),
    )
    anti = price_mc(
        FLOAT_CALL, MODEL, ConstantVol(0.1834), STATE,
        McConfig(n_paths=20000, n_steps=30, seed=77, antithetic=True),
    )
    assert anti.std_error < plain.std_error
    assert rel(anti.price, plain.price) < 0.05


# ------------------------------------------------------- degenerate limits


def test_zero_vol_zero_rate_is_deterministic():
    model = ModelParams(r=0.0, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    batch = simulate_paths(
        model, ConstantVol(0.0), 0.1, 0.5, 100.0, 105.0,
        McConfig(n_paths=8, n_steps=64, seed=1),
    )
    assert np.allclose(np.exp(batch.ln_x), 100.0, rtol=1e-14, atol=0.0)
    want_ln_g = (0.1 * math.log(105.0) + 0.4 * math.log(100.0)) / 0.5
    assert np.allclose(batch.ln_g, want_ln_g, rtol=1e-13, atol=0.0)


def test_zero_vol_floating_price_is_zero():
    model = ModelParams(r=0.0, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    est = price_mc(
        FLOAT_CALL, model, ConstantVol(0.0), STATE,
        McConfig(n_paths=64, n_steps=16, seed=2),
    )
    assert abs(est.price) < 1e-10
    assert est.std_error < 1e-10


# -------------------------------------------------------------- moment checks


def test_discounted_spot_is_a_martingale():
    cfg = McConfig(n_paths=40000, n_steps=50, seed=21)
    batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    x = np.exp(batch.ln_x) * math.exp(-MODEL.r * 0.45)
    z = (x.mean() - 100.0) / (x.std(ddof=1) / math.sqrt(cfg.n_paths))
    assert abs(z) < 3.0, f"martingale z-score {z}"


def test_constant_vol_agrees_with_closed_form():
    sigma = 0.1834
    cfg = McConfig(n_paths=60000, n_steps=100, seed=31, antithetic=True)
    est = price_mc(FLOAT_CALL, MODEL, ConstantVol(sigma), STATE, cfg)
    closed = float(bs_floating_call(STATE, sigma, 0.45, MODEL.r))
    assert abs(est.price - closed) <= 3.0 * est.std_error, (
        f"mc {est.price} vs closed {closed} with se {est.std_error}"
    )
    put = OptionSpec(style=StrikeStyle.FIXED, kind=OptionKind.PUT, maturity=0.45,
                     strike=102.0)
    est_put = price_mc(put, MODEL, ConstantVol(sigma), STATE, cfg)
    closed_put = float(bs_fixed_put(STATE, sigma, 0.45, 102.0, MODEL.r))
    assert abs(est_put.price - closed_put) <= 3.0 * est_put.std_error


def test_discretization_error_halves_with_step_count():
    """Heaviest invariant in the module: 1e6 paths at 125/250/500 steps.

    The trapezoid bias is O(dt^2) and already below the 5e-3 standard error
    at these resolutions, so "halves" is read as halves within MC noise:
    |b(2n)| <= 0.5 |b(n)| + 3 (se_n + se_2n).
    """
    sigma = 0.1834
    spec = OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.CALL, maturity=0.5)
    closed = float(bs_floating_call(STATE, sigma, 0.5, MODEL.r))
    runs = {}
    for steps in (125, 250, 500):
        cfg = McConfig(n_paths=1_000_000, n_steps=steps, seed=880)
        est = price_mc(spec, MODEL, ConstantVol(sigma), STATE, cfg)
        runs[steps] = (abs(est.price - closed), est.std_error)
    for coarse, fine in ((125, 250), (250, 500)):
        b_c, se_c = runs[coarse]
        b_f, se_f = runs[fine]
        assert b_f <= 0.5 * b_c + 3.0 * (se_c + se_f), (
            f"bias {b_f} at {fine} steps vs {b_c} at {coarse} (se {se_c}, {se_f})"
        )


def test_tiny_strike_fixed_call_prices_the_average_forward():
    sigma = 0.1834
    cfg = McConfig(n_paths=40000, n_steps=60, seed=41, antithetic=True)
    spec = OptionSpec(style=StrikeStyle.FIXED, kind=OptionKind.CALL, maturity=0.45,
                      strike=1e-9)
    est = price_mc(spec, MODEL, ConstantVol(sigma), STATE, cfg)
    fwd_disc = math.exp(STATE.s - q_drift_term(sigma, 0.0, 0.45, MODEL.r))
    assert abs(est.price - fwd_disc) <= 3.0 * est.std_error


def test_floating_put_is_priced_by_the_oracle():
    spec = OptionSpec(style=StrikeStyle.FLOATING, kind=OptionKind.PUT, maturity=0.45)
    est = price_mc(
        spec, MODEL, ConstantVol(0.1834), STATE, McConfig(n_paths=4000, n_steps=30, seed=6)
    )
    assert est.price > 0.0


# ----------------------------------------------------------------- guards


@pytest.mark.parametrize("name", ["t", "T", "x0", "g0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_time_and_state_rejected_first(name, value):
    """A non-finite input is named before any other check runs."""
    kwargs = dict(t=0.0, T=0.45, x0=100.0, g0=100.0)
    kwargs[name] = value
    for vol in (FullModel(), ConstantVol(0.2)):
        with pytest.raises(NonFiniteInput, match="must be finite"):
            simulate_paths(MODEL, vol, cfg=McConfig(n_paths=8, n_steps=8, seed=0), **kwargs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("vol", [ConstantVol(0.2), FullModel()], ids=["constant", "full"])
@pytest.mark.parametrize("r, T", [(1e300, 0.45), (0.0264, 1e5)], ids=["r-1e300", "T-1e5"])
def test_an_estimate_past_the_float_range_raises_out_of_domain(vol, r, T):
    """A payoff mean or an E[X_T] that overflows a float is refused, and numpy
    warns of nothing; the payoffs used to warn and price NaN, and E[X_T]
    raised a bare OverflowError."""
    spec = dataclasses.replace(FLOAT_CALL, maturity=T)
    model = dataclasses.replace(MODEL, r=r)
    with pytest.raises(OutOfDomain):
        price_mc(spec, model, vol, STATE, McConfig(n_paths=1000, n_steps=10, seed=1,
                                                   antithetic=True))


def test_invalid_params_and_window_rejected():
    with pytest.raises(ValueError):
        simulate_paths(MODEL, ConstantVol(0.2), 0.5, 0.45, 100.0, 100.0,
                       McConfig(n_paths=8, n_steps=8, seed=0))
    # the window may not start before time 0, even when it ends before it
    for vol in (ConstantVol(0.2), FullModel()):
        for t, T in ((-0.1, 0.45), (-0.3, -0.1)):
            with pytest.raises(OutOfDomain, match="need 0 <= t < T"):
                simulate_paths(reference_full_model(0.01), vol, t, T, 100.0, 100.0,
                               McConfig(n_paths=100, n_steps=10, seed=1))
    with pytest.raises(ValueError):
        simulate_paths(MODEL, ConstantVol(0.2), 0.0, 0.45, -1.0, 100.0,
                       McConfig(n_paths=8, n_steps=8, seed=0))
    with pytest.raises(ValueError):
        price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2),
                 MarketState(t=0.45, x=100.0, g=100.0),
                 McConfig(n_paths=8, n_steps=8, seed=0))
