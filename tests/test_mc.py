import math
import sys
import threading
import time
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtri

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
from geoasian.errors import NonFiniteInput, PDFactorizationFailure
from geoasian.mc import (
    _control_mean,
    _controlled_mean_and_se,
    _normals_for_chunk,
    _uniforms_for_chunk,
    f_full,
)

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
    with pytest.raises(ValueError):
        FullModel(f_min=0.0)
    with pytest.raises(ValueError):
        FullModel(f_min=0.5, f_max=0.4)


def test_f_full_clamps():
    vol = FullModel()
    assert f_full(np.array([0.0]), np.array([0.15]), vol)[0] == 0.15
    assert f_full(np.array([40.0]), np.array([0.15]), vol)[0] == 2.0
    assert f_full(np.array([-40.0]), np.array([0.15]), vol)[0] == 0.01
    shifted = f_full(np.array([0.3]), np.array([0.15]), vol, alpha=0.3)
    assert shifted[0] == 0.15


@pytest.mark.parametrize("z", [np.linspace(0.05, 1.5, 101), 0.1834])
def test_f_full_into_a_buffer_has_the_bits_of_the_plain_call(z):
    vol = FullModel(f_min=0.05, f_max=0.9)
    y = np.linspace(-3.0, 3.0, 101)  # both clamp bounds bind
    buf = np.empty(101)
    got = f_full(y, z, vol, 0.2, out=buf)
    want = f_full(y, z, vol, 0.2)
    assert got is buf
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.min() == 0.05 and got.max() == 0.9


def test_reference_model_and_stationary_vol():
    m = reference_full_model(0.01)
    assert m.epsilon == 0.01
    assert (m.k, m.r) == (2.0, 0.0264)
    assert m.beta == 0.0 and m.rho_xz == 0.0 and m.rho_yz == 0.0
    assert m.z0 != m.alpha_prime
    assert abs(m.z0 - m.alpha_prime) < 1e-3  # nearly level slow path
    assert rel(stationary_effective_vol(0.1834, 0.3), 0.2006715636315356) < 1e-14
    assert stationary_effective_vol(0.2, 0.0) == 0.2


# ----------------------------------------------------------- reproducibility


def assert_same_bits(a, b):
    """Two path batches hold the same bits in every array."""
    for name in ("ln_x", "ln_g", "y", "z", "ln_x_cv", "ln_g_cv"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def test_chunk_layout_invariance(monkeypatch):
    """Path i owns a fixed Philox word block, so the terminal state, the
    control path and the controlled estimate are bit-identical no matter how
    the work is chunked or how many threads run the blocks."""
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
                assert serial_estimate.price != serial_estimate.price_plain  # the controls applied


def _stepped_full_model(model, vol, t, T, x0, g0, cfg):
    """The full-model scheme stepped one step at a time on all draws at once:
    the terminal (ln X, ln G, Y, Z) and the constant-vol control path."""
    n_steps = cfg.n_steps
    n_words = 3 * n_steps
    words_per_path = 4 * ((n_words + 3) // 4)
    draw_paths = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    normals = _normals_for_chunk(cfg.seed, 0, draw_paths, words_per_path, n_words)
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
    y = np.full(m, model.alpha)
    z = np.full(m, model.z0)
    for j in range(n_steps):
        e = normals[:, 3 * j:3 * j + 3]
        if cfg.antithetic:
            e = np.concatenate([e, -e])
        f = f_full(y, z, vol, model.alpha)
        d_lnx = (r - 0.5 * f * f) * dt + f * sqrt_dt * e[:, 0]
        integral += 0.5 * dt * (2.0 * lnx + d_lnx)
        lnx += d_lnx
        w_y = chol[1, 0] * e[:, 0] + chol[1, 1] * e[:, 1]
        w_z = chol[2, 0] * e[:, 0] + chol[2, 1] * e[:, 1] + chol[2, 2] * e[:, 2]
        y = model.alpha + (y - model.alpha) * ey + sd_y * w_y
        z = model.alpha_prime + (z - model.alpha_prime) * ez + sd_z * w_z
    tau = T - t
    sigma = stationary_effective_vol(model.z0, model.nu)
    mu = r - 0.5 * sigma * sigma
    cv_x_mean = math.log(x0) + mu * tau
    cv_g_mean = (t * math.log(g0) + tau * math.log(x0) + 0.5 * mu * tau * tau) / T
    weights = n_steps - 0.5 - np.arange(n_steps)
    dev_x, dev_g = mc._constant_vol_deviations(
        normals[:, 0:n_words:3], weights, sigma * sqrt_dt, sigma * sqrt_dt * dt / T
    )
    signs = (1.0, -1.0) if cfg.antithetic else (1.0,)
    ln_x_cv = np.concatenate([cv_x_mean + sign * dev_x for sign in signs])
    ln_g_cv = np.concatenate([cv_g_mean + sign * dev_g for sign in signs])
    return dict(ln_x=lnx, ln_g=(t * math.log(g0) + integral) / T, y=y, z=z,
                ln_x_cv=ln_x_cv, ln_g_cv=ln_g_cv)


CORRELATED_MODEL = ModelParams(
    r=0.0264, k=2.0, alpha_prime=0.5, z0=0.3, epsilon=0.05,
    nu=0.1, alpha=0.2, beta=0.4, rho_xy=-0.1, rho_xz=0.1, rho_yz=0.05,
)


@pytest.mark.parametrize("n_steps", [2, 37])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("model", [MODEL, CORRELATED_MODEL], ids=["reference", "correlated"])
def test_full_model_loop_has_the_bits_of_one_step_at_a_time(monkeypatch, model, antithetic, n_steps):
    """The tiled loop reproduces the plain per-step scheme bit for bit: with
    a noiseless and a noisy Z, step counts on and off the tile, an uneven
    chunk and a pooled run."""
    vol = FullModel(f_min=0.05, f_max=0.4)
    kwargs = dict(model=model, vol=vol, t=0.05, T=0.45, x0=100.0, g0=98.0)
    want = _stepped_full_model(
        cfg=McConfig(n_paths=300, n_steps=n_steps, seed=17, antithetic=antithetic), **kwargs
    )
    runs = []
    monkeypatch.setattr(mc, "_worker_count", lambda: 1)
    for chunk_size in (None, 37):
        cfg = McConfig(n_paths=300, n_steps=n_steps, seed=17, antithetic=antithetic,
                       chunk_size=chunk_size)
        runs.append(simulate_paths(cfg=cfg, **kwargs))
    monkeypatch.setattr(mc, "_worker_count", lambda: 3)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    runs.append(simulate_paths(cfg=cfg, **kwargs))
    for batch in runs:
        for name, values in want.items():
            got = getattr(batch, name)
            assert np.array_equal(got.view(np.uint64), values.view(np.uint64)), name
    assert np.ptp(want["y"]) > 0.0
    assert (np.ptp(want["z"]) > 0.0) == (model.beta > 0.0)


@pytest.mark.parametrize("chunk_size", [None, 100])
def test_blocks_in_flight_hold_at_most_one_chunk(monkeypatch, chunk_size):
    """The workers' draws together never exceed one chunk of words."""
    lock = threading.Lock()
    live, peak, drawn = [0], [0], [0]

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
        weakref.finalize(uniforms.base, release, words)  # the buffer's lifetime
        time.sleep(0.002)  # let the other workers start their blocks meanwhile
        return uniforms

    words_per_path = 92  # 30 steps x 3 factors, padded to a multiple of 4
    chunk = chunk_size or 50
    monkeypatch.setattr(mc, "WORD_BUDGET", 50 * words_per_path)
    monkeypatch.setattr(mc, "MIN_BLOCK_PATHS", 1)
    monkeypatch.setattr(mc, "_uniforms_for_chunk", counted)
    monkeypatch.setattr(mc, "_worker_count", lambda: 3)
    cfg = McConfig(n_paths=1200, n_steps=30, seed=42, antithetic=True, chunk_size=chunk_size)
    simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    assert drawn[0] == 600 * words_per_path
    assert live[0] == 0
    block_words = chunk // 3 * words_per_path
    assert block_words < peak[0] <= chunk * words_per_path  # blocks overlapped, within one chunk


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_steps", [36, 37])
@pytest.mark.parametrize("model", [MODEL, CORRELATED_MODEL], ids=["reference", "correlated"])
def test_full_model_runs_turn_only_the_draws_they_read_into_normals(
    monkeypatch, model, n_steps, workers
):
    """ndtri sees the x and y words of each draw path, and the z words only
    when beta > 0 makes Z noisy; the padding words (37 steps: 111 words in a
    112-word block) are never turned."""
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
    factors = 3 if model.beta > 0.0 else 2
    assert turned[0] == 300 * factors * n_steps


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


def test_frozen_estimates():
    """Regression pin on the Philox draw layout; any change to the stream
    contract shows up here first."""
    cfg = McConfig(n_paths=4000, n_steps=50, seed=123)
    est = price_mc(FLOAT_CALL, MODEL, ConstantVol(0.1834), STATE, cfg)
    assert rel(est.price, 3.094692397753649) < 1e-12
    assert rel(est.std_error, 0.07541756473216818) < 1e-12
    assert (est.price, est.std_error) == (est.price_plain, est.std_error_plain)
    full = price_mc(FLOAT_CALL, MODEL, FullModel(), STATE, cfg)
    assert rel(full.price_plain, 3.470332871882723) < 1e-12
    assert rel(full.std_error_plain, 0.08098057105114422) < 1e-12
    assert rel(full.price, 3.458582922688118) < 1e-12
    assert rel(full.std_error, 0.026049632351353373) < 1e-12
    # the controlled pin, recomputed by least squares from the path batch
    batch = simulate_paths(MODEL, FullModel(), 0.0, 0.45, 100.0, 100.0, cfg)
    x, g = np.exp(batch.ln_x), np.exp(batch.ln_g)
    payoff = np.maximum(x - g, 0.0)
    control = np.maximum(np.exp(batch.ln_x_cv) - np.exp(batch.ln_g_cv), 0.0)
    design = np.column_stack([np.ones_like(x), control, x])
    coef, ss_resid, rank, _ = np.linalg.lstsq(design, payoff, rcond=None)
    assert rank == 3
    sigma_c = stationary_effective_vol(MODEL.z0, MODEL.nu)
    exact = np.array([
        _control_mean(FLOAT_CALL, STATE, sigma_c, MODEL.r, cfg.n_steps),
        100.0 * math.exp(MODEL.r * 0.45),
    ])
    disc = math.exp(-MODEL.r * 0.45)
    n = cfg.n_paths
    price = disc * (payoff.mean() - coef[1:] @ (design[:, 1:].mean(axis=0) - exact))
    se = disc * math.sqrt(ss_resid[0] / (n - 3)) / math.sqrt(n)
    assert rel(full.price, price) < 1e-10
    assert rel(full.std_error, se) < 1e-9


@pytest.mark.parametrize("seed", [0, 123, 2**40 + 7])
@pytest.mark.parametrize("lo", [0, 1, 37])
def test_normals_match_out_of_place_conversion(seed, lo):
    """The in-place uniform conversion gives the bits of the plain expression."""
    n_chunk, words_per_path, n_words = 50, 32, 30
    got = _normals_for_chunk(seed, lo, n_chunk, words_per_path, n_words)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(lo * words_per_path // 4)
    raw = bitgen.random_raw(n_chunk * words_per_path)
    want = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
    want = want.reshape(n_chunk, words_per_path)[:, :n_words]
    assert got.shape == (n_chunk, n_words)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------------------- control variates


def _control_law(state, T, sigma, r, n_steps):
    """Mean and covariance of (ln X_c, ln G_c) in mpmath, built by running
    the scheme's recursion on the coefficients of each step's draw."""
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
    """E[payoff(X_c, G_c)] by Gaussian quadrature over the law above.

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
    """The exact mean is that of the discrete scheme, not of its limit."""
    with mp.workdps(15):
        want = _control_mean_quadrature(spec, CONTROL_STATE, 0.21, 0.0264, n_steps)
    got = _control_mean(spec, CONTROL_STATE, 0.21, 0.0264, n_steps)
    assert rel(got, float(want)) < 1e-10


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
        errors = [rel(disc * _control_mean(spec, state, sigma, r, n), want) for n in (30, 300)]
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
    assert batch.ln_x_cv is None and batch.ln_g_cv is None
    est = price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2), STATE, cfg, paths=batch)
    assert (est.price, est.std_error) == (est.price_plain, est.std_error_plain)


def test_controlled_estimate_falls_back_to_plain():
    """Three pairs leave no residual degree of freedom; a control that copies
    another makes the controls' covariance singular."""
    few = price_mc(FLOAT_CALL, MODEL, FullModel(), STATE,
                   McConfig(n_paths=6, n_steps=10, seed=4, antithetic=True))
    assert (few.price, few.std_error) == (few.price_plain, few.std_error_plain)
    rng = np.random.default_rng(3)
    values, control = rng.normal(size=50), rng.normal(size=50)
    exact = np.zeros(2)
    assert _controlled_mean_and_se(values, (control, control), exact, False, 1.0) is None
    assert _controlled_mean_and_se(values, (control, 2.0 * control), exact, False, 1.0) is None
    assert _controlled_mean_and_se(values, (control, values), exact, False, 1.0) is not None


# ------------------------------------------------- constant-vol closed form


def _euler_trapezoid_oracle(sigma, r, t, T, x0, g0, cfg):
    """Terminal (ln X, ln G) of the constant-vol log-Euler/trapezoid scheme,
    stepped one step at a time on the draws ``simulate_paths`` uses."""
    n = cfg.n_steps
    draw_paths = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    e = _normals_for_chunk(cfg.seed, 0, draw_paths, 4 * ((n + 3) // 4), n)
    if cfg.antithetic:
        e = np.concatenate([e, -e])
    dt = (T - t) / n
    lnx = np.full(e.shape[0], math.log(x0))
    integral = np.zeros(e.shape[0])
    for j in range(n):
        d_lnx = (r - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * e[:, j]
        integral += 0.5 * dt * (2.0 * lnx + d_lnx)
        lnx += d_lnx
    return lnx, (t * math.log(g0) + integral) / T


@pytest.mark.parametrize("antithetic", [False, True])
def test_constant_vol_closed_form_matches_the_step_loop(antithetic):
    """37 steps pad each path's word block to 40 words; 300-path chunks put
    several blocks, the last one short, behind the result."""
    cfg = McConfig(n_paths=2000, n_steps=37, seed=11, antithetic=antithetic, chunk_size=300)
    batch = simulate_paths(MODEL, ConstantVol(0.21), 0.1, 0.45, 100.0, 97.0, cfg)
    want_x, want_g = _euler_trapezoid_oracle(0.21, MODEL.r, 0.1, 0.45, 100.0, 97.0, cfg)
    assert np.max(np.abs(batch.ln_x - want_x) / np.abs(want_x)) < 1e-12
    assert np.max(np.abs(batch.ln_g - want_g) / np.abs(want_g)) < 1e-12
    assert np.ptp(batch.ln_x) > 0.5  # the draws moved the paths


def test_zero_vol_is_exactly_the_deterministic_path():
    cfg = McConfig(n_paths=8, n_steps=37, seed=1, antithetic=True)
    batch = simulate_paths(MODEL, ConstantVol(0.0), 0.1, 0.45, 100.0, 97.0, cfg)
    tau = 0.45 - 0.1
    want_x = math.log(100.0) + MODEL.r * tau
    want_g = (0.1 * math.log(97.0) + tau * math.log(100.0) + 0.5 * MODEL.r * tau * tau) / 0.45
    assert np.all(batch.ln_x == want_x)
    assert np.all(batch.ln_g == want_g)
    stepped_x, stepped_g = _euler_trapezoid_oracle(0.0, MODEL.r, 0.1, 0.45, 100.0, 97.0, cfg)
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
    or maturity, or whose control path does not match the vol spec, would be
    priced against the wrong means."""
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
    assert batch.y is None and batch.z is None


def test_zero_vol_floating_price_is_zero():
    model = ModelParams(r=0.0, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001)
    est = price_mc(
        FLOAT_CALL, model, ConstantVol(0.0), STATE,
        McConfig(n_paths=64, n_steps=16, seed=2),
    )
    assert abs(est.price) < 1e-10
    assert est.std_error < 1e-10


def test_noiseless_factors_follow_their_means():
    """nu = beta = 0 pins Y at alpha and Z on the OU mean path exactly."""
    model = ModelParams(
        r=0.03, k=2.0, alpha_prime=0.20, z0=0.1834, epsilon=0.001, nu=0.0, beta=0.0
    )
    batch = simulate_paths(
        model, FullModel(), 0.0, 0.5, 100.0, 100.0,
        McConfig(n_paths=16, n_steps=100, seed=5),
    )
    assert np.all(batch.y == model.alpha)
    want_z = 0.20 + (0.1834 - 0.20) * math.exp(-2.0 * 0.5)
    assert np.allclose(batch.z, want_z, rtol=1e-12, atol=0.0)


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


def test_pd_failure_raised_for_bad_correlations():
    bad = ModelParams(
        r=0.03, k=2.0, alpha_prime=0.2, z0=0.1834, epsilon=0.001,
        nu=0.3, rho_xy=0.9, rho_xz=-0.9, rho_yz=0.9,
    )
    with pytest.raises(PDFactorizationFailure):
        simulate_paths(bad, FullModel(), 0.0, 0.45, 100.0, 100.0,
                       McConfig(n_paths=8, n_steps=8, seed=0))


@pytest.mark.parametrize("name", ["t", "T", "x0", "g0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_time_and_state_rejected_first(name, value):
    """A non-finite input is named before any other check runs, even on a
    model that the other checks refuse."""
    degenerate = ModelParams(r=0.03, k=2.0, alpha_prime=0.2, z0=0.2, epsilon=0.001)
    kwargs = dict(t=0.0, T=0.45, x0=100.0, g0=100.0)
    kwargs[name] = value
    for model in (MODEL, degenerate):
        for vol in (FullModel(), ConstantVol(0.2)):
            with pytest.raises(NonFiniteInput, match="must be finite"):
                simulate_paths(model, vol, cfg=McConfig(n_paths=8, n_steps=8, seed=0), **kwargs)


def test_invalid_params_and_window_rejected():
    degenerate = ModelParams(r=0.03, k=2.0, alpha_prime=0.2, z0=0.2, epsilon=0.001)
    with pytest.raises(ValueError):
        simulate_paths(degenerate, ConstantVol(0.2), 0.0, 0.45, 100.0, 100.0,
                       McConfig(n_paths=8, n_steps=8, seed=0))
    with pytest.raises(ValueError):
        simulate_paths(MODEL, ConstantVol(0.2), 0.5, 0.45, 100.0, 100.0,
                       McConfig(n_paths=8, n_steps=8, seed=0))
    with pytest.raises(ValueError):
        simulate_paths(MODEL, ConstantVol(0.2), 0.0, 0.45, -1.0, 100.0,
                       McConfig(n_paths=8, n_steps=8, seed=0))
    with pytest.raises(ValueError):
        price_mc(FLOAT_CALL, MODEL, ConstantVol(0.2),
                 MarketState(t=0.45, x=100.0, g=100.0),
                 McConfig(n_paths=8, n_steps=8, seed=0))
