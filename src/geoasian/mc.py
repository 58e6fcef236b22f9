"""Monte Carlo oracle over the full two-factor SDE system.

State per path is (ln X, Y, Z) stepped over [t, T]:

    d ln X = (r - f^2/2) dt + f dW^x,      f = f(Y, Z)
    dY     = (1/eps)(alpha - Y) dt + (nu sqrt(2)/sqrt(eps)) dW^y
    dZ     = k (alpha' - Z) dt + beta dW^z

ln X uses an Euler step (exact per step under constant volatility); Y and Z
use exact OU transitions, since eps down at 1e-3 makes Euler on Y stiff. The
per-step Gaussian triple is correlated through the Cholesky factor of the
correlation matrix, which couples the exact OU integrals to the X increment
only to O(dt). The geometric average accumulates trapezoidally on ln X and
continues the running average through ln G_T = (t ln g + int_t^T ln X)/T.
Only full-model runs step this scheme; under constant volatility its terminal
state is a closed form over the draws (below), with no step loop.

The step loop walks each block's steps in tiles of ``STEP_TILE``. Per tile it
copies the draws of each factor it reads into a step-major buffer, turns the
y and z uniforms into normals there with ``ndtri`` (the x words are normals
already, in place in the block's row-major array, where the control path sums
them), negates the copy into the mirror half of an antithetic run, and forms
the Y and Z noise terms of the whole tile, so every step reads contiguous rows
and updates its state in place. The operations and their order are those of
one step at a time, so the bits are too. When sd_z = 0 (beta = 0, as in
``reference_full_model``) Z is deterministic: the noise term is a signed zero,
so Z stays one number, and its words are neither copied nor turned into
normals.

Reproducibility contract: draws come from a counter-based Philox stream keyed
by the seed, with path i owning the fixed word block [i L, (i+1) L) (L padded
to a multiple of 4 words, the Philox counter granularity). The path set is
therefore bit-identical for any chunk layout and for any thread count;
antithetic runs give pair p the block of p and mirror it.

Threads: ``simulate_paths`` cuts the draw paths into equal blocks and runs them
on a thread pool (numpy's ufuncs, reductions and ``ndtri`` release the GIL),
one block per worker at a time. A block holds the words of its draw paths in
one array, uniforms turned into normals where they are read, so the blocks in
flight hold at most one chunk of words.
The pool has one worker per CPU the process may run on (its CPU affinity),
fewer when a chunk has under ``MIN_BLOCK_PATHS`` draw paths per worker, and has
no setting; a run with one worker runs its blocks inline. Each block writes
only its own slice of the output, so the order in which blocks finish cannot
change the result.

The constant-vol path. At a constant sigma the scheme sums in closed form:
with S = sum_j e_j and W = sum_j (n - j - 1/2) e_j over the n x draws,

    ln X_T = ln x0 + (r - sigma^2/2) tau + sigma sqrt(dt) S,
    int    = tau ln x0 + (r - sigma^2/2) tau^2/2 + sigma sqrt(dt) dt W,

so each block reduces its x draws to two per-row sums and no step runs. One
helper computes this terminal state for both of its users: a ``ConstantVol``
run at sigma = vol.sigma, and the control path of a full-model run at
sigma_c = stationary_effective_vol(z0, nu). An antithetic mirror takes the
mean minus the deviation.

Control variates, full-model runs only. The first control is the payoff of
that constant-vol path, driven by the same W^x draws as the full-model path.
(ln X_c, int) is exactly Gaussian with Var ln X_c = sigma_c^2 tau,
Var int = sigma_c^2 dt^3 sum_j (n - j - 1/2)^2 and covariance sigma_c^2 tau^2/2,
and the mean of each payoff of (X_c, G_c) has one lognormal-pair closed form
for the discrete scheme itself. The second control is the full-model X_T: f_j
depends only on draws before step j, so the log-Euler step keeps
E[X_T] = x0 e^{r (T - t)} exactly. Both control means are therefore exact, and
``price_mc`` regresses the payoff on the two controls with no bias from the
time grid. Constant-vol runs carry no control: their closed forms are what
the oracle checks them against.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import NonFiniteInput, PDFactorizationFailure
from .model import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
    validate_params,
)

WORD_BUDGET = 1 << 23  # max random words in flight, summed over the workers
# fewest draw paths per worker in a chunk. Two workers against one on
# antithetic full-model runs (2 CPUs): 2000-path blocks ran 0.9-1.1x as fast at
# 50 steps and 1.5x at 200, 4000-path blocks 1.0-1.7x and 1.5-1.7x, 8000-path
# blocks 1.75-1.8x at both; a short block's numpy calls are too brief for a
# second thread to pay at every step count
MIN_BLOCK_PATHS = 2048
# steps whose draws the full-model loop copies step-major at once: about 1 MB
# of scratch per worker at 6250 path elements
STEP_TILE = 4


@dataclass(frozen=True)
class McConfig:
    """Size, seed and layout of one Monte Carlo run.

    ``chunk_size`` bounds the draw paths in flight across all workers (each
    block holds its paths' random words in one array, as uniforms or normals);
    by default a chunk holds at most ``WORD_BUDGET`` random words. It changes
    memory and speed, never the result.
    Beyond its share of the chunk, each worker of a full-model run holds a
    step-major tile buffer of ``STEP_TILE`` steps (about 1 MB at 6250 path
    elements).
    """

    n_paths: int
    n_steps: int
    seed: int
    antithetic: bool = False
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        counts = {"n_paths": self.n_paths, "n_steps": self.n_steps, "seed": self.seed}
        if self.chunk_size is not None:
            counts["chunk_size"] = self.chunk_size
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not 0 <= self.seed < 2**128:  # the Philox key is 128 bits
            raise ValueError(f"seed must be >= 0 and < 2**128, got {self.seed}")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic runs need an even n_paths")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass(frozen=True)
class ConstantVol:
    """Constant volatility; sigma = 0 is allowed as the deterministic limit."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class FullModel:
    """Volatility f = clamp(z exp(y - alpha)) driven by the simulated factors."""

    f_min: float = 0.01
    f_max: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.f_min < self.f_max:
            raise ValueError(
                f"need 0 < f_min < f_max, got ({self.f_min}, {self.f_max})"
            )


VolSpec = ConstantVol | FullModel


def _source(model: ModelParams, vol: VolSpec, t, T, x0, g0, cfg: McConfig) -> dict:
    """What fixes a batch's paths: every argument of simulate_paths but
    ``cfg.chunk_size``, which never changes them."""
    return dict(model=model, vol=vol, t=t, T=T, x0=x0, g0=g0, n_paths=cfg.n_paths,
                n_steps=cfg.n_steps, seed=cfg.seed, antithetic=cfg.antithetic)


@dataclass(frozen=True)
class PathBatch:
    """Terminal per-path state; arrays are indexed by global path id.

    ln_x_cv and ln_g_cv are the terminal state of the constant-vol control
    path of a full-model run (None under ``ConstantVol``). ``source`` holds
    the arguments the paths were simulated from.
    """

    ln_x: np.ndarray
    ln_g: np.ndarray
    y: np.ndarray | None
    z: np.ndarray | None
    source: dict
    ln_x_cv: np.ndarray | None
    ln_g_cv: np.ndarray | None


@dataclass(frozen=True)
class McEstimate:
    """Discounted price and standard error; ``price_plain`` and
    ``std_error_plain`` are the plain Monte Carlo mean and its SE, equal to
    ``price`` and ``std_error`` when no control was applied."""

    price: float
    std_error: float
    n_paths: int
    n_steps: int
    seed: int
    price_plain: float
    std_error_plain: float


def reference_full_model(epsilon: float) -> ModelParams:
    """Single-correlation reference regime for the oracle direction check.

    Only the spot-fast correlation is active and the slow factor is noiseless
    and nearly level (z0 = alpha_prime exactly is a degenerate arc), so the
    closed-form comparison target stays interpretable while epsilon is swept.
    """
    return ModelParams(
        r=0.0264,
        k=2.0,
        alpha_prime=0.1836,
        z0=0.1834,
        epsilon=epsilon,
        nu=0.3,
        alpha=0.0,
        beta=0.0,
        rho_xy=-0.3,
        rho_xz=0.0,
        rho_yz=0.0,
    )


def stationary_effective_vol(level: float, nu: float) -> float:
    """Averaged volatility sqrt(E[f^2]) for f = z e^{y - alpha} at a fixed z.

    Under the stationary law y - alpha ~ N(0, nu^2) the second moment of the
    exponential is e^{2 nu^2}, so the level picks up a factor e^{nu^2}.  Clamp
    effects are ignored; they are negligible whenever the clamp bounds sit
    several nu away from the level.
    """
    return level * math.exp(nu * nu)


def f_full(y, z, vol: FullModel, alpha: float = 0.0, out: np.ndarray | None = None):
    """Bounded exponential-OU volatility min(f_max, max(f_min, z e^{y - alpha})).

    The clamp bounds are ``vol.f_min`` and ``vol.f_max``, checked when the
    ``FullModel`` was built. ``out``, an array of the broadcast shape, receives
    the result (with the bits of the call without it) and is returned.
    """
    if out is None:
        return np.clip(z * np.exp(y - alpha), vol.f_min, vol.f_max)
    np.subtract(y, alpha, out=out)
    np.exp(out, out=out)
    np.multiply(z, out, out=out)
    return np.clip(out, vol.f_min, vol.f_max, out=out)


def _uniforms_for_chunk(seed: int, lo: int, n_chunk: int, words_per_path: int) -> np.ndarray:
    """Uniforms u = (word >> 11) 2^-53 + 2^-54 in (0, 1) for draw-paths
    [lo, lo + n_chunk), shape (n_chunk, words_per_path); ndtri(u) is the draw.

    words_per_path is a multiple of 4, so the chunk start lands exactly on a
    Philox counter boundary (advance moves 4 words per tick).
    """
    bitgen = np.random.Philox(key=seed)
    bitgen.advance((lo * words_per_path) // 4)
    # Generator.random writes (word >> 11) 2^-53 for each raw word in stream
    # order, so u = that + 2^-54 has the bits of the raw-word expression, in
    # one float64 buffer
    u = np.empty(n_chunk * words_per_path)
    np.random.Generator(bitgen).random(out=u)
    u += 2.0 ** -54
    return u.reshape(n_chunk, words_per_path)


def _normals_for_chunk(
    seed: int, lo: int, n_chunk: int, words_per_path: int, n_words: int
) -> np.ndarray:
    """Standard normals for draw-paths [lo, lo + n_chunk), shape (n_chunk, n_words)."""
    normals = _uniforms_for_chunk(seed, lo, n_chunk, words_per_path)
    ndtri(normals, out=normals)
    return normals[:, :n_words]


def _worker_count() -> int:
    """CPUs this process may run on: the size of ``simulate_paths``' pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _constant_vol_deviations(
    x_draws: np.ndarray, weights: np.ndarray, x_scale: float, g_scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path deviations x_scale S and g_scale W of the constant-vol path.

    S = sum_j e_j and W = sum_j (n - j - 1/2) e_j over each row of the x draws
    (``weights`` holds n - j - 1/2). The draws are reweighted in place, so the
    block needs no second array of its size; per-row sums give the same bits
    for any row split and for strided views, which keeps every chunk layout
    bit-identical.
    """
    dev_x = x_draws.sum(axis=1)
    x_draws *= weights
    dev_g = x_draws.sum(axis=1)
    dev_x *= x_scale
    dev_g *= g_scale
    return dev_x, dev_g


def simulate_paths(
    model: ModelParams,
    vol: VolSpec,
    t: float,
    T: float,
    x0: float,
    g0: float,
    cfg: McConfig,
) -> PathBatch:
    """Simulate the SDE system over [t, T] and return terminal path state.

    Blocks of draw paths run on a thread pool (see the module docstring); the
    result has the same bits for any chunk size and any pool size.
    """
    if not all(map(math.isfinite, (t, T, x0, g0))):
        raise NonFiniteInput(f"t, T, x0 and g0 must be finite, got {t}, {T}, {x0}, {g0}")
    problems = validate_params(model)
    pd_problems = [p for p in problems if "positive definite" in p]
    if pd_problems:
        raise PDFactorizationFailure(pd_problems[0])
    if problems:
        raise ValueError("; ".join(problems))
    if not T > t:
        raise ValueError(f"need T > t, got t={t}, T={T}")
    if x0 <= 0.0 or g0 <= 0.0:
        raise ValueError(f"x0 and g0 must be > 0, got {x0}, {g0}")

    full = isinstance(vol, FullModel)
    n_comp = 3 if full else 1
    n_steps = cfg.n_steps
    n_words = n_steps * n_comp
    words_per_path = 4 * ((n_words + 3) // 4)

    dt = (T - t) / n_steps
    sqrt_dt = math.sqrt(dt)
    r = model.r
    # the constant-vol path in closed form (module docstring): ln X and ln G
    # are their means plus cv_x_scale S and cv_g_scale W
    tau = T - t
    sigma = stationary_effective_vol(model.z0, model.nu) if full else vol.sigma
    mu = r - 0.5 * sigma * sigma
    cv_x_mean = math.log(x0) + mu * tau
    cv_g_mean = (t * math.log(g0) + tau * math.log(x0) + 0.5 * mu * tau * tau) / T
    cv_x_scale = sigma * sqrt_dt
    cv_g_scale = sigma * sqrt_dt * dt / T
    weights = n_steps - 0.5 - np.arange(n_steps)  # n - j - 1/2

    if full:
        corr = np.array(
            [
                [1.0, model.rho_xy, model.rho_xz],
                [model.rho_xy, 1.0, model.rho_yz],
                [model.rho_xz, model.rho_yz, 1.0],
            ]
        )
        try:
            chol = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError as exc:
            raise PDFactorizationFailure(str(exc)) from None
        ey = math.exp(-dt / model.epsilon)
        sd_y = model.nu * math.sqrt(max(0.0, 1.0 - ey * ey))
        ez = math.exp(-model.k * dt)
        sd_z = model.beta * math.sqrt(max(0.0, (1.0 - ez * ez) / (2.0 * model.k)))
        z_noisy = sd_z != 0.0

    anti = cfg.antithetic
    draw_paths = cfg.n_paths // 2 if anti else cfg.n_paths
    n_total = cfg.n_paths

    ln_x = np.empty(n_total)
    ln_g = np.empty(n_total)
    y_out = np.empty(n_total) if full else None
    z_out = np.empty(n_total) if full else None
    ln_x_cv = np.empty(n_total) if full else None
    ln_g_cv = np.empty(n_total) if full else None
    # where the constant-vol path goes: the control of a full-model run, or
    # the terminal state itself
    cv_x_out, cv_g_out = (ln_x_cv, ln_g_cv) if full else (ln_x, ln_g)

    if cfg.chunk_size is not None:
        chunk = min(cfg.chunk_size, draw_paths)
    else:
        chunk = max(1, min(draw_paths, WORD_BUDGET // words_per_path))
    # each worker runs one block at a time, so a round of blocks holds at most
    # one chunk; the paths are shared evenly over the fewest rounds, so no
    # worker waits alone on a short last block
    workers = max(1, min(_worker_count(), chunk // MIN_BLOCK_PATHS))
    rounds = -(-draw_paths // (chunk // workers * workers))
    block = -(-draw_paths // (rounds * workers))

    def step_full_model(draws: np.ndarray) -> tuple[np.ndarray, ...]:
        """Step one block's full-model paths; returns ln X_T, ln G_T, Y_T, Z_T.

        ``draws`` is the block's row-major word array: normals in the x
        columns, uniforms in the y and z columns, which become normals as
        they are copied into a tile (z only when sd_z != 0). Each step
        computes, in this order of operations,

            f      = f_full(y, z)
            d_lnx  = (r - 0.5 f f) dt + (f sqrt_dt) e_x
            int   += (0.5 dt) (2 lnx + d_lnx);  lnx += d_lnx
            y      = (alpha + (y - alpha) ey) + sd_y (c10 e_x + c11 e_y)
            z      = (alpha' + (z - alpha') ez) + sd_z ((c20 e_x + c21 e_y) + c22 e_z)

        in place, with the OU noise terms formed a tile of steps at a time.
        """
        nc = draws.shape[0]
        m = 2 * nc if anti else nc
        alpha, alpha_p = model.alpha, model.alpha_prime
        c10, c11 = chol[1, 0], chol[1, 1]
        c20, c21, c22 = chol[2, 0], chol[2, 1], chol[2, 2]
        half_dt = 0.5 * dt
        n_read = 3 if z_noisy else 2  # the factors whose draws the steps read
        # step-major: tiles[c, s] is factor c of step s of the tile
        tiles = np.empty((n_read, STEP_TILE, m))
        scratch = np.empty((n_read - 1, STEP_TILE, m))
        f, d_lnx, tmp = np.empty(m), np.empty(m), np.empty(m)
        lnx = np.full(m, math.log(x0))
        integral = np.zeros(m)
        y = np.full(m, alpha)
        z = np.full(m, model.z0) if z_noisy else model.z0
        for j0 in range(0, n_steps, STEP_TILE):
            k = min(STEP_TILE, n_steps - j0)
            tile = tiles[:, :k]
            for c in range(n_read):
                drawn = tile[c, :, :nc]
                np.copyto(drawn, draws[:, 3 * j0 + c:3 * (j0 + k):3].T)
                if c:  # the x columns hold normals already
                    ndtri(drawn, out=drawn)
            if anti:
                np.negative(tile[:, :, :nc], out=tile[:, :, nc:])
            e_x, e_y = tile[0], tile[1]
            # the OU noise terms overwrite the e_y and e_z rows
            t1 = scratch[0, :k]
            if z_noisy:
                e_z, t2 = tile[2], scratch[1, :k]
                np.multiply(e_x, c20, out=t1)
                np.multiply(e_y, c21, out=t2)
                t1 += t2
                e_z *= c22
                e_z += t1
                e_z *= sd_z
            np.multiply(e_x, c10, out=t1)
            e_y *= c11
            e_y += t1
            e_y *= sd_y
            for s in range(k):
                f_full(y, z, vol, alpha, out=f)
                np.multiply(f, 0.5, out=d_lnx)
                d_lnx *= f
                np.subtract(r, d_lnx, out=d_lnx)
                d_lnx *= dt
                np.multiply(f, sqrt_dt, out=tmp)
                tmp *= e_x[s]
                d_lnx += tmp
                np.multiply(lnx, 2.0, out=tmp)
                tmp += d_lnx
                tmp *= half_dt
                integral += tmp
                lnx += d_lnx
                y -= alpha
                y *= ey
                y += alpha
                y += e_y[s]
                if z_noisy:
                    z -= alpha_p
                    z *= ez
                    z += alpha_p
                    z += e_z[s]
                else:  # sd_z = 0: the term adds a signed zero, so z is one number
                    z = alpha_p + (z - alpha_p) * ez
        if not z_noisy:
            z = np.full(m, z)
        return lnx, (t * math.log(g0) + integral) / T, y, z

    def run_block(lo: int, hi: int) -> None:
        """Simulate draw paths [lo, hi) and write their slices of the output."""
        nc = hi - lo
        if full:
            # normals only where they are read: the x columns here, in place
            # and row-major for the control path's sums; y and z in the tiles
            draws = _uniforms_for_chunk(cfg.seed, lo, nc, words_per_path)
            x_draws = draws[:, 0:n_words:3]
            ndtri(x_draws, out=x_draws)
            terminal = step_full_model(draws)  # before the x draws are reweighted below
        else:
            x_draws = _normals_for_chunk(cfg.seed, lo, nc, words_per_path, n_words)
        dev_x, dev_g = _constant_vol_deviations(x_draws, weights, cv_x_scale, cv_g_scale)
        # (output slice, block slice, sign of the deviation) of the drawn half
        # and of the mirrored half; + (-1.0) * dev has the bits of - dev
        halves = [(slice(lo, hi), slice(0, nc), 1.0)]
        if anti:
            halves.append((slice(draw_paths + lo, draw_paths + hi), slice(nc, 2 * nc), -1.0))
        for out, part, sign in halves:
            cv_x_out[out] = cv_x_mean + sign * dev_x
            cv_g_out[out] = cv_g_mean + sign * dev_g
            if full:
                for dest, values in zip((ln_x, ln_g, y_out, z_out), terminal):
                    dest[out] = values[part]

    bounds = [(lo, min(lo + block, draw_paths)) for lo in range(0, draw_paths, block)]
    if workers == 1:
        for lo, hi in bounds:
            run_block(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_block, lo, hi) for lo, hi in bounds]
            try:
                for future in futures:
                    future.result()
            except BaseException:
                pool.shutdown(cancel_futures=True)  # the blocks not yet started
                raise

    return PathBatch(
        ln_x=ln_x, ln_g=ln_g, y=y_out, z=z_out, source=_source(model, vol, t, T, x0, g0, cfg),
        ln_x_cv=ln_x_cv, ln_g_cv=ln_g_cv,
    )


def _payoffs(spec: OptionSpec, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    if spec.style is StrikeStyle.FLOATING:
        if spec.kind is OptionKind.CALL:
            return np.maximum(x - g, 0.0)
        return np.maximum(g - x, 0.0)
    if spec.kind is OptionKind.CALL:
        return np.maximum(g - spec.strike, 0.0)
    return np.maximum(spec.strike - g, 0.0)


def _control_mean(
    spec: OptionSpec, state: MarketState, sigma: float, r: float, n_steps: int
) -> float:
    """Undiscounted E[payoff(X_c, G_c)] of the n-step constant-vol scheme.

    ln X_c and ln G_c are jointly Gaussian (see the module docstring), so
    every payoff is E[(A - B)^+] = E[A] N(d1) - E[B] N(d1 - s) for a pair of
    lognormals, or a lognormal and a constant strike, where
    s^2 = Var(ln A - ln B) and d1 = (ln(E[A] / E[B]) + s^2/2) / s.
    """
    t, T = state.t, spec.maturity
    tau = T - t
    dt = tau / n_steps
    var = sigma * sigma
    mu = r - 0.5 * var
    ln_x0 = math.log(state.x)
    # (mean, variance) of ln X_c and ln G_c, and their covariance
    x = (ln_x0 + mu * tau, var * tau)
    g = (
        (t * math.log(state.g) + tau * ln_x0 + 0.5 * mu * tau * tau) / T,
        var * dt ** 3 * n_steps * (4.0 * n_steps * n_steps - 1.0) / 12.0 / (T * T),
    )
    if spec.style is StrikeStyle.FLOATING:
        a, b = (x, g) if spec.kind is OptionKind.CALL else (g, x)
        cov = var * tau * tau / (2.0 * T)
    else:
        strike = (math.log(spec.strike), 0.0)
        a, b = (g, strike) if spec.kind is OptionKind.CALL else (strike, g)
        cov = 0.0
    s = math.sqrt(a[1] + b[1] - 2.0 * cov)
    mean_a = math.exp(a[0] + 0.5 * a[1])
    mean_b = math.exp(b[0] + 0.5 * b[1])
    d1 = (a[0] - b[0] + 0.5 * (a[1] - b[1]) + 0.5 * s * s) / s  # ln(E[A] / E[B]) + s^2/2
    return mean_a * float(ndtr(d1)) - mean_b * float(ndtr(d1 - s))


def mean_and_se(values: np.ndarray, antithetic: bool, scale: float = 1.0) -> tuple[float, float]:
    """scale times the sample mean of ``values`` and its standard error.

    In an antithetic batch the second half mirrors the first, so each pair is
    averaged before the standard error is formed and counts once.
    """
    if antithetic:
        n = values.shape[0] // 2
        values = 0.5 * (values[:n] + values[n:])
    else:
        n = values.shape[0]
    return scale * float(values.mean()), scale * float(values.std(ddof=1)) / math.sqrt(n)


def _controlled_mean_and_se(
    values: np.ndarray,
    controls: tuple[np.ndarray, ...],
    exact: np.ndarray,
    antithetic: bool,
    scale: float,
) -> tuple[float, float] | None:
    """scale times the control-variate estimate of the mean of ``values``, and its SE.

    Pairs of an antithetic batch are averaged first, as in ``mean_and_se``.
    The values are regressed on the controls over the whole batch, the mean
    is v - b . (c - exact) with the sample means v and c, and the standard
    error comes from the residuals with three degrees of freedom spent.
    Returns None when that cannot be formed: three or fewer samples, or a
    singular sample covariance of the controls.
    """
    cols = np.stack((values, *controls))
    if antithetic:
        n = cols.shape[1] // 2
        cols = 0.5 * (cols[:, :n] + cols[:, n:])
    n = cols.shape[1]
    if n <= 3:
        return None
    means = cols.mean(axis=1)
    dev = cols - means[:, None]
    cov = dev[1:] @ dev[1:].T
    if np.linalg.matrix_rank(cov) < cov.shape[0]:
        return None
    b = np.linalg.solve(cov, dev[1:] @ dev[0])
    resid = dev[0] - b @ dev[1:]
    mean = float(means[0] - b @ (means[1:] - exact))
    return scale * mean, scale * float(resid.std(ddof=3)) / math.sqrt(n)


def price_mc(
    spec: OptionSpec,
    model: ModelParams,
    vol: VolSpec,
    state: MarketState,
    cfg: McConfig,
    *,
    paths: PathBatch | None = None,
) -> McEstimate:
    """Discounted mean payoff with its standard error.

    Antithetic pairs are averaged before the standard error is formed, so a
    pair counts once. Floating puts are priced here (the payoff is
    well-defined) even though the analytic layers reject them.

    A full-model batch is priced with its two controls, the payoff of the
    constant-vol path and X_T, whose means are exact (see the module
    docstring); ``price_plain`` and ``std_error_plain`` keep the plain
    estimate, which is also the result when the controls' sample covariance
    is singular. A constant-vol batch is priced plain.

    ``paths`` prices on a batch already simulated from the same model, vol,
    state, maturity and config (several payoffs then share one path set);
    every one of these but ``cfg.chunk_size`` is checked against the batch.
    """
    T = spec.maturity
    if not T > state.t:
        raise ValueError(f"need T > t, got t={state.t}, T={T}")
    if paths is None:
        paths = simulate_paths(model, vol, state.t, T, state.x, state.g, cfg)
    elif paths.source != (source := _source(model, vol, state.t, T, state.x, state.g, cfg)):
        diffs = [f"{k} {paths.source[k]!r} != {v!r}" for k, v in source.items()
                 if paths.source[k] != v]
        raise ValueError(f"path batch does not match cfg and arguments: {'; '.join(diffs)}")
    disc = math.exp(-model.r * (T - state.t))
    x_T = np.exp(paths.ln_x)
    values = _payoffs(spec, x_T, np.exp(paths.ln_g))
    plain = mean_and_se(values, cfg.antithetic, scale=disc)
    controlled = None
    if isinstance(vol, FullModel):
        controls = (_payoffs(spec, np.exp(paths.ln_x_cv), np.exp(paths.ln_g_cv)), x_T)
        sigma_c = stationary_effective_vol(model.z0, model.nu)
        exact = np.array([
            _control_mean(spec, state, sigma_c, model.r, cfg.n_steps),
            state.x * math.exp(model.r * (T - state.t)),
        ])
        controlled = _controlled_mean_and_se(values, controls, exact, cfg.antithetic, disc)
    price, se = controlled or plain
    return McEstimate(
        price=price,
        std_error=se,
        n_paths=cfg.n_paths,
        n_steps=cfg.n_steps,
        seed=cfg.seed,
        price_plain=plain[0],
        std_error_plain=plain[1],
    )
