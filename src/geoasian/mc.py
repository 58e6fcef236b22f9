"""Monte Carlo oracle over the full two-factor SDE system.

State per path is (ln X, Y, Z) over [t, T], on n steps of dt:

    d ln X = (r - f^2/2) dt + f dW^x,      f = min(F_MAX, max(F_MIN, Z e^Y))
    dY     = -(1/eps) Y dt + (nu sqrt(2)/sqrt(eps)) dW^y
    dZ     = k (alpha' - Z) dt + beta dW^z

Y starts at and reverts to 0: a mean alpha would cancel in f = z e^{Y - alpha}.

The scheme takes a log-Euler step on ln X (exact per step under constant
volatility) and exact OU transitions on Y and Z, since eps down at 1e-3 makes
Euler on Y stiff. Each step's Gaussian triple is correlated through the
Cholesky factor of the correlation matrix in the order (y, z, x), which couples
the exact OU integrals to the X increment only to O(dt). The geometric average
accumulates trapezoidally on ln X and continues the running average through
ln G_T = (t ln g + int_t^T ln X)/T.

The conditional route. In the order (y, z, x), step j's x noise is
e_x = c_xy w_y + c_xz w_z + a_x w_x for independent normals w, and f_j depends
only on draws before step j. Given the y and z draws, which fix the volatility
path, ln X_T and the trapezoid integral are linear in the n draws w_x: an
exactly Gaussian pair. With w_j = n - j - 1/2, the known part
mu_j = (r - f_j^2/2) dt + f_j sqrt(dt) (c_xy w_y + c_xz w_z) of step j, and
S0 = sum f_j^2, S1 = sum w_j f_j^2, S2 = sum w_j^2 f_j^2,

    E[ln X_T] = ln x0 + sum mu_j,           Var ln X_T = a_x^2 dt S0,
    E[ln G_T] = (t ln g + tau ln x0 + dt sum w_j mu_j) / T,
    Var ln G_T = a_x^2 dt^3 S2 / T^2,       Cov = a_x^2 dt^2 S1 / T.

Every run draws each path's terminal pair from that law with two normals
z1, z2 (words 0 and 1 of its block):

    ln X_T = E[ln X_T] + sd_x z1,   ln G_T = E[ln G_T] + (g_on_x z1 + sd_g z2),

with sd_x^2 = Var ln X_T, g_on_x = Cov / sd_x (0 where sd_x is) and
sd_g^2 = Var ln G_T - g_on_x^2, so the batch has the law of the stepped
scheme at each n, discretization bias included. One pair law serves every
volatility path: it takes S0, S1, S2, a_x^2 and the sums of the known x
noise h_j = f_j nx_j, with nx_j = sqrt(dt) (c_xy w_y + c_xz w_z) of step j,
as sum mu_j = r tau - dt S0/2 + sum h_j and
dt sum w_j mu_j = r tau^2/2 - dt^2 S1/2 + dt sum w_j h_j.

A constant sigma is a volatility path known in advance: no y or z draws, so
a_x = 1, no known x noise, and the sums are the closed forms S0 = n sigma^2,
S1 = n^2 sigma^2 / 2 and S2 = n (4n^2 - 1) sigma^2 / 12. A ``ConstantVol``
run forms its law once (sigma = 0 is allowed) and never steps, so its cost
does not depend on n.

A full-model run steps only the volatility factors. A factor without noise
(nu = 0 for Y, beta = 0 for Z) is deterministic: it reads no words, Y stays
at 0 and Z follows its noise-free path zbar (below), and its share of the x
noise joins a_x (the Cholesky factor is that of the noisy factors and x
alone). The loop keeps the weighted sums as running prefix sums: with
P_k = sum_{j<=k} q_j and R_k = sum_{i<=k} P_i, the sums over k of P_k and
R_k weight q_j by n - j and (n - j)(n - j + 1)/2, from which S1 and S2
follow; one addition a step each. Each path keeps its five conditional
moments, and ``price_mc`` prices it by its conditional payoff mean.

The step loop walks each block's steps in tiles of ``STEP_TILE``. Per tile it
copies the words of each noisy factor into a step-major buffer, turns them
into normals there with ``ndtri``, negates the copy into the mirror half of an
antithetic run, and forms the tile's x and OU noise terms, so every step reads
contiguous rows and updates its state in place. The operations and their
order are those of one step at a time, so the bits are too. The loop reaches
``f_full``, and ``price_mc`` reaches ``simulate_paths``, through this module's
globals, where a caller may wrap them to time them.

Reproducibility contract: draws come from a counter-based Philox stream keyed
by the seed, with path i owning the fixed word block [i L, (i+1) L) (L padded
to a multiple of 4 words, the Philox counter granularity). Words 0 and 1 are
the two normals of the terminal pair. A full-model run of n steps then reads
one word a step for each noisy factor, y before z: L = 4 ceil((2 + n)/4) when
only Y is noisy (beta = 0, as in ``reference_full_model``) and
4 ceil((2 + 2n)/4) when Z is noisy too. A constant-vol run reads the two words
of a 4-word block at any n. The path set is therefore bit-identical for any
chunk layout and for any thread count; antithetic runs give pair p the block
of p and mirror every word.

Threads: ``simulate_paths`` cuts the draw paths into equal blocks and runs them
on a thread pool (numpy's ufuncs, reductions and ``ndtri`` release the GIL),
one block per worker at a time. A block holds the words of its draw paths in
one array, uniforms turned into normals where they are read (the two terminal
words into a contiguous (2, m) buffer), so the blocks in flight hold at most
one chunk of words; each path's terminal state depends only on its own words,
so any split has the same bits. The pool has one worker per CPU the process
may run on (its CPU affinity), fewer when a chunk has under
``MIN_BLOCK_PATHS`` draw paths per worker, and has no setting; a run with one
worker runs its blocks inline. Each block writes only its own
slice of the output, so the order in which blocks finish cannot change the
result.

Pricing. Given its volatility path, a full-model path's payoff mean is a
lognormal-pair closed form (``_lognormal_pair_call``), so ``price_mc``
averages those conditional means, regressed by ``mean_and_se`` on four
control variates with exactly known means, none of which adds bias from the
time grid: E[X_T | vol] = exp(E[ln X_T] + Var ln X_T / 2), whose mean
x0 e^{r (T - t)} the log-Euler step keeps exactly (by the tower property); the
two sums of the known x noise, sum h_j and sum w_j h_j, whose means are 0
because f_j reads only draws before step j and step j's draws are symmetric;
and the frozen control, the payoff mean of the same path with its volatility
frozen at fbar_j = f_full(0, zbar_j) on Z's noise-free path
zbar_{j+1} = zbar_j ez + alpha' (1 - ez) from z0 (Fouque and Han, 2004).
Given the y and z draws, the frozen path's pair has the pair law of the sums
of fbar_j^2 and of hbar_j = fbar_j nx_j, whose two sums the step loop keeps
per path. Those sums are linear in the draws, so the frozen pair is exactly
Gaussian, with the pair law at a_x^2 = 1 and no known x noise
(a_x^2 + c_xy^2 + c_xz^2 = 1), and the control's exact mean is the pair
formula on that law: the price of the model with nu = beta = 0. The control
moves with the conditional payoff mean because both price one contract on
one x noise; it takes most of what antithetic pairing leaves, the even part
of the spread. Where the x-noise sums are all 0 (rho_xy = rho_xz = 0, or
nu = beta = 0), no factor noise reaches x and every control is one number in
exact arithmetic, so none is used: E[X_T | vol] may still round to a few
values, whose fitted slope would move the price. A batch whose conditional payoff means are one number
is priced at that number with SE 0, and a frozen control or exact mean past
the float range is dropped. Constant-vol runs carry no control: their
closed forms are what the oracle checks them against. The payoffs read X_T
and G_T from the batch, which exponentiates each once. Payoffs, means and
standard errors are formed in place in arrays of their own, with the bits
of numpy's mean and std; a sum of squares that would underflow or overflow
is formed on values scaled by a power of two.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import OutOfDomain, PDFactorizationFailure, require_finite
from .model import (
    MarketState,
    ModelParams,
    OptionKind,
    OptionSpec,
    StrikeStyle,
)

WORD_BUDGET = 1 << 23  # max random words in flight, summed over the workers
# fewest draw paths per worker in a chunk. Two workers against one on equal
# antithetic blocks (2 CPUs, fastest of 7 interleaved runs): full-model blocks
# of 1024 draw paths ran 0.8-0.9x as fast at 50 and 200 steps, of 2048
# 1.0-1.1x, of 4096 1.2-1.6x and of 8192 1.1-1.6x; constant-vol blocks, which
# take no step (fastest of 41), 0.5x at 1024, 0.6x at 2048, 0.8x at 4096 and
# 1.0x at 8192
MIN_BLOCK_PATHS = 2048
# steps whose draws the full-model loop copies step-major at once
STEP_TILE = 4
# the full model's volatility clamp; neither bound binds on
# ``reference_full_model`` (see ``stationary_effective_vol``)
F_MIN = 0.01
F_MAX = 2.0


@dataclass(frozen=True)
class McConfig:
    """Size, seed and layout of one Monte Carlo run.

    ``chunk_size`` bounds the draw paths in flight across all workers (each
    block holds its paths' random words in one array, as uniforms or normals);
    by default a chunk holds at most ``WORD_BUDGET`` random words. A path
    owns 2 + n_steps words (padded to a multiple of 4) in a full-model run
    when only Y is noisy, 2 + 2 n_steps when Z is too, and 4 (2 of them read)
    in a constant-vol run whatever ``n_steps``, whose cost therefore does
    not depend on ``n_steps``. The chunk size changes memory and speed, never
    the result. Beyond its share of the chunk, each worker of a full-model
    run holds step-major buffers of ``STEP_TILE`` steps and its per-path
    sums, about 1.3 MB at 6250 path elements.
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
                raise OutOfDomain(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 2:
            raise OutOfDomain(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 2:
            raise OutOfDomain(f"n_steps must be >= 2, got {self.n_steps}")
        if not 0 <= self.seed < 2**128:  # the Philox key is 128 bits
            raise OutOfDomain(f"seed must be >= 0 and < 2**128, got {self.seed}")
        # pairs count once, and one pair has no standard error
        if self.antithetic and (self.n_paths % 2 or self.n_paths < 4):
            raise OutOfDomain(f"antithetic runs need an even n_paths >= 4, got {self.n_paths}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise OutOfDomain(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass(frozen=True)
class ConstantVol:
    """Constant volatility; sigma = 0 is allowed as the deterministic limit."""

    sigma: float

    def __post_init__(self) -> None:
        require_finite(sigma=self.sigma)
        if not self.sigma >= 0.0:
            raise OutOfDomain(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class FullModel:
    """Volatility ``f_full(y, z)`` = min(F_MAX, max(F_MIN, z e^y)) driven by
    the simulated factors; the model's parameters are in ``ModelParams``, so
    this spec has no fields."""


VolSpec = ConstantVol | FullModel


def _source(model: ModelParams, vol: VolSpec, t, T, x0, g0, cfg: McConfig) -> dict:
    """What fixes a batch's paths: every argument of simulate_paths but
    ``cfg.chunk_size``, which never changes them."""
    return dict(model=model, vol=vol, t=t, T=T, x0=x0, g0=g0, n_paths=cfg.n_paths,
                n_steps=cfg.n_steps, seed=cfg.seed, antithetic=cfg.antithetic)


@dataclass(frozen=True)
class PathBatch:
    """Terminal (ln X_T, ln G_T) per path; arrays are indexed by global path id.

    ``x`` and ``g`` are X_T = exp(ln_x) and G_T = exp(ln_g), computed on
    first read and kept with the batch, so the payoffs priced on one batch
    and the martingale check exponentiate each array once. An exp past the
    float range reads inf, without a numpy warning; ``price_mc`` and
    ``validate`` refuse the non-finite estimate it leads to.

    ``moments`` holds, for a full-model run, the conditional law of
    (ln X_T, ln G_T) given each path's volatility path, as rows of a
    (5, n_paths) array: the means of ln X_T and ln G_T, their variances and
    their covariance (None under ``ConstantVol``, whose law is the same on
    every path). ``noise_sums`` holds, for a full-model run, the sums of
    the known x noise (module docstring), sum_j h_j and
    sum_j (n - j - 1/2) h_j, as rows of a (2, n_paths) array, each with
    mean 0. ``frozen_law`` holds, for a full-model run, the laws of the
    frozen path's pair, in the order of ``moments``: given each path's y
    and z draws (its two means as arrays of n_paths, its variances and
    covariance as floats), and unconditional (five floats). Both are None
    under ``ConstantVol``. ``source`` holds the arguments the paths were
    simulated from.
    """

    ln_x: np.ndarray
    ln_g: np.ndarray
    source: dict
    moments: np.ndarray | None
    noise_sums: np.ndarray | None
    frozen_law: tuple[tuple, tuple] | None

    @cached_property
    def x(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.ln_x)

    @cached_property
    def g(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.ln_g)


@dataclass(frozen=True)
class McEstimate:
    """Discounted price and standard error; under ``FullModel`` these are the
    conditional payoff means regressed on the controls kept (see
    ``price_mc``). ``price_plain`` and ``std_error_plain`` are the plain
    Monte Carlo mean of the sampled terminal payoffs and its SE, equal to
    ``price`` and ``std_error`` under ``ConstantVol``, where no conditioning
    or control applies."""

    price: float
    std_error: float
    price_plain: float
    std_error_plain: float


def reference_full_model(epsilon: float) -> ModelParams:
    """Single-correlation reference regime for the oracle direction check.

    Only the spot-fast correlation is active and the slow factor is noiseless
    and nearly level (ModelParams refuses z0 = alpha_prime exactly), so the
    closed-form comparison target stays interpretable while epsilon is swept.
    """
    return ModelParams(
        r=0.0264,
        k=2.0,
        alpha_prime=0.1836,
        z0=0.1834,
        epsilon=epsilon,
        nu=0.3,
        beta=0.0,
        rho_xy=-0.3,
        rho_xz=0.0,
        rho_yz=0.0,
    )


def stationary_effective_vol(level: float, nu: float) -> float:
    """Averaged volatility sqrt(E[f^2]) for f = z e^y at a fixed z.

    Under the stationary law y ~ N(0, nu^2) the second moment of the
    exponential is e^{2 nu^2}, so the level picks up a factor e^{nu^2}. The
    clamp of ``f_full`` is ignored: on ``reference_full_model`` (level 0.1834,
    nu = 0.3) F_MAX and F_MIN sit about 8 and 10 nu away in y, and no
    simulated f_j reaches them.
    """
    return level * math.exp(nu * nu)


def f_full(y, z, out: np.ndarray | None = None):
    """Bounded exponential-OU volatility min(F_MAX, max(F_MIN, z e^y)).

    ``out``, an array of the broadcast shape, receives the result (with the
    bits of the call without it) and is returned.
    """
    if out is None:
        return np.clip(z * np.exp(y), F_MIN, F_MAX)
    np.exp(y, out=out)
    np.multiply(z, out, out=out)
    return np.clip(out, F_MIN, F_MAX, out=out)


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


def _worker_count() -> int:
    """CPUs this process may run on: the size of ``simulate_paths``' pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_paths(
    model: ModelParams,
    vol: VolSpec,
    t: float,
    T: float,
    x0: float,
    g0: float,
    cfg: McConfig,
) -> PathBatch:
    """Simulate the SDE system over [t, T], 0 <= t < T, and return each
    path's terminal (ln X_T, ln G_T), drawn from its conditional law (and,
    for a full-model run, that law).

    Blocks of draw paths run on a thread pool (see the module docstring); the
    result has the same bits for any chunk size and any pool size. The model
    needs no check here: ``ModelParams`` refuses a bad range when built.
    """
    require_finite(t=t, T=T, x0=x0, g0=g0)
    if not 0.0 <= t < T:
        raise OutOfDomain(f"need 0 <= t < T, got t={t}, T={T}")
    if x0 <= 0.0 or g0 <= 0.0:
        raise OutOfDomain(f"x0 and g0 must be > 0, got {x0}, {g0}")

    full = isinstance(vol, FullModel)
    n_steps = cfg.n_steps
    tau = T - t
    dt = tau / n_steps
    ln_x0 = math.log(x0)
    # the means of the pair at zero volatility (module docstring)
    x_mean0 = ln_x0 + model.r * tau
    g_mean0 = t * math.log(g0) + tau * ln_x0 + 0.5 * model.r * tau * tau

    def pair_law(s0, s1, s2, a2=1.0, h0=0.0, h1=0.0):
        """The law (mean_x, mean_g, var_x, var_g, cov) of (ln X_T, ln G_T)
        given a volatility path's sums S0, S1, S2 of f_j^2, the share
        a2 = a_x^2 of the x noise its draws leave open, and its sums
        h0 = sum h_j and h1 = sum w_j h_j of the known x noise (module
        docstring); floats or arrays."""
        var_dt = a2 * dt
        return (x_mean0 + (h0 - (0.5 * dt) * s0), (g_mean0 + dt * (h1 - (0.5 * dt) * s1)) / T,
                var_dt * s0, (var_dt * dt * dt / (T * T)) * s2, (var_dt * dt / T) * s1)

    def draw_law(mean_x, mean_g, var_x, var_g, cov):
        """A pair law as (mean_x, mean_g, sd_x, g_on_x, sd_g), the terms of
        the draw from two normals; g_on_x is 0 where sd_x is (sigma = 0)."""
        sd_x = np.sqrt(var_x)
        g_on_x = np.divide(cov, sd_x, out=np.zeros_like(sd_x), where=sd_x > 0.0)
        return mean_x, mean_g, sd_x, g_on_x, np.sqrt(np.maximum(var_g - g_on_x * g_on_x, 0.0))

    if full:
        y_noisy, z_noisy = model.nu != 0.0, model.beta != 0.0
        n_noisy = y_noisy + z_noisy
        corr = np.array(
            [
                [1.0, model.rho_yz, model.rho_xy],
                [model.rho_yz, 1.0, model.rho_xz],
                [model.rho_xy, model.rho_xz, 1.0],
            ]
        )  # (y, z, x)
        # the factor of the noisy factors and x alone (module docstring)
        keep = [i for i, noisy in enumerate((y_noisy, z_noisy, True)) if noisy]
        # a built model's matrix is positive definite; this catches a
        # factorization that fails numerically all the same
        try:
            chol = np.linalg.cholesky(corr[np.ix_(keep, keep)])
        except np.linalg.LinAlgError as exc:
            raise PDFactorizationFailure(str(exc)) from None
        # the exact OU steps of Y and Z
        ey = math.exp(-dt / model.epsilon)
        sd_y = model.nu * math.sqrt(max(0.0, 1.0 - ey * ey))
        ez = math.exp(-model.k * dt)
        z_shift = model.alpha_prime * (1.0 - ez)
        sd_z = model.beta * math.sqrt(max(0.0, (1.0 - ez * ez) / (2.0 * model.k)))
        # sd_z e_z = z_mix . (w_y, w_z) when both factors are noisy, z_mix w_z
        # when only Z is
        z_mix = sd_z * chol[n_noisy - 1, :n_noisy]
        # two terminal words, then one word a step for each noisy factor
        n_words = 2 + n_noisy * n_steps
        x_scale = math.sqrt(dt) * chol[-1, :-1]  # sqrt(dt) (c_xy, c_xz) of the noisy factors
        a2 = chol[-1, -1] ** 2
        # Z's noise-free path zbar, which a deterministic Z follows, and the
        # frozen volatility fbar_j = f_full(0, zbar_j) on it with its sums,
        # formed here so that a wrapped f_full sees the step loop's calls alone
        zbar = np.empty(n_steps)
        z = model.z0
        for j in range(n_steps):
            zbar[j] = z
            z = z * ez + z_shift
        fbar = np.clip(zbar, F_MIN, F_MAX)
        q = fbar * fbar
        w = (n_steps - 0.5) - np.arange(n_steps)  # w_j = n - j - 1/2
        frozen_sums = float(q.sum()), float((w * q).sum()), float((w * w * q).sum())
    else:
        n_words = 2
        # a constant sigma's sums in closed form (a numpy n would overflow in
        # the cube), and their law, the same on every path
        n, q = int(n_steps), vol.sigma * vol.sigma
        constant_draw = draw_law(*pair_law(n * q, n * n * q / 2, n * (4 * n * n - 1) * q / 12))
    words_per_path = 4 * ((n_words + 3) // 4)

    anti = cfg.antithetic
    draw_paths = cfg.n_paths // 2 if anti else cfg.n_paths
    n_total = cfg.n_paths

    ln_x = np.empty(n_total)
    ln_g = np.empty(n_total)
    moments = np.empty((5, n_total)) if full else None
    noise_sums = np.empty((2, n_total)) if full else None
    frozen_noise = np.empty((2, n_total)) if full else None

    chunk = min(cfg.chunk_size or max(1, WORD_BUDGET // words_per_path), draw_paths)
    # each worker runs one block at a time, so a round of blocks holds at most
    # one chunk; the paths are shared evenly over the fewest rounds, so no
    # worker waits alone on a short last block
    workers = max(1, min(_worker_count(), chunk // MIN_BLOCK_PATHS))
    rounds = -(-draw_paths // (chunk // workers * workers))
    block = -(-draw_paths // (rounds * workers))

    def step_full_model(draws: np.ndarray) -> tuple:
        """Step one block's volatility paths; returns the ``draw_law`` of
        its m path elements, and the rows of their conditional moments and
        of the sums of the known x noise at f_j (sum h and sum w_j h, with
        w_j = n - j - 1/2) and at the frozen fbar_j (sum hbar and
        sum w_j hbar), as arrays of m.

        ``draws`` is the block's row-major word array: the two terminal
        words, then uniforms in the words of the noisy factors, which become
        normals as they are copied into a tile. With u the fast factor Y, each
        step computes, in this order of operations,

            f  = f_full(u, z)
            q  = f f;    p0 += q;   p1 += p0;   p2 += p1
            h  = f nx;   (n0, nbar0) += (h, hbar);   (n1, nbar1) += (n0, nbar0)
            u  = u ey + w_y sd_y
            z  = z ez + ((w_z z_mix_z + w_y z_mix_y) + alpha' (1 - ez))

        in place, with nx = sqrt(dt) (c_xy w_y + c_xz w_z) and the noise
        terms, hbar = fbar_j nx of the frozen volatility among them, formed a
        tile of steps at a time; each pair of sums is one (2, m) array, so a
        step adds once to each. A term of a factor without noise is left
        out, and a deterministic Z is read from zbar.
        """
        nc = draws.shape[0]
        m = 2 * nc if anti else nc
        # step-major: tiles[c, s] is noisy factor c of step s of the tile
        tiles = np.empty((n_noisy, STEP_TILE, m))
        # hx[s] is (nx, hbar) of step s of the tile, then (h, hbar) once
        # step s has multiplied its nx by f
        hx, scratch = np.empty((STEP_TILE, 2, m)), np.empty((STEP_TILE, m))
        f, q = np.empty(m), np.empty(m)
        p0, p1, p2 = np.zeros((3, m))
        n0, n1 = np.zeros((2, 2, m))  # the (2, m) sums (n0, nbar0), (n1, nbar1)
        # the rows each step reads, as views made once per block: (h, nx)
        # of hx, and the OU noise terms of Y and of Z
        h_rows = [(hx[s], hx[s, 0]) for s in range(STEP_TILE)]
        e_y = list(tiles[0]) if y_noisy else None
        e_z = list(tiles[-1]) if z_noisy else None
        u = np.zeros(m)
        z = np.full(m, model.z0) if z_noisy else None
        for j0 in range(0, n_steps, STEP_TILE):
            k = min(STEP_TILE, n_steps - j0)
            if n_noisy:
                tile = tiles[:, :k]
                for c in range(n_noisy):
                    drawn = tile[c, :, :nc]
                    col = 2 + n_noisy * j0 + c
                    np.copyto(drawn, draws[:, col:col + n_noisy * k:n_noisy].T)
                    ndtri(drawn, out=drawn)
                if anti:
                    np.negative(tile[:, :, :nc], out=tile[:, :, nc:])
                tile_nx, tmp = hx[:k, 0], scratch[:k]
                np.multiply(tile[0], x_scale[0], out=tile_nx)
                if n_noisy == 2:
                    np.multiply(tile[1], x_scale[1], out=tmp)
                    tile_nx += tmp
                np.multiply(tile_nx, fbar[j0:j0 + k, None], out=hx[:k, 1])
                # the OU noise terms overwrite the w rows
                if z_noisy:
                    tile_e_z = tile[-1]
                    tile_e_z *= z_mix[-1]
                    if n_noisy == 2:
                        np.multiply(tile[0], z_mix[0], out=tmp)
                        tile_e_z += tmp
                    tile_e_z += z_shift
                if y_noisy:
                    tile[0] *= sd_y
            for s in range(k):
                f_full(u, z if z_noisy else zbar[j0 + s], out=f)
                np.multiply(f, f, out=q)
                p0 += q
                p1 += p0
                p2 += p1
                if n_noisy:
                    h, h_x = h_rows[s]
                    np.multiply(f, h_x, out=h_x)
                    n0 += h
                    n1 += n0
                if y_noisy:
                    u *= ey
                    u += e_y[s]
                if z_noisy:
                    z *= ez
                    z += e_z[s]
        # the weighted sums (module docstring): S1 = p1 - p0/2 and
        # S2 = 2 (p2 - p1) + p0/4 with w_j = n - j - 1/2, and likewise for h
        h1 = n1 - 0.5 * n0
        law = pair_law(p0, p1 - 0.5 * p0, 2.0 * (p2 - p1) + 0.25 * p0, a2, n0[0], h1[0])
        return draw_law(*law), (*law, n0[0], h1[0], n0[1], h1[1])

    def run_paths(lo: int, hi: int) -> None:
        """Simulate draw paths [lo, hi) and write their slices of the output."""
        nc = hi - lo
        # normals only where they are read: the two terminal words here, into
        # contiguous rows (ndtri over the strided words in place would run its
        # inner loop two elements at a time); a full-model run's y and z in
        # the tiles of its step loop
        draws = _uniforms_for_chunk(cfg.seed, lo, nc, words_per_path)
        z1, z2 = ndtri(draws[:, :2].T, out=np.empty((2, nc)))
        # (output slice, block slice, sign of the deviation) of the drawn half
        # and of the mirrored half, which negates every word
        halves = [(slice(lo, hi), slice(0, nc), 1.0)]
        if anti:
            halves.append((slice(draw_paths + lo, draw_paths + hi), slice(nc, 2 * nc), -1.0))
        if full:
            block_law, block_rows = step_full_model(draws)
        for out, part, sign in halves:
            if full:
                mean_x, mean_g, sd_x, g_on_x, sd_g = (v[part] for v in block_law)
                for row, block_row in zip((*moments, *noise_sums, *frozen_noise), block_rows):
                    row[out] = block_row[part]
            else:
                mean_x, mean_g, sd_x, g_on_x, sd_g = constant_draw
            # mean_x + sign * (z1 sd_x) and mean_g + sign * (z1 g_on_x + z2 sd_g),
            # in that order of operations and in the output slices, with x
            # holding z2 sd_g meanwhile; + (-1.0) * dev has the bits of - dev
            x, g = ln_x[out], ln_g[out]
            np.multiply(z1, g_on_x, out=g)
            np.multiply(z2, sd_g, out=x)
            g += x
            np.multiply(z1, sd_x, out=x)
            for dev, mean in ((x, mean_x), (g, mean_g)):
                dev *= sign
                dev += mean

    los = range(0, draw_paths, block)
    his = [min(lo + block, draw_paths) for lo in los]
    if workers == 1:
        list(map(run_paths, los, his))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # reading every result raises a block's error, and map then
            # cancels the blocks not yet started
            list(pool.map(run_paths, los, his))

    return PathBatch(
        ln_x=ln_x, ln_g=ln_g, source=_source(model, vol, t, T, x0, g0, cfg), moments=moments,
        noise_sums=noise_sums,
        frozen_law=(pair_law(*frozen_sums, a2, *frozen_noise), pair_law(*frozen_sums))
        if full else None,
    )


def _payoffs(spec: OptionSpec, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each path's payoff, in a new array; ``x`` and ``g`` are read only."""
    if spec.style is StrikeStyle.FLOATING:
        high, low = (x, g) if spec.kind is OptionKind.CALL else (g, x)
    else:
        high, low = (g, spec.strike) if spec.kind is OptionKind.CALL else (spec.strike, g)
    values = np.subtract(high, low)
    return np.maximum(values, 0.0, out=values)


def _lognormal_pair_call(a, b, cov):
    """E[(A - B)^+] for jointly lognormal A and B, elementwise over arrays.

    ``a`` and ``b`` are the (mean, variance) of ln A and of ln B, and ``cov``
    their covariance; a variance of 0 makes that side a constant, such as a
    fixed strike. The mean is E[A] N(d1) - E[B] N(d1 - s), where
    s^2 = Var(ln A - ln B) and d1 = (ln(E[A] / E[B]) + s^2/2) / s, and is
    max(E[A] - E[B], 0) where s = 0.
    """
    (mean_a, var_a), (mean_b, var_b) = a, b
    s2 = np.maximum(var_a + var_b - 2.0 * cov, 0.0)
    s = np.sqrt(s2)
    e_a = np.exp(mean_a + 0.5 * var_a)
    e_b = np.exp(mean_b + 0.5 * var_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (mean_a - mean_b + 0.5 * (var_a - var_b) + 0.5 * s2) / s
        value = e_a * ndtr(d1) - e_b * ndtr(d1 - s)
    return np.where(s > 0.0, value, np.maximum(e_a - e_b, 0.0))


def _payoff_mean(spec: OptionSpec, moments) -> np.ndarray:
    """Undiscounted E[payoff(X_T, G_T)] for a Gaussian (ln X_T, ln G_T).

    ``moments`` holds the means of ln X_T and ln G_T, their variances and
    their covariance, as in ``PathBatch.moments`` (floats or arrays).
    """
    mean_x, mean_g, var_x, var_g, cov = moments
    x, g = (mean_x, var_x), (mean_g, var_g)
    call = spec.kind is OptionKind.CALL
    if spec.style is StrikeStyle.FLOATING:
        return _lognormal_pair_call(*((x, g) if call else (g, x)), cov)
    strike = (math.log(spec.strike), 0.0)
    return _lognormal_pair_call(*((g, strike) if call else (strike, g)), 0.0)


# a sum of squared deviations at most this small may have lost squares to
# underflow (a square under 2^-1022 keeps fewer bits, under 2^-1075 none);
# above it, what such squares lose is below its last bit for any n < 2^100
_SS_TINY = 2.0 ** -900


def _samples(values: np.ndarray, antithetic: bool) -> np.ndarray:
    """``values``, or an antithetic batch's pair means 0.5 (a + b) in a new
    array: the samples an estimate averages."""
    if not antithetic:
        return values
    n = values.shape[0] // 2
    pairs = np.add(values[:n], values[n:])
    pairs *= 0.5
    return pairs


def _centred(values: np.ndarray, antithetic: bool) -> tuple[np.floating, np.ndarray]:
    """The mean of the samples of ``values``, as the sum over n that numpy's
    mean and std form, and the deviations from it in a new array."""
    samples = _samples(values, antithetic)
    mean = samples.sum() / samples.shape[0]
    return mean, np.subtract(samples, mean, out=samples if antithetic else None)


def _one_number(values: np.ndarray, antithetic: bool) -> bool:
    """Whether every sample of ``values`` is the same number; the deviations
    of such samples from their rounded mean need not be 0."""
    samples = _samples(values, antithetic)
    return bool((samples == samples[0]).all())


def _in_range(*sums) -> bool:
    """No sum of squares among ``sums`` may have under- or overflowed."""
    return all(_SS_TINY < ss < math.inf for ss in sums)


def _unit_exponent(values: np.ndarray) -> int | None:
    """e with 2^e max|values| in [0.5, 1), or None when that maximum is 0 or
    not finite, so nothing can be rescaled."""
    top = float(np.max(np.abs(values)))
    return -math.frexp(top)[1] if 0.0 < top < math.inf else None


def _regression(values: np.ndarray, controls, antithetic: bool):
    """The regression mean of ``values`` on the (control, exact mean) pairs
    of ``controls``, the std of its residuals with 1 + c degrees of freedom
    spent for the c controls kept, and the sums of squares of the kept
    controls' orthogonalized deviations and of the residuals. With no control
    kept, too few samples for those kept, or a control whose sum of squares
    is 0 (the sums then hold that 0), this is the plain pass: the mean and
    std with the bits of numpy's, squares, a pairwise sum, over n - 1, a
    root."""
    mean, dv = _centred(values, antithetic)
    n = dv.shape[0]
    kept, sums = [], []  # kept: (deviations, offset c - exact, sum of squares), orthogonalized
    for control, exact in controls:
        if _one_number(control, antithetic):  # nothing to fit
            continue
        mean_c, dc = _centred(control, antithetic)
        offset = mean_c - exact
        for dk, offset_k, ss_k in kept:
            gamma = (dk @ dc) / ss_k
            dc -= gamma * dk
            offset -= gamma * offset_k
        ss = dc @ dc
        sums.append(ss)
        if ss == 0.0:  # lost to underflow, or a combination of the controls before
            kept = []
            break
        kept.append((dc, offset, ss))
    if n - 1 - len(kept) < 1:  # too few samples for the controls
        kept, sums = [], []
    for dk, offset_k, ss_k in kept:
        b = (dk @ dv) / ss_k
        dk *= b
        dv -= dk
        mean -= b * offset_k
    if kept:  # the residuals, centred as std does
        dv -= dv.sum() / n
    dv *= dv
    ss_r = dv.sum()
    return mean, math.sqrt(ss_r / (n - 1 - len(kept))), [*sums, ss_r]


def _scaled(control: np.ndarray, exact: float):
    """``control`` and its exact mean times the power of two that brings its
    largest |value| into [0.5, 1), or unscaled when that cannot be formed."""
    e = _unit_exponent(control) or 0
    return np.ldexp(control, e), np.ldexp(exact, e)


def mean_and_se(values: np.ndarray, antithetic: bool, scale: float = 1.0,
                controls=()) -> tuple[float, float]:
    """scale times the mean of ``values`` and its standard error, regressed
    on ``controls``.

    In an antithetic batch the second half mirrors the first, so each pair is
    averaged before the standard error is formed and counts once.
    ``controls`` holds (control, exact mean) pairs, each control an array
    like ``values``. This is the multiple-control regression estimator
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
    section 4.1): with the sample means v and c and the deviations dv and
    dc, the mean is v - b . (c - exact), with b the least-squares fit of dv
    on the columns dc, and the standard error comes from the residuals
    dv - dc b with 1 + c degrees of freedom spent for c controls. The fit
    takes the controls in turn, each orthogonalized against those before it
    (modified Gram-Schmidt), so one control is the single-control estimator
    b = (dc . dv) / (dc . dc). A control that is one number on every sample
    is dropped. With no control left, or fewer than 2 + c samples, the
    estimate is the plain sample mean and its SE, with the bits of numpy's
    mean and std. When a sum of squares would underflow or overflow, the
    estimate is formed on ``values`` scaled by the power of two that brings
    the largest |value| into [0.5, 1), each control by its own, and scaled
    back; a power of two scales every step exactly, so ordinary inputs keep
    their bits either way. No array is written.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rescaled below
        mean, sd, sums = _regression(values, controls, antithetic)
    if not _in_range(*sums) and (e := _unit_exponent(values)) is not None:
        mean, sd, _ = _regression(
            np.ldexp(values, e), [_scaled(*pair) for pair in controls], antithetic
        )
        mean, sd = np.ldexp(mean, -e), np.ldexp(sd, -e)
    n = values.shape[0] // 2 if antithetic else values.shape[0]
    return scale * float(mean), scale * float(sd) / math.sqrt(n)


def _controls(spec: OptionSpec, model: ModelParams, state: MarketState,
              paths: PathBatch) -> list:
    """The (control, exact mean) pairs of a full-model batch: E[X_T | vol],
    the two x-noise sums and, where it and its mean are finite, the frozen
    control; none where no factor noise reaches x (module docstring)."""
    if not paths.noise_sums.any():
        return []
    T = spec.maturity
    control = np.exp(paths.moments[0] + 0.5 * paths.moments[2])  # E[X_T | vol]
    try:
        exact = state.x * math.exp(model.r * (T - state.t))
    except OverflowError:
        raise OutOfDomain(f"E[X_T] overflows a float at r = {model.r}, T = {T}") from None
    controls = [(control, exact), *((noise, 0.0) for noise in paths.noise_sums)]
    given, law = paths.frozen_law
    frozen, frozen_mean = _payoff_mean(spec, given), float(_payoff_mean(spec, law))
    # an overflow leaves nothing to fit, as a constant does
    if math.isfinite(frozen_mean) and np.isfinite(frozen).all():
        controls.append((frozen, frozen_mean))
    return controls


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
    pair counts once. The payoffs read the batch's ``x`` and ``g``, so the
    payoffs priced on one batch share its two exps. Floating puts are priced here (the payoff is
    well-defined) even though the analytic layers reject them.

    A full-model batch is priced by each path's payoff mean given its
    volatility path, regressed on an intercept and four controls with
    exact means: E[X_T | vol], the batch's two x-noise sums and the frozen
    control (see the module docstring), with 1 + c degrees of freedom spent
    for the c controls kept. None is used where the x-noise sums are all 0.
    A control that is one number on every path is dropped, and so is a
    frozen control that is not finite on every path or whose exact mean is
    not finite; when no control is left, or fewer than 2 + c samples are
    (an antithetic pair counting once), the price is the uncontrolled mean
    of those conditional payoffs, which is unbiased too.
    Conditional payoff means that are one number on every path (no factor
    noise) give that number, with SE 0. ``price_plain`` and
    ``std_error_plain`` keep the plain estimate over the sampled terminal
    payoffs. A constant-vol batch is priced plain.

    ``paths`` prices on a batch already simulated from the same model, vol,
    state, maturity and config (several payoffs then share one path set);
    every one of these but ``cfg.chunk_size`` is checked against the batch.
    A non-finite price or standard error raises OutOfDomain, without a numpy warning.
    """
    T = spec.maturity
    if paths is None:
        paths = simulate_paths(model, vol, state.t, T, state.x, state.g, cfg)
    elif paths.source != (source := _source(model, vol, state.t, T, state.x, state.g, cfg)):
        diffs = [f"{k} {paths.source[k]!r} != {v!r}" for k, v in source.items()
                 if paths.source[k] != v]
        raise OutOfDomain(f"path batch does not match cfg and arguments: {'; '.join(diffs)}")
    disc = math.exp(-model.r * (T - state.t))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        values = _payoffs(spec, paths.x, paths.g)
        plain = mean_and_se(values, cfg.antithetic, scale=disc)
        price, se = plain
        if isinstance(vol, FullModel):
            conditional = _payoff_mean(spec, paths.moments)
            if _one_number(conditional, cfg.antithetic):  # no spread for a control to take
                price, se = disc * float(_samples(conditional, cfg.antithetic)[0]), 0.0
            else:
                price, se = mean_and_se(conditional, cfg.antithetic, disc,
                                        _controls(spec, model, state, paths))
    if not all(map(math.isfinite, (price, se, *plain))):
        raise OutOfDomain(f"the Monte Carlo estimate is not finite: {price}, SE {se}, plain {plain}")
    return McEstimate(price, se, *plain)
