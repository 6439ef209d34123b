"""The alpha-power transformed Pseudo-Lindley (PL-APT) distribution family.

Three parameters: a power-transform shape ``alpha > 0``, a Pseudo-Lindley
shape ``beta > 1`` and a rate ``theta > 0``.  ``alpha == 1`` recovers the
plain Pseudo-Lindley distribution and, with ``beta == 1 + theta``, the
Lindley distribution.  The quantile function is exact through the W_{-1}
branch of the Lambert W function, solved for theta*x from log s, which
makes inverse-transform sampling and tail analysis cheap.

All evaluation functions accept scalars or arrays and preserve the input
kind (scalar in, float out).
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .special_functions import _TINY, _theta_x

__all__ = [
    "PlAptParams",
    "OrderStatSpec",
    "Sample",
    "cdf",
    "pdf",
    "reliability",
    "hazard",
    "quantile",
    "tail_quantile",
    "sample",
    "order_stat_pdf",
    "median_order_stat_pdf",
    "replication_rng",
]

# t = theta*x is clipped to [0, _T_CAP], where exp(-t) and the Pseudo-Lindley
# survival are 0 and (beta - 1 + t)/(beta + t) is 1 (beta < 2**459): every
# function is at its limit, and theta*(beta - 1 + t) is finite for theta < 2**511.
_T_CAP = 2.0**512
# Points per block of the elementwise pipelines: 128 KiB temporaries stay in L2
# and below glibc's mmap threshold, so no call page-faults fresh scratch memory
# (2**13 to 2**15 tie on the draws benchmark; 2**16 faults and is slower).
_BLOCK = 2**14
# _blockwise deals the blocks of a call round-robin to at most one thread per
# usable core, with at least _THREAD_BLOCKS blocks each: numpy releases the
# GIL inside each ufunc, so two blocks' quantiles run at once, and a call under
# 2**18 points never pays for starting a thread.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_THREAD_BLOCKS = 8
# A count used as a float stops at _MAX_COUNT: beyond it not every integer is
# a float, and past about 1.8e308 none is.
_MAX_COUNT = 2**53


def _integer(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    # An integer (a count, an index, a seed) as an int in [low, high]: a
    # float, integral or not, is refused, not truncated.
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not low <= value <= high:
        # a bound of _MAX_COUNT or more only keeps the count a float: below
        # its range, a count is told its lower bound alone
        bound = f"be >= {low}" if value < low and high >= _MAX_COUNT else f"lie in [{low}, {high}]"
        raise DomainError(f"{name} must {bound}, got {value}")
    return value


def _positive(name: str, value) -> float:
    # A finite positive real as a float
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive real, got {value}")
    return value


def _param_error(name: str, value: float) -> DomainError | None:
    # The error of one parameter value, or None: beta > 1, theta > 0 and alpha a
    # positive normal float (at a subnormal alpha, v*(1 - alpha)/alpha overflows).
    low, rule = (1.0, "exceed 1") if name == "beta" else (0.0, "be a positive real")
    if not (math.isfinite(value) and value > low):
        return DomainError(f"{name} must {rule}, got {value}")
    if name == "alpha" and value < _TINY:
        return DomainError(f"alpha must be at least {_TINY}, the smallest normal float, got {value}")
    return None


@dataclass(frozen=True)
class PlAptParams:
    """Validated parameter triple (alpha, beta, theta).

    theta is a rate (units 1/x): quantiles scale exactly as 1/theta because
    theta enters a quantile only as its final division.
    """

    alpha: float
    beta: float
    theta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
            error = _param_error(name, getattr(self, name))
            if error:
                raise error

    @property
    def is_alpha_one(self) -> bool:
        """True at alpha == 1, the Pseudo-Lindley law."""
        return self.alpha == 1.0


@dataclass(frozen=True)
class OrderStatSpec:
    """Rank k within a sample of size n, 1 <= k <= n."""

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n, 1, _MAX_COUNT))
        object.__setattr__(self, "k", _integer("k", self.k, 1, self.n))


def _checked_sorted(v: np.ndarray) -> np.ndarray:
    """v, a nonempty 1-d float array sorted ascending, checked as a sample:
    finite and nonnegative.  Sorted, v is finite if its two ends are (-inf
    sorts first, inf and nan last)."""
    if not (math.isfinite(v[0]) and math.isfinite(v[-1])):
        raise DomainError("sample values must be finite")
    if v[0] < 0.0:
        raise DomainError("sample values must be nonnegative")
    return v


@dataclass(frozen=True, eq=False)
class Sample:
    """Nonnegative observations, stored sorted ascending."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size == 0:
            raise DomainError("sample must contain at least one observation")
        object.__setattr__(self, "values", _checked_sorted(np.sort(v)))

    @classmethod
    def _of_sorted(cls, values: np.ndarray) -> "Sample":
        # A Sample that holds values, a nonempty 1-d float array already
        # sorted ascending, as it is: checked, not copied or sorted again
        s = object.__new__(cls)
        object.__setattr__(s, "values", _checked_sorted(values))
        return s

    @property
    def n(self) -> int:
        return int(self.values.size)


# The elementwise functions below take 1-d arrays and work in place where
# they can, so that a block holds few temporaries at a time.


def _survival_log(beta: float, t):
    # log of the Pseudo-Lindley survival (1 + t/beta) * exp(-t) at t = theta*x >= 0
    s = t / beta
    np.log1p(s, out=s)
    s -= t
    return s


def _pl_sf(beta: float, t):
    s = _survival_log(beta, t)
    return np.exp(s, out=s)


def _log_ratio(alpha):
    # log(alpha)/(alpha - 1) at alpha > 0 (a scalar or an array), positive on
    # both sides of alpha = 1 and filled with its limit 1 there
    alpha = np.asarray(alpha, dtype=float)
    return np.divide(np.log(alpha), alpha - 1.0, out=np.ones_like(alpha), where=alpha != 1.0)


def _blockwise(f, x, out=None):
    # f on x as floats, f taking and giving 1-d arrays: a scalar goes to f as
    # one point and comes back a float, an array in runs of _BLOCK points
    # written into one output of its shape, bitwise f(x) with only one
    # block's temporaries per thread beside the output.  The output is out,
    # a C-contiguous float array of x's shape, if given; it may be x itself,
    # as f reads each block before the block is written, and the threads'
    # blocks are disjoint.  Each helper thread runs in a copy of the caller's
    # context, so the caller's np.errstate holds there.  A thread stops at
    # its first failing block, and the error of the first failing block of
    # all is raised.
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        return float(f(a.reshape(1))[0])
    flat = a.ravel()
    if out is None:
        out = np.empty(a.shape)
    dest = out.reshape(-1)  # a view of out
    starts = range(0, flat.size, _BLOCK)
    threads = max(1, min(_CORES, len(starts) // _THREAD_BLOCKS))
    errors = {}

    def run(first):
        for i in starts[first::threads]:
            try:
                dest[i : i + _BLOCK] = f(flat[i : i + _BLOCK])
            except Exception as error:
                errors[i] = error
                return

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run, k)) for k in range(1, threads)]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return out


def _clipped_t(p: PlAptParams, xa):
    # t = theta*x clipped to [0, _T_CAP]; a product that overflows to inf
    # clips to the same limit, so its overflow is no error.
    with np.errstate(over="ignore"):
        t = p.theta * xa
    return np.clip(t, 0.0, _T_CAP, out=t)


def _reliability_arr(p: PlAptParams, xa):
    s = _pl_sf(p.beta, _clipped_t(p, xa))
    if not p.is_alpha_one:  # (alpha/(alpha - 1)) * -expm1(-log(alpha) * s)
        s *= -math.log(p.alpha)
        np.negative(np.expm1(s, out=s), out=s)
        s *= p.alpha / (p.alpha - 1.0)
    s[xa <= 0.0] = 1.0
    return s


def reliability(p: PlAptParams, x):
    """Survival probability 1 - cdf; exactly complementary to :func:`cdf`."""
    return _blockwise(lambda b: _reliability_arr(p, b), x)


def cdf(p: PlAptParams, x):
    """Distribution function; 0 for x <= 0, increasing to 1."""
    # the reliability is exactly 1 at x <= 0, where 1 - 1 is +0.0
    return _blockwise(lambda b: np.subtract(1.0, _reliability_arr(p, b)), x)


def _pdf_arr(p: PlAptParams, xa):
    t = _clipped_t(p, xa)
    base = np.add(t, p.beta - 1.0)  # theta * (beta - 1 + t) * exp(-t) / beta
    base *= p.theta
    base *= np.exp(np.negative(t))
    base /= p.beta
    # alpha**(1-S) = exp(log(a)*(1-S)), with 1 - S = -expm1(log S) to full
    # relative accuracy near t = 0; both alpha factors are 1 at alpha = 1
    base *= _log_ratio(p.alpha)
    factor = _survival_log(p.beta, t)
    np.negative(np.expm1(factor, out=factor), out=factor)
    factor *= math.log(p.alpha)
    base *= np.exp(factor, out=factor)
    base[xa < 0.0] = 0.0
    return base


def pdf(p: PlAptParams, x):
    """Density; 0 for x < 0 and positive on the support [0, inf)."""
    return _blockwise(lambda b: _pdf_arr(p, b), x)


def hazard(p: PlAptParams, x):
    """Failure rate pdf / reliability, one closed form for every alpha:
    h_PL(t) * y/expm1(y) at t = theta*x, with the Pseudo-Lindley hazard
    h_PL(t) = theta*(beta-1+t)/(beta+t), y = log(alpha) * S_PL(t) and the
    factor 1 where y = 0 (alpha = 1, or S_PL underflowed), so the hazard
    stays finite arbitrarily far into the tail and tends to theta.
    """

    def block(b):
        if np.any(b < 0.0):
            raise DomainError("hazard is defined on x >= 0")
        t = _clipped_t(p, b)
        y = _pl_sf(p.beta, t)
        y *= math.log(p.alpha)
        ratio = np.divide(y, np.expm1(y), out=np.ones_like(y), where=y != 0.0)
        del y
        out = np.add(t, p.beta - 1.0)  # theta * (beta - 1 + t) / (beta + t) * ratio
        out *= p.theta
        t += p.beta
        out /= t
        out *= ratio
        return out

    return _blockwise(block, x)


def _tail_log_s(p: PlAptParams, v):
    """log s <= 0 of the Pseudo-Lindley survival mass s at each tail mass v
    in (0, 1] of a 1-d array: s = log1p(q)/-log(alpha), q = v*(1 - alpha)/alpha,
    and s = v at alpha = 1.  Below |q| = 2**-1012, where s may be subnormal
    (|log alpha| < 710) and log1p(q) = q, log s = log v - log(alpha*log(alpha)/(alpha - 1)).
    s is 1 at v = 1; rounding above that (+inf where q rounds to -1) is cut to 1.
    """
    if p.is_alpha_one:
        return np.log(v)
    k = (1.0 - p.alpha) / p.alpha
    with np.errstate(divide="ignore"):  # log1p(-1), and log(0) of an underflowed s, both replaced
        log_s = np.multiply(v, k)
        np.log1p(log_s, out=log_s)
        log_s *= -1.0 / math.log(p.alpha)
        np.log(log_s, out=log_s)
    tiny = 2.0**-1012 / abs(k)
    if v.min() < tiny:
        i = np.flatnonzero(v < tiny)
        log_s[i] = np.log(v[i]) - math.log(p.alpha * float(_log_ratio(p.alpha)))
    if v.max() == 1.0:
        log_s[v == 1.0] = 0.0
    return np.minimum(log_s, 0.0, out=log_s)


def _tail_quantile_arr(p: PlAptParams, v):
    # Q(1 - v) = t/theta from the theta*x kernel, so quantiles scale exactly as
    # 1/theta; a quantile beyond the float range is inf
    t = _theta_x(p.beta, _tail_log_s(p, v))
    with np.errstate(over="ignore"):
        t /= p.theta
    return t


def _quantile_block(p: PlAptParams):
    # quantile's block function; the domain test reads the block's two extremes
    def block(b):
        if not (b.min() >= 0.0 and b.max() < 1.0):  # nan fails either
            raise DomainError("quantile requires 0 <= u < 1")
        return _tail_quantile_arr(p, 1.0 - b)

    return block


def quantile(p: PlAptParams, u):
    """Exact quantile function on 0 <= u < 1, Q(u) = Q(1 - v) at v = 1 - u.

    Satisfies ``cdf(p, quantile(p, u)) == u`` to roundoff and
    ``quantile(p, 0) == 0`` exactly.
    """
    return _blockwise(_quantile_block(p), u)


def _sorted_quantiles(p: PlAptParams, u: np.ndarray) -> np.ndarray:
    """The quantiles of the uniforms u, a C-contiguous float array whose
    rows (the last axis) are nonempty, written over u and each row sorted
    ascending in place: u itself, with no n-point array beside it.  A
    quantile beyond the float range is inf and sorts last; the rows are
    not checked here, but where they enter a Sample or a fit."""
    _blockwise(_quantile_block(p), u, out=u)
    u.sort(axis=-1)
    return u


def tail_quantile(p: PlAptParams, v):
    """Upper-tail quantile Q(1 - v) for tail mass 0 < v <= 1.

    Solves for theta*Q from log s, s the Pseudo-Lindley survival mass at
    v, so tail masses down to v = 5e-324 lose no precision to forming
    1 - v or a Lambert argument; ``tail_quantile(p, 1) == 0`` exactly.
    """

    def block(b):
        if not (b.min() > 0.0 and b.max() <= 1.0):  # nan fails either
            raise DomainError("tail_quantile requires 0 < v <= 1")
        return _tail_quantile_arr(p, b)

    return _blockwise(block, v)


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence (O'Neill's seed_seq): pool size, hash and mix constants
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(h: int, mult: int, k: int) -> list[int]:
    # A hash constant and the k values it steps through: each hashmix XORs
    # its value with the constant, multiplies the constant by mult and the
    # value by the new constant.
    out = [h]
    for _ in range(k):
        out.append(out[-1] * mult & _MASK32)
    return out


# The hash constants of generate_state's eight 32-bit words (four uint64)
_STATE_HASH = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL), np.uint32)


def _seed_words(seed) -> list[int]:
    # SeedSequence's entropy words: an integer's 32-bit words, least
    # significant first ([0] for 0), or those of each entry of a sequence
    if isinstance(seed, (int, np.integer)):
        seed = int(seed)
        if seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {seed}")
        return [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    if isinstance(seed, (list, tuple, range, np.ndarray)):
        return [w for entry in seed for w in _seed_words(entry)]
    raise TypeError(f"seed must be an integer or a sequence of integers, got {seed!r}")


@functools.cache
def _seed_state_type() -> type:
    """A seed sequence holding the four uint64 words that
    ``SeedSequence.generate_state(4, np.uint64)`` gives, all that PCG64 asks
    of its seed sequence.  Defined on first use: its base class loads
    numpy.random, which ``import plapt`` does not (about 6 MB and 16 ms)."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


# Replication indices lie in [0, _MAX_REPS): one 32-bit entropy word each.
_MAX_REPS = 1 << 32


def _replication_states(seed, reps) -> np.ndarray:
    """The (len(reps), 4) uint64 words ``SeedSequence(seed, spawn_key=(rep,))
    .generate_state(4, np.uint64)`` of each rep, for a nonnegative seed (an
    integer or a sequence of them) and integer reps in [0, 2**32), a bound
    its callers have checked (a study's chunks are ranges of a bounded count).

    numpy's ``SeedSequence(seed)`` mixes the seed, every entropy word but
    the last, the spawn key (rep,), into its pool; the hash constant that
    pool ends on has stepped once per word mixed: each pool word, each
    cross-mix and four for each later word.  The rep goes through the four
    hashmix and mix steps into the pool and through ``generate_state`` for
    all reps at once, in uint32 arithmetic, which wraps modulo 2**32 as
    SeedSequence's does.
    """
    words = _seed_words(seed)  # the seed rule, and its errors, before numpy's
    pool = np.random.SeedSequence(seed).pool.tolist()
    # a range as arange, 40 times faster than asarray at 800 reps
    r = np.arange(reps.start, reps.stop, reps.step) if isinstance(reps, range) else np.asarray(reps)
    # the hash constant the pool ends on, and the four the rep steps it through
    hs = _hash_consts(_INIT_A, _MULT_A, _POOL * (max(_POOL, len(words)) + 1))[-_POOL - 1 :]
    xor, mul, mixed = np.array([hs[:-1], hs[1:], [_MIX_L * p & _MASK32 for p in pool]], np.uint32)
    x = (r.astype(np.uint32)[:, None] ^ xor) * mul
    x ^= x >> 16
    x = mixed - _MIX_R * x
    x ^= x >> 16
    # generate_state(4, np.uint64): eight words off the cycled pool, paired little-endian
    s = (np.concatenate((x, x), axis=1) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    s ^= s >> 16
    return s.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _replication_rngs(seed, reps):
    """One generator per rep, each made as it is read and bit for bit
    ``default_rng(SeedSequence(seed, spawn_key=(rep,)))``: PCG64 seeded
    from the rep's words of ``_replication_states``."""
    seed_state = _seed_state_type()
    return (np.random.Generator(np.random.PCG64(seed_state(words))) for words in _replication_states(seed, reps))


def _u64(value: int) -> np.ndarray:
    return np.array(value, np.uint64)


# PCG64's 128-bit multiplier, as 64-bit halves and the 32-bit halves of its low word
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MULT_HI, _MULT_LO = _u64(_PCG_MULT >> 64), _u64(_PCG_MULT & (2**64 - 1))
_MULT_LO1, _MULT_LO0 = _u64(_PCG_MULT >> 32 & _MASK32), _u64(_PCG_MULT & _MASK32)
# shift counts and masks as uint64 too: a signed operand would promote to float64
_U1, _U11, _U32, _U58, _U63, _U64, _UM32 = (_u64(v) for v in (1, 11, 32, 58, 63, 64, _MASK32))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    # state * _PCG_MULT + inc modulo 2**128, on uint64 arrays of 64-bit halves:
    # the high word of lo * _MULT_LO from its four 32 x 32-bit partial products
    lo1, lo0 = lo >> _U32, lo & _UM32
    p01, p10 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (lo0 * _MULT_LO0 >> _U32) + (p01 & _UM32) + (p10 & _UM32)
    lo_mul_hi = lo1 * _MULT_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = lo_mul_hi + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _first_uniforms(seed, reps) -> np.ndarray:
    """Each rep's first ``random()``, bit for bit that of
    ``default_rng(SeedSequence(seed, spawn_key=(rep,)))``, computed from the
    words of ``_replication_states`` in uint64 arithmetic, with no generator.

    PCG64 (O'Neill 2014; numpy's pcg64.h) seeds itself from the words
    (w0, w1, w2, w3) with initstate = w0:w1 and increment inc = w2:w3 * 2 + 1
    (128-bit): from state 0 it steps to inc, adds initstate and steps again.
    A draw steps once more and outputs the XSL-RR word, hi ^ lo rotated
    right by hi >> 58; ``random()`` is its top 53 bits over 2**53.
    """
    w = _replication_states(seed, reps)
    inc_hi, inc_lo = w[:, 2] << _U1 | w[:, 3] >> _U63, w[:, 3] << _U1 | _U1
    lo = inc_lo + w[:, 1]
    hi = inc_hi + w[:, 0] + (lo < inc_lo)
    hi, lo = _pcg_step(*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> _U58
    out = x >> rot | x << ((_U64 - rot) & _U63)
    return (out >> _U11).astype(float) * 2.0**-53


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent generator for one replication of a seeded experiment:
    numpy's own ``default_rng(SeedSequence(seed, spawn_key=(rep,)))``, which
    pickles and spawns, for a nonnegative seed and 0 <= rep < 2**32.  Its
    stream is that of the study's replication ``rep``."""
    _seed_words(seed)  # the seed rule, and its errors, before numpy's
    rep = _integer("replication index", rep, 0, _MAX_REPS - 1)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def sample(p: PlAptParams, n: int, seed) -> Sample:
    """Draw n observations by inverse transform, deterministic per seed.

    The uniform stream comes from numpy's PCG64 generator (stable,
    documented algorithm), so a given seed reproduces the same sample
    across runs and platforms.  The seed is a nonnegative integer, a
    sequence of them, or a ``numpy.random.Generator`` to draw from.  The
    sample takes one n-point buffer: the uniforms are drawn into it, their
    quantiles written over them block by block and sorted in place, and
    the ``Sample`` holds that buffer.
    """
    n = _integer("n", n, 1, _MAX_COUNT)
    if not isinstance(seed, np.random.Generator):
        _seed_words(seed)  # the checks replication_rng makes of its seed
    rng = np.random.default_rng(seed)
    return Sample._of_sorted(_sorted_quantiles(p, rng.random(n)))


def order_stat_pdf(p: PlAptParams, spec: OrderStatSpec, x):
    """Density of the k-th order statistic of an i.i.d. sample of size n."""
    log_coef = (
        math.lgamma(spec.n + 1.0)
        - math.lgamma(spec.n - spec.k + 1.0)
        - math.lgamma(spec.k)
    )

    def block(b):
        r = _reliability_arr(p, b)
        # A term whose exponent is 0 is skipped, not formed as 0 * log(0) =
        # nan, so the density stays finite where the cdf or the reliability is 0.
        log_out = np.full_like(r, log_coef)
        with np.errstate(divide="ignore"):
            if spec.k > 1:
                log_out += (spec.k - 1) * np.log(1.0 - r)
            if spec.n > spec.k:
                log_out += (spec.n - spec.k) * np.log(r)
        del r  # the density's temporaries come next
        out = np.exp(log_out, out=log_out)
        out *= _pdf_arr(p, b)
        return out

    return _blockwise(block, x)


def median_order_stat_pdf(p: PlAptParams, m: int, x):
    """Density of the sample median of an odd sample of size n = 2m + 1."""
    m = _integer("m", m, 1)  # n = 2m + 1 meets OrderStatSpec's bound
    return order_stat_pdf(p, OrderStatSpec(n=2 * m + 1, k=m + 1), x)
