"""Channel regimes: honest n-fold BSC, adversarial channels, typicality.

Adversarial channels are explicit finite probability tables at desk scale
(dense laws over 2^n outputs, or over a finite view space), plus named
analytic families for larger n. Every BSC law, the sender's or a view, is
``bsc_weight_mass`` gathered at ``hamming_distances``, the one distance
kernel, which the window masks and the oracles read too. The
entropic-constraint checks quantify only over the inputs a channel has (each
sender label, a uniform receiver input): a universally quantified condition
can be falsified but never proven by an artifact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .entropy import (_MASS_TOL, ClassicalDistribution, JointDistribution,
                      smooth_cond_min_entropy, smooth_min_entropy)
from .gf2 import BitString

__all__ = [
    "UsncParams",
    "AliceChannel",
    "BobChannel",
    "CheckReport",
    "bsc_transmit",
    "typical_window",
    "typical_window_mask",
    "typical_membership",
    "typicality_tail_exact",
    "check_c2",
    "check_c3",
    "bsc_law_dense",
    "bsc_weight_mass",
    "hamming_distances",
]

_DENSE_N_LIMIT = 20


def _check_block_length(n) -> None:
    """Refuse a block length n that is not an int (numpy ints pass) >= 1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("need an int n >= 1, got %r" % (n,))


@dataclass(frozen=True)
class UsncParams:
    """Channel model parameters (p, eps_a, l_a, eps_b, l_b) at block length n.

    n is a positive int. Each entropy floor is nonnegative, never NaN, and
    may be inf: ``nqs.nqs_channel_params`` reports the receiver floor of a
    storage channel that never succeeds as l_b = inf.
    """

    n: int
    p: float
    eps_a: float
    l_a: float
    eps_b: float
    l_b: float

    def __post_init__(self):
        _check_block_length(self.n)
        if not 0.0 < self.p < 0.5:
            raise ValueError("need 0 < p < 1/2")
        for name in ("eps_a", "eps_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1]" % name)
        for name in ("l_a", "l_b"):
            if not getattr(self, name) >= 0.0:  # also refuses NaN
                raise ValueError("%s must be nonnegative" % name)


def bsc_transmit(x: BitString, p: float, rng: np.random.Generator) -> BitString:
    """Flip each bit of x independently with probability p.

    Honest use keeps 0 < p < 1/2 (enforced by the parameter types); the
    primitive itself accepts the closed range so attack channels can run at
    p = 0 (noiseless) or p = 1/2 (uniform output).
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError("need 0 <= p <= 1/2")
    flips = (rng.random(len(x)) < p).astype(np.uint8)
    return BitString._wrap(np.bitwise_xor(x.bits, flips))


@functools.lru_cache(maxsize=1024)
def typical_window(n: int, p: float, eps: float) -> tuple[int, int]:
    """Integer edges (w_lo, w_hi) of the window n(p - eps) <= w <= n(p + eps).

    p and eps are read as the decimals they print as (0.1 is 1/10), so the
    edges are exact: n = 5, p = 0.02, eps = 0.18 gives w_hi = 1, where the
    float product is 0.9999999999999999. Edges are clipped to [0, n]; the
    window is empty when w_lo > w_hi.
    """
    for name, value in (("p", p), ("eps", eps)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite" % name)
    pf, ef = Fraction(repr(float(p))), Fraction(repr(float(eps)))
    return (max(0, math.ceil(n * (pf - ef))),
            min(n, math.floor(n * (pf + ef))))


def typical_window_mask(n: int, centers, p: float, eps: float) -> np.ndarray:
    """Whether HD(c, z) lies in ``typical_window(n, p, eps)``, laid out as
    ``hamming_distances(n, centers)``: int centres c of any shape, then
    every n-bit string z in integer order along a new last axis.

    One uint8 table is built and compared in place: d - w_lo wraps past
    255 below the window, so w_lo <= d <= w_hi reads d - w_lo <= w_hi - w_lo.
    """
    w_lo, w_hi = typical_window(n, p, eps)
    d = hamming_distances(n, centers)
    if w_lo > w_hi:  # an empty window
        d.fill(0)
    else:
        d -= np.uint8(w_lo)
        np.less_equal(d, np.uint8(w_hi - w_lo), out=d.view(bool))
    return d.view(bool)


def typical_membership(x: BitString, z: BitString, p: float,
                       eps: float) -> bool:
    """n(p - eps) <= HD(x, z) <= n(p + eps), inclusive, at exact edges."""
    d = (x ^ z).weight()  # refuses a length mismatch
    w_lo, w_hi = typical_window(len(x), p, eps)
    return w_lo <= d <= w_hi


def typicality_tail_exact(n: int, p: float, eps: float) -> float:
    """Exact probability that BSC noise weight falls outside the window.

    Binomial(n, p) mass at weights outside ``typical_window(n, p, eps)``,
    summed in log space; independent of the transmitted string by symmetry.
    The binomial coefficients come from a table of log-factorials built
    with ``math.lgamma``, and the terms are summed shifted by their maximum.
    """
    if not 1 <= n <= 10 ** 6:
        raise ValueError("need 1 <= n <= 10^6")
    if not 0.0 < p < 0.5 or eps < 0.0:
        raise ValueError("need 0 < p < 1/2 and eps >= 0")
    w_lo, w_hi = typical_window(n, p, eps)
    w = np.arange(n + 1)
    w = w[(w < w_lo) | (w > w_hi)]
    if not w.size:
        return 0.0
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)),
                           dtype=np.float64, count=n + 1)  # log(i!) at i
    logpmf = (log_fact[n] - log_fact[w] - log_fact[n - w]
              + w * math.log(p) + (n - w) * math.log(1.0 - p))
    top = logpmf.max()
    return math.exp(top + math.log(np.exp(logpmf - top).sum()))


def hamming_distances(n: int, centers) -> np.ndarray:
    """uint8 popcount(c ^ z) for int centres c in [0, 2^n) (any shape) along
    a new last axis over every n-bit string z in integer order (bit i =
    coordinate i): z = high * 2^8 + low, and the popcounts of each part (the
    high one in uint8 to n = 16, uint16 above) add in one broadcast."""
    if n > _DENSE_N_LIMIT:
        raise ValueError("dense tables limited to n <= %d" % _DENSE_N_LIMIT)
    c = np.asarray(centers, dtype=np.int64)
    if c.size and not 0 <= c.min() <= c.max() < 1 << n:
        raise ValueError("centres %d..%d outside [0, 2^%d)"
                         % (c.min(), c.max(), n))
    low = min(n, 8)
    high = np.uint8 if n <= 16 else np.uint16
    d_low = np.bitwise_count(c.astype(np.uint8)[..., None]  # the low byte
                             ^ np.arange(1 << low, dtype=np.uint8))
    d_high = np.bitwise_count((c >> low).astype(high)[..., None]
                              ^ np.arange(1 << (n - low), dtype=high))
    return (d_high[..., None] + d_low[..., None, :]).reshape(
        c.shape + (1 << n,))


def bsc_weight_mass(n: int, p: float) -> np.ndarray:
    """Mass BSC(p) noise on n bits puts on one string at each distance 0..n
    from the input: p^d (1-p)^(n-d), exact 0/1 at p in {0, 1}.

    Each log is taken once by ``math.log``, and a zero multiplier gives 0
    even where its log is -inf: the arithmetic of ``scipy.special.xlogy``,
    bit for bit. For p NaN or outside [0, 1] the entries that need the log
    of NaN or of a negative number are NaN, as there, without a warning.
    """
    d = np.arange(n + 1, dtype=np.float64)
    log_mass = np.zeros(n + 1)
    log_mass[1:] = d[1:] * _log_or_nan(p)
    log_mass[:-1] += (n - d[:-1]) * _log_or_nan(1.0 - p)
    return np.exp(log_mass)


def _log_or_nan(x: float) -> float:
    """``math.log`` extended to log(0) = -inf and NaN below 0 or at NaN."""
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def bsc_law_dense(n: int, center: BitString, p: float) -> ClassicalDistribution:
    """Dense output law of BSC(p) noise around ``center``, over all 2^n strings."""
    if len(center) != n:
        raise ValueError("center has %d bits, law needs n = %d"
                         % (len(center), n))
    return ClassicalDistribution(
        bsc_weight_mass(n, p)[hamming_distances(n, center.to_int())])


class AliceChannel:
    """Dishonest-sender channel: input label -> distribution over n-bit outputs.

    Keeps the law of the latest label ``law`` built, and nothing else: the
    entropy check and exact binding ask for one label many times in a row,
    while a dict of every label would hold 2^n floats per label.
    ``certified`` is set by check_c2 and consumed by the adversary harness so
    bound comparisons only involve constraint-satisfying channels.
    """

    def __init__(self, n: int, labels, law_fn, sample_fn):
        self.n = n
        self.labels = list(labels)
        if not self.labels:
            raise ValueError("a sender channel needs at least one label")
        self._law_fn = law_fn
        self._latest = None  # (label, law) of the latest law built
        self._sample_fn = sample_fn
        self.certified = False

    def law(self, label) -> ClassicalDistribution:
        """Output law of ``label`` (read-only mass), built unless it is the
        label asked for last."""
        if self._latest is None or self._latest[0] != label:
            self._latest = (label, self._law_fn(label))
        return self._latest[1]

    def sample(self, label, rng: np.random.Generator) -> BitString:
        return self._sample_fn(label, rng)

    @classmethod
    def bsc(cls, n: int, centers, spread: float) -> "AliceChannel":
        """Label i is BSC(spread) noise around ``centers[i]`` (BitStrings)."""
        centers = list(centers)
        return cls(n, range(len(centers)),
                   lambda i: bsc_law_dense(n, centers[i], spread),
                   lambda i, rng: bsc_transmit(centers[i], spread, rng))


class BobChannel:
    """Dishonest-receiver view channel: n-bit input -> distribution over views.

    Keeps the view-law table (``build_table()`` runs on first use) and the
    joint with a uniform input, each built once.
    """

    def __init__(self, n: int, view_size: int, build_table):
        self.n = n
        self.view_size = view_size
        self._build_table = build_table
        self._law_table = None
        self._joint = None
        self.certified = False

    def law_table(self) -> np.ndarray:
        """(2^n, view_size) view laws of every input; row x is the law of
        the n-bit string whose bit i is coordinate i.

        Built on the first call, as float64, and returned read-only from then
        on. The first call refuses a table of another shape, a NaN or
        negative entry, or a row whose mass is above 1 (both up to the
        tolerance of ``entropy._checked_mass``).
        """
        if self._law_table is None:
            table = np.asarray(self._build_table(), dtype=np.float64)
            if table.shape != (1 << self.n, self.view_size):
                raise ValueError("view-law table has shape %s, not (2^n, "
                                 "view_size) = (%d, %d)" % (
                                     table.shape, 1 << self.n, self.view_size))
            low = table.min(initial=0.0)  # NaN if any entry is NaN
            if not low >= -_MASS_TOL:
                raise ValueError("view-law table holds %s probability mass"
                                 % ("NaN" if np.isnan(low) else "negative"))
            row_mass = table.sum(axis=1)
            row = int(row_mass.argmax())
            if row_mass[row] > 1.0 + _MASS_TOL:
                raise ValueError("view law of input %d has mass %r > 1"
                                 % (row, float(row_mass[row])))
            table.setflags(write=False)
            self._law_table = table
        return self._law_table

    def joint_with_uniform_input(self) -> JointDistribution:
        """Joint (input, view) mass under a uniform n-bit input; built on
        the first call and returned from then on."""
        if self._joint is None:
            if self.n + int(np.log2(self.view_size)) > _DENSE_N_LIMIT:
                raise ValueError("joint too large to enumerate")
            self._joint = JointDistribution(self.law_table() / (1 << self.n))
        return self._joint

    @classmethod
    def bsc_view(cls, n: int, p_b: float) -> "BobChannel":
        """View = transmitted string through BSC(p_b); p_b = 0 is the identity."""
        return cls(n, 1 << n, lambda: bsc_weight_mass(n, p_b)[
            hamming_distances(n, np.arange(1 << n))])


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    achieved: float
    required: float
    witness: object = None

    def __str__(self):
        status = "pass" if self.passed else "VIOLATION"
        extra = "" if self.witness is None else " at %r" % (self.witness,)
        return "%s: achieved %.6g, required %.6g%s" % (
            status, self.achieved, self.required, extra)


def check_c2(ch: AliceChannel, params: UsncParams) -> CheckReport:
    """Verify the dishonest-sender floor: every output law keeps
    smooth min-entropy >= l_a at smoothing eps_a; sets ch.certified."""
    _check_length(ch, params)
    if ch.n > _DENSE_N_LIMIT:
        raise ValueError("exact check needs n <= %d" % _DENSE_N_LIMIT)
    worst, index = min((smooth_min_entropy(ch.law(label), params.eps_a), i)
                       for i, label in enumerate(ch.labels))
    return _verdict(ch, worst, params.l_a, ch.labels[index])


def check_c3(ch: BobChannel, params: UsncParams) -> CheckReport:
    """Verify the dishonest-receiver floor: smooth conditional min-entropy of
    a uniform input given the view is >= l_b at smoothing eps_b."""
    _check_length(ch, params)
    joint = ch.joint_with_uniform_input()
    return _verdict(ch, smooth_cond_min_entropy(joint, params.eps_b),
                    params.l_b)


def _verdict(ch, achieved: float, required: float,
             witness=None) -> CheckReport:
    """The report of a channel check, with the witness only on failure;
    sets ch.certified to whether achieved >= required."""
    passed = bool(achieved >= required)
    ch.certified = passed
    return CheckReport(passed=passed, achieved=float(achieved),
                       required=required, witness=None if passed else witness)


def _check_length(ch, params: UsncParams) -> None:
    """Refuse to certify a channel at another block length than params'."""
    if ch.n != params.n:
        raise ValueError("channel has n = %d, params are for n = %d"
                         % (ch.n, params.n))
