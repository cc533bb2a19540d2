"""Conjugate-coding channel from noisy quantum storage.

The honest case is fully analytic: each round sends H^theta |x>, the receiver
measures the intermediate basis pi/8 off the rotated axis, and the corrected
outcome is wrong with probability sin^2(pi/8) regardless of the basis bits,
i.e. the rounds compose to a BSC(sin^2(pi/8)). Simulation therefore samples
closed-form single-qubit outcome probabilities; no state vectors are needed.
Dishonest-party guarantees are consumed as parameter formulas only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import binary_entropy
from .channel import UsncParams
from .gf2 import BitString

__all__ = [
    "SIN2_PI_8",
    "COS2_PI_8",
    "NqsParams",
    "measure_prob",
    "Protocol2Run",
    "run_conjugate_channel",
    "PovmReport",
    "povm_verify",
    "azuma_min_entropy",
    "nqs_channel_params",
    "bounded_storage_success_log2",
]

SIN2_PI_8 = math.sin(math.pi / 8) ** 2
COS2_PI_8 = math.cos(math.pi / 8) ** 2


@dataclass(frozen=True)
class NqsParams:
    """Free parameters of the storage-channel construction at block length n.

    ``p_succ_log2`` maps a bit count nR to log2 of the maximal success
    probability of pushing nR uniform bits through the storage channel. The
    log form stays exact at block lengths where the probability itself
    underflows; -inf means the channel never succeeds.
    """

    n: int
    lambda_a: float
    lambda_b: float
    p_succ_log2: Callable[[float], float]

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError("need n >= 1")
        for name in ("lambda_a", "lambda_b"):
            v = getattr(self, name)
            if not 0.0 < v < 0.5:
                raise ValueError("%s must be in (0, 1/2)" % name)


def _plus_one_eigenvector(theta_prime: int) -> np.ndarray:
    """+1 eigenvector of (sigma_z + (-1)^theta' sigma_x)/sqrt(2)."""
    angle = math.pi / 8 if theta_prime == 0 else -math.pi / 8
    return np.array([math.cos(angle), math.sin(angle)])


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def measure_prob(theta: int, theta_prime: int, x: int) -> float:
    """Probability of raw outcome K = 0 on state H^theta |x>.

    K = 0 is the +1 eigenvalue of the measured observable; the corrected
    output Z = K xor (theta & theta') then differs from x with probability
    sin^2(pi/8) for every basis pair.
    """
    for b in (theta, theta_prime, x):
        if b not in (0, 1):
            raise ValueError("arguments must be bits")
    state = np.zeros(2)
    state[x] = 1.0
    if theta:
        state = _HADAMARD @ state
    amp = float(_plus_one_eigenvector(theta_prime) @ state)
    return amp * amp


_K0_TABLE = np.array([[[measure_prob(t, tp, x) for x in (0, 1)]
                       for tp in (0, 1)] for t in (0, 1)])


@dataclass(frozen=True)
class Protocol2Run:
    z: BitString
    theta: np.ndarray
    theta_prime: np.ndarray
    k: np.ndarray


def run_conjugate_channel(x: BitString,
                          rng: np.random.Generator) -> Protocol2Run:
    """Honest run of the storage-based channel on input x.

    Per round: uniform basis bits theta (sender) and theta' (receiver), raw
    outcome K from the closed-form probability, output Z = K xor
    (theta & theta'). Rounds are independent; generators in the same state
    give the same transcript.
    """
    n = len(x)
    theta = rng.integers(0, 2, size=n, dtype=np.uint8)
    theta_prime = rng.integers(0, 2, size=n, dtype=np.uint8)
    p_k0 = _K0_TABLE[theta, theta_prime, x.bits]
    k = (rng.random(n) >= p_k0).astype(np.uint8)
    z = k ^ (theta & theta_prime)
    return Protocol2Run(z=BitString(z), theta=theta,
                        theta_prime=theta_prime, k=k)


# Largest deviation ``povm_verify`` accepts in completeness and eigenvalues.
_POVM_TOL = 1e-12


@dataclass(frozen=True)
class PovmReport:
    completeness_error: float
    min_eigenvalue: float
    max_eigenvalue_err: float
    passed: bool


def povm_verify() -> PovmReport:
    """Check the receiver's measurement-plus-postprocessing operator pair.

    The operators act on (announced basis bit) x (qubit). Completeness
    requires the outcome-1 operator to complement the outcome-0 one with
    pi/minus projectors in both basis blocks; both operators must be PSD with
    maximal eigenvalue cos^2(pi/8) (the uncertainty constant).
    """
    pi0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    pi1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    pip = np.array([[0.5, 0.5], [0.5, 0.5]])
    pim = np.array([[0.5, -0.5], [-0.5, 0.5]])
    e0 = 0.5 * (np.kron(pi0, pi0 + pip) + np.kron(pi1, pi1 + pip))
    e1 = 0.5 * (np.kron(pi0, pi1 + pim) + np.kron(pi1, pi0 + pim))
    completeness = float(np.abs(e0 + e1 - np.eye(4)).max())
    eig0 = np.linalg.eigvalsh(e0)
    eig1 = np.linalg.eigvalsh(e1)
    min_eig = float(min(eig0.min(), eig1.min()))
    max_err = float(max(abs(eig0.max() - COS2_PI_8),
                        abs(eig1.max() - COS2_PI_8)))
    passed = completeness <= _POVM_TOL and min_eig >= -_POVM_TOL \
        and max_err <= _POVM_TOL
    return PovmReport(completeness_error=completeness, min_eigenvalue=min_eig,
                      max_eigenvalue_err=max_err, passed=passed)


def azuma_min_entropy(h_floor: float, n: int, lam: float, alphabet_size: int):
    """Sequence-level smooth min-entropy floor from per-round Shannon floors.

    Returns (bound, eps) with bound = (h_floor - 2 lam) n, clamped at zero
    with a warning when the penalty swallows the floor, and
    eps = exp(-lam^2 n / (32 log2(alphabet/lam)^2)).
    """
    if not 0.0 < lam < 0.5:
        raise ValueError("need 0 < lam < 1/2")
    if not (n >= 1 and alphabet_size >= 2 and h_floor >= 0):
        raise ValueError("bad arguments")
    bound = (h_floor - 2.0 * lam) * n
    if bound < 0.0:
        warnings.warn("penalty 2*lam exceeds the per-round floor; "
                      "clamping the bound to 0")
        bound = 0.0
    return bound, _azuma_eps(lam, n, math.log2(alphabet_size / lam))


def _azuma_eps(lam: float, n: int, log_term: float) -> float:
    """Azuma smoothing exp(-lam^2 n / (32 log_term^2))."""
    return math.exp(-lam * lam * n / (32.0 * log_term * log_term))


def nqs_channel_params(params: NqsParams) -> UsncParams:
    """Entropic channel parameters achieved by the storage-based construction.

    l_a = (h(sin^2 pi/8) - 2 lam_a) n with
    eps_a = exp(-lam_a^2 n / (32 (1 - log2 lam_a)^2));
    l_b = -p_succ_log2((1/2 - lam_b) n) with
    eps_b = 2 exp(-(lam_b/4)^2 n / (32 (2 + log2(4/lam_b))^2));
    the honest noise level is sin^2(pi/8).
    """
    n = params.n
    h_round = binary_entropy(SIN2_PI_8)
    l_a, eps_a = azuma_min_entropy(h_round, n, params.lambda_a, 2)
    lam_b = params.lambda_b
    eps_b = 2.0 * _azuma_eps(lam_b / 4.0, n, math.log2(4.0 / lam_b) + 2.0)
    l_b = -params.p_succ_log2((0.5 - lam_b) * n)
    if not l_b >= -1e-9:  # also refuses NaN
        raise ValueError("p_succ_log2 must be <= 0")
    if l_b == math.inf:
        warnings.warn("p_succ_log2 returned -inf; the receiver entropy floor "
                      "is unbounded (reported as inf)")
    return UsncParams(n=n, p=SIN2_PI_8, eps_a=min(eps_a, 1.0), l_a=l_a,
                      eps_b=min(eps_b, 1.0), l_b=max(l_b, 0.0))


def bounded_storage_success_log2(n_r: float, d: int) -> float:
    """log2 min(1, 2^(d - nR)): success of storing nR bits in d qubits."""
    if not d >= 0:
        raise ValueError("need d >= 0")
    if not n_r >= 0:
        raise ValueError("need nR >= 0")
    return min(0.0, d - n_r)
