"""String commitment over unstructured noisy channels.

Library layout:

- ``gf2``: bit strings, GF(2) linear algebra, systematic linear codes
- ``hashing``: balanced 2-universal hashing and uniform preimage sampling
- ``entropy``: subnormalized distributions, trace distance, (smooth) min-entropy
- ``channel``: honest BSC, adversarial channel objects, typicality machinery
- ``protocol``: commit/reveal state machines and transcripts
- ``adversary``: concrete attacks and binding/hiding measurement harnesses
- ``bounds``: closed-form security bounds and achievable-rate formulas
- ``oracle``: brute-force ground truth at desk scale
- ``nqs``: the noisy-quantum-storage channel instantiation
- ``cli``: the ``usnc`` command-line entry point
"""

from .bounds import (achievable_rate, binary_entropy, binding_bound,
                     completeness_bound, hiding_bound, intersection_bound,
                     rate_tradeoff, rate_tradeoff_inverse)
from .channel import UsncParams, bsc_transmit, typical_membership, \
    typicality_tail_exact
from .entropy import (ClassicalDistribution, JointDistribution,
                      cond_min_entropy, gtd, min_entropy,
                      smooth_cond_min_entropy, smooth_min_entropy)
from .gf2 import BitString, LinearCode, hamming_distance, \
    random_linear_code, xor
from .hashing import HashSeed, hash_codeword, preimage_sample, sample_seed
from .protocol import ACC, REJ, CommitConfig, bob_verify, run_honest

__version__ = "0.1.0"

__all__ = [
    "ACC",
    "REJ",
    "BitString",
    "ClassicalDistribution",
    "CommitConfig",
    "HashSeed",
    "JointDistribution",
    "LinearCode",
    "UsncParams",
    "achievable_rate",
    "binary_entropy",
    "binding_bound",
    "bob_verify",
    "bsc_transmit",
    "completeness_bound",
    "cond_min_entropy",
    "gtd",
    "hamming_distance",
    "hash_codeword",
    "hiding_bound",
    "intersection_bound",
    "min_entropy",
    "preimage_sample",
    "random_linear_code",
    "rate_tradeoff",
    "rate_tradeoff_inverse",
    "run_honest",
    "sample_seed",
    "smooth_cond_min_entropy",
    "smooth_min_entropy",
    "typical_membership",
    "typicality_tail_exact",
    "xor",
]
