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

Import from the submodules; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
