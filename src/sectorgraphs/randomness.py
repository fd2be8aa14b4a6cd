"""Deterministic random-stream discipline for seeded Monte Carlo trials.

Every trial owns an independent stream derived from ``(master_seed,
trial_index)`` with the splitmix64 finalizer, so realizations are
bit-reproducible regardless of execution order or worker count.

Draw-order contract for one trial (see ``model.sample_graph``):

1. Poisson vertex count (poisson mode only), from the trial generator.
2. Vertex positions, one ``(N, 2)`` uniform block.
3. Vertex orientations, one ``(N,)`` uniform block scaled to ``[0, 2*pi)``.
4. Alive flags, one ``(N,)`` uniform block compared against ``1 - v``.
5. Per-ordered-pair edge-fault uniforms are *counter-based*: the uniform
   for pair ``(i, j)`` is a pure hash of ``(master_seed, trial_index, i, j)``
   and never consumes generator state, so they may be drawn lazily for any
   subset of pairs in any order.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB

# Domain separators so trial seeds and edge keys never collide.
_DOMAIN_TRIAL = 0x54524941
_DOMAIN_EDGE = 0x45444745


def mix64(z: int) -> int:
    """splitmix64 finalizer: advance by the golden gamma, then scramble."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MULT_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT_B) & _MASK64
    return z ^ (z >> 31)


def derive_key(*parts: int) -> int:
    """Chain-mix integer parts into one 64-bit key.

    ``h_0 = 0`` and ``h_{t+1} = mix64(h_t XOR part_t)``; the order of parts
    is significant, and a part that is not an integer raises ``TypeError``.
    """
    h = 0
    for p in parts:
        h = mix64(h ^ (operator.index(p) & _MASK64))
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each element of the uint64 array ``z``, as a new array."""
    # A 0-d input makes numpy scalars, whose wrap-around would warn.
    with np.errstate(over="ignore"):
        z = z + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT_B)
    return z ^ (z >> np.uint64(31))


class TrialStream:
    """All randomness consumed by one trial.

    ``generator`` is the sequential source for vertex-level draws;
    ``pair_uniforms`` is the counter-based source for edge faults.
    """

    def __init__(self, master_seed: int, trial_index: int):
        self.trial_seed = derive_key(master_seed, trial_index, _DOMAIN_TRIAL)
        self._edge_key = np.uint64(derive_key(master_seed, trial_index, _DOMAIN_EDGE))
        self.generator = np.random.Generator(np.random.PCG64(self.trial_seed))

    def pair_uniforms(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Uniform in [0, 1) for each ordered index pair, independent of call order."""
        i, j = np.asarray(i, dtype=np.uint64), np.asarray(j, dtype=np.uint64)
        h = _mix64_array(_mix64_array(i ^ self._edge_key) ^ j)
        # Top 53 bits -> float64 uniform on [0, 1).
        return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def pair_uniform(self, i: int, j: int) -> float:
        h = mix64(int(self._edge_key) ^ (int(i) & _MASK64))
        h = mix64(h ^ (int(j) & _MASK64))
        return (h >> 11) * 2.0**-53


def substream(master_seed: int, *labels: int) -> np.random.Generator:
    """Named auxiliary generator (area estimates, outer Monte Carlo, bootstrap)."""
    return np.random.Generator(np.random.PCG64(derive_key(master_seed, *labels)))
