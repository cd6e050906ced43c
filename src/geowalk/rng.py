"""Deterministic random-stream construction.

Every stochastic routine in the package takes either an explicit
``numpy.random.Generator`` or a ``(seed, chain_id)`` pair.  The pair is turned
into an independent stream with ``SeedSequence(seed, spawn_key=(chain_id,))``,
so concurrent chains, annealing trials, and diagnostic replicas never share a
stream and rerunning with the same pair reproduces byte-identical output.

A walk draws its randomness in blocks of at most :data:`BLOCK` steps: the
block's tangent normals ``standard_normal((m, tangent_dim))``, then its
uniforms ``random(m)``.  ``run_chain`` and each trial of ``anneal_trials``
draw this way, through ``walk._drawn_slices``, so a chain or trial does not
depend on how it steps through a block.  ``BLOCK`` fixes how a stream
splits into normals and uniforms: changing it changes results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

BLOCK = 4096


def stream(seed: int, chain_id: int = 0) -> np.random.Generator:
    """Return the PCG64 generator for stream ``chain_id`` of ``seed``."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(chain_id),))
    return np.random.Generator(np.random.PCG64(ss))
