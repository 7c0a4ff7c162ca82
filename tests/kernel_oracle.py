"""The plain step-loop oracle of the keyed walk sweep.

:class:`ReferenceKernel` is the original chunked step loop, written for
clarity rather than speed.  Nothing in the library runs it: the kernel tests
and the kernel benchmark pin the fused
:class:`~repro.core.kernels.NumpyKernel` bit-identical against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_walks import (
    NO_VERTEX,
    _arc_uniforms,
    _pick_uniforms,
    local_arc_keys,
)
from repro.core.kernels import resolve_chunk_rows
from repro.graph.csr import CSRGraph


class ReferenceKernel:
    """The original chunked step loop — the bit-identity test oracle.

    ``sample`` has the same contract as
    :meth:`repro.core.kernels.NumpyKernel.sample`.
    """

    def sample(
        self,
        csr: CSRGraph,
        sources: np.ndarray,
        length: int,
        world_keys: np.ndarray,
        chunk_rows: "int | None" = None,
        first_steps: "np.ndarray | None" = None,
    ) -> np.ndarray:
        if first_steps is None:
            first_steps = np.zeros(sources.shape[0], dtype=np.int64)
        rows = resolve_chunk_rows(csr, length, chunk_rows)
        if sources.size <= rows:
            return self._sample_chunk(csr, sources, length, world_keys, first_steps)
        return np.concatenate(
            [
                self._sample_chunk(
                    csr,
                    sources[start : start + rows],
                    length,
                    world_keys[start : start + rows],
                    first_steps[start : start + rows],
                )
                for start in range(0, sources.size, rows)
            ],
            axis=0,
        )

    @staticmethod
    def _sample_chunk(
        csr: CSRGraph,
        sources: np.ndarray,
        length: int,
        world_keys: np.ndarray,
        first_steps: np.ndarray,
    ) -> np.ndarray:
        """One chunk of the step loop, in the ragged flat arc layout.

        Row ``r`` stands on its source at step ``first_steps[r]`` and walks
        on from there.
        """
        count = sources.shape[0]
        walks = np.full((count, length + 1), NO_VERTEX, dtype=np.int64)
        walks[np.arange(count), first_steps] = sources
        if count == 0 or length == 0:
            return walks

        active = np.empty(0, dtype=np.int64)
        current = sources.astype(np.int64, copy=True)
        indptr, indices, probs = csr.indptr, csr.indices, csr.probs
        for step in range(length):
            active = np.concatenate((active, np.flatnonzero(first_steps == step)))
            if active.size == 0:
                continue
            vertices = current[active]
            starts = indptr[vertices]
            degrees = indptr[vertices + 1] - starts
            has_out = degrees > 0
            active, vertices = active[has_out], vertices[has_out]
            starts, degrees = starts[has_out], degrees[has_out]
            if active.size == 0:
                continue
            # Flat ragged layout: one entry per candidate (walk, out-arc)
            # pair, so the per-step work is the actual arc count, not
            # walks × max-degree.
            row_starts = np.concatenate(([0], degrees.cumsum()))
            flat_row = np.repeat(np.arange(active.size), degrees)
            offsets = np.arange(row_starts[-1]) - row_starts[flat_row]
            arc_ids = starts[flat_row] + offsets
            # The existence draw is keyed by (source vertex, row offset),
            # never by the arc's global CSR position.
            arc_keys = local_arc_keys(vertices[flat_row], offsets)
            uniforms = _arc_uniforms(world_keys[active][flat_row], arc_keys)
            exists = (uniforms < probs[arc_ids]).astype(np.int64)
            instantiated = np.add.reduceat(exists, row_starts[:-1])
            alive = instantiated > 0
            # Uniform choice among the instantiated arcs of each walk: pick
            # the (picks + 1)-th instantiated arc by its within-row count.
            picks = (_pick_uniforms(world_keys[active], step) * instantiated).astype(
                np.int64
            )
            cumulative = exists.cumsum()
            row_base = cumulative[row_starts[:-1]] - exists[row_starts[:-1]]
            within = cumulative - row_base[flat_row]
            chosen = np.flatnonzero(exists & (within == picks[flat_row] + 1))
            destinations = indices[arc_ids[chosen]]
            active = active[alive]
            walks[active, step + 1] = destinations
            current[active] = destinations
        return walks
