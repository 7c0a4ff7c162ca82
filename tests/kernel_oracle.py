"""The plain step-loop oracle of the keyed walk sweep.

:class:`ReferenceKernel` is the chunked step loop of the keyed-rejection
scheme, written for clarity rather than speed.  Nothing in the library runs it: the kernel tests
and the kernel benchmark pin the fused
:class:`~repro.core.kernels.NumpyKernel` bit-identical against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_walks import (
    NO_VERTEX,
    TRIES,
    _arc_uniforms,
    _pick_uniforms,
    local_arc_keys,
)
from repro.core.kernels import resolve_chunk_rows
from repro.graph.csr import CSRGraph


class ReferenceKernel:
    """The plain chunked step loop — the bit-identity test oracle.

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
        rows = resolve_chunk_rows(chunk_rows)
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
            keys = world_keys[active]
            # Keyed rejection: try ``t`` draws one offset of the row from the
            # ``(world key, step, t)`` stream and takes that arc if it exists
            # in the walk's world.  The existence draw is keyed by (source
            # vertex, row offset), never by the arc's global CSR position.
            chosen = np.full(active.size, -1, dtype=np.int64)
            for attempt in range(TRIES):
                open_rows = np.flatnonzero(chosen < 0)
                offsets = (
                    _pick_uniforms(keys[open_rows], step, attempt) * degrees[open_rows]
                ).astype(np.int64)
                arc_ids = starts[open_rows] + offsets
                uniforms = _arc_uniforms(
                    keys[open_rows], local_arc_keys(vertices[open_rows], offsets)
                )
                hit = uniforms < probs[arc_ids]
                chosen[open_rows[hit]] = arc_ids[hit]
            # Fallback for rows every try missed: enumerate the row's arcs in
            # the flat ragged layout and pick the (picks + 1)-th instantiated
            # one under the try-``TRIES`` uniform; a row with none is dead.
            rest = np.flatnonzero(chosen < 0)
            if rest.size:
                rest_degrees = degrees[rest]
                row_starts = np.concatenate(([0], rest_degrees.cumsum()))
                flat_row = np.repeat(np.arange(rest.size), rest_degrees)
                offsets = np.arange(row_starts[-1]) - row_starts[flat_row]
                arc_ids = starts[rest][flat_row] + offsets
                arc_keys = local_arc_keys(vertices[rest][flat_row], offsets)
                uniforms = _arc_uniforms(keys[rest][flat_row], arc_keys)
                exists = (uniforms < probs[arc_ids]).astype(np.int64)
                instantiated = np.add.reduceat(exists, row_starts[:-1])
                picks = (
                    _pick_uniforms(keys[rest], step, TRIES) * instantiated
                ).astype(np.int64)
                cumulative = exists.cumsum()
                row_base = cumulative[row_starts[:-1]] - exists[row_starts[:-1]]
                within = cumulative - row_base[flat_row]
                taken = np.flatnonzero(exists & (within == picks[flat_row] + 1))
                chosen[rest[instantiated > 0]] = arc_ids[taken]
            alive = chosen >= 0
            active = active[alive]
            destinations = indices[chosen[alive]]
            walks[active, step + 1] = destinations
            current[active] = destinations
        return walks
