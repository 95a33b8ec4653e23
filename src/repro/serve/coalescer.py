"""Request-coalescing sampling front end (asyncio, stdlib only).

Serving many small ``sample(n_i)`` requests one by one repeats the whole
ancestral pass — one uniform block, one CDF inversion and one table
construction per attribute *per request*.  The coalescer batches instead:
requests arriving while the event loop drains land in one pending list,
and a single vectorized draw of ``sum(n_i)`` tuples
(:func:`~repro.core.sampler.sample_synthetic_split`) is sliced back per
request.  Slicing is pure post-processing of the one draw, so the
concatenated responses are **bit-identical** to the equivalent single
``sample(sum(n_i))`` — coalescing changes throughput, never output.

Determinism contract: the sampler owns one seeded stream; batch ``b``
draws exactly the uniforms that the concatenation of its requests (in
arrival order) would have drawn as one call.  Outputs therefore depend on
request arrival order and batch boundaries — inherent to any shared-
stream server — and both follow only from the order in which requests
reach the event loop, so a replay that sends the same requests in the
same order with the same seed reproduces every response exactly.

The draw runs on the loop, in the drain callback; there is no worker
thread.  A request arriving during a draw waits for it and joins the
next batch, drained once the draw returns.  So a long draw holds the
loop, as the synchronous ``SynthesisService.fit`` does.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

import numpy as np

from repro.core.privbayes import PrivBayesModel
from repro.core.rng import fallback_rng
from repro.core.sampler import sample_synthetic_split
from repro.data.table import Table


class CoalescingSampler:
    """Batches concurrent ``sample`` calls on one resident model.

    Requests queued before the loop runs the drain share one draw, made
    on the loop (a long draw holds it); one arriving during a draw joins
    the next batch.  Each response is a view that keeps its batch's
    ``(d, sum(n_i))`` int64 block alive.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.privbayes.PrivBayesModel` (typically
        out of the :class:`~repro.serve.registry.ModelRegistry`, caches
        warm).
    rng:
        The sampler's single seeded stream.  Pass one for reproducible
        serving; the default falls back to OS entropy via the sanctioned
        :func:`~repro.core.rng.fallback_rng`.
    """

    def __init__(
        self,
        model: PrivBayesModel,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._model = model
        self._rng = fallback_rng(rng)
        # Requests queued for the next drain; non-empty exactly while a
        # drain is scheduled.
        self._pending: List[Tuple[int, asyncio.Future]] = []
        self._closed = False
        #: Number of requests served by each coalesced draw, in draw
        #: order — ``[3, 1]`` means one batch of three then a singleton.
        self.batch_request_counts: List[int] = []
        #: Rows drawn per batch (parallel to ``batch_request_counts``).
        self.batch_row_counts: List[int] = []

    @property
    def model(self) -> PrivBayesModel:
        return self._model

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran: a closed sampler refuses requests."""
        return self._closed

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    async def sample(self, n: int) -> Table:
        """One request for ``n`` synthetic rows; coalesced transparently.

        All requests submitted before the loop reaches the drain callback
        (e.g. everything scheduled by one ``asyncio.gather``) share a
        single vectorized draw.  A closed sampler raises :class:`RuntimeError`.
        """
        if self._closed:
            raise RuntimeError("sampler is closed")
        n = int(n)
        if n < 0:
            raise ValueError("n must be non-negative")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self._pending:
            loop.call_soon(self._drain)
        self._pending.append((n, future))
        return await future

    def _drain(self) -> None:
        batch, self._pending = self._pending, []
        counts = [count for count, _ in batch]
        self.batch_request_counts.append(len(batch))
        self.batch_row_counts.append(sum(counts))
        try:
            tables = sample_synthetic_split(
                self._model.noisy,
                self._model.table_attributes,
                counts,
                self._rng,
            )
        except Exception as error:
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for table, (_, future) in zip(tables, batch):
            if not future.done():
                future.set_result(table)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new requests; those already queued are still served."""
        self._closed = True

    def __enter__(self) -> "CoalescingSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
