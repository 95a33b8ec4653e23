"""Online synthesis service (ROADMAP item 1).

The paper's concluding remarks observe that sampling and inference from
the fitted network are free post-processing; this package turns that into
a serving layer: fit once, keep the model (with its cached row CDFs)
resident, and answer synthetic-row and marginal requests at memory speed
while a per-dataset ledger enforces cumulative ε across repeated fits.

Three components, each usable on its own:

* :class:`~repro.serve.ledger.DatasetLedger` — thread-safe, persistent
  per-dataset :class:`~repro.dp.accountant.PrivacyAccountant`; every
  ``PrivBayes.fit(..., accountant=...)`` reserves its whole ε before
  touching the data, and grants survive process restarts.
* :class:`~repro.serve.registry.ModelRegistry` — fitted
  :class:`~repro.core.privbayes.PrivBayesModel`\\ s resident in memory,
  keyed on ``(dataset, config)``, persisted via the atomic
  :func:`~repro.core.serialize.save_model` path for warm restarts.
* :class:`~repro.serve.coalescer.CoalescingSampler` — an asyncio front
  end that batches concurrent ``sample(n_i)`` requests into one
  vectorized draw (bit-identical to the equivalent single draw, sliced).

:class:`~repro.serve.service.SynthesisService` wires the three together
under one root directory and answers marginal workloads directly from a
registered model (:meth:`~repro.serve.service.SynthesisService.marginals`);
``python -m repro.serve`` is the CLI.
"""

from repro.serve.coalescer import CoalescingSampler
from repro.serve.ledger import DatasetLedger
from repro.serve.registry import ModelRegistry, registry_key
from repro.serve.service import SynthesisService

__all__ = [
    "CoalescingSampler",
    "DatasetLedger",
    "ModelRegistry",
    "SynthesisService",
    "registry_key",
]
