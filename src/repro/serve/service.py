"""The synthesis service: registry + ledger + coalescers under one root.

``SynthesisService`` is the piece a server process instantiates once:
it owns a :class:`~repro.serve.registry.ModelRegistry` (resident fitted
models, persisted for warm restarts), a
:class:`~repro.serve.ledger.DatasetLedger` (cumulative ε per dataset,
persisted before any grant is usable) and one
:class:`~repro.serve.coalescer.CoalescingSampler` per registered model.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bn.inference import model_marginals
from repro.core.privbayes import PrivBayes, PrivBayesConfig, PrivBayesModel
from repro.serve.coalescer import CoalescingSampler
from repro.serve.ledger import DatasetLedger
from repro.serve.registry import ModelRegistry

PathLike = Union[str, Path]

#: File layout under a service root.
MODELS_DIRNAME = "models"
LEDGER_FILENAME = "ledger.json"


class _Reservation:
    """The dataset's ledger account, opened at the fit's one ``spend``.

    :meth:`PrivBayes.fit <repro.core.privbayes.PrivBayes.fit>` charges its
    external accountant only after its config checks, so opening the
    account there (registering a new dataset's budget) leaves the ledger
    untouched by a refused config.
    """

    def __init__(
        self, ledger: DatasetLedger, dataset: str, budget: Optional[float]
    ) -> None:
        self._ledger = ledger
        self._dataset = dataset
        self._budget = budget

    def spend(self, label: str, epsilon: float) -> float:
        account = self._ledger.accountant(self._dataset, self._budget)
        return account.spend(label, epsilon)


class SynthesisService:
    """Fit-once, serve-forever front end over the PrivBayes pipeline.

    Parameters
    ----------
    root:
        Service state directory (``<root>/models/*.json`` registry
        entries, ``<root>/ledger.json`` budget ledger).  ``None`` runs
        fully in-memory — same semantics, no durability.
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        if root is not None:
            root = Path(root)
            root.mkdir(parents=True, exist_ok=True)
            self.registry = ModelRegistry(root / MODELS_DIRNAME)
            self.ledger = DatasetLedger(root / LEDGER_FILENAME)
        else:
            self.registry = ModelRegistry(None)
            self.ledger = DatasetLedger(None)
        self.root = root
        self._samplers: Dict[
            Tuple[str, PrivBayesConfig], CoalescingSampler
        ] = {}

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: str,
        table,
        config: Optional[PrivBayesConfig] = None,
        rng: Optional[np.random.Generator] = None,
        dataset_budget: Optional[float] = None,
        **config_kwargs,
    ) -> PrivBayesModel:
        """Fit a model against the dataset's cumulative budget.

        ``dataset_budget`` registers the dataset's end-to-end ε on first
        fit (defaults to requiring the dataset to already be in the
        ledger).  The fit reserves its whole ``config.epsilon`` in the
        ledger *before touching data* and raises
        :class:`~repro.dp.accountant.PrivacyBudgetError` when the
        remaining dataset budget cannot cover it; on success the model
        is registered (resident + persisted) and returned.  A config the
        table refuses raises :class:`ValueError` before the reservation,
        so it neither charges nor registers the dataset.
        """
        if config is None:
            config = PrivBayesConfig(**config_kwargs)
        elif config_kwargs:
            raise ValueError("pass either config or config kwargs, not both")
        reservation = _Reservation(self.ledger, dataset, dataset_budget)
        model = PrivBayes(config).fit(table, rng, accountant=reservation)
        self.registry.put(dataset, model)
        return model

    def model(self, dataset: str, config: PrivBayesConfig) -> PrivBayesModel:
        """The registered model for ``(dataset, config)``; KeyError if absent."""
        model = self.registry.get(dataset, config)
        if model is None:
            raise KeyError(
                f"no model registered for dataset {dataset!r} with config "
                f"{config}"
            )
        return model

    def sampler(
        self,
        dataset: str,
        config: PrivBayesConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> CoalescingSampler:
        """The (cached) coalescing sampler for a registered model.

        ``rng`` seeds the sampler's stream when one is created; later
        calls return the existing sampler, whose stream has advanced with
        the traffic it served.  A cached sampler that a caller closed
        (the serve CLI's ``with sampler:`` does) refuses requests, so it
        is replaced by a new one seeded from this call's ``rng``.
        """
        key = (dataset, config)
        sampler = self._samplers.get(key)
        if sampler is None or sampler.closed:
            sampler = CoalescingSampler(self.model(dataset, config), rng)
            self._samplers[key] = sampler
        return sampler

    def marginals(
        self,
        dataset: str,
        config: PrivBayesConfig,
        workload: Sequence[Sequence[str]],
    ) -> Dict:
        """Synchronous model-based marginal answers (no ε, no sampling)."""
        model = self.model(dataset, config)
        return model_marginals(
            model.noisy, model.table_attributes, workload
        )

    def close(self) -> None:
        for key in sorted(self._samplers, key=str):
            self._samplers[key].close()
        self._samplers.clear()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
