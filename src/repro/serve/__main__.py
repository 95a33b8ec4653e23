"""CLI for the online synthesis service: ``python -m repro.serve ...``.

Examples::

    # Fit a model into a service root, registering the dataset's total
    # budget on first contact (repeated fits compose cumulative ε):
    python -m repro.serve fit --root state --dataset adult \\
        --csv adult.csv --epsilon 1.0 --dataset-budget 3.0 --seed 0

    # Serve 10k synthetic rows from the resident model, issued as 8
    # concurrent requests coalesced into one vectorized draw:
    python -m repro.serve sample --root state --dataset adult \\
        --epsilon 1.0 --rows 10000 --requests 8 --seed 1 --out synth.csv

    # Model-based marginal answers (free post-processing):
    python -m repro.serve marginals --root state --dataset adult \\
        --epsilon 1.0 --query age,income --query sex

    # Inspect budgets / registered models:
    python -m repro.serve budget --root state
    python -m repro.serve models --root state

    # Self-contained in-memory demo (no files, deterministic):
    python -m repro.serve demo --seed 0

The ``--epsilon``/``--beta``/... flags on ``sample``/``marginals`` must
match the fit they target: models are keyed on ``(dataset, config)``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro.core.privbayes import PrivBayesConfig
from repro.data.io import read_csv, write_csv
from repro.datasets.synthetic import random_binary_table
from repro.dp.accountant import PrivacyBudgetError
from repro.serve.service import SynthesisService


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model config (registry key)")
    group.add_argument("--epsilon", type=float, required=True)
    group.add_argument("--beta", type=float, default=None)
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--score", default=None, choices=["auto", "I", "F", "R"])
    group.add_argument(
        "--mode", default=None, choices=["auto", "binary", "general"]
    )
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--generalize", action="store_true")
    group.add_argument("--first-attribute", default=None)


def _config_from_args(args: argparse.Namespace) -> PrivBayesConfig:
    overrides = {
        "beta": args.beta,
        "theta": args.theta,
        "score": args.score,
        "mode": args.mode,
        "k": args.k,
        "first_attribute": args.first_attribute,
    }
    kwargs = {key: value for key, value in overrides.items() if value is not None}
    if args.generalize:
        kwargs["generalize"] = True
    return PrivBayesConfig(epsilon=args.epsilon, **kwargs)


def _cmd_fit(args: argparse.Namespace) -> int:
    table = read_csv(args.csv)
    service = SynthesisService(args.root)
    rng = np.random.default_rng(args.seed)
    try:
        model = service.fit(
            args.dataset,
            table,
            args.config,
            rng=rng,
            dataset_budget=args.dataset_budget,
        )
    except PrivacyBudgetError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 3
    account = service.ledger.accountant(args.dataset)
    print(
        f"fitted {args.dataset!r} (n={model.source_n}, "
        f"d={len(model.table_attributes)}, mode k={model.k}); dataset "
        f"budget: spent {account.spent:g} of {account.total_epsilon:g}"
    )
    return 0


async def _coalesced_request_tables(sampler, counts):
    return await asyncio.gather(
        *(sampler.sample(count) for count in counts)
    )


def _cmd_sample(args: argparse.Namespace) -> int:
    service = SynthesisService(args.root)
    try:
        sampler = service.sampler(
            args.dataset, args.config, np.random.default_rng(args.seed)
        )
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    requests = max(1, args.requests)
    base, extra = divmod(args.rows, requests)
    counts = [base + (1 if index < extra else 0) for index in range(requests)]
    with sampler:
        tables = asyncio.run(_coalesced_request_tables(sampler, counts))
    if args.out is not None:
        write_csv(iter(tables), args.out)
        destination = args.out
    else:
        destination = "(discarded; pass --out)"
    print(
        f"served {args.rows} rows as {requests} request(s) in "
        f"{len(sampler.batch_request_counts)} coalesced draw(s) -> "
        f"{destination}"
    )
    return 0


def _cmd_marginals(args: argparse.Namespace) -> int:
    service = SynthesisService(args.root)
    workload = [query.split(",") for query in args.query]
    try:
        answers = service.marginals(args.dataset, args.config, workload)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    printable = {
        "|".join(names): np.asarray(values).tolist()
        for names, values in answers.items()
    }
    print(json.dumps(printable, indent=2))
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    service = SynthesisService(args.root)
    report = service.ledger.report()
    if args.dataset is not None:
        report = {
            name: entry
            for name, entry in report.items()
            if name == args.dataset
        }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    service = SynthesisService(args.root)
    for dataset, config in service.registry.entries():
        model = service.registry.get(dataset, config)
        print(
            f"{dataset}: epsilon={config.epsilon:g} mode={config.mode} "
            f"score={config.score} n={model.source_n} "
            f"d={len(model.table_attributes)}"
        )
    if len(service.registry) == 0:
        print("(registry is empty)")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """In-memory end-to-end tour: fit, coalesce, compose, refuse."""
    table = random_binary_table(n=4000, d=8, seed=args.seed)
    service = SynthesisService(None)
    rng = np.random.default_rng(args.seed)
    config = PrivBayesConfig(epsilon=1.0)
    service.fit("demo", table, config, rng=rng, dataset_budget=2.0)
    print("fit 1: ok (spent 1 of 2)")
    sampler = service.sampler("demo", config, np.random.default_rng(args.seed))
    with sampler:
        tables = asyncio.run(
            _coalesced_request_tables(sampler, [500, 250, 125, 125])
        )
    print(
        f"served {sum(t.n for t in tables)} rows across {len(tables)} "
        f"concurrent requests in {len(sampler.batch_request_counts)} "
        "coalesced draw(s)"
    )
    second = PrivBayesConfig(epsilon=1.0, beta=0.4)
    service.fit("demo", table, second, rng=rng)
    print("fit 2: ok (spent 2 of 2 — budget exhausted)")
    try:
        service.fit("demo", table, PrivBayesConfig(epsilon=0.5), rng=rng)
    except PrivacyBudgetError as error:
        print(f"fit 3: refused before touching data — {error}")
        return 0
    print("fit 3: unexpectedly granted", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Online synthesis service over fitted PrivBayes models.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a model into the registry")
    fit.add_argument("--root", required=True)
    fit.add_argument("--dataset", required=True)
    fit.add_argument("--csv", required=True)
    fit.add_argument("--dataset-budget", type=float, default=None)
    fit.add_argument("--seed", type=int, default=0)
    _add_config_arguments(fit)
    fit.set_defaults(func=_cmd_fit)

    sample = commands.add_parser(
        "sample", help="serve synthetic rows from a resident model"
    )
    sample.add_argument("--root", required=True)
    sample.add_argument("--dataset", required=True)
    sample.add_argument("--rows", "-n", type=int, required=True)
    sample.add_argument("--requests", type=int, default=1)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", default=None)
    _add_config_arguments(sample)
    sample.set_defaults(func=_cmd_sample)

    marginals = commands.add_parser(
        "marginals", help="model-based marginal answers"
    )
    marginals.add_argument("--root", required=True)
    marginals.add_argument("--dataset", required=True)
    marginals.add_argument(
        "--query",
        action="append",
        required=True,
        help="comma-separated attribute list; repeatable",
    )
    _add_config_arguments(marginals)
    marginals.set_defaults(func=_cmd_marginals)

    budget = commands.add_parser("budget", help="print the dataset ledgers")
    budget.add_argument("--root", required=True)
    budget.add_argument("--dataset", default=None)
    budget.set_defaults(func=_cmd_budget)

    models = commands.add_parser("models", help="list registered models")
    models.add_argument("--root", required=True)
    models.set_defaults(func=_cmd_models)

    demo = commands.add_parser("demo", help="in-memory end-to-end demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "epsilon" in vars(args):
            # fit, sample and marginals: check the model config before any
            # CSV is read or any service state is opened.
            args.config = _config_from_args(args)
        return args.func(args)
    except (OSError, ValueError) as error:
        # A refused config (checked before the ledger reserves anything),
        # a bad CSV, registry entry or ledger file, or an unusable path.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
