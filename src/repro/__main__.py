"""Command-line release tool: ``python -m repro``.

Turns a CSV file into an ε-differentially private synthetic CSV::

    python -m repro --input census.csv --output synthetic.csv --epsilon 1.0

Options cover the paper's tunables (β, θ, encoding method), model
persistence (store a fitted model, resample later at no privacy cost) and
a utility report comparing the release to its source.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.privbayes import DEFAULT_BETA, DEFAULT_THETA
from repro.core.serialize import load_model, save_model
from repro.core.sampler import sample_synthetic
from repro.data.io import read_csv, write_csv
from repro.encoding import BinaryEncoder, GrayEncoder, make_encoder
from repro.metrics import utility_report
from repro.release import METHODS, parse_method
from repro.core.privbayes import PrivBayes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PrivBayes: differentially private synthetic data release.",
    )
    parser.add_argument("--input", help="input CSV (headed)")
    parser.add_argument("--output", help="output CSV for the synthetic data")
    parser.add_argument(
        "--epsilon", type=float, default=1.0, help="total privacy budget"
    )
    parser.add_argument("--beta", type=float, default=DEFAULT_BETA)
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA)
    parser.add_argument(
        "--method",
        default="hierarchical-R",
        choices=sorted(METHODS),
        help="encoding/score method (Section 6.3 names)",
    )
    parser.add_argument(
        "--rows", type=int, default=None, help="synthetic rows (default: input size)"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--save-model",
        help="also store the fitted model as JSON (vanilla-R and "
        "hierarchical-R; a bitwise model is refused)",
    )
    parser.add_argument(
        "--from-model",
        help="skip fitting: resample from a stored model (no privacy cost)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print a utility report (requires --input)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError) as error:
        # A refused config, a bad CSV or model file, or an unusable path.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)

    if args.from_model:
        if not args.output:
            print("error: --output is required", file=sys.stderr)
            return 2
        model, attributes = load_model(args.from_model)
        rows = args.rows if args.rows is not None else 1000
        synthetic = sample_synthetic(model, attributes, rows, rng)
        write_csv(synthetic, args.output)
        print(f"resampled {synthetic.n} rows from {args.from_model} -> {args.output}")
        return 0

    if not args.input or not args.output:
        print("error: --input and --output are required", file=sys.stderr)
        return 2
    encoding, score = parse_method(args.method)
    encoder = make_encoder(encoding)
    if args.save_model and isinstance(encoder, (BinaryEncoder, GrayEncoder)):
        print(
            f"error: --save-model cannot store a {args.method} model: it "
            "models bit columns, so --from-model would not write the "
            "input's attributes",
            file=sys.stderr,
        )
        return 2
    # The config is checked before any CSV is read; it and the fit's own
    # config checks (which run before any count) refuse in one line.
    pipeline = PrivBayes(
        epsilon=args.epsilon,
        beta=args.beta,
        theta=args.theta,
        score=score,
        generalize=encoder.uses_generalization,
    )
    table = read_csv(args.input)
    print(f"loaded {args.input}: n={table.n}, d={table.d}")
    encoded = encoder.encode(table)
    model = pipeline.fit(encoded, rng=rng)
    synthetic_encoded = model.sample(args.rows, rng)
    synthetic = encoder.decode(synthetic_encoded)
    write_csv(synthetic, args.output)
    print(
        f"released {synthetic.n} rows at ε={args.epsilon} "
        f"({args.method}) -> {args.output}"
    )
    if args.save_model:
        save_model(model.noisy, encoded.attributes, args.save_model)
        print(f"model stored -> {args.save_model}")
    if args.report:
        print()
        print(utility_report(table, synthetic, max_pairs=50).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
