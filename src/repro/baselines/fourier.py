"""Fourier marginal release (Barak et al., PODS 2007).

Over the binarized domain ``{0,1}^D``, the empirical distribution ``f``
has Walsh-Hadamard (Fourier) coefficients

    c_S = (1/n) · Σ_rows (-1)^(x · 1_S)          for S ⊆ {1..D}.

A marginal over a bit set ``T`` is exactly determined by the coefficients
of the subsets of ``T``::

    Pr[x_T = t] = (1/2^|T|) · Σ_{S ⊆ T} c_S · (-1)^(t · 1_S)

so the mechanism (i) collects every subset needed by the workload,
(ii) releases each coefficient once with Laplace noise (each tuple changes
each coefficient by at most 2/n, so the coefficient family has L1
sensitivity ``2M/n``), and (iii) reconstructs the workload marginals,
clamping and normalizing for consistency.

Non-binary attributes are binarized with the natural binary encoding
first; marginals are reconstructed over the bit columns of the original
attributes and then trimmed to the valid (in-domain) cells.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.marginals import (
    domain_size,
    normalize_distribution,
    unflatten_index,
)
from repro.data.table import Table
from repro.dp.accountant import check_epsilon
from repro.dp.mechanisms import laplace_noise
from repro.encoding.bitwise import BinaryEncoder, bits_needed

Workload = Sequence[Tuple[str, ...]]


class FourierMarginals:
    """Barak et al.'s Fourier mechanism adapted to mixed-domain workloads."""

    name = "Fourier"

    def __init__(self, max_bits_per_marginal: int = 16) -> None:
        self.max_bits_per_marginal = max_bits_per_marginal

    def release(
        self,
        table: Table,
        workload: Workload,
        epsilon: float,
        rng: np.random.Generator,
    ) -> Dict[Tuple[str, ...], np.ndarray]:
        check_epsilon(epsilon)
        encoder = BinaryEncoder()
        encoded = encoder.encode(table)
        bit_names = list(encoded.attribute_names)
        bit_position = {name: i for i, name in enumerate(bit_names)}
        bits = encoded.records()  # (n, D) of 0/1

        # Bit columns backing each original attribute, MSB first.
        attr_bits: Dict[str, List[int]] = {}
        for attr in table.attributes:
            width = bits_needed(attr.size)
            attr_bits[attr.name] = [
                bit_position[f"{attr.name}#b{b}"] for b in range(width)
            ]

        # Coefficient subsets needed: every subset of every marginal's bits.
        needed: set = set()
        marginal_bits: Dict[Tuple[str, ...], List[int]] = {}
        for names in workload:
            T = [b for name in names for b in attr_bits[name]]
            if len(T) > self.max_bits_per_marginal:
                raise ValueError(
                    f"marginal {names} spans {len(T)} bits > limit "
                    f"{self.max_bits_per_marginal}"
                )
            marginal_bits[tuple(names)] = T
            for r in range(len(T) + 1):
                needed.update(itertools.combinations(sorted(T), r))
        subsets = sorted(needed, key=lambda s: (len(s), s))
        M = len(subsets)

        # Noisy coefficients (one Laplace release of the whole family).
        n = max(table.n, 1)
        # Fused single-release scale 2M/(n eps); kept as one expression so
        # historical goldens stay bit-identical.
        scale = 2.0 * M / (n * epsilon)
        coefficients: Dict[Tuple[int, ...], float] = {}
        noise = laplace_noise(scale, M, rng)
        for idx, S in enumerate(subsets):
            if S:
                parity = bits[:, list(S)].sum(axis=1) % 2
                value = float((1.0 - 2.0 * parity).sum()) / n
            else:
                value = 1.0
            coefficients[S] = value + float(noise[idx])

        # Reconstruct each marginal from its subsets' coefficients.
        released = {}
        for names in workload:
            names = tuple(names)
            T = marginal_bits[names]
            m = len(T)
            cells = np.arange(2 ** m)
            cell_bits = unflatten_index(cells, [2] * m)  # (2^m, m)
            values = np.zeros(2 ** m)
            for r in range(m + 1):
                for S in itertools.combinations(sorted(T), r):
                    mask = [T.index(b) for b in S]
                    sign = (
                        1.0 - 2.0 * (cell_bits[:, mask].sum(axis=1) % 2)
                        if mask
                        else np.ones(2 ** m)
                    )
                    values += coefficients[S] * sign
            values /= 2 ** m
            released[names] = self._trim_to_domain(table, names, T, values)
        return released

    def _trim_to_domain(
        self,
        table: Table,
        names: Tuple[str, ...],
        bit_list: List[int],
        values: np.ndarray,
    ) -> np.ndarray:
        """Fold the bitwise marginal onto the original attribute domain.

        Bit patterns with index ≥ |dom| (unused codes) are dropped; their
        (noise-only) mass disappears in the renormalization.
        """
        widths = [bits_needed(table.attribute(name).size) for name in names]
        sizes = [table.attribute(name).size for name in names]
        m = len(bit_list)
        cell_bits = unflatten_index(np.arange(2 ** m), [2] * m)
        # Recover each attribute's index from its MSB-first bit block.
        indices = []
        offset = 0
        for width in widths:
            block = cell_bits[:, offset : offset + width]
            weights = 1 << np.arange(width - 1, -1, -1)
            indices.append(block @ weights)
            offset += width
        valid = np.ones(2 ** m, dtype=bool)
        for idx, size in zip(indices, sizes):
            valid &= idx < size
        flat = np.zeros(domain_size(sizes))
        target = np.zeros(2 ** m, dtype=np.int64)
        stride = 1
        for idx, size in zip(reversed(indices), reversed(sizes)):
            target += idx * stride
            stride *= size
        np.add.at(flat, target[valid], values[valid])
        return normalize_distribution(flat)
