"""Information-theoretic primitives used by the network-learning phase.

All quantities use base-2 logarithms, matching the paper ("All logarithms
used in this paper are to the base 2").
"""

from repro.infotheory.measures import (
    entropy,
    mutual_information,
    mutual_information_from_table,
    total_variation_distance,
)

__all__ = [
    "entropy",
    "mutual_information",
    "mutual_information_from_table",
    "total_variation_distance",
]
