"""Dataset generators: Table 5 fidelity, determinism, known correlations."""

import math

import numpy as np
import pytest

from repro.datasets import LOADERS, TABLE5, load_dataset
from repro.datasets.synthetic import (
    NodeSpec,
    random_binary_table,
    random_network_specs,
    sample_network,
)
from repro.data.attribute import Attribute
from repro.infotheory.measures import mutual_information_from_table


class TestRegistry:
    def test_all_four_datasets(self):
        assert set(LOADERS) == {"nltcs", "acs", "adult", "br2000"}

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("census2020")


@pytest.mark.parametrize("name", ["nltcs", "acs", "adult", "br2000"])
class TestSchemaFidelity:
    def test_dimensionality_matches_table5(self, name):
        table = load_dataset(name, n=500, seed=0)
        assert table.d == TABLE5[name][1]

    def test_default_cardinality_matches_table5(self, name):
        # Only check the cheap metadata path: build a small table but
        # verify the documented default matches the paper.
        from repro.datasets import acs, adult, br2000, nltcs

        defaults = {
            "nltcs": nltcs.DEFAULT_N,
            "acs": acs.DEFAULT_N,
            "adult": adult.DEFAULT_N,
            "br2000": br2000.DEFAULT_N,
        }
        assert defaults[name] == TABLE5[name][0]

    def test_domain_size_order_of_magnitude(self, name):
        table = load_dataset(name, n=500, seed=0)
        log_dom = math.log2(table.domain_size)
        paper = TABLE5[name][2]
        assert abs(log_dom - paper) <= 3.0  # same order of magnitude

    def test_deterministic_given_seed(self, name):
        t1 = load_dataset(name, n=400, seed=3)
        t2 = load_dataset(name, n=400, seed=3)
        for attr in t1.attribute_names:
            assert (t1.column(attr) == t2.column(attr)).all()

    def test_different_seeds_differ(self, name):
        t1 = load_dataset(name, n=400, seed=1)
        t2 = load_dataset(name, n=400, seed=2)
        assert any(
            (t1.column(a) != t2.column(a)).any() for a in t1.attribute_names
        )


class TestKnownCorrelations:
    def test_nltcs_implications(self):
        table = load_dataset("nltcs", n=8000, seed=0)
        # Outside mobility ↔ traveling is a hard-wired implication.
        mi = mutual_information_from_table(
            table, "traveling", ["getting_about_outside"]
        )
        assert mi > 0.1

    def test_acs_dwelling_mortgage(self):
        table = load_dataset("acs", n=8000, seed=0)
        mi = mutual_information_from_table(table, "has_mortgage", ["owns_dwelling"])
        assert mi > 0.1

    def test_adult_education_salary(self):
        table = load_dataset("adult", n=8000, seed=0)
        mi = mutual_information_from_table(table, "salary", ["education"])
        assert mi > 0.02

    def test_adult_taxonomies_attached(self):
        table = load_dataset("adult", n=200, seed=0)
        assert table.attribute("workclass").taxonomy is not None
        assert table.attribute("native_country").taxonomy is not None
        assert table.attribute("age").taxonomy is not None  # binned continuous

    def test_adult_workclass_matches_figure3(self):
        table = load_dataset("adult", n=200, seed=0)
        tax = table.attribute("workclass").taxonomy
        assert tax.level_labels(1) == (
            "Self-employed",
            "Government",
            "Private",
            "Unemployed",
        )

    def test_br2000_income_cars(self):
        table = load_dataset("br2000", n=8000, seed=0)
        mi = mutual_information_from_table(table, "n_cars", ["income"])
        assert mi > 0.05

    def test_br2000_age_children(self):
        table = load_dataset("br2000", n=8000, seed=0)
        mi = mutual_information_from_table(table, "n_children", ["age"])
        assert mi > 0.1


class TestSyntheticGenerators:
    def test_sample_network_from_specs(self, rng):
        a = Attribute.binary("a")
        b = Attribute.binary("b")
        specs = [
            NodeSpec(a, (), np.array([[0.2, 0.8]])),
            NodeSpec(b, ("a",), np.array([[0.9, 0.1], [0.1, 0.9]])),
        ]
        table = sample_network(specs, 50_000, rng)
        assert table.column("a").mean() == pytest.approx(0.8, abs=0.01)
        agree = (table.column("a") == table.column("b")).mean()
        assert agree == pytest.approx(0.9, abs=0.01)

    def test_cpt_validation(self):
        a = Attribute.binary("a")
        with pytest.raises(ValueError, match="sum to 1"):
            NodeSpec(a, (), np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError, match="shape"):
            NodeSpec(a, (), np.array([[0.5, 0.25, 0.25]]))

    def test_cpt_rows_must_match_parent_configurations(self, rng):
        a = Attribute.binary("a")
        b = Attribute.binary("b")
        specs = [
            NodeSpec(a, (), np.array([[0.2, 0.8]])),
            NodeSpec(b, ("a",), np.full((3, 2), 0.5)),
        ]
        with pytest.raises(ValueError, match="'b' has 3 rows"):
            sample_network(specs, 10, rng)

    def test_random_network_specs_valid(self, rng):
        attrs = [Attribute.binary(f"x{i}") for i in range(6)]
        specs = random_network_specs(attrs, 2, rng)
        placed = set()
        for spec in specs:
            assert set(spec.parents) <= placed
            assert len(spec.parents) <= 2
            placed.add(spec.attribute.name)

    def test_random_binary_table(self):
        table = random_binary_table(500, 8, seed=1)
        assert table.n == 500
        assert table.d == 8
        assert all(a.size == 2 for a in table.attributes)

    def test_random_binary_table_structure_seed(self):
        t1 = random_binary_table(300, 5, seed=1, structure_seed=9)
        t2 = random_binary_table(300, 5, seed=2, structure_seed=9)
        # Same structure, different draws.
        assert any(
            (t1.column(a) != t2.column(a)).any() for a in t1.attribute_names
        )
