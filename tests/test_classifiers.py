import codecs
import json
import math
import random
import re
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist
from unittest.mock import patch

import numpy as np
import pytest

from devfp import classifiers
from devfp.classifiers import (
    EnsembleModel,
    Hyperparams,
    ModelSpec,
    TreeModel,
    load_model,
    save_model,
    train_model,
)
from devfp.classifiers import trees
from devfp.classifiers.base import TrainedModel
from devfp.errors import EmptyDataset, ModelFormatError, SchemaMismatch, SingleClassDataset
from devfp.features import CANONICAL_ATTRIBUTES, Dataset
from pcapbuild import FeatureRow
from tables import make_dataset, predictions, schema_rows
from modeldocs import canonical, document, document_model, leaf, member, split, staircase, tree_model, tree_params
from oracles import tree_nodes


def one_attr_dataset(values, labels) -> Dataset:
    return make_dataset({"ip.len": values}, labels)


def vector(**kwargs) -> FeatureRow:
    field_map = {k.replace(".", "_"): v for k, v in kwargs.items()}
    return FeatureRow(**field_map)


def predicted(model, row: FeatureRow) -> str:
    return predictions(model, [row])[0]


def class_proba(model, row: FeatureRow) -> dict[str, float]:
    """Class name -> probability of one row, from distribution_batch."""
    dist = model.distribution_batch(schema_rows([row], model.schema))[0]
    return dict(zip(model.class_names, dist.tolist()))


def nodes(model) -> dict:
    """The node arrays of a lone tree, children included (oracles.tree_nodes)."""
    (tree,) = tree_nodes(model)
    return tree


def is_leaf(model, node=0) -> bool:
    """Whether a node of a lone tree is a leaf; node 0 is the root."""
    return bool(model.feature[node] < 0)


def leaf_counts(model, node) -> tuple:
    return tuple(model.counts[nodes(model)["leaf"][node]].tolist())


# the columns a TreeModel is built from
COLUMNS = ("sizes", "feature", "threshold", "absent_left", "counts")


def tree_arrays(model) -> list:
    return [getattr(model, name).tolist() for name in COLUMNS]


def v4_header(text: str) -> str:
    """A version 1, 2 or 3 model text with the version 4 header: the version,
    less the three hyperparams that training now holds constant."""
    text = re.sub('"version":[123]', '"version":4', text, count=1)
    for pair in ('"rt_feature_count":null,', '"bag_fraction":1.0,', ',"nb_variance_floor":1e-09'):
        assert text.count(pair) == 1
        text = text.replace(pair, "")
    return text


UNPRUNED = Hyperparams(c45_prune=False)
UNPRUNED_MIN1 = Hyperparams(c45_prune=False, c45_min_leaf=1)


class TestC45:
    def test_linearly_separable_single_split(self):
        dataset = one_attr_dataset([1, 2, 9], ["A", "A", "B"])
        model = train_model(dataset, ModelSpec("j48"))
        tree = nodes(model)
        root = tree["root"]
        assert not is_leaf(model)
        # brute-force: of the candidate thresholds 1.5 and 5.5, only 5.5
        # separates the classes completely
        assert tree["threshold"][root] == 5.5
        left, right = tree["left"][root], tree["right"][root]
        assert is_leaf(model, left) and is_leaf(model, right)
        assert leaf_counts(model, left) == (2, 0) and leaf_counts(model, right) == (0, 1)
        for value, expected in ((1, "A"), (2, "A"), (9, "B")):
            assert predicted(model, vector(**{"ip.len": value})) == expected

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataset):
            train_model(one_attr_dataset([1, 2], ["A", "A"]), ModelSpec("j48"))

    def test_empty_and_tiny_rejected(self):
        with pytest.raises(EmptyDataset):
            train_model(make_dataset({"ip.len": []}, []), ModelSpec("j48"))
        with pytest.raises(EmptyDataset):
            train_model(one_attr_dataset([1], ["A"]), ModelSpec("j48"))

    def test_no_positive_gain_yields_majority_leaf(self):
        # XOR over two attributes: no single split has positive gain
        dataset = make_dataset(
            {"ip.len": [0, 0, 1, 1], "ip.ttl": [0, 1, 0, 1]},
            ["A", "B", "B", "A"],
        )
        model = train_model(dataset, ModelSpec("j48", UNPRUNED_MIN1))
        assert is_leaf(model)
        assert leaf_counts(model, 0) == (2, 2)

    def test_constant_attributes_yield_leaf(self):
        dataset = one_attr_dataset([5, 5, 5, 5], ["A", "A", "B", "A"])
        model = train_model(dataset, ModelSpec("j48"))
        assert is_leaf(model)
        assert predicted(model, vector(**{"ip.len": 5})) == "A"

    def test_unpruned_min1_perfect_on_consistent_single_attribute(self):
        rng = random.Random(3)
        for _ in range(40):
            n_values = rng.randrange(2, 8)
            label_of = {v: rng.choice("AB") for v in range(n_values)}
            if len(set(label_of.values())) < 2:
                label_of[0] = "A"
                label_of[1] = "B"
            values = [rng.randrange(n_values) for _ in range(rng.randrange(2, 12))]
            values.extend(label_of.keys())  # every value present
            labels = [label_of[v] for v in values]
            model = train_model(one_attr_dataset(values, labels), ModelSpec("j48", UNPRUNED_MIN1))
            for v, lab in zip(values, labels):
                assert predicted(model, vector(**{"ip.len": v})) == lab

    def test_absent_values_route_to_majority_branch(self):
        # 3 small-value rows, 1 large: absent rows follow the left majority
        dataset = one_attr_dataset([1, 2, 3, 50, None, None], ["A", "A", "A", "B", "A", "A"])
        model = train_model(dataset, ModelSpec("j48", UNPRUNED_MIN1))
        assert not is_leaf(model)
        assert model.absent_left[0]  # the root is the first split
        assert predicted(model, vector()) == "A"

    def test_absent_branch_follows_majority_to_right(self):
        dataset = one_attr_dataset([1, 50, 60, 70, None, None], ["A", "B", "B", "B", "B", "B"])
        model = train_model(dataset, ModelSpec("j48", UNPRUNED_MIN1))
        assert not is_leaf(model)
        assert not model.absent_left[0]

    def test_min_leaf_stops_growth(self):
        dataset = one_attr_dataset([1, 2, 9, 10], ["A", "A", "B", "B"])
        model = train_model(dataset, ModelSpec("j48", Hyperparams(c45_min_leaf=5, c45_prune=False)))
        assert is_leaf(model)

    def test_pruning_collapses_noise_split(self):
        # one stray B inside a run of As: the pessimistic estimate prefers a leaf
        values = list(range(20))
        labels = ["A"] * 20
        labels[9] = "B"
        pruned = train_model(one_attr_dataset(values, labels), ModelSpec("j48", Hyperparams(c45_prune=True)))
        unpruned = train_model(one_attr_dataset(values, labels), ModelSpec("j48", UNPRUNED))
        assert is_leaf(pruned)
        assert not is_leaf(unpruned)

    def test_pruned_tree_never_larger(self):
        rng = random.Random(11)
        for _ in range(20):
            values = [rng.randrange(10) for _ in range(30)]
            labels = [rng.choice("AB") for _ in range(30)]
            if len(set(labels)) < 2:
                continue
            dataset = one_attr_dataset(values, labels)
            pruned = train_model(dataset, ModelSpec("j48"))
            assert len(pruned.feature) <= len(train_model(dataset, ModelSpec("j48", UNPRUNED)).feature)

    def test_added_errors_matches_reference_formula(self):
        # independent reimplementation of the upper confidence bound
        def reference(n, e, cf):
            if e < 1:
                base = n * (1 - cf ** (1 / n))
                return base if e == 0 else base + e * (reference(n, 1, cf) - base)
            if e + 0.5 >= n:
                return max(n - e, 0.0)
            z = NormalDist().inv_cdf(1 - cf)
            f = (e + 0.5) / n
            r = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
                1 + z * z / n
            )
            return r * n - e

        from devfp.classifiers.trees import _added_errors

        for n, e in ((1, 0), (2, 0), (3, 1), (10, 2), (14, 5.5), (100, 40), (8, 7.9)):
            assert _added_errors(n, e, 0.25) == pytest.approx(reference(n, e, 0.25), abs=1e-12)


class TestRandomTree:
    def two_attr_dataset(self):
        return make_dataset(
            {"ip.len": [1, 2, 9, 10], "ip.ttl": [64, 64, 32, 32]},
            ["A", "A", "B", "B"],
        )

    def three_attr_dataset(self):
        # every attribute splits perfectly; a random tree searches 2 of the 3
        return make_dataset(
            {"ip.len": [1, 2, 9, 10], "ip.ttl": [64, 64, 32, 32], "ip.proto": [6, 6, 17, 17]},
            ["A", "A", "B", "B"],
        )

    def test_full_candidate_set_equals_unpruned_c45(self):
        # 2 attributes: a random tree searches floor(log2 2) + 1 = 2, all of them
        dataset = self.two_attr_dataset()
        hp = Hyperparams(c45_prune=False)
        rt = train_model(dataset, ModelSpec("rt", hp))
        c45 = train_model(dataset, ModelSpec("j48", hp))
        assert tree_arrays(rt) == tree_arrays(c45)

    def test_same_seed_identical_trees(self):
        dataset = self.three_attr_dataset()
        spec = ModelSpec("rt", Hyperparams(seed=7))
        a = train_model(dataset, spec)
        b = train_model(dataset, spec)
        assert save_model(a) == save_model(b)

    def test_different_seeds_can_pick_different_roots(self):
        # of its 2 candidates the lower attribute wins the tie, so the root is 0 or 1
        dataset = self.three_attr_dataset()
        roots = set()
        for seed in range(12):
            model = train_model(dataset, ModelSpec("rt", Hyperparams(c45_min_leaf=1, seed=seed)))
            if not is_leaf(model):
                roots.add(int(model.feature[0]))
        assert roots == {0, 1}

    def test_candidate_count_is_weka_default(self):
        # the root searches floor(log2 k) + 1 of k attributes; all k, with no draw, where that is k
        drawn = []
        sample = random.Random.sample

        def recorded(rng, population, count):
            drawn.append((len(population), count))
            return sample(rng, population, count)

        for k in range(1, len(CANONICAL_ATTRIBUTES) + 1):
            dataset = make_dataset({name: [1, 2, 9, 10] for name in CANONICAL_ATTRIBUTES[:k]}, ["A", "A", "B", "B"])
            drawn.clear()
            with patch.object(random.Random, "sample", recorded):
                train_model(dataset, ModelSpec("rt"))
            m = int(math.floor(math.log2(k))) + 1
            assert drawn == ([] if m >= k else [(k, m)]), k


class TestNaiveBayes:
    def test_closed_form_separated_clusters(self):
        dataset = one_attr_dataset([0, 0, 10, 10], ["A", "A", "B", "B"])
        model = train_model(dataset, ModelSpec("nb"))
        proba = class_proba(model, vector(**{"ip.len": 0}))
        # with the floored stddev the B density at 0 is exp(-0.5*(10/1e-4.5)^2)
        # times smaller: numerically zero next to A's
        assert proba["A"] > 1 - 1e-12
        assert predicted(model, vector(**{"ip.len": 0})) == "A"

    def test_all_absent_query_returns_priors(self):
        dataset = one_attr_dataset([0, 1, 10, 11], ["A", "A", "A", "B"])
        model = train_model(dataset, ModelSpec("nb"))
        proba = class_proba(model, vector())
        assert proba["A"] == pytest.approx(0.75, abs=1e-12)
        assert proba["B"] == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_query_is_even(self):
        dataset = one_attr_dataset([1, 2, 8, 9], ["A", "A", "B", "B"])
        model = train_model(dataset, ModelSpec("nb"))
        proba = class_proba(model, vector(**{"ip.len": 5}))
        assert proba["A"] == pytest.approx(0.5, abs=1e-9)
        assert proba["B"] == pytest.approx(0.5, abs=1e-9)

    def test_duplication_invariance(self):
        base = make_dataset(
            {"ip.len": [1, 2, 8, 9, 3], "ip.ttl": [64, 64, 32, 32, None]},
            ["A", "A", "B", "B", "A"],
        )
        doubled = Dataset.concat([base, base])
        m1 = train_model(base, ModelSpec("nb"))
        m2 = train_model(doubled, ModelSpec("nb"))
        assert np.array_equal(m1.priors, m2.priors)
        assert np.array_equal(m1.means, m2.means, equal_nan=True)
        assert np.array_equal(m1.stddevs, m2.stddevs, equal_nan=True)
        for value in (None, 1, 5, 9):
            assert class_proba(m1, vector(**{"ip.len": value})) == class_proba(
                m2, vector(**{"ip.len": value})
            )

    def test_class_without_observations_is_penalized(self):
        # class B never exhibits ip.ttl; a query with ip.ttl present should
        # overwhelmingly favor A
        dataset = make_dataset(
            {"ip.len": [1, 2, 8, 9], "ip.ttl": [64, 64, None, None]},
            ["A", "A", "B", "B"],
        )
        model = train_model(dataset, ModelSpec("nb"))
        proba = class_proba(model, vector(**{"ip.ttl": 64}))
        assert proba["A"] > 1 - 1e-12

    def test_variance_floor_applied(self):
        # each class's values are constant: the stddev is floored at a variance of 1e-9
        dataset = one_attr_dataset([5, 5, 9, 9], ["A", "A", "B", "B"])
        model = train_model(dataset, ModelSpec("nb"))
        assert model.stddevs.tolist() == [[math.sqrt(1e-9)], [math.sqrt(1e-9)]]

    def test_infinite_cell_raises_naming_its_column(self):
        dataset = make_dataset({"ip.len": [1, 2, 8, 9], "ip.ttl": [64, 64, 32, None]}, ["A", "A", "B", "B"])
        model = train_model(dataset, ModelSpec("nb"))
        for value in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="'ip.ttl'"):
                model.distribution_batch(np.array([[2.0, 64.0], [3.0, value]]))


@dataclass(frozen=True)
class StubModel(TrainedModel):
    """Test double returning a fixed distribution."""

    fixed: tuple = (1.0,)

    def distribution_batch(self, X):
        return np.tile(np.asarray(self.fixed, dtype=np.float64), (X.shape[0], 1))


def stub(dist, class_names=("A", "B")):
    return StubModel(
        schema=("ip.len",), class_names=class_names, hyperparams=Hyperparams(), variant="stub",
        fixed=tuple(dist),
    )


class TestEnsembles:
    def dataset(self):
        return make_dataset(
            {"ip.len": [1, 2, 9, 10, 5, 6], "ip.ttl": [64, 64, 32, 32, 64, 32]},
            ["A", "A", "B", "B", "A", "B"],
        )

    def test_forest_of_one_equals_its_member(self):
        model = train_model(self.dataset(), ModelSpec("rf", Hyperparams(forest_trees=1)))
        columns = {name: getattr(model, name) for name in COLUMNS}
        member = TreeModel(schema=model.schema, class_names=model.class_names, hyperparams=model.hyperparams,
                           variant="rt", **columns)
        rng = random.Random(0)
        for _ in range(200):
            v = vector(**{"ip.len": rng.randrange(0, 12), "ip.ttl": rng.choice([None, 32, 64])})
            assert predicted(model, v) == predicted(member, v)
            assert class_proba(model, v) == class_proba(member, v)

    def test_identical_members_average_to_member_distribution(self):
        tree = train_model(self.dataset(), ModelSpec("rt"))
        columns = {name: np.concatenate([getattr(tree, name)] * 5) for name in COLUMNS}
        forest = TreeModel(
            schema=tree.schema, class_names=tree.class_names, hyperparams=tree.hyperparams, variant="rf", **columns
        )
        v = vector(**{"ip.len": 3, "ip.ttl": 64})
        assert class_proba(forest, v) == class_proba(tree, v)

    def test_majority_of_three_trees(self):
        members = (
            stub((0.9, 0.1)),
            stub((0.9, 0.1)),
            stub((0.1, 0.9)),
        )
        forest = EnsembleModel(
            schema=("ip.len",), class_names=("A", "B"), hyperparams=Hyperparams(), variant="vote",
            members=members,
        )
        assert predicted(forest, vector(**{"ip.len": 1})) == "A"

    def test_bagging_averages_member_distributions(self):
        bagged = EnsembleModel(
            schema=("ip.len",),
            class_names=("A", "B"),
            hyperparams=Hyperparams(),
            variant="vote",
            members=(stub((0.6, 0.4)), stub((0.2, 0.8))),
        )
        proba = class_proba(bagged, vector(**{"ip.len": 1}))
        assert proba == {"A": pytest.approx(0.4), "B": pytest.approx(0.6)}
        assert predicted(bagged, vector(**{"ip.len": 1})) == "B"

    def test_same_seed_identical_forest(self):
        # the same bytes whether the growth steps take many nodes or one
        spec = ModelSpec("rf", Hyperparams(forest_trees=5, c45_min_leaf=1, seed=7))
        a = train_model(self.dataset(), spec)
        with patch.object(trees, "_STEP_ROWS", 1):
            b = train_model(self.dataset(), spec)
        assert len(a.sizes) == 5 and a.sizes.sum() > 5
        assert save_model(a) == save_model(b) == save_model(train_model(self.dataset(), spec))

    def test_same_seed_identical_bagging(self):
        a = train_model(self.dataset(), ModelSpec("bagging", Hyperparams(bagging_rounds=3)))
        b = train_model(self.dataset(), ModelSpec("bagging", Hyperparams(bagging_rounds=3)))
        assert save_model(a) == save_model(b)

    def test_vote_of_one_equals_member(self):
        voted = train_model(self.dataset(), ModelSpec("vote", vote_members=("j48",)))
        base = train_model(self.dataset(), ModelSpec("j48"))
        rng = random.Random(2)
        for _ in range(100):
            v = vector(**{"ip.len": rng.randrange(0, 12), "ip.ttl": rng.choice([None, 32, 64])})
            assert class_proba(voted, v) == class_proba(voted.members[0], v)
            assert predicted(voted, v) == predicted(base, v)

    def test_vote_tie_breaks_to_lower_class_index(self):
        voted = EnsembleModel(
            schema=("ip.len",),
            class_names=("A", "B"),
            hyperparams=Hyperparams(),
            variant="vote",
            members=(stub((1.0, 0.0)), stub((0.0, 1.0))),
        )
        proba = class_proba(voted, vector(**{"ip.len": 1}))
        assert proba == {"A": pytest.approx(0.5), "B": pytest.approx(0.5)}
        assert predicted(voted, vector(**{"ip.len": 1})) == "A"

    def test_vote_j48_plus_bagging_end_to_end(self):
        voted = train_model(self.dataset(), ModelSpec("vote", vote_members=("j48", "bagging")))
        assert [m.variant for m in voted.members] == ["j48", "bagging"]
        proba = class_proba(voted, vector(**{"ip.len": 2, "ip.ttl": 64}))
        assert sum(proba.values()) == pytest.approx(1.0, abs=1e-9)

    def test_vote_member_errors_annotated(self):
        single = one_attr_dataset([1, 2], ["A", "A"])
        with pytest.raises(SingleClassDataset, match="vote member"):
            train_model(single, ModelSpec("vote", vote_members=("j48",)))

    def test_vote_requires_members(self):
        with pytest.raises(ValueError):
            train_model(self.dataset(), ModelSpec("vote", vote_members=()))

    def test_nested_vote_rejected(self):
        with pytest.raises(ValueError, match="vote member"):
            train_model(self.dataset(), ModelSpec("vote", vote_members=("vote",)))


class TestPredictContract:
    def models(self):
        dataset = make_dataset(
            {"ip.len": [1, 2, 9, 10, 5, 6], "ip.ttl": [64, 64, 32, 32, 64, 32]},
            ["A", "A", "B", "B", "A", "B"],
        )
        hp = Hyperparams(forest_trees=5, bagging_rounds=3)
        return [
            train_model(dataset, ModelSpec("j48", hp)),
            train_model(dataset, ModelSpec("rt", hp)),
            train_model(dataset, ModelSpec("rf", hp)),
            train_model(dataset, ModelSpec("nb", hp)),
            train_model(dataset, ModelSpec("bagging", hp)),
            train_model(dataset, ModelSpec("vote", hp, ("j48", "bagging"))),
        ]

    def test_distributions_sum_to_one(self):
        rng = random.Random(5)
        for model in self.models():
            for _ in range(50):
                v = vector(
                    **{
                        "ip.len": rng.choice([None, rng.randrange(0, 15)]),
                        "ip.ttl": rng.choice([None, 32, 64, 128]),
                    }
                )
                proba = class_proba(model, v)
                assert all(p >= 0 for p in proba.values())
                assert sum(proba.values()) == pytest.approx(1.0, abs=1e-9)
                assert set(proba) == set(model.class_names)

    def test_leaf_distribution_laplace_smoothing(self):
        model = tree_model(("ip.len",), ("A", "B"), [leaf(3, 1)])
        dist = model.distribution((None,))
        assert dist[0] == pytest.approx(4 / 6, abs=1e-12)
        assert dist[1] == pytest.approx(2 / 6, abs=1e-12)

    def test_routing_below_threshold_goes_left(self):
        # stored breadth-first: the split, then its left leaf (row 0 of proba) and its right leaf
        model = tree_model(
            ("ip.len",), ("A", "B"), [leaf(0, 1), leaf(1, 0), split(0, 5.5, "right", 1, 0)]
        )
        left, right = model.proba[0], model.proba[1]
        X = np.array([[2.0], [5.5], [6.0], [np.nan]])
        dist = model.distribution_batch(X)
        assert np.array_equal(dist[0], left)
        assert np.array_equal(dist[1], left)  # boundary value stays left
        assert np.array_equal(dist[2], right)
        assert np.array_equal(dist[3], right)  # absent follows absent_branch

    def test_rows_of_another_width_rejected(self):
        model = tree_model(("ip.len",), ("A", "B"), [leaf(0, 1), leaf(1, 0), split(0, 5.5, "right", 1, 0)])
        with pytest.raises(ValueError, match="^rows have 2 columns, the model's schema 1$"):
            model.distribution_batch(np.zeros((3, 2)))

    def test_schema_mismatch_raises(self):
        model = stub((0.5, 0.5))
        bad = StubModel(
            schema=("nonsense",), class_names=("A", "B"), hyperparams=Hyperparams(), variant="stub",
            fixed=(1, 0),
        )
        assert predicted(model, vector(**{"ip.len": 4})) in ("A", "B")
        with pytest.raises(SchemaMismatch):
            predicted(bad, vector(**{"ip.len": 4}))

    def test_monotone_rescaling_leaves_tree_predictions_unchanged(self):
        rng = random.Random(13)
        values = [rng.randrange(0, 30) for _ in range(24)]
        ttls = [rng.choice([32, 64, 128]) for _ in range(24)]
        labels = ["A" if v < 12 else "B" for v in values]
        base = make_dataset({"ip.len": values, "ip.ttl": ttls}, labels)
        scaled = make_dataset(
            {"ip.len": [v * 10 + 7 for v in values], "ip.ttl": ttls}, labels
        )
        for spec in (ModelSpec("j48"), ModelSpec("rt", Hyperparams(seed=3))):
            m_base = train_model(base, spec)
            m_scaled = train_model(scaled, spec)
            for _ in range(60):
                q = rng.randrange(0, 30)
                ttl = rng.choice([None, 32, 64, 128])
                assert predicted(m_base, vector(**{"ip.len": q, "ip.ttl": ttl})) == predicted(
                    m_scaled, vector(**{"ip.len": q * 10 + 7, "ip.ttl": ttl})
                )

    def test_training_determinism_across_runs(self):
        for spec_variant in ("j48", "rt", "rf", "nb", "bagging", "vote"):
            spec = ModelSpec(variant=spec_variant, hyperparams=Hyperparams(forest_trees=3, bagging_rounds=2))
            dataset = make_dataset(
                {"ip.len": [1, 2, 9, 10, 5, 6], "ip.ttl": [64, 64, 32, 32, 64, 32]},
                ["A", "A", "B", "B", "A", "B"],
            )
            a = train_model(dataset, spec)
            b = train_model(dataset, spec)
            assert save_model(a) == save_model(b)


class TestBatchPrediction:
    """distribution_batch(X)[i] carries exactly the bits of distribution(row i)."""

    def dataset(self):
        rng = random.Random(21)
        columns = {"ip.len": [], "ip.ttl": [], "udp.srcport": []}
        labels = []
        for i in range(60):
            label = "ABC"[i % 3]
            columns["ip.len"].append(rng.choice([None, rng.randrange(40) + 20 * (label == "B")]))
            columns["ip.ttl"].append(rng.choice([None, 32, 64, 128]))
            columns["udp.srcport"].append(None if label == "C" else rng.randrange(5))
            labels.append(label)
        return make_dataset(columns, labels)

    def models(self):
        dataset = self.dataset()
        hp = Hyperparams(forest_trees=7, bagging_rounds=3)
        return [
            train_model(dataset, ModelSpec("j48", hp)),
            train_model(dataset, ModelSpec("rt", hp)),
            train_model(dataset, ModelSpec("rf", hp)),
            train_model(dataset, ModelSpec("nb", hp)),
            train_model(dataset, ModelSpec("bagging", hp)),
            train_model(dataset, ModelSpec("vote", hp, ("j48", "bagging"))),
            train_model(dataset, ModelSpec("vote", hp, ("nb", "rf", "j48"))),
        ]

    def query_rows(self, models):
        """Random rows with Absent cells, plus one row per split threshold hit exactly."""
        rng = random.Random(22)
        rows = [
            (rng.choice([None, rng.randrange(70)]), rng.choice([None, 32, 64, 100, 128]),
             rng.choice([None, rng.randrange(6)]))
            for _ in range(300)
        ]
        rows.append((None, None, None))
        trees = [m for model in models for m in getattr(model, "members", (model,))]
        for tree in trees:
            splits = getattr(tree, "feature", np.zeros(0))
            for attribute, threshold in zip(splits[splits >= 0], getattr(tree, "threshold", ())):
                row = [None, 64, None]
                row[attribute] = float(threshold)
                rows.append(tuple(row))
        return rows

    def test_batch_rows_equal_per_row_distributions(self):
        models = self.models()
        rows = self.query_rows(models)
        X = np.array([[np.nan if v is None else v for v in row] for row in rows])
        thresholds_hit = sum(1 for row in rows if isinstance(row[0], float) or isinstance(row[2], float))
        assert thresholds_hit > 0
        for model in models:
            batch = model.distribution_batch(X)
            assert batch.shape == (len(rows), len(model.class_names))
            assert batch.dtype == np.float64
            for i, row in enumerate(rows):
                assert np.array_equal(batch[i], model.distribution(row)), (model.variant, row)

    def test_empty_batch(self):
        for model in self.models():
            assert model.distribution_batch(np.empty((0, 3))).shape == (0, len(model.class_names))


class TestPersistence:
    def trained_models(self):
        dataset = make_dataset(
            {"ip.len": [1, 2, 9, 10, 5, 6], "ip.ttl": [64, 64, 32, 32, None, 32]},
            ["A", "A", "B", "B", "A", "B"],
        )
        hp = Hyperparams(forest_trees=3, bagging_rounds=2)
        return [
            train_model(dataset, ModelSpec("j48", hp)),
            train_model(dataset, ModelSpec("rt", hp)),
            train_model(dataset, ModelSpec("rf", hp)),
            train_model(dataset, ModelSpec("nb", hp)),
            train_model(dataset, ModelSpec("bagging", hp)),
            train_model(dataset, ModelSpec("vote", hp, ("j48", "nb"))),
        ]

    def test_round_trip_every_variant(self):
        rng = random.Random(17)
        for model in self.trained_models():
            text = save_model(model)
            again = load_model(text)
            assert save_model(again) == text
            assert type(again) is type(model)
            assert again.variant == model.variant
            members = [m.variant for m in getattr(again, "members", ())]
            assert members == [m.variant for m in getattr(model, "members", ())]
            assert members == (["j48", "nb"] if model.variant == "vote" else [])
            trees = getattr(again, "sizes", np.zeros(0)).tolist()
            assert trees == getattr(model, "sizes", np.zeros(0)).tolist()
            assert len(trees) == {"j48": 1, "rt": 1, "rf": 3, "bagging": 2}.get(model.variant, 0)
            assert again.schema == model.schema
            assert again.class_names == model.class_names
            for _ in range(40):
                v = vector(
                    **{
                        "ip.len": rng.choice([None, rng.randrange(0, 15)]),
                        "ip.ttl": rng.choice([None, 32, 64]),
                    }
                )
                assert class_proba(model, v) == class_proba(again, v)

    def test_unknown_model_type_not_saved(self):
        with pytest.raises(ModelFormatError, match="^cannot persist model type StubModel$"):
            save_model(stub((0.5, 0.5)))

    def test_version_mismatch_rejected(self):
        text = save_model(self.trained_models()[0])
        bad = text.replace('"version":4', '"version":99')
        with pytest.raises(ModelFormatError, match="version"):
            load_model(bad)
        # below the versions that get the retrain advice
        with pytest.raises(ModelFormatError, match="unsupported model version 0; this build reads version 4"):
            load_model(text.replace('"version":4', '"version":0'))

    # a j48 model as the version 1 format wrote it: one object per node
    V1_J48 = (
        '{"format":"devfp-model","version":1,"variant":"j48","schema":["ip.len"],"class_names":["A","B"],'
        '"hyperparams":{"seed":1,"forest_trees":100,"rt_feature_count":null,"bagging_rounds":10,'
        '"bag_fraction":1.0,"c45_min_leaf":2,"c45_confidence":0.25,"c45_prune":true,"nb_variance_floor":1e-09},'
        '"params":{"root":2,"nodes":[{"counts":[0,4]},{"counts":[4,0]},'
        '{"attribute":0,"threshold":5.5,"absent_branch":"left","left":1,"right":0}]}}\n'
    )

    def test_version_1_rejected_with_retrain_advice(self):
        with pytest.raises(ModelFormatError, match="version 1.*retrain the model with this build"):
            load_model(self.V1_J48)
        with pytest.raises(ModelFormatError, match="version 1"):
            load_model(self.V1_J48.encode("utf-8"))

    # the same j48 model as the version 2 format wrote it: its tree in post-order
    V2_J48 = V1_J48.replace('"version":1', '"version":2').split('"params":')[0] + (
        '"params":{"sizes":[3],"attribute":[-1,-1,0],"threshold":[5.5],"absent":"l","leaf_nnz":[1,1],'
        '"count_class":[1,0],"count":[4,4]}}\n'
    )

    def test_version_2_rejected_with_retrain_advice(self):
        advice = "version 2; retrain the model with this build, which writes version 4"
        with pytest.raises(ModelFormatError, match=advice):
            load_model(self.V2_J48)
        with pytest.raises(ModelFormatError, match=advice):
            load_model(self.V2_J48.encode("utf-8"))
        # its columns read as version 4 are no tree: the root would be a leaf
        with pytest.raises(ModelFormatError, match="malformed tree"):
            load_model(v4_header(self.V2_J48))

    # the same j48 model as the version 3 format wrote it: its tree breadth-first
    V3_J48 = V1_J48.replace('"version":1', '"version":3').split('"params":')[0] + (
        '"params":{"sizes":[3],"attribute":[0,-1,-1],"threshold":[5.5],"absent":"l","leaf_nnz":[1,1],'
        '"count_class":[0,1],"count":[4,4]}}\n'
    )

    def test_version_3_rejected_with_retrain_advice(self):
        advice = "version 3; retrain the model with this build, which writes version 4"
        with pytest.raises(ModelFormatError, match=advice):
            load_model(self.V3_J48)
        with pytest.raises(ModelFormatError, match=advice):
            load_model(self.V3_J48.encode("utf-8"))
        # version 4 is version 3 without the three hyperparams that training holds constant
        v4 = v4_header(self.V3_J48)
        assert save_model(load_model(v4)) == v4

    def test_every_older_version_rejected_with_retrain_advice(self):
        # the advice covers each version below the current one, so a format bump extends it
        text = save_model(self.trained_models()[0])
        with patch("devfp.classifiers.persist.FORMAT_VERSION", 5):
            with pytest.raises(ModelFormatError, match="version 4; retrain the model with this build, which writes version 5"):
                load_model(text)

    def test_non_json_rejected(self):
        # nesting beyond the parser's depth, an integer beyond its digit limit, bytes
        # that are not UTF-8
        head = '{"format":"devfp-model","version":'
        cases = [
            ("not json at all", "format"),
            (head + '4,"variant":"j48","schema":' + "[" * 100000, "schema is not readable JSON"),
            (head + "1" * 5000, "version is not readable JSON"),
            (b"\xff\xfe{", "not UTF-8"),
        ]
        for text, match in cases:
            with pytest.raises(ModelFormatError, match=match):
                load_model(text)

    def test_bytes_load_only_as_utf8_without_bom(self):
        text = save_model(self.trained_models()[0])
        assert save_model(load_model(text.encode("utf-8"))) == text
        for data in (codecs.BOM_UTF8 + text.encode("utf-8"), text.encode("utf-16"), text.encode("utf-16-le")):
            with pytest.raises(ModelFormatError):
                load_model(data)

    def test_save_and_load_peak_below_four_times_the_text(self):
        # 20 trees of a noisy four-class dataset: tens of kB of text, so that
        # the ratio is set by the nodes and not by fixed costs
        rng = random.Random(5)
        n = 400
        dataset = make_dataset(
            {"ip.len": [rng.randrange(1000) for _ in range(n)], "ip.ttl": [rng.randrange(256) for _ in range(n)]},
            [f"c{rng.randrange(4)}" for _ in range(n)],
        )
        model = train_model(dataset, ModelSpec("rf", Hyperparams(forest_trees=20)))
        text = save_model(model)
        assert len(text) > 30_000
        # and saving one j48 staircase of 199,999 nodes (about 2 MB of text),
        # which save_model writes a piece of a column at a time
        stair = staircase(99_999)
        stair_text = save_model(stair)
        assert len(stair_text) > 2_000_000
        # a loaded model's own arrays are not the loader's working memory: the
        # dense int32 counts and float64 proba of its leaves alone outweigh the text
        def array_bytes(loaded):
            return sum(a.nbytes for a in vars(loaded).values() if isinstance(a, np.ndarray))

        no_arrays = lambda saved: 0  # noqa: E731
        works = [(lambda: save_model(model), text, no_arrays), (lambda: load_model(text), text, array_bytes),
                 (lambda: save_model(stair), stair_text, no_arrays)]
        for work, written, held in works:
            tracemalloc.start()
            try:
                result = work()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - held(result) < 4 * len(written)

    def test_wrong_format_name_rejected(self):
        with pytest.raises(ModelFormatError, match="not a devfp-model document"):
            load_model('{"format":"something-else","version":1}\n')

    GOOD_NODES = [leaf(0, 4), leaf(4, 0), split(0, 5.5, "left", 1, 0)]
    # {"sizes":[3],"attribute":[0,-1,-1],"threshold":[5.5],"absent":"l",
    #  "leaf_nnz":[1,1],"count_class":[0,1],"count":[4,4]}
    GOOD = tree_params(GOOD_NODES)

    def test_malformed_tree_rejected(self):
        schema, classes = ("ip.len",), ("A", "B")
        assert tree_model(schema, classes, self.GOOD_NODES).sizes.tolist() == [3]
        one_leaf_less = {"leaf_nnz": [1], "count_class": [0], "count": [4]}
        one_leaf_more = {"leaf_nnz": [1, 1, 1], "count_class": [0, 1, 0], "count": [4, 4, 1]}
        two_splits = {"threshold": [5.5, 6.5], "absent": "ll", **one_leaf_more}
        # these break only the breadth-first structure, so an rf, which may hold
        # several trees, rejects them as malformed
        structural = [
            {"attribute": [-1, 0, -1]},  # the split at node 1 would be its own left child
            {"attribute": [-1, -1, 0]},  # the split at node 2 would have its children at nodes 1 and 2
            {"sizes": [5], "attribute": [0, -1, -1, -1, 0], **two_splits},  # the second split's at 3 and 4
            {"sizes": [3, 3], "attribute": [0, -1, -1, -1, 0, -1], "threshold": [5.5] * 2, "absent": "ll",
             "leaf_nnz": [1] * 4, "count_class": [0, 1] * 2, "count": [4] * 4},  # so in the second tree
            {"sizes": [2], "attribute": [0, -1], **one_leaf_less},  # a split in a tree of 2 nodes
            {"sizes": [4], "attribute": [0, -1, -1, -1], **one_leaf_more},  # a split and 3 leaves
            {"sizes": [1, 2]},  # sizes that cut a tree
            {"sizes": [2, 1]},
        ]
        # the same columns in breadth-first order load
        document_model("rf", schema, classes, {**self.GOOD, "sizes": [5], "attribute": [0, -1, 0, -1, -1],
                                               **two_splits})
        for edit in structural:
            with pytest.raises(ModelFormatError, match="malformed tree"):
                document_model("rf", schema, classes, {**self.GOOD, **edit})
        bad_edits = [
            *structural,
            {"sizes": [4]},  # sizes beyond the nodes
            {"sizes": [0, 3]},  # an empty tree
            {"sizes": [3, 3], "attribute": [0, -1, -1] * 2, "threshold": [5.5] * 2, "absent": "ll",
             "leaf_nnz": [1] * 4, "count_class": [0, 1] * 2, "count": [4] * 4},  # j48 of two trees
            {"attribute": [3, -1, -1]},  # attribute out of range
            {"attribute": [0, -2, -1]},  # a negative attribute that is not -1
            {"threshold": []},  # too few thresholds
            {"threshold": [5.5, 6.5]},  # too many thresholds
            {"absent": "u"},  # bad absent branch
            {"absent": "lr"},  # an absent letter too many
            {"absent": ""},  # an absent letter too few
            {"count_class": [0, 2]},  # class out of range
            {"count": [4, -1]},  # negative count
            {"count": [4, 0]},  # zero count listed
            {"count": [4, 2**40]},  # count beyond int32
            {"leaf_nnz": [1, 0], "count_class": [0], "count": [4]},  # a leaf with all-zero counts
            {"leaf_nnz": [2, 1], "count_class": [0, 0, 1], "count": [4, 1, 4]},  # a class twice in a leaf
            {"leaf_nnz": [2, 1], "count_class": [1, 0, 1], "count": [1, 4, 4]},  # classes out of order
            {"leaf_nnz": [3, 1], "count_class": [0, 1, 0, 1], "count": [4, 1, 1, 4]},  # more counts than classes
            {"count": [4]},  # a count missing
        ]
        for edit in bad_edits:
            with pytest.raises(ModelFormatError):
                document_model("j48", schema, classes, {**self.GOOD, **edit})
        missing = {k: v for k, v in self.GOOD.items() if k != "absent"}
        with pytest.raises(ModelFormatError):
            document_model("j48", schema, classes, missing)
        # a bare minus sign where a 0 belongs: np.fromstring reads it as 0
        text = canonical(document("j48", schema, classes, self.GOOD))
        for column in ('"attribute":[0,-1,-1]', '"count_class":[0,1]'):
            assert column in text
            with pytest.raises(ModelFormatError, match=column.split('"')[1]):
                load_model(text.replace(column, column.replace("[0", "[-")))

    # edits of models built in memory, each of which the model's own checks refuse
    MODEL_EDITS = [
        ("j48", {"threshold": np.array([np.nan])}),
        ("j48", {"threshold": np.array([-np.inf])}),
        ("j48", {"feature": np.array([1, -1, -1])}),  # an attribute beyond the schema
        ("j48", {"feature": np.array([0, -2, -1])}),  # a negative attribute that is not -1
        ("j48", {"absent_left": np.array([True, False])}),  # an absent_left entry too many
        ("j48", {"counts": np.array([[0, 4]], dtype=np.int32)}),  # a leaf's row missing
        ("j48", {"counts": np.array([[0, 4, 0], [4, 0, 0]], dtype=np.int32)}),  # a class column too many
        ("j48", {"counts": np.array([[0, 4], [4, -1]], dtype=np.int32)}),  # a negative count
        ("j48", {"counts": np.array([[0, 4], [0, 0]], dtype=np.int32)}),  # a leaf whose counts are all 0
        ("j48", {"schema": ("ip.len", "ip.len")}),
        ("j48", {"class_names": ("A", "A")}),
        ("nb", {"priors": np.array([0.0, 1.0])}),
        ("nb", {"priors": np.array([1.0])}),  # one prior for two classes
        ("nb", {"means": np.array([[1.5, np.nan]])}),  # one row of means
        ("nb", {"stddevs": np.array([[0.0, np.nan], [0.5, 1.0]])}),  # a zero stddev under a mean
        ("nb", {"stddevs": np.array([[-0.5, np.nan], [0.5, 1.0]])}),
        ("nb", {"schema": ("ip.len", "ip.len")}),
        ("vote", {"class_names": ("B", "B")}),
    ]

    @pytest.mark.parametrize(
        "variant, edit",
        MODEL_EDITS,
        ids=["nan-threshold", "infinite-threshold", "attribute-beyond-schema", "attribute-below-minus-one",
             "absent-left-too-long", "counts-row-missing", "counts-column-extra", "negative-count",
             "all-zero-leaf", "tree-repeated-attribute", "tree-repeated-class", "zero-prior", "priors-short",
             "means-short", "zero-stddev", "negative-stddev", "nb-repeated-attribute", "vote-repeated-class"],
    )
    def test_model_built_in_memory_checks_its_values(self, variant, edit):
        schema, classes = ("ip.len", "ip.ttl"), ("A", "B")
        params = {"j48": self.GOOD, "nb": self.NB_PARAMS, "vote": {"members": [member("j48", self.GOOD)]}}
        good = document_model(variant, schema[:1] if variant != "nb" else schema, classes, params[variant])
        replace(good)  # the unedited fields build
        with pytest.raises(ValueError):
            replace(good, **edit)

    @pytest.mark.parametrize(
        "schema, classes, edit",
        [
            (("ip.len",), ("A", "B"), {"sizes": [True]}),
            (("ip.len",), ("A", "B"), {"sizes": [3.0]}),
            (("ip.len",), ("A", "B"), {"threshold": ["5.5"]}),
            (("ip.len",), ("A", "A"), {}),
            (("ip.len", "ip.len"), ("A", "B"), {}),
            (("ip.len",), ("A", 7), {}),
            (("ip.len",), ("A", "B"), {"attribute": [-1, -1, False]}),
            (("ip.len",), ("A", "B"), {"count_class": [1.0, 0]}),
        ],
        ids=["sizes-bool", "sizes-float", "threshold-string", "duplicate-class", "duplicate-attribute",
             "class-not-string", "attribute-bool", "count-class-float"],
    )
    def test_coercible_values_rejected(self, schema, classes, edit):
        # each of these loaded before, most of them re-saving to other bytes
        assert tree_model(("ip.len",), ("A", "B"), self.GOOD_NODES).sizes.tolist() == [3]
        with pytest.raises(ModelFormatError):
            load_model(canonical(document("j48", schema, classes, {**self.GOOD, **edit})))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seed", "x"),
            ("seed", True),
            ("forest_trees", 2.5),
            ("rt_feature_count", True),
            ("bagging_rounds", "10"),
            ("bag_fraction", True),
            ("bag_fraction", 1),
            ("c45_min_leaf", 2.0),
            ("c45_confidence", "0.25"),
            ("c45_prune", []),
            ("nb_variance_floor", 1),
        ],
        ids=["seed-string", "seed-bool", "forest-trees-float", "rt-feature-count-bool", "bagging-rounds-string",
             "bag-fraction-bool", "bag-fraction-int", "min-leaf-float", "confidence-string", "prune-list",
             "variance-floor-int"],
    )
    def test_hyperparams_of_another_type_rejected(self, name, value):
        # each of these loaded before into hyperparams that no command line builds;
        # rt_feature_count, bag_fraction and nb_variance_floor are now unknown keys
        good = document("j48", ("ip.len",), ("A", "B"), self.GOOD)
        load_model(canonical(good))
        doc = {**good, "hyperparams": {**good["hyperparams"], name: value}}
        with pytest.raises(ModelFormatError, match=name):
            load_model(canonical(doc))

    def test_missing_and_unknown_keys_rejected(self):
        # each loaded before, and save_model wrote seed back or dropped extra
        schema, classes = ("ip.len",), ("A", "B")
        good = document("j48", schema, classes, self.GOOD)
        load_model(canonical(good))
        no_seed = {**good, "hyperparams": {k: v for k, v in good["hyperparams"].items() if k != "seed"}}
        extra_first = {"extra": 1, **self.GOOD}
        extra_last = {**self.GOOD, "extra": 1}
        no_count = {k: v for k, v in self.GOOD.items() if k != "count"}
        documents = [no_seed, *(document("j48", schema, classes, p) for p in (extra_first, extra_last, no_count))]
        # version 1 nb params also held present_rates
        documents.append(document("nb", ("ip.len", "ip.ttl"), classes,
                                  {**self.NB_PARAMS, "present_rates": [[1.0, 0.0], [1.0, 1.0]]}))
        for doc in documents:
            with pytest.raises(ModelFormatError):
                load_model(canonical(doc))

    NB_PARAMS = {
        "priors": [0.5, 0.5],
        "means": [[1.5, None], [8.5, 32.0]],
        "stddevs": [[0.5, None], [0.5, 1.0]],
    }

    @pytest.mark.parametrize(
        "variant, params, version",
        [
            ("j48", {**GOOD, "count": [4, 4.7]}, 3),
            ("j48", {**GOOD, "count": ["4", 4]}, 3),
            ("j48", {**GOOD, "count": [True, 4]}, 3),
            ("j48", GOOD, True),
            ("j48", GOOD, 3.0),
            ("nb", {**NB_PARAMS, "priors": [True, 0.5]}, 3),
            ("nb", {**NB_PARAMS, "means": [[1.5, None], ["8.5", 32.0]]}, 3),
            ("nb", {**NB_PARAMS, "stddevs": [[0.5, None], [1, 1.0]]}, 3),
        ],
        ids=["count-float", "count-string", "count-bool", "version-bool", "version-float",
             "prior-bool", "mean-string", "stddev-int"],
    )
    def test_coercible_counts_versions_and_nb_numbers_rejected(self, variant, params, version):
        # each of these loaded before and re-saved to other bytes
        schema, classes = ("ip.len", "ip.ttl"), ("A", "B")
        for good in (self.GOOD, self.NB_PARAMS):
            document_model("nb" if "priors" in good else "j48", schema, classes, good)
        with pytest.raises(ModelFormatError):
            load_model(canonical({**document(variant, schema, classes, params), "version": version}))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "nan", "inf", "-inf"])
    def test_non_json_number_constants_rejected(self, constant):
        # NaN nb means and stddevs loaded and re-saved as null, a NaN threshold loaded too; Python's
        # nan, inf and -inf are their own repr, so a check against repr alone lets them through. JSON
        # reads refuse the constant by name; np.fromstring reads a threshold as a non-finite float,
        # which TreeModel refuses
        slot = 1234.5
        nb = {**self.NB_PARAMS, "means": [[1.5, slot], [8.5, 32.0]], "stddevs": [[0.5, slot], [0.5, 1.0]]}
        nodes = self.GOOD_NODES[:2] + [split(0, slot, "left", 1, 0)]
        documents = [
            (document("nb", ("ip.len", "ip.ttl"), ("A", "B"), nb), constant),
            (document("j48", ("ip.len",), ("A", "B"), tree_params(nodes)), "every threshold must be finite"),
        ]
        for doc, match in documents:
            text = canonical(doc)
            assert repr(slot) in text
            with pytest.raises(ModelFormatError, match=match):
                load_model(text.replace(repr(slot), constant))

    def test_malformed_vote_rejected(self):
        def j48(classes=("A", "B"), attribute=0):
            counts = [0] * len(classes)
            return tree_params([leaf(*counts[:-1], 3), leaf(4, *counts[1:]), split(attribute, 5.5, "left", 1, 0)])

        schema, classes = ("ip.len",), ("A", "B")
        # an rf member's params are tree columns too, here of a forest of one
        good = document_model("vote", schema, classes, {"members": [member("j48", j48()), member("rf", j48())]})
        assert [m.variant for m in good.members] == ["j48", "rf"]
        assert good.members[0].schema == schema and good.members[0].class_names == classes
        bad_members = [
            member("j48", j48(("A", "B", "C"))),  # member counts a class the vote lacks
            member("j48", j48(attribute=1)),  # member reads a column the vote lacks
            member("vote", {"members": [member("j48", j48())]}),  # nested vote
            member("svm", j48()),  # unknown variant
            document("j48", schema, classes, j48()),  # a version 1 member: a whole document
        ]
        for bad in bad_members:
            with pytest.raises(ModelFormatError):
                document_model("vote", schema, classes, {"members": [bad]})

    def test_ensemble_without_members_rejected(self):
        emptied = 0
        for model in self.trained_models():
            doc = json.loads(save_model(model))
            if model.variant in ("rf", "bagging", "vote"):
                doc["params"] = {"members": []} if model.variant == "vote" else tree_params()
                with pytest.raises(ModelFormatError, match="no members"):
                    load_model(canonical(doc))
                emptied += 1
        assert emptied == 3  # rf, bagging, vote

    def test_malformed_naive_bayes_rejected(self):
        schema, classes = ("ip.len", "ip.ttl"), ("A", "B")
        good = {
            "priors": [0.5, 0.5],
            # class A never saw ip.ttl: null mean and stddev
            "means": [[1.5, None], [8.5, 32.0]],
            "stddevs": [[0.5, None], [0.5, 1.0]],
        }
        model = document_model("nb", schema, classes, good)
        assert predicted(model, vector(**{"ip.len": 2, "ip.ttl": 32})) == "B"
        bad_params = [
            {"priors": [1.0]},  # one prior for two classes
            {"means": [[1.5, None]]},  # one row of means
            {"stddevs": [[0.5], [0.5]]},  # one stddev per class
            {"means": [[1.5, None], [8.5]]},  # a short row of means
            {"priors": [0.0, 1.0]},  # zero prior
            {"priors": [-0.5, 1.5]},  # negative prior
            {"stddevs": [[0.0, None], [0.5, 1.0]]},  # zero stddev under a mean
            {"stddevs": [[-0.5, None], [0.5, 1.0]]},  # negative stddev
            {"stddevs": [[None, None], [0.5, 1.0]]},  # null stddev under a mean
            {"stddevs": [[0.5, 1.0], [0.5, 1.0]]},  # stddev without a mean
        ]
        for change in bad_params:
            with pytest.raises(ModelFormatError):
                document_model("nb", schema, classes, {**good, **change})

    def test_deep_tree_round_trip(self):
        # staircase data grows a tree ~300 levels deep; growth, routing and
        # persistence must all survive without recursion errors
        n = 300
        values = list(range(n))
        labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
        model = train_model(one_attr_dataset(values, labels), ModelSpec("j48", UNPRUNED_MIN1))
        for i in (0, 1, n // 2, n - 1):
            assert predicted(model, vector(**{"ip.len": i})) == labels[i]
        again = load_model(save_model(model))
        assert save_model(again) == save_model(model)


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(TypeError, match="^c45_confidence must be of type float$"):
            Hyperparams(c45_confidence=1)
        with pytest.raises(TypeError, match="^c45_prune must be of type bool$"):
            Hyperparams(c45_prune=1)
        with pytest.raises(ValueError):
            Hyperparams(forest_trees=0)
        with pytest.raises(ValueError):
            Hyperparams(c45_confidence=0.75)

    def test_model_spec_validates_variant(self):
        with pytest.raises(ValueError):
            ModelSpec(variant="svm")


def test_public_surface_is_what_readme_documents():
    # a per-variant trainer exported again would have to be documented first
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = " ".join(readme.split()).split("`devfp.classifiers` exports exactly these names:")[1].split(".")[0]
    documented = re.findall(r"`(\w+)`", sentence)
    assert len(documented) == len(set(documented)) == len(classifiers.__all__)
    assert set(documented) == set(classifiers.__all__)
    assert "train_model" in documented
