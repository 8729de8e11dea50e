import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tables import column_scores, make_dataset
from oracles import (
    brute_best_split,
    brute_entropy_counts,
    brute_gain_ratio,
    brute_split_candidates,
    reference_score_column,
    reference_weighted_entropy,
)

from devfp.errors import MissingMeta, RegistryFormatError, SingleClassDataset
from devfp.features import CANONICAL_ATTRIBUTES, label_by_source_mac, read_registry
from devfp.pcap import parse_capture
from devfp.selection import (
    FLAG_TIME_DEPENDENT,
    AttributeScore,
    apply_criteria,
    default_meta,
    rank,
    rank_report_csv,
    read_attribute_meta,
    weighted_entropies,
    xlog2x_table,
)


def entropies(*rows) -> list[float]:
    """The entropy of count rows of one length: `weighted_entropies` over
    a table of the largest total, divided by each row's total."""
    counts = np.array(rows, dtype=np.int64)
    totals = counts.sum(axis=1)
    return (weighted_entropies(counts, xlog2x_table(totals.max())) / totals).tolist()


class TestEntropy:
    def test_uniform_binary(self):
        assert entropies([2, 2]) == [1.0]

    def test_pure(self):
        assert entropies([4, 0], [0, 7]) == [0.0, 0.0]

    def test_three_to_one(self):
        (value,) = entropies([3, 1])
        expected = -0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.8112781244591328, abs=1e-12)

    @given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(lambda c: sum(c) > 0))
    @settings(max_examples=100)
    def test_matches_oracle_and_bounds(self, counts):
        (value,) = entropies(counts)
        assert value == reference_weighted_entropy(counts) / sum(counts)  # the same bits, not only close
        assert value == pytest.approx(brute_entropy_counts(counts), abs=1e-12)
        nonzero = sum(1 for c in counts if c)
        assert -1e-12 <= value <= math.log2(max(nonzero, 1)) + 1e-12


class TestBestBinarySplit:
    def test_two_cluster_example(self):
        values = [1.0, 2.0, 10.0, 11.0]
        labels = ["A", "A", "B", "B"]
        result = column_scores([values], [labels])[0]
        # exhaustive check over the three candidate midpoints
        oracle = brute_best_split(values, labels)
        assert oracle[0] == 6.0 and oracle[1] == pytest.approx(1.0)
        assert result.threshold == 6.0
        assert result.info_gain == pytest.approx(1.0, abs=1e-12)
        assert result.split_info == pytest.approx(1.0, abs=1e-12)

    def test_all_values_equal_degenerate(self):
        result = column_scores([[5, 5, 5]], [["A", "B", "A"]])[0]
        assert result.threshold is None
        assert result.info_gain == 0.0

    def test_single_class_degenerate(self):
        result = column_scores([[1, 2, 3]], [["A", "A", "A"]])[0]
        assert result.threshold is None
        assert result.info_gain == 0.0

    def test_tie_breaks_to_smaller_threshold(self):
        # both cuts of A B A give the same gain; the smaller midpoint wins
        result = column_scores([[0, 1, 2]], [["A", "B", "A"]])[0]
        assert result.threshold == 0.5

    @given(
        n=st.integers(2, 12),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_matches_oracle(self, n, data):
        # With 3+ classes, distinct thresholds can tie in exact arithmetic
        # (e.g. 4*H(2,1,1) + 3*H(2,1) == 6*H(3,2,1)), and float noise decides
        # which one each implementation sees as the max. So: the best gain
        # must match the oracle's, and the chosen threshold must be one of
        # the oracle's max-gain candidates with a consistent split_info.
        values = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=n, max_size=n))
        result = column_scores([[float(v) for v in values]], [labels])[0]
        candidates = brute_split_candidates(values, labels)
        best_gain = max((gain for _, gain, _ in candidates), default=0.0)
        assert result.info_gain == pytest.approx(max(best_gain, 0.0), abs=1e-12)
        if result.threshold is not None:
            matching = [
                (thr, gain, si)
                for thr, gain, si in candidates
                if thr == pytest.approx(result.threshold, abs=1e-12)
            ]
            assert len(matching) == 1
            _, gain, split_info = matching[0]
            assert gain == pytest.approx(best_gain, abs=1e-12)
            assert result.split_info == pytest.approx(split_info, abs=1e-12)


class TestGainRatio:
    def test_perfect_binary_attribute_scores_one(self):
        score = column_scores([[0, 0, 1, 1]], [["A", "A", "B", "B"]])[0]
        assert score.gain_ratio == pytest.approx(1.0, abs=1e-12)
        assert score.present_fraction == 1.0

    def test_constant_attribute_scores_zero(self):
        score = column_scores([[7, 7, 7, 7]], [["A", "A", "B", "B"]])[0]
        assert score.gain_ratio == 0.0
        assert score.threshold is None

    def test_all_absent_scores_zero_with_zero_presence(self):
        score = column_scores([[None] * 4], [["A", "A", "B", "B"]])[0]
        assert score.gain_ratio == 0.0
        assert score.present_fraction == 0.0

    def test_half_absent_perfectly_separating(self):
        # 8 rows, present half {1,2 -> A, 9,10 -> B}: raw gain 1 scaled by 0.5
        column = [1, 2, 9, 10, None, None, None, None]
        labels = ["A", "A", "B", "B", "A", "B", "A", "B"]
        score = column_scores([column], [labels])[0]
        assert score.present_fraction == 0.5
        assert score.info_gain == pytest.approx(0.5, abs=1e-12)
        assert score.gain_ratio == pytest.approx(brute_gain_ratio(column, labels), abs=1e-12)
        assert score.gain_ratio == pytest.approx(0.5, abs=1e-12)

    def test_matches_oracle_with_missing_cells(self):
        rng = random.Random(42)
        columns, label_lists = [], []
        for _ in range(300):
            n = rng.randrange(2, 10)
            columns.append([rng.choice([None, 0, 1, 2, 3]) for _ in range(n)])
            label_lists.append([rng.choice("AB") for _ in range(n)])
        for column, labels, score in zip(columns, label_lists, column_scores(columns, label_lists)):
            assert score.gain_ratio == pytest.approx(
                brute_gain_ratio(column, labels), abs=1e-12
            ), (column, labels)

    @given(
        values=st.lists(st.integers(0, 9), min_size=2, max_size=16),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_monotone_transform_invariance(self, values, data):
        labels = data.draw(
            st.lists(st.sampled_from(["A", "B"]), min_size=len(values), max_size=len(values))
        )
        base, affine, cubic = column_scores(
            [values, [2 * v + 3 for v in values], [v**3 for v in values]], [labels] * 3
        )
        assert base.gain_ratio == affine.gain_ratio == cubic.gain_ratio
        assert base.info_gain == affine.info_gain == cubic.info_gain

    @given(
        values=st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=2, max_size=16),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_bounds(self, values, data):
        labels = data.draw(
            st.lists(st.sampled_from(["A", "B", "C"]), min_size=len(values), max_size=len(values))
        )
        score = column_scores([values], [labels])[0]
        assert score.gain_ratio >= 0.0
        assert 0.0 <= score.info_gain <= brute_entropy_counts(
            [labels.count(c) for c in set(labels)]
        ) + 1e-12


def two_column_dataset(col_x, col_y, labels):
    columns = {"ip.len": col_x, "ip.ttl": col_y, "ip.proto": [6] * len(labels)}
    return make_dataset(columns, labels, attributes=("ip.len", "ip.ttl"))


class TestRank:
    def test_separating_attribute_ranks_first(self):
        dataset = two_column_dataset([1, 2, 9, 10], [5, 5, 5, 5], ["A", "A", "B", "B"])
        ranked = rank(dataset)
        assert [s.name for s in ranked] == ["ip.len", "ip.ttl"]
        assert ranked[1].gain_ratio == 0.0

    def test_duplicated_attribute_ties_break_by_schema_order(self):
        dataset = two_column_dataset([1, 2, 9, 10], [1, 2, 9, 10], ["A", "A", "B", "B"])
        ranked = rank(dataset)
        assert [s.name for s in ranked] == ["ip.len", "ip.ttl"]
        assert ranked[0].gain_ratio == ranked[1].gain_ratio

    def test_zero_gain_attribute_scores_zero(self):
        # the one cut of ip.len leaves half A, half B on both sides: gain 0
        dataset = two_column_dataset([0, 0, 1, 1], [1, 2, 9, 10], ["A", "B", "A", "B"])
        scores = {score.name: score for score in rank(dataset)}
        assert scores["ip.len"].info_gain == 0.0

    def test_single_class_rejected(self):
        dataset = two_column_dataset([1, 2], [3, 4], ["A", "A"])
        with pytest.raises(SingleClassDataset):
            rank(dataset)

    def test_rank_is_permutation_of_schema(self):
        dataset = two_column_dataset([1, None, 9, 10], [4, 3, 2, 1], ["A", "B", "B", "A"])
        ranked = rank(dataset)
        assert sorted(s.name for s in ranked) == sorted(dataset.attributes)

    def test_label_shuffle_drives_gain_toward_zero(self):
        rng = random.Random(9)
        values = [1, 2, 3, 4] * 4 + [20, 21, 22, 23] * 4
        labels = ["A"] * 16 + ["B"] * 16
        shuffles = []
        for _ in range(200):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            shuffles.append(shuffled)
        structured, *shuffled_scores = column_scores([values] * 201, [labels, *shuffles])
        structured = structured.info_gain
        shuffled_gains = [score.info_gain for score in shuffled_scores]
        assert structured == pytest.approx(1.0, abs=1e-12)
        assert sum(shuffled_gains) / len(shuffled_gains) < 0.25 * structured

    def test_all_nine_attributes_score_positive_on_training_corpus(self, training_paths):
        from corpus import TRAINING_REGISTRY

        pcap_path, _ = training_paths
        from devfp.features import extract_capture

        capture = parse_capture(pcap_path.read_bytes())
        vectors = extract_capture(capture)
        dataset, _ = label_by_source_mac(vectors, read_registry(TRAINING_REGISTRY))
        ranked = rank(dataset)
        assert len(ranked) == 9
        for score in ranked:
            assert score.gain_ratio > 0.0, score
        ratios = [s.gain_ratio for s in ranked]
        assert ratios == sorted(ratios, reverse=True)


@st.composite
def ranked_datasets(draw):
    """2..40 rows, 2..4 classes, every canonical column drawn from a pool of
    one to three columns (so that equal scores occur) with NaN cells, and a
    schema of 1..9 attributes in any order."""
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(2, 40))
    names = draw(st.lists(st.sampled_from("ABCD"[:n_classes]), min_size=n, max_size=n).filter(
        lambda names: len(set(names)) >= 2))
    cells = st.sampled_from([None, 0, 1, 2, 3, 5, 7])
    pool = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=3))
    columns = {a: pool[draw(st.integers(0, len(pool) - 1))] for a in CANONICAL_ATTRIBUTES}
    schema = draw(st.lists(st.sampled_from(CANONICAL_ATTRIBUTES), min_size=1, max_size=9, unique=True))
    return make_dataset(columns, names, attributes=schema)


def score_bits(score: AttributeScore) -> tuple:
    floats = (score.gain_ratio, score.info_gain, score.present_fraction)
    return (score.name, *(v.hex() for v in floats))


@given(dataset=ranked_datasets())
@settings(max_examples=200)
def test_rank_matches_reference_score_column_bits(dataset):
    X, y, n_classes = dataset.matrix(), dataset.class_codes(), len(dataset.class_names)
    want = []
    for j, name in enumerate(dataset.attributes):
        ratio, gain, _ = reference_score_column(X[:, j], y, n_classes)
        present = int(np.count_nonzero(~np.isnan(X[:, j])))
        want.append(AttributeScore(name, ratio, gain, present / len(dataset)))
    # a stable sort: equal gain ratios keep schema order
    want.sort(key=lambda score: -score.gain_ratio)
    assert [score_bits(s) for s in rank(dataset)] == [score_bits(s) for s in want]


class TestApplyCriteria:
    def make_ranked(self, dataset=None):
        dataset = dataset or two_column_dataset([1, 2, 9, 10], [5, 5, 5, 5], ["A", "A", "B", "B"])
        return rank(dataset)

    def test_zero_gain_ratio_excluded(self):
        ranked = self.make_ranked()
        selected = apply_criteria(ranked, default_meta(["ip.len", "ip.ttl"]))
        assert selected == ("ip.len",)  # constant ip.ttl scored 0

    def test_flag_excludes_even_high_scores(self):
        ranked = self.make_ranked()
        meta = {"ip.len": frozenset({FLAG_TIME_DEPENDENT}), "ip.ttl": frozenset()}
        assert apply_criteria(ranked, meta) == ()

    def test_unflagged_positive_attributes_retained_in_rank_order(self):
        dataset = two_column_dataset([1, 2, 9, 10], [10, 9, 2, 1], ["A", "A", "B", "B"])
        ranked = rank(dataset)
        selected = apply_criteria(ranked, default_meta(dataset.attributes))
        assert selected == tuple(s.name for s in ranked)

    def test_missing_meta_reported(self):
        ranked = self.make_ranked()
        with pytest.raises(MissingMeta, match="^no attribute metadata for 'ip.ttl'$"):
            apply_criteria(ranked, {"ip.len": frozenset()})

    def test_selection_is_subsequence_of_rank(self):
        dataset = two_column_dataset([1, None, 9, 10], [4, 3, 2, 1], ["A", "B", "B", "A"])
        ranked = rank(dataset)
        selected = apply_criteria(ranked, default_meta(dataset.attributes))
        names = [s.name for s in ranked]
        positions = [names.index(s) for s in selected]
        assert positions == sorted(positions)


class TestMetaRegistry:
    def test_parse_flags(self):
        meta = read_attribute_meta(
            "tcp.options.timestamp.tsval\ttime_dependent\n"
            "tcp.option_kind\tmulti_valued_identifier,negative_hex_binary\n"
            "ip.ttl\n"
        )
        assert list(meta) == ["tcp.options.timestamp.tsval", "tcp.option_kind", "ip.ttl"]
        assert meta["tcp.options.timestamp.tsval"] == {FLAG_TIME_DEPENDENT}
        assert len(meta["tcp.option_kind"]) == 2
        assert meta["ip.ttl"] == frozenset()

    def test_unknown_flag_rejected(self):
        with pytest.raises(RegistryFormatError):
            read_attribute_meta("ip.ttl\tshiny\n")

    def test_duplicate_name_rejected(self):
        with pytest.raises(RegistryFormatError):
            read_attribute_meta("ip.ttl\nip.ttl\n")

    @pytest.mark.parametrize("line", [" \ttime_dependent", "\ttime_dependent"])
    def test_empty_name_rejected(self, line):
        # the flags field does not become the name
        with pytest.raises(RegistryFormatError, match="line 2: attribute name must be non-empty"):
            read_attribute_meta(f"ip.ttl\n{line}\n")

    def test_line_with_three_fields_rejected(self):
        with pytest.raises(RegistryFormatError, match="line 1: expected `name` or `name<TAB>flags`, got 3 fields"):
            read_attribute_meta("ip.ttl\ttime_dependent\textra\n")


class TestRankReport:
    def test_report_format(self):
        dataset = two_column_dataset([1, 2, 9, 10], [5, 5, 5, 5], ["A", "A", "B", "B"])
        report = rank_report_csv(rank(dataset))
        lines = report.strip().split("\n")
        assert lines[0] == "rank,attribute,gain_ratio,info_gain,present_fraction"
        assert lines[1].startswith("1,ip.len,1,")
        assert lines[2].startswith("2,ip.ttl,0,")


class TestExhaustiveSmallOracle:
    def test_exhaustive_three_rows(self):
        # tiny slice of the acceptance sweep for quick feedback
        datasets = list(
            itertools.product(itertools.product([0, 1, 2], repeat=3), itertools.product("AB", repeat=3))
        )
        scores = column_scores([values for values, _ in datasets], [labels for _, labels in datasets])
        for (values, labels), score in zip(datasets, scores):
            assert score.gain_ratio == pytest.approx(
                brute_gain_ratio(list(values), list(labels)), abs=1e-12
            )
