import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tables import ablation_report, make_dataset, predictions, same_dataset
from modeldocs import leaf, split, tree_model

from devfp.classifiers import ModelSpec, train_model
from devfp.errors import ClassTooSmall, EmptyDataset, EmptyMatrix, SchemaMismatch
from devfp.evaluation import (
    FEATURE_SETS,
    ConfusionMatrix,
    RunMetadata,
    SplitSpec,
    evaluate,
    metrics,
    report_classes_csv,
    report_summary_line,
    report_text,
    stratified_split,
)
from devfp.features import Dataset, extract_capture, label_by_source_mac, read_registry
from devfp.pcap import parse_capture

RUN = RunMetadata(seed=1, model="j48", feature_set="combined")


def dataset_of(sizes: dict[str, int]) -> Dataset:
    labels = [label for label, count in sizes.items() for _ in range(count)]
    columns = {
        "ip.len": [20 + value % 50 for value in range(len(labels))],
        "ip.ttl": [64] * len(labels),
        "ip.proto": [6] * len(labels),
    }
    return make_dataset(columns, labels, attributes=("ip.len", "ip.ttl"))


class TestStratifiedSplit:
    def test_single_class_eighty_twenty(self):
        train, test = stratified_split(dataset_of({"A": 10}), SplitSpec(train_fraction=0.8, seed=1))
        assert len(train.rows) == 8
        assert len(test.rows) == 2

    def test_two_classes_preserve_proportions(self):
        train, test = stratified_split(
            dataset_of({"A": 100, "B": 50}), SplitSpec(train_fraction=0.8, seed=3)
        )
        train_counts = {c: train.labels.tolist().count(c) for c in ("A", "B")}
        test_counts = {c: test.labels.tolist().count(c) for c in ("A", "B")}
        assert train_counts == {"A": 80, "B": 40}
        assert test_counts == {"A": 20, "B": 10}

    def test_same_seed_same_partition(self):
        data = dataset_of({"A": 30, "B": 20})
        first = stratified_split(data, SplitSpec(seed=42))
        second = stratified_split(data, SplitSpec(seed=42))
        assert same_dataset(first[0], second[0])
        assert same_dataset(first[1], second[1])

    def test_different_seed_different_partition(self):
        data = dataset_of({"A": 30, "B": 20})
        first = stratified_split(data, SplitSpec(seed=1))
        second = stratified_split(data, SplitSpec(seed=2))
        assert not same_dataset(first[0], second[0])

    def test_class_too_small_rejected(self):
        with pytest.raises(ClassTooSmall, match=r"^class 'B' has 1 row\(s\); stratified split needs >= 2$"):
            stratified_split(dataset_of({"A": 10, "B": 1}), SplitSpec())

    def test_unstratified_ignores_class_sizes(self):
        train, test = stratified_split(
            dataset_of({"A": 10, "B": 1}), SplitSpec(stratified=False, seed=5)
        )
        assert len(train.rows) + len(test.rows) == 11

    def test_both_sides_nonempty_even_at_extremes(self):
        train, test = stratified_split(dataset_of({"A": 2}), SplitSpec(train_fraction=0.99))
        assert len(train.rows) == 1 and len(test.rows) == 1

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)

    def test_tiny_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            stratified_split(make_dataset({"ip.len": []}, []), SplitSpec())

    def test_unlabeled_row_rejected(self):
        data = make_dataset({"ip.len": [1, 2, 3, 4]}, ["A", "B", None, "A"])
        with pytest.raises(ValueError, match="^splitting requires every row to be labeled$"):
            stratified_split(data, SplitSpec())

    @given(
        sizes=st.dictionaries(
            st.sampled_from(["A", "B", "C", "D"]), st.integers(2, 40), min_size=1, max_size=4
        ),
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60)
    def test_proportions_within_one_row_per_class(self, sizes, fraction, seed):
        data = dataset_of(sizes)
        train, test = stratified_split(data, SplitSpec(train_fraction=fraction, seed=seed))
        for label, size in sizes.items():
            got = train.labels.tolist().count(label)
            ideal = fraction * size
            assert abs(got - ideal) <= 1.0
            assert got >= 1 and test.labels.tolist().count(label) >= 1
            assert got + test.labels.tolist().count(label) == size


def hand_tree_model():
    # ip.len <= 5.5 -> A, else B; Absent -> left
    return tree_model(
        ("ip.len",), ("A", "B"), [leaf(0, 4), leaf(4, 0), split(0, 5.5, "left", 1, 0)]
    )


def one_attr_test_set(pairs):
    columns = {"ip.len": [v for v, _ in pairs], "ip.ttl": [64] * len(pairs), "ip.proto": [6] * len(pairs)}
    return make_dataset(columns, [lab for _, lab in pairs], attributes=("ip.len",))


class TestEvaluate:
    def test_perfect_model_diagonal(self):
        test = one_attr_test_set([(1, "A"), (2, "A"), (9, "B")])
        matrix = evaluate(hand_tree_model(), test)
        assert matrix.counts == ((2, 0), (0, 1))

    def test_constant_model_single_column(self):
        always_a = tree_model(("ip.len",), ("A", "B"), [leaf(5, 0)])
        test = one_attr_test_set([(1, "A"), (9, "B"), (10, "B")])
        matrix = evaluate(always_a, test)
        assert matrix.counts == ((1, 0), (2, 0))

    def test_hand_enumerated_matrix(self):
        # routing each row through the tree by hand:
        #  3->A (actual A), 7->B (actual A), 5->A (actual B), 9->B (actual B),
        #  None->A (actual B), 5.5->A (actual A)
        test = one_attr_test_set(
            [(3, "A"), (7, "A"), (5, "B"), (9, "B"), (None, "B"), (5.5, "A")]
        )
        matrix = evaluate(hand_tree_model(), test)
        assert matrix.class_names == ("A", "B")
        assert matrix.counts == ((2, 1), (2, 1))
        assert matrix.total == 6

    def test_schema_mismatch(self):
        test = one_attr_test_set([(1, "A")]).project(("ip.len",))
        model = hand_tree_model()
        bad = replace(test, attributes=("ip.len", "ip.ttl"))
        with pytest.raises(SchemaMismatch):
            evaluate(model, bad)

    def test_empty_test_set_rejected(self):
        with pytest.raises(EmptyDataset):
            evaluate(hand_tree_model(), make_dataset({"ip.len": []}, []))

    def test_unlabeled_test_row_rejected(self):
        with pytest.raises(ValueError, match="^evaluation requires every test row to be labeled$"):
            evaluate(hand_tree_model(), one_attr_test_set([(1, "A"), (9, None)]))

    def test_unseen_test_label_gets_extra_row(self):
        test = one_attr_test_set([(1, "A"), (9, "C")])
        matrix = evaluate(hand_tree_model(), test)
        assert matrix.class_names == ("A", "B", "C")
        assert matrix.total == 2
        assert matrix.counts[2][1] == 1  # actual C predicted B


class TestMetrics:
    def test_tpr_direct_substitution(self):
        matrix = ConfusionMatrix(("pos", "neg"), ((5, 5), (0, 10)))
        report = metrics(matrix, RUN)
        assert report.per_class["pos"].tpr == 0.5

    def test_two_by_two_accuracy_and_precision(self):
        matrix = ConfusionMatrix(("x", "y"), ((8, 2), (1, 9)))
        report = metrics(matrix, RUN)
        assert report.acc == pytest.approx(17 / 20)
        assert report.per_class["x"].precision == pytest.approx(8 / 9)
        assert report.per_class["x"].tpr == pytest.approx(8 / 10)
        assert report.per_class["y"].precision == pytest.approx(9 / 11)

    def test_undefined_cells_flagged_not_dropped(self):
        # class y never appears and is never predicted: both metrics 0/0
        matrix = ConfusionMatrix(("x", "y"), ((4, 0), (0, 0)))
        report = metrics(matrix, RUN)
        assert report.per_class["y"].tpr == 0.0
        assert not report.per_class["y"].tpr_defined
        assert not report.per_class["y"].precision_defined
        assert report.macro_tpr == 1.0  # averaged over defined classes only

    def test_row_and_column_identities(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(2, 5)
            counts = tuple(tuple(rng.randrange(0, 9) for _ in range(n)) for _ in range(n))
            if sum(map(sum, counts)) == 0:
                continue
            matrix = ConfusionMatrix(tuple("abcd"[:n]), counts)
            report = metrics(matrix, RUN)
            assert report.acc == matrix.trace / matrix.total
            for c, name in enumerate(matrix.class_names):
                row_sum = sum(counts[c])
                col_sum = sum(counts[r][c] for r in range(n))
                m = report.per_class[name]
                assert m.support == row_sum
                if m.tpr_defined:
                    tp = counts[c][c]
                    assert m.tpr * row_sum == pytest.approx(tp)
                if m.precision_defined:
                    assert m.precision * col_sum == pytest.approx(counts[c][c])
            defined_tpr = [m.tpr for m in report.per_class.values() if m.tpr_defined]
            assert min(defined_tpr) - 1e-12 <= report.macro_tpr <= max(defined_tpr) + 1e-12
            defined_pre = [m.precision for m in report.per_class.values() if m.precision_defined]
            assert min(defined_pre) - 1e-12 <= report.macro_pre <= max(defined_pre) + 1e-12

    def test_relabeling_permutes_report_consistently(self):
        counts = ((5, 2, 1), (0, 7, 3), (2, 2, 6))
        matrix = ConfusionMatrix(("a", "b", "c"), counts)
        report = metrics(matrix, RUN)
        perm = [2, 0, 1]  # new order: c, a, b
        permuted_counts = tuple(
            tuple(counts[perm[i]][perm[j]] for j in range(3)) for i in range(3)
        )
        permuted = metrics(ConfusionMatrix(("c", "a", "b"), permuted_counts), RUN)
        for name in ("a", "b", "c"):
            assert permuted.per_class[name] == report.per_class[name]
        assert permuted.acc == report.acc
        assert permuted.macro_tpr == pytest.approx(report.macro_tpr)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            metrics(ConfusionMatrix(("a", "b"), ((0, 0), (0, 0))), RUN)


class TestAblation:
    def corpus_dataset(self, training_paths):
        from corpus import TRAINING_REGISTRY

        pcap_path, _ = training_paths
        capture = parse_capture(pcap_path.read_bytes())
        dataset, _ = label_by_source_mac(extract_capture(capture), read_registry(TRAINING_REGISTRY))
        return dataset

    def test_projection_sizes(self):
        # the paper's network, transport and combined sets, in schema order
        network = ("ip.len", "ip.ttl", "ip.proto")
        transport = (
            "tcp.srcport", "tcp.stream", "tcp.ack", "tcp.window_size", "udp.srcport", "udp.stream",
        )
        assert FEATURE_SETS == {"network": network, "transport": transport, "combined": transport + network}

    def test_network_projection_schema(self, training_paths):
        dataset = self.corpus_dataset(training_paths)
        report = ablation_report(dataset, "network", ModelSpec("j48"))
        assert report.metadata.feature_set == "network"
        assert report.metadata.model == "j48"

    def test_combined_not_worse_than_single_layers(self, training_paths):
        dataset = self.corpus_dataset(training_paths)
        accs = {
            fs: ablation_report(dataset, fs, ModelSpec("j48"), SplitSpec(seed=1)).acc
            for fs in ("network", "transport", "combined")
        }
        assert accs["combined"] >= accs["network"] - 0.02
        assert accs["combined"] >= accs["transport"] - 0.02


class TestReportRendering:
    def sample_report(self):
        matrix = ConfusionMatrix(("a", "b"), ((8, 2), (1, 9)))
        return metrics(matrix, RUN)

    def test_classes_csv(self):
        text = report_classes_csv(self.sample_report())
        lines = text.strip().split("\n")
        assert lines[0] == "class,tpr,precision,support"
        assert lines[1].startswith("a,0.8,")
        assert lines[2].split(",")[3] == "10"

    def test_summary_line(self):
        line = report_summary_line(self.sample_report())
        parts = line.split(",")
        assert len(parts) == 6
        assert parts[0] == "0.85"
        assert parts[3:] == ["1", "j48", "combined"]

    def test_text_report_mentions_metadata(self):
        text = report_text(self.sample_report())
        assert "model=j48" in text
        assert "accuracy 0.8500" in text

    def test_text_report_footnotes_undefined_metrics(self):
        # class y never appears and is never predicted: its tpr and precision are 0/0
        text = report_text(metrics(ConfusionMatrix(("x", "y"), ((4, 0), (0, 0))), RUN))
        lines = text.splitlines()
        assert lines[-2].split() == ["y", "0.0000*", "0.0000*", "0"]
        assert lines[-1] == "* undefined (0/0), reported as 0"
        assert "*" not in report_text(self.sample_report())

    def test_rendering_is_deterministic(self):
        a, b = self.sample_report(), self.sample_report()
        assert report_text(a) == report_text(b)
        assert report_classes_csv(a) == report_classes_csv(b)
        assert report_summary_line(a) == report_summary_line(b)


class TestEndToEndExample:
    def test_tree_evaluation_consistency(self):
        # evaluate must agree with the row predictions
        dataset = dataset_of({"A": 12, "B": 10})
        train, test = stratified_split(dataset, SplitSpec(seed=9))
        model = train_model(train, ModelSpec("j48"))
        matrix = evaluate(model, test)
        correct = sum(
            1 for predicted, label in zip(predictions(model, test.rows), test.labels) if predicted == label
        )
        assert metrics(matrix, RUN).acc == pytest.approx(correct / len(test.rows))
