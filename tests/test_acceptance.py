"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria needing the public datasets live in
test_integration_datasets.py and skip unless the data is provided.
"""

import itertools
import math
import random

import numpy as np
import pytest

from tables import column_scores, make_dataset, predictions, same_dataset, vectors_dataset
from corpus import REFERENCE_REGISTRY, REFERENCE_ROWS
from oracles import brute_gain_ratio, reference_bootstrap, reference_columns, reference_tree
from pcapbuild import TCP_ACK, FeatureRow, ethernet, ipv4, pcap_file, tcp, udp

from devfp.classifiers import Hyperparams, ModelSpec, TreeModel, derive_rng, train_model
from devfp.cli import main as cli_main
from devfp.evaluation import ConfusionMatrix, RunMetadata, metrics
from devfp.features import (
    CSV_HEADER,
    Dataset,
    extract_capture,
    label_by_source_mac,
    read_csv,
    read_registry,
    write_csv,
)
from devfp.pcap import parse_capture


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}: {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


class TestCriterion1MetricIdentities:
    def test_metric_identities_on_random_matrices(self):
        rng = random.Random(1001)
        failures = 0
        for _ in range(1000):
            n = rng.randrange(2, 6)
            counts = tuple(
                tuple(rng.randrange(0, 25) for _ in range(n)) for _ in range(n)
            )
            total = sum(map(sum, counts))
            if total == 0:
                counts = ((1,) + (0,) * (n - 1),) + counts[1:]
                total = 1
            matrix = ConfusionMatrix(tuple(f"c{i}" for i in range(n)), np.array(counts))
            report = metrics(matrix, RunMetadata(seed=1, model="j48", feature_set="combined"))
            trace = sum(counts[i][i] for i in range(n))
            if report.acc != trace / total:
                failures += 1
                continue
            for c in range(n):
                row_sum = sum(counts[c])
                tp = counts[c][c]
                fn = row_sum - tp
                if tp + fn != row_sum or report.support[c] != row_sum:
                    failures += 1
                    break
                if report.tpr_defined[c] and report.tpr[c] != tp / row_sum:
                    failures += 1
                    break
        _report(
            1,
            "ACC == trace/total and TP+FN == row sums on 1000 random matrices",
            failures == 0,
            f"{failures} failures",
        )


class TestCriterion2GainRatioOracle:
    def test_exhaustive_small_datasets_match_brute_force(self):
        datasets = [
            (values, labels)
            for n in range(2, 7)
            for values in itertools.product([0, 1, 2], repeat=n)
            for labels in itertools.product("AB", repeat=n)
        ]
        count = len(datasets)
        scores = column_scores([values for values, _ in datasets], [labels for _, labels in datasets])
        worst = 0.0
        for (values, labels), score in zip(datasets, scores):
            diff = abs(score.gain_ratio - brute_gain_ratio(list(values), list(labels)))
            if diff > worst:
                worst = diff
        _report(
            2,
            "gain ratio matches brute force to 1e-12 on all <=6-row datasets over {0,1,2}",
            worst <= 1e-12,
            f"{count} datasets, worst diff {worst:.3e}",
        )


def _dataset_1attr(values, labels) -> Dataset:
    return make_dataset({"ip.len": values}, labels)


def _dataset_2attr(points, labels) -> Dataset:
    return make_dataset({"ip.len": [a for a, _ in points], "ip.ttl": [b for _, b in points]}, labels)


UNPRUNED_MIN1 = Hyperparams(c45_prune=False, c45_min_leaf=1)


class TestCriterion3TreeOracle:
    def test_exhaustive_consistent_single_attribute_sweep(self):
        # every consistent dataset over one attribute with values {0,1,2}:
        # all value multisets of size 2..8 crossed with all label functions
        checked = 0
        failures = 0
        for n in range(2, 9):
            for values in itertools.combinations_with_replacement([0, 1, 2], n):
                for assignment in itertools.product("AB", repeat=3):
                    labels = [assignment[v] for v in values]
                    if len(set(labels)) < 2:
                        continue
                    checked += 1
                    model = train_model(_dataset_1attr(values, labels), ModelSpec("j48", UNPRUNED_MIN1))
                    if predictions(model, [FeatureRow(ip_len=v) for v in values]) != labels:
                        failures += 1
        _report(
            3,
            "unpruned min_leaf=1 C4.5 is 100% on every consistent single-attribute dataset <= 8 rows",
            failures == 0,
            f"{checked} datasets, {failures} failures",
        )

    def test_two_attribute_dichotomy(self):
        # with two binary attributes a consistent dataset either trains to
        # 100% or greedy splitting stalled at the root with no positive gain
        # (the XOR family); nothing in between
        grid = [(0, 0), (0, 1), (1, 0), (1, 1)]
        checked = 0
        stalled = 0
        failures = 0
        for n in range(2, 9):
            for points in itertools.combinations_with_replacement(grid, n):
                for assignment in itertools.product("AB", repeat=4):
                    labels = [assignment[grid.index(p)] for p in points]
                    if len(set(labels)) < 2:
                        continue
                    checked += 1
                    model = train_model(_dataset_2attr(points, labels), ModelSpec("j48", UNPRUNED_MIN1))
                    perfect = predictions(model, [FeatureRow(ip_len=a, ip_ttl=b) for a, b in points]) == labels
                    if perfect:
                        continue
                    if model.feature[0] < 0:  # the root, the first node
                        stalled += 1  # no positive-gain split existed at the root
                    else:
                        failures += 1
        _report(
            3,
            "two-attribute sweep: imperfect training only via a provably stalled root",
            failures == 0,
            f"{checked} datasets, {stalled} XOR-like stalls, {failures} violations",
        )


class TestCriterion4EnsembleDegeneracy:
    def _random_vectors(self, count=1000, seed=4004):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            out.append(
                FeatureRow(
                    ip_len=rng.choice([None, rng.randrange(0, 40)]),
                    ip_ttl=rng.choice([None, 32, 64, 128, rng.randrange(0, 255)]),
                )
            )
        return out

    def _dataset(self):
        rng = random.Random(99)
        columns = {"ip.len": [], "ip.ttl": []}
        labels = []
        for _ in range(60):
            x = rng.randrange(0, 40)
            ttl = rng.choice([32, 64, 128])
            columns["ip.len"].append(x)
            columns["ip.ttl"].append(ttl)
            labels.append("A" if (x < 20) ^ (ttl == 128) else "B")
        return make_dataset(columns, labels)

    def test_forest_of_one_equals_its_tree(self):
        dataset = self._dataset()
        hp = Hyperparams(forest_trees=1)
        forest = train_model(dataset, ModelSpec("rf", hp))
        # the tree the per-node reference grows on the member's bootstrap sample with the member's RNG
        X, y = dataset.matrix(), dataset.class_codes()
        rng = derive_rng(hp.seed, "rf", 0)
        sample = reference_bootstrap(rng, len(y))
        arrays = reference_tree(X[sample], y[sample], len(dataset.class_names), hp, rng)
        standalone = TreeModel(
            schema=forest.schema, class_names=forest.class_names, hyperparams=hp, variant="rt",
            **reference_columns([arrays]),
        )
        vectors = self._random_vectors()
        rows = zip(*(predictions(model, vectors) for model in (forest, standalone)))
        mismatches = sum(1 for a, b in rows if a != b)
        _report(
            4,
            "forest-of-one == its tree on 1000 random vectors",
            mismatches == 0,
            f"{mismatches} mismatches",
        )

    def test_vote_of_one_equals_its_member(self):
        dataset = self._dataset()
        voted = train_model(dataset, ModelSpec("vote", vote_members=("j48",)))
        base = train_model(dataset, ModelSpec("j48"))
        vectors = self._random_vectors(seed=4005)
        rows = zip(*(predictions(model, vectors) for model in (voted, voted.members[0], base)))
        mismatches = sum(1 for a, b, c in rows if not a == b == c)
        _report(
            4,
            "vote-of-one == its member on 1000 random vectors",
            mismatches == 0,
            f"{mismatches} mismatches",
        )


class TestCriterion5StreamIndexSemantics:
    CONVERSATIONS = {
        # name: (ip_a, port_a, ip_b, port_b, proto)
        "tcp0": ("10.0.0.1", 1000, "10.9.9.1", 80, "tcp"),
        "tcp1": ("10.0.0.2", 2000, "10.9.9.2", 443, "tcp"),
        "tcp2": ("10.0.0.3", 3000, "10.9.9.3", 22, "tcp"),
        "udp0": ("10.0.0.4", 4000, "10.9.9.4", 53, "udp"),
    }
    # interleaved packet order: (conversation, reversed?)
    SCHEDULE = [
        ("tcp0", False),
        ("tcp1", False),
        ("udp0", False),
        ("tcp0", True),
        ("tcp2", False),
        ("udp0", True),
        ("tcp1", True),
        ("tcp2", True),
        ("tcp0", False),
        ("udp0", False),
    ]

    def _build(self, flip_all: dict[str, bool]):
        frames = []
        for name, reverse in self.SCHEDULE:
            ip_a, port_a, ip_b, port_b, proto = self.CONVERSATIONS[name]
            if flip_all[name]:
                reverse = not reverse
            src_ip, src_port, dst_ip, dst_port = (
                (ip_b, port_b, ip_a, port_a) if reverse else (ip_a, port_a, ip_b, port_b)
            )
            if proto == "tcp":
                payload = ipv4(src_ip, dst_ip, 6, tcp(src_port, dst_port, flags=TCP_ACK))
            else:
                payload = ipv4(src_ip, dst_ip, 17, udp(src_port, dst_port))
            frames.append(ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, payload))
        return pcap_file(frames)

    def _stream_of(self, data: bytes) -> dict[str, int]:
        capture = parse_capture(data)
        streams = extract_capture(capture).matrix(("tcp.stream", "udp.stream")).tolist()
        result: dict[str, int] = {}
        for (name, _), (tcp_stream, udp_stream) in zip(self.SCHEDULE, streams):
            index = int(udp_stream if math.isnan(tcp_stream) else tcp_stream)
            result.setdefault(name, index)
            assert result[name] == index, f"index changed mid-capture for {name}"
        return result

    def test_first_appearance_ordinals_and_direction_invariance(self):
        base = self._stream_of(self._build({k: False for k in self.CONVERSATIONS}))
        expected = {"tcp0": 0, "tcp1": 1, "tcp2": 2, "udp0": 0}
        ok = base == expected
        rng = random.Random(55)
        permutations_checked = 0
        for _ in range(16):
            flips = {k: rng.random() < 0.5 for k in self.CONVERSATIONS}
            permuted = self._stream_of(self._build(flips))
            permutations_checked += 1
            if permuted != expected:
                ok = False
                break
        _report(
            5,
            "golden pcap yields tcp.stream 0,1,2 / udp.stream 0; direction permutations invariant",
            ok,
            f"base {base}, {permutations_checked} permutations checked",
        )


class TestCriterion6Table2Fixture:
    def test_reference_rows_reproduced(self, reference_pcap_bytes):
        capture = parse_capture(reference_pcap_bytes)
        vectors = extract_capture(capture)
        dataset, _ = label_by_source_mac(vectors, read_registry(REFERENCE_REGISTRY))
        lines = write_csv(dataset).splitlines()
        ok = lines[0] == CSV_HEADER and lines[1:] == REFERENCE_ROWS
        _report(
            6,
            "synthetic capture reproduces the seven reference rows exactly",
            ok,
            f"first row {lines[1] if len(lines) > 1 else 'missing'}",
        )


class TestCriterion7PipelineDeterminism:
    def test_pipeline_byte_identical_across_runs(self, training_paths, tmp_path, capsys):
        pcap_path, registry_path = training_paths
        artifacts = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code = cli_main(
                [
                    "pipeline",
                    "--input", str(pcap_path),
                    "--registry", str(registry_path),
                    "--model", "rf",
                    "--trees", "7",
                    "--seed", "1",
                    "--out", str(out_dir),
                ]
            )
            captured = capsys.readouterr()
            assert code == 0
            artifacts.append(
                {
                    name: (out_dir / name).read_bytes()
                    for name in (
                        "dataset.csv",
                        "model.json",
                        "report_classes.csv",
                        "summary.csv",
                        "report.txt",
                    )
                }
                | {"stdout": captured.out}
            )
        ok = artifacts[0] == artifacts[1]
        _report(
            7,
            "pipeline run twice with seed 1 produces byte-identical outputs",
            ok,
            "dataset, model, reports and stdout compared",
        )


class TestCriterion8CsvRoundTrip:
    def test_thousand_random_datasets(self):
        rng = random.Random(8008)
        labels_pool = ["Aria", "D-LinkCam", "HueBridge", "Laptop", None]
        failures = 0
        for _ in range(1000):
            vectors = []
            labels = []
            for _ in range(rng.randrange(0, 12)):
                proto = rng.choice([6, 17, 1])
                vectors.append(
                    FeatureRow(
                        tcp_srcport=rng.randrange(65536) if proto == 6 else None,
                        tcp_stream=rng.randrange(1000) if proto == 6 else None,
                        tcp_ack=rng.randrange(2**32) if proto == 6 else None,
                        tcp_window_size=rng.randrange(2**20) if proto == 6 else None,
                        udp_srcport=rng.randrange(65536) if proto == 17 else None,
                        udp_stream=rng.randrange(1000) if proto == 17 else None,
                        ip_len=rng.randrange(20, 65536),
                        ip_ttl=rng.randrange(256),
                        ip_proto=proto,
                    )
                )
                labels.append(rng.choice(labels_pool))
            dataset = vectors_dataset(vectors, labels)
            if not same_dataset(read_csv(write_csv(dataset)), dataset):
                failures += 1
        _report(
            8,
            "read_csv(write_csv(d)) == d for 1000 randomized datasets with Absent cells",
            failures == 0,
            f"{failures} failures",
        )
