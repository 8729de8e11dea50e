"""The benchmark's layer tracer (`benchmarks/layers.py`) still runs devfp's
commands and reads its work counts at the call boundaries.

The tracer wraps the functions `devfp.cli` calls and takes `len()` of what
they take and return, so a change to a Dataset's shape or to those call
signatures can break `benchmarks/run.py --trace 1` while every other test
passes.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def traced(spans_path: Path, *argv) -> list[dict]:
    """Span records of one devfp command run under the tracer."""
    command = [sys.executable, str(REPO / "benchmarks" / "layers.py"), str(REPO / "src"),
               str(spans_path), "t", "traced", *map(str, argv)]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(spans_path.read_text(encoding="utf-8"))


def rows(spans: list[dict], name: str) -> list[int]:
    return [span["attrs"]["rows"] for span in spans if span["name"] == name]


def test_traced_commands_record_row_counts(tmp_path, training_paths):
    pcap, registry = training_paths
    dataset = tmp_path / "dataset.csv"
    spans = traced(tmp_path / "extract.json", "extract", "--input", pcap, "--registry", registry,
                   "--out", dataset)
    n_rows = len(dataset.read_text(encoding="utf-8").splitlines()) - 1
    (extracted,) = rows(spans, "features.extract_capture")
    # the tracer's frame count is len(frames) of the parsed capture
    (parsed,) = [span["attrs"]["frames"] for span in spans if span["name"] == "pcap.parse_capture"]
    (frames_read,) = [span["attrs"]["frames_read"] for span in spans
                      if span["name"] == "features.extract_capture"]
    assert parsed == frames_read > 0
    (labeled,) = rows(spans, "features.label_by_source_mac")
    assert extracted > labeled > 0
    assert rows(spans, "features.clean") == [n_rows]

    # a lone tree, a forest (one tree model each) and a vote of an nb model and a forest
    for variant, *model_args in (("j48",), ("rf", "--trees", 3), ("vote", "--vote-members", "nb,rf", "--trees", 3)):
        out = tmp_path / variant
        spans = traced(tmp_path / f"train-{variant}.json", "train-eval", "--input", dataset,
                       "--model", variant, *model_args, "--out", out)
        assert rows(spans, "features.read_csv") == [n_rows]
        (train_span,) = [span for span in spans if span["name"] == "classifiers.train_model"]
        assert train_span["attrs"]["variant"] == variant
        trained = train_span["attrs"]["rows"]
        (evaluated,) = rows(spans, "evaluation.evaluate")
        assert trained > 0 and evaluated > 0 and trained + evaluated == n_rows

        predictions = tmp_path / f"predictions-{variant}.csv"
        spans = traced(tmp_path / f"classify-{variant}.json", "classify", "--model-file",
                       out / "model.json", "--input", pcap, "--out", predictions)
        n_predictions = len(predictions.read_text(encoding="utf-8").splitlines()) - 1
        assert rows(spans, "features.extract_capture") == [n_predictions] == [extracted]


def names(spans: list[dict]) -> list[str]:
    return [span["name"] for span in spans]


def test_traced_rank_and_device_type_pipeline(tmp_path, training_paths):
    pcap, registry = training_paths
    dataset = tmp_path / "dataset.csv"
    traced(tmp_path / "extract.json", "extract", "--input", pcap, "--registry", registry, "--out", dataset)
    n_rows = len(dataset.read_text(encoding="utf-8").splitlines()) - 1

    spans = traced(tmp_path / "rank.json", "rank", "--input", dataset, "--out", tmp_path / "rank.csv")
    assert rows(spans, "features.read_csv") == [n_rows]
    for name in ("selection.rank", "selection.default_meta", "selection.apply_criteria",
                 "selection.rank_report_csv"):
        assert names(spans).count(name) == 1, name

    out = tmp_path / "pipeline"
    spans = traced(tmp_path / "pipeline.json", "pipeline", "--input", pcap, "--registry", registry,
                   "--model", "j48", "--classes", "device_type", "--out", out)
    # the registry is read once, for labeling and for the device types
    assert names(spans).count("features.read_registry") == 1
    assert rows(spans, "features.clean") == [n_rows]
    (train_span,) = [span for span in spans if span["name"] == "classifiers.train_model"]
    (evaluated,) = rows(spans, "evaluation.evaluate")
    assert train_span["attrs"]["rows"] + evaluated == n_rows
    assert json.loads((out / "model.json").read_text(encoding="utf-8"))["class_names"] == ["IoT", "NonIoT"]
