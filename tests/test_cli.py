import codecs
import json
from dataclasses import fields
from pathlib import Path

import pytest

from corpus import REFERENCE_ROWS, TRAINING_REGISTRY
from modeldocs import leaf, split, tree_model
from pcapbuild import ethernet, ipv4, pcap_file, udp

from devfp.classifiers import Hyperparams, save_model
from devfp.cli import _build_parser, _model_spec_from_args, main
from devfp.features import CSV_HEADER, clean, read_csv, write_csv
from devfp.pcap import parse_capture


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtract:
    def test_reference_capture_extracts_expected_rows(self, reference_paths, tmp_path, capsys):
        pcap_path, registry_path = reference_paths
        out = tmp_path / "dataset.csv"
        code, _, err = run_cli(
            ["extract", "--input", str(pcap_path), "--registry", str(registry_path), "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1:] == REFERENCE_ROWS
        assert "frames" in err and "dropped" in err

    def test_no_registered_macs_warns_but_succeeds(self, reference_paths, tmp_path, capsys):
        pcap_path, _ = reference_paths
        registry = tmp_path / "other.tsv"
        registry.write_text("0e:00:00:00:00:01\tGhost\tiot\n")
        out = tmp_path / "empty.csv"
        code, _, err = run_cli(
            ["extract", "--input", str(pcap_path), "--registry", str(registry), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text() == CSV_HEADER + "\n"
        assert "warning" in err

    def test_corrupt_frame_header_keeps_earlier_frames(self, reference_paths, tmp_path, capsys):
        pcap_path, registry_path = reference_paths
        frames_before = len(parse_capture(pcap_path.read_bytes()).frames)
        bad = pcap_file([b"\x00" * 60], orig_len_override={0: 20})[24:]  # captured > original
        pcap_path.write_bytes(pcap_path.read_bytes() + bad)
        out = tmp_path / "dataset.csv"
        code, _, err = run_cli(
            ["extract", "--input", str(pcap_path), "--registry", str(registry_path), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().splitlines()[1:] == REFERENCE_ROWS
        assert f"truncated or corrupt at frame {frames_before}" in err

    def test_missing_file_fails(self, tmp_path, capsys):
        registry = tmp_path / "reg.tsv"
        registry.write_text("aa:00:00:00:00:01\tA\tiot\n")
        code, _, err = run_cli(
            ["extract", "--input", str(tmp_path / "nope.pcap"), "--registry", str(registry),
             "--out", str(tmp_path / "o.csv")],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_multiple_inputs_concatenate(self, reference_paths, training_paths, tmp_path, capsys):
        ref_pcap, _ = reference_paths
        train_pcap, _ = training_paths
        registry = tmp_path / "all.tsv"
        from corpus import REFERENCE_REGISTRY

        registry.write_text(REFERENCE_REGISTRY + TRAINING_REGISTRY)
        out = tmp_path / "all.csv"
        code, _, _ = run_cli(
            ["extract", "--input", str(ref_pcap), str(train_pcap), "--registry", str(registry),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) > len(REFERENCE_ROWS) + 1


@pytest.fixture()
def training_csv(training_paths, tmp_path, capsys):
    pcap_path, registry_path = training_paths
    out = tmp_path / "training.csv"
    code = main(
        ["extract", "--input", str(pcap_path), "--registry", str(registry_path), "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    return out, registry_path


class TestRank:
    def test_separating_attribute_ranked_first(self, tmp_path, capsys):
        csv = tmp_path / "toy.csv"
        rows = ["100,,,,,,60,64,6,A", "101,,,,,,60,64,6,A", "40000,,,,,,60,64,6,B"]
        csv.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "rank.csv"
        code, _, err = run_cli(["rank", "--input", str(csv), "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,attribute,gain_ratio,info_gain,present_fraction"
        assert lines[1].split(",")[1] == "tcp.srcport"

    def test_single_class_fails(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text(CSV_HEADER + "\n1,,,,,,60,64,6,A\n2,,,,,,61,64,6,A\n")
        code, _, err = run_cli(
            ["rank", "--input", str(csv), "--out", str(tmp_path / "r.csv")], capsys
        )
        assert code == 2
        assert "error" in err

    def test_rank_on_training_corpus(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        out = tmp_path / "rank9.csv"
        code, _, err = run_cli(["rank", "--input", str(csv), "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 10  # header + 9 attributes
        assert "selected" in err

    def test_meta_file_flags_exclude(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        meta = tmp_path / "meta.tsv"
        lines = [a for a in CSV_HEADER.split(",")[:-1]]
        text = "\n".join(
            f"{a}\ttime_dependent" if a == "tcp.ack" else a for a in lines
        )
        meta.write_text(text + "\n")
        out = tmp_path / "rank_meta.csv"
        code, _, err = run_cli(
            ["rank", "--input", str(csv), "--out", str(out), "--meta", str(meta)], capsys
        )
        assert code == 0
        assert "tcp.ack" not in err.split("selected:")[1]


class TestTrainEval:
    def test_rf_device_name_run(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        out_dir = tmp_path / "run_rf"
        code, stdout, err = run_cli(
            ["train-eval", "--input", str(csv), "--model", "rf", "--classes", "device_name",
             "--trees", "15", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert (out_dir / "model.json").exists()
        assert (out_dir / "report.txt").exists()
        classes_csv = (out_dir / "report_classes.csv").read_text()
        assert "AlphaSensor" in classes_csv  # per-device precision present
        summary = stdout.strip()
        parts = summary.split(",")
        assert len(parts) == 6 and parts[4] == "rf"
        assert (out_dir / "summary.csv").read_text().strip() == summary
        assert float(parts[0]) > 0.8  # learnable corpus

    def test_network_ablation_has_three_features(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        out_dir = tmp_path / "run_net"
        code, stdout, _ = run_cli(
            ["train-eval", "--input", str(csv), "--model", "j48", "--features", "network",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        model_doc = json.loads((out_dir / "model.json").read_text())
        assert model_doc["schema"] == ["ip.len", "ip.ttl", "ip.proto"]
        assert stdout.strip().split(",")[5] == "network"

    def test_device_type_task_with_registry(self, training_csv, tmp_path, capsys):
        csv, registry_path = training_csv
        out_dir = tmp_path / "run_type"
        code, stdout, _ = run_cli(
            ["train-eval", "--input", str(csv), "--model", "j48", "--classes", "device_type",
             "--registry", str(registry_path), "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        classes_csv = (out_dir / "report_classes.csv").read_text()
        assert "IoT" in classes_csv and "NonIoT" in classes_csv

    def test_device_type_name_missing_from_registry_fails(self, training_csv, tmp_path, capsys):
        csv, registry_path = training_csv
        lines = registry_path.read_text().splitlines()
        short = tmp_path / "short.tsv"
        short.write_text("\n".join(lines[:-1]) + "\n")
        missing = lines[-1].split("\t")[1]
        code, _, err = run_cli(
            ["train-eval", "--input", str(csv), "--model", "j48", "--classes", "device_type",
             "--registry", str(short), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert f"error: registry has no device named {missing!r}" in err.splitlines()

    def test_device_type_without_registry_fails_helpfully(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        code, _, err = run_cli(
            ["train-eval", "--input", str(csv), "--model", "j48", "--classes", "device_type",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "--registry" in err

    def test_vote_members_flag(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        out_dir = tmp_path / "run_vote"
        code, _, _ = run_cli(
            ["train-eval", "--input", str(csv), "--model", "vote", "--vote-members", "j48,nb",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        doc = json.loads((out_dir / "model.json").read_text())
        assert [m["variant"] for m in doc["params"]["members"]] == ["j48", "nb"]

    def test_dedup_trains_on_the_first_of_each_distinct_row(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        header, *rows = csv.read_text().splitlines()
        distinct, stats = clean(read_csv(csv.read_text()), dedup=True)
        # every row twice, then an all-Absent one
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join([header, *rows, *rows, "," * 9 + rows[0].rsplit(",", 1)[1]]) + "\n")
        plain = tmp_path / "distinct.csv"
        plain.write_text(write_csv(distinct))
        outputs, logs = [], []
        for path, flags in ((doubled, ["--dedup"]), (plain, [])):
            out_dir = tmp_path / f"run_{path.stem}"
            code, stdout, err = run_cli(
                ["train-eval", "--input", str(path), "--model", "j48", *flags, "--out", str(out_dir)], capsys
            )
            assert code == 0
            outputs.append([stdout] + [(out_dir / name).read_bytes() for name in ("model.json", "report.txt")])
            logs.append(err.splitlines())
        assert outputs[0] == outputs[1]
        empty = 2 * stats.empty_removed + 1
        duplicates = 2 * len(rows) + 1 - empty - len(distinct)
        assert logs[0][0] == f"cleaning removed {empty} empty rows and {duplicates} duplicates"
        assert logs[0][1:] == logs[1]

    def test_seed_changes_split(self, training_csv, tmp_path, capsys):
        csv, _ = training_csv
        outputs = []
        for seed in (1, 2):
            out_dir = tmp_path / f"run_seed{seed}"
            code, stdout, _ = run_cli(
                ["train-eval", "--input", str(csv), "--model", "j48", "--seed", str(seed),
                 "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] != outputs[1]  # seed is embedded in the summary


class TestClassify:
    def write_threshold_model(self, path: Path) -> None:
        model = tree_model(
            ("ip.len",), ("Aria", "Other"), [leaf(1, 9), leaf(9, 1), split(0, 100.5, "left", 1, 0)]
        )
        path.write_text(save_model(model))

    def single_device_pcap(self, small=7, big=3) -> bytes:
        frames = []
        for i in range(small):
            frames.append(ethernet("02:00:00:00:00:fe", "aa:00:00:00:00:07", 0x0800,
                                   ipv4("10.0.0.5", "10.9.9.9", 17, udp(5000 + i, 53, b"x" * 20))))
        for i in range(big):
            frames.append(ethernet("02:00:00:00:00:fe", "aa:00:00:00:00:07", 0x0800,
                                   ipv4("10.0.0.5", "10.9.9.9", 17, udp(6000 + i, 53, b"y" * 200))))
        return pcap_file(frames)

    def test_pcap_majority_summary(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        self.write_threshold_model(model_path)
        pcap_path = tmp_path / "dev.pcap"
        pcap_path.write_bytes(self.single_device_pcap())
        out = tmp_path / "preds.csv"
        code, stdout, _ = run_cli(
            ["classify", "--model-file", str(model_path), "--input", str(pcap_path),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        pred_lines = out.read_text().splitlines()
        assert pred_lines[0] == "row,predicted_class,confidence"
        assert len(pred_lines) == 11
        summary_lines = stdout.strip().splitlines()
        assert summary_lines[0] == "mac,predicted_class,confidence,packets"
        assert summary_lines[1] == "aa:00:00:00:00:07,Aria,0.7,10"

    def test_pcap_summary_per_mac_in_mac_order_ties_to_lower_class(self, tmp_path, capsys):
        # small datagrams predict Aria and large ones Other; the higher MAC comes
        # first and splits evenly, its first prediction being Other
        def frame(mac, i, payload):
            return ethernet("02:00:00:00:00:fe", mac, 0x0800,
                            ipv4("10.0.0.5", "10.9.9.9", 17, udp(5000 + i, 53, payload)))

        high, low = "bb:00:00:00:00:02", "aa:00:00:00:00:01"
        sizes = [(high, 200), (high, 200), (high, 20), (high, 20), (low, 200), (low, 20), (low, 200)]
        model_path = tmp_path / "model.json"
        self.write_threshold_model(model_path)
        pcap_path = tmp_path / "two.pcap"
        pcap_path.write_bytes(pcap_file([frame(mac, i, b"z" * size) for i, (mac, size) in enumerate(sizes)]))
        code, stdout, _ = run_cli(
            ["classify", "--model-file", str(model_path), "--input", str(pcap_path),
             "--out", str(tmp_path / "preds.csv")],
            capsys,
        )
        assert code == 0
        assert stdout.splitlines() == [
            "mac,predicted_class,confidence,packets",
            "aa:00:00:00:00:01,Other,0.666666666667,3",
            "bb:00:00:00:00:02,Aria,0.5,4",
        ]

    def test_csv_input_predictions_match_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        self.write_threshold_model(model_path)
        csv = tmp_path / "rows.csv"
        csv.write_text(CSV_HEADER + "\n,,,,1,0,60,64,17,\n,,,,2,1,300,64,17,\n")
        out = tmp_path / "preds.csv"
        code, stdout, _ = run_cli(
            ["classify", "--model-file", str(model_path), "--input", str(csv), "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == "Aria"
        assert lines[2].split(",")[1] == "Other"
        assert stdout == ""  # no per-MAC summary for CSV input

    def test_empty_input_gives_empty_predictions(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        self.write_threshold_model(model_path)
        csv = tmp_path / "empty.csv"
        csv.write_text(CSV_HEADER + "\n")
        out = tmp_path / "preds.csv"
        code, _, _ = run_cli(
            ["classify", "--model-file", str(model_path), "--input", str(csv), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text() == "row,predicted_class,confidence\n"

    def test_pcapng_input_named_in_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        self.write_threshold_model(model_path)
        pcapng = tmp_path / "capture.pcapng"
        # section header block: type, length, byte-order magic, version 1.0
        pcapng.write_bytes(
            b"\x0a\x0d\x0d\x0a" + (28).to_bytes(4, "little") + b"\x4d\x3c\x2b\x1a"
            + b"\x01\x00\x00\x00" + b"\xff" * 8 + (28).to_bytes(4, "little")
        )
        code, _, err = run_cli(
            ["classify", "--model-file", str(model_path), "--input", str(pcapng),
             "--out", str(tmp_path / "p.csv")],
            capsys,
        )
        assert code == 2
        assert "pcapng" in err
        assert "codec" not in err

    def test_bad_model_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        csv = tmp_path / "empty.csv"
        csv.write_text(CSV_HEADER + "\n")
        model = save_model(tree_model(("ip.len",), ("A", "B"), [leaf(1, 9), leaf(9, 1), split(0, 100.5, "left", 1, 0)]))
        deep = '{"format":"devfp-model","version":4,"variant":"j48","schema":' + "[" * 100000
        # the JSON parser's nesting depth overflows in the second; the model file is
        # read as bytes, so a CRLF line end, a byte-order mark or UTF-16 reach the loader
        for data in (b"{}", deep.encode(), model.replace("\n", "\r\n").encode(),
                     codecs.BOM_UTF8 + model.encode(), model.encode("utf-16"), b"\xff\xfe{"):
            bad.write_bytes(data)
            code, _, err = run_cli(
                ["classify", "--model-file", str(bad), "--input", str(csv),
                 "--out", str(tmp_path / "p.csv")],
                capsys,
            )
            assert code == 2
            assert err.startswith("error: ")


class TestPipeline:
    def test_end_to_end_and_deterministic(self, training_paths, tmp_path, capsys):
        pcap_path, registry_path = training_paths
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code, stdout, _ = run_cli(
                ["pipeline", "--input", str(pcap_path), "--registry", str(registry_path),
                 "--model", "j48", "--seed", "1", "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            outputs.append(
                {
                    "stdout": stdout,
                    "dataset": (out_dir / "dataset.csv").read_bytes(),
                    "model": (out_dir / "model.json").read_bytes(),
                    "classes": (out_dir / "report_classes.csv").read_bytes(),
                    "summary": (out_dir / "summary.csv").read_bytes(),
                }
            )
        assert outputs[0] == outputs[1]

    def test_device_type_pipeline(self, training_paths, tmp_path, capsys):
        pcap_path, registry_path = training_paths
        out_dir = tmp_path / "type_run"
        code, stdout, _ = run_cli(
            ["pipeline", "--input", str(pcap_path), "--registry", str(registry_path),
             "--model", "nb", "--classes", "device_type", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert "IoT" in (out_dir / "report_classes.csv").read_text()

    def test_device_type_pipeline_matches_train_eval_on_its_dataset(self, training_paths, tmp_path, capsys):
        pcap_path, registry_path = training_paths
        piped, trained = tmp_path / "piped", tmp_path / "trained"
        flags = ["--model", "j48", "--classes", "device_type", "--seed", "5"]
        code, _, _ = run_cli(
            ["pipeline", "--input", str(pcap_path), "--registry", str(registry_path), *flags,
             "--out", str(piped)],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            ["train-eval", "--input", str(piped / "dataset.csv"), "--registry", str(registry_path),
             *flags, "--out", str(trained)],
            capsys,
        )
        assert code == 0
        for name in ("model.json", "summary.csv"):
            assert (piped / name).read_bytes() == (trained / name).read_bytes()
        assert json.loads((piped / "model.json").read_text())["class_names"] == ["IoT", "NonIoT"]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_model_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["train-eval", "--input", "x.csv", "--model", "svm", "--out", "y"])

    def test_every_hyperparameter_has_a_flag(self):
        # a field that no flag sets would hold its default in every run
        args = _build_parser().parse_args([
            "train-eval", "--input", "x.csv", "--model", "rf", "--out", "y", "--seed", "2", "--trees", "3",
            "--bagging-rounds", "4", "--min-leaf", "5", "--confidence", "0.1", "--no-prune",
        ])
        hyperparams, default = _model_spec_from_args(args).hyperparams, Hyperparams()
        assert [f.name for f in fields(Hyperparams) if getattr(hyperparams, f.name) == getattr(default, f.name)] == []
