"""Command-line front end: extract, rank, train-eval, classify, pipeline.

Human-readable progress and warnings go to standard error; machine-readable
results go to files and standard output, so the tool composes in shells.
Every command is reproducible: identical inputs, flags and seed produce
byte-identical outputs (reports embed the seed, never wall-clock time).
Exit status is 0 unless a fatal error occurred; warnings never change it.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .classifiers import (
    ALL_VARIANTS,
    Hyperparams,
    ModelSpec,
    load_model,
    save_model,
    train_model,
)
from .errors import DevfpError
from .evaluation import (
    FEATURE_SETS,
    RunMetadata,
    SplitSpec,
    evaluate,
    metrics,
    report_classes_csv,
    report_summary_line,
    report_text,
    stratified_split,
)
from .features import (
    TYPE_IOT,
    TYPE_NON_IOT,
    Dataset,
    DeviceRegistry,
    ExtractionStats,
    clean,
    extract_capture,
    label_by_source_mac,
    read_csv,
    read_registry,
    write_csv,
)
from .pcap import CaptureFile, is_capture, parse_capture
from .selection import apply_criteria, default_meta, rank, rank_report_csv, read_attribute_meta


_CLASSES = ("device_name", "device_type")  # the training target: device names, or their types


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devfp",
        description="Device fingerprinting from TCP/IP packet-header features.",
    )
    parser.add_argument("--version", action="version", version=f"devfp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="pcap files -> labeled feature CSV")
    p_extract.add_argument("--input", nargs="+", required=True, help="classic pcap file(s)")
    p_extract.add_argument("--registry", required=True, help="device registry (mac\\tname\\t{iot|non-iot})")
    p_extract.add_argument("--out", required=True, help="output CSV path")
    p_extract.add_argument("--dedup", action="store_true", help="drop exact duplicate rows")
    p_extract.add_argument("--raw-ack", action="store_true", help="emit raw instead of relative tcp.ack")

    p_rank = sub.add_parser("rank", help="gain-ratio attribute ranking of a dataset CSV")
    p_rank.add_argument("--input", required=True, help="dataset CSV")
    p_rank.add_argument("--out", required=True, help="output rank report CSV")
    p_rank.add_argument("--meta", help="attribute-meta registry (name\\tflag[,flag...])")

    p_train = sub.add_parser("train-eval", help="split, train, evaluate, persist model + report")
    p_train.add_argument("--input", required=True, help="dataset CSV")
    _add_training_flags(p_train)
    p_train.add_argument("--registry", help="device registry, needed to map names to types")
    p_train.add_argument("--out", required=True, help="output directory")
    _add_hyperparam_flags(p_train)

    p_classify = sub.add_parser("classify", help="predict classes for a pcap or CSV with a saved model")
    p_classify.add_argument("--model-file", required=True)
    p_classify.add_argument("--input", required=True, help="pcap or dataset CSV")
    p_classify.add_argument("--out", required=True, help="output predictions CSV")
    p_classify.add_argument("--raw-ack", action="store_true")

    p_pipe = sub.add_parser("pipeline", help="extract -> train -> evaluate in one run")
    p_pipe.add_argument("--input", nargs="+", required=True, help="classic pcap file(s)")
    p_pipe.add_argument("--registry", required=True)
    _add_training_flags(p_pipe)
    p_pipe.add_argument("--raw-ack", action="store_true")
    p_pipe.add_argument("--out", required=True, help="output directory")
    _add_hyperparam_flags(p_pipe)

    return parser


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that train-eval and pipeline share for the split and the model."""
    parser.add_argument("--model", choices=list(ALL_VARIANTS), required=True)
    parser.add_argument("--features", choices=sorted(FEATURE_SETS), default="combined")
    parser.add_argument("--classes", choices=_CLASSES, default=_CLASSES[0])
    parser.add_argument("--split", type=float, default=0.8, help="train fraction (default 0.8)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dedup", action="store_true", help="drop exact duplicate rows before splitting")
    parser.add_argument("--no-stratify", action="store_true", help="plain random split instead of stratified")


def _add_hyperparam_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trees", type=int, default=100, help="random-forest size")
    parser.add_argument("--bagging-rounds", type=int, default=10)
    parser.add_argument("--min-leaf", type=int, default=2)
    parser.add_argument("--confidence", type=float, default=0.25, help="C4.5 pruning confidence")
    parser.add_argument("--no-prune", action="store_true", help="disable C4.5 pruning")
    parser.add_argument(
        "--vote-members",
        default="j48,bagging",
        help="comma-separated member list for --model vote",
    )


def _hyperparams_from_args(args: argparse.Namespace) -> Hyperparams:
    return Hyperparams(
        seed=args.seed,
        forest_trees=args.trees,
        bagging_rounds=args.bagging_rounds,
        c45_min_leaf=args.min_leaf,
        c45_confidence=args.confidence,
        c45_prune=not args.no_prune,
    )


def _model_spec_from_args(args: argparse.Namespace) -> ModelSpec:
    members = tuple(m.strip() for m in args.vote_members.split(",") if m.strip())
    return ModelSpec(
        variant=args.model,
        hyperparams=_hyperparams_from_args(args),
        vote_members=members,
    )


def _read_capture(path: str) -> CaptureFile:
    capture = parse_capture(Path(path).read_bytes())
    if capture.truncated_at is not None:
        _log(
            f"warning: {path}: truncated or corrupt at frame {capture.truncated_at}; "
            "kept frames before it"
        )
    return capture


def _frames_line(stats: ExtractionStats) -> str:
    return (
        f"read {stats.frames_read} frames: {stats.non_ipv4_skipped} non-IPv4 skipped, "
        f"{stats.decode_errors} truncated/undecodable dropped"
    )


def _read_registry(path: str) -> DeviceRegistry:
    return read_registry(Path(path).read_text(encoding="utf-8"))


def _extract_to_dataset(args: argparse.Namespace, registry: DeviceRegistry) -> Dataset:
    stats = ExtractionStats()
    # each capture labeled as it is extracted: unregistered rows never outlive their capture
    labeled = [
        label_by_source_mac(extract_capture(_read_capture(path), raw_ack=args.raw_ack, stats=stats), registry)
        for path in args.input
    ]
    dropped = sum(part_dropped for _, part_dropped in labeled)
    dataset, clean_stats = clean(Dataset.concat([part for part, _ in labeled]), dedup=args.dedup)
    _log(
        f"{_frames_line(stats)}, {dropped} unregistered-source dropped, "
        f"{clean_stats.empty_removed} empty rows removed, "
        f"{clean_stats.duplicates_removed} duplicates removed, "
        f"{stats.raw_ack_fallbacks} raw-ack fallbacks"
    )
    if len(dataset) == 0:
        _log("warning: no packets matched the registry; dataset is empty")
    return dataset


def _cmd_extract(args: argparse.Namespace) -> int:
    dataset = _extract_to_dataset(args, _read_registry(args.registry))
    Path(args.out).write_text(write_csv(dataset), encoding="utf-8")
    _log(f"wrote {len(dataset)} rows to {args.out}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = read_csv(Path(args.input).read_text(encoding="utf-8"))
    ranked = rank(dataset)
    if args.meta:
        meta = read_attribute_meta(Path(args.meta).read_text(encoding="utf-8"))
    else:
        meta = default_meta(dataset.attributes)
    selected = apply_criteria(ranked, meta)
    Path(args.out).write_text(rank_report_csv(ranked), encoding="utf-8")
    _log(f"ranked {len(ranked.scores)} attributes; {len(selected)} pass the exclusion criteria")
    _log("selected: " + (", ".join(selected) if selected else "(none)"))
    return 0


def _load_train_dataset(args: argparse.Namespace) -> Dataset:
    dataset = read_csv(Path(args.input).read_text(encoding="utf-8"))
    if args.classes == "device_type":
        if args.registry:
            return dataset.device_types(_read_registry(args.registry))
        bad = sorted(set(dataset.class_names) - {TYPE_IOT, TYPE_NON_IOT})
        if bad:
            raise DevfpError(
                f"class column holds {bad}, not {TYPE_IOT}/{TYPE_NON_IOT}; "
                "pass --registry to map device names to types"
            )
    return dataset


def _train_eval_on_dataset(dataset: Dataset, args: argparse.Namespace, out_dir: Path) -> int:
    projected = dataset.project(FEATURE_SETS[args.features])
    split_spec = SplitSpec(
        train_fraction=args.split, seed=args.seed, stratified=not args.no_stratify
    )
    train, test = stratified_split(projected, split_spec)
    _log(f"split {len(dataset)} rows into {len(train)} train / {len(test)} test")
    spec = _model_spec_from_args(args)
    model = train_model(train, spec)
    matrix = evaluate(model, test)
    report = metrics(
        matrix, RunMetadata(seed=args.seed, model=args.model, feature_set=args.features)
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").write_text(save_model(model), encoding="utf-8")
    (out_dir / "report.txt").write_text(report_text(report), encoding="utf-8")
    (out_dir / "report_classes.csv").write_text(report_classes_csv(report), encoding="utf-8")
    summary = report_summary_line(report)
    (out_dir / "summary.csv").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    _log(report_text(report).rstrip("\n"))
    return 0


def _cmd_train_eval(args: argparse.Namespace) -> int:
    dataset = _load_train_dataset(args)
    if args.dedup:
        dataset, clean_stats = clean(dataset, dedup=True)
        _log(
            f"cleaning removed {clean_stats.empty_removed} empty rows and "
            f"{clean_stats.duplicates_removed} duplicates"
        )
    return _train_eval_on_dataset(dataset, args, Path(args.out))


def _cmd_classify(args: argparse.Namespace) -> int:
    model = load_model(Path(args.model_file).read_bytes())
    path = Path(args.input)
    with path.open("rb") as fh:
        from_pcap = is_capture(fh.read(4))
    if from_pcap:
        stats = ExtractionStats()
        dataset = extract_capture(_read_capture(args.input), raw_ack=args.raw_ack, stats=stats)
        _log(_frames_line(stats))
    else:
        dataset = read_csv(path.read_text(encoding="utf-8"))

    dist = model.distribution_batch(dataset.matrix(model.schema))
    predicted = [model.class_names[c] for c in dist.argmax(axis=1).tolist()]
    confidence = dist.max(axis=1).tolist()
    lines = ["row,predicted_class,confidence"]
    lines.extend(f"{i},{name},{p:.12g}" for i, (name, p) in enumerate(zip(predicted, confidence)))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _log(f"wrote {len(dataset)} predictions to {args.out}")
    if from_pcap:
        mac_votes: dict[str, Counter] = {}
        for mac, name in zip(dataset.src_mac.tolist(), predicted):
            mac_votes.setdefault(mac, Counter())[name] += 1
        print("mac,predicted_class,confidence,packets")
        for mac in sorted(mac_votes):
            votes = mac_votes[mac]
            top, top_count = max(sorted(votes.items()), key=lambda kv: kv[1])
            total = sum(votes.values())
            print(f"{mac},{top},{top_count / total:.12g},{total}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = _read_registry(args.registry)
    dataset = _extract_to_dataset(args, registry)
    (out_dir / "dataset.csv").write_text(write_csv(dataset), encoding="utf-8")
    _log(f"wrote {len(dataset)} rows to {out_dir / 'dataset.csv'}")
    if args.classes == "device_type":
        dataset = dataset.device_types(registry)
    return _train_eval_on_dataset(dataset, args, out_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "extract": _cmd_extract,
        "rank": _cmd_rank,
        "train-eval": _cmd_train_eval,
        "classify": _cmd_classify,
        "pipeline": _cmd_pipeline,
    }
    try:
        return handlers[args.command](args)
    except (DevfpError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
