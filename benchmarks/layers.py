"""Layer tracing of one devfp command, run in this process.

    python3 benchmarks/layers.py SRC SPANS RUN {traced,plain} DEVFP-ARGS...

imports devfp from SRC, runs `devfp.cli.main(DEVFP-ARGS)` and writes JSON
records to SPANS. The tracer wraps the public functions of devfp's modules
where `devfp.cli` calls them, so a traced `cli.main` makes exactly the calls,
in exactly the order, that the `devfp` command makes. Each call becomes a
span (name, start, end, parent, run id) kept in memory until the command
ends. Per-row prediction is too fine-grained for a span per call: the
tracer replaces `distribution` on each model that `train_model` or
`load_model` returns and adds busy time and row count to one aggregate
record under the span the rows were predicted in. `plain` runs the command
untraced and records only its `cli.main` time, the base of the tracing
overhead. Nothing in devfp changes.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

# name in devfp.cli -> span name ("<layer>.<function>")
WRAPPED = {
    "parse_capture": "pcap.parse_capture",
    "read_registry": "features.read_registry",
    "extract_capture": "features.extract_capture",
    "label_by_source_mac": "features.label_by_source_mac",
    "clean": "features.clean",
    "write_csv": "features.write_csv",
    "read_csv": "features.read_csv",
    "rank": "selection.rank",
    "default_meta": "selection.default_meta",
    "apply_criteria": "selection.apply_criteria",
    "rank_report_csv": "selection.rank_report_csv",
    "stratified_split": "evaluation.stratified_split",
    "evaluate": "evaluation.evaluate",
    "metrics": "evaluation.metrics",
    "report_text": "evaluation.report_text",
    "report_classes_csv": "evaluation.report_classes_csv",
    "report_summary_line": "evaluation.report_summary_line",
    "train_model": "classifiers.train_model",
    "save_model": "classifiers.persist.save_model",
    "load_model": "classifiers.persist.load_model",
}
PREDICT = "classifiers.predict"
STAT_FIELDS = ("frames_read", "non_ipv4_skipped", "decode_errors", "raw_ack_fallbacks")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for traced in-process runs of `devfp.cli.main`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def main(self, cli: Any, argv: list[str], run: str) -> int:
        """`cli.main(argv)` with every wrapped call traced under one `cli.main` span."""
        self.run = run
        originals = {name: getattr(cli, name) for name in WRAPPED}
        for name, fn in originals.items():
            setattr(cli, name, self._wrap(WRAPPED[name], fn))
        index = self._open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self._close(index).attrs["command"] = argv[0]
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            stats = kwargs.get("stats")
            before = [getattr(stats, f) for f in STAT_FIELDS] if stats is not None else None
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            span.attrs.update(_attrs(name, args, result))
            if before is not None:
                span.attrs.update(
                    {f: getattr(stats, f) - b for f, b in zip(STAT_FIELDS, before)}
                )
            if name in ("classifiers.train_model", "classifiers.persist.load_model"):
                self._time_predictions(result)
            return result

        return traced

    def _time_predictions(self, model: Any) -> None:
        """Count rows and busy time of the model's per-row `distribution` calls."""
        inner = model.distribution
        records: dict[int, Span] = {}

        def distribution(values):
            start = time.perf_counter()
            result = inner(values)
            busy = time.perf_counter() - start
            parent = self._stack[-1] if self._stack else None
            record = records.get(parent)
            if record is None:
                record = Span(PREDICT, start, start, parent, self.run, {"variant": model.variant, "rows": 0, "busy_s": 0.0})
                records[parent] = record
                self.spans.append(record)
            record.end = start + busy
            record.attrs["rows"] += 1
            record.attrs["busy_s"] += busy
            return result

        object.__setattr__(model, "distribution", distribution)

    def dump(self, path: Path) -> None:
        records = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run, "attrs": s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(records) + "\n", encoding="utf-8")


def load(path: Path) -> list[Span]:
    return [Span(**record) for record in json.loads(path.read_text(encoding="utf-8"))]


def busy(span: Span) -> float:
    """Time a span kept its layer busy (aggregate prediction records: the summed calls)."""
    return span.attrs["busy_s"] if span.name == PREDICT else span.duration


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: busy time minus the time of the span's children."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + busy(s)
    totals: dict[str, float] = {}
    for i, s in enumerate(spans):
        totals[s.name] = totals.get(s.name, 0.0) + busy(s) - child_time.get(i, 0.0)
    return totals


def _attrs(name: str, args: tuple, result: Any) -> dict:
    """Work counts taken at the call boundary."""
    if name == "pcap.parse_capture":
        return {"frames": len(result.frames)}
    if name == "features.extract_capture":
        return {"rows": len(result)}
    if name == "features.label_by_source_mac":
        return {"rows": len(result[0].rows), "dropped": result[1]}
    if name == "features.clean":
        return {"rows": len(result[0].rows), "duplicates_removed": result[1].duplicates_removed}
    if name == "features.read_csv":
        return {"rows": len(result.rows)}
    if name == "evaluation.evaluate":
        return {"rows": len(args[1].rows)}
    if name == "classifiers.train_model":
        return {"variant": args[1].variant, "rows": len(args[0].rows)}
    return {}


def main(argv: list[str]) -> int:
    src, spans_path, run, mode, *devfp_argv = argv
    sys.path.insert(0, src)
    import devfp
    from devfp import cli

    if Path(devfp.__file__).resolve().parent != (Path(src) / "devfp").resolve():
        print(f"layers: imported devfp from {devfp.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer()
    if mode == "traced":
        code = tracer.main(cli, devfp_argv, run)
    else:
        start = time.perf_counter()
        code = cli.main(devfp_argv)
        tracer.spans.append(Span("cli.main", start, time.perf_counter(), None, run, {"command": devfp_argv[0]}))
    sys.stdout.flush()
    tracer.dump(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
