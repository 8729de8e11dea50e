"""devfp benchmark: one workload, timed through the real command line.

    python3 benchmarks/run.py --workload {ingest,sweep,classify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a devfp checkout; it uses the sources in ./src and
writes only under ./.bench_work. Set-up generates the workload's inputs from
the seed (and, for classify, trains the model), three times over, and
reports the median as setup_s. The timed loop then runs the workload's
`devfp` commands, one child process at a time, until --seconds are used
(at least twice, so that repeated runs can be compared byte for byte).

--trace 0 reports the end-to-end metrics: wall time per workload run and
set-up time (both at nominal host speed, see timed()), peak RSS of the
command processes and accuracy. --trace 1 also runs the same commands
through layers.py, each in a child that calls devfp.cli.main directly,
untraced and then traced, checks that they write the same bytes as the
command line, and reports the per-layer metrics, with the raw wall and
set-up times and the host slowdown they were divided by. Every command exit and
every output check is one
operation in `attempted`; a failure counts in `failed`. The last line of
standard output is the JSON result; a readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import corpus
import layers
from layers import PREDICT, Span, busy

VARIANTS = ("j48", "rt", "rf", "nb", "bagging", "vote")
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150.0

INGEST_FRAMES = 50_000  # per pcap; two pcaps
SWEEP_FRAMES = 5_000  # about 2.3k dataset rows
CLASSIFY_TRAIN_FRAMES = 5_000  # about 2.3k training rows
CLASSIFY_FRESH_FRAMES = 3_000

# Host-speed reference: REFERENCE_S is what reference_s() takes at nominal
# speed (measured on the baseline host when it was quiet).
REFERENCE_BYTES = bytes(range(256)) * 600
REFERENCE_NUMPY_CALLS = 4_000
REFERENCE_VALUES = np.random.default_rng(0).random(2_000)
REFERENCE_LABELS = np.random.default_rng(1).integers(0, 16, 2_000)
REFERENCE_SORTS = 30
REFERENCE_S = 0.025


class Failure(Exception):
    """The benchmark cannot run here (for example, no devfp sources)."""


@dataclass
class Ledger:
    """Operations attempted and failed: command exits and output checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    wall_s: float
    max_rss_mib: float


class Runner:
    """Runs `python -m devfp` children one at a time and reaps each with wait4."""

    def __init__(self, src: Path, ledger: Ledger) -> None:
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.ledger = ledger
        self.pid: Optional[int] = None
        self.lock = threading.Lock()

    def _kill(self, pid: int) -> None:
        with self.lock:
            if self.pid == pid:
                os.kill(pid, signal.SIGKILL)

    def devfp(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        """One `python -m devfp ARGV` command, as a user would run it."""
        return self.spawn([sys.executable, "-m", "devfp", *argv], stdout, stderr)

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        with self.lock:
            self.pid = pid
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self._kill, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        with self.lock:  # reaped; if wait4 raised, stop() kills and reaps it
            self.pid = None
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        self.ledger.check(code == 0, f"{' '.join(argv[1:4])} exited {code}; see {stderr}")
        return Child(wall, usage.ru_maxrss / 1024.0)

    def stop(self) -> None:
        with self.lock:
            pid, self.pid = self.pid, None
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Prepared:
    """Set-up output: input files plus what the generator knows about them."""

    files: dict[str, Path]
    expected_csv: str = ""
    truth: tuple = ()


@dataclass
class Workload:
    setup: Callable[[Path, int, Runner], Prepared]
    commands: Callable[[Prepared, Path], list[list[str]]]
    verify: Callable[[Prepared, Path, Ledger], float]  # returns acc


def _write(path: Path, data) -> Path:
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return path


def setup_ingest(root: Path, seed: int, runner: Runner) -> Prepared:
    network = corpus.make_network()
    captures = [corpus.build_capture(network, seed, f"ingest-{i}", INGEST_FRAMES) for i in range(2)]
    files = {f"pcap{i}": _write(root / f"capture{i}.pcap", c.pcap) for i, c in enumerate(captures)}
    files["registry"] = _write(root / "devices.tsv", network.registry_text())
    return Prepared(files, expected_csv=corpus.dataset_csv(captures))


def commands_ingest(p: Prepared, out: Path) -> list[list[str]]:
    return [
        ["extract", "--input", str(p.files["pcap0"]), str(p.files["pcap1"]),
         "--registry", str(p.files["registry"]), "--out", str(out / "dataset.csv"), "--dedup"]
    ]


def verify_ingest(p: Prepared, out: Path, ledger: Ledger) -> float:
    """acc: share of the generator's expected rows that dataset.csv holds."""
    got = _read(out / "dataset.csv")
    ledger.check(got == p.expected_csv, "dataset.csv differs from the generator's expected rows")
    expected = Counter(p.expected_csv.splitlines()[1:])
    found = Counter(got.splitlines()[1:])
    return sum((expected & found).values()) / max(1, sum(expected.values()))


def setup_sweep(root: Path, seed: int, runner: Runner) -> Prepared:
    capture = corpus.build_capture(corpus.make_network(), seed, "sweep", SWEEP_FRAMES)
    csv = corpus.dataset_csv([capture])
    return Prepared({"dataset": _write(root / "dataset.csv", csv)})


def commands_sweep(p: Prepared, out: Path) -> list[list[str]]:
    dataset = str(p.files["dataset"])
    argvs = [["rank", "--input", dataset, "--out", str(out / "rank.csv")]]
    for variant in VARIANTS:
        argvs.append(["train-eval", "--input", dataset, "--model", variant, "--seed", "1", "--out", str(out / variant)])
    return argvs


def verify_sweep(p: Prepared, out: Path, ledger: Ledger) -> float:
    """acc: mean of the six summary.csv accuracies."""
    rank_lines = _read(out / "rank.csv").splitlines()
    ledger.check(len(rank_lines) == 10, f"rank.csv has {len(rank_lines)} lines, expected 10")
    accs = []
    for variant in VARIANTS:
        acc = _summary_acc(out / variant / "summary.csv", variant)
        ledger.check(acc is not None and 0.0 < acc <= 1.0, f"{variant}/summary.csv holds no accuracy in (0, 1]")
        accs.append(acc or 0.0)
    return sum(accs) / len(accs)


def setup_classify(root: Path, seed: int, runner: Runner) -> Prepared:
    network = corpus.make_network()
    train = corpus.build_capture(network, seed, "classify-train", CLASSIFY_TRAIN_FRAMES)
    fresh = corpus.build_capture(network, seed, "classify-fresh", CLASSIFY_FRESH_FRAMES)
    dataset = _write(root / "train.csv", corpus.dataset_csv([train]))
    runner.devfp(
        ["train-eval", "--input", str(dataset), "--model", "rf", "--seed", "1", "--out", str(root / "model")],
        root / "train.stdout", root / "train.stderr",
    )
    files = {"model": root / "model" / "model.json", "pcap": _write(root / "fresh.pcap", fresh.pcap)}
    return Prepared(files, truth=tuple(label for label, _ in fresh.truth))


def commands_classify(p: Prepared, out: Path) -> list[list[str]]:
    return [
        ["classify", "--model-file", str(p.files["model"]), "--input", str(p.files["pcap"]),
         "--out", str(out / "predictions.csv")]
    ]


def verify_classify(p: Prepared, out: Path, ledger: Ledger) -> float:
    """acc: share of registered-source rows predicted as their true device."""
    lines = _read(out / "predictions.csv").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ledger.check(
        lines[:1] == ["row,predicted_class,confidence"] and len(rows) == len(p.truth),
        f"predictions.csv has {len(rows)} rows, the capture {len(p.truth)} IPv4 frames",
    )
    ledger.check(
        all(len(r) == 3 and r[0] == str(i) for i, r in enumerate(rows)),
        "predictions.csv rows are not numbered 0..n-1",
    )
    registered = [(r[1], truth) for r, truth in zip(rows, p.truth) if truth is not None]
    return sum(pred == truth for pred, truth in registered) / max(1, len(registered))


WORKLOADS = {
    "ingest": Workload(setup_ingest, commands_ingest, verify_ingest),
    "sweep": Workload(setup_sweep, commands_sweep, verify_sweep),
    "classify": Workload(setup_classify, commands_classify, verify_classify),
}


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def _summary_acc(path: Path, variant: str) -> Optional[float]:
    cells = _read(path).strip().split(",")
    if len(cells) != 6 or cells[4] != variant:
        return None
    try:
        return float(cells[0])
    except ValueError:
        return None


def digest(out: Path) -> dict[str, str]:
    """sha256 of every output file under a run directory, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def count_nodes(doc) -> int:
    """Tree nodes in a model document (every {"root", "nodes"} object, nested or not)."""
    if isinstance(doc, dict):
        own = len(doc["nodes"]) if "root" in doc and isinstance(doc.get("nodes"), list) else 0
        return own + sum(count_nodes(v) for k, v in doc.items() if k != "nodes")
    if isinstance(doc, list):
        return sum(count_nodes(v) for v in doc)
    return 0


# ---------------------------------------------------------------------------
# One benchmark run


def run_iteration(runner: Runner, argvs: list[list[str]], out: Path, logs: Path) -> tuple[float, float, float]:
    """All of a workload's commands as child processes, one after another.

    Returns the summed wall time of the children (raw, and at nominal host
    speed) and their max RSS in MiB.
    """
    out.mkdir(parents=True)
    logs.mkdir(parents=True, exist_ok=True)
    raw = scaled = rss = 0.0
    for k, argv in enumerate(argvs):
        child, child_raw, child_scaled = timed(
            lambda: runner.devfp(argv, out / f"cmd{k}.stdout", logs / f"{out.name}-cmd{k}.stderr")
        )
        raw += child_raw
        scaled += child_scaled
        rss = max(rss, child.max_rss_mib)
    return raw, scaled, rss


def reference_s() -> float:
    """Seconds for one pass of a fixed mix of interpreter and numpy work.

    The mix resembles devfp's own: struct unpacking, small objects and dict
    updates (decode, CSV), one numpy call per row (prediction), and sorts
    and cumulative sums over a few thousand values (tree growth). It is part
    of the benchmark, never of devfp, so no change to devfp moves it; only
    the host's speed does.
    """
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for offset in range(0, len(REFERENCE_BYTES) - 16, 16):
        a, b, c, d = struct.unpack_from(">IIII", REFERENCE_BYTES, offset)
        key = f"{c:x}"
        counts[key] = counts.get(key, 0) + (a ^ b) % 97 + d % 5
    total = np.zeros(16)
    for i in range(REFERENCE_NUMPY_CALLS):
        total += np.full(16, float(i))
        total.argmax()
    rows = np.arange(len(REFERENCE_VALUES))
    for _ in range(REFERENCE_SORTS):
        order = np.argsort(REFERENCE_VALUES, kind="stable")
        onehot = np.zeros((len(rows), 16))
        onehot[rows, REFERENCE_LABELS[order]] = 1.0
        cumulative = np.cumsum(onehot, axis=0)
        (cumulative * np.log(cumulative + 1.0)).sum(axis=1).argmax()
    return time.perf_counter() - start


def host_slowdown() -> float:
    """How much slower than nominal the host runs right now (1.0 = nominal)."""
    return statistics.median(reference_s() for _ in range(3)) / REFERENCE_S


def timed(fn: Callable):
    """(result, raw seconds, seconds at nominal host speed) of one call.

    On a shared host the same work takes up to twice as long from one
    minute to the next. Dividing by the host's slowdown, measured with
    reference_s() just before and just after the call, removes most of that
    swing while leaving every change in devfp's own speed in the figure.
    """
    before = host_slowdown()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = host_slowdown()
    return result, raw, raw / ((before + after) / 2)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_metrics(commands: list[tuple[float, list[Span]]], plain_s: float, acc: dict, models: dict) -> dict:
    """Per-layer metrics of one traced run of a workload's commands (idle layers read 0).

    `commands` holds, per command, the traced child's wall time and spans;
    `plain_s` is the summed `cli.main` time of the same commands untraced.
    """
    spans = [s for _, command_spans in commands for s in command_spans]
    selfs: dict[str, float] = {}
    for _, command_spans in commands:
        for name, t in layers.self_times(command_spans).items():
            selfs[name] = selfs.get(name, 0.0) + t

    def total(name: str, key: Optional[str] = None, variant: Optional[str] = None) -> float:
        picked = [s for s in spans if s.name == name and (variant is None or s.attrs.get("variant") == variant)]
        return sum(s.attrs.get(key, 0) if key else s.duration for s in picked)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    def layer_self(prefix: str) -> float:
        return sum(t for name, t in selfs.items() if name.startswith(prefix))

    frames = total("features.extract_capture", "frames_read")
    m = {
        "pcap.parse_s": total("pcap.parse_capture"),
        "pcap.frames_per_s": rate(total("pcap.parse_capture", "frames"), total("pcap.parse_capture")),
        "features.extract_s": total("features.extract_capture"),
        "features.extract_frames_per_s": rate(frames, total("features.extract_capture")),
        "features.label_s": total("features.label_by_source_mac"),
        "features.clean_s": total("features.clean"),
        "features.write_csv_s": total("features.write_csv"),
        "features.read_csv_s": total("features.read_csv"),
        "features.non_ipv4": total("features.extract_capture", "non_ipv4_skipped"),
        "features.decode_errors": total("features.extract_capture", "decode_errors"),
        "features.raw_ack_fallbacks": total("features.extract_capture", "raw_ack_fallbacks"),
        "features.duplicates_removed": total("features.clean", "duplicates_removed"),
        "features.kept_ratio": rate(total("features.label_by_source_mac", "rows"), frames),
        "features.self_s": layer_self("features."),
        "selection.rank_s": total("selection.rank"),
        "evaluation.split_s": total("evaluation.stratified_split"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.rows_per_s": rate(total("evaluation.evaluate", "rows"), total("evaluation.evaluate")),
        "evaluation.self_s": layer_self("evaluation."),
    }
    for v in VARIANTS:
        nodes, size = models.get(v, (0, 0))
        m[f"classifiers.{v}.train_s"] = total("classifiers.train_model", variant=v)
        m[f"classifiers.{v}.predict_rows_per_s"] = rate(total(PREDICT, "rows", v), total(PREDICT, "busy_s", v))
        m[f"classifiers.{v}.nodes"] = nodes
        m[f"classifiers.{v}.acc"] = acc.get(v, 0.0)
        m[f"classifiers.{v}.model_bytes"] = size
    m["classifiers.persist.save_s"] = total("classifiers.persist.save_model")
    m["classifiers.persist.load_s"] = total("classifiers.persist.load_model")
    m["classifiers.self_s"] = layer_self("classifiers.")
    # Interpreter start, imports, argparse and file I/O: each traced child's
    # wall time less the layer spans directly under its cli.main span.
    cli_self = 0.0
    for wall, command_spans in commands:
        top = {i for i, s in enumerate(command_spans) if s.name == "cli.main"}
        cli_self += wall - sum(busy(s) for s in command_spans if s.parent in top)
    m["cli.self_s"] = cli_self
    m["trace.overhead_ratio"] = total("cli.main") / plain_s
    return m


def model_facts(workload: str, prepared: Prepared, out: Path, acc: float) -> tuple[dict, dict]:
    """Per-variant (nodes, model bytes) from the saved JSON, and per-variant accuracy."""
    if workload == "sweep":
        paths = {v: out / v / "model.json" for v in VARIANTS}
        accs = {v: _summary_acc(out / v / "summary.csv", v) or 0.0 for v in VARIANTS}
    elif workload == "classify":
        paths = {"rf": prepared.files["model"]}
        accs = {"rf": acc}
    else:
        return {}, {}
    models = {}
    for v, path in paths.items():
        data = path.read_bytes()
        models[v] = (count_nodes(json.loads(data)), len(data))
    return models, accs


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Ledger]:
    """Set up, time and check one workload; returns (metrics, readable spreads, ledger)."""
    root = Path.cwd()
    src = root / "src"
    if not (src / "devfp" / "cli.py").is_file():
        raise Failure(f"no devfp sources at {src}; run from the root of a devfp checkout")
    work = root / ".bench_work" / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[workload_name]
    ledger = Ledger()
    runner = Runner(src, ledger)
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            setup_dir = work / f"setup{k}"
            setup_dir.mkdir()
            prepared, raw, scaled = timed(lambda: workload.setup(setup_dir, seed, runner))
            setups.append((raw, scaled))

        # With --trace 1 the command-line runs get half the time, the
        # untraced/traced pairs the rest.
        budget = seconds / 2 if trace else seconds
        walls, rss, acc, reference = [], 0.0, 0.0, {}
        loop_start = time.perf_counter()
        while True:
            out = work / f"run{len(walls)}"
            raw, scaled, peak = run_iteration(runner, workload.commands(prepared, out), out, work / "logs")
            walls.append((raw, scaled))
            rss = max(rss, peak)
            if len(walls) == 1:
                acc = workload.verify(prepared, out, ledger)
                reference = digest(out)
            else:
                ledger.check(digest(out) == reference, f"{out.name} outputs differ from run0")
                shutil.rmtree(out)
            elapsed = time.perf_counter() - loop_start
            if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(w for w, _ in walls) > budget:
                break
        spreads = {"wall_s": walls, "setup_s": setups}
        metrics = {
            "wall_s": statistics.median(w for _, w in walls),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(w for _, w in setups),
            "acc": acc,
        }
        if trace:
            remaining = seconds - (time.perf_counter() - loop_start)
            metrics = trace_layers(workload_name, prepared, work, runner, ledger, metrics, reference, remaining)
            # The raw times behind wall_s and setup_s, and the host slowdown
            # they were divided by, so each figure traces back to wall time.
            metrics["run.wall_raw_s"] = statistics.median(raw for raw, _ in walls)
            metrics["run.setup_raw_s"] = statistics.median(raw for raw, _ in setups)
            metrics["run.host_slowdown"] = statistics.median(raw / scaled for raw, scaled in walls)
    finally:
        runner.stop()
    return metrics, spreads, ledger


def trace_layers(
    name: str, prepared: Prepared, work: Path, runner: Runner, ledger: Ledger,
    e2e: dict, reference: dict, budget: float,
) -> dict:
    """Pairs of untraced then traced runs of the workload's commands through
    layers.py, each command in its own child; per-layer metrics are medians
    over the traced runs."""
    tracer_script = str(Path(__file__).with_name("layers.py"))
    models, acc_by_variant = model_facts(name, prepared, work / "run0", e2e["acc"])
    per_pair: list[dict] = []
    start = time.perf_counter()
    while True:
        pair = len(per_pair)
        results = {}
        for mode in ("plain", "traced"):
            out = work / f"{mode}{pair}"
            out.mkdir()
            commands = []
            for k, argv in enumerate(WORKLOADS[name].commands(prepared, out)):
                spans_file = work / "logs" / f"{mode}{pair}-cmd{k}.spans.json"
                child = runner.spawn(
                    [sys.executable, tracer_script, str(runner.src), str(spans_file), f"{mode}{pair}", mode, *argv],
                    out / f"cmd{k}.stdout", work / "logs" / f"{mode}{pair}-cmd{k}.stderr",
                )
                ledger.check(spans_file.is_file(), f"{spans_file.name} was not written")
                commands.append((child.wall_s, layers.load(spans_file) if spans_file.is_file() else []))
            ledger.check(digest(out) == reference, f"{out.name} outputs differ from the command line's")
            shutil.rmtree(out)
            results[mode] = commands
        plain_s = sum(s.duration for _, spans in results["plain"] for s in spans)
        per_pair.append(layer_metrics(results["traced"], plain_s, acc_by_variant, models))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(per_pair) > budget:
            break
    return {key: statistics.median(p[key] for p in per_pair) for key in per_pair[0]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps its running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics, spreads, ledger = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"benchmark: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for note in ledger.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {ledger.attempted} operations, {ledger.failed} failed, "
          f"error_rate {ledger.failed / ledger.attempted:.6g}", file=sys.stderr)
    for name, value in metrics.items():
        line = f"  {name:40s} {value:.6g} {units[name]}"
        if name in spreads:
            raw = [r for r, _ in spreads[name]]
            q1, _, q3 = quartiles([n for _, n in spreads[name]])
            line += (f"  (median of {len(raw)}, quartiles {q1:.6g}..{q3:.6g};"
                     f" raw median {statistics.median(raw):.6g})")
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
