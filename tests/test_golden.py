"""Golden pins: sha256 of every deterministic output for a fixed capture and seed.

The run-to-run determinism check (acceptance Criterion 7) compares two runs
of the same build; these pins compare against the bytes earlier builds
wrote, so a refactor that moves one bit of a model, a report or a
prediction fails here. `report.txt` pins the human-readable evaluation
report of each run. `rank.csv` pins the gain-ratio rank report of the
training dataset. The `extract` pins cover `--dedup`, `--raw-ack` and
the stderr summary counts on the training capture with edge-case frames
appended; the `classify-edge` pins cover `classify` with the j48 model on
that same capture: its predictions, its stderr frame accounting and its
per-MAC summary. A deliberate output change regenerates the pins with

    PYTHONPATH=src python tests/test_golden.py

and records the change in CHANGES.md.
"""

import hashlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import GATEWAY_MAC, TRAINING_REGISTRY, build_training_capture  # noqa: E402
from pcapbuild import (  # noqa: E402
    ETHERTYPE_ARP,
    ETHERTYPE_IPV6,
    TCP_ACK,
    TCP_SYN,
    ethernet,
    ipv4,
    pcap_file,
    tcp,
    tcp_option_window_scale,
    udp,
    vlan_tag,
)

from devfp.classifiers import ALL_VARIANTS, load_model  # noqa: E402
from devfp.cli import main  # noqa: E402
from devfp.features import read_csv  # noqa: E402

TRAIN_SEED = 7
FRESH_SEED = 8
# run name -> extra pipeline flags; vote-nb puts naive Bayes inside a vote
RUNS = {variant: ["--model", variant] for variant in ALL_VARIANTS}
RUNS["vote-nb"] = ["--model", "vote", "--vote-members", "nb,rt"]
# extract run name -> extract flags
EXTRACT_RUNS = {"extract-dedup": ["--dedup"], "extract-raw-ack": ["--raw-ack"]}

GOLDEN = {
    "dataset.csv": "ac82a130cceb21e1f25bab58a5700cb61c253c8b94d4dd94652d3b6c80cc0dd0",
    "j48/model.json": "10994c22f82078d67b3a524f33a17c2cc7abfb72f5310a2fabd08d384a1923bc",
    "j48/report.txt": "b8650b7dd294421eea888928fe9f1123e5f014fedaf1aff86c580bc4c1fc571e",
    "j48/report_classes.csv": "36de2c8b680ffb5d290ddaa67795f06be4685b5584cec40185fe4482e6b9f6aa",
    "j48/summary.csv": "f34dbfd8235b80fa1e46279bdcb777e3c836f9355b4aacf6c572dfe824c2761c",
    "j48/predictions.csv": "4c9054df4a8eecbf098a456a0cfec563cfe702281f001c7c365d568a44fa88b2",
    "j48/distributions": "854874e7a7848defb2892248d70025339ef8bda8f92559bd5247dc76f3a451ea",
    "rf/model.json": "877f789641b5251ffbdfeb290fc7ad4b326258dfc36610497ea9df5e17e61dfa",
    "rf/report.txt": "446f2032a9f883c8af7ae70c75872139610c453ff4ca74ad59db68f7c2591f7f",
    "rf/report_classes.csv": "36de2c8b680ffb5d290ddaa67795f06be4685b5584cec40185fe4482e6b9f6aa",
    "rf/summary.csv": "5b75778ae74a0af99da68766ddd2f90784341a90af25260f80ef00f3ab9302a8",
    "rf/predictions.csv": "07c5b6b3c03d4dac6a204ca2bcbe53f00363ddd025162d2573663ed140db6add",
    "rf/distributions": "d3523fdd0a8ea396bedaf2830e7056674e516d7cc4fba56e0bf2634dbeb62bc4",
    "rt/model.json": "df69c6aaad246a3b66a127a6a1d68b6009eaaf681e6e46aa90de56bce2d889e5",
    "rt/report.txt": "fe55f47ee8379b0e9fb32075a9e31a4ce6e2690770efcd153babec65d45b6135",
    "rt/report_classes.csv": "5a3bd4cd394bfae3f4af5e1f945334bc8efd71fb12270dd457aee51e213a6926",
    "rt/summary.csv": "a537ca1de435ce11c651dbe6830d131e4e67f3bf111b53be84a8241a3b71131d",
    "rt/predictions.csv": "fe17ee019945026b575d5cf62f5f49a630fdec8e2da766ca5c98fa299bfc60e2",
    "rt/distributions": "09b63f6ff93b522bfb7f832335981647758db2903ae916d7ac5c02292f43d094",
    "nb/model.json": "2afe09365ea5dfa4159e6eb898cb08ef4a9bee225a3956fde20e37315ef69991",
    "nb/report.txt": "7a48fbed96df8d0a4f6163a350b9576bbb0948ed21538a9f0ea694ba983d8f45",
    "nb/report_classes.csv": "36de2c8b680ffb5d290ddaa67795f06be4685b5584cec40185fe4482e6b9f6aa",
    "nb/summary.csv": "bf4230ac88a84de747a7903bea7794c6f4785bac3cd49f39d044d59a06453ef5",
    "nb/predictions.csv": "1e90e89fd2c7ba1b979eafa5921ecdf3596d5bd29466f72ed4aae55fa36424e1",
    "nb/distributions": "444843ab7c02898ba5c52a57fb00818826e5abbef53d52eaae714160e1f2c67e",
    "bagging/model.json": "cf1ddeda5f479879b6ecd9105b394878b327a4d32fd762d14b8384571565e2e4",
    "bagging/report.txt": "66077c3b525433e6b04c54172bf82b6efec8768f975d11c2c7526435ee5978a8",
    "bagging/report_classes.csv": "36de2c8b680ffb5d290ddaa67795f06be4685b5584cec40185fe4482e6b9f6aa",
    "bagging/summary.csv": "6735a12f8cc69e36c428b0cc0d682325b4ab63902049de4383f3e7c509fb9da2",
    "bagging/predictions.csv": "68ad18b5323959c3e97f9c3f31ec3a15deda462fef9ddc3f34c2eaa0d9292fbf",
    "bagging/distributions": "f1285a563dac0d0e7db85809ad74f9a9835346ae26495214b97202dc1082bf0b",
    "vote/model.json": "2d2d890c35221abafb6af1e10c5d974ee18f091eb7176e2165b0291e1e269325",
    "vote/report.txt": "37bf2910182c3799f634ecafae99bebb478fdb3a90cd337b7cdd4c7ef7db9a97",
    "vote/report_classes.csv": "36de2c8b680ffb5d290ddaa67795f06be4685b5584cec40185fe4482e6b9f6aa",
    "vote/summary.csv": "7fb152bd8db2f7e258db42a14ca618e74c3b743e0ed55e45b8d4d2d5bdf69b55",
    "vote/predictions.csv": "2de990aa4127bb301e6e630167ba2c82ac1a7f9ba1dc444d41fdce8433134347",
    "vote/distributions": "8a8439a013bd01535be8a31dedd1cfbb126ddaa4ffaba5b269fafe53f95d20b3",
    "vote-nb/model.json": "ac33f078a408f8aa635a6acc5f2f77f7ad29b77d582786ebabaef8a0e2d4c797",
    "vote-nb/report.txt": "37bf2910182c3799f634ecafae99bebb478fdb3a90cd337b7cdd4c7ef7db9a97",
    "vote-nb/report_classes.csv": "36de2c8b680ffb5d290ddaa67795f06be4685b5584cec40185fe4482e6b9f6aa",
    "vote-nb/summary.csv": "7fb152bd8db2f7e258db42a14ca618e74c3b743e0ed55e45b8d4d2d5bdf69b55",
    "vote-nb/predictions.csv": "3cfbcdab9302fb6db4a8838c96cbab548d3f9da1c004137e8f867d69eb61bebe",
    "vote-nb/distributions": "679afafc228497472322f9790d07b9fa38c8e0c3953a6944ee615c947f3d0844",
    "rank.csv": "36c2899196ca4d43f7b3884b23c2ea2773754406a6d19fab427de2d486076b12",
    # `classify` with the j48 model on the capture `extract` pins below
    "classify-edge/predictions.csv": "5218895089db6b07667447baa57692731ee8d1ad03f583417c0e2fd9cf8f5433",
    "classify-edge/frames": "7a2a49235d6947230736f17239c102a64194a908616fadaed7643a8464f64dbd",
    "classify-edge/macs": "e7baa0bd72fb12c695bc95bb403e5d8e33a9b92524f56814a5498afa47b81929",
}
# `extract` on the training capture plus _edge_frames()
GOLDEN_EXTRACT = {
    "extract-dedup/dataset.csv": "2493fdd7da7a7267e71c4b8266cdec627bb84f8587c27ca1ee619efb838d397e",
    "extract-dedup/summary": "334a0bb65c8264895a68ca524e6ffe1d44a2380232c8ae1dbac8cece7e7a4be0",
    "extract-raw-ack/dataset.csv": "a1d1a63bb5f16d54c0900c3ecf593d53e67999ee841e09100c194ce402fed1e4",
    "extract-raw-ack/summary": "2d20a08c72bf96143e367ad6cc3df62ea53d5e2b55778a4269f5ee95c86e7e79",
}


def _edge_frames() -> list[bytes]:
    """Frames the training capture lacks, so every extraction counter moves:
    non-IPv4, truncated headers, a VLAN tag, window scaling and an ACK whose
    reverse SYN was never seen."""
    dev_mac, dev_ip, server_ip = "aa:10:00:00:00:01", "192.168.7.11", "172.16.9.9"
    return [
        ethernet("ff:ff:ff:ff:ff:ff", dev_mac, ETHERTYPE_ARP, b"\x00" * 28),
        ethernet(GATEWAY_MAC, dev_mac, ETHERTYPE_IPV6, b"\x00" * 40),
        ethernet(GATEWAY_MAC, dev_mac, 0x0800, b"\x45\x00\x00"),
        ethernet(GATEWAY_MAC, dev_mac, 0x0800, ipv4(dev_ip, server_ip, 6, tcp(1, 2))[:30]),
        ethernet(GATEWAY_MAC, dev_mac, 0x8100,
                 vlan_tag(5, 0x0800, ipv4(dev_ip, server_ip, 17, udp(5999, 53, b"q" * 20)))),
        ethernet(GATEWAY_MAC, dev_mac, 0x0800, ipv4(dev_ip, server_ip, 1, b"\x08\x00\x00\x00")),
        ethernet(GATEWAY_MAC, dev_mac, 0x0800,
                 ipv4(dev_ip, server_ip, 6, tcp(30999, 443, seq=9, flags=TCP_SYN, window=1000,
                                                 options=tcp_option_window_scale(3)))),
        ethernet(dev_mac, GATEWAY_MAC, 0x0800,
                 ipv4(server_ip, dev_ip, 6, tcp(443, 30999, seq=77, ack=10, flags=TCP_SYN | TCP_ACK,
                                                 window=2000, options=tcp_option_window_scale(2)))),
        ethernet(GATEWAY_MAC, dev_mac, 0x0800,
                 ipv4(dev_ip, server_ip, 6, tcp(30999, 443, seq=10, ack=80, window=1000))),
        ethernet(GATEWAY_MAC, dev_mac, 0x0800,
                 ipv4(dev_ip, server_ip, 6, tcp(30998, 443, seq=5, ack=123456, window=1000))),
    ]


def extract_capture_bytes() -> bytes:
    """The training capture (seed 7) with the edge frames appended as records."""
    return build_training_capture(seed=TRAIN_SEED) + pcap_file(_edge_frames())[24:]


def extract_hashes(work: Path) -> dict[str, str]:
    """Run `extract` with each EXTRACT_RUNS flag set; hash the CSV and the
    stderr summary line (frames read and every drop/fallback count)."""
    pcap = work / "extract.pcap"
    pcap.write_bytes(extract_capture_bytes())
    registry = work / "devices.tsv"
    registry.write_text(TRAINING_REGISTRY, encoding="utf-8")
    hashes = {}
    for run, flags in EXTRACT_RUNS.items():
        out = work / f"{run}.csv"
        err = StringIO()
        with redirect_stderr(err):
            assert main(["extract", "--input", str(pcap), "--registry", str(registry),
                         "--out", str(out), *flags]) == 0
        summary = [line for line in err.getvalue().splitlines() if line.startswith("read ")]
        assert len(summary) == 1
        hashes[f"{run}/dataset.csv"] = _sha(out.read_bytes())
        hashes[f"{run}/summary"] = _sha(summary[0].encode())
    return hashes


def classify_edge_hashes(work: Path, model: Path) -> dict[str, str]:
    """Run `classify` with `model` on the training capture plus the edge
    frames; hash the predictions, the stderr frame accounting line and the
    per-MAC summary on standard output."""
    pcap = work / "classify-edge.pcap"
    pcap.write_bytes(extract_capture_bytes())
    out = work / "classify-edge.csv"
    err, macs = StringIO(), StringIO()
    with redirect_stderr(err), redirect_stdout(macs):
        assert main(["classify", "--model-file", str(model), "--input", str(pcap),
                     "--out", str(out)]) == 0
    frames = [line for line in err.getvalue().splitlines() if line.startswith("read ")]
    assert len(frames) == 1
    return {
        "classify-edge/predictions.csv": _sha(out.read_bytes()),
        "classify-edge/frames": _sha(frames[0].encode()),
        "classify-edge/macs": _sha(macs.getvalue().encode()),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _distributions_text(model_path: Path, csv_path: Path) -> bytes:
    """Every row's full-precision class distribution, one repr per cell."""
    model = load_model(model_path.read_text(encoding="utf-8"))
    dataset = read_csv(csv_path.read_text(encoding="utf-8"))
    dist = model.distribution_batch(dataset.matrix(model.schema))
    lines = [",".join(repr(p) for p in row) for row in dist.tolist()]
    return ("\n".join(lines) + "\n").encode()


def golden_hashes(work: Path) -> dict[str, str]:
    """Run pipeline + classify for every variant under `work`; hash each output."""
    train_pcap = work / "train.pcap"
    train_pcap.write_bytes(build_training_capture(seed=TRAIN_SEED))
    fresh_pcap = work / "fresh.pcap"
    fresh_pcap.write_bytes(build_training_capture(seed=FRESH_SEED))
    registry = work / "devices.tsv"
    registry.write_text(TRAINING_REGISTRY, encoding="utf-8")
    fresh_csv = work / "fresh.csv"
    assert main(["extract", "--input", str(fresh_pcap), "--registry", str(registry),
                 "--out", str(fresh_csv)]) == 0
    hashes = {}
    for run, flags in RUNS.items():
        out = work / run
        assert main(["pipeline", "--input", str(train_pcap), "--registry", str(registry),
                     *flags, "--seed", "1", "--out", str(out)]) == 0
        assert main(["classify", "--model-file", str(out / "model.json"),
                     "--input", str(fresh_pcap), "--out", str(out / "predictions.csv")]) == 0
        hashes["dataset.csv"] = _sha((out / "dataset.csv").read_bytes())
        for name in ("model.json", "report.txt", "report_classes.csv", "summary.csv", "predictions.csv"):
            hashes[f"{run}/{name}"] = _sha((out / name).read_bytes())
        hashes[f"{run}/distributions"] = _sha(_distributions_text(out / "model.json", fresh_csv))
    hashes.update(classify_edge_hashes(work, work / "j48" / "model.json"))
    rank_csv = work / "rank.csv"
    assert main(["rank", "--input", str(work / "j48" / "dataset.csv"), "--out", str(rank_csv)]) == 0
    hashes["rank.csv"] = _sha(rank_csv.read_bytes())
    return hashes


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return golden_hashes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(hashes, name):
    assert hashes[name] == GOLDEN[name], f"{name} changed"


@pytest.fixture(scope="module")
def extract_outputs(tmp_path_factory):
    return extract_hashes(tmp_path_factory.mktemp("golden-extract"))


@pytest.mark.parametrize("name", sorted(GOLDEN_EXTRACT))
def test_extract_matches_golden(extract_outputs, name):
    assert extract_outputs[name] == GOLDEN_EXTRACT[name], f"{name} changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        found = golden_hashes(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
        found_extract = extract_hashes(Path(tmp))
    for table in (found, found_extract):
        for key in table:
            print(f'    "{key}": "{table[key]}",')
        print()
