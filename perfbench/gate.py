"""Output gate: decides whether the outputs of one benchmark run are right.

Two kinds of check run on the reference outputs of a run (its warm-up
operation; every measured operation must then reproduce those bytes):

* invariants, for any seed: the train report adds up, ``load_model`` reads
  back the model ``train`` wrote, every unlabeled author is predicted once
  and in author order, ``evaluate``'s confusion counts equal a recount of
  the predictions file, and the grid has one ranked row per configuration
  with distinct keys;
* pins, for the default seed only: SHA-256 digests of the generated
  corpora and of every report, predictions file and grid file, the digest
  of the model file without its weights, and the weights and bias
  themselves within the optimizer's tolerance (see ``check_model_pin``).

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"
WEIGHTS_FILE = HERE / "pins_es_model.npz"

FAKE = 1  # Label.FAKE_NEWS_SPREADER, the CLI's default positive class


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digest(directory: Path, pattern: str = "*") -> str:
    """Digest over the names and bytes of the files in a corpus directory."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).glob(pattern)):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Parsing the program's outputs.


def parse_confusion(report: bytes) -> tuple[int, int, int, int]:
    """TP, TN, FP, FN from a rendered evaluation report."""
    lines = report.decode("utf-8").splitlines()
    for position, line in enumerate(lines[:-1]):
        if line.startswith("TP\tTN\tFP\tFN\t"):
            tp, tn, fp, fn = (int(v) for v in lines[position + 1].split("\t")[:4])
            return tp, tn, fp, fn
    raise ValueError("no confusion row in report")


def parse_truth(text: bytes) -> dict[str, int]:
    truth = {}
    for line in text.decode("utf-8").splitlines():
        author_id, _, label = line.partition(":::")
        truth[author_id] = int(label)
    return truth


def recount(predictions: bytes, truth: dict[str, int]) -> tuple[int, int, int, int]:
    """TP, TN, FP, FN of a predictions file against known labels."""
    tp = tn = fp = fn = 0
    for line in predictions.decode("utf-8").splitlines():
        author_id, _, label = line.partition(":::")
        predicted, actual = int(label) == FAKE, truth[author_id] == FAKE
        tp += predicted and actual
        fp += predicted and not actual
        fn += actual and not predicted
        tn += not predicted and not actual
    return tp, tn, fp, fn


def model_parts(model: bytes) -> tuple[str, np.ndarray, float, float]:
    """Split a model file into the digest of everything but the bias and
    weights, the weight vector, the bias and the optimizer tolerance."""
    lines = model.decode("utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("weights\t"))
    head = [line for line in lines[:start] if not line.startswith("bias\t")]
    fields = dict(line.split("\t", 1) for line in lines[:start] if line.startswith(("bias\t", "tolerance\t")))
    count = int(lines[start].split("\t")[1])
    weights = np.array([float.fromhex(line.partition(":")[2]) for line in lines[start + 1 : start + 1 + count]])
    return (
        sha256("\n".join(head).encode("utf-8")),
        weights,
        float.fromhex(fields["bias"]),
        float.fromhex(fields["tolerance"]),
    )


# ----------------------------------------------------------------------
# Invariants.


def check_train_report(stdout: bytes, model_path: str) -> list[str]:
    lines = stdout.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("split: "):
        return ["train report: no split header"]
    test_side = lines[0].rsplit("test=", 1)[1]
    test_size = int(test_side.split(" ")[0])
    failures = []
    if sum(parse_confusion(stdout)) != test_size:
        failures.append(f"train report: confusion counts do not add up to the {test_size} test authors")
    if lines[-1] != f"model written to {model_path}":
        failures.append("train report: no 'model written' line")
    return failures


def check_predictions(predictions: bytes, author_ids: list[str]) -> list[str]:
    """Every author predicted exactly once, in author order, as 0 or 1."""
    lines = predictions.decode("utf-8", errors="replace").split("\n")
    if lines[-1] != "":
        return ["predictions: file does not end with a newline"]
    lines = lines[:-1]
    ids = [line.partition(":::")[0] for line in lines]
    if ids != author_ids:
        return [f"predictions: {len(ids)} lines do not name the {len(author_ids)} authors once each, in order"]
    bad = [line for line in lines if line.partition(":::")[2] not in ("0", "1")]
    return [f"predictions: bad label in {bad[0]!r}"] if bad else []


def check_recount(report: bytes, predictions: bytes, truth: dict[str, int]) -> list[str]:
    from_report, from_file = parse_confusion(report), recount(predictions, truth)
    if from_report != from_file:
        return [f"evaluate counts {from_report} but the predictions file recounts to {from_file}"]
    return []


def check_grid(tsv: bytes, report: bytes, configs: int) -> list[str]:
    """One ranked row per configuration with distinct keys, best first,
    matching the per-configuration blocks of the report."""
    lines = tsv.decode("utf-8").splitlines()
    if not lines or lines[0] != "rank\tmean_accuracy\tmodel\tfeatures\tsplits":
        return ["grid: bad TSV header"]
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != configs or any(len(row) != 5 for row in rows):
        return [f"grid: expected {configs} rows of 5 columns"]
    failures = []
    if [row[0] for row in rows] != [str(r) for r in range(1, configs + 1)]:
        failures.append("grid: ranks are not 1..N")
    keys = [f"{row[2]}|{row[3]}" for row in rows]
    if len(set(keys)) != configs:
        failures.append("grid: duplicate configuration keys")
    order = [(-float(row[1]), key) for row, key in zip(rows, keys)]
    if order != sorted(order):
        failures.append("grid: rows are not ranked by accuracy, then key")
    sections = report.decode("utf-8").rstrip("\n").split("\n\n")
    expected = [
        [f"config {rank}", f"key: {key}", f"mean_accuracy: {row[1]}"]
        for rank, (row, key) in enumerate(zip(rows, keys), start=1)
    ]
    if [section.split("\n")[:3] for section in sections] != expected:
        failures.append("grid: report blocks do not match the TSV rows")
    return failures


def check_model_roundtrip(model_path: Path, scratch_path: Path) -> list[str]:
    """``load_model`` reads back exactly the model ``train`` wrote."""
    from spreader_profiler.models import load_model, save_model

    save_model(load_model(model_path), scratch_path)
    same = scratch_path.read_bytes() == model_path.read_bytes()
    scratch_path.unlink()
    return [] if same else ["model: load_model then save_model does not reproduce the file"]


# ----------------------------------------------------------------------
# Pins.


def check_model_pin(model: bytes, pinned_sections: str, pinned_weights: np.ndarray, pinned_bias: float) -> list[str]:
    """Header and vocabulary must be byte-identical. Weights and bias may
    move by at most twice the optimizer tolerance in any coordinate: the
    objective's L2 term makes it 1-strongly convex in the weights, so two
    solutions whose gradient norms are within the tolerance lie within
    twice the tolerance of each other."""
    sections, weights, bias, tolerance = model_parts(model)
    if sections != pinned_sections:
        return ["model: header or vocabulary differs from the pinned model"]
    if weights.shape != pinned_weights.shape:
        return [f"model: {weights.shape[0]} weights, pinned {pinned_weights.shape[0]}"]
    drift = max(float(np.max(np.abs(weights - pinned_weights), initial=0.0)), abs(bias - pinned_bias))
    if drift > 2 * tolerance:
        return [f"model: weights or bias moved by {drift:.3g} > 2 x tolerance {tolerance:g}"]
    return []


def check_pins(pins: dict, sizes: dict, inputs: dict[str, str], outputs: dict[str, bytes]) -> list[str]:
    if pins["sizes"] != sizes:
        return ["pins were made for other corpus sizes; regenerate them with perfbench/pin.py"]
    failures = [
        f"input {name}: digest {digest[:12]} differs from the pinned {pins['inputs'][name][:12]}"
        for name, digest in inputs.items()
        if pins["inputs"].get(name) != digest
    ]
    for name, data in outputs.items():
        if name == "model.txt":
            with np.load(WEIGHTS_FILE) as pinned:
                failures += check_model_pin(data, pins["model_sections"], pinned["weights"], float(pinned["bias"]))
        elif pins["outputs"].get(name) != sha256(data):
            failures.append(f"output {name}: bytes differ from the pinned output")
    return failures
