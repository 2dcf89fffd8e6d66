"""Tests of the benchmark harness's own arithmetic and output gate.

Not part of the repository's default test run (pytest's testpaths is
``tests``). Run from the root of a checkout with:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import run as bench  # noqa: E402
import stats  # noqa: E402
from tracer import LAYER_COUNTS, LAYER_TIMES, Tracer  # noqa: E402

from spreader_profiler import cli  # noqa: E402
from spreader_profiler.synth import generate_corpus_dir  # noqa: E402

# ----------------------------------------------------------------------
# Summary statistics.


def test_median_and_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert stats.median(values) == 3.5
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.0] * 10) == (2.0, 2.0, 2.0)


def test_quartiles_need_two_samples_and_median_one():
    with pytest.raises(ValueError):
        stats.quartiles([1.0])
    with pytest.raises(ValueError):
        stats.median([])


def test_fail_ratio():
    assert stats.fail_ratio(0, 12) == 0.0
    assert stats.fail_ratio(3, 12) == 0.25
    assert stats.fail_ratio(12, 12) == 1.0
    for failed, attempted in ((1, 0), (-1, 5), (6, 5)):
        with pytest.raises(ValueError):
            stats.fail_ratio(failed, attempted)


def test_covered_counts_overlaps_once_and_clips_to_the_window():
    assert stats.covered([], 0.0, 10.0) == 0.0
    assert stats.covered([(2.0, 5.0), (6.0, 9.0)], 0.0, 10.0) == 6.0
    assert stats.covered([(2.0, 5.0), (4.0, 7.0), (3.0, 4.0)], 0.0, 10.0) == 5.0
    assert stats.covered([(-3.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0


# ----------------------------------------------------------------------
# Self time from spans.


def _tracer_with(spans):
    tracer = Tracer()
    tracer.spans = [
        {"id": i, "parent": parent, "op": 0, "name": name, "start": start, "end": end}
        for i, (parent, name, start, end) in enumerate(spans)
    ]
    return tracer


def test_self_time_subtracts_nested_and_sibling_children():
    tracer = _tracer_with([
        (None, "cli", 0.0, 10.0),
        (0, "evaluation", 1.0, 9.0),
        (1, "vectorize.fit", 2.0, 5.0),
        (2, "vectorize.transform", 3.0, 4.0),  # nested inside fit
        (1, "models.train", 6.0, 8.5),  # sibling of fit
    ])
    times = tracer.self_times(0)
    assert times["cli"] == pytest.approx(2.0)
    assert times["evaluation"] == pytest.approx(8.0 - 3.0 - 2.5)
    assert times["vectorize.fit"] == pytest.approx(2.0)
    assert times["vectorize.transform"] == pytest.approx(1.0)
    assert times["models.train"] == pytest.approx(2.5)
    assert sum(times.values()) == pytest.approx(10.0)


def test_self_time_sums_spans_of_one_name_and_ignores_other_ops():
    tracer = _tracer_with([
        (None, "cli", 0.0, 4.0),
        (0, "preprocess", 0.5, 1.0),
        (0, "preprocess", 2.0, 3.0),
    ])
    tracer.spans.append({"id": 3, "parent": None, "op": 1, "name": "preprocess", "start": 0.0, "end": 9.0})
    times = tracer.self_times(0)
    assert times["preprocess"] == pytest.approx(1.5)
    assert times["cli"] == pytest.approx(2.5)


# ----------------------------------------------------------------------
# Output gate on hand-made outputs.

AUTHORS = ["a1", "b2", "c3", "d4"]
TRUTH = {"a1": 1, "b2": 0, "c3": 1, "d4": 0}
PREDICTIONS = b"a1:::1\nb2:::1\nc3:::0\nd4:::0\n"
REPORT = b"model: logreg\npositive class: 1 (fake_news_spreader)\nTP\tTN\tFP\tFN\tP\tR\tF1\tAcc\n1\t1\t1\t1\t0.5\t0.5\t0.5\t0.5\n"


def test_predictions_and_recount_pass_on_consistent_outputs():
    assert gate.check_predictions(PREDICTIONS, AUTHORS) == []
    assert gate.recount(PREDICTIONS, TRUTH) == (1, 1, 1, 1)
    assert gate.check_recount(REPORT, PREDICTIONS, TRUTH) == []


@pytest.mark.parametrize("position", range(len(PREDICTIONS)))
def test_gate_catches_every_one_byte_change_to_a_predictions_file(position):
    perturbed = bytearray(PREDICTIONS)
    perturbed[position] = ord("1") if perturbed[position] == ord("0") else ord("0")
    perturbed = bytes(perturbed)
    try:
        failures = gate.check_predictions(perturbed, AUTHORS) or gate.check_recount(REPORT, perturbed, TRUTH)
    except (KeyError, ValueError):
        failures = ["unparseable"]
    pinned = {"sizes": {}, "inputs": {}, "outputs": {"predictions.txt": gate.sha256(PREDICTIONS)}}
    assert failures
    assert gate.check_pins(pinned, {}, {}, {"predictions.txt": perturbed})
    assert gate.check_pins(pinned, {}, {}, {"predictions.txt": PREDICTIONS}) == []


def test_predictions_must_name_each_author_once_in_order():
    assert gate.check_predictions(b"b2:::1\na1:::1\nc3:::0\nd4:::0\n", AUTHORS)
    assert gate.check_predictions(b"a1:::1\nb2:::1\nc3:::0\n", AUTHORS)
    assert gate.check_predictions(b"a1:::1\na1:::1\nb2:::1\nc3:::0\nd4:::0\n", AUTHORS)
    assert gate.check_predictions(b"a1:::1\nb2:::1\nc3:::0\nd4:::2\n", AUTHORS)


def _grid(rows):
    tsv = "rank\tmean_accuracy\tmodel\tfeatures\tsplits\n" + "".join(
        f"{rank}\t{acc}\t{model}\t{features}\t1\n" for rank, (acc, model, features) in enumerate(rows, 1)
    )
    report = "\n\n".join(
        f"config {rank}\nkey: {model}|{features}\nmean_accuracy: {acc}\nsplit 0: ..."
        for rank, (acc, model, features) in enumerate(rows, 1)
    ) + "\n"
    return tsv.encode(), report.encode()


def test_grid_check():
    rows = [("1.0000", "logreg", "f1"), ("1.0000", "svm", "f1"), ("0.9000", "logreg", "f2")]
    assert gate.check_grid(*_grid(rows), configs=3) == []
    assert gate.check_grid(*_grid(rows), configs=4)
    assert gate.check_grid(*_grid([rows[1], rows[0], rows[2]]), configs=3)  # tie not broken by key
    assert gate.check_grid(*_grid([rows[2], rows[0], rows[1]]), configs=3)  # not ranked by accuracy
    assert gate.check_grid(*_grid([rows[0], rows[0], rows[2]]), configs=3)  # duplicate key
    tsv, report = _grid(rows)
    assert gate.check_grid(tsv, report.replace(b"key: svm|f1", b"key: svm|f9"), configs=3)


def _model(weights, bias=0.5, vocab="ab\t0\t3\t-"):
    lines = ["spreader-profiler-model 1", "kind\tlogreg", f"tolerance\t{(1e-4).hex()}",
             f"bias\t{float(bias).hex()}", vocab, f"weights\t{len(weights)}"]
    lines += [f"{i}:{float(w).hex()}" for i, w in enumerate(weights)]
    return ("\n".join(lines) + "\nchecksum\tsha256:0\n").encode()


def test_model_pin_allows_weight_drift_within_twice_the_tolerance():
    pinned = np.array([0.25, -1.5, 3.0])
    sections = gate.model_parts(_model(pinned))[0]
    assert gate.check_model_pin(_model(pinned), sections, pinned, 0.5) == []
    assert gate.check_model_pin(_model(pinned + 1.5e-4), sections, pinned, 0.5) == []
    assert gate.check_model_pin(_model(pinned, bias=0.5 + 1.5e-4), sections, pinned, 0.5) == []
    assert gate.check_model_pin(_model(pinned + np.array([0, 3e-4, 0])), sections, pinned, 0.5)
    assert gate.check_model_pin(_model(pinned, bias=0.6), sections, pinned, 0.5)
    assert gate.check_model_pin(_model(pinned, vocab="ac\t0\t3\t-"), sections, pinned, 0.5)
    assert gate.check_model_pin(_model(pinned[:2]), sections, pinned, 0.5)


def test_pins_reject_other_sizes_and_changed_inputs():
    pins = {"sizes": {"es": 1}, "inputs": {"es": "x"}, "outputs": {}}
    assert gate.check_pins(pins, {"es": 2}, {}, {})
    assert gate.check_pins(pins, {"es": 1}, {"es": "y"}, {})
    assert gate.check_pins(pins, {"es": 1}, {"es": "x"}, {}) == []


def test_corpus_digest_sees_names_and_bytes(tmp_path):
    (tmp_path / "a.xml").write_bytes(b"<author/>")
    first = gate.corpus_digest(tmp_path)
    (tmp_path / "a.xml").write_bytes(b"<author />")
    second = gate.corpus_digest(tmp_path)
    (tmp_path / "a.xml").rename(tmp_path / "b.xml")
    assert len({first, second, gate.corpus_digest(tmp_path)}) == 3


# ----------------------------------------------------------------------
# Against the real program, on a tiny corpus.


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    generate_corpus_dir(root / "es", authors_per_class=6, tweets_per_author=8, seed=3, language="es")
    return root


def test_gate_passes_real_outputs_and_fails_a_perturbed_predictions_file(tiny):
    model = tiny / "model.txt"
    code, report = _cli(["train", "--lang", "es", "--input", str(tiny / "es"), "--out", str(model)])
    assert code == 0
    assert gate.check_train_report(report, str(model)) == []
    assert gate.check_model_roundtrip(model, tiny / "roundtrip.txt") == []

    predictions = tiny / "predictions.txt"
    assert _cli(["predict", "--model", str(model), "--input", str(tiny / "es"), "--out", str(predictions)])[0] == 0
    code, evaluation = _cli(["evaluate", "--model", str(model), "--input", str(tiny / "es")])
    assert code == 0
    authors = sorted(p.stem for p in (tiny / "es").glob("*.xml"))
    truth = gate.parse_truth((tiny / "es" / "truth.txt").read_bytes())
    data = predictions.read_bytes()
    assert gate.check_predictions(data, authors) == []
    assert gate.check_recount(evaluation, data, truth) == []

    flipped = bytearray(data)
    flipped[data.index(b":::") + 3] ^= 1  # '0' <-> '1'
    assert gate.check_recount(evaluation, bytes(flipped), truth)


def test_tracer_wraps_every_binding_and_restores_them(tiny):
    from spreader_profiler import evaluation, models

    original = evaluation.fit_pipeline
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.fit_pipeline is not original
        assert cli.fit_pipeline is evaluation.fit_pipeline
        assert models.union_transform is evaluation.union_transform
        assert tracer.missing == []
        with tracer.op(0), tracer.span("cli"):
            code, _ = _cli(["train", "--lang", "es", "--input", str(tiny / "es"), "--out", str(tiny / "m.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.fit_pipeline is original and evaluation.fit_pipeline is original

    metrics = tracer.op_metrics(0)
    loaded = models.load_model(tiny / "m.txt")
    assert metrics["vectorize.vocab_terms"] == sum(len(v) for v in loaded.feature_spec)
    assert metrics["models.features"] == loaded.dimension
    assert metrics["vectorize.fit_calls"] == len(loaded.feature_spec)
    assert metrics["evaluation.configs"] == 1
    assert metrics["preprocess.distinct_streams"] == metrics["preprocess.streams"] == 12
    # fit and transform analyse the 8 training streams twice per block, the 4 test streams once
    assert metrics["vectorize.analyses_per_stream"] == pytest.approx((8 * 2 + 4) / 12)
    assert metrics["models.model_bytes"] == (tiny / "m.txt").stat().st_size
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert all(value >= 0 for value in metrics.values())


# ----------------------------------------------------------------------
# The metric lists agree with BENCHMARK.json.


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    derived = {"preprocess.useful_ratio", "vectorize.analyses_per_stream", "trace.coverage",
               "trace.overhead_ratio", "op.wall_s", "op.reference_s"}
    assert set(LAYER_TIMES) | set(LAYER_COUNTS) | derived == set(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
