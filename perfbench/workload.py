"""One run of one benchmark workload, in a fresh interpreter.

``perfbench/run.py`` starts this script; it is not meant to be run by
hand. It imports ``spreader_profiler`` from the checkout's ``src/``,
generates the workload's corpora from the seed, and then, unless
``--setup-only`` is given, issues the workload's CLI operation through
``spreader_profiler.cli.run`` in a closed loop (one operation at a time)
for ``--seconds`` seconds. The first operation is a warm-up whose outputs
must pass the output gate; every later operation must reproduce them byte
for byte. A fixed reference computation is timed before the first and
after every operation (see ``Reference``). The result goes to
``--result`` as JSON.

With ``--trace 1`` every other operation runs under the tracer, so the
per-layer numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from stats import median  # noqa: E402

WORKLOADS = ("es-train", "es-score", "en-grid")
DEFAULT_SEED = 7
# The unlabeled es-score corpus comes from another seed than the labeled one.
UNLABELED_SEED_OFFSET = 1_000_003

# Corpus sizes are a fraction of PAN 2020 scale (150 authors per class,
# 100 tweets each) so that a run holds a dozen operations: one PAN-scale
# ES train takes about 22 s and the grid below about 52 s on 2 cores.
SIZES = {
    "es": {"authors_per_class": 20, "tweets_per_author": 30},
    "en": {"authors_per_class": 20, "tweets_per_author": 25},
}
GRID_FLAGS = [
    "--ranges", "1:3,3:5", "--weighting", "tfidf,count", "--models", "svm,logreg",
    "--max-features", "5000", "--min-df", "2",
]
GRID_CONFIGS = 8
MODEL = "model.txt"


class Reference:
    """A fixed computation, timed before the first and after every operation.

    The machine this benchmark was written on is shared, and its speed
    drifts by up to 1.7x over minutes, so a run's median operation time
    depends on when it ran. The reference does the program's two kinds of
    work, string slicing into ``Counter`` and dict building (vectorize)
    and sparse matrix-vector products (the optimizer), with none of the
    program's code, and it slows down with the machine: an operation's
    median time divided by the reference's median time in the same run
    cancels much of the drift. Its data are small so that it never sets
    the process's peak memory."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = random.Random(0)
        self.text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz  ") for _ in range(12_000))
        numbers = np.random.default_rng(0)
        rows, columns, per_row = 200, 20_000, 1_000
        self.matrix = sp.csr_matrix(
            (numbers.random(rows * per_row), numbers.integers(0, columns, rows * per_row),
             np.arange(0, rows * per_row + 1, per_row)),
            shape=(rows, columns),
        )
        self.ones = np.ones(columns)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            counts = collections.Counter()
            for n in range(2, 6):
                counts.update(self.text[i : i + n] for i in range(len(self.text) - n + 1))
            {term: count for term, count in counts.items() if count > 1}
        vector = self.ones
        for _ in range(150):
            vector = self.matrix.T @ (self.matrix @ vector) * 1e-3 + self.ones
        return time.perf_counter() - start


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its name, argv, and the files it writes."""

    name: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()


def corpus_specs(workload: str, seed: int) -> dict[str, dict]:
    if workload == "en-grid":
        return {"en": dict(SIZES["en"], language="en", seed=seed)}
    specs = {"es": dict(SIZES["es"], language="es", seed=seed)}
    if workload == "es-score":
        specs["es_unlabeled"] = dict(
            SIZES["es"], language="es", seed=seed + UNLABELED_SEED_OFFSET, labeled=False
        )
    return specs


def train_step(seed: int) -> Step:
    return Step("train", ("train", "--lang", "es", "--seed", str(seed), "--input", "es", "--out", MODEL), (MODEL,))


def op_steps(workload: str, seed: int) -> list[Step]:
    if workload == "es-train":
        return [train_step(seed)]
    if workload == "es-score":
        return [
            Step("evaluate", ("evaluate", "--model", MODEL, "--input", "es")),
            Step("predict", ("predict", "--model", MODEL, "--input", "es_unlabeled", "--out", "predictions.txt"),
                 ("predictions.txt",)),
        ]
    return [
        Step("gridsearch", ("gridsearch", "--lang", "en", "--seed", str(seed), "--input", "en", *GRID_FLAGS,
                            "--out", "grid.tsv"), ("grid.tsv", "grid.tsv.report.txt")),
    ]


def run_step(run, step: Step, tracer=None) -> tuple[int, float, dict[str, bytes]]:
    """Run one CLI invocation; return its exit code, wall time and outputs.
    An exception escaping ``run`` counts as exit code -1."""
    for name in step.files:
        Path(name).unlink(missing_ok=True)
    captured = io.StringIO()
    span = tracer.span("cli") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(captured):
            code = run(list(step.argv))
    except Exception:  # the benchmark must go on and count the failure
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    outputs = {f"{step.name}/stdout": captured.getvalue().encode("utf-8")}
    for name in step.files:
        path = Path(name)
        outputs[name] = path.read_bytes() if path.exists() else b""
    return code, seconds, outputs


def run_op(run, steps: list[Step], tracer=None):
    codes, times, outputs = [], {}, {}
    for step in steps:
        code, seconds, step_outputs = run_step(run, step, tracer)
        codes.append(code)
        times[step.name] = seconds
        outputs.update(step_outputs)
    return codes, times, outputs


def setup(workload: str, seed: int, run) -> dict:
    """Generate the corpora and, for es-score, train the model it scores with."""
    from spreader_profiler.synth import generate_corpus_dir

    specs = corpus_specs(workload, seed)
    for name, spec in specs.items():
        generate_corpus_dir(name, **spec)
    info = {"inputs": {name: gate.corpus_digest(Path(name)) for name in specs}}
    if workload == "es-score":
        code, _, outputs = run_step(run, train_step(seed))
        if code != 0:
            raise RuntimeError(f"set-up train exited with {code}")
        info["model_sha256"] = gate.sha256(outputs[MODEL])
    return info


def check_warmup(workload: str, seed: int, outputs: dict[str, bytes], inputs: dict, run) -> list[str]:
    """Run the output gate on the warm-up operation's outputs."""
    failures = []
    if workload == "es-train":
        failures += gate.check_train_report(outputs["train/stdout"], MODEL)
    if workload in ("es-train", "es-score"):
        failures += gate.check_model_roundtrip(Path(MODEL), Path("roundtrip.txt"))
    if workload == "es-score":
        authors = sorted(p.stem for p in Path("es").glob("*.xml"))
        if sum(gate.parse_confusion(outputs["evaluate/stdout"])) != len(authors):
            failures.append("evaluate: confusion counts do not add up to the corpus size")
        unlabeled = sorted(p.stem for p in Path("es_unlabeled").glob("*.xml"))
        failures += gate.check_predictions(outputs["predictions.txt"], unlabeled)
        # The same authors with their labels, to recount the predictions.
        from spreader_profiler.synth import generate_corpus_dir

        generate_corpus_dir("es_twin", **dict(corpus_specs(workload, seed)["es_unlabeled"], labeled=True))
        if gate.corpus_digest(Path("es_twin"), "*.xml") != gate.corpus_digest(Path("es_unlabeled"), "*.xml"):
            failures.append("the labeled twin of the unlabeled corpus has other author files")
        code, _, twin = run_step(run, Step("evaluate", ("evaluate", "--model", MODEL, "--input", "es_twin")))
        if code != 0:
            failures.append(f"evaluate on the labeled twin exited with {code}")
        truth = gate.parse_truth(Path("es_twin/truth.txt").read_bytes())
        failures += gate.check_recount(twin["evaluate/stdout"], outputs["predictions.txt"], truth)
    if workload == "en-grid":
        failures += gate.check_grid(outputs["grid.tsv"], outputs["grid.tsv.report.txt"], GRID_CONFIGS)
    if seed == DEFAULT_SEED:
        pinned = dict(outputs)
        if workload == "es-score":
            pinned[MODEL] = Path(MODEL).read_bytes()
        failures += gate.check_pins(gate.load_pins(), pin_sizes(), inputs, pinned)
    return failures


def pin_sizes() -> dict:
    return {"corpora": SIZES, "grid": GRID_FLAGS}


def import_program():
    """Import the CLI from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    warnings.filterwarnings("ignore", message=r".*do not have 100 tweets")
    from spreader_profiler import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"spreader_profiler imported from {cli.__file__}, not from {src}")
    return cli.run


def measure(workload: str, seed: int, seconds: float, trace: bool, run, inputs: dict) -> dict:
    steps = op_steps(workload, seed)
    codes, _, expected = run_op(run, steps)
    if any(codes):
        failures = [f"warm-up exit codes {codes}"]
    else:
        try:
            failures = check_warmup(workload, seed, expected, inputs, run)
        except Exception as exc:  # a malformed output must fail the gate, not the run
            traceback.print_exc()
            failures = [f"gate raised {type(exc).__name__}: {exc}"]
    for failure in failures:
        print(f"perfbench: gate: {failure}", file=sys.stderr)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    min_ops = 4 if trace else 3
    ops = []
    time_reference = Reference()
    references = [time_reference()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
            try:
                with tracer.op(len(ops)):
                    codes, times, outputs = run_op(run, steps, tracer)
            finally:
                tracer.uninstall()
        else:
            codes, times, outputs = run_op(run, steps)
        ok = not failures and all(c == 0 for c in codes) and outputs == expected
        ops.append({"seconds": sum(times.values()), "steps": times, "ok": ok, "traced": traced})
        references.append(time_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "gate": failures,
        "ops": ops,
        "attempted": len(ops) + 1,
        "failed": sum(not op["ok"] for op in ops) + (1 if failures else 0),
        "peak_rss_mb": peak_rss_mb,
        "reference_s": references,
    }
    if tracer is not None:
        if tracer.missing:
            print(f"perfbench: trace: functions not found: {', '.join(tracer.missing)}", file=sys.stderr)
        traced_ids = [i for i, op in enumerate(ops) if op["traced"]]
        per_op = [tracer.op_metrics(i) for i in traced_ids]
        layers = {name: median(m[name] for m in per_op) for name in per_op[0]}
        layers["trace.overhead_ratio"] = (
            median(op["seconds"] for op in ops if op["traced"])
            / median(op["seconds"] for op in ops if not op["traced"])
            - 1.0
        )
        result["layers"] = layers
        spans_path = ROOT / ".perfbench" / f"{workload}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    run = import_program()
    args.workdir.mkdir(parents=True, exist_ok=True)
    result_path = args.result.resolve()
    os.chdir(args.workdir)  # relative paths keep reports and pins independent of the work directory
    info = setup(args.workload, args.seed, run)
    result = {"setup_end": time.monotonic(), **info}
    if not args.setup_only:
        import numpy
        import scipy

        result.update(measure(args.workload, args.seed, args.seconds, bool(args.trace), run, info["inputs"]))
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
