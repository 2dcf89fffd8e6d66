"""The spreader-profiler benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload es-train --seed 7 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``es-train``  ES stock ``train`` on a labeled ES corpus;
* ``es-score``  ES ``evaluate`` on a labeled corpus, then ``predict`` on an
  unlabeled one from another seed, with a model trained during set-up;
* ``en-grid``   an 8-configuration EN ``gridsearch``.

Each run starts fresh interpreters with one BLAS/OpenMP thread and
``PYTHONHASHSEED`` unset: first ``SETUPS - 1`` that only set up, then one
that sets up and measures (``perfbench/workload.py``). The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of the traced run.

End-to-end metrics: ``setup_s``, the median over the set-ups of the time
from starting the interpreter to the end of set-up (package import, corpus
generation and, for es-score, training the model it scores with);
``op_norm``, the median wall time of one operation (one CLI call; for
es-score an evaluate plus a predict) divided by the median time of a fixed
reference computation timed between operations in the same process, which
cancels most of the shared machine's speed drift (the raw median is
printed and reported as ``op.wall_s``); ``peak_rss_mb``, the workload
process's peak resident memory; ``ok_ratio``, one minus the share of
operations that exited non-zero or failed an output check.

Spans of a traced run are written to ``.perfbench/<workload>.spans.jsonl``
and every run's full record to ``.perfbench/<workload>-seed<N>-trace<T>.json``.

Exit status is 0 when a result was printed (``"correct": false`` when the
output gate failed) and non-zero, with no result line, when the run itself
could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import fail_ratio, median, quartiles  # noqa: E402
from workload import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_norm": "x_ref", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    "corpus.load_s": "s", "corpus.split_s": "s", "corpus.xml_bytes": "B",
    "preprocess.s": "s", "preprocess.streams": "count", "preprocess.distinct_streams": "count",
    "preprocess.useful_ratio": "ratio", "preprocess.chars_out": "chars",
    "vectorize.fit_s": "s", "vectorize.fit_calls": "count", "vectorize.transform_s": "s",
    "vectorize.transform_calls": "count", "vectorize.ngrams_counted": "count",
    "vectorize.analyses_per_stream": "ratio", "vectorize.vocab_terms": "count", "vectorize.nnz": "count",
    "models.train_s": "s", "models.iterations": "count", "models.unconverged": "count",
    "models.features": "count", "models.save_s": "s", "models.model_bytes": "B",
    "models.load_s": "s", "models.score_s": "s", "models.score_calls": "count",
    "evaluation.self_s": "s", "evaluation.configs": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
    "op.wall_s": "s", "op.reference_s": "s",
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)  # hash-order dependence must show as a failed check
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same modules
    return env


def spawn(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Start one workload process and return its result plus ``setup_s``,
    the time from starting the interpreter to the end of its set-up."""
    result_path = workdir.with_suffix(".json")
    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise RunError(f"workload process exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - started
    return result


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + hashlib.sha256(data).digest())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
    }


def summarize(args, setups: list[dict], main: dict) -> dict:
    failures = list(main["gate"])
    for other in setups:
        if other["inputs"] != main["inputs"]:
            failures.append("corpus digests differ between set-up processes")
        if other.get("model_sha256") != main.get("model_sha256"):
            failures.append("set-up processes trained different model files")
    failed = main["failed"] + (1 if failures and not main["gate"] else 0)
    ops = main["ops"]
    wall_s = median(op["seconds"] for op in ops if not op["traced"])
    reference_s = median(main["reference_s"])
    values = {
        "setup_s": median(s["setup_s"] for s in setups + [main]),
        "op_norm": wall_s / reference_s,
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": 1.0 - fail_ratio(failed, main["attempted"]),
    }
    layers = main.get("layers")
    if layers is not None:
        layers = {**layers, "op.wall_s": wall_s, "op.reference_s": reference_s}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": not failures and failed == 0, "attempted": main["attempted"], "failed": failed,
        "gate": failures, "inputs": main["inputs"], "end_to_end": values,
        "setup_samples": [s["setup_s"] for s in setups + [main]], "ops": ops,
        "op_wall_s": wall_s, "reference_s": reference_s, "reference_samples": main["reference_s"],
        "per_layer": layers, "spans": main.get("spans"),
        "provenance": {**provenance(), **main["versions"]},
    }


def report(record: dict) -> None:
    """Human-readable lines, before the JSON result line."""
    ops = record["ops"]
    untraced = [op for op in ops if not op["traced"]]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{len(ops)} measured ops, {record['failed']}/{record['attempted']} failed")
    for step in ops[0]["steps"]:
        times = [op["steps"][step] for op in untraced]
        spread = f", q1 {quartiles(times)[0]:.4f} q3 {quartiles(times)[2]:.4f}" if len(times) > 1 else ""
        print(f"  {step}_s median {median(times):.4f} s over {len(times)} ops{spread}")
    e2e = record["end_to_end"]
    print(f"  op_s median {record['op_wall_s']:.4f} s = {e2e['op_norm']:.3f} x reference "
          f"(reference median {record['reference_s']:.4f} s); setup_s median {e2e['setup_s']:.4f} s over "
          f"{len(record['setup_samples'])} set-ups; peak_rss_mb {e2e['peak_rss_mb']:.1f}; "
          f"fail_ratio {1.0 - e2e['ok_ratio']:.4f}")
    print("  inputs: " + ", ".join(f"{name}={digest[:16]}" for name, digest in record["inputs"].items()))
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    for failure in record["gate"]:
        print(f"  GATE FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one spreader-profiler benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "spreader_profiler" / "cli.py").is_file():
        print(f"perfbench: no spreader_profiler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    workdir = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [spawn(args, workdir / f"setup{i}", deadline, setup_only=True) for i in range(SETUPS - 1)]
        main_result = spawn(args, workdir / "run", deadline, setup_only=False)
        record = summarize(args, setups, main_result)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (state / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    report(record)
    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
