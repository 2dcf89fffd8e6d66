"""Spans and counts around the public functions of each spreader_profiler
layer, recorded from outside the package.

``Tracer.install`` replaces every binding of a hooked function in every
loaded ``spreader_profiler`` module, so calls through names bound with
``from ... import`` (``cli`` calling ``fit_pipeline``, ``evaluation``
calling ``union_transform``) are seen as well as calls through the
defining module. ``Tracer.uninstall`` puts the original objects back, so
untraced operations run the unmodified program.

Spans (name, start, end, parent, op id) stay in memory until
``write_jsonl``. A span's self time is its duration minus the part of it
that its child spans cover; a layer's time in one operation is the sum of
the self times of its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from stats import covered

PACKAGE = "spreader_profiler"


def _char_ngrams(size: int, ngram_range) -> int:
    return sum(max(0, size - n + 1) for n in range(ngram_range.min_n, ngram_range.max_n + 1))


# Count hooks run after the hooked call returns, outside its span. Each
# gets the op's counters, the op's distinct-key sets, the bound
# arguments and the result.


def _count_xml_bytes(counts, seen, arguments, result):
    counts["xml_bytes"] += sum(p.stat().st_size for p in Path(arguments["directory"]).glob("*.xml"))


def _count_streams(counts, seen, arguments, result):
    for stream in result:
        counts["streams"] += 1
        counts["chars_out"] += sum(map(len, stream.tokens)) + max(0, len(stream.tokens) - 1)
        seen["streams"].add(hash((stream.author_id, stream.tokens)))


def _count_char_analysis(counts, seen, arguments, result):
    text, ngram_range = arguments["text"], arguments["ngram_range"]
    counts["analyses"] += 1
    counts["ngrams"] += _char_ngrams(len(text), ngram_range)
    seen["analyses"].add((hash(text), ngram_range.min_n, ngram_range.max_n))


def _count_fit(counts, seen, arguments, result):
    counts["fit_calls"] += 1
    counts["vocab_terms"] += len(result)


def _count_transform(counts, seen, arguments, result):
    counts["transform_calls"] += 1
    counts["nnz"] += len(result.entries)


def _count_train(counts, seen, arguments, result):
    counts["iterations"] += result.n_iterations or 0
    counts["unconverged"] += result.converged is False
    counts["features"] += result.dimension


def _count_save(counts, seen, arguments, result):
    counts["model_bytes"] += Path(arguments["path"]).stat().st_size


def _count_score(counts, seen, arguments, result):
    counts["score_calls"] += 1


def _count_config(counts, seen, arguments, result):
    counts["configs"] += 1


# (module, function, span name or None for counts only, count hook or None)
HOOKS = (
    ("corpus", "load_corpus", "corpus.load", _count_xml_bytes),
    ("corpus", "split_corpus", "corpus.split", None),
    ("preprocess", "load_stopwords", "preprocess", None),
    ("preprocess", "preprocess_corpus", "preprocess", _count_streams),
    ("vectorize", "extract_char_ngrams", None, _count_char_analysis),
    ("vectorize", "fit_vocabulary", "vectorize.fit", _count_fit),
    ("vectorize", "union_transform", "vectorize.transform", None),
    ("vectorize", "transform", "vectorize.transform", _count_transform),
    ("models", "train", "models.train", _count_train),
    ("models", "save_model", "models.save", _count_save),
    ("models", "load_model", "models.load", None),
    ("models", "predict", "models.score", None),
    ("models", "decision_value", "models.score", _count_score),
    ("evaluation", "fit_pipeline", "evaluation", _count_config),
    ("evaluation", "evaluate_model", "evaluation", None),
    ("evaluation", "evaluate_pipeline", "evaluation", None),
    ("evaluation", "grid_search", "evaluation", None),
)

# Per-layer metric name -> span name whose self time it reports.
LAYER_TIMES = {
    "corpus.load_s": "corpus.load",
    "corpus.split_s": "corpus.split",
    "preprocess.s": "preprocess",
    "vectorize.fit_s": "vectorize.fit",
    "vectorize.transform_s": "vectorize.transform",
    "models.train_s": "models.train",
    "models.save_s": "models.save",
    "models.load_s": "models.load",
    "models.score_s": "models.score",
    "evaluation.self_s": "evaluation",
    "cli.self_s": "cli",
}

# Per-layer metric name -> counter it reports.
LAYER_COUNTS = {
    "corpus.xml_bytes": "xml_bytes",
    "preprocess.streams": "streams",
    "preprocess.distinct_streams": "distinct_streams",
    "preprocess.chars_out": "chars_out",
    "vectorize.fit_calls": "fit_calls",
    "vectorize.transform_calls": "transform_calls",
    "vectorize.ngrams_counted": "ngrams",
    "vectorize.vocab_terms": "vocab_terms",
    "vectorize.nnz": "nnz",
    "models.iterations": "iterations",
    "models.unconverged": "unconverged",
    "models.features": "features",
    "models.model_bytes": "model_bytes",
    "models.score_calls": "score_calls",
    "evaluation.configs": "configs",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = {}
        self.missing: list[str] = []
        self._seen: dict[int, dict[str, set]] = {}
        self._stack: list[dict] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.missing = []
        for module_name, function_name, span_name, hook in HOOKS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{function_name}")
                continue
            wrapper = self._wrap(original, span_name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, original, span_name, hook):
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                span = tracer._open(span_name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
            if hook is not None and tracer._op is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                hook(tracer.counts[tracer._op], tracer._seen[tracer._op], arguments, result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def op(self, op_id: int):
        """Attribute the spans and counts recorded inside to one operation."""
        self._op = op_id
        self.counts[op_id] = Counter()
        self._seen[op_id] = {"streams": set(), "analyses": set()}
        try:
            yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    # -- deriving -----------------------------------------------------

    def self_times(self, op_id: int) -> Counter:
        spans = [s for s in self.spans if s["op"] == op_id]
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append((s["start"], s["end"]))
        totals: Counter = Counter()
        for s in spans:
            busy = s["end"] - s["start"]
            totals[s["name"]] += busy - covered(children[s["id"]], s["start"], s["end"])
        return totals

    def op_metrics(self, op_id: int) -> dict[str, float]:
        """Every per-layer metric for one traced operation."""
        self_times = self.self_times(op_id)
        counts = Counter(self.counts[op_id])
        counts["distinct_streams"] = len(self._seen[op_id]["streams"])
        distinct_analyses = len(self._seen[op_id]["analyses"])
        cli_time = sum(s["end"] - s["start"] for s in self.spans
                       if s["op"] == op_id and s["name"] == "cli")
        metrics = {name: float(self_times[span]) for name, span in LAYER_TIMES.items()}
        metrics.update({name: float(counts[key]) for name, key in LAYER_COUNTS.items()})
        metrics["preprocess.useful_ratio"] = (
            counts["distinct_streams"] / counts["streams"] if counts["streams"] else 0.0
        )
        metrics["vectorize.analyses_per_stream"] = (
            counts["analyses"] / distinct_analyses if distinct_analyses else 0.0
        )
        metrics["trace.coverage"] = 1.0 - self_times["cli"] / cli_time if cli_time else 0.0
        return metrics

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for op_id, counts in self.counts.items():
                out.write(json.dumps({"op": op_id, "counts": dict(counts)}) + "\n")
