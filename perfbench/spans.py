"""Span tracer for the traced benchmark run.

Wraps semhash's public functions at the module attributes their callers look
them up by (``semhash.trainer.adam_step``, ``semhash.losses.kl_loss``,
``semhash.cli.evaluate``, ...), records one span per call and a few work
counters, and restores the originals on ``uninstall``.  Spans are kept in
memory as (name, start, end, parent, repetition) and written out at the end.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> every object whose attribute callers resolve at call time; the
# attribute is the name's last component
TRACED = {
    "hierarchy.distance_matrix": ["semhash.trainer", "semhash.metrics"],
    "hierarchy.load_taxonomy": ["semhash.cli"],
    "data.beta_sample": ["semhash.trainer"],
    "data.generate_synthetic": ["semhash.cli"],
    "data.read_features": ["semhash.cli", "semhash.data"],
    "data.write_features": ["semhash.cli"],
    "model.encoder_forward": ["semhash.trainer", "semhash.cli"],
    "model.encoder_backward": ["semhash.trainer"],
    "model.classifier_forward": ["semhash.losses"],
    "model.save_checkpoint": ["semhash.cli"],
    "model.load_checkpoint": ["semhash.cli"],
    "losses.total_loss": ["semhash.trainer"],
    "losses.sim_loss": ["semhash.losses"],
    "losses.kl_loss": ["semhash.losses"],
    "losses.cls_loss": ["semhash.losses"],
    "trainer.train": ["semhash.trainer", "semhash.cli"],
    "trainer.adam_step": ["semhash.trainer"],
    "hashing.binarize": ["semhash.hashing", "semhash.cli"],
    "hashing.build_index": ["semhash.hashing", "semhash.cli"],
    "hashing.save_index": ["semhash.cli"],
    "hashing.load_index": ["semhash.cli"],
    "hashing.HashIndex.codes": ["semhash.hashing.HashIndex"],
    "hashing.query_topk": ["semhash.cli"],
    "hashing.hamming_to_all": ["semhash.hashing", "semhash.metrics"],
    "metrics.evaluate": ["semhash.metrics", "semhash.cli"],
    "metrics.evaluate_embeddings": ["semhash.metrics", "semhash.cli"],
    "metrics.hamming_ranking": ["semhash.metrics"],
    "metrics.manhattan_ranking": ["semhash.metrics"],
}

# spans whose calls also update a work counter in ``Tracer._observe``
OBSERVED = {
    "hierarchy.distance_matrix", "hashing.binarize", "hashing.HashIndex.codes",
    "hashing.build_index", "hashing.hamming_to_all", "metrics.hamming_ranking",
    "metrics.manhattan_ranking", "data.read_features", "data.write_features",
    "hashing.save_index", "hashing.load_index",
}

CLI_COMMANDS = ("gen-data", "train", "encode", "eval", "query")

# (metric, unit, source): source is a span statistic "<span>|<s|self_s|calls>",
# a counter "#<counter>", or a derived value computed in ``per_layer``
PER_LAYER = [
    ("hierarchy.distance_matrix.s", "s", "hierarchy.distance_matrix|s"),
    ("hierarchy.distance_matrix.calls", "count", "hierarchy.distance_matrix|calls"),
    ("hierarchy.leaf_pairs", "count", "#leaf_pairs"),
    ("hierarchy.distance_matrix.repeat_frac", "ratio", "repeat_frac"),
    ("hierarchy.load_taxonomy.s", "s", "hierarchy.load_taxonomy|s"),
    ("data.beta_sample.s", "s", "data.beta_sample|s"),
    ("data.beta_sample.calls", "count", "data.beta_sample|calls"),
    ("data.generate_synthetic.s", "s", "data.generate_synthetic|s"),
    ("data.read_features.s", "s", "data.read_features|s"),
    ("data.write_features.s", "s", "data.write_features|s"),
    ("data.file_bytes", "bytes", "#file_bytes"),
    ("model.encoder_forward.s", "s", "model.encoder_forward|s"),
    ("model.encoder_forward.calls", "count", "model.encoder_forward|calls"),
    ("model.encoder_backward.s", "s", "model.encoder_backward|s"),
    ("model.encoder_backward.calls", "count", "model.encoder_backward|calls"),
    ("model.classifier_forward.s", "s", "model.classifier_forward|s"),
    ("model.save_checkpoint.s", "s", "model.save_checkpoint|s"),
    ("model.load_checkpoint.s", "s", "model.load_checkpoint|s"),
    ("losses.sim_loss.s", "s", "losses.sim_loss|s"),
    ("losses.kl_loss.s", "s", "losses.kl_loss|s"),
    ("losses.cls_loss.s", "s", "losses.cls_loss|s"),
    ("losses.total_loss.self_s", "s", "losses.total_loss|self_s"),
    ("losses.total_loss.calls", "count", "losses.total_loss|calls"),
    ("trainer.train.s", "s", "trainer.train|s"),
    ("trainer.train.self_s", "s", "trainer.train|self_s"),
    ("trainer.adam_step.s", "s", "trainer.adam_step|s"),
    ("trainer.steps", "count", "trainer.adam_step|calls"),
    ("trainer.step_us", "us", "step_us"),
    ("hashing.binarize.s", "s", "hashing.binarize|s"),
    ("hashing.build_index.s", "s", "hashing.build_index|s"),
    ("hashing.codes_packed", "count", "#codes_packed"),
    ("hashing.save_index.s", "s", "hashing.save_index|s"),
    ("hashing.load_index.s", "s", "hashing.load_index|s"),
    ("hashing.index_bytes", "bytes", "#index_bytes"),
    ("hashing.HashIndex.codes.s", "s", "hashing.HashIndex.codes|s"),
    ("hashing.codes_built", "count", "#codes_built"),
    ("hashing.codes_used_frac", "ratio", "codes_used_frac"),
    ("hashing.query_topk.s", "s", "hashing.query_topk|s"),
    ("hashing.hamming_to_all.s", "s", "hashing.hamming_to_all|s"),
    ("hashing.hamming_to_all.calls", "count", "hashing.hamming_to_all|calls"),
    ("metrics.evaluate.s", "s", "metrics.evaluate|s"),
    ("metrics.evaluate.self_s", "s", "metrics.evaluate|self_s"),
    ("metrics.evaluate_embeddings.s", "s", "metrics.evaluate_embeddings|s"),
    ("metrics.evaluate_embeddings.self_s", "s", "metrics.evaluate_embeddings|self_s"),
    ("metrics.hamming_ranking.s", "s", "metrics.hamming_ranking|s"),
    ("metrics.hamming_ranking.calls", "count", "metrics.hamming_ranking|calls"),
    ("metrics.manhattan_ranking.s", "s", "metrics.manhattan_ranking|s"),
    ("metrics.manhattan_ranking.calls", "count", "metrics.manhattan_ranking|calls"),
    ("metrics.candidates_scored", "count", "#candidates_scored"),
    *[
        (f"cli.{cmd}.{stat}", "s", f"cli.{cmd}|{stat}")
        for cmd in CLI_COMMANDS
        for stat in ("s", "self_s")
    ],
    ("cli.commands", "count", "#cli_commands"),
    ("cli.commands_failed", "count", "#cli_commands_failed"),
    ("trace.spans", "count", "spans"),
    ("trace.layer_sum_s", "s", "layer_sum_s"),
    ("trace.run_s", "s", "run_s"),
    ("trace.untraced_run_s", "s", "untraced_run_s"),
    ("trace.overhead_s", "s", "overhead_s"),
    ("trace.wrapper_cost_s", "s", "wrapper_cost_s"),
]


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        head, _, tail = path.rpartition(".")
        return getattr(importlib.import_module(head), tail)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counters for the calls made while ``rep`` is set."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.rep = 0
        self._stack: list[int] = []
        self._seen_labels: dict[int, set] = defaultdict(set)
        self._saved: list = []

    # --- recording ---

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.rep)

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[self.rep][counter] += amount

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "hierarchy.distance_matrix":
            labels = tuple(int(v) for v in _arg(args, kwargs, 1, "labels"))
            self.count("leaf_pairs", len(labels) * (len(labels) - 1) // 2)
            seen = self._seen_labels[self.rep]
            self.count("distance_matrix_repeats", labels in seen)
            seen.add(labels)
        elif name == "hashing.binarize":
            self.count("codes_packed", len(result))
        elif name == "hashing.HashIndex.codes":
            self.count("codes_built", len(result))
        elif name == "hashing.build_index":
            self.count("codes_used", len(_arg(args, kwargs, 0, "codes")))
        elif name == "hashing.hamming_to_all":
            self.count("codes_used")
        elif name in ("metrics.hamming_ranking", "metrics.manhattan_ranking"):
            self.count("candidates_scored", len(result))
        elif name in ("data.read_features", "data.write_features"):
            self.count("file_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
        elif name in ("hashing.save_index", "hashing.load_index"):
            self.count("index_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    def _wrap(self, name: str, fn):
        # the span is inlined rather than taken from ``span``: this runs about
        # nine times per training step, and a context manager doubles its cost
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observed = name in OBSERVED

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.rep)
                stack.pop()
            if observed:
                self._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owners in TRACED.items():
            attr = name.rpartition(".")[2]
            targets = [_resolve(owner) for owner in owners]
            original = getattr(targets[0], attr)
            wrapper = self._wrap(name, original)
            for target in targets:
                if getattr(target, attr) is not original:
                    raise RuntimeError(f"{target.__name__}.{attr} is not {name}")
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # --- reporting ---

    def rep_totals(self, rep: int) -> dict[str, float]:
        """Per-span s/self_s/calls and counters for one repetition."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, r in self.spans:
            if r == rep and parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        n_spans = 0
        for idx, (name, start, end, parent, r) in enumerate(self.spans):
            if r != rep:
                continue
            n_spans += 1
            totals[f"{name}|s"] += end - start
            totals[f"{name}|self_s"] += end - start - child_time[idx]
            totals[f"{name}|calls"] += 1
            if parent < 0:
                totals["layer_sum_s"] += end - start
        counters = self.counters[rep]
        for key, value in counters.items():
            totals[f"#{key}"] = value
        totals["spans"] = n_spans
        dm_calls = totals["hierarchy.distance_matrix|calls"]
        totals["repeat_frac"] = counters["distance_matrix_repeats"] / dm_calls if dm_calls else 0.0
        built = counters["codes_packed"] + counters["codes_built"]
        totals["codes_used_frac"] = counters["codes_used"] / built if built else 0.0
        steps = totals["trainer.adam_step|calls"]
        totals["step_us"] = 1e6 * totals["trainer.train|s"] / steps if steps else 0.0
        return totals

    def per_layer(self, reps: list[int], run_s: dict[str, float]) -> dict[str, dict]:
        """Median over the traced repetitions of every per-layer metric.

        ``run_s`` holds the median ``run_s`` of the traced and the untraced
        repetitions; their difference is the tracing overhead.
        """
        per_rep = [self.rep_totals(r) for r in reps]
        values = {source: statistics.median(t.get(source, 0.0) for t in per_rep)
                  for _, _, source in PER_LAYER}
        values.update(
            run_s,
            overhead_s=run_s["run_s"] - run_s["untraced_run_s"],
            wrapper_cost_s=values["spans"] * self.call_cost(),
        )
        return {metric: {"value": values[source], "unit": unit} for metric, unit, source in PER_LAYER}

    def call_cost(self, n: int = 20000) -> float:
        """Seconds a traced call adds to an untraced one, timed on a no-op."""

        def noop():
            return ()

        traced = self._wrap("trace.calibration", noop)
        first = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            traced()
        t2 = time.perf_counter()
        del self.spans[first:]
        return max(0.0, (t2 - t1) - (t1 - t0)) / n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,rep\n")
            for name, start, end, parent, rep in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{rep}\n")
