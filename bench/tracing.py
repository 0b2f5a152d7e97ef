"""Span tracer that wraps the program's layer boundaries from outside.

A target is patched wherever its name is bound: in the defining module, in
every ``tcmr`` module that imported it by name (``train.py`` binds
``build_batch_plan``, ``build_index``, ``shared_label_matrix``,
``rank_candidates`` and ``map_at_k`` at import), and on the class for
methods. Patching only the defining module would miss every call made
through such a binding.

A span records its name, start, end and parent. The time covered by its
direct children is summed on it as they close, so its self time is its
duration minus that sum (calls are single-threaded, so children of one span
never overlap). Per-pair callbacks fire tens of thousands of times per
epoch; they are folded into their parent span as a call count and a total
time rather than one span each, which keeps the trace small.

Targets that the program no longer defines are skipped and listed in
``Tracer.missing``; their metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (span name, "module:attribute" targets, hook name, folded into parent)
TARGETS = (
    ("synth.generate", ("tcmr.synth:generate",), None, False),
    ("corpus.load_corpus", ("tcmr.corpus:load_corpus",), None, False),
    ("corpus.save_corpus", ("tcmr.corpus:save_corpus",), None, False),
    ("corpus.split", ("tcmr.corpus:split",), None, False),
    ("corpus.document_frequencies", ("tcmr.corpus:document_frequencies",), None, False),
    ("corpus.tfidf_matrix", ("tcmr.corpus:tfidf_matrix",), None, False),
    ("temporal.fit", ("tcmr.train:fit_temporal_model",), None, False),
    ("temporal.gibbs", ("tcmr.temporal:_gibbs_slice",), "gibbs", False),
    ("temporal.model_io", ("tcmr.temporal:read_temporal_model",), "model", False),
    ("temporal.model_io", ("tcmr.temporal:write_temporal_model",), None, False),
    ("temporal.pair_sim", (
        "tcmr.temporal:CategoryKDE.pair_sim",
        "tcmr.temporal:TopicDensity.pair_sim",
        "tcmr.temporal:RecencyModel.pair_sim",
    ), None, True),
    ("objective.build_batch_plan", ("tcmr.objective:build_batch_plan",), "plan", False),
    ("objective.loss_terms", ("tcmr.objective:loss_terms_from_projections",), "loss", False),
    ("projection.forward", ("tcmr.projection:ProjectionHalf.forward",), "forward", False),
    ("projection.backward", ("tcmr.projection:ProjectionHalf.backward",), "backward", False),
    ("projection.sgd_step", ("tcmr.projection:SgdMomentum.step",), None, False),
    ("projection.checkpoint_io", (
        "tcmr.projection:save_checkpoint",
        "tcmr.projection:load_checkpoint",
    ), None, False),
    ("train.train_model", ("tcmr.train:train_model",), None, False),
    ("train.validation", ("tcmr.train:mean_map_both_directions",), None, False),
    ("train.write_log", ("tcmr.train:write_training_log",), None, False),
    ("retrieval.build_index", ("tcmr.retrieval:build_index",), None, False),
    ("retrieval.shared_label_matrix", ("tcmr.retrieval:shared_label_matrix",), None, False),
    ("retrieval.rank_candidates", ("tcmr.retrieval:rank_candidates",), None, False),
    ("retrieval.map_at_k", ("tcmr.retrieval:map_at_k",), None, False),
    ("retrieval.ndcg_at_k", ("tcmr.retrieval:ndcg_at_k",), None, False),
    ("retrieval.evaluate_direction", ("tcmr.retrieval:evaluate_direction",), None, False),
    ("retrieval.write_reports", (
        "tcmr.retrieval:write_report_json",
        "tcmr.retrieval:write_scope_csv",
        "tcmr.retrieval:write_temporal_csv",
    ), None, False),
)

# Spans whose own (self) time is loop glue rather than layer work; it counts
# as uncovered when checking how much of a stage the named layers explain.
ORCHESTRATORS = ("train.train_model",)


class Span:
    __slots__ = ("id", "name", "parent", "root", "start", "end", "child_s", "leaf",
                 "counts", "models")

    def __init__(self, sid, name, parent, root):
        self.id = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.leaf = {}  # folded callback name -> [calls, seconds]
        self.counts = {}  # hook-recorded counts
        self.models = []  # temporal models loaded under a stage root

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "leaf": self.leaf,
            "counts": self.counts,
        }


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _bound(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


# Hooks read counters from arguments and return values; each tolerates a
# changed shape by recording nothing.

def _hook_plan(span, fn, args, kwargs, plan):
    positives = getattr(plan, "positives", None) or []
    neg_t = getattr(plan, "negatives_text", None) or []
    neg_i = getattr(plan, "negatives_image", None) or []
    _add(span.counts, "objective.pairs_planned", sum(len(p) for p in positives))
    _add(span.counts, "objective.hinges_attempted",
         sum(len(n) for n in neg_t) + sum(len(n) for n in neg_i))


def _hook_loss(span, fn, args, kwargs, result):
    breakdown = result[0] if isinstance(result, tuple) and result else None
    _add(span.counts, "objective.active_hinges", int(getattr(breakdown, "active_hinges", 0)))
    _add(span.counts, "objective.skipped_anchors", int(getattr(breakdown, "skipped_anchors", 0)))


def _hook_gibbs(span, fn, args, kwargs, result):
    arguments = _bound(fn, args, kwargs)
    docs, iters = arguments.get("doc_word_ids"), arguments.get("iters")
    if docs is not None and iters is not None:
        _add(span.counts, "temporal.gibbs.token_draws", sum(len(d) for d in docs) * int(iters))


def _matmul_flop(half, rows):
    return 2 * rows * (half.W1.size + half.W2.size)


def _hook_forward(span, fn, args, kwargs, result):
    try:
        _add(span.counts, "projection.flop", _matmul_flop(args[0], result[0].shape[0]))
    except (AttributeError, IndexError, TypeError):
        pass


def _hook_backward(span, fn, args, kwargs, result):
    # dW2, dh, dW1 and dx: twice the forward product count
    try:
        _add(span.counts, "projection.flop", 2 * _matmul_flop(args[0], result[1].shape[0]))
    except (AttributeError, IndexError, TypeError):
        pass


HOOKS = {
    "plan": _hook_plan,
    "loss": _hook_loss,
    "gibbs": _hook_gibbs,
    "forward": _hook_forward,
    "backward": _hook_backward,
    "model": None,  # handled by the tracer: keeps the model for its counters
}


def _resolve(target):
    """'module:Attr' or 'module:Class.attr' -> (owner, attribute, object) or None."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if obj is None or not callable(obj):
        return None
    return owner, attr, obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans) + len(self._stack), name,
                    parent.id if parent else None,
                    parent.root if parent else None)
        if span.root is None:
            span.root = span.id
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans closed out of order"
        if self._stack:
            self._stack[-1].child_s += span.seconds
        self.spans.append(span)

    def _wrap(self, name, fn, hook_name):
        hook = HOOKS.get(hook_name)
        keep_model = hook_name == "model"

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(span, fn, args, kwargs, result)
            if keep_model and self._stack:
                self._stack[0].models.append(result)
            return result

        return traced

    def _wrap_folded(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def folded(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                if stack:
                    parent = stack[-1]
                    parent.child_s += seconds
                    entry = parent.leaf.get(name)
                    if entry is None:
                        parent.leaf[name] = [1, seconds]
                    else:
                        entry[0] += 1
                        entry[1] += seconds

        return folded

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        resolved = []
        for name, targets, hook_name, folded in TARGETS:
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                else:
                    resolved.append((name, hook_name, folded, found))
        # the CLI imports every module that binds a target by name
        importlib.import_module("tcmr.cli")
        modules = [m for n, m in sys.modules.items() if n == "tcmr" or n.startswith("tcmr.")]
        for name, hook_name, folded, (owner, attr, fn) in resolved:
            wrapper = self._wrap_folded(name, fn) if folded else self._wrap(name, fn, hook_name)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# Per-invocation metrics


def stage_metrics(root: Span, spans: list[Span]) -> tuple[dict, dict, list[float]]:
    """Times, exact counts and step durations (ms) for one stage invocation.

    ``spans`` are the spans under ``root``, root included.
    """
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    uncovered = root.seconds - root.child_s
    for span in spans:
        if span is root:
            continue
        self_s = span.seconds - span.child_s
        _add(times, f"{span.name}.s", span.seconds)
        _add(times, f"{span.name}.self_s", self_s)
        _add(counts, f"{span.name}.calls", 1)
        if span.name in ORCHESTRATORS:
            uncovered += self_s
        for key, value in span.counts.items():
            _add(counts, key, value)
    for span in spans:
        for name, (calls, seconds) in span.leaf.items():
            _add(counts, f"{name}.calls", calls)
            _add(times, f"{name}.s", seconds)
            _add(times, f"{name}.self_s", seconds)
    misses = sum(
        int(getattr(m, "missing_pair_count", 0)) + int(getattr(m, "empty_word_count", 0))
        for m in root.models
    )
    _add(counts, "temporal.pair_sim.misses", misses)
    times["stage.s"] = root.seconds
    times["stage.covered_s"] = root.seconds - uncovered

    # a step runs from a batch plan's start to the optimizer step's end
    steps, plan_start = [], None
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "objective.build_batch_plan":
            plan_start = span.start
        elif span.name == "projection.sgd_step" and plan_start is not None:
            steps.append(1e3 * (span.end - plan_start))
            plan_start = None
    return times, counts, steps
