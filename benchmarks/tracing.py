"""Opt-in spans around the public names one module of the program calls in
another, for the traced run (`--trace 1`) only.

Each hook replaces a module attribute with a wrapper that records one span
(name, start, end, parent span) per call; spans stay in memory and are
written once at the end. A hook whose target no longer exists is skipped,
and every metric that needs it is reported as absent. Per-layer metrics are
computed from the spans after the timed loop.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, span name). The caller's module is the one patched,
# because that is where the name is looked up at call time.
HOOKS = (
    ("stmtmem.cli", "generate_synthetic_corpus", "synthetic.generate"),
    ("stmtmem.cli", "cmd_prepare", "corpus.prepare"),
    ("stmtmem.cli", "encode_sample", "corpus.encode"),
    ("stmtmem.decoding", "encode_sample", "corpus.encode"),
    ("stmtmem.cli", "load_checkpoint", "params.load"),
    ("stmtmem.params", "load_checkpoint", "params.load"),
    ("stmtmem.cli", "train", "training.train"),
    ("stmtmem.training", "_pair_batch", "training.batch"),
    ("stmtmem.training", "_forward_batch", "model.forward"),
    ("stmtmem.training", "clip_gradients", "training.clip"),
    ("stmtmem.training", "adam_step", "params.adam"),
    ("stmtmem.training", "evaluate_next_token", "training.validate"),
    ("stmtmem.tensor", "Tensor.backward", "tensor.backward"),
    ("stmtmem.decoding", "greedy_decode", "decoding.sample"),
    ("stmtmem.decoding", "forward", "model.forward"),
    ("stmtmem.decoding", "ensemble_distribution", "decoding.ensemble"),
    ("stmtmem.cli", "score_corpus", "metrics.score"),
    ("stmtmem.model", "gru_cell", "gru"),
    ("stmtmem.model", "gru_weights", None),
)

# GRU parameter prefix -> the network part its gru_cell calls belong to.
GRU_PARTS = {"enc_gru": "model.code_gru", "dec_gru": "model.decoder_gru",
             "episodic_gru": "model.memory_gru", "eos_gru": "model.statement_gru"}


def _resolve(module_name: str, attr: str):
    owner = sys.modules.get(module_name)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
    return owner, attr.split(".")[-1]


class Tracer:
    """`clock` gives the span times; the benchmark passes one that stops
    while its speed-measuring loop runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []          # [name, start, end, parent index]
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._patched: list = []
        self._gru_prefix: dict[int, str] = {}

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.add(name or attr)
                continue
            if name is None:
                wrapper = self._remember_gru(original)
            elif name == "gru":
                wrapper = self._span(original, None)
            elif name == "tensor.backward":
                wrapper = self._backward(original)
            else:
                wrapper = self._span(original, name)
            setattr(owner, leaf, wrapper)
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _span(self, fn, name):
        spans, stack, prefixes, clock = self.spans, self._open, self._gru_prefix, self.clock

        def wrapper(*args, **kwargs):
            label = name
            if label is None:     # gru_cell(x, h, w): attribute by the weights' owner
                w = args[2] if len(args) > 2 else kwargs.get("w")
                label = GRU_PARTS.get(prefixes.get(id(w[0]), ""), "model.other_gru")
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return wrapper

    def _remember_gru(self, fn):
        prefixes = self._gru_prefix

        def wrapper(params, prefix):
            weights = fn(params, prefix)
            prefixes[id(weights[0])] = prefix
            return weights

        return wrapper

    def _backward(self, fn):
        timed = self._span(fn, "tensor.backward")
        spans, stack, clock = self.spans, self._open, self.clock

        def wrapper(loss):
            # Walk the tape before the timed span; the walk is its own span
            # so the step time can leave it out.
            start = clock()
            nodes, nbytes = tape_size(loss)
            spans.append(["trace.tape_walk", start, clock(),
                          stack[-1] if stack else -1, nodes, nbytes])
            return timed(loss)

        return wrapper

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "tape nodes (tape walks only)", "tape bytes"],
                       "missing_hooks": sorted(self.missing),
                       "spans": self.spans}, fh, separators=(",", ":"))


def tape_size(loss) -> tuple[int, int]:
    """Recorded op nodes reachable from `loss`, and the bytes their output
    arrays span (computed from shape and dtype, broadcast views counted at
    full size)."""
    seen = {id(loss)}
    todo = [loss]
    nodes = nbytes = 0
    while todo:
        node = todo.pop()
        parents = node._parents
        if parents:
            nodes += 1
            nbytes += node.data.nbytes
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return nodes, nbytes


def layer_metrics(tracer: Tracer, unit: str, count_samples: int) -> dict[str, float]:
    """Per-layer metrics from the spans. `unit` is "step" on the training
    workloads and "sample" on decoding; network-part times are divided by
    that unit. Per-sample counts cover the first `count_samples` decoded
    samples only, so that they do not depend on how many a run reached.
    Metrics a workload does not exercise read 0."""
    contexts = {"training.train": "step", "training.validate": "validate",
                "decoding.sample": "sample"}
    ctx: list[str] = []
    sample_no: list[int] = []
    first: Counter = Counter()      # span name -> calls within the first samples
    samples_seen = 0
    agg: dict[tuple[str, str], list] = {}
    step_ms, walks = [], []
    batch_start, walk_s = None, 0.0
    for name, start, end, parent, *tape in tracer.spans:   # parents precede children
        here = contexts.get(name, ctx[parent] if parent >= 0 else "")
        ctx.append(here)
        if name == "decoding.sample":
            sample_no.append(samples_seen)
            samples_seen += 1
        else:
            sample_no.append(sample_no[parent] if parent >= 0 else -1)
        if here == "sample" and sample_no[-1] < count_samples:
            first[name] += 1
        entry = agg.setdefault((name, here), [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        if name == "training.batch" and here == "step":
            batch_start, walk_s = start, 0.0
        elif name == "trace.tape_walk":
            walk_s += end - start
            walks.append(tape)
        elif name == "params.adam" and batch_start is not None:
            step_ms.append((end - batch_start - walk_s) * 1e3)
            batch_start = None

    def n(name, where=None):
        return sum(v[0] for (k, c), v in agg.items() if k == name and where in (None, c))

    def ms(name, where=None):
        return 1e3 * sum(v[1] for (k, c), v in agg.items() if k == name and where in (None, c))

    def per(value, count):
        return value / count if count else 0.0

    steps, samples, prepares = n("params.adam"), n("decoding.sample"), n("corpus.prepare")
    units = steps if unit == "step" else samples
    counted = min(samples, count_samples)
    out = {
        "training.step_ms": per(sum(step_ms), len(step_ms)),
        "model.forward_ms": per(ms("model.forward", "step"), steps),
        "tensor.backward_ms": per(ms("tensor.backward"), steps),
        "params.adam_ms": per(ms("params.adam"), steps),
        "training.clip_ms": per(ms("training.clip"), steps),
        "training.batch_ms": per(ms("training.batch", "step"), steps),
        "training.validate_ms": per(ms("training.validate"), n("training.validate")),
        "tensor.nodes_per_step": per(sum(w[0] for w in walks), len(walks)),
        "tensor.node_mb_per_step": per(sum(w[1] for w in walks) / 1e6, len(walks)),
        "tensor.gru_cells_per_step": per(sum(n(p, "step") for p in GRU_PARTS.values()), steps),
        "decoding.sample_ms": per(ms("decoding.sample"), samples),
        "decoding.steps_per_sample": per(first["decoding.ensemble"], counted),
        "model.forwards_per_sample": per(first["model.forward"], counted),
        "tensor.gru_cells_per_sample": per(sum(first[p] for p in GRU_PARTS.values()), counted),
        "decoding.ensemble_ms": per(ms("decoding.ensemble"), n("decoding.ensemble")),
        "corpus.encode_ms": per(ms("corpus.encode"), n("corpus.encode")),
        "metrics.score_ms": per(ms("metrics.score"), n("metrics.score")),
        "synthetic.generate_ms": per(ms("synthetic.generate"), prepares),
        "corpus.prepare_ms": per(ms("corpus.prepare") - ms("synthetic.generate"), prepares),
        "params.load_ms": per(ms("params.load"), n("params.load")),
    }
    for part in GRU_PARTS.values():
        out[f"{part}_ms"] = per(ms(part, unit), units)
    return out


# Hooks each metric needs; a metric whose hook is missing is absent.
NEEDS = {
    "training.step_ms": ("training.batch", "params.adam"),
    "model.forward_ms": ("model.forward", "training.train", "params.adam"),
    "tensor.backward_ms": ("tensor.backward", "params.adam"),
    "params.adam_ms": ("params.adam",),
    "training.clip_ms": ("training.clip", "params.adam"),
    "training.batch_ms": ("training.batch", "params.adam"),
    "training.validate_ms": ("training.validate",),
    "tensor.nodes_per_step": ("tensor.backward",),
    "tensor.node_mb_per_step": ("tensor.backward",),
    "tensor.gru_cells_per_step": ("gru", "gru_weights", "training.train", "params.adam"),
    "decoding.sample_ms": ("decoding.sample",),
    "decoding.steps_per_sample": ("decoding.ensemble", "decoding.sample"),
    "model.forwards_per_sample": ("model.forward", "decoding.sample"),
    "tensor.gru_cells_per_sample": ("gru", "gru_weights", "decoding.sample"),
    "decoding.ensemble_ms": ("decoding.ensemble",),
    "corpus.encode_ms": ("corpus.encode",),
    "metrics.score_ms": ("metrics.score",),
    "synthetic.generate_ms": ("synthetic.generate", "corpus.prepare"),
    "corpus.prepare_ms": ("synthetic.generate", "corpus.prepare"),
    "params.load_ms": ("params.load",),
    **{f"{part}_ms": ("gru", "gru_weights") for part in GRU_PARTS.values()},
}
