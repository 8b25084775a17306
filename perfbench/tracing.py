"""Traced run: spans around the public calls of each flowstate module.

The tracer replaces module and class attributes with wrappers that record
a span (name, start, end, parent, a few call facts) per call, keeps the
spans in memory, and restores every attribute on uninstall.  Per-layer
metrics are computed from the spans after the pipeline ends.
"""

from __future__ import annotations

import contextlib
import time

import flowstate.checkpoint
import flowstate.cli
import flowstate.dynamics
import flowstate.training
import flowstate.training.loop
from flowstate.diffcore import Tape
from flowstate.encoders import MlpEncoder, SsmEncoder, TransformerEncoder
from flowstate.flow import FlowModel
from flowstate.inference import Predictor

from speed import summarize


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "kids")

    def __init__(self, name, start, parent, info):
        self.name, self.start, self.end, self.parent, self.info = name, start, None, parent, info
        self.kids: list[Span] = []

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _rows(x) -> int:
    return int(x.shape[0])


# (owner, attribute, span name, call facts from (args, kwargs)); args include self.
_TARGETS = [
    (flowstate.dynamics, "vehicle_simulate", "dynamics.simulate", None),
    (flowstate.dynamics, "sir_ensemble", "dynamics.simulate", None),
    (flowstate.dynamics, "write_dataset", "dynamics.dataset_io", None),
    (flowstate.dynamics, "read_dataset", "dynamics.dataset_io", None),
    (flowstate.cli, "read_dataset", "dynamics.dataset_io", None),
    (flowstate.dynamics, "make_windows", "dynamics.windows", None),
    (MlpEncoder, "embed", "encoders.embed", lambda a, k: {"batch": _rows(a[1])}),
    (TransformerEncoder, "embed", "encoders.embed", lambda a, k: {"batch": _rows(a[1])}),
    (SsmEncoder, "embed", "encoders.embed", lambda a, k: {"batch": _rows(a[1])}),
    (FlowModel, "log_prob", "flow.log_prob", lambda a, k: {"batch": _rows(a[1])}),
    (FlowModel, "inverse_map", "flow.inverse_map", lambda a, k: {"batch": _rows(a[1])}),
    (FlowModel, "sample", "flow.sample", lambda a, k: {"batch": int(a[1])}),
    (FlowModel, "confidence_contours", "flow.contours", None),
    (flowstate.training, "train", "training.train", None),
    (flowstate.training.loop, "total_loss", "training.total_loss", None),
    (flowstate.training.loop, "backward", "training.backward", None),
    (flowstate.training.loop, "adam_step", "training.adam", None),
    (flowstate.training.loop, "checkpoint_dict", "checkpoint.dict", None),
    (Predictor, "estimate_state", "inference.estimate", None),
    (Predictor, "rollout", "inference.rollout", lambda a, k: {"steps": a[2].n_steps}),
    (Predictor, "from_checkpoint", "checkpoint.load", None),
    (flowstate.cli, "kl_knn", "inference.metric", None),
    (flowstate.cli, "per_dimension_nll", "inference.metric", None),
    (flowstate.checkpoint, "save_checkpoint", "checkpoint.save", None),
    (flowstate.cli, "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._tape = None

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, info: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, info or {})
        if parent >= 0:
            self.spans[parent].kids.append(span)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, i: int) -> None:
        span = self.spans[i]
        span.end = time.perf_counter()
        if self._tape is not None:
            span.info["tape_ops"] = self._tape.n_ops
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **info):
        i = self.begin(name, info)
        try:
            yield
        finally:
            self.end(i)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, facts):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.begin(name, facts(args, kwargs) if facts else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name, facts in _TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name, facts)))
            else:
                self._patch(owner, attr, self._wrap(raw, name, facts))
        enter, exit_ = Tape.__enter__, Tape.__exit__
        tracer = self

        def tape_enter(tape):
            out = enter(tape)
            tracer._tape = tape
            tracer.begin("diffcore.tape")
            return out

        def tape_exit(tape, *exc):
            tracer.spans[tracer._stack[-1]].info["ops"] = tape.n_ops
            tracer.end(tracer._stack[-1])
            tracer._tape = None
            return exit_(tape, *exc)

        self._patch(Tape, "__enter__", tape_enter)
        self._patch(Tape, "__exit__", tape_exit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- queries -------------------------------------------------------------

    def within(self, name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` with an enclosing span called ``ancestor``."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p >= 0:
                out.append(s)
        return out

    @staticmethod
    def children(span: Span, name: str) -> list[Span]:
        return [s for s in span.kids if s.name == name]


# -- per-layer metrics -------------------------------------------------------


def _between(spans: list[Span], lo: float, hi: float) -> list[Span]:
    return [s for s in spans if lo <= s.start and s.end <= hi]


def layer_metrics(tracer: Tracer, workload, extras: dict) -> dict[str, dict]:
    """Per-layer metrics by name: {value, unit, count[, pXX]} each."""
    t = tracer
    out: dict[str, dict] = {}

    def put(name, unit, values):
        if values:
            out[name] = {**summarize(values), "unit": unit}

    def total_s(name):
        return [sum(s.ms for s in t.within(name, "bench.setup")) / 1e3]

    put("dynamics.simulate_s", "s", total_s("dynamics.simulate"))
    put("dynamics.dataset_io_s", "s", total_s("dynamics.dataset_io"))
    put("dynamics.windows_s", "s", total_s("dynamics.windows"))

    # Training, step by step.  Within a train call a step runs from its
    # tape's start to the next tape's start (the last one to the checkpoint
    # build); it holds one total_loss and one backward inside its tape, then
    # one Adam step.
    loss_self, loop_self, loss_terms, backs, adams, tape_ops = [], [], [], [], [], []
    for call in t.within("training.train", "bench.train"):
        tapes = t.children(call, "diffcore.tape")
        (ckpt,) = t.children(call, "checkpoint.dict")
        ends = [s.start for s in tapes[1:]] + [ckpt.start]
        for tape, adam, end in zip(tapes, t.children(call, "training.adam"), ends, strict=True):
            (loss,) = t.children(tape, "training.total_loss")
            (back,) = t.children(tape, "training.backward")
            inner = t.children(loss, "encoders.embed") + t.children(loss, "flow.log_prob")
            loss_self.append(loss.ms - sum(s.ms for s in inner))
            loop_self.append((end - tape.start) * 1e3 - loss.ms - back.ms - adam.ms)
            lp = t.children(loss, "flow.log_prob")[-1]
            loss_terms.append(loss.info["tape_ops"] - lp.info["tape_ops"])
            backs.append(back.ms)
            adams.append(adam.ms)
            tape_ops.append(tape.info["ops"])
    put("encoders.embed_train_ms", "ms", [s.ms for s in t.within("encoders.embed", "training.train")])
    if "embed_train_peak_mb" in extras:
        out["encoders.embed_train_peak_mb"] = {"value": extras["embed_train_peak_mb"], "count": 1, "unit": "MB"}
    timed = ("bench.estimate", "bench.rollout", "bench.evaluate")
    single = [s.ms for ph in timed for s in t.within("encoders.embed", ph) if s.info["batch"] == 1]
    put("encoders.embed_single_ms", "ms", single)
    put("flow.log_prob_train_ms", "ms", [s.ms for s in t.within("flow.log_prob", "training.train")])

    samples = [s for ph in timed for s in t.within("flow.sample", ph)]
    put("flow.inverse_ms_per_1k", "ms", [
        c.ms * 1e3 / c.info["batch"] for s in samples for c in t.children(s, "flow.inverse_map")])
    put("flow.sample_forward_ms_per_1k", "ms", [
        c.ms * 1e3 / c.info["batch"] for s in samples for c in t.children(s, "flow.log_prob")])
    put("flow.contours_ms", "ms", [s.ms for s in t.within("flow.contours", "bench.estimate")])

    put("training.loss_self_ms", "ms", loss_self)
    put("training.backward_ms", "ms", backs)
    put("training.adam_ms", "ms", adams)
    put("training.loop_self_ms", "ms", loop_self)
    put("diffcore.tape_ops_per_step", "ops", tape_ops)
    put("diffcore.tape_ops_loss_terms", "ops", loss_terms)

    # evaluate calls estimate_state at the workload's eval_samples (1000).
    put("inference.estimate_call_ms", "ms", [s.ms for s in t.within("inference.estimate", "bench.evaluate")])
    put("inference.rollout_step_ms", "ms", [
        s.ms / s.info["steps"] for s in t.within("inference.rollout", "bench.rollout")])
    # Evaluate: a location runs from its estimate_state call to the next one
    # (the last to the end of the call).  Self time is the call's wall minus
    # dataset read, checkpoint load, estimate_state and the metric.
    per_loc, self_ms = [], []
    for call in t.within("cli.main", "bench.evaluate"):
        ests = t.children(call, "inference.estimate")
        metric = t.children(call, "inference.metric")
        ends = [s.start for s in ests[1:]] + [call.end]
        per_loc += [sum(m.ms for m in _between(metric, e.start, hi)) for e, hi in zip(ests, ends)]
        inner = t.children(call, "dynamics.dataset_io") + t.children(call, "checkpoint.load") + ests + metric
        self_ms.append((call.ms - sum(s.ms for s in inner)) / len(ests))
    put("inference.metric_ms", "ms", per_loc)
    put("inference.kl_knn_ms" if workload.eval_metric == "kl" else "inference.kde_nll_ms", "ms", per_loc)
    put("cli.evaluate_self_ms", "ms", self_ms)

    put("checkpoint.save_ms", "ms", [s.ms for s in t.spans if s.name == "checkpoint.save"])
    put("checkpoint.load_ms", "ms", [s.ms for s in t.spans if s.name == "checkpoint.load"])
    out["checkpoint.bytes"] = {"value": extras["checkpoint_bytes"], "count": 1, "unit": "bytes"}
    return out
