"""In-memory spans around the calls into each segopt layer.

The tracer replaces public functions and methods in the ``segopt.*``
namespaces where other code looks them up, so nothing under ``src/``
changes.  Each wrapped call records a span (name, start, end, parent,
run id) in flat arrays; counters are taken at the same boundaries.
Self time is computed once, after the run: a span's duration minus the
durations of its direct children.  Spans nest strictly because the
program is single-threaded.

A wrapped call whose innermost open span has the same name is folded
into that span (Lookahead.step calling the inner optimizer's step counts
as one optimizer step, not two).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "synthdata", "model", "losses", "numerics", "optim", "dro",
          "metrics", "gradcheck")

SPANS = (
    "cli.main",
    "model.train", "model.backward", "model.forward", "model.save_model",
    "model.load_model",
    "losses.ce", "losses.dice", "losses.gwdl", "losses.dice_ce", "losses.gwdl_ce",
    "numerics.softmax", "numerics.require_finite",
    "optim.step",
    "dro.sample_batch", "dro.update_loss",
    "metrics.evaluate_case", "metrics.hd95", "metrics.boundary_mask", "metrics.edt",
    "metrics.ensemble_mean_softmax", "metrics.postprocess_et",
    "synthdata.generate", "synthdata.load",
    "gradcheck.run_gradcheck", "gradcheck.fd_prob_gradient",
    "gradcheck.fd_param_gradient",
)

# Reported as they are; "dro.visited" and "dro.cases" are also counted, and
# reported only as their ratio, the share of cases a DRO run ever drew.
COUNTERS = (
    "model.backward.voxels", "model.forward.voxels", "numerics.require_finite.bytes",
    "metrics.hd95.undefined", "metrics.postprocess_et.relabels",
    "synthdata.generate.bytes", "synthdata.load.bytes", "gradcheck.loss_evals",
)

# Bytes a case occupies on disk: float32 features plus one uint8 label per voxel.
_F32, _U8 = 4, 1


def _case_file_bytes(num_voxels: int, feature_width: int) -> int:
    return num_voxels * (feature_width * _F32 + _U8)


class Tracer:
    """Span and counter store for one process; install() patches segopt."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = 0
        # run id -> counter name -> value
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        nid = self._intern(name)
        if stack and self.name_id[stack[-1]] == nid:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr with a traced wrapper.

        ``name`` is a span name or a function of the call's ``(args,
        kwargs)``; ``count(args, result)`` updates counters after the span
        has closed, so its cost lands in no layer's self time.
        """
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(where)
            return
        tracer = self
        naming = name if callable(name) else (lambda args, kwargs, _n=name: _n)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(naming(args, kwargs), fn, args, kwargs)
            if count is not None:
                count(args, out)
            return out

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        seg = {m: importlib.import_module(f"segopt.{m}") for m in LAYERS}
        ndimage = importlib.import_module("scipy.ndimage")
        p = self._patch

        def add(key, amount):
            self.counters[self.run_id][key] += amount

        def loss_name(args, kwargs):
            return "losses." + str(args[0] if args else kwargs["kind"])

        def trained(args, out):
            sampler = getattr(out, "sampler", None)
            if sampler is not None:
                add("dro.visited", int(sampler.initialized.sum()))
                add("dro.cases", sampler.n)

        def generated(args, out):
            add("synthdata.generate.bytes", sum(
                _case_file_bytes(math.prod(e.grid), out.feature_width) for e in out.cases))

        def loaded(args, out):
            add("synthdata.load.bytes", sum(
                _case_file_bytes(*case.features.shape) for case in out))

        p(seg["cli"], "main", "cli.main")
        p(seg["cli"], "train", "model.train", trained)
        p(seg["cli"], "save_model", "model.save_model")
        p(seg["cli"], "load_model", "model.load_model")
        p(seg["cli"], "evaluate_case", "metrics.evaluate_case")
        p(seg["cli"], "ensemble_mean_softmax", "metrics.ensemble_mean_softmax")
        p(seg["cli"], "postprocess_et", "metrics.postprocess_et",
          lambda args, out: add("metrics.postprocess_et.relabels", out is not args[0]))
        p(seg["cli"], "generate", "synthdata.generate", generated)
        p(seg["cli"], "load", "synthdata.load", loaded)
        p(seg["synthdata"], "load", "synthdata.load", loaded)
        p(seg["cli"], "run_gradcheck", "gradcheck.run_gradcheck")

        p(seg["model"].Model, "forward", "model.forward",
          lambda args, out: add("model.forward.voxels", len(args[1])))
        p(seg["model"].Model, "backward", "model.backward",
          lambda args, out: add("model.backward.voxels", len(args[1])))
        p(seg["model"], "composite_loss", loss_name)
        p(seg["gradcheck"], "composite_loss", loss_name,
          lambda args, out: add("gradcheck.loss_evals", 1))

        for mod in ("model", "dro"):
            p(seg[mod], "softmax", "numerics.softmax")
        for mod in ("numerics", "losses", "synthdata", "model"):
            p(seg[mod], "require_finite", "numerics.require_finite",
              lambda args, out: add("numerics.require_finite.bytes",
                                    getattr(args[0], "nbytes", 0)))

        p(seg["optim"]._OptimizerBase, "step", "optim.step")
        p(seg["optim"].Lookahead, "step", "optim.step")
        p(seg["dro"].HardnessWeightedSampler, "sample_batch", "dro.sample_batch")
        p(seg["dro"].HardnessWeightedSampler, "update_loss", "dro.update_loss")

        p(seg["metrics"], "hd95", "metrics.hd95",
          lambda args, out: add("metrics.hd95.undefined", out is None))
        p(seg["metrics"], "boundary_mask", "metrics.boundary_mask")
        # hd95 reaches the EDT through the scipy.ndimage module object, whether
        # it imports the module at the top of segopt.metrics or inside hd95.
        p(ndimage, "distance_transform_edt", "metrics.edt")

        p(seg["gradcheck"], "fd_prob_gradient", "gradcheck.fd_prob_gradient")
        p(seg["gradcheck"], "fd_param_gradient", "gradcheck.fd_param_gradient")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------

    def totals(self, run_ids) -> dict:
        """Per-name "calls" and "self_s", and the "counters", over the given runs."""
        run_ids = set(run_ids)
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child_time[par] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            if self.run[i] in run_ids:
                name = self.names[self.name_id[i]]
                calls[name] += 1
                self_s[name] += self.end[i] - self.start[i] - child_time[i]
        counters: dict[str, float] = defaultdict(float)
        for run in run_ids:
            for key, value in self.counters.get(run, {}).items():
                counters[key] += value
        return {"calls": calls, "self_s": self_s, "counters": counters}

    def write(self, path: str) -> None:
        """All spans as CSV: name, start, end, parent index, run id."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("index,name,start,end,parent,run\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.run[i]}\n")
        os.replace(tmp, path)

