"""Spans around the program's layer entry points, for the traced run.

:class:`Tracer` patches the names the program's callers look up (module
globals and class attributes) with wrappers that record a span — name,
start, end, parent — in memory, and restores the originals on exit. Each
wrapper also sets the Spark job group to ``<pass>:<span name>`` on entry
and back to its parent's on exit, so Spark jobs are counted per layer
through ``sparkContext.statusTracker()``.

Self time is a span's duration minus the durations of its direct children
(one driver thread issues every call, so children never overlap).
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.core.collection as collection
import repro.core.diffstream as diffstream
import repro.core.executor as executor
import repro.core.ordering as ordering
import repro.differential.scc as scc
from repro.core.collection import MaterializedCollection
from repro.core.splitting import AdaptiveSplitter
from repro.differential.engine import ViewEdges

#: Job group of Spark jobs that run while no pass is traced.
IDLE_GROUP = "viewbench:untraced"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    children_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records the spans of one traced pass."""

    def __init__(self, sc, pass_id: int) -> None:
        self.sc = sc
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.groups: set[str] = set()
        self.batches: list[dict] = []  # see _wrap_splitter
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- spans
    def _group(self, name: str) -> str:
        gid = f"{self.pass_id}:{name}"
        self.groups.add(gid)
        return gid

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        rec = Span(name, time.perf_counter(), parent)
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        self.sc.setJobGroup(self._group(name), name)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self.stack.pop()
            back = self.spans[parent].name if parent is not None else "-"
            self.sc.setJobGroup(self._group(back), back)
            if parent is not None:
                self.spans[parent].children_s += rec.end - rec.start

    def ancestors(self, i: int) -> list[str]:
        out = []
        p = self.spans[i].parent
        while p is not None:
            out.append(self.spans[p].name)
            p = self.spans[p].parent
        return out

    # -------------------------------------------------------- patching
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, out)
                return out

        self._patch(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        self.sc.setJobGroup(self._group("-"), "-")
        w = self._wrap
        w(collection, "parse", "gvdl.compile")
        w(collection, "to_spark_column", "gvdl.compile")
        w(collection, "materialize_collection", "ebm")
        w(collection, "from_edge_sets", "ebm")
        w(ordering, "hamming_matrix", "ordering.hamming")
        w(ordering, "christofides", "ordering.tsp")
        w(ordering, "two_opt", "ordering.tsp")
        w(diffstream, "diff_counts", "diffstream.counts")
        w(diffstream, "view_sizes", "diffstream.sizes")
        w(MaterializedCollection, "view_edges_pd", "collection.view_edges")
        w(MaterializedCollection, "delta_pd", "collection.delta", _rows)
        w(ViewEdges, "__init__", "engine.view_build")
        w(scc.SCC, "run", "scc")
        w(executor, "run_collection", "executor")
        for owner in (executor, scc):
            self._wrap_run_view(owner)
        self._wrap_splitter()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self.sc.setJobGroup(IDLE_GROUP, IDLE_GROUP)

    def _wrap_run_view(self, owner) -> None:
        orig = owner.run_view
        tracer = self

        def run_view(*args, **kwargs):
            mode = "engine.scratch" if kwargs.get("prev") is None else "engine.diff"
            with tracer.span(mode) as rec:
                res = orig(*args, **kwargs)
                rec.attrs = {
                    "iters": res.iters,
                    "affected": res.affected_total,
                    "changed": sum(res.extras.get("changed_per_iter", [])),
                    "rounds_local": res.extras.get("local_rounds", 0),
                    "rounds_spark": res.spark_jobs,
                    "history_bytes": sum(a.nbytes for a in res.history),
                }
                return res

        self._patch(owner, "run_view", run_view)

    def _wrap_splitter(self) -> None:
        """Record, per batch decided from both cost models, the chosen
        mode's predicted seconds and the seconds then observed."""
        cls = AdaptiveSplitter
        decide, obs_s, obs_d = cls.decide_batch, cls.observe_scratch, cls.observe_diff
        tracer = self

        def decide_batch(self, view_sizes, delta_sizes):
            with tracer.span("splitting"):
                choice = decide(self, view_sizes, delta_sizes)
                batch = None
                if self.scratch_model.n and self.diff_model.n:
                    model, xs = (
                        (self.diff_model, delta_sizes)
                        if choice == "diff"
                        else (self.scratch_model, view_sizes)
                    )
                    batch = {
                        "predicted": sum(model.predict(x) for x in xs),
                        "n": len(xs),
                        "observed": [],
                    }
                    tracer.batches.append(batch)
                self._traced_batch = batch
                return choice

        def observer(orig):
            def observe(self, size, seconds):
                with tracer.span("splitting"):
                    batch = getattr(self, "_traced_batch", None)
                    if batch is not None and len(batch["observed"]) < batch["n"]:
                        batch["observed"].append(seconds)
                    return orig(self, size, seconds)

            return observe

        self._patch(cls, "decide_batch", decide_batch)
        self._patch(cls, "observe_scratch", observer(obs_s))
        self._patch(cls, "observe_diff", observer(obs_d))

    # -------------------------------------------------------- summary
    def summary(self) -> dict:
        """Per-pass totals: self time and call count per span name, plus
        the run_view counters and SCC-scoped counts."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        executor_s = 0.0
        engine: dict[str, float] = defaultdict(float)
        history_bytes = 0
        delta_rows = 0
        scc_runs = scc_builds = 0
        for i, s in enumerate(self.spans):
            d = s.end - s.start
            self_s[s.name] += d - s.children_s
            calls[s.name] += 1
            if s.name == "executor":
                executor_s += d
            if s.name == "collection.delta":
                delta_rows += s.attrs.get("rows", 0)
            if s.name in ("engine.scratch", "engine.diff"):
                for k in ("iters", "affected", "changed", "rounds_local", "rounds_spark"):
                    engine[k] += s.attrs.get(k, 0)
                history_bytes = max(history_bytes, s.attrs.get("history_bytes", 0))
            if s.name in ("engine.scratch", "engine.diff", "engine.view_build"):
                if "scc" in self.ancestors(i):
                    if s.name == "engine.view_build":
                        scc_builds += 1
                    else:
                        scc_runs += 1
        errors = []
        for b in self.batches:
            obs = sum(b["observed"])
            if obs > 0:
                errors.append(abs(b["predicted"] - obs) / obs)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "executor_s": executor_s,
            "engine": dict(engine),
            "history_bytes": history_bytes,
            "delta_rows": delta_rows,
            "scc_run_view_calls": scc_runs,
            "scc_view_build_calls": scc_builds,
            "split_batches": len(self.batches),
            "split_errors": errors,
        }

    def spark_jobs(self) -> dict[str, int]:
        """Spark jobs per span name, from the status tracker."""
        tracker = self.sc.statusTracker()
        out: dict[str, int] = {}
        for gid in self.groups:
            name = gid.split(":", 1)[1]
            out[name] = out.get(name, 0) + len(tracker.getJobIdsForGroup(gid))
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def _rows(rec: Span, frame) -> None:
    rec.attrs = {"rows": len(frame)}
