"""Spans around the calls into each flowcamo layer, kept in memory.

The benchmark installs wrappers where the program looks names up: module
globals of ``flowcamo.harness.experiment``, ``flowcamo.harness.cli`` and
``flowcamo.profiler``, the ``synth`` module attribute, and a few methods
on classes. Nothing under ``src/`` changes. A span records
``(name, start, end, parent)``; a layer's self time is its span duration
minus the durations of its direct child spans (calls are single-threaded
and strictly nested, so children never overlap).
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, List


class Tracer:
    """Spans, counters and captured objects of one workload iteration.

    With ``timed=False`` no span is recorded: only the trained generators
    and the oracles are captured, which the correctness checks need.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.active = timed  # cleared after the body, so checks add no spans
        self.spans: List[tuple] = []  # (name, start, end, parent index or -1)
        self.counts: Dict[str, float] = defaultdict(float)
        self.generators: list = []
        self.oracles: list = []
        self.cells: List[List[float]] = []  # oracle-checked rate of each spoof trial
        self._trials: List[float] = []
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx] = (name, self.spans[idx][1], time.perf_counter(), parent)

    def self_times(self) -> Dict[str, List[float]]:
        """``{span name: [self seconds, calls, inclusive seconds]}``."""
        child_total = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        table: Dict[str, List[float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = table.setdefault(name, [0.0, 0, 0.0])
            row[0] += (end - start) - child_total[i]
            row[1] += 1
            row[2] += end - start
        return table

    def install(self) -> None:
        """Wrap the layer entry points of the imported flowcamo package."""
        from flowcamo import blackbox, profiler
        from flowcamo.harness import cli, experiment, synth
        from flowcamo.learners import KnnClassifier, Net

        def capture(store, fn, arg=False):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                store.append(args[0] if arg else out)
                return out
            return wrapper

        for mod in (experiment, cli):
            mod.train_generator = capture(self.generators, mod.train_generator, arg=True)
            mod.make_oracle = capture(self.oracles, mod.make_oracle)
        if not self.timed:
            return

        counts = self.counts

        def traced(name, fn, count=None):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                out = self.span(name, fn, *args, **kwargs)
                if count is not None:
                    count(out, *args, **kwargs)
                return out
            return wrapper

        def patch(owners, attr, name, count=None):
            for owner in owners:
                setattr(owner, attr, traced(name, getattr(owner, attr), count))

        both = (experiment, cli)

        # --- learners -------------------------------------------------------
        def count_knn(_out, model, X):
            counts["learners.knn.calls"] += 1
            counts["learners.knn.query_rows"] += X.shape[0]
            counts["learners.knn.distance_pairs"] += X.shape[0] * model.train_X.shape[0]

        def count_forward(_out, _net, X, want_cache=False):
            counts["learners.net.forward_calls"] += 1
            counts["learners.net.forward_rows"] += X.shape[0] if X.ndim > 1 else 1

        def count_backward(_out, _net, _cache, _d):
            counts["learners.net.backward_calls"] += 1

        patch([KnnClassifier], "predict_scores", "learners.knn.predict", count_knn)
        patch([Net], "forward_logits", "learners.net.forward", count_forward)
        patch([Net], "backward", "learners.net.backward", count_backward)

        def traced_fit(fn):
            def wrapper(kind, *args, **kwargs):
                if not self.active:
                    return fn(kind, *args, **kwargs)
                return self.span(f"learners.fit.{kind}", fn, kind, *args, **kwargs)
            return wrapper

        for mod in both:
            mod.fit = traced_fit(mod.fit)
        for attr in ("save_model", "save_substitute", "save_generator"):
            patch([cli], attr, "learners.io.save")
        for attr in ("load_model", "load_substitute", "load_generator"):
            patch([cli], attr, "learners.io.load")

        # --- blackbox -------------------------------------------------------
        def count_collect(*_args):
            counts["blackbox.collect_calls"] += 1

        patch([blackbox.Oracle], "collect", "blackbox.collect", count_collect)

        # --- substitute -----------------------------------------------------
        def count_substitute(sub, *_args, **_kwargs):
            counts["substitute.epochs_run"] += len(sub.training_curve)

        patch(both, "train_substitute", "substitute.train", count_substitute)
        patch(both, "feature_weights", "substitute.weights")
        patch(both, "performance_gain_scan", "substitute.scan")

        # --- camouflage -----------------------------------------------------
        def count_train(g, _g, _sub, _train, mode, epochs, *_args, **_kwargs):
            counts["camouflage.trainings"] += 1
            counts["camouflage.epochs_run"] += len(g.training_curve) - 1
            counts["camouflage.epochs_budget"] += epochs
            if mode.mode == "spoof":
                counts["camouflage.spoof_trainings"] += 1

        def count_eval(rep, _g, victim, test, mode, *_args, **_kwargs):
            counts["camouflage.eval_calls"] += 1
            counts["camouflage.eval_rows"] += len(test)
            if mode.mode != "spoof":
                return
            # The spoof grid checks each trial against the oracle and ends
            # a (kind, pair) cell with one evaluation on the true target.
            if isinstance(victim, blackbox.Oracle):
                self._trials.append(rep.attacked_rate)
            else:
                self.cells.append(self._trials)
                self._trials = []

        patch(both, "train_generator", "camouflage.train", count_train)
        patch(both, "evaluate_attack", "camouflage.eval", count_eval)

        # --- profiler -------------------------------------------------------
        def count_signatures(out, *_args, **_kwargs):
            counts["profiler.signatures"] += out[0].shape[0]

        def count_identify(_out, _clf, P, _Csi):
            counts["profiler.identify_rows"] += P.shape[0] if P.ndim > 1 else 1

        # evaluate_defense synthesises most signatures itself, so the
        # profiler module's own global is wrapped too.
        patch([experiment, cli, profiler], "signature_batch", "profiler.signature",
              count_signatures)
        patch(both, "fit_profiler", "profiler.fit")
        patch(both, "evaluate_defense", "profiler.defense")
        patch([profiler.MultiStageClassifier], "identify_batch", "profiler.identify",
              count_identify)

        # --- harness --------------------------------------------------------
        def count_ingest(ds, *_args, **_kwargs):
            counts["harness.csvio.ingest_rows"] += len(ds)

        def count_write(_out, path, *_args, **_kwargs):
            counts["harness.csvio.bytes_written"] += os.path.getsize(path)

        def count_dataset_write(_out, _ds, path, *_args, **_kwargs):
            counts["harness.csvio.bytes_written"] += os.path.getsize(path)

        patch([synth], "generate_dataset", "harness.synth.generate")
        patch([cli], "ingest_csv", "harness.csvio.ingest", count_ingest)
        patch([cli], "dataset_to_csv", "harness.csvio.write", count_dataset_write)
        patch([cli], "atomic_write_text", "harness.csvio.write", count_write)
        patch(both, "write_report_csv", "harness.csvio.write", count_write)
