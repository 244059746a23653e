"""The three benchmark workloads: sizes, set-up, body, reports and quality.

Each workload is a closed-loop batch job in one fresh process per
iteration: no arrival rate, no queue. An iteration runs the job once on
each of ``sweep`` seeds derived from the run's seed, in turn, each seed
writing into its own directory. One job on one seed takes a few seconds,
and the spoof grid's work depends on the seed (restarts, plateau stops),
so a sweep averages that out; quality numbers are medians over the sweep.
``setup`` brings the process from a fresh interpreter to inputs ready;
``body`` is the timed work. Why each workload is here is in README.md.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import re
import statistics
from typing import Dict, List

import checks as chk

KNN_METRICS = ("learners.knn.predict_s", "learners.knn.calls",
               "learners.knn.query_rows", "learners.knn.distance_pairs")
_COMMON_NONZERO = (
    "learners.net.forward_s", "learners.net.forward_calls", "learners.net.rows_per_forward",
    "learners.net.backward_s", "learners.net.backward_calls",
    "blackbox.collect_s", "blackbox.collect_calls", "blackbox.queries",
    "substitute.train_s", "substitute.epochs_run",
    "camouflage.train_s", "camouflage.trainings", "camouflage.epochs_run",
    "camouflage.epochs_budget", "camouflage.epoch_use",
    "camouflage.eval_s", "camouflage.eval_calls", "camouflage.eval_rows",
    "harness.synth.generate_s", "harness.csvio.write_s", "harness.csvio.bytes_written",
)


def _column(path: str, col: str) -> List[float]:
    with open(path, encoding="utf-8") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [float(r[col]) for r in rows]


class Workload:
    """A job run once per seed of a sweep; subclasses define one job."""

    files: tuple = ()

    def __init__(self, name: str, sizes: dict, sweep: int, nonzero: tuple, zero: tuple):
        self.name = name
        self.sizes = sizes
        self.sweep = sweep
        self.nonzero = nonzero  # layer metrics predicted nonzero on this workload
        self.zero = zero  # layer metrics predicted exactly 0

    def seeds(self, seed: int) -> List[int]:
        """Disjoint for distinct run seeds."""
        return [seed * self.sweep + j for j in range(self.sweep)]

    def seed_dir(self, state, seed: int) -> str:
        return os.path.join(state["dir"], f"seed{seed}")

    def reports(self, state) -> List[str]:
        return [os.path.join(f"seed{s}", f) for s in state["seeds"] for f in self.files]

    def quality(self, state) -> Dict[str, float]:
        """Per-seed quality, then the median over the sweep (the mean for ``*_mean``)."""
        per_seed = [self.seed_quality(state, s) for s in state["seeds"]]
        return {key: (statistics.fmean if key.endswith("_mean") else statistics.median)(
                    [q[key] for q in per_seed]) for key in per_seed[0]}


class ExperimentWorkload(Workload):
    """``run_experiment``; set-up is the pipeline's generate stage."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.files = ("table1.csv", "fig3.csv", "table2.csv") + (
            ("table3.csv",) if self.sizes.get("spoof_grid", True) else ())

    def setup(self, seed: int, out_dir: str, tracer):
        from flowcamo.core import split_dataset
        from flowcamo.harness import synth
        from flowcamo.harness.experiment import ExperimentConfig

        state = {"dir": out_dir, "seeds": self.seeds(seed), "checks": [], "runs": [],
                 "cfgs": []}
        for s in state["seeds"]:
            cfg = ExperimentConfig(seed=s, out_dir=self.seed_dir(state, s), **self.sizes)
            schema = synth.attacker_pool_schema(cfg.n_decoys)
            profiles = synth.default_profiles(schema, cfg.n_classes, cfg.separability)
            ds = synth.generate_dataset(profiles, cfg.rows_per_class, cfg.seed, schema)
            split_dataset(ds, cfg.train_fraction, cfg.seed)
            state["cfgs"].append(cfg)
        state["spoof_accept"] = state["cfgs"][0].spoof_accept
        return state

    def body(self, state, tracer) -> List[chk.Check]:
        from flowcamo.harness.experiment import run_experiment

        for cfg in state["cfgs"]:
            first = len(tracer.generators)
            results = run_experiment(cfg)
            state["runs"].append((cfg.seed, results["test_pool"].X, tracer.generators[first:]))
        return [("completed", True, "")]

    def generator_checks(self, state, tracer) -> List[chk.Check]:
        return [c for seed, X, gens in state["runs"]
                for c in chk.generator_checks(gens, X, seed)]

    def seed_quality(self, state, seed: int) -> Dict[str, float]:
        d = self.seed_dir(state, seed)
        q = {
            "ident_rate_min": min(_column(os.path.join(d, "table1.csv"), "target_test")),
            "agreement_min": min(_column(os.path.join(d, "table1.csv"), "oracle_agreement")),
            "evasion_min": min(_column(os.path.join(d, "table2.csv"), "victim_evasion")),
        }
        if "table3.csv" in self.files:
            rates = _column(os.path.join(d, "table3.csv"), "spoofing_rate")
            q["spoof_rate_mean"] = statistics.fmean(rates)
            q["spoof_rate_min"] = min(rates)
        return q


class CliWorkload(Workload):
    """The documented CLI chain, in process; set-up is ``gen-data``."""

    STEPS = ("ingest", "train-target", "train-substitute", "scan-features",
             "attack", "defend")
    # scan.csv is left out: its overhead_s column is wall-clock time.
    files = ("data.csv", "attack.csv", "defend.csv")

    def _argv(self, step: str, seed: int, d: str) -> List[str]:
        p = {k: os.path.join(d, k + ext) for k, ext in (
            ("data", ".csv"), ("target", ".npz"), ("sub", ".npz"), ("gen", ".npz"),
            ("scan", ".csv"), ("attack", ".csv"), ("defend", ".csv"))}
        s = ["--seed", str(seed)]
        return {
            "gen-data": ["gen-data", "--rows-per-class", str(self.sizes["rows_per_class"]),
                         "--out", p["data"], *s],
            "ingest": ["ingest", p["data"]],
            "train-target": ["train-target", "--data", p["data"], "--kind", "random_forest",
                             "--out", p["target"], *s],
            "train-substitute": ["train-substitute", "--data", p["data"], "--target",
                                 p["target"], "--out", p["sub"], *s],
            "scan-features": ["scan-features", "--data", p["data"], "--target", p["target"],
                              "--sub", p["sub"], "--L", "2,4,8,16,28", "--epochs", "10",
                              "--out", p["scan"], *s],
            "attack": ["attack", "--data", p["data"], "--target", p["target"], "--sub",
                       p["sub"], "--out", p["attack"], "--save-generator", p["gen"], *s],
            "defend": ["defend", "--generator", p["gen"], "--data", p["data"],
                       "--out", p["defend"], *s],
        }[step]

    def _main(self, step: str, seed: int, state, tracer) -> chk.Check:
        from flowcamo.harness.cli import main

        argv = self._argv(step, seed, self.seed_dir(state, seed))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if tracer.timed:
                code = tracer.span(f"harness.cli.{step}", main, argv)
            else:
                code = main(argv)
        state["stdout"][(seed, step)] = out.getvalue()
        return (f"exit_code.{step}", code == 0, "" if code == 0 else f"seed {seed}: exit {code}")

    def setup(self, seed: int, out_dir: str, tracer):
        state = {"dir": out_dir, "seeds": self.seeds(seed), "stdout": {}, "gens": {},
                 "spoof_accept": None}
        for s in state["seeds"]:
            os.makedirs(self.seed_dir(state, s))
        state["checks"] = [self._main("gen-data", s, state, tracer) for s in state["seeds"]]
        return state

    def body(self, state, tracer) -> List[chk.Check]:
        out = []
        for s in state["seeds"]:
            first = len(tracer.generators)
            out += [self._main(step, s, state, tracer) for step in self.STEPS]
            state["gens"][s] = tracer.generators[first:]
            defend = os.path.join(self.seed_dir(state, s), "defend.csv")
            if os.path.exists(defend):
                out.append(chk.stream_hash_check(defend))
        return out

    def generator_checks(self, state, tracer) -> List[chk.Check]:
        from flowcamo.core import split_dataset
        from flowcamo.harness import synth
        from flowcamo.harness.csvio import ingest_csv

        out = []
        for s in state["seeds"]:
            ds = ingest_csv(os.path.join(self.seed_dir(state, s), "data.csv"),
                            synth.attacker_pool_schema())
            test = split_dataset(ds, 0.8, s)[1]  # the split cmd_attack evaluates on
            out += chk.generator_checks(state["gens"][s], test.X, s)
        return out

    def seed_quality(self, state, seed: int) -> Dict[str, float]:
        d, printed = self.seed_dir(state, seed), state["stdout"]
        return {
            "ident_rate_min": float(re.search(r"test identification rate ([0-9.]+)",
                                              printed[(seed, "train-target")]).group(1)),
            "agreement_min": float(re.search(r"oracle agreement ([0-9.]+)",
                                             printed[(seed, "train-substitute")]).group(1)),
            "evasion_min": min(_column(os.path.join(d, "attack.csv"), "success_rate")),
            "defense_rate_min": min(_column(os.path.join(d, "defend.csv"), "under_attack_rate")),
        }


def _workloads():
    cli_nonzero = ("learners.fit_s.random_forest", "learners.io.save_s", "learners.io.load_s",
                   "substitute.weights_s", "substitute.scan_s",
                   "profiler.signature_s", "profiler.signatures", "profiler.fit_s",
                   "profiler.defense_s", "profiler.identify_rows",
                   "harness.csvio.ingest_s", "harness.csvio.ingest_rows",
                   *(f"harness.cli.{s}_s" for s in ("gen-data", *CliWorkload.STEPS)))
    return {
        "extract-knn": ExperimentWorkload(
            "extract-knn",
            {"target_kinds": ("knn",), "rows_per_class": 80,
             "spoof_grid": False, "run_defense": False},
            sweep=4,
            nonzero=(*KNN_METRICS, "learners.fit_s.knn", *_COMMON_NONZERO),
            zero=()),
        "spoof-grid": ExperimentWorkload(
            "spoof-grid",
            {"target_kinds": ("neural_net",), "n_classes": 8, "rows_per_class": 150,
             "run_defense": False},
            sweep=6,
            nonzero=("learners.fit_s.neural_net", "camouflage.spoof_cells",
                     "camouflage.spoof_trainings", *_COMMON_NONZERO),
            zero=KNN_METRICS),
        "cli-chain": CliWorkload(
            "cli-chain", {"rows_per_class": 100},
            sweep=3,
            nonzero=(*cli_nonzero, *_COMMON_NONZERO),
            zero=KNN_METRICS),
    }


WORKLOADS = _workloads()
