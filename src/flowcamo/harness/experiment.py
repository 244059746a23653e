"""Experiment orchestration: config, staged pipeline, report emission."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from ..blackbox import make_oracle
from ..camouflage import (
    MISIDENTIFY_LR,
    build_generator,
    evaluate_attack,
    misidentify,
    spoof,
    train_generator,
)
from ..core import (
    Dataset,
    DeviceClass,
    UnreachableTargetError,
    ValidationError,
    identification_rate,
    split_dataset,
)
from ..learners import KINDS, fit
from ..profiler import (
    TRAIN_PER_DEVICE,
    evaluate_defense,
    fit_profiler,
    make_identities,
    signature_batch,
)
from ..substitute import (
    feature_weights,
    performance_gain_scan,
    scan_to_csv_rows,
    select_subset,
    train_substitute,
)
from . import synth
from .csvio import atomic_write_text, write_report_csv


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _typed(key: str, value, tp):
    """``value`` checked as config field ``key`` of type ``tp``.

    A bool is not an int, and a tuple field takes a list of its item type.
    """
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        if not isinstance(value, (list, tuple)):
            raise ValidationError(
                f"config key {key!r} needs a list of {item.__name__}, got {value!r}")
        return tuple(_typed(key, v, item) for v in value)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, tp):
        raise ValidationError(f"config key {key!r} needs {tp.__name__}, got {value!r}")
    return value


# (fields, test, what the test asks) for every config value.
_VALUE_RULES = (
    (("n_classes", "rows_per_class"), lambda v: v >= 2, ">= 2"),
    (("seed",), lambda v: v >= 0, ">= 0"),
    (("substitute_epochs", "generator_epochs"), lambda v: v >= 1, ">= 1"),
    (("target_kinds",), lambda v: 0 < len(v) == len(set(v)) and set(v) <= set(KINDS),
     f"a non-empty list of distinct kinds from {list(KINDS)}"),
)


@dataclass
class ExperimentConfig:
    seed: int = 42
    n_classes: int = 28
    rows_per_class: int = 500
    target_kinds: Tuple[str, ...] = KINDS
    substitute_epochs: int = 60
    generator_epochs: int = 60
    spoof_grid: bool = True
    run_scan: bool = False
    run_defense: bool = True
    out_dir: str = "out"

    # The experiment's fixed shape. Unannotated, so they are not fields:
    # no config sets them and they are not part of the hash.
    separability = 1.0
    n_decoys = synth.N_DECOYS
    train_fraction = 0.8
    spoof_accept = 0.85

    def __post_init__(self):
        """ValidationError naming the first field whose value no run can use."""
        for keys, ok, need in _VALUE_RULES:
            for key in keys:
                value = getattr(self, key)
                if not ok(value):
                    raise ValidationError(f"config key {key!r} must be {need}, got {value!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        types = get_type_hints(cls)
        unknown = set(d) - set(types)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: _typed(k, v, types[k]) for k, v in d.items()})

    @classmethod
    def from_file(cls, path: str, overrides: Optional[dict] = None) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValidationError(f"{path}: config must be a JSON object, got {type(d).__name__}")
        d.update(overrides or {})
        return cls.from_dict(d)

    def config_hash(self) -> str:
        d = self.to_dict()
        # Where the reports land does not affect what they contain; leaving
        # the output directory out keeps reruns byte-identical anywhere.
        d.pop("out_dir")
        canon = json.dumps(d, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _rate(model, ds: Dataset) -> float:
    return identification_rate(ds.y, model.predict_ids(ds.X))


# ---- stages ------------------------------------------------------------------
# Each stage reads what earlier stages left in ``results`` and adds its own
# entries; ``out(name, header, rows, extra_meta)`` writes one report CSV.


def _generate(cfg: ExperimentConfig, results: dict, out) -> None:
    pool_schema = synth.attacker_pool_schema(cfg.n_decoys)
    tgt_schema = synth.target_schema()
    profiles = synth.default_profiles(pool_schema, cfg.n_classes, cfg.separability)
    ds_pool = synth.generate_dataset(profiles, cfg.rows_per_class, cfg.seed, pool_schema)
    train_pool, test_pool = split_dataset(ds_pool, cfg.train_fraction, cfg.seed)
    results["profiles"] = profiles
    results["train_pool"], results["test_pool"] = train_pool, test_pool
    results["train_tgt"] = train_pool.project(tgt_schema)
    results["test_tgt"] = test_pool.project(tgt_schema)


def _train_targets(cfg: ExperimentConfig, results: dict, out) -> None:
    targets = results["targets"] = {}
    for i, kind in enumerate(cfg.target_kinds):
        targets[kind] = fit(kind, results["train_tgt"], seed=cfg.seed + i)


def _substitute(cfg: ExperimentConfig, results: dict, out) -> None:
    """One substitute per target, fit to the oracle's labels of the
    eavesdropped training traffic only. Those labels are the target's own
    predictions on its training rows, so they also give its training rate."""
    train_pool, test_pool = results["train_pool"], results["test_pool"]
    oracles = results["oracles"] = {}
    corpora = results["corpora"] = {}
    subs = results["substitutes"] = {}
    target_rates = results["target_rates"] = {}
    sub_rates = results["sub_rates"] = {}
    for i, kind in enumerate(cfg.target_kinds):
        target = results["targets"][kind]
        oracle = oracles[kind] = make_oracle(target, train_pool.schema)
        corpora[kind] = oracle.collect(train_pool.X)
        target_rates[kind] = (identification_rate(train_pool.y, corpora[kind].y),
                              _rate(target, results["test_tgt"]))
        sub = subs[kind] = train_substitute(
            corpora[kind], epochs=cfg.substitute_epochs, seed=cfg.seed + 100 + i,
        )
        # Substitute's own identification rates against ground truth.
        sub_rates[kind] = (_rate(sub, train_pool), _rate(sub, test_pool), sub.agreement)

    out(
        "table1.csv",
        ["model", "target_train", "target_test", "sub_train", "sub_test", "oracle_agreement",
         "oracle_queries"],
        [[k, *(f"{v:.6f}" for v in (*target_rates[k], *sub_rates[k])), oracles[k].query_log]
         for k in cfg.target_kinds],
    )
    curves = [subs[k].training_curve for k in cfg.target_kinds]
    fig3_rows = [
        [e + 1] + [c[e] if e < len(c) else "" for c in curves]
        for e in range(max(len(c) for c in curves))
    ]
    out("fig3.csv", ["epoch", *cfg.target_kinds], fig3_rows)


def _scan(cfg: ExperimentConfig, results: dict, out) -> None:
    """Performance-gain scan, report-only: ``selected_L`` feeds no later stage."""
    kind = cfg.target_kinds[0]
    corpus = results["corpora"][kind]  # the oracle is deterministic: no re-query
    sub = results["substitutes"][kind]
    weights = feature_weights(corpus, sub, seed=cfg.seed + 500)
    scan = performance_gain_scan(corpus, weights, seed=cfg.seed + 501)
    chosen = select_subset(scan)
    rows = scan_to_csv_rows(scan)
    out("scan.csv", rows[0], rows[1:], {"selected_L": str(chosen)})
    results["scan"] = scan
    results["selected_L"] = chosen


def _attack(cfg: ExperimentConfig, results: dict, out) -> None:
    """Misidentification: one generator per target, trained on its substitute."""
    train_pool, test_pool = results["train_pool"], results["test_pool"]
    attack_rows = results["attack_rows"] = []
    attack_generators = results["attack_generators"] = {}
    for i, kind in enumerate(cfg.target_kinds):
        g = attack_generators[kind] = build_generator(
            train_pool.schema, train_pool.X, seed=cfg.seed + 200 + i,
        )
        train_generator(
            g, results["substitutes"][kind], train_pool, misidentify(),
            epochs=cfg.generator_epochs, seed=cfg.seed + 300 + i, lr=MISIDENTIFY_LR,
        )
        target = results["targets"][kind]
        rep_tr = evaluate_attack(g, target, train_pool, misidentify(), seed=cfg.seed + 400 + i)
        rep_te = evaluate_attack(g, target, test_pool, misidentify(), seed=cfg.seed + 450 + i)
        sub_success = g.training_curve[-1]
        victim_success = 1.0 - rep_te.attacked_rate
        attack_rows.append(
            [kind, f"{rep_tr.attacked_rate:.6f}", f"{rep_te.attacked_rate:.6f}",
             f"{sub_success:.6f}", f"{victim_success:.6f}",
             f"{sub_success - victim_success:.6f}"]
        )
    out(
        "table2.csv",
        ["model", "attacked_train_rate", "attacked_test_rate",
         "substitute_evasion", "victim_evasion", "transfer_gap"],
        attack_rows,
    )


# Spoof training restarts: the anchor landscape has seed- and
# step-size-dependent local minima, so each cell tries these learning rates
# (fresh init seed per trial), keeps the candidate with the best
# oracle-verified success on training rows, and stops early once the
# acceptance level is reached.
SPOOF_TRIAL_LRS = (0.05, 0.1, 0.03, 0.15, 0.08, 0.07, 0.12)


def spoof_cell(cfg: ExperimentConfig, sub, oracle, target, anchor_X: np.ndarray,
               src_train: Dataset, src_test: Dataset, target_cls: DeviceClass,
               cell: int) -> Optional[tuple]:
    """``(generator, report on target over src_test)`` of the trial, one per
    ``SPOOF_TRIAL_LRS``, that the oracle rates best on ``src_train``; the
    first to reach ``cfg.spoof_accept`` ends the loop. None when no trial can
    be anchored: the substitute assigns no row of ``anchor_X`` to the target."""
    mode = spoof(target_cls)
    best_g, best_rate = None, -1.0
    for t, trial_lr in enumerate(SPOOF_TRIAL_LRS):
        g = build_generator(src_train.schema, anchor_X, seed=cfg.seed + 600 + cell + 5000 * t)
        try:
            train_generator(
                g, sub, src_train, mode, epochs=cfg.generator_epochs,
                seed=cfg.seed + 700 + cell + 5000 * t, lr=trial_lr, anchor_X=anchor_X,
            )
        except UnreachableTargetError:
            break  # every trial shares the substitute and the anchor rows
        check = evaluate_attack(g, oracle, src_train, mode, seed=cfg.seed + 750 + cell)
        if check.attacked_rate > best_rate:
            best_g, best_rate = g, check.attacked_rate
        if best_rate >= cfg.spoof_accept:
            break
    if best_g is None:
        return None
    return best_g, evaluate_attack(best_g, target, src_test, mode, seed=cfg.seed + 800 + cell)


def _spoof(cfg: ExperimentConfig, results: dict, out) -> None:
    """Spoof grid: every (target, source type, destination type) cell."""
    profiles = results["profiles"]
    train_pool, test_pool = results["train_pool"], results["test_pool"]
    spoof_rows = []
    spoof_rates = results["spoof_rates"] = {}
    pairs = [(a, b) for a in synth.DEVICE_TYPES for b in synth.DEVICE_TYPES if a != b]
    for i, kind in enumerate(cfg.target_kinds):
        sub, oracle, target = (results[k][kind] for k in ("substitutes", "oracles", "targets"))
        for j, (src, dst) in enumerate(pairs):
            src_classes = synth.classes_of_type(profiles, src)
            dst_classes = synth.classes_of_type(profiles, dst)
            if not src_classes or not dst_classes:
                continue
            target_cls = DeviceClass(dst_classes[0], profiles[dst_classes[0]].label)
            src_train = train_pool.take(np.flatnonzero(np.isin(train_pool.y, src_classes)))
            src_test = test_pool.take(np.flatnonzero(np.isin(test_pool.y, src_classes)))
            found = spoof_cell(cfg, sub, oracle, target, train_pool.X, src_train, src_test,
                               target_cls, i * 20 + j)
            if found is None:  # unreachable cell: reported with no rate
                spoof_rows.append([kind, src, dst, target_cls.label, ""])
                continue
            rate = found[1].attacked_rate
            spoof_rows.append([kind, src, dst, target_cls.label, f"{rate:.6f}"])
            spoof_rates[(kind, src, dst)] = rate
    out(
        "table3.csv",
        ["model", "source_type", "target_type", "spoof_class", "spoofing_rate"],
        spoof_rows,
    )


def _defense(cfg: ExperimentConfig, results: dict, out) -> None:
    """RF-signature profiler, scored on one signature stream per round."""
    identities = make_identities(cfg.n_classes, seed=cfg.seed + 900)
    P, Csi, y = signature_batch(identities, TRAIN_PER_DEVICE, noise_seed=cfg.seed + 901)
    prof = fit_profiler(P, Csi, y, seed=cfg.seed + 902)
    report = evaluate_defense(prof, identities, seed=cfg.seed + 903)
    out(
        "fig4.csv",
        ["round", "clean_rate", "under_attack_rate"],
        [[r, f"{c:.6f}", f"{a:.6f}"]
         for r, c, a in zip(report.rounds, report.clean_rates, report.attacked_rates)],
        {"clean_hash": report.clean_hash, "attacked_hash": report.attacked_hash},
    )
    results["defense_report"] = report


def _manifest(cfg: ExperimentConfig, results: dict, out=None,
              failed_stage: Optional[str] = None) -> None:
    """The config, every output written, and the failed stage if any."""
    outputs = results["outputs"]
    lines = [f"config_hash={cfg.config_hash()}"]
    for k, v in sorted(cfg.to_dict().items()):
        lines.append(f"{k}={json.dumps(v) if isinstance(v, (list, dict)) else v}")
    for name in sorted(outputs):
        lines.append(f"output.{name}={outputs[name]}")
    if failed_stage is not None:
        lines.append(f"failed_stage={failed_stage}")
    path = os.path.join(cfg.out_dir, "manifest.txt")
    atomic_write_text(path, "\n".join(lines) + "\n")
    outputs["manifest.txt"] = path


# (name, stage function, ExperimentConfig field that gates it or None), in run order.
STAGES = (
    ("generate", _generate, None),
    ("train-targets", _train_targets, None),
    ("substitute", _substitute, None),
    ("scan", _scan, "run_scan"),
    ("attack", _attack, None),
    ("spoof", _spoof, "spoof_grid"),
    ("defense", _defense, "run_defense"),
    ("manifest", _manifest, None),
)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline; writes report CSVs plus a manifest into cfg.out_dir.

    Any stage failure raises StageFailure with the stage name; outputs of
    completed stages stay on disk, and a partial manifest lists them with a
    ``failed_stage=<name>`` line.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    meta = {"config_hash": cfg.config_hash(), "seed": str(cfg.seed)}
    outputs: Dict[str, str] = {}
    results: Dict[str, object] = {"outputs": outputs, "config": cfg}

    def out(name: str, header, rows, extra_meta: Optional[dict] = None) -> None:
        path = os.path.join(cfg.out_dir, name)
        write_report_csv(path, header, rows, {**meta, **(extra_meta or {})})
        outputs[name] = path

    for name, stage, gate in STAGES:
        if gate is not None and not getattr(cfg, gate):
            continue
        try:
            stage(cfg, results, out)
        except Exception as e:  # noqa: BLE001
            if name != "manifest":
                # Best effort: the stage's own error is the one to report.
                with contextlib.suppress(OSError):
                    _manifest(cfg, results, failed_stage=name)
            raise StageFailure(name, e) from e
    return results
