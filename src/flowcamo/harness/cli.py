"""Command-line surface.

Subcommands: gen-data, ingest, train-target, train-substitute,
scan-features, attack, spoof, defend, report, run. Only ``run`` reads a
JSON config file (``--config``, the fields of ``ExperimentConfig``); its
flags override the file, and the file overrides the defaults.
Exit codes: 0 ok, 1 validation error, 2 stage failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..blackbox import make_oracle
from ..camouflage import (
    build_generator,
    evaluate_attack,
    load_generator,
    misidentify,
    save_generator,
    train_generator,
)
from ..core import (
    DeviceClass,
    FeatureSchema,
    UnreachableTargetError,
    ValidationError,
    identification_rate,
    split_dataset,
)
from ..learners import KINDS, fit, load_model, save_model
from ..profiler import evaluate_defense, fit_profiler, make_identities, signature_batch
from ..substitute import (
    feature_weights,
    load_substitute,
    performance_gain_scan,
    save_substitute,
    scan_to_csv_rows,
    select_subset,
    train_substitute,
)
from . import synth
from .csvio import atomic_write_text, dataset_to_csv, ingest_csv, write_report_csv
from .experiment import ExperimentConfig, StageFailure, run_experiment, spoof_cell


def _load_schema(arg: str):
    if arg == "pool":
        return synth.attacker_pool_schema()
    if arg == "target":
        return synth.target_schema()
    with open(arg, encoding="utf-8") as fh:
        return FeatureSchema.from_json(fh.read())


def _ingest(path: str, schema_arg: str):
    return ingest_csv(path, _load_schema(schema_arg))


def cmd_gen_data(args) -> int:
    schema = synth.attacker_pool_schema()
    profiles = synth.default_profiles(schema, args.n_classes)
    ds = synth.generate_dataset(profiles, args.rows_per_class, args.seed, schema)
    dataset_to_csv(ds, args.out, {"seed": str(args.seed)})
    if args.schema_out:
        atomic_write_text(args.schema_out, schema.to_json())
    print(f"wrote {len(ds)} rows x {len(schema)} features to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    ds = _ingest(args.path, args.schema)
    counts = np.bincount(ds.y, minlength=ds.n_classes)
    print(f"{args.path}: {len(ds)} rows, {ds.n_classes} classes")
    for lab, c in zip(ds.class_labels, counts):
        print(f"  {lab}: {c}")
    return 0


def cmd_train_target(args) -> int:
    ds = _ingest(args.data, args.schema)
    if args.project_target:
        ds = ds.project(synth.target_schema())
    train, test = split_dataset(ds, 0.8, args.seed)
    model = fit(args.kind, train, seed=args.seed)
    save_model(model, args.out)
    rate = identification_rate(test.y, model.predict_ids(test.X))
    print(f"{args.kind} -> {args.out} (test identification rate {rate:.4f})")
    return 0


def cmd_train_substitute(args) -> int:
    ds = _ingest(args.data, args.schema)
    target = load_model(args.target)
    oracle = make_oracle(target, ds.schema)
    corpus = oracle.collect(ds.X)
    sub = train_substitute(corpus, epochs=args.epochs, seed=args.seed)
    save_substitute(sub, args.out)
    print(f"substitute -> {args.out} (held-out oracle agreement {sub.agreement:.4f}, "
          f"{oracle.query_log} oracle queries)")
    return 0


def cmd_scan_features(args) -> int:
    ds = _ingest(args.data, args.schema)
    target = load_model(args.target)
    sub = load_substitute(args.sub)
    oracle = make_oracle(target, ds.schema)
    corpus = oracle.collect(ds.X)
    weights = feature_weights(corpus, sub, seed=args.seed)
    L_values = sorted(int(v) for v in args.L.split(","))
    scan = performance_gain_scan(corpus, weights, L_values, epochs=args.epochs, seed=args.seed)
    chosen = select_subset(scan, full_agreement=sub.agreement)
    rows = scan_to_csv_rows(scan)
    write_report_csv(args.out, rows[0], rows[1:], {"selected_L": str(chosen)})
    print(f"scan -> {args.out} (selected L={chosen})")
    return 0


def _attack_inputs(args):
    ds = _ingest(args.data, args.schema)
    train, test = split_dataset(ds, 0.8, args.seed)
    return ds, load_model(args.target), load_substitute(args.sub), train, test


def _write_attack(args, g, rep, target, test) -> int:
    clean_rate = identification_rate(test.y, target.predict_ids(test.project(target.schema).X))
    if args.save_generator:
        save_generator(g, args.save_generator)
    write_report_csv(
        args.out,
        ["mode", "clean_rate", "attacked_rate", "success_rate", "rows"],
        [[rep.mode, f"{clean_rate:.6f}", f"{rep.attacked_rate:.6f}",
          f"{rep.success_rate:.6f}", rep.n_rows]],
        {"seed": str(args.seed)},
    )
    print(f"{rep.mode}: clean {clean_rate:.4f} -> attacked {rep.attacked_rate:.4f}")
    return 0


def cmd_attack(args) -> int:
    ds, target, sub, train, test = _attack_inputs(args)
    g = build_generator(ds.schema, train.X, seed=args.seed)
    train_generator(g, sub, train, misidentify(), epochs=args.epochs, seed=args.seed, lr=0.05)
    rep = evaluate_attack(g, target, test, misidentify(), seed=args.seed)
    return _write_attack(args, g, rep, target, test)


def cmd_spoof(args) -> int:
    """The spoof cell of ``flowcamo run``, for one source type and target class."""
    ds, target, sub, train, test = _attack_inputs(args)
    try:
        tid = list(ds.class_labels).index(args.target_class)
    except ValueError:
        raise ValidationError(f"unknown class label {args.target_class!r}") from None
    keep = [i for i, lab in enumerate(ds.class_labels) if lab.startswith(args.source_type)]
    src_train = train.take(np.flatnonzero(np.isin(train.y, keep)))
    src_test = test.take(np.flatnonzero(np.isin(test.y, keep)))
    if not len(src_train) or not len(src_test):
        raise ValidationError(f"source type {args.source_type!r} matches no class label "
                              "with both training and test rows")
    cfg = ExperimentConfig(seed=args.seed, generator_epochs=args.epochs)
    found = spoof_cell(cfg, sub, make_oracle(target, ds.schema), target, train.X,
                       src_train, src_test, DeviceClass(tid, args.target_class), 0)
    if found is None:
        raise UnreachableTargetError(
            f"the substitute assigns no training row to {args.target_class!r}")
    return _write_attack(args, *found, target, src_test)


def cmd_defend(args) -> int:
    # The generator and traffic are checked but do not feed the RF stream:
    # a traffic-feature attacker cannot rewrite radio signatures.
    if args.generator:
        load_generator(args.generator)
    if args.data:
        _ingest(args.data, args.schema)
    identities = make_identities(args.n_devices, seed=args.seed)
    P, Csi, y = signature_batch(identities, args.train_per_device, noise_seed=args.seed + 1)
    prof = fit_profiler(P, Csi, y, seed=args.seed)
    rep = evaluate_defense(prof, identities, rounds=args.rounds, seed=args.seed)
    rows = [[r, f"{c:.6f}", f"{a:.6f}"]
            for r, c, a in zip(rep.rounds, rep.clean_rates, rep.attacked_rates)]
    write_report_csv(args.out, ["round", "clean_rate", "under_attack_rate"],
                     rows, {"clean_hash": rep.clean_hash, "attacked_hash": rep.attacked_hash})
    print(f"defense -> {args.out} (clean rate {rep.clean_rates[0]:.4f}, "
          f"streams identical: {rep.clean_hash == rep.attacked_hash})")
    return 0


def cmd_report(args) -> int:
    import csv as _csv
    import glob
    import os

    for path in sorted(glob.glob(os.path.join(args.dir, "*.csv"))):
        print(f"\n== {os.path.basename(path)} ==")
        with open(path, encoding="utf-8") as fh:
            rows = [r for r in _csv.reader(
                line for line in fh if not line.startswith("#")) if r]
        if not rows:
            continue
        if len({len(r) for r in rows}) > 1:
            raise ValidationError(f"{path}: rows have differing column counts")
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


def cmd_run(args) -> int:
    overrides = {}
    for key in ("seed", "n_classes", "rows_per_class", "out_dir",
                "substitute_epochs", "generator_epochs"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    if args.no_defense:
        overrides["run_defense"] = False
    if args.no_spoof:
        overrides["spoof_grid"] = False
    if args.scan:
        overrides["run_scan"] = True
    if args.config:
        cfg = ExperimentConfig.from_file(args.config, overrides)
    else:
        cfg = ExperimentConfig.from_dict(overrides)
    results = run_experiment(cfg)
    for name, path in sorted(results["outputs"].items()):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flowcamo")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("gen-data", cmd_gen_data, help="generate a synthetic dataset CSV")
    sp.add_argument("--out", required=True)
    sp.add_argument("--schema-out")
    sp.add_argument("--n-classes", type=int, default=28)
    sp.add_argument("--rows-per-class", type=int, default=500)
    sp.add_argument("--seed", type=int, default=42)

    sp = add("ingest", cmd_ingest, help="validate and summarize a dataset CSV")
    sp.add_argument("path")
    sp.add_argument("--schema", default="pool")

    sp = add("train-target", cmd_train_target, help="fit one target classifier")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema", default="pool")
    sp.add_argument("--kind", choices=KINDS, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--project-target", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--seed", type=int, default=42)

    sp = add("train-substitute", cmd_train_substitute, help="fit the substitute")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema", default="pool")
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--epochs", type=int, default=60)
    sp.add_argument("--seed", type=int, default=42)

    sp = add("scan-features", cmd_scan_features, help="performance-gain scan")
    sp.add_argument("--data", required=True)
    sp.add_argument("--schema", default="pool")
    sp.add_argument("--target", required=True)
    sp.add_argument("--sub", required=True)
    sp.add_argument("--L", default="2,4,8,12,16,20,28")
    sp.add_argument("--epochs", type=int, default=25)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=42)

    for name, fn in (("attack", cmd_attack), ("spoof", cmd_spoof)):
        sp = add(name, fn, help=f"train a generator and run the {name}")
        sp.add_argument("--data", required=True)
        sp.add_argument("--schema", default="pool")
        sp.add_argument("--target", required=True)
        sp.add_argument("--sub", required=True)
        sp.add_argument("--epochs", type=int, default=60)
        sp.add_argument("--out", required=True)
        sp.add_argument("--save-generator")
        sp.add_argument("--seed", type=int, default=42)
        if name == "spoof":
            sp.add_argument("--target-class", required=True)
            sp.add_argument("--source-type", default="")  # "" keeps every class

    sp = add("defend", cmd_defend, help="fit the device profiler and evaluate")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-devices", type=int, default=28)
    sp.add_argument("--rounds", type=int, default=30)
    sp.add_argument("--train-per-device", type=int, default=40)
    sp.add_argument("--generator")
    sp.add_argument("--data")
    sp.add_argument("--schema", default="pool")
    sp.add_argument("--seed", type=int, default=42)

    sp = add("report", cmd_report, help="print report CSVs as tables")
    sp.add_argument("--dir", default="out")

    sp = add("run", cmd_run, help="run the full experiment pipeline")
    sp.add_argument("--config")
    sp.add_argument("--out-dir", dest="out_dir")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--n-classes", dest="n_classes", type=int)
    sp.add_argument("--rows-per-class", dest="rows_per_class", type=int)
    sp.add_argument("--substitute-epochs", dest="substitute_epochs", type=int)
    sp.add_argument("--generator-epochs", dest="generator_epochs", type=int)
    sp.add_argument("--no-defense", action="store_true")
    sp.add_argument("--no-spoof", action="store_true")
    sp.add_argument("--scan", action="store_true")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
