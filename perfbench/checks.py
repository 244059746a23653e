"""Correctness checks of one benchmark run; each can fail (see controls.py).

A check is a ``(name, ok, detail)`` tuple. ``check_fail_frac`` is the
number of failed checks over the number attempted, across every
iteration of a run.
"""
from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Sequence

import numpy as np

Check = tuple  # (name: str, ok: bool, detail: str)


def file_digests(out_dir: str, names: Sequence[str]) -> Dict[str, str]:
    """SHA-256 of each named report file; a missing file digests as ``missing``."""
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            out[name] = "missing"
            continue
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest_checks(runs: List[Dict[str, str]]) -> List[Check]:
    """Every report of every iteration hashes like the first iteration's."""
    checks = []
    if not runs:
        return checks
    first = runs[0]
    for i, other in enumerate(runs[1:], start=1):
        for name in sorted(set(first) | set(other)):
            a, b = first.get(name, "missing"), other.get(name, "missing")
            ok = a == b and a != "missing"
            checks.append((f"digest.{name}", ok, "" if ok else f"iteration {i}: {b[:12]} != {a[:12]}"))
    for name, digest in first.items():
        if digest == "missing":
            checks.append((f"digest.{name}", False, "report file not written"))
    return checks


def contract_violations(schema, X: np.ndarray, Hp: np.ndarray) -> int:
    """Rows whose immutable features changed bits or whose values leave the schema."""
    imm = ~schema.mutable_mask
    same = (X[:, imm].view(np.uint64) == Hp[:, imm].view(np.uint64)).all(axis=1)
    in_range = ((Hp >= schema.lows) & (Hp <= schema.highs)).all(axis=1)
    return int(np.count_nonzero(~(same & in_range)))


def generator_checks(generators, X: np.ndarray, seed: int) -> List[Check]:
    """Each trained generator keeps the functionality contract on ``X``."""
    from flowcamo.camouflage import sample_multipliers

    if not generators:
        return [("generator_contract", False, "no trained generator was captured")]
    checks = []
    X = np.ascontiguousarray(X, dtype=float)
    for i, g in enumerate(generators):
        rng = np.random.default_rng(seed + i)
        Hp = g.manipulate_batch(X, sample_multipliers(g.schema, X.shape[0], rng) * X)
        bad = contract_violations(g.schema, X, np.ascontiguousarray(Hp))
        checks.append((f"generator_contract.{i}", bad == 0,
                       "" if bad == 0 else f"{bad} of {X.shape[0]} rows violate"))
    return checks


def report_meta(path: str) -> Dict[str, str]:
    """The ``# key=value`` header lines of a report CSV."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    return meta


def stream_hash_check(defend_csv: str) -> Check:
    """The defense's clean and attacked signature streams hash the same."""
    meta = report_meta(defend_csv)
    clean, attacked = meta.get("clean_hash"), meta.get("attacked_hash")
    ok = clean is not None and clean == attacked
    return ("defense.clean_hash==attacked_hash", ok,
            "" if ok else f"clean {clean} attacked {attacked}")


def check_fail_frac(checks: List[Check]) -> float:
    return sum(1 for c in checks if not c[1]) / max(1, len(checks))
