"""The benchmark tracer still wraps the ``Net`` and training entry points.

``perfbench/tracing.py`` replaces methods and module globals with wrappers
whose counters take fixed argument lists, so a changed call signature
would only fail inside a traced benchmark run. The tracer is installed in
a child process, so none of its patches reach other tests.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys

import numpy as np

sys.path.insert(0, sys.argv[1])
from tracing import Tracer

tracer = Tracer(timed=True)
tracer.install()

from flowcamo.blackbox import make_oracle
from flowcamo.camouflage import build_generator, spoof
from flowcamo.core import DeviceClass, split_dataset
from flowcamo.harness import experiment, synth
from flowcamo.learners import fit

schema = synth.attacker_pool_schema()
profiles = synth.default_profiles(schema, n_classes=4)
ds = synth.generate_dataset(profiles, rows_per_class=30, seed=1, schema=schema)
train, _ = split_dataset(ds, 0.8, seed=1)
target = fit("decision_tree", train.project(synth.target_schema()), seed=0)
corpus = make_oracle(target, schema).collect(train.X)
sub = experiment.train_substitute(corpus, epochs=3, seed=2)
tid = int(sub.predict_ids_pool(train.X)[0])
src = train.take(np.flatnonzero(train.y != tid))
g = build_generator(schema, train.X, hidden=(16,), seed=3)
experiment.train_generator(
    g, sub, src, spoof(DeviceClass(tid, train.class_labels[tid])), epochs=2, seed=4,
    anchor_X=train.X,
)
print(json.dumps({"counts": dict(tracer.counts),
                  "spans": sorted({s[0] for s in tracer.spans})}))
"""


def test_traced_substitute_and_spoof_training():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = record["counts"]
    assert counts["learners.net.forward_calls"] > 0
    assert counts["learners.net.backward_calls"] > 0
    assert counts["camouflage.trainings"] == 1
    assert counts["camouflage.spoof_trainings"] == 1
    assert counts["substitute.epochs_run"] == 3
    for name in ("learners.net.forward", "learners.net.backward",
                 "substitute.train", "camouflage.train"):
        assert name in record["spans"]
