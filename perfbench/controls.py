"""Negative controls: each benchmark check must be able to fail.

Run from the root of a checkout:

    python3 perfbench/controls.py

Every control feeds one check a broken input (a tampered report, an
out-of-range manipulated row, a mismatched stream hash, a missing or
misplaced layer metric) and asserts that ``check_fail_frac`` becomes
positive, after the same check passed on the intact input.
"""
from __future__ import annotations

import os
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks as chk  # noqa: E402
from run import trace_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def scratch_dir():
    base = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


class TamperedReport(unittest.TestCase):
    def test_changed_byte_fails_the_digest_check(self):
        with scratch_dir() as d:
            path = os.path.join(d, "table1.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("model,target_test\nknn,0.889286\n")
            first = chk.file_digests(d, ["table1.csv"])
            self.assertEqual(chk.check_fail_frac(chk.digest_checks([first, first])), 0.0)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("model,target_test\nknn,0.889287\n")
            second = chk.file_digests(d, ["table1.csv"])
            self.assertGreater(chk.check_fail_frac(chk.digest_checks([first, second])), 0.0)

    def test_missing_report_fails(self):
        with scratch_dir() as d:
            digests = chk.file_digests(d, ["table3.csv"])
            self.assertGreater(chk.check_fail_frac(chk.digest_checks([digests, digests])), 0.0)


class ManipulatedRow(unittest.TestCase):
    def setUp(self):
        from flowcamo.camouflage import build_generator
        from flowcamo.harness import synth

        schema = synth.attacker_pool_schema()
        profiles = synth.default_profiles(schema, n_classes=4)
        self.X = synth.generate_dataset(profiles, 20, seed=3, schema=schema).X
        self.g = build_generator(schema, self.X, seed=3)
        self.g.net.weights[-1][:] = 0.5  # leave the identity map, so rows really move
        self.schema = schema

    def broken(self, edit):
        honest = self.g.manipulate_batch

        def manipulate_batch(H, S):
            Hp = honest(H, S).copy()
            edit(Hp)
            return Hp

        self.g.manipulate_batch = manipulate_batch
        return chk.generator_checks([self.g], self.X, seed=0)

    def test_intact_generator_passes(self):
        self.assertEqual(chk.check_fail_frac(chk.generator_checks([self.g], self.X, 0)), 0.0)

    def test_out_of_range_row_fails(self):
        col = int(np.flatnonzero(self.schema.mutable_mask)[0])

        def edit(Hp):
            Hp[0, col] = self.schema.highs[col] + 1.0

        self.assertGreater(chk.check_fail_frac(self.broken(edit)), 0.0)

    def test_changed_immutable_bit_fails(self):
        col = int(np.flatnonzero(~self.schema.mutable_mask)[0])

        def edit(Hp):
            Hp[1, col] = np.nextafter(Hp[1, col], np.inf)

        self.assertGreater(chk.check_fail_frac(self.broken(edit)), 0.0)

    def test_no_generator_fails(self):
        self.assertGreater(chk.check_fail_frac(chk.generator_checks([], self.X, 0)), 0.0)


class StreamHash(unittest.TestCase):
    def check(self, clean, attacked):
        with scratch_dir() as d:
            path = os.path.join(d, "defend.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# clean_hash={clean}\n# attacked_hash={attacked}\n"
                         "generator_epoch,clean_rate,under_attack_rate\n0,1.0,1.0\n")
            return chk.check_fail_frac([chk.stream_hash_check(path)])

    def test_equal_hashes_pass(self):
        self.assertEqual(self.check("ab12", "ab12"), 0.0)

    def test_mismatched_hash_fails(self):
        self.assertGreater(self.check("ab12", "ab13"), 0.0)


class LayerExpectations(unittest.TestCase):
    def layers(self, workload):
        wl = WORKLOADS[workload]
        out = {name: 1.0 for name in wl.nonzero}
        out.update({name: 0.0 for name in wl.zero})
        return wl, out

    def test_predicted_values_pass(self):
        for name in WORKLOADS:
            wl, layers = self.layers(name)
            self.assertEqual(chk.check_fail_frac(trace_checks(wl, layers)), 0.0)

    def test_missing_layer_metric_fails(self):
        wl, layers = self.layers("cli-chain")
        del layers["profiler.signature_s"]
        self.assertGreater(chk.check_fail_frac(trace_checks(wl, layers)), 0.0)

    def test_knn_work_off_its_workload_fails(self):
        wl, layers = self.layers("spoof-grid")
        layers["learners.knn.predict_s"] = 0.01
        self.assertGreater(chk.check_fail_frac(trace_checks(wl, layers)), 0.0)


if __name__ == "__main__":
    unittest.main()
