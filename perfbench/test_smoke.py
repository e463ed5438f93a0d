#!/usr/bin/env python3
"""Smoke test of the layered pipeline benchmark at tiny scale.

    python3 perfbench/test_smoke.py

Runs all three workloads through perfbench/run.py --smoke, untraced and
traced, and asserts that each run passes its answer checks, prints a result
line with exactly the contract's keys and every metric BENCHMARK.json names,
and reports error_rate == 0. Every per-layer metric must be measured (nonzero)
on at least one workload, apart from the few that are zero by design.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ('heavy-pagerank', 'road-sssp', 'serving-mix')
# Zero on every workload by design: no failures, no rejected requests, and
# no second pass for the one-pass strategies.
ZERO_BY_DESIGN = {
    'error_rate', 'serving.rejected', 'partition.random.pass1_s',
    'partition.hdrf.pass1_s', 'partition.2d.pass1_s',
    'partition.oblivious.pass1_s'}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, 'run.py'), '--workload', workload,
         '--seed', '1', '--seconds', '1', '--trace', str(trace), '--smoke'],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
            cls.spec = json.load(f)
        cls.results = {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_every_run_passes_its_checks(self):
        for (workload, trace), (code, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {'correct', 'attempted', 'failed', 'metrics'})
                self.assertTrue(result['correct'])
                self.assertGreaterEqual(result['attempted'], 1)
                self.assertEqual(result['failed'], 0)

    def test_every_named_metric_is_emitted(self):
        for (workload, trace), (_, result) in self.results.items():
            wanted = self.spec['per_layer' if trace else 'end_to_end']
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result['metrics']),
                                 {m['name'] for m in wanted})
                for metric in wanted:
                    emitted = result['metrics'][metric['name']]
                    self.assertEqual(emitted['unit'], metric['unit'])
                    if not trace:
                        self.assertGreater(emitted['value'], 0)

    def test_error_rate_is_zero(self):
        for workload in WORKLOADS:
            metrics = self.results[(workload, 1)][1]['metrics']
            self.assertEqual(metrics['error_rate']['value'], 0)

    def test_every_layer_metric_is_measured_somewhere(self):
        for metric in self.spec['per_layer']:
            name = metric['name']
            if name in ZERO_BY_DESIGN:
                continue
            measured = [self.results[(w, 1)][1]['metrics'][name]['value']
                        for w in WORKLOADS]
            self.assertTrue(any(v > 0 for v in measured), name)


if __name__ == '__main__':
    unittest.main()
