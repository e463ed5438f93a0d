#!/usr/bin/env python3
"""Builds and runs the layered pipeline benchmark for one workload.

    python3 perfbench/run.py --workload heavy-pagerank --seed 1 \
        --seconds 10 --trace 0 [--smoke]

Run from the repository root. The first run configures and builds the
project's libraries plus perfbench_pipeline (Release) into .bench_build/;
later runs only re-check the build. Datasets are generated fresh into a
per-run scratch directory under .bench_build/scratch/ and removed afterwards;
the traced run's Chrome trace lands in .bench_build/results/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json with
--trace 0, every per_layer metric with --trace 1 (0 where the workload has no
such layer, e.g. serving metrics on heavy-pagerank). The exit code is
non-zero when the build fails or any answer check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, '.bench_build')
BINARY = os.path.join(BUILD, 'perfbench_pipeline')
WORKLOADS = ('heavy-pagerank', 'road-sssp', 'serving-mix')
# The benchmark process must end well inside the 180 s run limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print('perfbench: ' + message, file=sys.stderr)
    sys.exit(2)


def host_threads():
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return max(1, min(4, available))


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, 'src', 'CMakeLists.txt')):
        fail('no project sources next to perfbench/; run from a full checkout')
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, 'build.log'), 'a') as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, 'CMakeCache.txt')):
            steps.append(['cmake', '-S', HERE, '-B', BUILD,
                          '-DCMAKE_BUILD_TYPE=Release'])
        steps.append(['cmake', '--build', BUILD, '--target',
                      'perfbench_pipeline', '-j', str(jobs)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                fail('build failed; see ' + log.name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=10)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--smoke', action='store_true',
                        help='tiny graphs: a functional check only')
    args = parser.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    threads = host_threads()
    build(threads)

    scratch = os.path.join(BUILD, 'scratch',
                           '%s-%d' % (args.workload, os.getpid()))
    results = os.path.join(BUILD, 'results')
    os.makedirs(scratch)
    os.makedirs(results, exist_ok=True)
    command = [BINARY, '--workload', args.workload, '--seed', str(args.seed),
               '--seconds', str(args.seconds), '--trace', str(args.trace),
               '--threads', str(threads),
               '--scale', 'smoke' if args.smoke else 'full',
               '--scratch', scratch, '--results', results,
               '--digests', os.path.join(HERE, 'digests.txt')]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail('timed out after %d s' % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines:
        fail('no output (exit code %d)' % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail('no result line (exit code %d)' % proc.returncode)

    wanted = spec['per_layer'] if args.trace else spec['end_to_end']
    metrics = {}
    for metric in wanted:
        measured = raw['metrics'].get(metric['name'])
        if measured is None and not args.trace:
            fail('end-to-end metric %s not measured' % metric['name'])
        metrics[metric['name']] = {
            'value': measured['value'] if measured else 0.0,
            'unit': metric['unit']}
    print(json.dumps({'correct': raw['correct'] and proc.returncode == 0,
                      'attempted': raw['attempted'],
                      'failed': raw['failed'],
                      'metrics': metrics}))
    sys.exit(0 if raw['correct'] and proc.returncode == 0 else 1)


if __name__ == '__main__':
    main()
