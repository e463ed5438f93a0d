#!/usr/bin/env python3
"""Interleaved A/B pairs of perfbench: a base revision against the work tree.

    python3 tools/ab_perfbench.py --workload heavy-pagerank --pairs 10 \
        [--base HEAD] [--seed 1] [--seconds 20] [--trace 0] \
        [--base-dir DIR] [--json OUT]

Run from the repository root. The base revision is exported with
`git archive` into a temporary directory (or into --base-dir, which is kept
and reused while it holds the same revision); the working tree and .git are
never written. Each side builds its own Release tree in its own
.bench_build/ through perfbench/run.py, which is then called with identical
arguments on both sides, alternating which side runs first.

One untimed --smoke run per side comes first: it builds both trees and
checks that both run. Then, for every metric the runs report (the
end_to_end metrics of BENCHMARK.json with --trace 0, the per_layer ones with
--trace 1), the script prints both medians with their quartiles, the median
change, how many of all pairs run the change won, and the gain test: the
change wins at least 9 of 10 pairs run, and its median beats the base median
by more than the base's interquartile range. A pair where either side has no
value for the metric counts as a loss. No metric shows a gain when a change
run is not correct or the change fails a larger share of its operations than
the base. Attempted and failed operations and incorrect runs are printed per
side.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REVISION_FILE = '.ab_base_revision'


def fail(message):
    print('ab_perfbench: ' + message, file=sys.stderr)
    sys.exit(2)


def resolve(revision):
    proc = subprocess.run(
        ['git', 'rev-parse', '--verify', revision + '^{commit}'], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail('unknown revision %s' % revision)
    return proc.stdout.strip()


def export(sha, directory):
    """Extracts `sha` into `directory` unless it already holds it."""
    marker = os.path.join(directory, REVISION_FILE)
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == sha:
                return
        fail('%s holds another revision; pick an empty --base-dir' % directory)
    if os.path.isdir(directory) and os.listdir(directory):
        fail('%s is not empty; pick an empty --base-dir' % directory)
    os.makedirs(directory, exist_ok=True)
    archive = subprocess.Popen(['git', 'archive', '--format=tar', sha],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(['tar', '-x', '-C', directory],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail('could not export %s' % sha)
    with open(marker, 'w') as f:
        f.write(sha + '\n')


def run_perfbench(tree, arguments):
    """One perfbench/run.py call in `tree`; returns its result JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join('perfbench', 'run.py')] + arguments,
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {'correct': False, 'attempted': 0, 'failed': 0,
                  'metrics': {}}
    result['correct'] = bool(result.get('correct')) and proc.returncode == 0
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method='inclusive')
    return q1, q3


def metric_specs(trace):
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    return spec['per_layer'] if trace else spec['end_to_end']


def side_totals(pairs, side):
    runs = [p[side] for p in pairs]
    return {'attempted': sum(r['attempted'] for r in runs),
            'failed': sum(r['failed'] for r in runs),
            'incorrect': sum(1 for r in runs if not r['correct'])}


def failed_share(totals):
    return totals['failed'] / totals['attempted'] if totals['attempted'] \
        else float(totals['failed'] > 0)


def summarize(specs, pairs, gain_allowed):
    """Prints one row per metric; returns the rows for --json."""
    rows = []
    print('%-40s %-6s %26s %26s %8s %6s %5s' % (
        'metric', 'better', 'base median [q1, q3]', 'change median [q1, q3]',
        'change', 'wins', 'gain'))
    for spec in specs:
        name = spec['name']
        base = [p['base']['metrics'].get(name, {}).get('value')
                for p in pairs]
        change = [p['change']['metrics'].get(name, {}).get('value')
                  for p in pairs]
        kept = [(b, c) for b, c in zip(base, change)
                if b is not None and c is not None]
        if not kept or all(b == 0 and c == 0 for b, c in kept):
            continue
        base = [b for b, _ in kept]
        change = [c for _, c in kept]
        lower = spec['better'] == 'lower'
        wins = sum(1 for b, c in kept if (c < b if lower else c > b))
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        base_q1, base_q3 = quartiles(base)
        change_q1, change_q3 = quartiles(change)
        gap = base_median - change_median if lower else \
            change_median - base_median
        gain = (gain_allowed and wins * 10 >= 9 * len(pairs) and
                gap > base_q3 - base_q1)
        relative = (change_median - base_median) / base_median \
            if base_median else 0.0
        print('%-40s %-6s %26s %26s %+7.1f%% %6s %5s' % (
            name, spec['better'],
            '%.4g [%.4g, %.4g]' % (base_median, base_q1, base_q3),
            '%.4g [%.4g, %.4g]' % (change_median, change_q1, change_q3),
            100 * relative, '%d/%d' % (wins, len(pairs)),
            'yes' if gain else 'no'))
        rows.append({'metric': name, 'unit': spec['unit'],
                     'better': spec['better'], 'base': base,
                     'change': change, 'wins': wins, 'gain': gain})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--pairs', type=int, default=10)
    parser.add_argument('--base', default='HEAD',
                        help='base revision (default HEAD)')
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=20)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--base-dir',
                        help='export the base here and keep it (default: a '
                             'temporary directory, removed at exit)')
    parser.add_argument('--json', help='also write every run to this file')
    args = parser.parse_args()
    if args.pairs < 1:
        fail('--pairs must be at least 1')

    sha = resolve(args.base)
    base_dir = args.base_dir or tempfile.mkdtemp(prefix='ab_perfbench-')
    try:
        export(sha, os.path.abspath(base_dir))
        trees = {'base': os.path.abspath(base_dir), 'change': ROOT}
        for side in ('base', 'change'):
            warm = run_perfbench(trees[side], [
                '--workload', args.workload, '--seed', str(args.seed),
                '--seconds', '1', '--smoke'])
            if not warm['correct']:
                fail('the %s tree failed its smoke run' % side)
        arguments = ['--workload', args.workload, '--seed', str(args.seed),
                     '--seconds', str(args.seconds), '--trace',
                     str(args.trace)]
        pairs = []
        for i in range(args.pairs):
            order = ('base', 'change') if i % 2 == 0 else ('change', 'base')
            pair = {'first': order[0]}
            for side in order:
                pair[side] = run_perfbench(trees[side], arguments)
            pairs.append(pair)
            print('pair %d/%d done (%s first)' % (i + 1, args.pairs,
                                                   order[0]), flush=True)
    finally:
        if not args.base_dir:
            shutil.rmtree(base_dir, ignore_errors=True)

    print('\n%s, seed %d, %d pairs, base %s against the working tree' % (
        args.workload, args.seed, len(pairs), sha[:12]))
    totals = {side: side_totals(pairs, side) for side in ('base', 'change')}
    gain_allowed = (totals['change']['incorrect'] == 0 and
                    failed_share(totals['change']) <=
                    failed_share(totals['base']))
    rows = summarize(metric_specs(args.trace), pairs, gain_allowed)
    for side in ('base', 'change'):
        print('%-6s operations: %d attempted, %d failed; runs not correct: '
              '%d of %d' % (side, totals[side]['attempted'],
                            totals[side]['failed'], totals[side]['incorrect'],
                            len(pairs)))
    if not gain_allowed:
        print('no gain counts: the change has incorrect runs or fails a '
              'larger share of its operations than the base')
    incorrect = totals['base']['incorrect'] + totals['change']['incorrect']
    if args.json:
        with open(args.json, 'w') as f:
            json.dump({'workload': args.workload, 'seed': args.seed,
                       'base': sha, 'pairs': pairs, 'totals': totals,
                       'summary': rows}, f,
                      indent=1)
    sys.exit(0 if incorrect == 0 else 1)


if __name__ == '__main__':
    main()
