"""Layered benchmark for qtlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload, both modes
    python3 perfbench/run.py --selftest [--seed N]         # fast check mode

One workload runs in this process, one operation at a time, from the
checkout root.  Set-up writes the seeded input files under
.perfbench-work/; a warm-up operation loads qtlab's lazy imports; then whole
rounds of the workload's operations run until S seconds have passed.  The
outputs of the first round are checked by checks.py, apart from the program,
and every later round must repeat them byte for byte.

With --trace 0 the last line of stdout is the end-to-end metrics; with
--trace 1 it is the per-layer metrics of tracing.py, and the traced rounds
must also repeat, byte for byte, the outputs of one untraced round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one thread per process: the load is one closed-loop client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("analyze", "quasitree", "actions", "large-truncation")
# samples of setup_s and cold_start_s taken per run, spread between rounds
SETUP_REPEATS = {"analyze": 15, "quasitree": 5, "actions": 3, "large-truncation": 5}
COLD_REPEATS = {"analyze": 7, "quasitree": 7, "actions": 9, "large-truncation": 5}
WARMUP = {"argv": ["construct", "farey", "--params", '{"Q": 3}']}


def _setup(name, seed, d):
    """Build the workload's inputs into a fresh directory; returns the
    workload and the time it took.  As in timeit, the garbage collector
    pauses while a sample runs, after a full collection, so that collecting
    the heap the rounds left behind does not land in one sample."""
    from workloads import BUILDERS

    os.makedirs(d)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        wl = BUILDERS[name](d, seed)
        return wl, time.perf_counter() - t0
    finally:
        gc.enable()


def _cold_start(op, workdir, expected):
    """One fresh interpreter running op, from start to exit."""
    cmd = [sys.executable, os.path.join(HERE, "ops.py"), json.dumps(op)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout != expected:
        raise RuntimeError("cold-start output differs from the in-process output: "
                           + proc.stderr.decode()[-500:])
    return dt


def _round(ops):
    from ops import run_op

    outs, times, errors = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        rc, out, err = run_op(op)
        times.append(time.perf_counter() - t0)
        outs.append(out if rc == 0 else None)
        if rc != 0:
            errors.append(f"{op['name']}: exit {rc}: {err.strip()[-300:]}")
    return outs, times, errors


def run_workload(name, seed, seconds, trace):
    """Set-up, then whole rounds until their summed time reaches `seconds`.
    Untraced, the further set-up and cold-start samples run between rounds,
    outside the round clock, so that all metrics sample the same stretch of
    the machine's time."""
    from checks import CheckFailed, check, confirm_cycle_formula
    from ops import run_op
    import qtlab
    import tracing

    problems = []
    # qtlab imports scipy.sparse lazily inside APSP; load it before anything
    # is timed or traced, and check that the package works at all
    rc, _, err = run_op(WARMUP)
    if rc != 0:
        raise RuntimeError(f"warm-up failed: {err.strip()}")
    base = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    workdir = os.path.join(base, "inputs")
    tracer = tracing.Tracer() if trace else None
    if trace:
        tracer.install()
    wl, t_setup = _setup(name, seed, workdir)
    if trace:
        tracer.uninstall()
    setup_times, cold_times = [t_setup], []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        reference = None
        if trace:
            reference, _, errors = _round(wl.ops)
            problems += errors
            tracer.phase = "timed"
            tracer.install()
        else:
            rc, cold_expected, err = run_op(wl.cold)
            if rc != 0:
                raise RuntimeError(f"cold-start operation failed in-process: {err}")
            extras = _interleave(SETUP_REPEATS[name] - 1, COLD_REPEATS[name])

        rounds, op_times = [], []        # op_times: one list per round
        attempted = failed = 0
        while True:
            r0 = time.perf_counter()
            outs, times, errors = _round(wl.ops)
            rounds.append(time.perf_counter() - r0)
            op_times.append(times)
            attempted += len(wl.ops)
            failed += len(errors)
            if reference is None:
                reference = outs
                problems += errors
            for op, out, ref in zip(wl.ops, outs, reference):
                if out is not None and ref is not None and out != ref:
                    problems.append(f"{op['name']}: output differs from the "
                                    f"{'untraced' if trace else 'first'} round")
            done = sum(rounds) >= seconds
            if not trace:
                # spread the remaining samples over the rounds still expected
                left = max(1.0, (seconds - sum(rounds)) / statistics.median(rounds))
                take = len(extras) if done else -(-len(extras) // int(left + 1))
                for kind in extras[:take]:
                    if kind == "cold":
                        cold_times.append(_cold_start(wl.cold, workdir, cold_expected))
                    else:
                        d = os.path.join(base, f"setup{len(setup_times)}")
                        setup_times.append(_setup(name, seed, d)[1])
                        shutil.rmtree(d)
                extras = extras[take:]
            if done:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer.uninstall()

        if name == "analyze":
            confirm_cycle_formula()
        for op, out in zip(wl.ops, reference):
            if out is None:
                continue
            try:
                check(op, out, workdir)
            except CheckFailed as exc:
                problems.append(str(exc))
            except Exception as exc:   # a malformed report fails its check too
                problems.append(f"{op['name']}: {type(exc).__name__}: {exc}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(base, ignore_errors=True)

    wall_s = statistics.median(rounds)
    info = {"workload": name, "seed": seed, "trace": trace, "backend": qtlab.backend(),
            "rounds": len(rounds), "ops_per_round": len(wl.ops), "wall_s": wall_s,
            "problems": problems}
    if trace:
        metrics = tracing.layer_metrics(tracer, len(rounds))
        tracer.dump(os.path.join(WORK, "results", f"{name}-seed{seed}-trace.json"),
                    extra={"info": info, "metrics": metrics})
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(t for ts in op_times for t in ts),
                         "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "cold_start_s": {"value": statistics.median(cold_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
        info.update(setup_times=setup_times, cold_times=cold_times, round_times=rounds,
                    op_times=op_times)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        with open(os.path.join(WORK, "results", f"{name}-seed{seed}.json"), "w") as fh:
            json.dump({"info": info, "metrics": metrics}, fh, indent=1)
    for p in problems:
        print(f"# problem: {p}")
    print(f"# backend {info['backend']}, {len(rounds)} rounds of {len(wl.ops)} operations, "
          f"wall_s {wall_s:.4f}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _interleave(n_setup, n_cold):
    """The extra samples in an order that spreads each kind evenly."""
    items = [((k + 0.5) / n_setup, "setup") for k in range(n_setup)]
    items += [((k + 0.5) / n_cold, "cold") for k in range(n_cold)]
    return [kind for _, kind in sorted(items)]


def selftest(seed):
    """One untimed round of every workload: the outputs must pass their
    checks, and every corrupted variant listed in checks.CORRUPTIONS must be
    rejected by the check it is meant for."""
    from checks import CORRUPTIONS, CHECKS, CheckFailed, confirm_cycle_formula
    from workloads import BUILDERS

    confirm_cycle_formula()
    ok = True
    for name in WORKLOADS:
        base = os.path.join(WORK, f"selftest-{name}-{os.getpid()}")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        cwd = os.getcwd()
        caught = {}
        try:
            wl = BUILDERS[name](base, seed)
            os.chdir(base)
            outs, _, errors = _round(wl.ops)
            for e in errors:
                print(f"FAIL {name}: {e}")
                ok = False
            for op, out in zip(wl.ops, outs):
                if out is None:
                    continue
                kind = op["check"]["kind"]
                rep = json.loads(out)
                try:
                    CHECKS[kind](rep, op["check"], base)
                except CheckFailed as exc:
                    print(f"FAIL {op['name']}: correct output rejected: {exc}")
                    ok = False
                    continue
                rejected = 0
                for k, corrupt in enumerate(CORRUPTIONS[kind]):
                    bad = corrupt(rep)
                    if bad is None:
                        continue
                    caught.setdefault((kind, k), 0)
                    try:
                        CHECKS[kind](bad, op["check"], base)
                    except (CheckFailed, KeyError, ValueError, IndexError, TypeError):
                        rejected += 1
                        caught[(kind, k)] += 1
                if rejected == 0:
                    print(f"FAIL {op['name']}: no corrupted answer was rejected")
                    ok = False
                else:
                    print(f"ok   {op['name']}: {rejected} corrupted answers rejected")
        finally:
            os.chdir(cwd)
            shutil.rmtree(base, ignore_errors=True)
        for (kind, k), n in sorted(caught.items()):
            if n == 0:
                print(f"FAIL {name}: corruption {k} of {kind} was never rejected")
                ok = False
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def run_all(seed, seconds):
    """Every workload untraced, then traced, each in its own process, one
    after the other; prints both metric sets and the tracing overhead."""
    rows = []
    for name in WORKLOADS:
        res = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return 1
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            res[trace] = json.loads(lines[-1])
            res[f"wall{trace}"] = float(lines[-2].rsplit("wall_s", 1)[1])
        rows.append((name, res))
    for name, res in rows:
        r0 = res[0]
        print(f"\n== {name}: correct={r0['correct'] and res[1]['correct']} "
              f"attempted={r0['attempted']} failed={r0['failed']} (untraced), "
              f"attempted={res[1]['attempted']} failed={res[1]['failed']} (traced)")
        for key, m in r0["metrics"].items():
            print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}")
        for key, m in res[1]["metrics"].items():
            print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}")
        over = res["wall1"] - res["wall0"]
        print(f"  {'tracing overhead (traced - untraced wall_s)':<42} {over:>14.6g} s "
              f"({100 * over / res['wall0']:.1f} %)")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no qtlab sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.selftest:
        return selftest(args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
