"""eqspike benchmark: one workload per process, one client in a closed loop.

    python3 eqbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Each call into eqspike blocks until it returns; the next call is sent only
then.  The last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

    python3 eqbench/run.py --workload all --seed 0 --seconds 30

runs every workload untraced and then traced, each in its own process, and
prints the twelve end-to-end metrics under their workload names, with the
tracing overhead of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

# The BLAS/OpenMP pools are sized before anything imports numpy.  One
# thread (never more than nproc) suits the tiny matrices and keeps the
# single closed-loop client from competing with itself.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
PINNED_CPU = min(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import (NOMINAL_KERNEL_S, Calibration, interval,  # noqa: E402
                       mark)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("train", "infer-long", "simulate")
SETUP_REPEATS = 3
# end-to-end metric -> (unit, better); every workload reports each one
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
}


def tail_percentile(n: int):
    """Highest of p99/p90/p75 that keeps at least 10 samples beyond it."""
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def git_sha(root):
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over eqspike's sources: identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "eqspike")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(args):
    import numpy as np
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "blas_threads": BLAS_THREADS,
            "nproc": NPROC, "pinned_cpu": PINNED_CPU, "git_sha": git_sha(ROOT),
            "src_sha256": src_digest(), "python": sys.version.split()[0],
            "numpy": np.__version__}


class Loop:
    """Bookkeeping of one closed loop: call times, work done, failures."""

    def __init__(self, workload):
        self.w = workload
        self.calls = []   # (wall start, wall end, CPU s) of every call
        self.busy = []    # the intervals behind `units`
        self.units = 0.0
        self.attempted = self.failed = 0
        self.infos = []

    def call(self, ctx, i, tracer=None):
        self.attempted += 1
        start = mark()
        try:
            res = self.w.op(ctx, i)
        except Exception:  # noqa: BLE001 -- count it, report it, keep going
            self.calls.append(interval(start, mark()))
            self._fail(f"op {i} raised:\n{traceback.format_exc()}")
            return
        whole = interval(start, mark())
        self.calls.append(whole)
        self.units += res.units
        self.busy.extend([whole] if res.busy is None else res.busy)
        self.infos.append(res.info)
        if tracer is None:
            fails = self.w.check(ctx, res)
        else:
            with tracer.paused():
                fails = self.w.check(ctx, res)
        if fails:
            self._fail(f"op {i}: " + "; ".join(fails))

    def finish(self, ctx):
        """The workload's closing operation, if it has one (not timed)."""
        if not hasattr(self.w, "finish"):
            return
        self.attempted += 1
        try:
            fails = self.w.finish(ctx)
        except Exception:  # noqa: BLE001
            fails = [traceback.format_exc()]
        if fails:
            self._fail("finish: " + "; ".join(fails))

    def fail(self, msg):
        self.attempted += 1
        self._fail(msg)

    def _fail(self, msg):
        self.failed += 1
        print(f"eqbench: FAILED {msg}", file=sys.stderr)


def run_untraced(w, seconds):
    """Set-up repeats, then calls until the next one would end past `seconds`."""
    setups, ctx = [], None
    for _ in range(SETUP_REPEATS):
        start = mark()
        ctx = w.setup()
        setups.append(interval(start, mark()))
    loop = Loop(w)
    start, i = perf_counter(), 0
    while True:
        if i and w.fresh_setup_per_op:
            ctx = w.setup()
        loop.call(ctx, i)
        i += 1
        wall = statistics.median(end - begin for begin, end, _c in loop.calls)
        if perf_counter() - start + wall > seconds:
            break
    loop.finish(ctx)
    return loop, setups


def end_to_end(w, loop, cal, import_iv, setups):
    lat = [cal.scale(*c) for c in loop.calls]
    busy = sum(cal.scale(*b) for b in loop.busy)
    metrics = {
        "setup_s": cal.scale(*import_iv)
                   + statistics.median(cal.scale(*s) for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - loop.failed / loop.attempted,
        "throughput_per_s": loop.units / busy if busy else 0.0,
        "latency_ms_p50": statistics.median(lat) * 1e3,
    }
    print(f"samples {len(lat)} calls, {SETUP_REPEATS} set-ups")
    print("named " + json.dumps(named_metrics(w, loop, metrics, lat)))
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}


def named_metrics(w, loop, m, lat):
    """The end-to-end metrics under their per-workload names, with units."""
    import numpy as np
    lat_ms = np.asarray(lat) * 1e3
    wall_ms = np.asarray([end - begin for begin, end, _c in loop.calls]) * 1e3
    out = {"setup_s": (m["setup_s"], "s"), "peak_rss_mb": (m["peak_rss_mb"], "MB"),
           "failed_frac": (loop.failed / loop.attempted, "frac")}
    if w.name == "train":
        out["train_examples_per_s"] = (m["throughput_per_s"], "1/s")
        out["train_pipeline_s"] = (m["latency_ms_p50"] / 1e3, "s")
        accs = [info["dev_accuracy"] for info in loop.infos]
        out["dev_accuracy"] = (accs[-1] if accs else 0.0, "frac")
    else:
        rate, per = (("infer_examples_per_s", "solve") if w.name == "infer-long"
                     else ("sim_timesteps_per_s", "sim"))
        out[rate] = (m["throughput_per_s"], "1/s")
        out[f"{per}_ms_p50"] = (m["latency_ms_p50"], "ms")
        tail = tail_percentile(len(lat_ms))
        if tail is not None:
            out[f"{per}_ms_p{tail}"] = (float(np.percentile(lat_ms, tail)), "ms")
    out["samples"] = (len(lat_ms), "count")
    out["wall_ms_p50"] = (float(np.median(wall_ms)), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def run_traced(w, tracer):
    """A fixed amount of work, traced, so that every count repeats exactly."""
    loop = Loop(w)
    tracer.install()
    try:
        tracer.setups += 1
        ctx = w.setup()
        for i in range(w.traced_ops):
            tracer.iteration = i
            if i and w.fresh_setup_per_op:
                tracer.setups += 1
                ctx = w.setup()
            loop.call(ctx, i, tracer)
        tracer.iteration = w.traced_ops
        loop.finish(ctx)
    finally:
        tracer.uninstall()
    return loop


def per_layer(w, loop, cal, tracer, env, seed):
    from layers import count_failures, layer_metrics

    summary = tracer.summary()
    lat = [cal.scale(*c) for c in loop.calls]
    metrics = layer_metrics(summary, tracer, statistics.median(lat) * 1e3)
    bad = count_failures(w, summary, tracer, w.traced_ops)
    if bad:  # the call-count assertions count as one check
        loop.fail("call counts: " + "; ".join(bad))
    else:
        loop.attempted += 1
    path = os.path.join(OUT, f"trace-{w.name}-seed{seed}.json.gz")
    tracer.dump(path, {**env, "metrics": metrics})
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for name in sorted(summary):
        rec = summary[name]
        print(f"  {name:52s} calls {rec['calls']:8d}  "
              f"incl {rec['incl_ns'] / 1e6:10.1f} ms  "
              f"self {rec['self_ns'] / 1e6:10.1f} ms")
    return metrics


def run_one(args):
    os.sched_setaffinity(0, {PINNED_CPU})  # the sampler shares the CPU
    sys.path.insert(0, SRC)
    env = environment(args)
    print("env " + json.dumps(env))
    os.makedirs(OUT, exist_ok=True)
    with Calibration() as cal, tempfile.TemporaryDirectory(dir=OUT) as workdir:
        start = mark()
        import workloads  # every eqspike module loads here
        import_iv = interval(start, mark())
        w = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                               tiny=args.shape == "tiny")
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            loop = run_traced(w, tracer)
        else:
            loop, setups = run_untraced(w, args.seconds)
    print("calibration " + json.dumps({
        "kernel_ms_p50": cal.kernel_ms_p50(), "samples": len(cal.samples),
        "nominal_kernel_ms": NOMINAL_KERNEL_S * 1e3}))
    if args.trace:
        metrics = per_layer(w, loop, cal, tracer, env, args.seed)
    else:
        metrics = end_to_end(w, loop, cal, import_iv, setups)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload untraced, then traced, each in a process of its own."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--shape", args.shape]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                print(f"eqbench: {name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            rows[(name, trace)] = result
            if not trace:
                named = json.loads(next(ln for ln in lines
                                        if ln.startswith("named "))[6:])
                print(f"== {name} (seed {args.seed}, correct {result['correct']})")
                for key, m in named.items():
                    print(f"  {key:24s} {m['value']:14.6g} {m['unit']}")
        plain = rows[(name, 0)]["metrics"]["latency_ms_p50"]["value"]
        traced = rows[(name, 1)]["metrics"]["traced.latency_ms_p50"]["value"]
        print(f"  {'tracing overhead':24s} {traced - plain:14.6g} ms per call "
              f"({(traced / plain - 1) * 100:+.1f}%)")
    correct = all(r["correct"] for r in rows.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "workloads": {f"{n}/trace{t}": r["metrics"]
                                    for (n, t), r in rows.items()}}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("default", "tiny"), default="default",
                        help="tiny: d=8, one epoch, T=30 (the smoke test's shape)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eqspike", "__init__.py")):
        print(f"eqbench: no eqspike sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
