"""Benchmark of the tilegb CLI, driven in-process through tilegb.cli.run.

    python3 perfbench/run.py --workload division --seed 1 --seconds 36 --trace 0

One client in one process issues operations back to back (a closed loop).
The seed fixes a list of operations, a few rounds of the workload's mix;
the run goes over that list in passes until --seconds are spent, at least
MIN_PASSES times.  Input files are written before the first pass and every
answer is checked after its operation's timer stops.

Each operation is timed in wall time and bracketed by a fixed pure-Python
reference kernel (kernel_s).  The end-to-end timings scale each wall time
to reference speed, REF_KERNEL_S over the mean of the kernel times just
before and just after it, and take each operation's fastest pass.  Raw wall
figures go to stderr.  The last stdout line is a JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 instead runs the same
list three times: traced, traced again (every count must repeat exactly)
and untraced, and reports per-layer metrics, in wall time, from the set-up
and the first traced pass.  Spans are written to .perfbench/ in the
checkout.  See perfbench/NOTES.md for the workloads and what each metric is
expected to show.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Co-tenants on the shared machine the benchmark was built on (2 vCPUs of a
# 2.1 GHz Xeon) change its speed by up to 2x, for seconds to minutes at a
# time, and on all code alike.  Timings are therefore scaled to the speed at
# which the reference kernel takes REF_KERNEL_S, about its fastest time there.
REF_KERNEL_S = 0.001
KERNEL_MASK = (1 << 190) - 1
MIN_PASSES = 3
SETUPS_PER_PASS = 5  # set-ups before each pass; setup_s is the median of all
MAX_REPORTED = 5  # failed operations described on stderr


def kernel_s() -> float:
    """Wall time of a fixed reference kernel: dict updates on tuple keys and
    190-bit integer arithmetic, with the cyclic collector off.  It uses no
    tilegb code, so a change to the library cannot move it."""
    gc.disable()
    try:
        start = time.perf_counter()
        table, x = {}, 1
        for i in range(4000):
            x = (x * 3 + i) & KERNEL_MASK
            key = (i & 63, i >> 6)
            table[key] = table.get(key, 0) + x
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference(wall: float, kernels: list[float]) -> float:
    """A wall time scaled to reference speed by kernel times taken around it."""
    return wall * REF_KERNEL_S / statistics.fmean(kernels)


class Client:
    """Runs operations one after another and checks each answer."""

    def __init__(self, cli):
        self.cli = cli
        self.times: list[float] = []  # wall time of each op
        self.kernels = [kernel_s()]  # kernel times before the first op and after each
        self.failed = 0

    def run(self, op) -> None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code, out = self.cli.run(op.argv)
            except Exception:  # an escaped exception is a failed operation
                wall = time.perf_counter() - start
                problem = "raised:\n" + traceback.format_exc()
            else:
                wall = time.perf_counter() - start
                problem = None
            self.kernels.append(kernel_s())
            if problem is None:
                problem = op.check(code, out, err.getvalue())
        self.times.append(wall)
        if problem is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)

    def scaled(self) -> list[float]:
        """Each op's time at reference speed, from the kernel times just
        before and just after it."""
        return [at_reference(wall, self.kernels[i:i + 2]) for i, wall in enumerate(self.times)]


def setup(workload, warm_ops, after_import=None) -> tuple[float, Client]:
    """Fresh import of tilegb, bone_system(n) for the workload's n, and one
    untimed operation of each verb.  Returns the time this took, without
    the answer checks, and the client that ran the warm-up."""
    for name in [n for n in sys.modules if n == "tilegb" or n.startswith("tilegb.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("tilegb.cli")
    if after_import is not None:
        after_import()
    for n in workload.bone_ns:
        sys.modules["tilegb.bones"].bone_system(n)
    elapsed = time.perf_counter() - start
    client = Client(cli)
    for op in warm_ops:
        client.run(op)
    return elapsed + sum(client.times), client


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, args, inp: Inputs) -> dict:
    rng = random.Random(f"{args.workload}/{args.seed}")
    warm_ops = workload.warm(inp, random.Random(0))
    ops = workload.make_ops(inp, rng, workload.rounds)
    setups: list[float] = []
    raw_setups: list[float] = []
    warm_failed = 0
    runs: list[Client] = []  # one client per pass
    start = time.perf_counter()
    # Passes continue while another one, as long as the mean so far, still
    # ends within --seconds.
    while len(runs) < MIN_PASSES or (
            (time.perf_counter() - start) * (len(runs) + 1) / len(runs) <= args.seconds):
        for _ in range(SETUPS_PER_PASS):
            before = kernel_s()
            seconds, warm = setup(workload, warm_ops)
            setups.append(at_reference(seconds, [before, kernel_s()]))
            raw_setups.append(seconds)
            warm_failed += warm.failed
        client = Client(warm.cli)
        for op in ops:
            client.run(op)
        runs.append(client)
    attempted = sum(len(c.times) for c in runs)
    failed = sum(c.failed for c in runs)
    values = timings([c.scaled() for c in runs], setups)
    raw = timings([c.times for c in runs], raw_setups)
    print(f"{len(runs)} passes of {len(ops)} ops; wall time, not scaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)
    return {
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": metric(values["ops_per_s"], "1/s"),
            "op_ms_p50": metric(values["op_ms_p50"], "ms"),
            "op_ms_p90": metric(values["op_ms_p90"], "ms"),
            "ok_frac": metric(1 - failed / attempted, "frac"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(values["setup_s"], "s"),
        },
    }


def timings(passes: list[list[float]], setups: list[float]) -> dict[str, float]:
    """Each op's fastest pass, summarised, and the median set-up."""
    per_op = [min(t) for t in zip(*passes)]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_ms_p50": statistics.median(per_op) * 1000,
        "op_ms_p90": statistics.quantiles(per_op, n=10)[8] * 1000,
        "setup_s": statistics.median(setups),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "frac" if name.endswith("_frac") else "count"


def traced(workload, args, inp: Inputs) -> dict:
    rng = random.Random(f"{args.workload}/{args.seed}")
    warm_ops = workload.warm(inp, random.Random(0))
    tracer = spans.Tracer()
    tracer.phase("setup")
    setup_s, warm = setup(workload, warm_ops, tracer.install)
    ops = workload.make_ops(inp, rng, workload.rounds)
    clients = {}
    for phase in ("pass1", "pass2", "untraced"):
        if phase == "untraced":
            tracer.uninstall()
        else:
            tracer.phase(phase)
        clients[phase] = client = Client(warm.cli)
        for op in ops:
            client.run(op)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")

    first, second = tracer.summary(["pass1"]), tracer.summary(["pass2"])
    exact = [k for k in first if k.endswith(".calls") or k in spans.COUNTS]
    unstable = [k for k in exact if first[k] != second[k]]
    for k in unstable:
        print(f"COUNT DIFFERS between traced passes: {k} {first[k]} != {second[k]}",
              file=sys.stderr)

    values = tracer.summary(["setup", "pass1"])
    op_s = sum(clients["pass1"].times)
    untraced_s = sum(clients["untraced"].times)
    values.update({
        "trace.setup_s": setup_s,
        "trace.op_s": op_s,
        "trace.untraced_op_s": untraced_s,
        "trace.overhead_frac": op_s / untraced_s - 1,
    })
    failed = warm.failed + sum(c.failed for c in clients.values())
    return {
        "correct": failed == 0 and not unstable,
        "attempted": sum(len(c.times) for c in clients.values()),
        "failed": failed,
        "metrics": {k: metric(v, layer_unit(k)) for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tilegb" / "__init__.py").is_file():
        print(f"error: no tilegb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = traced if args.trace else end_to_end
        result = run(WORKLOADS[args.workload], args, Inputs(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
