"""Benchmark of the `waring` CLI.

    python3 benchmarks/run.py --workload exact_certify --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  The process is one workload: it repeats the
workload's round of `waring` subcommands, each called in-process through
`waring.cli.main(argv)` with stdout captured, until `--seconds` have passed and
at least MIN_OPS operations have run; then it prints one JSON line.  Each
operation's output is checked by `checks.py`, which does not use the package.

CPU speed on small shared hosts drifts by 1.5x within seconds, so every
operation's time is divided by the time of a short reference loop run on the
same CPU before, after and during it (see `clock.py`); times are reported in
that unit, `ref`.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
rounds with rounds traced by `layertrace.py` and prints the per-layer metrics
and the tracing overhead.  Details go to benchmarks/results/.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported by `waring`
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MIN_OPS = 40  # op_tail_ref is the 75th percentile: at least ten operations lie beyond it
SETUP_PROBES = 7
HARD_STOP_S = 150.0  # no new round after this, whatever --seconds says

sys.path.insert(0, str(HERE))

from clock import RefClock, pin_to_one_cpu  # noqa: E402


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(name: str, seed: int):
    """Import the package from the checkout and build the round: the part users wait for."""
    sys.path.insert(0, str(SRC))
    from waring import cli

    import workloads

    return cli, workloads.build(name, seed)


def measure_setup(args) -> float:
    """Median over fresh interpreters of the wall time from spawn until the workload is ready.

    Raw seconds: start-up is mostly process creation, imports and page faults,
    which the reference loop does not track.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit("setup probe failed")
        times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Runs rounds, timing each operation against the reference loop, and checks outputs."""

    def __init__(self, cli, ops, tracer=None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.times: list[float] = []  # normalized time of every operation run
        self.by_label: dict[str, list[float]] = {}
        self.round_seconds: list[float] = []  # raw seconds of each round's operations
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: dict[str, str] = {}
        self.layer_ref: dict[str, list[float]] = {}  # traced rounds: label -> [calls, total, self]
        self.clock = RefClock()

    def _call(self, argv, stdin_text):
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                return self.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code
            except Exception as exc:  # a traceback is a failed operation, not a crash of the run
                return f"{type(exc).__name__}: {exc}"

        saved_stdin = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, timing = self.clock.time(call)
        finally:
            sys.stdin = saved_stdin
        return code, timing, out.getvalue()

    def run_round(self, traced: bool) -> float:
        if traced:
            self.tracer.install()
        ctx: dict = {}
        total = seconds = 0.0
        try:
            for op in self.ops:
                if traced:
                    self.tracer.new_command()
                stdin_text = ctx.get(op.stdin_from) if op.stdin_from else None
                # a command run alone starts with no garbage from earlier ones
                gc.collect()
                code, timing, stdout = self._call(op.argv, stdin_text)
                self.times.append(timing.refs)
                self.by_label.setdefault(op.label, []).append(timing.refs)
                total += timing.refs
                seconds += timing.seconds
                if traced:
                    # sampler time falls on whatever function was running: scale it out
                    self._fold_layers(timing.ref * timing.wall / timing.seconds)
                if op.key:
                    ctx[op.key] = stdout
                self._judge(op, code, stdout, ctx)
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_seconds.append(seconds)
        return total

    def _fold_layers(self, ref: float):
        for label, (calls, total, self_s) in self.tracer.stats.items():
            if calls:
                acc = self.layer_ref.setdefault(label, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total / ref
                acc[2] += self_s / ref
        for s in self.tracer.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0

    def _judge(self, op, code, stdout, ctx):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures[op.label] = f"exit {code}: {stdout.strip()[:200]}"
            return
        try:
            reason = op.check(json.loads(stdout), ctx)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.wrong.append(f"{op.label}: {reason}")


def end_to_end(runner: Runner, batches, setup_s: float) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "batch_ref": {"value": statistics.median(batches), "unit": "ref"},
        "op_p50_ref": {"value": statistics.median(runner.times), "unit": "ref"},
        "op_tail_ref": {"value": statistics.quantiles(runner.times, n=4)[2], "unit": "ref"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(runner: Runner, tracer, plain, traced) -> dict:
    """Per-round counts and layer self times from the traced rounds, plus the tracing overhead."""
    rounds = len(traced)
    counts = {k: v / rounds for k, v in tracer.counts.items()}
    out = {}
    for name in ("cyclotomic.scalars_created", "polynomial.power_terms", "solver.trace_dim",
                 "groebner.basis_size", "linalg.exact_rank_calls"):
        out[name] = {"value": counts[name], "unit": "count"}
    calls = counts["solver.trace_calls"]
    phis = counts["solver.trace_phis"]
    out["solver.trace_calls_per_phi"] = {"value": calls / phis if phis else 0.0, "unit": "ratio"}
    layer_calls = dict.fromkeys(tracer.modules, 0)
    layer_self = dict.fromkeys(tracer.modules, 0.0)
    for label, (n, _, self_ref) in runner.layer_ref.items():
        layer = label.split(".")[0]
        layer_calls[layer] += n
        layer_self[layer] += self_ref
    for layer in tracer.modules:
        out[f"{layer}.calls"] = {"value": layer_calls[layer] / rounds, "unit": "count"}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_ref"] = {"value": layer_self[layer] / rounds, "unit": "ref"}
    base = statistics.median(plain)
    out["batch_ref_traced"] = {"value": statistics.median(traced), "unit": "ref"}
    out["tracing_overhead_ref"] = {"value": statistics.median(traced) - base, "unit": "ref"}
    return out


# Layers every workload calls, so their self time is never an empty reading.
SELF_TIME_LAYERS = ("cli", "serialize", "monomials", "polynomial")


def write_details(args, runner: Runner, summary: dict, batches, traced_batches):
    RESULTS.mkdir(exist_ok=True)
    rounds = max(1, len(traced_batches))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "ops_per_round": len(runner.ops),
        "batches_ref": batches,
        "rounds_s": runner.round_seconds,
        "traced_batches_ref": traced_batches,
        "op_median_ref": {k: statistics.median(v) for k, v in runner.by_label.items()},
        "failures": runner.failures,
        "wrong": runner.wrong,
        "functions": {
            label: {"calls": n / rounds, "total_ref": t / rounds, "self_ref": s / rounds}
            for label, (n, t, s) in sorted(runner.layer_ref.items())
        },
        "summary": summary,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "waring" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'waring'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        load_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    pin_to_one_cpu()
    setup_s = None if args.trace else measure_setup(args)
    cli, ops = load_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layertrace import LayerTracer

        tracer = LayerTracer()
    runner = Runner(cli, ops, tracer)
    start = perf_counter()
    batches, traced_batches = [], []
    while True:
        if args.trace:
            batches.append(runner.run_round(traced=False))
            traced_batches.append(runner.run_round(traced=True))
        else:
            batches.append(runner.run_round(traced=False))
        elapsed = perf_counter() - start
        enough = elapsed >= args.seconds and (args.trace or runner.attempted >= MIN_OPS)
        if enough or elapsed >= HARD_STOP_S:
            break
    if args.trace:
        metrics = per_layer(runner, tracer, batches, traced_batches)
    else:
        metrics = end_to_end(runner, batches, setup_s)
    for line in runner.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    for label, why in runner.failures.items():
        print(f"FAILED {label}: {why}", file=sys.stderr)
    summary = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    path = write_details(args, runner, summary, batches, traced_batches)
    print(f"details: {path.relative_to(HERE.parent)}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
