"""End-to-end and per-layer benchmark of the `cdfsat` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the checkout's
own ``src/cdfsat``; nothing is installed or built.

One client in one process runs a closed loop over the workload's command
list (``workloads.py``), calling ``cdfsat.cli.main(argv)`` with stdin, stdout
and stderr held in memory.  A pass runs every command once.  A run makes
whole passes for ``--seconds``: it starts another pass while the last one
would still fit, and makes at least three.  Every command's stdout bytes and
exit code are compared across passes.

A command's latency is its best time over the passes.  On a shared 2-vCPU
Xeon VM the CPU switches between a fast and a 1.6 times slower state, from
milliseconds to minutes at a time; a command of a few milliseconds that runs
many times meets the fast state at least once, so its best time is steady
where its mean is not.  The latency percentiles are taken over the
commands, and ``ops_per_s`` is the command count over the sum of the best
times, so none of them depends on how many passes fit.  They cover the
commands that succeeded in every pass; failures count in ``success_share``.

Some stretches of a minute or more never reach the fast state, so the
command timings are reported at a nominal host speed: a fixed pure-Python
job (``Reference``) is timed between commands, and every time is multiplied
by ``REFERENCE_NOMINAL_S`` over the job's best time in the run.  The
values as measured and the factor are in the details line.

After the timed phase and after peak RSS is sampled, the first pass's
outputs are checked against independent references (``verify.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with per-layer spans (``tracing.py``), at least one
pass each, and reports the per-layer metrics as means per pass plus the
tracing overhead.

Standard output ends with two JSON lines: the run's details (seed, command
digest, tail percentile, failures) and the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# Host-speed reference: a fixed pure-Python job timed before every
# REFERENCE_EVERY-th command.  Timing metrics are reported at the host speed
# where its best time is REFERENCE_NOMINAL_S.
REFERENCE_EVERY = 16
REFERENCE_NOMINAL_S = 0.003


class Reference:
    """``refsolver`` refuting a fixed random 3-SAT formula three times.

    Neither the job nor its input depends on ``cdfsat`` or on the seed.  A
    run's best reference time tracks the host's speed over the run; see
    README.md, *Bounds and host noise*.
    """

    def __init__(self):
        import refsolver

        rng = random.Random("reference")
        self.n = 20
        self.clauses = [[v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, self.n + 1), 3)]
                        for _ in range(5 * self.n)]
        self.solve = refsolver.satisfiable
        if self.solve(self.clauses, self.n):
            raise SystemExit("perfbench: the reference formula must be UNSAT")
        self.times: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(3):
            self.solve(self.clauses, self.n)
        self.times.append(perf_counter() - start)

    def scale(self) -> float:
        """Factor taking a time measured in this process to nominal host speed."""
        return REFERENCE_NOMINAL_S / min(self.times)


def _import_cli():
    """Import ``cdfsat.cli`` from this checkout's ``src``, and only from there."""
    src = (ROOT / "src").resolve()
    if not (src / "cdfsat" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no cdfsat package under {src}")
    sys.path.insert(0, str(src))
    import cdfsat.cli

    if Path(cdfsat.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: cdfsat must come from {src}, got {cdfsat.cli.__file__}")
    return cdfsat.cli


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, build the inputs, report."""
    _import_cli()
    import workloads

    print(workloads.digest(workloads.build(workload, seed)), flush=True)


def measure_setup(workload: str, seed: int) -> tuple[float, str]:
    """Median seconds from process start until the first command could be
    issued, over fresh processes; also the command digest they built."""
    times, digests = [], set()
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            times.append(perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or not line:
            raise SystemExit("perfbench: set-up probe failed")
        digests.add(line)
    if len(digests) != 1:
        raise SystemExit("perfbench: set-up probes built different command lists")
    return statistics.median(times), digests.pop()


class Execution:
    """One command run once: time, exit code (or exception name), output."""

    __slots__ = ("seconds", "code", "error", "digest", "size", "stored")

    def __init__(self, seconds, code, error, data: bytes, keep: bool):
        self.seconds = seconds
        self.code = code
        self.error = error
        self.digest = hashlib.sha1(data).digest()
        self.size = len(data)
        self.stored = zlib.compress(data, 1) if keep else None


def run_command(cli, argv, stdin_text: str, keep: bool) -> tuple[Execution, str]:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    code = error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # an uncaught exception is a failed command
                error = type(exc).__name__
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    text = out.getvalue()
    return Execution(seconds, code, error, text.encode(), keep), text


def run_pass(cli, commands, keep: bool, tracer=None, reference=None) -> list[Execution]:
    sources = {c.pipe_from for c in commands if c.pipe_from is not None}
    piped: dict[int, str] = {}
    results = []
    for i, cmd in enumerate(commands):
        stdin_text = cmd.stdin if cmd.pipe_from is None else piped.get(cmd.pipe_from, "")
        if tracer is not None:
            tracer.command = i
        if reference is not None and i % REFERENCE_EVERY == 0:
            reference.sample()
        execution, text = run_command(cli, cmd.argv, stdin_text, keep)
        if tracer is not None:
            tracer.counters["cli.stdout_bytes"] += execution.size
        if i in sources:
            piped[i] = text
        results.append(execution)
    return results


def run_until(cli, commands, deadline: float, minimum: int, keep_first: bool,
              tracer=None, reference=None) -> list[list[Execution]]:
    """Whole passes until the next one would end after ``deadline``; at
    least ``minimum`` of them."""
    passes = []
    while True:
        start = perf_counter()
        passes.append(run_pass(cli, commands, keep=keep_first and not passes, tracer=tracer,
                               reference=reference))
        end = perf_counter()
        if len(passes) >= minimum and end + (end - start) > deadline:
            return passes


def best_latencies(passes: list[list[Execution]]) -> list[float]:
    """Each command's best time over the passes."""
    return [min(ex.seconds for ex in column) for column in zip(*passes)]


def tail_percentile(commands: int) -> float:
    """The highest listed percentile with at least ten commands beyond it."""
    for p in TAIL_PERCENTILES:
        if commands * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def judge(commands, passes, verifier) -> tuple[int, int, list[dict], bool, set[int]]:
    """Count failed and partial executions; check pass-1 outputs.

    A failure is an uncaught exception, exit 1, a wrong output, or an
    output or exit code differing from the first pass.  ``correct`` is False
    when anything fails other than a known reproducer raising.  Also
    returns the indices of the commands that failed in any pass.
    """
    first = passes[0]
    wrong: dict[int, str] = {}
    for i, (cmd, ex) in enumerate(zip(commands, first)):
        if ex.error is not None or ex.code not in (0, 2):
            continue
        out = zlib.decompress(ex.stored).decode()
        piped_in = None
        if cmd.pipe_from is not None:
            piped_in = zlib.decompress(first[cmd.pipe_from].stored).decode()
        reason = verifier.check(cmd, ex.code, out, piped_in)
        if reason is not None:
            wrong[i] = reason
    failed = partial = 0
    failures: dict[str, dict] = {}
    failing: set[int] = set()
    correct = True
    for run in passes:
        for i, (cmd, ex) in enumerate(zip(commands, run)):
            ref = first[i]
            if ex.error is not None:
                why = f"raised {ex.error}"
            elif ex.code not in (0, 2):
                why = f"exit {ex.code}"
            elif (ex.code, ex.digest) != (ref.code, ref.digest):
                why = "output differs between passes"
            elif i in wrong:
                why = f"wrong output: {wrong[i]}"
            else:
                partial += ex.code == 2
                continue
            failed += 1
            failing.add(i)
            expected = cmd.known_failure is not None and ex.error is not None
            correct = correct and expected
            entry = failures.setdefault(cmd.label, {"command": cmd.label, "why": why,
                                                     "known": cmd.known_failure, "count": 0})
            entry["count"] += 1
    return failed, partial, list(failures.values()), correct, failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    cli = _import_cli()
    setup_s, probe_digest = measure_setup(args.workload, args.seed)
    import tracing
    import verify
    import workloads

    commands = workloads.build(args.workload, args.seed)
    digest = workloads.digest(commands)
    if digest != probe_digest:
        raise SystemExit("perfbench: command list differs from the set-up probes'")

    start = perf_counter()
    if args.trace:
        plain = run_until(cli, commands, start + args.seconds / 2, 1, keep_first=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_until(cli, commands, start + args.seconds, 1, keep_first=False,
                               tracer=tracer)
        finally:
            tracer.restore()
        passes = plain + traced
    else:
        reference = Reference()
        passes = run_until(cli, commands, start + args.seconds, MIN_PASSES, keep_first=True,
                           reference=reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verifier = verify.Verifier(verify.load_oracles(ROOT))
    failed, partial, failures, correct, failing = judge(commands, passes, verifier)
    attempted = len(commands) * len(passes)
    # Timings cover the commands that succeeded in every pass; failures
    # count in success_share.
    timed = [i for i in range(len(commands)) if i not in failing]

    def best_of_timed(group):
        best = best_latencies(group)
        return [best[i] for i in timed]

    def throughput(group):
        """Commands per second at each command's best time."""
        return len(timed) / sum(best_of_timed(group))

    latencies = best_of_timed(passes)
    tail_p = tail_percentile(len(timed))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "commands_digest": digest,
        "commands_per_pass": len(commands),
        "timed_commands": len(timed),
        "passes": len(passes),
        "latency_tail_percentile": tail_p,
        "latency_samples": attempted,
        "measured_ops_per_s": attempted / sum(ex.seconds for run in passes for ex in run),
        "fail_share": failed / attempted,
        "partial_share": partial / attempted,
        "failures": failures,
    }
    if args.trace:
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        details.update(traced_passes=len(traced), spans=str(spans.relative_to(ROOT)))
        values = tracer.metrics(len(traced))
        values["trace.overhead_ops_per_s"] = (throughput(plain) - throughput(traced), "ops/s")
    else:
        scale = reference.scale()
        raw = {
            "ops_per_s": throughput(passes),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": percentile(latencies, tail_p),
        }
        details.update(measured=raw, reference_best_s=min(reference.times),
                       reference_samples=len(reference.times), host_scale=scale)
        values = {
            "ops_per_s": (raw["ops_per_s"] / scale, "ops/s"),
            "latency_p50_s": (raw["latency_p50_s"] * scale, "s"),
            "latency_tail_s": (raw["latency_tail_s"] * scale, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "success_share": (1.0 - failed / attempted, "ratio"),
            "complete_share": (1.0 - partial / attempted, "ratio"),
        }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
