"""Regenerate the rows of the ROADMAP "Baseline" table.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Each row is one timed run on a fixed
instance (seed 0), printed as a Markdown table on stdout, so the two curves
that grow badly, exact counting in n and the compositionality check in n,
stay tracked by number.  Takes about half a minute.  This is not one of the
gated benchmark workloads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from cdfsat.analysis import check_compositionality  # noqa: E402
from cdfsat.formula import generate_random_ksat, write_dimacs  # noqa: E402
from cdfsat.logic import dpll_solve, solve_2sat  # noqa: E402
from cdfsat.semantics import formula_image  # noqa: E402


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def _fmt(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms" if seconds < 0.1 else f"{seconds:.2f} s"


def _subprocess(argv: list[str], stdin: str = "") -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run(argv, input=stdin, text=True, env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=False)
    return perf_counter() - start


def rows() -> list[tuple[str, str, str]]:
    out = []
    count_formulas = {20: 85, 24: 100, 26: 110}
    for n, m in count_formulas.items():
        f = generate_random_ksat(n, m, 3, seed=0)
        seconds, _ = timed(formula_image, f, 26, 0)  # default cap, count only
        out.append(("`formula_image`, count only", f"random 3-SAT n={n} m={m}", _fmt(seconds)))
    two_sat = [generate_random_ksat(n, n, 2, seed=0) for n in (100, 300, 1000)]
    comp = [timed(check_compositionality, f)[0] for f in two_sat]
    solve = [timed(solve_2sat, f)[0] for f in two_sat]
    label = "random 2-SAT n=m=100 / 300 / 1000"
    out.append(("`check_compositionality`", label, " / ".join(map(_fmt, comp))))
    out.append(("`solve_2sat`", "same formulas", " / ".join(map(_fmt, solve))))
    times, nodes = [], []
    for n in (40, 60, 80):
        seconds, (_, trace) = timed(dpll_solve, generate_random_ksat(n, round(4.26 * n), 3, seed=0))
        times.append(_fmt(seconds))
        nodes.append(str(trace.node_count()))
    out.append(("`dpll_solve`", "random 3-SAT at m=4.26n, n=40 / 60 / 80",
                f"{' / '.join(times)} ({' / '.join(nodes)} trace nodes)"))
    text = write_dimacs(generate_random_ksat(24, 100, 3, seed=0))
    analyze = _subprocess([sys.executable, "-m", "cdfsat.cli", "analyze", "-", "--quiet"], text)
    out.append(("`cdfsat analyze` (subprocess)", "the n=24 formula above", _fmt(analyze)))
    cold = _subprocess([sys.executable, "-c", "import cdfsat"])
    out.append(("`import cdfsat`", "cold subprocess", _fmt(cold)))
    return out


def main() -> int:
    print("| path | instance | time |")
    print("| --- | --- | --- |")
    for path, instance, time in rows():
        print(f"| {path} | {instance} | {time} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
