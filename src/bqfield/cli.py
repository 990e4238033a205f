"""Command line interface.

Subcommands:

  run SCENARIO.json    step a scenario and write residual CSVs + summary.json
  shock-check FRONT.json   evaluate the jump relations for a front datum
  roots --m X,Y,Z      print the characteristic wave speeds for a normal
  selftest             run the built-in smoke checks

Exit codes: 0 success, 1 a tolerance was breached, 2 usage or input error,
3 numerical abort (non-finite state during a run), 4 an unexpected error in
``run``, while loading the scenario or running it (its traceback, then
``error: <type>: <message>``, on stderr).

The output directory for ``run`` comes from --out, or the scenario's
output_dir, or the BQFIELD_OUT environment variable, or defaults to
./bqfield_out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import numpy as np

from .runner import run_scenario
from .scenario import (
    ScenarioError,
    _complex_scalar,
    _complex_vector,
    _done,
    _medium,
    _number,
    _real_vector,
    _take,
    load_scenario,
)
from .selftest import run_selftest
from .shock import (
    FrontData,
    afield_jump_energy,
    afield_jump_residual,
    characteristic_roots,
    theta_jump_residual,
)

__all__ = ["main"]


def _cmd_run(args) -> int:
    try:
        sc = load_scenario(args.scenario)
        workers = 1 if args.reference else args.threads
        out = args.out or sc.output_dir or os.environ.get("BQFIELD_OUT") or "bqfield_out"
        report = run_scenario(sc, out_dir=out, workers=workers)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input: not the breach code
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    summ = report.summary()
    print(f"mode={summ['mode']} steps={summ['steps']} tau_final={summ['tau_final']:.6g} "
          f"wall={summ['wall_seconds']:.2f}s")
    for name, s in sorted(summ["series"].items()):
        tol = "-" if s["tolerance"] is None else f"{s['tolerance']:.3e}"
        flag = "BREACH" if s["breached"] else "ok"
        print(f"  {name:24s} max|r| = {s['max_linf']:.6e}  tol = {tol:>10s}  {flag}")
    if summ["classification"] is not None:
        print(f"  interaction energy: delta W integral = "
              f"{summ['delta_w'][-1][1]:.6e} ({summ['classification']})")
    if report.abort is not None:
        print(f"numerical abort at tau = {report.abort['tau']:.6g} "
              f"after {report.abort['steps']} steps", file=sys.stderr)
    print(f"wrote {report.out_dir}/summary.json")
    return report.exit_code


def _cmd_shock_check(args) -> int:
    try:
        with open(args.front) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ScenarioError("a front datum must be a JSON object")
        d = dict(doc)
        zero = [0.0, 0.0, 0.0]
        front = FrontData(
            m=_real_vector(_take(d, "m", "", required=True), "m"),
            jump_E=_real_vector(_take(d, "jump_E", "", default=zero), "jump_E"),
            jump_H=_real_vector(_take(d, "jump_H", "", default=zero), "jump_H"),
            jump_rho=_complex_scalar(_take(d, "jump_rho", ""), "jump_rho"),
            jump_J=_complex_vector(_take(d, "jump_J", ""), "jump_J"),
            medium=_medium(_take(d, "medium", "", default={}), "medium"),
        )
        tol = _number(_take(d, "tolerance", "", default=1e-10), "tolerance")
        _done(d, "")
    except (OSError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = {}
    results.update(afield_jump_residual(front))
    results.update(afield_jump_energy(front))
    results.update(theta_jump_residual(front))
    worst = 0.0
    for name, value in results.items():
        flag = "ok" if value <= tol else "BREACH"
        worst = max(worst, value)
        print(f"  {name:16s} {value:.6e}  {flag}")
    roots = characteristic_roots(front.m)
    print(f"  characteristic speeds: {', '.join(f'{r:+.1f}' for r in roots)}")
    return 0 if worst <= tol else 1


def _cmd_roots(args) -> int:
    try:
        m = np.asarray([float(x) for x in args.m.split(",")], dtype=float)
        roots = characteristic_roots(m)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(" ".join(f"{r:+.15g}" for r in roots))
    return 0


def _cmd_selftest(args) -> int:
    return 1 if run_selftest(verbose=True) else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bqfield",
        description="Biquaternionic field evolution and diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: $BQFIELD_OUT or ./bqfield_out)")
    run_p.add_argument("--threads", type=int, default=1,
                       help="FFT worker threads (default 1)")
    run_p.add_argument("--reference", action="store_true",
                       help="pin single-threaded FFTs for bit-reproducible output")
    run_p.set_defaults(func=_cmd_run)

    sh_p = sub.add_parser("shock-check", help="evaluate front jump relations")
    sh_p.add_argument("front", help="path to a front JSON file")
    sh_p.set_defaults(func=_cmd_shock_check)

    rt_p = sub.add_parser("roots", help="characteristic wave speeds for a unit normal")
    rt_p.add_argument("--m", default="0,0,1", help="front normal as 'x,y,z'")
    rt_p.set_defaults(func=_cmd_roots)

    st_p = sub.add_parser("selftest", help="run the built-in smoke checks")
    st_p.set_defaults(func=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "threads", 1) is not None and getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
