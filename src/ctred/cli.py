"""Command-line front end.

Subcommands: ``reduce``, ``cost``, ``norms``, ``gen``, ``repro``,
``certify``.  Exit codes: 0 success, 2 input error, 3 infeasible request
or non-stabilizing controller, 4 numerical failure.  Failures print a
machine-readable error JSON to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, certify, errors, norms, reduce as reduction, sysfile
from .decompose import modal_form
from .gen import generate_instance
from .statespace import (
    _check_loop_dims,
    _require_stabilizing,
    closed_loop_matrix,
    frequency_response,
)
from .tolerances import COR1_MATCH

EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_INPUT_ERRORS = (
    errors.DimensionError,
    errors.NonFiniteError,
    errors.UnsupportedError,
)
_INFEASIBLE_ERRORS = (
    errors.NotStabilizingError,
    errors.InfeasibleOrderError,
    errors.SynthesisError,
    errors.NoStabilizingSolutionError,
    errors.WrongCertificateError,
)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, _INPUT_ERRORS):
        return EXIT_INPUT
    if isinstance(exc, _INFEASIBLE_ERRORS):
        return EXIT_INFEASIBLE
    return EXIT_NUMERICAL


def _emit_error(exc: Exception) -> int:
    code = _exit_code(exc)
    doc = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    print(json.dumps(doc, sort_keys=True))
    return code


def _dump_json(doc, path=None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path, rows) -> None:
    lines = ["epsilon,delta_hinf,cost_gap_ratio"]
    for eps, dh, ratio in rows:
        lines.append(f"{eps!r},{dh!r},{ratio!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _modal_blocks_for_order(md, target_order: int) -> int:
    """Smallest number of blocks of ``md`` to remove to reach the target order."""
    order = sum(b.order for b in md.blocks)
    removed = 0
    for i in reduction.mode_ranking(md):
        if order <= target_order:
            break
        order -= md.blocks[i].order
        removed += 1
    if order > target_order:
        raise errors.InfeasibleOrderError(
            f"cannot reach order {target_order} by removing whole blocks"
        )
    return removed


def _cmd_reduce(args) -> int:
    g, _ = sysfile.load_system(args.plant)
    k, _ = sysfile.load_system(args.controller)
    _require_stabilizing(closed_loop_matrix(g, k))
    if args.method == "balanced":
        if args.order is None:
            raise errors.InfeasibleOrderError("balanced reduction needs --order")
        result = reduction.balanced_truncate_unstable(k, args.order)
    else:
        if args.blocks is None and args.order is None:
            raise errors.InfeasibleOrderError("modal reduction needs --blocks or --order")
        md = modal_form(k)
        r_red = args.blocks
        if r_red is None:
            r_red = _modal_blocks_for_order(md, args.order)
        result = reduction.modal_truncate_decomposition(md, r_red)
    sysfile.save_system(args.out, result.reduced, name="reduced-controller")
    report = {
        "method": result.method,
        "original_order": k.n,
        "reduced_order": result.reduced.n,
        "truncated_tail": list(result.truncated_tail),
        "out": str(args.out),
    }
    if args.certify:
        if result.method == "balanced":
            cert = certify.check_cor1(g, k, result)
        else:
            try:
                cert = certify.check_cor2(g, k, result.reduced)
            except errors.WrongCertificateError:  # the error system is unstable
                cert = certify.check_thm3(g, k, result.reduced)
        report["certificates"] = [cert.to_dict()]
    report_path = args.report or str(Path(args.out).with_suffix(".report.json"))
    _dump_json(report, report_path)
    if not args.quiet:
        print(f"reduced controller of order {result.reduced.n} written to {args.out}")
    return 0


def _cmd_cost(args) -> int:
    g, _ = sysfile.load_system(args.plant)
    k, _ = sysfile.load_system(args.controller)
    total, parts = certify.lqg_cost_blocks(g, k)
    if args.json:
        _dump_json({"cost": total, "block_contributions": parts})
    else:
        print(f"cost = {total:.6g}")
        labels = ("noise->output", "measurement->output",
                  "noise->input", "measurement->input")
        for label, value in zip(labels, parts):
            print(f"  {label}: {value:.6g}")
    return 0


def _cmd_norms(args) -> int:
    s, _ = sysfile.load_system(args.system)
    fn = {
        "h2": norms.h2_norm,
        "hinf": norms.hinf_norm,
        "l2": norms.l2_norm,
        "linf": norms.linf_norm,
    }[args.which]
    value = fn(s)
    if args.json:
        _dump_json({args.which: value})
    else:
        print(f"{value:.8g}")
    return 0


def _cmd_gen(args) -> int:
    g, k = generate_instance(args.order, args.unstable, args.seed)
    prefix = Path(args.out)
    plant_path = prefix.with_name(prefix.name + ".plant.json")
    ctrl_path = prefix.with_name(prefix.name + ".controller.json")
    sysfile.save_system(plant_path, g, name=f"generated-plant-seed{args.seed}")
    sysfile.save_system(ctrl_path, k, name=f"generated-controller-seed{args.seed}")
    if not args.quiet:
        print(f"wrote {plant_path} and {ctrl_path}")
    return 0


def _cmd_repro(args) -> int:
    out = args.out or f"{args.which}_report.json"
    if args.which == "table1":
        report = benchmarks.run_balanced_vs_modal()
    elif args.which == "unstable":
        report = benchmarks.run_unstable_truncation()
    else:
        report, rows = benchmarks.run_scaling_sweep()
        csv_path = Path(out).with_suffix(".csv")
        _write_csv(csv_path, rows)
        report["csv"] = str(csv_path)
    _dump_json(report, out)
    if not args.quiet:
        checks = report.get("reference_checks", {})
        for name, chk in sorted(checks.items()):
            status = "pass" if chk.get("pass") else "FAIL"
            print(f"{args.which}:{name}: {status}")
        print(f"report written to {out}")
    return 0


def _check_cor1(g, k, k_r):
    """cor1 on the balanced truncation recomputed at the order of ``k_r``."""
    _check_loop_dims(g, k_r)  # before the order of k_r picks the truncation
    result = reduction.balanced_truncate_unstable(k, k_r.n)
    ws = np.logspace(-3, 3, 20)
    resp_given = frequency_response(k_r, ws)
    resp_comp = frequency_response(result.reduced, ws)
    scale = max(np.max(np.abs(resp_comp)), 1.0)
    if np.max(np.abs(resp_given - resp_comp)) > COR1_MATCH * scale:
        raise errors.WrongCertificateError(
            "provided reduced controller does not match the balanced "
            "truncation at its order; cor1 does not apply"
        )
    return certify.check_cor1(g, k, result)


_CERTIFICATES = {
    "lemma3": certify.check_lemma3,
    "thm1": certify.check_thm1,
    "thm2": certify.check_thm2_bound,
    "cor1": _check_cor1,
    "cor2": certify.check_cor2,
    "thm3": certify.check_thm3,
}


def _cmd_certify(args) -> int:
    g, _ = sysfile.load_system(args.plant)
    k, _ = sysfile.load_system(args.controller)
    k_r, _ = sysfile.load_system(args.reduced)
    doc = _CERTIFICATES[args.theorem](g, k, k_r).to_dict()
    _dump_json(doc, args.out)
    if args.out and not args.quiet:
        print(f"certificate written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctred",
        description="Reduce LQG controller order with stability/performance certificates.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a controller's order")
    p.add_argument("plant")
    p.add_argument("controller")
    p.add_argument("--method", choices=("balanced", "modal"), required=True)
    p.add_argument("--order", type=int, help="target order of the reduced controller")
    p.add_argument("--blocks", type=int, help="number of modal blocks to remove")
    p.add_argument("--out", required=True, help="output system file")
    p.add_argument("--certify", action="store_true",
                   help="attach the matching certificate to the report")
    p.add_argument("--report", help="report path (default: <out>.report.json)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("cost", help="closed-loop quadratic cost of a loop")
    p.add_argument("plant")
    p.add_argument("controller")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("norms", help="system norms of a system file")
    p.add_argument("system")
    p.add_argument("--which", choices=("h2", "hinf", "l2", "linf"), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("gen", help="generate a random stabilizing plant/controller pair")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--unstable", type=int, default=0,
                   help="number of antistable controller modes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("repro", help="run a bundled benchmark experiment")
    p.add_argument("which", choices=("table1", "unstable", "scaling"))
    p.add_argument("--out", help="report path (default: <which>_report.json)")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser("certify", help="evaluate a certificate for a reduced controller")
    p.add_argument("plant")
    p.add_argument("controller")
    p.add_argument("reduced")
    p.add_argument("--theorem", required=True,
                   choices=tuple(_CERTIFICATES))
    p.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.CtredError as exc:
        return _emit_error(exc)
    except (OSError, json.JSONDecodeError) as exc:
        return _emit_error(errors.DimensionError(str(exc)))
    except np.linalg.LinAlgError as exc:
        return _emit_error(errors.ConvergenceError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
