"""Command-line interface.

Subcommands mirror the pipeline stages:

* ``calibrate``  — print the noise calibration and privacy accounting
  for a given budget and dataset size;
* ``perturb``    — load a raw CSV, randomize each row's statistics, and
  write the released statistics as CSV;
* ``learn``      — train a model from released statistics and save it;
* ``experiment`` — run a full mechanism-comparison experiment from a
  JSON config (flags override config fields);
* ``verify``     — run the numerical verification battery.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import run_check_suite
from .calibration import calibrate, local_dp_level, recommend_reg_cap
from .core import PrivacyBudget
from .harness import ExperimentConfig, emit_report, load_csv, run_experiment
from .loss import make_loss
from .perturb import RngStream, perturb_dataset, read_perturbed_csv, write_perturbed_csv
from .solver import learn_input_perturbed, save_model


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, required=True, help="privacy epsilon, > 0")
    parser.add_argument("--delta", type=float, required=True, help="privacy delta in (0, 1)")


def _add_loss_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--task",
        default="linear_regression",
        choices=["linear_regression", "logistic"],
        help="loss family",
    )
    parser.add_argument("--radius", type=float, default=1.0, help="model-ball radius")


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, for ``--n-grid``."""
    values = []
    for part in filter(str.strip, text.split(",")):
        try:
            values.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {part.strip()!r}") from None
    return values


def _cmd_calibrate(args: argparse.Namespace) -> int:
    budget = PrivacyBudget(args.epsilon, args.delta)
    spec = make_loss(args.task, args.radius, args.dim)
    cal = calibrate(budget, args.n, spec.constants)
    payload = {
        "calibration": cal.to_dict(),
        "ridge_floor": cal.ridge_floor,
        "recommended_reg_cap": recommend_reg_cap(spec.constants, budget),
        "local_privacy": local_dp_level(cal, spec.bound_q, spec.bound_p).to_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    dataset, _info = load_csv(
        args.input, args.target, scale=True, label_threshold=args.label_threshold
    )
    spec = make_loss(args.task, args.radius, dataset.dim)
    budget = PrivacyBudget(args.epsilon, args.delta)
    cal = calibrate(budget, len(dataset), spec.constants)
    if args.seed is None:
        import secrets  # numpy.random loads it anyway; import inputdp does not

        seed = secrets.randbits(128)  # never printed or written
    else:
        seed = args.seed
        print("inputdp perturb: warning: anyone who knows --seed can recompute the "
              "noise and remove it", file=sys.stderr)
    released = perturb_dataset(dataset, spec, cal, RngStream(seed, path=(3,)))
    write_perturbed_csv(args.out, released)
    print(f"wrote {len(released)} released rows to {args.out}")
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    released = read_perturbed_csv(args.input)
    spec = make_loss(args.task, args.radius, released.dim)
    cal = calibrate(PrivacyBudget(args.epsilon, args.delta), len(released), spec.constants)
    model = learn_input_perturbed(released, cal, reg_cap=args.reg_cap)
    save_model(args.out, model, mechanism="input", calibration=cal)
    print(f"wrote model (dim {model.dim}) to {args.out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
    else:
        payload = {}
    overrides = {
        "seed": args.seed,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "trials": args.trials,
    }
    for key, value in overrides.items():
        if value is not None:
            payload[key] = value
    if args.mechanisms is not None:
        payload["mechanisms"] = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    if args.n_grid is not None:
        payload["n_grid"] = args.n_grid
    config = ExperimentConfig.from_dict(payload)
    report = run_experiment(config, workers=args.workers)
    text = emit_report(report, args.out, fmt=args.format)
    if args.out is None:
        print(text, end="")
    else:
        print(f"wrote {args.format} report to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = run_check_suite(seed=args.seed)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        print(
            f"{status} {check['check']}: statistic {check['statistic']:.6g} "
            f"{check['direction']} bound {check['bound']:.6g}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(checks, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failed = sum(1 for c in checks if not c["pass"])
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inputdp",
        description="Differentially private learning over randomized statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="print noise calibration and privacy levels")
    _add_budget_args(p_cal)
    _add_loss_args(p_cal)
    p_cal.add_argument("--n", type=int, required=True, help="number of contributors")
    p_cal.add_argument("--dim", type=int, required=True, help="feature dimension")
    p_cal.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_pert = sub.add_parser("perturb", help="randomize a CSV dataset's statistics")
    _add_budget_args(p_pert)
    _add_loss_args(p_pert)
    p_pert.add_argument("--in", dest="input", required=True, help="raw CSV path")
    p_pert.add_argument("--target", required=True, help="label column name")
    p_pert.add_argument("--label-threshold", type=float, default=None)
    p_pert.add_argument("--seed", type=int, default=None, help="fix the noise for a "
                        "reproducible run; anyone who knows the seed can remove the noise "
                        "(default: a fresh secret seed)")
    p_pert.add_argument("--out", required=True, help="released-statistics CSV path")
    p_pert.set_defaults(func=_cmd_perturb)

    p_learn = sub.add_parser("learn", help="train from released statistics")
    _add_budget_args(p_learn)
    _add_loss_args(p_learn)
    p_learn.add_argument("--in", dest="input", required=True, help="released-statistics CSV")
    p_learn.add_argument(
        "--reg-cap", type=float, default=None,
        help="explicit ridge cap (default: the recommended cap for the budget)",
    )
    p_learn.add_argument("--out", required=True, help="model JSON path")
    p_learn.set_defaults(func=_cmd_learn)

    p_exp = sub.add_parser("experiment", help="run a mechanism-comparison experiment")
    p_exp.add_argument("--config", default=None, help="JSON config path")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--epsilon", type=float, default=None)
    p_exp.add_argument("--delta", type=float, default=None)
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--mechanisms", default=None, help="comma-separated mechanism list")
    p_exp.add_argument(
        "--n-grid", type=_int_list, default=None, help="comma-separated sample sizes"
    )
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.add_argument("--format", choices=["json", "csv"], default="json")
    p_exp.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="run the numerical verification battery")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None, help="write JSON results here")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a user error ends like an argparse one
        print(f"inputdp {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
