"""Command-line front end: estimate, validate, search, sweep.

Exit codes: 0 success, 1 internal error, 2 input/parse/schema error,
3 formula-vs-measurement mismatch in validate, 4 infeasible search space.
Reports go to standard output (or the -o path, written atomically; a path
that cannot be written is an input error naming it); diagnostics go to
standard error. All randomness flows from --seed.

``main(argv)`` may be called any number of times in one process: it
returns the exit code for every outcome, a usage error (2) and ``--help``
(0) included, and never raises ``SystemExit``. The argument parser is
built on the first call and shared by the later ones. Before any file is
read, ``--seed`` must be >= 0, ``--iters`` and ``--init`` >= 1, and
``--budgets`` ascending; a flag outside its range is an input error naming
it (exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

from . import bayesopt, costmodel, interp, quant, search
from .arch import BitwidthConfig, parse_spec
from .errors import (EmptyOutput, InfeasibleSpace, NNCostError, SchemaError,
                     SpecSyntaxError, ValidationError)


def _emit(text: str, path: str | None):
    """Write the report to stdout or atomically to a file.

    A file that cannot be created, written or moved into place is an input
    error naming ``path``; no temporary file is left behind.
    """
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nncost-", text=True)
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise FileNotFoundError(
            f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    text = _read_file(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(f"{path}: malformed JSON: {exc}") from exc


def _bits(args) -> BitwidthConfig:
    """Widths from --bw/--bi/--ba; a bad one is an input error naming it."""
    for name, flag in (("b_w", "bw"), ("b_i", "bi"), ("b_a", "ba")):
        try:
            BitwidthConfig(**{name: getattr(args, flag)})
        except ValueError as exc:
            raise SpecSyntaxError(
                f"--{flag} {getattr(args, flag)}: {exc}") from exc
    return BitwidthConfig(b_w=args.bw, b_i=args.bi, b_a=args.ba)


def _at_least(args, **floors):
    """Each named integer flag must be >= its floor; a lower one is named."""
    for flag, floor in floors.items():
        value = getattr(args, flag)
        if value < floor:
            raise SpecSyntaxError(f"--{flag} {value}: must be >= {floor}")


def cmd_estimate(args) -> int:
    net = parse_spec(_read_file(args.spec))
    bits = _bits(args)
    try:
        scheme = quant.parse_scheme(args.scheme, bits.b_w)
    except ValueError as exc:
        raise SpecSyntaxError(
            f"--scheme {args.scheme} at --bw {bits.b_w}: {exc}") from exc
    report = costmodel.cost_report(net, bits, scheme)
    if args.format == "json":
        _emit(report.to_json_text() + "\n", args.output)
    else:
        _emit(report.to_csv(), args.output)
    return 0


def cmd_validate(args) -> int:
    _at_least(args, seed=0)
    net = parse_spec(_read_file(args.spec))
    bits = BitwidthConfig()
    scheme = quant.FixedUniform(bits.b_w)
    mode = "float" if args.mode == "float" else interp.FixedPoint(bits, scheme)
    record = interp.audit(net, bits, scheme, seed=args.seed, mode=mode,
                          esn_feedback=args.esn_feedback)
    _emit(record.to_json_text() + "\n", args.output)
    if record.max_abs_delta == 0:
        return 0
    print("layer  type     analytic_rm  measured  delta", file=sys.stderr)
    for entry in record.per_layer:
        measured = entry.mults + entry.shifts
        print(f"{entry.layer_index:>5}  {entry.layer_type:<8} "
              f"{entry.analytic_rm:>11}  {measured:>8}  {entry.delta:>5}",
              file=sys.stderr)
    return 3


def _space_and_task(args) -> tuple[search.SearchSpace, search.Task]:
    space = search.SearchSpace.from_json(_load_json(args.space))
    task = search.task_from_json(_load_json(args.task))
    if not 2 <= args.folds <= task.targets.size:
        raise SpecSyntaxError(f"--folds {args.folds} must satisfy 2 <= folds "
                              f"<= n_samples ({task.targets.size})")
    return space, task


def cmd_search(args) -> int:
    _at_least(args, seed=0, iters=1, init=1)
    space, task = _space_and_task(args)
    if args.budget_nabs is not None:
        space = dataclasses.replace(space, metric="nabs",
                                    budget=args.budget_nabs)
    objective = search.make_objective(space, task, k=args.folds,
                                      eval_seed=args.seed)
    # space.screen also rejects structurally invalid candidates (e.g.
    # zero-width convolutions), with or without a budget.
    best, history = bayesopt.bo_optimize(
        objective, space, max_iters=args.iters, n_init=args.init,
        seed=args.seed, constraint=space.screen)
    _emit(search.search_history_csv(space, history), args.output)
    params = space.decode(best.theta)
    print(f"best score {search.format_score(best.score)} at "
          f"{json.dumps(params, sort_keys=True)} "
          f"cost {json.dumps(best.cost, sort_keys=True)}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    _at_least(args, seed=0, iters=1, init=1)
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b]
    except ValueError as exc:
        raise SpecSyntaxError(f"bad --budgets value: {exc}") from exc
    if not budgets:
        raise SpecSyntaxError("--budgets must list at least one integer")
    if budgets != sorted(budgets):
        raise SpecSyntaxError(
            f"--budgets {args.budgets}: must be sorted ascending")
    space, task = _space_and_task(args)
    if args.metric is not None:
        space = dataclasses.replace(space, metric=args.metric)
    result = search.complexity_sweep(space, task, budgets, iters=args.iters,
                                     seed=args.seed, n_init=args.init,
                                     k=args.folds)
    _emit(result.to_csv(), args.output)
    best = max(result.points, key=lambda p: p.best_score)
    print(f"best over sweep: score {search.format_score(best.best_score)} "
          f"at budget {best.budget} "
          f"({json.dumps(best.best_params, sort_keys=True)})", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nncost`` parser, built once and shared by every ``main`` call.

    Sharing is safe because ``parse_args`` leaves the parser unchanged: it
    fills a fresh namespace on each call and reads standard output, standard
    error and the terminal width only when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="nncost",
        description="Inference-cost estimation, interpreter audits and "
                    "complexity-budgeted architecture search.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="analytic RM/BOP/NABS report")
    est.add_argument("spec")
    est.add_argument("--bw", type=int, default=8)
    est.add_argument("--bi", type=int, default=8)
    est.add_argument("--ba", type=int, default=8)
    est.add_argument("--scheme", default="uniform")
    est.add_argument("--format", choices=("csv", "json"), default="csv")
    est.add_argument("-o", "--output", default=None)
    est.set_defaults(func=cmd_estimate)

    val = sub.add_parser("validate",
                         help="audit analytic counts against execution")
    val.add_argument("spec")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--mode", choices=("float", "fixed"), default="float")
    val.add_argument("--esn-feedback", action="store_true")
    val.add_argument("-o", "--output", default=None)
    val.set_defaults(func=cmd_validate)

    srch = sub.add_parser("search", help="budgeted architecture search")
    srch.add_argument("space")
    srch.add_argument("task")
    srch.add_argument("--iters", type=int, default=20)
    srch.add_argument("--init", type=int, default=5)
    srch.add_argument("--seed", type=int, default=0)
    srch.add_argument("--budget-nabs", type=int, default=None)
    srch.add_argument("--folds", type=int, default=3)
    srch.add_argument("-o", "--output", default=None)
    srch.set_defaults(func=cmd_search)

    swp = sub.add_parser("sweep", help="score-vs-budget frontier")
    swp.add_argument("space")
    swp.add_argument("task")
    swp.add_argument("--budgets", required=True,
                     help="comma-separated ascending budgets")
    swp.add_argument("--iters", type=int, default=10)
    swp.add_argument("--init", type=int, default=5)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--metric", choices=("rm", "bop", "nabs"), default=None)
    swp.add_argument("--folds", type=int, default=3)
    swp.add_argument("-o", "--output", default=None)
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except (FileNotFoundError, SpecSyntaxError, SchemaError,
            ValidationError, EmptyOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleSpace as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NNCostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
