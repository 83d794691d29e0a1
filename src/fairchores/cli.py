"""Command-line front end: generate, solve, verify, and expose oracles.

Exit codes: 0 success (or property holds), 1 property violated, 2 bad input,
3 internal bug: a certificate or invariant the algorithm guarantees failed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional

from .core import Instance, rat
from .equilibrium import approx_ceei, default_epsilon, exact_ceei, verify_fisher_equilibrium
from .errors import AlgorithmBugError, FairChoresError, InputError
from .rounding import SolveOptions, fair_and_efficient
from .serialize import (
    allocation_from_dict,
    bundles_to_list,
    dump_json,
    dumps,
    fmt_rat,
    instance_from_dict,
    instance_to_dict,
    load_json,
    outcome_from_dict,
    outcome_to_dict,
    prices_from_dict,
)
from .three_agent import solve_three
from .verifiers import (
    check_ef1,
    check_efx,
    check_fisher_integral,
    check_fpo,
    check_nondegenerate,
    check_pef1,
    check_po_brute,
    check_proportional,
    check_tefx,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairchores",
        description="Fair and efficient allocation of indivisible chores, "
                    "with machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random integer instance")
    gen.add_argument("--agents", type=int, required=True)
    gen.add_argument("--chores", type=int, required=True)
    gen.add_argument("--maxd", type=int, default=20)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    surplus = sub.add_parser("solve-surplus",
                             help="EF1 + fPO allocation with at most n-1 copies")
    surplus.add_argument("-i", "--input", required=True)
    surplus.add_argument("-o", "--output", required=True)
    surplus.add_argument("--exact", action="store_true",
                         help="exact equilibrium (epsilon 0) at any size: the same "
                              "price loop run with no income slack; takes no --epsilon")
    surplus.add_argument("--epsilon", default=None,
                         help="override the income slack, a rational in (0, 1/(5nm)] "
                              "(default 1/(5nm)); not with --exact")
    surplus.add_argument("--trace", default=None, help="write the event trace here")

    three = sub.add_parser("solve-three", help="tEFX or proportional split for 3 agents")
    three.add_argument("-i", "--input", required=True)
    three.add_argument("-o", "--output", required=True)
    three.add_argument("--trace", default=None, help="write the iteration trace here")

    verify = sub.add_parser("verify", help="check one property of an allocation")
    verify.add_argument("-i", "--input", required=True)
    verify.add_argument("--alloc", default=None,
                        help="allocation file, or for fisher a market-outcome file "
                             "(not needed for nondeg)")
    verify.add_argument("--property", required=True,
                        choices=["ef1", "efx", "tefx", "prop", "pef1",
                                 "po", "fpo", "fisher", "nondeg"])
    verify.add_argument("--prices", default=None,
                        help="prices file for pef1, and for fisher on an allocation "
                             "(defaults to prices embedded in --alloc)")
    verify.add_argument("-o", "--output", default=None)

    oracle = sub.add_parser("oracle", help="run one oracle for external cross-checking")
    oracle.add_argument("-i", "--input", required=True)
    oracle.add_argument("--which", required=True,
                        choices=["ceei-exact", "ceei-approx"])
    oracle.add_argument("--epsilon", default=None,
                        help="income slack for ceei-approx, in [0, 1) (default "
                             "1/(5nm)); 0 gives an exact equilibrium")
    oracle.add_argument("-o", "--output", required=True)

    return parser


def _cmd_gen(args) -> tuple[int, Optional[str]]:
    if args.agents < 1 or args.chores < 0 or args.maxd < 1:
        raise InputError("need agents >= 1, chores >= 0, maxd >= 1")
    rng = random.Random(args.seed)
    rows = [[rng.randint(1, args.maxd) for _ in range(args.chores)]
            for _ in range(args.agents)]
    inst = Instance.from_rows(rows)
    dump_json(args.output, instance_to_dict(inst))
    return EXIT_OK, None


def _cmd_solve_surplus(args) -> tuple[int, Optional[str]]:
    inst = instance_from_dict(load_json(args.input))
    opts = SolveOptions(
        exact=args.exact,
        epsilon=rat(args.epsilon) if args.epsilon is not None else None)
    result = fair_and_efficient(inst, opts)
    payload = {
        "kind": "surplus",
        "agents": inst.n,
        "chores": inst.m,
        "epsilon": fmt_rat(result.epsilon),
        "prices": [fmt_rat(p) for p in result.prices],
        "bundles": bundles_to_list(result.alloc),
        "surplus": result.alloc.surplus_count,
        "certificates": [c.to_dict() for c in result.certificates],
    }
    dump_json(args.output, payload)
    if args.trace:
        dump_json(args.trace, {"events": list(result.trace),
                               "checkpoints": result.checkpoints})
    return EXIT_OK, None


def _cmd_solve_three(args) -> tuple[int, Optional[str]]:
    inst = instance_from_dict(load_json(args.input))
    result = solve_three(inst)
    payload = {
        "kind": result.kind,
        "agents": 3,
        "chores": inst.m,
        "assignment": list(result.assignment),
        "bundles": bundles_to_list(result.alloc),
        "certificates": [result.certificate.to_dict()],
        "iterations": result.iterations,
    }
    dump_json(args.output, payload)
    if args.trace:
        dump_json(args.trace, {"iterations": list(result.trace)})
    return EXIT_OK, None


def _allocation(data, inst: Instance):
    """An allocation file's bundles, checked against the instance's shape."""
    alloc = allocation_from_dict(data)
    if alloc.n != inst.n or alloc.num_chores != inst.m:
        raise InputError(
            f"allocation has {alloc.n} bundles over {alloc.num_chores} chores, "
            f"instance has {inst.n} agents and {inst.m} chores")
    return alloc


def _prices(args, alloc_data, inst: Instance):
    """Prices from ``--prices``, else from the allocation file itself."""
    prices = prices_from_dict(load_json(args.prices) if args.prices else alloc_data)
    if len(prices) != inst.m:
        raise InputError(f"{len(prices)} prices for {inst.m} chores")
    return prices


def _cmd_verify(args) -> tuple[int, Optional[str]]:
    inst = instance_from_dict(load_json(args.input))
    prop = args.property
    if prop == "nondeg":
        certificate = check_nondegenerate(inst)
    elif args.alloc is None:
        raise InputError(f"--alloc is required for {prop}")
    else:
        data = load_json(args.alloc)
        checks = {"ef1": check_ef1, "efx": check_efx, "tefx": check_tefx,
                  "prop": check_proportional, "po": check_po_brute, "fpo": check_fpo}
        if prop == "fisher" and not (isinstance(data, dict) and "bundles" in data):
            certificate = verify_fisher_equilibrium(inst, outcome_from_dict(data))
        else:
            alloc = _allocation(data, inst)
            if prop in checks:
                certificate = checks[prop](inst, alloc)
            elif prop == "pef1":
                certificate = check_pef1(_prices(args, data, inst), alloc)
            else:
                # The allocation's own Fisher claim, as solve-surplus
                # certifies it: every unit is a best-ratio chore of its holder.
                certificate = check_fisher_integral(inst, alloc, _prices(args, data, inst))
    payload = certificate.to_dict()
    text = dumps(payload)
    if args.output:
        dump_json(args.output, payload)
    return (EXIT_OK if certificate.holds else EXIT_VIOLATED), text


def _cmd_oracle(args) -> tuple[int, Optional[str]]:
    inst = instance_from_dict(load_json(args.input))
    if args.which == "ceei-exact":
        outcome = exact_ceei(inst)
    else:
        outcome = approx_ceei(inst, rat(args.epsilon) if args.epsilon is not None
                              else default_epsilon(inst.n, inst.m))
    dump_json(args.output, outcome_to_dict(outcome))
    return EXIT_OK, None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve-surplus": _cmd_solve_surplus,
        "solve-three": _cmd_solve_three,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    # Each handler returns its exit code and its text for stdout, if any.
    try:
        code, text = handlers[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AlgorithmBugError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FairChoresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if text is not None:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader left early (``verify ... | head``). The verdict
            # stands; later writes, the flush at exit included, go nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
