"""Command-line front end: JSON in, JSON or CSV out.

Exit codes: 0 success, 1 domain or validation error (JSON error object on
stderr), 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys

import numpy as np

from . import core, dual, improve, nature, optset, solve
from .core import GridMechanism, Instance, LinearScoreAuction, corner_hitting
from .errors import DomainError


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_instance(data) -> Instance:
    try:
        return Instance(operator.index(data["n"]), data["means"], data["vmax"])
    except KeyError as exc:
        raise DomainError(f"instance file missing key {exc}") from exc
    except (TypeError, DomainError) as exc:
        raise DomainError(f"invalid instance file: {exc}") from exc


def _parse_mechanism(data, instance: Instance):
    if not isinstance(data, dict):
        raise DomainError("mechanism file must hold a JSON object")
    kind = data.get("type")
    try:
        if kind == "corner_hitting":
            return corner_hitting(data["reserves"], instance.vmax)
        if kind == "lsa":
            alphas = tuple(float(a) for a in data["alphas"])
            betas = tuple(float(b) for b in data["betas"])
            excluded = tuple(bool(e) for e in data.get(
                "excluded", [False] * instance.n))
            return LinearScoreAuction(alphas, betas, instance.vmax, excluded)
        if kind == "grid":
            return GridMechanism(data["coords"], data["thresholds"])
    except (TypeError, DomainError) as exc:
        raise DomainError(f"invalid mechanism file: {exc}") from exc
    raise DomainError(f"unknown mechanism type {kind!r}")


def cmd_optimal(args) -> dict:
    instance = _parse_instance(_load_json(args.instance))
    sol = solve.optimal_reserves(instance)
    return {
        "type": "corner_hitting",
        "regime": sol.regime.value,
        "lambda": sol.lambda_star,
        "k_star": sol.k_star,
        "weakly_excluded": sorted(sol.weakly_excluded),
        "reserves": sol.reserves_canonical,
        "guarantee": sol.guarantee,
        "reserve_set": {k: v for k, v in
                        dataclasses.asdict(sol.reserve_set).items()
                        if v is not None},
    }


def cmd_evaluate(args) -> dict:
    instance = _parse_instance(_load_json(args.instance))
    mech = _parse_mechanism(_load_json(args.mechanism), instance)
    core.check_feasible(mech)
    step = args.grid_step
    if step is None and isinstance(mech, GridMechanism):
        step = 0.05 * min(instance.vmax)
    value, dist, cert, _ = nature.mechanism_guarantee(mech, instance, step=step)
    return {
        "guarantee": value,
        "lambda": cert.lam,
        "lambda0": cert.lambda0,
        "dual_value": cert.value,
        "worst_case": dataclasses.asdict(dist),
    }


def cmd_worst_case(args) -> dict:
    instance = _parse_instance(_load_json(args.instance))
    r = [float(x) for x in args.reserves.split(",")]
    kind = nature.wcdistr2_classify(r, instance)
    dist = nature.wcdistr2_construct(r, instance)
    lam = nature.lsa2_dual_multipliers(r, instance)
    return {
        "type": kind.value,
        "lambda": lam,
        "guarantee": nature.lsa2_guarantee(r, instance),
        "distribution": dataclasses.asdict(dist),
    }


def cmd_improve(args) -> dict:
    instance = _parse_instance(_load_json(args.instance))
    mech = _parse_mechanism(_load_json(args.mechanism), instance)
    lsa, audit = improve.dominating_lsa(mech, instance)
    reserves = [lsa.reserve(i) for i in range(lsa.n)]
    try:
        out_guarantee = dual.lsa_guarantee(reserves, instance)[0]
    except DomainError:
        out_guarantee = nature.mechanism_guarantee(lsa, instance)[0]
    audit = dataclasses.asdict(audit)
    audit["lambda"] = audit.pop("lam")
    return {"type": "corner_hitting", "reserves": reserves,
            "guarantee": out_guarantee, "audit": audit}


def cmd_member(args) -> dict:
    instance = _parse_instance(_load_json(args.instance))
    mech = _parse_mechanism(_load_json(args.mechanism), instance)
    core.check_feasible(mech)
    ok, witness = optset.member(mech, instance)
    return {"member": ok,
            "witness": None if witness is None else dataclasses.asdict(witness)}


def cmd_plot_data(args) -> str:
    instance = _parse_instance(_load_json(args.instance))
    rows = []
    if args.figure == "regimes":
        vmax = instance.common_vmax()
        rows.append("m1,m2,regime,weakly_excluded")
        grid = np.linspace(0.02, 0.98, 49) * vmax
        for m1 in grid:
            for m2 in grid:
                means = [m1] + [m2] * (instance.n - 1)
                inst = Instance(instance.n, means, instance.vmax)
                _, _, we = solve.optimal_lambda(inst)
                rows.append("%.17g,%.17g,%s,%d"
                            % (m1, m2, solve.regime(inst).value, len(we)))
    elif args.figure == "reserve-set":
        sol = solve.optimal_reserves(instance)
        rows.append("label," + ",".join(f"r{i + 1}" for i in range(instance.n)))
        if sol.reserve_set.kind == "point":
            rows.append("point," + ",".join("%.17g" % v
                                            for v in sol.reserve_set.point))
        else:
            rows.append("low," + ",".join("%.17g" % v
                                          for v in sol.reserve_set.endpoint_low))
            rows.append("high," + ",".join("%.17g" % v
                                           for v in sol.reserve_set.endpoint_high))
    elif args.figure == "wc-types":
        if instance.n != 2:
            raise DomainError("wc-types figure needs two bidders")
        vmax = instance.common_vmax()
        rows.append("r1,r2_boundary")
        for r1 in np.linspace(0.0, instance.means[0] * 0.999, 200):
            r2 = nature.wc_boundary_r2(float(r1), instance)
            rows.append("%.17g,%.17g" % (r1, min(max(r2, 0.0), vmax)))
    return "\n".join(rows) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmin-auction",
        description="Worst-case optimal auctions from means and support bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimal", help="optimal reserve auction for an instance")
    p.add_argument("instance")
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("evaluate", help="worst-case revenue of a mechanism")
    p.add_argument("instance")
    p.add_argument("mechanism")
    p.add_argument("--grid-step", type=float, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("worst-case", help="closed-form worst case (n = 2)")
    p.add_argument("instance")
    p.add_argument("--reserves", required=True)
    p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("improve", help="dominating reserve auction")
    p.add_argument("instance")
    p.add_argument("mechanism")
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("member", help="optimal-set membership (n = 2)")
    p.add_argument("instance")
    p.add_argument("mechanism")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("plot-data", help="CSV data for the standard figures")
    p.add_argument("instance")
    p.add_argument("--figure", required=True,
                   choices=["regimes", "reserve-set", "wc-types"])
    p.set_defaults(func=cmd_plot_data)
    return parser


_PARSER = build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        result = args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        sys.stdout.write(json.dumps(result, sort_keys=True, separators=(",", ":"),
                                    default=np.ndarray.tolist) + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
