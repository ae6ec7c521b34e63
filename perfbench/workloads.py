"""The four workloads: their inputs, the timed call, and its checks.

A workload builds a pool of entries from a seeded generator, runs one entry
per operation through the program's public functions, and checks each output
against a reference computed by another route.  ``check`` returns the names
of the checks an output fails; names in ``ERRORS`` count as errors, the rest
as wrong outputs.  ``mutations`` gives deliberately wrong copies of a real
output, each with the check that must catch it, for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import inputs
import maxmin_auction as ma
from maxmin_auction import cli, dual, nature, solve

ERRORS = {"exit_code"}

# Failures of two open defects are counted as wrong outputs and reported by
# name; every other failure makes the run incorrect.
# - The grid LP undershoots the multiplier LP on tabulated auctions with
#   n >= 3 (ROADMAP item 1: the lower envelope zeroes no-sale ties, and the
#   3-point tabulation misses the rival-score kinks).
# - The improvement audit's R(p^, lam) can fall far below R(p~, lam) on a
#   score auction, n = 2 and 3 alike, while the output still dominates the
#   input (found by this benchmark: seed 1, input 54 of the improve pool,
#   n = 2, -0.524 against 0.366).
KNOWN_DEFECTS = {"cross_route_n3_undershoot", "audit_chain_score"}


@dataclass
class Entry:
    n: int
    kind: str
    inst: ma.Instance
    args: tuple = ()
    reserves: np.ndarray | None = None
    label: bool | None = None
    ref: dict = field(default_factory=dict)


def _guarantee_checks(e, value, dist, cert) -> list[str]:
    """Strong duality and the worst case's means, shared by the grid LPs."""
    fails = []
    if abs(value - cert.value) > 1e-9:
        fails.append("duality")
    if np.max(np.abs(dist.mean() - e.inst.mean_vector)) > 1e-9:
        fails.append("means")
    return fails


def _shift_atoms(dist):
    return ma.DiscreteDistribution(dist.atoms * 0.98, dist.probs)


class Evaluate:
    """Grid LP of the acceptance gate's mechanism mix at the default grid."""

    pool_size = 1200

    def build(self, rng, size, workdir):
        rolls = {n: iter(inputs.stratified(rng, (size + 3 - n) // 2))
                 for n in (2, 3)}
        pool = []
        for k in range(size):
            n = 2 + k % 2
            inst = inputs.instance(rng, n)
            kind, mech, r = inputs.feasible_mechanism(rng, n, next(rolls[n]))
            pool.append(Entry(n, kind, inst, (mech,), reserves=r))
        return pool

    def run(self, e):
        return nature.mechanism_guarantee(e.args[0], e.inst)

    def reference(self, e):
        e.ref["optimal"] = solve.optimal_reserves(e.inst).guarantee
        if e.kind == "auction":
            e.ref["lsa"] = dual.lsa_guarantee(e.reserves, e.inst)[0]

    def check(self, e, out):
        value, dist, cert, _ = out
        fails = _guarantee_checks(e, value, dist, cert)
        if value > e.ref["optimal"] + 1e-6:
            fails.append("above_optimal")
        if e.kind == "auction" and abs(value - e.ref["lsa"]) > 1e-6:
            undershoot = e.n >= 3 and value < e.ref["lsa"]
            fails.append("cross_route_n3_undershoot" if undershoot
                         else "cross_route")
        return fails

    def mutations(self, e, out):
        value, dist, cert, coords = out
        high = e.ref["optimal"] + 1e-3
        muts = [
            ("duality", (value + 1e-3, dist, cert, coords)),
            ("means", (value, _shift_atoms(dist), cert, coords)),
            ("above_optimal", (high, dist, ma.DualCertificate(
                cert.lambda0, cert.lam, high), coords)),
        ]
        if e.kind == "auction":
            over = e.ref["lsa"] + 1e-3
            muts.append(("cross_route", (over, dist, ma.DualCertificate(
                cert.lambda0, cert.lam, over), coords)))
        return muts


class FineGrid:
    """A corner-hitting auction straight into the grid LP on the CLI's
    ``--grid-step`` path: step 0.01 for n = 2, 0.05 for n = 3, in a 3:2
    ratio (about 46k grid nodes per op on average)."""

    pool_size = 1000

    def build(self, rng, size, workdir):
        # Latin-hypercube reserves and stratified edge cases per bidder
        # count: a pool's mix of grid sizes then varies little between seeds.
        ns = [2 if k % 5 in (0, 2, 4) else 3 for k in range(size)]
        draws = {}
        for n in (2, 3):
            m = ns.count(n)
            columns = [inputs.stratified(rng, m) for _ in range(n + 2)]
            draws[n] = iter(zip(np.stack(columns[:n], axis=1), columns[n],
                                columns[n + 1]))
        pool = []
        for n in ns:
            inst = inputs.instance(rng, n)
            u, zero_roll, top_roll = next(draws[n])
            r = inputs.corner_reserves(inst, u, zero_roll, top_roll,
                                       rng.random(3))
            lsa = ma.corner_hitting(r, inst.vmax)
            step = 0.01 if n == 2 else 0.05
            pool.append(Entry(n, "lsa", inst, (lsa, step), reserves=r))
        return pool

    def run(self, e):
        lsa, step = e.args
        return nature.mechanism_guarantee(lsa, e.inst, step=step)

    def reference(self, e):
        e.ref["lsa"] = dual.lsa_guarantee(e.reserves, e.inst)[0]

    def check(self, e, out):
        value, dist, cert, _ = out
        fails = _guarantee_checks(e, value, dist, cert)
        if abs(value - e.ref["lsa"]) > 1e-6:
            fails.append("cross_route")
        return fails

    def mutations(self, e, out):
        value, dist, cert, coords = out
        return [
            ("cross_route", (value - 1e-3, dist, ma.DualCertificate(
                cert.lambda0, cert.lam, value - 1e-3), coords)),
            ("duality", (value, dist, ma.DualCertificate(
                cert.lambda0, cert.lam, value + 1e-3), coords)),
            ("means", (value, _shift_atoms(dist), cert, coords)),
        ]


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _grid_json(mech):
    return {"type": "grid", "coords": [c.tolist() for c in mech.coords],
            "thresholds": [t.tolist() for t in mech.thresholds]}


class Improve:
    """The CLI's ``improve`` and ``member`` commands, in process.

    Slots repeat with period six: improve on n = 2, 3, 2, 3, 2 (a 3:2
    ratio), then one ``member`` op on n = 2 whose label is known, members and
    near misses alternating.  Improve inputs are grid mechanisms from the
    gate's mix or corner-hitting reserves, which the CLI tabulates itself,
    half and half.
    """

    pool_size = 1080

    def build(self, rng, size, workdir):
        slots = [k % 6 for k in range(size)]
        rolls = {n: iter(inputs.stratified(rng, sum(
            s in group for s in slots))) for n, group in ((2, (0, 2, 4)),
                                                          (3, (1, 3)))}
        pool = []
        for k, slot in enumerate(slots):
            n = 2 if slot in (0, 2, 4, 5) else 3
            inst = inputs.instance(rng, n)
            roll = next(rolls[n]) if slot != 5 else None
            if slot == 5:
                command, label = "member", (k // 6) % 2 == 0
                if label:
                    mech = _grid_json(inputs.optimal_member(rng, inst))
                else:
                    mech = {"type": "corner_hitting", "reserves":
                            inputs.near_miss_reserves(rng, inst).tolist()}
                kind = "member" if label else "near_miss"
            elif roll >= 0.5:
                command, label = "improve", None
                kind, gm, _ = inputs.feasible_mechanism(rng, n, 2 * roll - 1)
                mech = _grid_json(gm)
            else:
                command, label, kind = "improve", None, "corner_hitting"
                mech = {"type": "corner_hitting",
                        "reserves": rng.uniform(0.0, 0.9, n).tolist()}
            inst_path = _write(os.path.join(workdir, f"{k}-instance.json"),
                               {"n": n, "means": list(inst.means),
                                "vmax": list(inst.vmax)})
            mech_path = _write(os.path.join(workdir, f"{k}-mechanism.json"),
                               mech)
            pool.append(Entry(n, kind, inst, (command, inst_path, mech_path),
                              label=label))
        return pool

    def run(self, e):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(e.args))
        return code, out.getvalue(), err.getvalue()

    def reference(self, e):
        pass

    def check(self, e, out):
        code, text, _ = out
        if code != 0:
            return ["exit_code"]
        data = json.loads(text)
        if e.args[0] == "member":
            return [] if data["member"] == e.label else ["member_label"]
        fails = []
        audit = data["audit"]
        if data["guarantee"] < audit["input_guarantee"] - 1e-6:
            fails.append("dominance")
        if (audit["value_minorant"] < audit["value_input"] - 1e-9
                or audit["value_output"] < audit["value_minorant"] - 1e-9):
            fails.append("audit_chain_score" if e.kind == "score"
                         else "audit_chain")
        return fails

    def mutations(self, e, out):
        code, text, err = out
        data = json.loads(text)
        muts = [("exit_code", (1, "", '{"error": "injected"}'))]
        if e.args[0] == "member":
            data["member"] = not data["member"]
            return muts + [("member_label", (0, json.dumps(data), err))]
        low = dict(data, guarantee=data["audit"]["input_guarantee"] - 1e-3)
        audit = dict(data["audit"],
                     value_output=data["audit"]["value_minorant"] - 1e-3)
        chain = "audit_chain_score" if e.kind == "score" else "audit_chain"
        return muts + [("dominance", (0, json.dumps(low), err)),
                       (chain, (0, json.dumps(dict(data, audit=audit)), err))]


class Design:
    """Closed-form optimum, then the multiplier LP on the canonical reserves
    and 50 rivals; for n = 2 also a closed-form worst-case distribution."""

    pool_size = 240
    rivals = 50

    def build(self, rng, size, workdir):
        pool = []
        for k in range(size):
            n = 2 + k % 4
            inst = inputs.instance(rng, n)
            rivals = rng.uniform(0.0, 1.0, (self.rivals, n))
            wc = inputs.wc_reserves(rng, inst) if n == 2 else None
            pool.append(Entry(n, "design", inst, (rivals,), reserves=wc))
        return pool

    def run(self, e):
        sol = solve.optimal_reserves(e.inst)
        canonical = dual.lsa_guarantee(sol.reserves_canonical, e.inst)[0]
        rivals = [dual.lsa_guarantee(r, e.inst)[0] for r in e.args[0]]
        dist = None
        if e.reserves is not None:
            dist = nature.wcdistr2_construct(e.reserves, e.inst)
        return sol.guarantee, canonical, rivals, dist

    def reference(self, e):
        if e.reserves is not None:
            e.ref["wc"] = nature.lsa2_guarantee(e.reserves, e.inst)

    def check(self, e, out):
        guarantee, canonical, rivals, dist = out
        fails = []
        if abs(canonical - guarantee) > 1e-9:
            fails.append("canonical")
        if max(rivals) > guarantee + 1e-6:
            fails.append("rival")
        if e.reserves is not None:
            if np.max(np.abs(dist.mean() - e.inst.mean_vector)) > 1e-9:
                fails.append("wc_means")
            revenue = sum(p * nature.revenue_unsold_at_reserves(
                e.reserves, e.inst, a) for a, p in zip(dist.atoms, dist.probs))
            if abs(revenue - e.ref["wc"]) > 1e-9:
                fails.append("wc_value")
        return fails

    def mutations(self, e, out):
        guarantee, canonical, rivals, dist = out
        muts = [("canonical", (guarantee, canonical + 1e-3, rivals, dist)),
                ("rival", (guarantee, canonical,
                           rivals[:-1] + [guarantee + 1e-3], dist))]
        if dist is not None:
            muts.append(("wc_means",
                         (guarantee, canonical, rivals, _shift_atoms(dist))))
        return muts


WORKLOADS = {
    "evaluate": Evaluate(),
    "fine-grid": FineGrid(),
    "improve": Improve(),
    "design": Design(),
}
