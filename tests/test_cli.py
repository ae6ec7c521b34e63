import json

import pytest

import maxmin_auction as ma
from maxmin_auction import cli
from maxmin_auction.cli import run


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def inst64(tmp_path):
    return write(tmp_path, "inst.json",
                 {"n": 2, "vmax": [1, 1], "means": [0.64, 0.64]})


GRID_2 = {"type": "grid", "coords": [[0.0, 0.2, 0.5, 1.0]] * 2,
          "thresholds": [[1.0] * 4, [0.2, 0.26, 0.35, 0.5]]}
# two bidders win strictly at (1, 1)
INFEASIBLE_GRID = {"type": "grid", "coords": [[0, 0.5, 1], [0, 1]],
                   "thresholds": [[0.5, 0.6], [0.2, 0.3, 0.4]]}


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise AssertionError(f"{name} in the output")


def assert_same_bits(out, ref, where="output"):
    """``out`` has ``ref``'s keys, lengths, ints, strings and booleans, and
    each of its numbers at a float of ``ref`` is that float, sign of zero
    included."""
    if isinstance(ref, float):
        assert type(out) in (int, float), where
        assert float(out).hex() == ref.hex(), (where, out, ref)
    elif isinstance(ref, dict):
        assert sorted(out) == sorted(ref), where
        for key in ref:
            assert_same_bits(out[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(out, list) and len(out) == len(ref), where
        for i, (o, r) in enumerate(zip(out, ref)):
            assert_same_bits(o, r, f"{where}[{i}]")
    else:
        assert type(out) is type(ref) and out == ref, (where, out, ref)


def assert_prints(capsys, argv, ref):
    code, out, err = run_capture(capsys, argv)
    assert code == 0 and err == ""
    assert_same_bits(json.loads(out, parse_constant=_reject_constant), ref)


def distribution_ref(dist):
    return {"atoms": dist.atoms.tolist(), "probs": dist.probs.tolist()}


INST64 = ma.Instance(2, [0.64, 0.64], [1.0, 1.0])


class TestOptimal:
    def test_figures(self, inst64, capsys):
        code, out, _ = run_capture(capsys, ["optimal", inst64])
        assert code == 0
        data = json.loads(out)
        assert data["reserves"] == pytest.approx([0.4, 0.4])
        assert data["guarantee"] == pytest.approx(0.32)
        assert data["regime"] == "low-means"

    def test_scalar_vmax_broadcast(self, tmp_path, capsys):
        path = write(tmp_path, "i.json", {"n": 2, "vmax": 1, "means": [0.75, 0.91]})
        code, out, _ = run_capture(capsys, ["optimal", path])
        data = json.loads(out)
        assert data["reserves"] == pytest.approx([0.375, 0.625])
        assert data["lambda"][0] * data["lambda"][1] == pytest.approx(1.0)

    def test_determinism(self, inst64, capsys):
        _, out1, _ = run_capture(capsys, ["optimal", inst64])
        _, out2, _ = run_capture(capsys, ["optimal", inst64])
        assert out1 == out2


class TestEvaluate:
    def test_spa_guarantee(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.6, 0.7]})
        mech = write(tmp_path, "m.json",
                     {"type": "corner_hitting", "reserves": [0.0, 0.0]})
        code, out, _ = run_capture(capsys, ["evaluate", inst, mech])
        assert code == 0
        data = json.loads(out)
        assert data["guarantee"] == pytest.approx(0.3, abs=1e-9)
        assert data["lambda"] == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_round_trip_optimal_into_evaluate(self, inst64, tmp_path, capsys):
        code, out, _ = run_capture(capsys, ["optimal", inst64])
        mech = tmp_path / "opt.json"
        mech.write_text(out)
        code, out2, _ = run_capture(capsys, ["evaluate", inst64, str(mech)])
        assert code == 0
        g1 = json.loads(out)["guarantee"]
        g2 = json.loads(out2)["guarantee"]
        assert g2 == pytest.approx(g1, abs=1e-6)

    def test_grid_mechanism(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.5, 0.5]})
        c = [0.0, 0.2, 0.5, 1.0]
        mech = write(tmp_path, "m.json", {
            "type": "grid", "coords": [c, c],
            "thresholds": [[1.0] * 4, [0.2 + 0.3 * x for x in c]]})
        code, out, _ = run_capture(capsys, ["evaluate", inst, mech])
        assert code == 0
        assert json.loads(out)["guarantee"] == pytest.approx(0.0375, abs=1e-6)


    @pytest.mark.parametrize("mech, guarantee", [
        ({"type": "lsa", "alphas": [2 / 3, 2 / 3], "betas": [5 / 3, 5 / 3]},
         0.32),
        ({"type": "lsa", "alphas": [2 / 3, 0.0], "betas": [5 / 3, 1.0],
          "excluded": [False, True]}, 0.16),
    ], ids=["all-included", "excluded"])
    def test_lsa_mechanism(self, inst64, tmp_path, capsys, mech, guarantee):
        # the corner-hitting auctions with reserves (0.4, 0.4) and (0.4, 1)
        path = write(tmp_path, "m.json", mech)
        code, out, _ = run_capture(capsys, ["evaluate", inst64, path])
        assert code == 0
        assert json.loads(out)["guarantee"] == pytest.approx(guarantee,
                                                             abs=1e-9)


class TestWorstCase:
    def test_type_ii(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.7, 0.6]})
        code, out, _ = run_capture(
            capsys, ["worst-case", inst, "--reserves", "0.45,0.5"])
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "II"
        probs = sorted(data["distribution"]["probs"])
        assert probs == pytest.approx(sorted([19 / 55, 0.2, 5 / 11]), abs=1e-9)


class TestImprove:
    def test_dominates_input(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json",
                     {"type": "corner_hitting", "reserves": [0.3, 0.3]})
        code, out, _ = run_capture(capsys, ["improve", inst64, mech])
        assert code == 0
        data = json.loads(out)
        assert data["guarantee"] >= data["audit"]["input_guarantee"] - 1e-6

    def test_unequal_bounds_fall_back_to_the_grid_lp(self, tmp_path, capsys):
        # the multiplier LP needs equal bounds; the grid LP prices the output
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1.0, 0.8], "means": [0.5, 0.4]})
        mech = write(tmp_path, "m.json",
                     {"type": "corner_hitting", "reserves": [0.3, 0.3]})
        code, out, _ = run_capture(capsys, ["improve", inst, mech])
        assert code == 0
        data = json.loads(out)
        instance = ma.Instance(2, [0.5, 0.4], [1.0, 0.8])
        lsa = ma.corner_hitting(data["reserves"], instance.vmax)
        assert data["guarantee"] == \
            ma.mechanism_guarantee(lsa, instance)[0]
        assert data["guarantee"] >= data["audit"]["input_guarantee"] - 1e-6


    def test_three_bidder_score_auction_priced_as_itself(self, tmp_path,
                                                         capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 3, "vmax": [1, 1, 1], "means": [0.5, 0.5, 0.5]})
        mech = write(tmp_path, "m.json", {"type": "corner_hitting",
                                          "reserves": [0.3, 0.4, 0.5]})
        code, out, _ = run_capture(capsys, ["improve", inst, mech])
        assert code == 0
        data = json.loads(out)
        expected, _ = ma.lsa_guarantee([0.3, 0.4, 0.5],
                                       ma.Instance(3, [0.5] * 3, 1.0))
        assert data["audit"]["input_guarantee"] == pytest.approx(expected,
                                                                 abs=1e-9)
        assert data["guarantee"] >= data["audit"]["input_guarantee"]

    def test_never_sell_output_prints_positive_zero(self, tmp_path, capsys):
        # every bidder excluded: Nature's multipliers are exactly 0
        inst = write(tmp_path, "i.json",
                     {"n": 3, "vmax": [1, 1, 1], "means": [0.5, 0.5, 0.5]})
        mech = write(tmp_path, "m.json", {"type": "corner_hitting",
                                          "reserves": [1, 1, 1]})
        code, out, _ = run_capture(capsys, ["improve", inst, mech])
        assert code == 0
        assert json.loads(out)["reserves"] == [1, 1, 1]
        assert '"guarantee":0.0,' in out


class TestMember:
    def test_grid_mechanism(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json", GRID_2)
        code, out, _ = run_capture(capsys, ["member", inst64, mech])
        assert code == 0
        assert json.loads(out)["member"] is False

    def test_member_verdicts(self, inst64, tmp_path, capsys):
        good = write(tmp_path, "g.json",
                     {"type": "corner_hitting", "reserves": [0.4, 0.4]})
        bad = write(tmp_path, "b.json",
                    {"type": "corner_hitting", "reserves": [0.3, 0.3]})
        _, out_good, _ = run_capture(capsys, ["member", inst64, good])
        _, out_bad, _ = run_capture(capsys, ["member", inst64, bad])
        assert json.loads(out_good) == {"member": True, "witness": None}
        data = json.loads(out_bad)
        assert data["member"] is False
        witness = data["witness"]
        assert witness["revenue"] < witness["bound"]
        assert len(witness["values"]) == 2


class TestExactNumbers:
    """Each number the CLI prints parses to the library's float."""

    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.3, 0.9, 0.95]],
                             ids=["low-means", "high-means"])
    def test_optimal(self, tmp_path, capsys, means):
        n = len(means)
        path = write(tmp_path, "i.json",
                     {"n": n, "vmax": [1] * n, "means": means})
        sol = ma.optimal_reserves(ma.Instance(n, means, [1.0] * n))
        rset = sol.reserve_set
        if rset.kind == "point":
            reserve_set = {"kind": "point", "point": rset.point.tolist()}
        else:
            reserve_set = {"kind": "segment", "included": list(rset.included),
                           "scale_range": list(rset.scale_range),
                           "endpoint_low": rset.endpoint_low.tolist(),
                           "endpoint_high": rset.endpoint_high.tolist()}
        assert_prints(capsys, ["optimal", path], {
            "type": "corner_hitting", "regime": sol.regime.value,
            "lambda": sol.lambda_star.tolist(), "k_star": sol.k_star,
            "weakly_excluded": sorted(sol.weakly_excluded),
            "reserves": sol.reserves_canonical.tolist(),
            "guarantee": sol.guarantee, "reserve_set": reserve_set})

    @pytest.mark.parametrize("data, mech, step", [
        ({"type": "lsa", "alphas": [2 / 3, 0.0], "betas": [5 / 3, 1.0],
          "excluded": [False, True]},
         ma.LinearScoreAuction((2 / 3, 0.0), (5 / 3, 1.0), (1.0, 1.0),
                               (False, True)), None),
        (GRID_2, ma.GridMechanism(GRID_2["coords"], GRID_2["thresholds"]),
         0.05),
    ], ids=["lsa", "grid"])
    def test_evaluate(self, inst64, tmp_path, capsys, data, mech, step):
        value, dist, cert, _ = ma.mechanism_guarantee(mech, INST64, step=step)
        assert_prints(capsys, ["evaluate", inst64, write(tmp_path, "m.json",
                                                         data)], {
            "guarantee": value, "lambda": cert.lam.tolist(),
            "lambda0": cert.lambda0, "dual_value": cert.value,
            "worst_case": distribution_ref(dist)})

    def test_improve(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json",
                     {"type": "corner_hitting", "reserves": [0.3, 0.45]})
        lsa, audit = ma.dominating_lsa(
            ma.corner_hitting([0.3, 0.45], INST64.vmax), INST64)
        reserves = [lsa.reserve(i) for i in range(lsa.n)]
        assert_prints(capsys, ["improve", inst64, mech], {
            "type": "corner_hitting", "reserves": reserves,
            "guarantee": ma.lsa_guarantee(reserves, INST64)[0],
            "audit": {"lambda_raw": audit.lambda_raw.tolist(),
                      "lambda": audit.lam.tolist(),
                      "input_guarantee": audit.input_guarantee,
                      "value_input": audit.value_input,
                      "value_minorant": audit.value_minorant,
                      "value_output": audit.value_output,
                      "fixed_point": audit.fixed_point.tolist()}})

    @pytest.mark.parametrize("reserves, kind", [
        ("0.2,0.2", "I"), ("0.45,0.5", "II"), ("0.55,0.55", "III")])
    def test_worst_case(self, tmp_path, capsys, reserves, kind):
        path = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.7, 0.6]})
        inst = ma.Instance(2, [0.7, 0.6], [1.0, 1.0])
        r = [float(x) for x in reserves.split(",")]
        assert ma.wcdistr2_classify(r, inst).value == kind
        assert_prints(capsys, ["worst-case", path, "--reserves", reserves], {
            "type": kind,
            "lambda": ma.lsa2_dual_multipliers(r, inst).tolist(),
            "guarantee": ma.lsa2_guarantee(r, inst),
            "distribution": distribution_ref(
                ma.wcdistr2_construct(r, inst))})

    def test_member_witness(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json",
                     {"type": "corner_hitting", "reserves": [0.3, 0.3]})
        ok, witness = ma.member(ma.corner_hitting([0.3, 0.3], INST64.vmax),
                                INST64)
        assert ok is False
        assert_prints(capsys, ["member", inst64, mech], {
            "member": False,
            "witness": {"values": list(witness.values),
                        "revenue": witness.revenue, "bound": witness.bound}})


class TestPlotData:
    def test_wc_types_csv(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.7, 0.6]})
        code, out, _ = run_capture(
            capsys, ["plot-data", inst, "--figure", "wc-types"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r1,r2_boundary"
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] == pytest.approx(3 / 7, abs=1e-9)

    def test_reserve_set_csv(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.7, 0.853]})
        code, out, _ = run_capture(
            capsys, ["plot-data", inst, "--figure", "reserve-set"])
        rows = out.strip().splitlines()
        assert rows[0] == "label,r1,r2"
        low = [float(x) for x in rows[1].split(",")[1:]]
        high = [float(x) for x in rows[2].split(",")[1:]]
        assert low == pytest.approx([0.0, 0.3], abs=1e-9)
        assert high == pytest.approx([7 / 17, 10 / 17], abs=1e-9)

    def test_reserve_set_csv_at_low_means(self, inst64, capsys):
        code, out, _ = run_capture(
            capsys, ["plot-data", inst64, "--figure", "reserve-set"])
        assert code == 0
        point = ma.optimal_reserves(INST64).reserve_set.point
        assert out == "label,r1,r2\npoint,%.17g,%.17g\n" % tuple(point)

    def test_regimes_csv(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 3, "vmax": [1, 1, 1], "means": [0.5, 0.5, 0.5]})
        code, out, _ = run_capture(
            capsys, ["plot-data", inst, "--figure", "regimes"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m1,m2,regime,weakly_excluded"
        assert len(lines) == 49 * 49 + 1


class TestParser:
    def test_run_reuses_one_parser(self, inst64, tmp_path, capsys,
                                   monkeypatch):
        """``run`` parses with the parser built at import: it never builds
        one, and repeated runs in one process print the same."""
        def build_parser():
            raise AssertionError("run built a parser")

        monkeypatch.setattr(cli, "build_parser", build_parser)
        ch = write(tmp_path, "ch.json",
                   {"type": "corner_hitting", "reserves": [0.3, 0.45]})
        grid = write(tmp_path, "grid.json", GRID_2)
        for argv in (["improve", inst64, ch], ["improve", inst64, grid],
                     ["evaluate", inst64, grid, "--grid-step", "0.01"]):
            first = run_capture(capsys, argv)
            assert first[0] == 0
            assert run_capture(capsys, argv) == first


class TestErrors:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_capture(capsys, ["optimal", "/nonexistent.json"])
        assert code == 2
        assert "error" in json.loads(err)

    def test_bad_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_capture(capsys, ["optimal", str(path)])
        assert code == 2

    def test_domain_error_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "i.json",
                     {"n": 1, "vmax": [1], "means": [0.5]})
        code, _, err = run_capture(capsys, ["optimal", str(path)])
        assert code == 1
        assert "error" in json.loads(err)

    def test_nan_threshold_is_exit_1(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json",
                     {"type": "grid", "coords": [[0, 1], [0, 1]],
                      "thresholds": [[0.5, float("nan")], [0.5, 0.5]]})
        code, _, err = run_capture(capsys, ["evaluate", inst64, mech])
        assert code == 1
        assert "finite" in json.loads(err)["error"]

    def test_unknown_mechanism_type(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json", {"type": "mystery"})
        code, _, err = run_capture(capsys, ["evaluate", inst64, mech])
        assert code == 1

    @pytest.mark.parametrize("command", ["evaluate", "improve", "member"])
    def test_bidder_count_mismatch_is_exit_1(self, tmp_path, capsys, command):
        inst = write(tmp_path, "i.json",
                     {"n": 3, "vmax": [1, 1, 1], "means": [0.5, 0.5, 0.5]})
        mech = write(tmp_path, "m.json", GRID_2)
        code, out, err = run_capture(capsys, [command, inst, mech])
        assert code == 1 and out == ""
        assert "n=2" in json.loads(err)["error"]

    @pytest.mark.parametrize("command", ["evaluate", "improve", "member"])
    def test_infeasible_grid_is_exit_1(self, tmp_path, capsys, command):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [1, 1], "means": [0.5, 0.5]})
        mech = write(tmp_path, "m.json", INFEASIBLE_GRID)
        code, out, err = run_capture(capsys, [command, inst, mech])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "supply violated at (1.0, 1.0)"

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_bad_grid_step_is_exit_1(self, inst64, tmp_path, capsys, step):
        mech = write(tmp_path, "m.json", GRID_2)
        code, out, err = run_capture(capsys, ["evaluate", inst64, mech,
                                              "--grid-step", step])
        assert code == 1 and out == ""
        assert "grid step" in json.loads(err)["error"]

    @pytest.mark.parametrize("reserves", ["0.4", "nan,0.3", "0.2,0.2,0.2"])
    def test_bad_closed_form_reserves_is_exit_1(self, inst64, capsys,
                                                reserves):
        code, out, err = run_capture(capsys, ["worst-case", inst64,
                                              "--reserves", reserves])
        assert code == 1 and out == ""
        assert "two finite reserves" in json.loads(err)["error"]

    def test_reserve_count_mismatch_is_exit_1(self, inst64, tmp_path, capsys):
        mech = write(tmp_path, "m.json",
                     {"type": "corner_hitting", "reserves": [0.3]})
        code, out, err = run_capture(capsys, ["evaluate", inst64, mech])
        assert code == 1 and out == ""
        assert "1 reserves for 2 value bounds" in json.loads(err)["error"]

    @pytest.mark.parametrize("command", ["evaluate", "improve", "member"])
    def test_bound_mismatch_is_exit_1(self, tmp_path, capsys, command):
        inst = write(tmp_path, "i.json",
                     {"n": 2, "vmax": [2, 2], "means": [0.5, 0.5]})
        mech = write(tmp_path, "m.json", GRID_2)
        code, out, err = run_capture(capsys, [command, inst, mech])
        assert code == 1 and out == ""
        assert "vmax" in json.loads(err)["error"]

    @pytest.mark.parametrize("instance", [
        [1, 2], "x", {"n": None, "vmax": [1, 1], "means": [0.5, 0.5]},
        {"n": [2], "vmax": [1, 1], "means": [0.5, 0.5]},
        {"n": 2.9, "vmax": [1, 1], "means": [0.5, 0.5]},
        {"n": "2", "vmax": [1, 1], "means": [0.5, 0.5]},
        {"n": 2, "vmax": [1, 1], "means": {"a": 0.5}},
        {"n": 2, "vmax": [1, 1]},
    ], ids=["list", "string", "null-n", "list-n", "float-n", "string-n",
            "object-means", "missing-means"])
    def test_mistyped_instance_is_exit_1(self, tmp_path, capsys, instance):
        path = write(tmp_path, "i.json", instance)
        code, out, err = run_capture(capsys, ["optimal", path])
        assert code == 1 and out == ""
        assert "instance file" in json.loads(err)["error"]

    def test_wc_types_figure_needs_two_bidders(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 3, "vmax": [1, 1, 1], "means": [0.5, 0.5, 0.5]})
        code, out, err = run_capture(
            capsys, ["plot-data", inst, "--figure", "wc-types"])
        assert code == 1 and out == ""
        assert "two bidders" in json.loads(err)["error"]

    @pytest.mark.parametrize("mechanism", [
        [1, 2],
        {"type": "grid", "coords": 5, "thresholds": [[0.5, 0.5]] * 2},
        {"type": "lsa", "alphas": [0.5, 0.5], "betas": [1, 1], "excluded": 5},
    ], ids=["list", "number-coords", "number-excluded"])
    def test_mistyped_mechanism_is_exit_1(self, inst64, tmp_path, capsys,
                                          mechanism):
        path = write(tmp_path, "m.json", mechanism)
        code, out, err = run_capture(capsys, ["evaluate", inst64, path])
        assert code == 1 and out == ""
        assert "mechanism file" in json.loads(err)["error"]
