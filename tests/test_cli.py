import json

import pytest

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


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestMember:
    def test_member_verdicts(self, inst64, tmp_path, capsys):
        good = write(tmp_path, "g.json",
                     {"type": "corner_hitting", "reserves": [0.4, 0.4]})
        bad = write(tmp_path, "b.json",
                    {"type": "corner_hitting", "reserves": [0.3, 0.3]})
        _, out_good, _ = run_capture(capsys, ["member", inst64, good])
        _, out_bad, _ = run_capture(capsys, ["member", inst64, bad])
        assert json.loads(out_good)["member"] is True
        data = json.loads(out_bad)
        assert data["member"] is False and data["violations"]


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

    def test_regimes_csv(self, tmp_path, capsys):
        inst = write(tmp_path, "i.json",
                     {"n": 3, "vmax": [1, 1, 1], "means": [0.5, 0.5, 0.5]})
        code, out, _ = run_capture(
            capsys, ["plot-data", inst, "--figure", "regimes"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m1,m2,regime,weakly_excluded"
        assert len(lines) == 49 * 49 + 1


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
