"""CLI subcommands: outputs, determinism, exit codes, verify round trip."""

import json

import pytest

from evcg_reserves import cli
from evcg_reserves.baselines import BadExampleSpec, bad_example
from evcg_reserves.datasets import random_dataset, save_dataset
from evcg_reserves.report import compute_ratios, render

DATASET = {
    "num_items": 1,
    "scale": 0,
    "buyers": ["b1", "b2", "b3"],
    "auctions": [
        {"weight": 1, "bids": ["9", "5", "0"]},
        {"weight": 2, "bids": ["4", "7", "2"]},
    ],
}


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(DATASET))
    return str(path)


def run(argv) -> int:
    return cli.main(argv)


class TestGen:
    def test_bad_example_matches_layout(self, tmp_path):
        out = tmp_path / "bad.json"
        frac = tmp_path / "frac.json"
        assert run(["gen", "bad-example", "--k", "2", "--out", str(out),
                    "--fractional-out", str(frac)]) == 0
        doc = json.loads(out.read_text())
        assert doc["num_items"] == 2
        assert [a["weight"] for a in doc["auctions"]] == [1, 1, 2, 2]
        assert doc["auctions"][2]["bids"] == ["0", "2", "2", "2"]
        masses = json.loads(frac.read_text())
        assert masses["x"]["b1"] == {"8": 1.0}
        assert masses["x"]["b2"] == {"1": 0.975, "2": 0.025}

    def test_fractional_point_file_feeds_rounding(self, tmp_path):
        from evcg_reserves.auction import ReserveGrid, add_auxiliary_buyers
        from evcg_reserves.datasets import load_dataset, load_masses
        from evcg_reserves.rounding import simple_rounding_matrix

        out, frac = tmp_path / "bad.json", tmp_path / "frac.json"
        assert run(["gen", "bad-example", "--k", "2", "--delta", "0.5",
                    "--out", str(out), "--fractional-out", str(frac)]) == 0
        ds = add_auxiliary_buyers(load_dataset(out))
        masses = load_masses(frac, ds)
        draw = simple_rounding_matrix(ds, masses, ReserveGrid.from_dataset(ds), 3, 1)[0]
        assert draw[0] == 8 and draw[1] in (1, 2)

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "random", "--buyers", "3", "--auctions", "3", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_correlated_zero_noise(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["gen", "correlated", "--buyers", "3", "--auctions", "4",
                    "--noise", "0", "--seed", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cols = [[int(b) for b in a["bids"]] for a in doc["auctions"]]
        for col in cols[1:]:
            for i in range(3):
                for j in range(3):
                    assert col[i] * cols[0][j] == col[j] * cols[0][i]


class TestSolveRound:
    def test_solve_report(self, dataset_file, tmp_path):
        out = tmp_path / "solve.json"
        assert run(["solve", "--dataset", dataset_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "solve"
        assert doc["lp"]["objective"] > 0

    def test_lp_dump(self, dataset_file, tmp_path):
        dump = tmp_path / "model.lp"
        assert run(["solve", "--dataset", dataset_file, "--out",
                    str(tmp_path / "s.json"), "--lp-dump", str(dump)]) == 0
        text = dump.read_text()
        assert text.startswith("Maximize") and "Subject To" in text

    def test_round_deterministic_across_threads(self, dataset_file, tmp_path):
        outs = []
        for threads in ("1", "2", "8"):
            path = tmp_path / f"round{threads}.json"
            assert run(["round", "--dataset", dataset_file, "--seed", "3",
                        "--samples", "32", "--threads", threads,
                        "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_round_report_content(self, dataset_file, tmp_path):
        out = tmp_path / "round.json"
        vec = tmp_path / "chosen.json"
        assert run(["round", "--dataset", dataset_file, "--seed", "3",
                    "--out", str(out), "--vector-out", str(vec)]) == 0
        doc = json.loads(out.read_text())
        for key in ("discounted", "inflated", "zero", "chosen"):
            assert "revenue" in doc["methods"][key]
        assert doc["methods"]["chosen"]["source"] in ("discounted", "inflated", "zero")
        assert "ratios" in doc and "chosen_vs_lp" in doc["ratios"]
        saved = json.loads(vec.read_text())
        assert saved["reserves"] == doc["methods"]["chosen"]["reserves"]


class TestBench:
    def test_all_methods_present(self, dataset_file, tmp_path):
        out = tmp_path / "bench.json"
        assert run(["bench", "--dataset", dataset_file, "--seed", "5",
                    "--samples", "16", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("zero", "greedy", "brute_force", "best_of_three", "simple_rounding"):
            assert key in doc["methods"], key
        assert doc["reference_lines"] == {"rounding_guarantee": 0.63,
                                          "greedy_guarantee": 0.5}
        ratios = doc["ratios"]
        assert ratios["brute_force_vs_brute_force"] == 1.0
        assert ratios["best_of_three_vs_lp"] <= 1.0 + 1e-9

    def test_brute_force_refusal_is_reported(self, dataset_file, tmp_path):
        out = tmp_path / "bench.json"
        assert run(["bench", "--dataset", dataset_file, "--brute-cap", "2",
                    "--samples", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "skipped" in doc["methods"]["brute_force"]

    def test_json_to_stdout_alone(self, dataset_file, capfd):
        """Without --out the report is all that reaches stdout: one JSON
        document, no solver log."""
        assert run(["bench", "--dataset", dataset_file, "--format", "json"]) == cli.EXIT_OK
        out, err = capfd.readouterr()
        assert json.loads(out)["methods"] and err == ""

    def test_deterministic_repeat(self, dataset_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bench", "--dataset", dataset_file, "--seed", "5", "--samples", "16"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b), "--threads", "8"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_matches_oracle_chain(self, tmp_path, monkeypatch):
        """The report is byte-identical with the LP solved as the quotient ->
        marginal chain over the assembled rows, without its empty rows,
        checked on the CSR rows."""
        from evcg_reserves import lp_model, lp_solver

        from .lp_oracle import marginal_form, standard_lp, symmetry_quotient, without_empty_rows

        def chain_solve(instance, *, tol_feas=1e-7):
            chain = marginal_form(instance, symmetry_quotient(instance))
            result = lp_solver.solve(standard_lp(instance), tol_feas=tol_feas,
                                     quotient=without_empty_rows(chain)[0])
            s_parts, x_masses = instance.interpret(result.x)
            return lp_model.LpSolution(instance, result.objective, s_parts, x_masses, result.x,
                                       result.iterations, result.max_violation)

        for name, ds in (("bad6", bad_example(BadExampleSpec(k=6), augmented=False)),
                         ("random", random_dataset(6, 8, 2, 3))):
            path = tmp_path / f"{name}.json"
            save_dataset(ds, path)
            reports = []
            for solve in (lp_model.solve_lp, chain_solve):
                monkeypatch.setattr(lp_model, "solve_lp", solve)
                out = tmp_path / f"{name}-{len(reports)}.json"
                assert run(["bench", "--dataset", str(path), "--format", "json", "--seed", "1",
                            "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]
            assert "lp" in json.loads(reports[0])

    def test_full_rows_never_assembled(self, tmp_path, monkeypatch):
        from evcg_reserves.lp_model import LpInstance

        def refuse(instance):
            raise AssertionError("the full LP's matrices were assembled")

        monkeypatch.setattr(LpInstance, "A_eq", property(refuse))
        monkeypatch.setattr(LpInstance, "A_le", property(refuse))
        path, out = tmp_path / "bad20.json", tmp_path / "bench.json"
        save_dataset(bad_example(BadExampleSpec(k=20), augmented=False), path)
        assert run(["bench", "--dataset", str(path), "--out", str(out)]) == 0
        lp = json.loads(out.read_text())["lp"]
        sizes = lp["variables"], lp["equality_rows"], lp["inequality_rows"]
        assert sizes == (11_541, 194, 6_101)


class TestTables:
    def test_snapshot_matches(self, tmp_path):
        out = tmp_path / "tables.txt"
        assert run(["tables", "--out", str(out)]) == 0
        text = out.read_text()
        assert "snapshot: match" in text
        assert "0.697" in text  # spot entry
        assert "-" in text      # dash entries rendered

    def test_json_format(self, tmp_path):
        out = tmp_path / "tables.json"
        assert run(["tables", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["snapshot"]["status"] == "match"
        assert len(doc["tables"]["table3"]) == 6


class TestVerify:
    def test_round_trip(self, dataset_file, tmp_path):
        report = tmp_path / "round.json"
        assert run(["round", "--dataset", dataset_file, "--out", str(report)]) == 0
        out = tmp_path / "verify.json"
        assert run(["verify", "--report", str(report), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "match" and doc["methods_checked"] == 4

    def test_bench_report_verifies(self, dataset_file, tmp_path):
        report = tmp_path / "bench.json"
        assert run(["bench", "--dataset", dataset_file, "--samples", "8",
                    "--out", str(report)]) == 0
        out = tmp_path / "verify.json"
        assert run(["verify", "--report", str(report), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "match" and doc["methods_checked"] == 5

    def test_detects_tampering(self, dataset_file, tmp_path):
        report = tmp_path / "round.json"
        assert run(["round", "--dataset", dataset_file, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["methods"]["zero"]["revenue"] = "999"
        report.write_text(json.dumps(doc))
        assert run(["verify", "--report", str(report)]) == cli.EXIT_VALIDATION


class TestProbe:
    def test_probe_report(self, dataset_file, tmp_path):
        out = tmp_path / "probe.json"
        assert run(["probe", "--dataset", dataset_file, "--samples", "50",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["phi_bound_below_regime"] == pytest.approx(0.58)
        rows = doc["probe_rows"]
        assert rows and all(r["regime"] in ("above", "below") for r in rows)
        taus = {r["tau"] for r in rows}
        assert "9" in taus  # every positive grid value probed

    def test_probe_deterministic(self, dataset_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["probe", "--dataset", dataset_file, "--samples", "20", "--seed", "4"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_zero_bids_probe_nothing(self, tmp_path):
        """No positive grid value, so no tau: no context is built and no row written."""
        ds, out = tmp_path / "zero.json", tmp_path / "probe.json"
        ds.write_text(json.dumps({**DATASET, "auctions": [{"weight": 1, "bids": ["0"] * 3}]}))
        assert run(["probe", "--dataset", str(ds), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["probe_rows"] == []


class TestExitCodes:
    def test_size_guard(self, dataset_file):
        assert run(["solve", "--dataset", dataset_file,
                    "--max-subprofiles", "3"]) == cli.EXIT_SIZE_GUARD

    def test_int64_overflow_refused(self, tmp_path):
        """Revenues past 2^63 are exact; only the float LP is refused (2^53)."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "num_items": 2, "buyers": ["a", "b", "c"],
            "auctions": [{"weight": 1000000,
                          "bids": ["6000000000000", "5000000000000", "3000000000000"]}],
        }))
        assert run(["solve", "--dataset", str(path)]) == cli.EXIT_SIZE_GUARD
        out = tmp_path / "bench.json"
        assert run(["bench", "--dataset", str(path), "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert "2^53" in doc["lp_skipped"]
        methods = doc["methods"]
        assert methods["brute_force"]["revenue"] == methods["greedy"]["revenue"] == (
            "11000000000000000000")

    def test_empty_dataset(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"num_items": 1, "buyers": ["a"], "auctions": []}))
        for command in ("solve", "bench"):
            assert run([command, "--dataset", str(path)]) == cli.EXIT_VALIDATION
            assert "dataset has no auctions" in capsys.readouterr().err

    def test_solver_numerical_failure(self, dataset_file, monkeypatch, capsys):
        from evcg_reserves import lp_solver

        for status in ("Iteration limit reached", "Infeasible", "Unbounded",
                       "run returned an error"):
            monkeypatch.setattr(lp_solver, "linprog",
                                lambda *args, **kwargs: lp_solver.HighsResult(status))
            assert run(["solve", "--dataset", dataset_file]) == cli.EXIT_VALIDATION
            assert f"(HiGHS: {status})" in capsys.readouterr().err

    @pytest.mark.parametrize("bound, status", [(-1.0, "Infeasible"), (None, "Unbounded")])
    def test_solver_failure_through_highs(self, dataset_file, monkeypatch, capsys,
                                          bound, status):
        """The dataset's LP replaced by one HiGHS really finds infeasible
        (x <= -1) or unbounded (no row): exit 2 with HiGHS's status."""
        import numpy as np
        import scipy.sparse as sp

        from evcg_reserves import lp_model, lp_solver

        rows = {} if bound is None else {"A_le": sp.csr_matrix([[1.0]]),
                                         "b_le": np.array([bound])}
        lp = lp_solver.StandardLp(c=np.array([1.0]), **rows)
        monkeypatch.setattr(lp_model, "reduced_lp", lambda instance: lp_solver.Quotient(lp, None))
        assert run(["solve", "--dataset", dataset_file]) == cli.EXIT_VALIDATION
        assert f"(HiGHS: {status})" in capsys.readouterr().err

    def test_bench_rounding_flags_checked_without_lp(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "bench.json"
        for flag, value, message in (("--boost", "2", "boost"), ("--samples", "0", "num_samples")):
            # the size guard refuses the LP, so no rounding step would read the flag
            assert run(["bench", "--dataset", dataset_file, "--max-subprofiles", "1",
                        flag, value, "--out", str(out)]) == cli.EXIT_VALIDATION
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("round", "--boost", "2", "boost"),
        ("round", "--samples", "0", "num_samples"),
        ("probe", "--boost", "1", "boost"),
        ("probe", "--samples", "1", "at least 2"),
    ])
    def test_rounding_flags_checked_before_lp(self, dataset_file, tmp_path, capsys,
                                              command, flag, value, message):
        """Refused with exit 2 before the LP is built, so not as a size-guard refusal."""
        out = tmp_path / "report.json"
        assert run([command, "--dataset", dataset_file, "--max-subprofiles", "1",
                    flag, value, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--max-subprofiles", "-5"),
        ("--brute-cap", "-1"),
        ("--threads", "0"),
        ("--threads", "-2"),
        ("--tol-feas", "nan"),
        ("--tol-feas", "inf"),
        ("--tol-feas", "-0.5"),
        ("--buyers", "0"),
        ("--max-bid", "-1"),
        ("--max-weight", "0"),
        ("--noise", "-1"),
        ("--noise", "nan"),
        ("--noise", "inf"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-1"),
    ])
    def test_out_of_range_number_rejected(self, dataset_file, tmp_path, capsys, flag, value):
        """Refused while parsing, before the dataset is read or a file written."""
        out = tmp_path / "bench.json"
        command = {"--buyers": ["gen", "correlated"], "--noise": ["gen", "correlated"],
                   "--max-bid": ["gen", "random"], "--max-weight": ["gen", "random"],
                   "--tol": ["tables"]}.get(flag, ["bench", "--dataset", dataset_file])
        with pytest.raises(SystemExit) as exited:
            run(command + [flag, value, "--out", str(out)])
        assert exited.value.code == cli.EXIT_VALIDATION
        assert f"argument {flag}: {value!r} is not a finite number >=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "round", "probe", "gen random",
                                         "gen correlated"])
    def test_negative_seed_rejected(self, dataset_file, tmp_path, capsys, command):
        """Refused while parsing: before the LP is solved, and also where the
        size guard leaves ``bench`` no draw to make."""
        argv = command.split()
        if argv[0] != "gen":
            argv += ["--dataset", dataset_file, "--max-subprofiles", "1"]
        with pytest.raises(SystemExit) as exited:
            run(argv + ["--seed", "-1", "--out", str(tmp_path / "out.json")])
        assert exited.value.code == cli.EXIT_VALIDATION
        assert "argument --seed" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]

    def test_refused_allocation_is_a_size_guard_exit(self, dataset_file, tmp_path,
                                                     monkeypatch, capsys):
        """A draw matrix the machine cannot hold exits 3, not with a traceback."""
        from evcg_reserves import rounding

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 31.3 TiB for an array")

        monkeypatch.setattr(rounding, "sample_matrix", refuse)
        out = tmp_path / "bench.json"
        assert run(["bench", "--dataset", dataset_file, "--out", str(out)]) == cli.EXIT_SIZE_GUARD
        assert "size guard: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_correlated_noise_past_int64_refused(self, tmp_path, capsys):
        """A scaled bid that is not finite or reaches 2^63 is refused before the int cast."""
        out = tmp_path / "corr.json"
        assert run(["gen", "correlated", "--noise", "1e308",
                    "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "noise" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        *[("solve", flag, "1") for flag in
          ("--boost", "--samples", "--seed", "--threads", "--brute-cap")],
        ("round", "--brute-cap", "1"),
        ("probe", "--threads", "1"),
        ("probe", "--brute-cap", "1"),
        *[("gen bad-example", flag, "1") for flag in
          ("--buyers", "--auctions", "--items", "--max-bid", "--max-weight", "--noise",
           "--scale", "--seed")],
        *[("gen random", flag, "1") for flag in ("--k", "--delta", "--noise")],
        ("gen random", "--fractional-out", "{tmp}/frac.json"),
        *[("gen correlated", flag, "1") for flag in
          ("--k", "--delta", "--max-bid", "--max-weight")],
        ("gen correlated", "--fractional-out", "{tmp}/frac.json"),
    ])
    def test_unread_flag_rejected(self, dataset_file, tmp_path, capsys, command, flag, value):
        """A flag the command or gen kind would not read exits 2 while parsing."""
        argv = command.split()
        if argv[0] != "gen":
            argv += ["--dataset", dataset_file]
        with pytest.raises(SystemExit) as exited:
            run(argv + [flag, value.format(tmp=tmp_path), "--out", str(tmp_path / "out.json")])
        assert exited.value.code == cli.EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["ds.json"]

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["solve", "--dataset", str(bad)]) == cli.EXIT_VALIDATION

    def test_missing_file(self):
        assert run(["solve", "--dataset", "/nonexistent.json"]) == cli.EXIT_VALIDATION

    def test_field_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_items": 1, "buyers": ["a"],
                                   "auctions": [{"weight": 1, "bids": ["1", "2"]}]}))
        assert run(["solve", "--dataset", str(bad)]) == cli.EXIT_VALIDATION

    def test_malformed_dataset(self, tmp_path, capsys):
        """Each malformed structure exits 2 with an error naming the field."""
        def dataset(**changes):
            return {**DATASET, **changes}

        auction = DATASET["auctions"][0]
        cases = [
            ([1, 2], "dataset must be a JSON object"),
            (dataset(auctions=5), "auctions must be a list"),
            (dataset(buyers="b1"), "buyers must be a list"),
            (dataset(auctions=[7]), "auction 0 must be an object"),
            (dataset(auctions=[{**auction, "bids": "950"}]), "auction 0: bids must be a list"),
            (dataset(auctions=[{**auction, "weight": 2.9}]), "auction 0: weight must be an"),
            (dataset(auctions=[{**auction, "weight": True}]), "auction 0: weight must be an"),
            (dataset(auctions=[{**auction, "weight": None}]), "auction 0: weight must be an"),
            (dataset(num_items=1.5), "num_items must be an integer"),
            (dataset(num_items=True), "num_items must be an integer"),
            (dataset(scale=0.5), "scale must be an integer"),
            (dataset(scale=False), "scale must be an integer"),
        ]
        path = tmp_path / "bad.json"
        for data, error in cases:
            path.write_text(json.dumps(data))
            assert run(["solve", "--dataset", str(path)]) == cli.EXIT_VALIDATION, data
            assert error in capsys.readouterr().err, data

    def test_edge_datasets_end_in_documented_exits(self, tmp_path):
        """Money past int64, no buyers and more items than buyers: every
        pipeline command ends in exit 0, 2 or 3, with no exception escaping."""
        def dataset(num_items, columns, buyers=2):
            return {"num_items": num_items, "buyers": [f"b{i}" for i in range(buyers)],
                    "auctions": [{"weight": str(w), "bids": [str(b) for b in bids]}
                                 for w, bids in columns]}

        cases = {
            "bid 2^63": dataset(1, [(1, (2**63, 5))]),
            "bids past 2^64": dataset(2, [(1, (2**66, 2**70, 3)), (2, (2**68, 0, 2**67))],
                                      buyers=3),
            "weight 2^63, zero bids": dataset(1, [(1, (3, 2)), (2**63, (0, 0))]),
            "weight 2^64, every bid 0": dataset(1, [(2**64, (0, 0))]),
            "no buyers": dataset(1, [(1, ())], buyers=0),
            "more items than buyers": dataset(3, [(1, (4, 1)), (2, (2, 2))]),
        }
        path, out = tmp_path / "edge.json", str(tmp_path / "out.json")
        for name, data in cases.items():
            path.write_text(json.dumps(data))
            for command in ("solve", "round", "bench", "probe"):
                code = run([command, "--dataset", str(path), "--out", out])
                assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_SIZE_GUARD), (
                    name, command, code)

    def test_io_errors(self, dataset_file, tmp_path, capsys):
        assert run(["solve", "--dataset", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert run(["solve", "--dataset", dataset_file,
                    "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.count("Is a directory") == 2

    def test_verify_rejects_non_object_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("[]")
        assert run(["verify", "--report", str(report)]) == cli.EXIT_VALIDATION
        assert "report must be a JSON object" in capsys.readouterr().err

    def test_verify_rejects_malformed_report(self, dataset_file, tmp_path, capsys):
        """Each malformed nested field exits 2 with an error naming the field."""
        def report(**changes):
            return {"config": {"dataset": dataset_file}, "dataset": {"scale": 0},
                    "methods": {"zero": {"reserves": ["0", "0", "0"], "revenue": "13"}},
                    **changes}

        cases = [
            (report(config=[]), "report field config must be an object"),
            (report(config={"dataset": 7}), "report field config.dataset must be a path"),
            (report(dataset=7), "report field dataset must be an object"),
            (report(methods=[]), "report field methods must be an object"),
            (report(methods={"zero": 5}), "report field methods.zero must be an object"),
            (report(methods={"zero": {"reserves": 5, "revenue": "13"}}),
             "report field methods.zero.reserves must be a list"),
        ]
        path = tmp_path / "report.json"
        for doc, error in cases:
            path.write_text(json.dumps(doc))
            assert run(["verify", "--report", str(path)]) == cli.EXIT_VALIDATION, doc
            assert error in capsys.readouterr().err, doc
        # the well-formed report these cases start from verifies
        path.write_text(json.dumps(report()))
        assert run(["verify", "--report", str(path)]) == cli.EXIT_OK


class TestReportRendering:
    def test_ratios_recomputed_not_stored(self, dataset_file, tmp_path):
        out = tmp_path / "bench.json"
        run(["bench", "--dataset", dataset_file, "--samples", "8", "--out", str(out)])
        doc = json.loads(out.read_text())
        recomputed = compute_ratios(doc)
        assert recomputed == doc["ratios"]

    def test_formats_render(self, dataset_file, tmp_path):
        out = tmp_path / "r.json"
        run(["round", "--dataset", dataset_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert render(doc, "text").startswith("command: round")
        assert render(doc, "csv").startswith("key,value")
        with pytest.raises(ValueError):
            render(doc, "yaml")

    def test_timings_opt_in(self, dataset_file, tmp_path):
        plain = tmp_path / "a.json"
        timed = tmp_path / "b.json"
        run(["solve", "--dataset", dataset_file, "--out", str(plain)])
        run(["solve", "--dataset", dataset_file, "--out", str(timed), "--timings"])
        assert "timings" not in json.loads(plain.read_text())
        assert "timings" in json.loads(timed.read_text())
