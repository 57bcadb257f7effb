import json

from radialopf import cli, netmodel

from helpers import bus_row, mk_case


def run(argv):
    return cli.main(argv)


def read(path):
    return path.read_text()


def test_validate_ok(tmp_path):
    assert run(["validate", "--case", "case33.m"]) == 0


def test_validate_bad_case(tmp_path):
    bad = tmp_path / "bad.m"
    bad.write_text(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1)],
        [[1, 2, 0.0, 0.0, 0, 0]],
    ))
    assert run(["validate", "--case", str(bad)]) == 1


def test_missing_case_is_data_error():
    assert run(["validate", "--case", "no-such-case.m"]) == 1


def test_pf_outputs(tmp_path):
    code = run(["pf", "--case", "case33.m", "--psp-v", "1.05",
                "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "pf_comparison.csv").strip().split("\n")
    assert len(lines) == 34  # header + 33 buses
    assert lines[0].split(",")[:3] == ["bus", "v_model[pu]", "v_ac[pu]"]
    summary = json.loads(read(tmp_path / "pf_summary.json"))
    assert summary["max_voltage_error[pu]"] < 0.005


def test_pf_heavy_load_scenario(tmp_path):
    code = run(["pf", "--case", "case33.m", "--psp-v", "1.05",
                "--load-scale", "1.5", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "pf_summary.json"))
    assert summary["min_voltage_ac[pu]"] < 0.95


def test_pf_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["pf", "--case", "case33.m", "--psp-v", "1.05",
                    "--out", str(out)]) == 0
    assert read(a / "pf_comparison.csv") == read(b / "pf_comparison.csv")


def test_opf_table_scenario(tmp_path):
    code = run([
        "opf", "--case", "case33.m", "--psp-v", "1.05",
        "--psp-cost-p", "30", "--psp-cost-q", "3",
        "--dg", "18:1.0:0.5:31:2", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads(read(tmp_path / "opf_summary.json"))
    assert summary["status"] == "optimal"
    assert abs(summary["objective[$]"] - 122.16) / 122.16 < 0.005
    rows = read(tmp_path / "opf_dispatch.csv").strip().split("\n")
    dg = dict(zip(rows[0].split(","), rows[2].split(",")))
    assert abs(float(dg["pg[MW]"]) - 0.624) < 0.02


def test_opf_slack_only(tmp_path):
    code = run(["opf", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3", "--out", str(tmp_path)])
    assert code == 0
    rows = read(tmp_path / "opf_dispatch.csv").strip().split("\n")
    assert len(rows) == 2  # header + the supply point
    pg = float(rows[1].split(",")[1])
    assert 3.715 < pg < 3.95  # load plus losses, in MW


def test_price_outputs_and_mechanisms(tmp_path):
    code = run([
        "price", "--case", "case33.m", "--psp-v", "1.05",
        "--psp-cost-p", "30", "--psp-cost-q", "3",
        "--mechanism", "both", "--out", str(tmp_path),
    ])
    assert code == 0
    prices = read(tmp_path / "prices.csv").strip().split("\n")
    assert len(prices) == 33  # header + 32 non-slack buses
    settle = read(tmp_path / "settlement.csv").strip().split("\n")
    mech = {row.split(",")[0]: float(row.split(",")[3]) for row in settle[1:]}
    assert mech["mlm"] > 0.0
    assert abs(mech["lam"]) < 1e-6 * 120.0


def test_price_json_format(tmp_path):
    code = run([
        "price", "--case", "case33.m", "--psp-v", "1.05",
        "--psp-cost-p", "30", "--psp-cost-q", "3",
        "--format", "json", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads(read(tmp_path / "prices.json"))
    assert len(doc["rows"]) == 32
    rep = json.loads(read(tmp_path / "settlement.json"))
    assert {r["mechanism"] for r in rep["reports"]} == {"mlm", "lam"}


def test_price_with_oracle_column(tmp_path):
    code = run([
        "price", "--case", "case33.m", "--psp-v", "1.05",
        "--psp-cost-p", "30", "--psp-cost-q", "3", "--oracle",
        "--mechanism", "mlm", "--out", str(tmp_path),
    ])
    assert code == 0
    header = read(tmp_path / "prices.csv").split("\n")[0]
    assert "oracle_p[$ per MWh]" in header and "dlmp_p_rel_err" in header


def test_duplicate_command(tmp_path):
    code = run(["duplicate", "--case", "case33.m", "--copies", "100",
                "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    net = netmodel.from_json(read(tmp_path / "network.json"))
    assert net.n_bus == 3201
    # the written network is loadable by the other commands
    code = run(["pf", "--case", str(tmp_path / "network.json"),
                "--psp-v", "1.05", "--out", str(tmp_path)])
    assert code == 0


def test_duplicate_identity(tmp_path):
    code = run(["duplicate", "--case", "case33.m", "--copies", "1",
                "--scale-lo", "1", "--scale-hi", "1", "--out", str(tmp_path)])
    assert code == 0
    net = netmodel.from_json(read(tmp_path / "network.json"))
    assert net.n_bus == 33


def test_scenario_file_with_flag_override(tmp_path):
    scen = {
        "case": "case33.m",
        "psp_voltage": 1.0,
        "psp_costs": [30.0, 3.0],
        "dgs": [{"bus": 18, "p_range": [0, 1.0], "q_range": [0, 0.5],
                 "cost_p": 31, "cost_q": 2}],
    }
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(scen))
    code = run(["opf", "--scenario", str(scen_path), "--psp-v", "1.05",
                "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "opf_summary.json"))
    # the flag override (1.05) applies, reproducing the benchmark objective
    assert abs(summary["objective[$]"] - 122.16) / 122.16 < 0.005


def test_scenario_psp_load(tmp_path):
    scen = {
        "case": "case33.m",
        "psp_voltage": 1.05,
        "psp_costs": [30.0, 3.0],
        "psp_load": [0.5, 0.0],
    }
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(scen))
    assert run(["pf", "--scenario", str(scen_path), "--out", str(tmp_path)]) == 0


def test_case_dir_env(tmp_path, monkeypatch):
    import importlib.resources
    src = (importlib.resources.files("radialopf") / "cases" / "case33.m").read_text()
    (tmp_path / "mycase.m").write_text(src)
    monkeypatch.setenv("RADIALOPF_CASE_DIR", str(tmp_path))
    assert run(["validate", "--case", "mycase.m"]) == 0


def test_solver_failure_exit_code(tmp_path, capsys):
    # infeasible by construction: voltage floor nothing can satisfy
    code = run(["opf", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3",
                "--load-scale", "3.0", "--vmin", "1.04", "--vmax", "1.06",
                "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: OPF solve ended with status ")
    assert err.count("\n") == 1


def notes(capsys):
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("note:")]


def test_opf_notes_projection(tmp_path, capsys):
    assert run(["opf", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3",
                "--dg", "18:1.0:0.5:31:2", "--out", str(tmp_path)]) == 0
    [note] = notes(capsys)
    assert note.startswith("note: cost quadratic is indefinite (min eigenvalue -")
    assert note.endswith("); projected onto the PSD cone")


def test_opf_notes_trace_condition_without_dgs(tmp_path, capsys):
    assert run(["opf", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3", "--out", str(tmp_path)]) == 0
    assert notes(capsys) == [
        "note: cost-trace condition fails; proceeding on the numerical certificate"
    ]


def json_network(tmp_path, edit):
    """A three-bus chain as a network JSON file, after ``edit(doc)``."""
    doc = json.loads(netmodel.to_json(netmodel.parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1), bus_row(3, pd=0.1)],
        [[1, 2, 0.01, 0.02, 0, 0], [2, 3, 0.01, 0.02, 0, 0]],
    ))))
    edit(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_json_reversed_branch(tmp_path, capsys):
    def reverse(doc):
        br = doc["branches"][1]
        br["from"], br["to"] = br["to"], br["from"]

    assert run(["validate", "--case", json_network(tmp_path, reverse)]) == 1
    err = capsys.readouterr().err
    assert "branch 3-2: not oriented parent to child" in err and err.count("\n") == 1


def test_validate_json_negative_load(tmp_path, capsys):
    def negative(doc):
        doc["buses"][2]["p_load"] = -0.01

    assert run(["validate", "--case", json_network(tmp_path, negative)]) == 1
    err = capsys.readouterr().err
    assert "bus 3: negative load" in err and err.count("\n") == 1


def test_opf_and_price_rerun_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ["--case", "case33.m", "--psp-v", "1.05",
            "--psp-cost-p", "30", "--psp-cost-q", "3", "--dg", "18:1.0:0.5:31:2"]
    for out in (a, b):
        assert run(["opf", *args, "--out", str(out)]) == 0
        assert run(["price", *args, "--out", str(out)]) == 0
    for name in ("opf_dispatch.csv", "opf_summary.json", "prices.csv",
                 "settlement.csv"):
        assert read(a / name) == read(b / name), name


def test_price_reports_dual_column(tmp_path):
    assert run(["price", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3",
                "--dg", "18:1.0:0.5:31:2", "--out", str(tmp_path)]) == 0
    header, first = read(tmp_path / "prices.csv").split("\n")[:2]
    cols = header.split(",")
    assert "dual_dlmp_p[$ per MWh]" in cols
    row = dict(zip(cols, first.split(",")))
    explicit = float(row["dlmp_p[$ per MWh]"])
    dual = float(row["dual_dlmp_p[$ per MWh]"])
    assert abs(explicit - dual) / explicit < 0.02


def test_oracle_failure_exit_code(tmp_path, monkeypatch):
    from radialopf import acpf, cli as cli_mod

    def boom(*a, **k):
        raise acpf.OracleError("synthetic oracle failure")

    monkeypatch.setattr(cli_mod.acpf, "fd_price_oracle", boom)
    code = run(["price", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3", "--oracle",
                "--out", str(tmp_path)])
    assert code == 3


def test_congestion_is_pricing_error_exit_code(tmp_path, capsys):
    """A binding branch rating ends in exit 2 with one stderr line."""
    case = tmp_path / "rated.m"
    case.write_text(mk_case(
        [bus_row(1, 3), bus_row(2, pd=3.0, qd=1.0)],
        [[1, 2, 0.01, 0.02, 0, 2.0]], base=10.0,
        gen_rows=[[1, 0, 0, 10, -10, 1, 10, 1, 10, 0]],
        gencost_rows=[[2, 0, 0, 2, 30, 0]],
    ))
    code = run(["price", "--case", str(case), "--dg", "2:5:2:40:4",
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("pricing error: congestion detected")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_scenario_missing_dg_key_is_data_error(tmp_path, capsys):
    scen = {"case": "case33.m",
            "dgs": [{"bus": 18, "q_range": [0, 0.5], "cost_p": 31, "cost_q": 2}]}
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(scen))
    assert run(["opf", "--scenario", str(scen_path), "--out", str(tmp_path)]) == 1
    assert "missing key 'p_range'" in capsys.readouterr().err


def test_network_missing_bus_field_is_data_error(tmp_path, capsys):
    doc = json.loads(netmodel.to_json(netmodel.parse_matpower_case(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1)], [[1, 2, 0.01, 0.02, 0, 0]],
    ))))
    del doc["buses"][1]["v_min"]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", "--case", str(path)]) == 1
    assert "missing key 'v_min'" in capsys.readouterr().err


def test_oracle_sweep_serializes_network_once(tmp_path, monkeypatch):
    """The process pool gets the network as one JSON document."""
    calls = []
    to_json = netmodel.to_json

    def counting(net):
        calls.append(net.n_bus)
        return to_json(net)

    monkeypatch.setattr(netmodel, "to_json", counting)
    code = run(["price", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3", "--copies", "2",
                "--oracle", "--jobs", "2", "--mechanism", "mlm", "--out", str(tmp_path)])
    assert code == 0
    assert calls == [65]


def test_oracle_sweep_in_process_parses_no_json(tmp_path, monkeypatch):
    """With one job the sweep runs on the network in memory."""
    calls = []

    def refuse(text):
        calls.append(len(text))
        raise AssertionError("network parsed from JSON")

    monkeypatch.setattr(netmodel, "from_json", refuse)
    code = run(["price", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3", "--copies", "2",
                "--oracle", "--jobs", "1", "--mechanism", "mlm", "--out", str(tmp_path)])
    assert code == 0
    assert calls == []


def test_oracle_sweep_process_pool_matches_in_process(tmp_path):
    args = ["price", "--case", "case33.m", "--psp-v", "1.05",
            "--psp-cost-p", "30", "--psp-cost-q", "3", "--copies", "2",
            "--dg", "18:0.2:0.1:25:2", "--oracle", "--mechanism", "both"]
    for jobs in ("1", "2"):
        assert run([*args, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    one, two = read(tmp_path / "1" / "prices.csv"), read(tmp_path / "2" / "prices.csv")
    assert "oracle_p[$ per MWh]" in one.split("\n")[0]
    assert one == two


def test_opf_builds_objective_once(tmp_path, monkeypatch):
    from radialopf import mdistflow, mdopf

    calls = {"objective": 0, "fixed_load": 0}
    build_objective, solve_fixed_load = mdopf.build_objective, mdistflow.solve_fixed_load

    def count(key, fn):
        def wrapper(*a, **k):
            calls[key] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(mdopf, "build_objective", count("objective", build_objective))
    monkeypatch.setattr(mdistflow, "solve_fixed_load", count("fixed_load", solve_fixed_load))
    assert run(["opf", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3",
                "--dg", "18:1.0:0.5:31:2", "--out", str(tmp_path)]) == 0
    assert calls == {"objective": 1, "fixed_load": 1}
    cert = json.loads(read(tmp_path / "opf_summary.json"))["convexity_certificate"]
    # generic P/Q cost ratios leave the exact quadratic indefinite
    assert cert["projected"] and not cert["psd"] and cert["min_eigenvalue"] < 0
