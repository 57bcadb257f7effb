import importlib.resources
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from radialopf import acpf, cli, mdistflow, mdopf, netmodel, qcqpsolver

from helpers import (
    assert_bitwise, assert_same_network, bus_record, bus_records, bus_row, mk_case,
    rated_network, reference_opf_dispatch_csv, reference_pf_comparison_csv,
)


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


def test_duplicate_bus_id_is_one_line_data_error(tmp_path, capsys):
    bad = tmp_path / "dup.m"
    bad.write_text(mk_case([bus_row(1, 3), bus_row(2), bus_row(2)],
                           [[1, 2, 0.01, 0.02, 0, 0], [1, 2, 0.01, 0.02, 0, 0]]))
    assert run(["validate", "--case", str(bad)]) == 1
    assert capsys.readouterr().err == "data error: duplicate bus ids [2]\n"


def test_missing_case_is_data_error():
    assert run(["validate", "--case", "no-such-case.m"]) == 1


def test_validate_applies_scenario(capsys):
    # the scenario flags are validated too, as ``pf`` would apply them
    assert run(["validate", "--case", "case33.m", "--copies", "0",
                "--dg", "999:1:1:1:1"]) == 1
    assert capsys.readouterr().err.startswith("data error: ")
    assert run(["validate", "--case", "case33.m", "--dg", "999:1:1:1:1"]) == 1
    assert "no bus 999" in capsys.readouterr().err
    assert run(["validate", "--case", "case33.m", "--copies", "3"]) == 0
    assert capsys.readouterr().out == "ok: 97 buses, 96 branches, radial\n"


def _scenario(argv):
    return cli._scenario_from_args(cli.build_parser().parse_args(argv))


def _duplication(tmp_path, *flags):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        "case": "case33.m", "duplication": {"copies": 3, "seed": 42, "range": [0.9, 1.1]},
    }))
    scen = _scenario(["opf", "--scenario", str(path), *flags])
    return scen.copies, scen.seed, (scen.scale_lo, scen.scale_hi)


def _case33_text():
    return (importlib.resources.files("radialopf") / "cases" / "case33.m").read_text()


def _case33():
    return netmodel.parse_matpower_case(_case33_text())


def test_copies_flag_keeps_scenario_seed_and_range(tmp_path):
    assert _duplication(tmp_path, "--copies", "3") == (3, 42, (0.9, 1.1))
    assert _duplication(tmp_path, "--copies", "5", "--scale-hi", "1.2") == (5, 42, (0.9, 1.2))
    # without a scenario duplication the keys no flag sets stay unset, and
    # ``apply_scenario`` leaves them to the defaults, seed 0 and range 0.7-1.3
    scen = _scenario(["opf", "--case", "case33.m", "--copies", "2", "--scale-hi", "1.2"])
    assert (scen.copies, scen.seed, scen.scale_lo, scen.scale_hi) == (2, None, None, 1.2)
    assert_same_network(cli.apply_scenario(scen), netmodel.duplicate_system(
        _case33(), 2, seed=0, scale_lo=0.7, scale_hi=1.2))


def test_scenario_duplication_defaults_seed_and_range(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"case": "case33.m", "duplication": {"copies": 2}}))
    scen = _scenario(["opf", "--scenario", str(path)])
    assert (scen.copies, scen.seed, scen.scale_lo, scen.scale_hi) == (2, None, None, None)
    assert_same_network(cli.apply_scenario(scen), netmodel.duplicate_system(
        _case33(), 2, seed=0, scale_lo=0.7, scale_hi=1.3))


def test_seed_flag_overrides_scenario_seed(tmp_path):
    assert _duplication(tmp_path, "--seed", "7") == (3, 7, (0.9, 1.1))
    assert _duplication(tmp_path) == (3, 42, (0.9, 1.1))


def test_duplicate_command_builds_through_apply_scenario(tmp_path, monkeypatch):
    """``duplicate`` writes the network of the scenario its flags give, built
    by ``apply_scenario`` with the same defaults as every other command."""
    calls = []
    apply_scenario = cli.apply_scenario

    def recording(scen, case_dir=None):
        calls.append(scen)
        return apply_scenario(scen, case_dir)

    monkeypatch.setattr(cli, "apply_scenario", recording)
    assert run(["duplicate", "--case", "case33.m", "--copies", "2", "--out", str(tmp_path)]) == 0
    assert calls == [cli.Scenario(case="case33.m", copies=2)]
    written = netmodel.from_json(read(tmp_path / "network.json"))
    assert_same_network(written, netmodel.duplicate_system(_case33(), 2))


def _own_case(tmp_path):
    """A three-bus chain whose buses hold 0.92-1.05 pu and whose slack costs
    40 $/MWh and nothing per MVarh."""
    path = tmp_path / "own.m"
    path.write_text(mk_case(
        [bus_row(i, 3 if i == 1 else 1, pd=0.0 if i == 1 else 0.1, vmax=1.05, vmin=0.92)
         for i in (1, 2, 3)],
        [[1, 2, 0.01, 0.02, 0, 0], [2, 3, 0.01, 0.02, 0, 0]],
        gen_rows=[[1, 0, 0, 10, -10, 1, 10, 1, 10, 0]],
        gencost_rows=[[2, 0, 0, 2, 40, 0]],
    ))
    return str(path)


def test_psp_cost_flag_keeps_the_other_case_cost(tmp_path):
    """Each supply-point price flag sets only its own price."""
    case = _own_case(tmp_path)
    net = cli.apply_scenario(_scenario(["opf", "--case", case, "--psp-cost-q", "5"]))
    slack = bus_record(net, 1)
    assert (slack.gen.cost_p, slack.gen.cost_q) == (40, 5)
    net = cli.apply_scenario(_scenario(["opf", "--case", case, "--psp-cost-p", "25"]))
    slack = bus_record(net, 1)
    assert (slack.gen.cost_p, slack.gen.cost_q) == (25, 0)


def test_psp_cost_p_alone_equals_explicit_case_cost_q(tmp_path):
    """case33.m prices reactive supply at 0, so ``--psp-cost-p`` alone gives
    the reports of the same run with ``--psp-cost-q 0``."""
    args = ["opf", "--case", "case33.m", "--dg", "18:0.2:0.1:25:2", "--psp-cost-p", "25"]
    assert run([*args, "--out", str(tmp_path / "p")]) == 0
    assert run([*args, "--psp-cost-q", "0", "--out", str(tmp_path / "pq")]) == 0
    for name in ("opf_dispatch.csv", "opf_summary.json"):
        assert read(tmp_path / "p" / name) == read(tmp_path / "pq" / name), name


@pytest.mark.parametrize("flag,kept", [("--vmin", "v_max"), ("--vmax", "v_min")])
def test_voltage_flag_keeps_each_bus_other_limit(tmp_path, flag, kept):
    case = _own_case(tmp_path)
    own = {b.id: getattr(b, kept) for b in bus_records(netmodel.load_case(case))}
    net = cli.apply_scenario(_scenario(["opf", "--case", case, flag, "0.95"]))
    assert {b.id: getattr(b, kept) for b in bus_records(net)} == own
    assert {b.v_min if flag == "--vmin" else b.v_max for b in bus_records(net)} == {0.95}


def _unreadable_input(tmp_path, case):
    if case == "scenario_dir":
        return ["validate", "--scenario", str(tmp_path)]
    if case == "case_not_utf8":
        bad = tmp_path / "bad.m"
        bad.write_bytes(b"mpc.baseMVA = 1;\n\xff\xfe\n")
        return ["validate", "--case", str(bad)]
    if case == "prices_csv_dir":  # the streamed report's file cannot be opened
        (tmp_path / "out" / "prices.csv").mkdir(parents=True)
        return ["price", "--case", "case33.m", "--psp-cost-p", "30", "--psp-cost-q", "3",
                "--out", str(tmp_path / "out")]
    blocker = tmp_path / "file"
    blocker.write_text("")
    return ["pf", "--case", "case33.m", "--out", str(blocker / "out")]


@pytest.mark.parametrize("case,says", [
    ("scenario_dir", "cannot read {tmp}"),
    ("case_not_utf8", "cannot read {tmp}/bad.m: 'utf-8' codec"),
    ("out_under_file", "cannot write {tmp}/file/out/"),
    ("prices_csv_dir", "cannot write {tmp}/out/prices.csv: [Errno 21]"),
], ids=["scenario_dir", "case_not_utf8", "out_under_file", "prices_csv_dir"])
def test_os_and_decode_errors_are_one_line_data_error(tmp_path, capsys, case, says):
    code = run(_unreadable_input(tmp_path, case))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("data error: " + says.format(tmp=tmp_path))
    assert err.count("\n") == 1 and "Traceback" not in err


def _price_69x70_write_peaks(tmp_path, monkeypatch, *flags) -> dict[str, int]:
    """``price`` on case69 x70 with four DGs per copy (4,761 buses, seed 42):
    the tracemalloc peak of writing each report file, by name."""
    peaks = {}
    write = cli._write

    def traced(out_dir, name, chunks):
        tracemalloc.start()
        try:
            return write(out_dir, name, chunks)
        finally:
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write", traced)
    dgs = [a for bus in (27, 35, 46, 65) for a in ("--dg", f"{bus}:0.2:0.1:25:2")]
    assert run(["price", "--case", "case69.m", "--psp-v", "1.05", "--psp-cost-p", "30",
                "--psp-cost-q", "3", *dgs, "--copies", "70", "--seed", "42",
                "--mechanism", "both", *flags, "--out", str(tmp_path)]) == 0
    return peaks


def test_prices_csv_is_written_in_bounded_memory(tmp_path, monkeypatch):
    """Writing prices.csv for 4,761 buses allocates at most 0.6 MiB at its
    peak, as its rows are formatted and written in chunks; formatting the
    whole table's text at once peaks at 3.4 MiB."""
    peaks = _price_69x70_write_peaks(tmp_path, monkeypatch)
    assert read(tmp_path / "prices.csv").count("\n") == 4761
    assert peaks["prices.csv"] <= 0.6 * 2**20


def test_prices_json_is_written_in_bounded_memory(tmp_path, monkeypatch):
    """Writing prices.json for 4,761 buses allocates at most 0.6 MiB at its
    peak, as the document is formatted and written in the chunks of the CSV
    table; building the whole document first peaks at 9.7 MiB, and writing
    its text at 1.6 MiB more."""
    peaks = _price_69x70_write_peaks(tmp_path, monkeypatch, "--format", "json")
    assert len(json.loads(read(tmp_path / "prices.json"))["rows"]) == 4760
    assert peaks["prices.json"] <= 0.6 * 2**20


def test_cli_runs_as_module_without_warning():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "radialopf.cli",
         "validate", "--case", "case33.m"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("ok: 33 buses")


def test_only_a_pooled_sweep_imports_the_process_pool(tmp_path):
    """Importing the CLI and running an ``opf`` or an unpooled ``price``
    study loads neither ``multiprocessing`` nor the process pool of
    ``concurrent.futures``; only ``price --oracle --jobs N`` with N > 1
    uses them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = """if True:
        import sys
        pool = ("multiprocessing", "concurrent.futures.process")

        def loaded():
            return [m for m in pool if m in sys.modules]

        from radialopf import cli
        assert not loaded(), loaded()
        psp = ["--psp-v", "1.05", "--psp-cost-p", "30", "--psp-cost-q", "3"]
        assert cli.main(["opf", "--case", "case33.m", *psp, "--out", sys.argv[1]]) == 0
        assert not loaded(), loaded()
        assert cli.main(["price", "--case", "case33.m", *psp, "--oracle", "--jobs", "1",
                         "--mechanism", "both", "--out", sys.argv[1]]) == 0
        assert not loaded(), loaded()
    """
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "opf_dispatch.csv").exists() and (tmp_path / "prices.csv").exists()


def test_pf_outputs(tmp_path):
    code = run(["pf", "--case", "case33.m", "--psp-v", "1.05",
                "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "pf_comparison.csv").strip().split("\n")
    assert len(lines) == 34  # header + 33 buses
    assert lines[0].split(",")[:3] == ["bus", "v_model[pu]", "v_ac[pu]"]
    summary = json.loads(read(tmp_path / "pf_summary.json"))
    assert summary["max_voltage_error[pu]"] < 0.005


def _shuffled_network_json(tmp_path) -> str:
    """case69 x3 (seed 1) as a network JSON whose buses and branches are
    listed in a random order."""
    net = cli.apply_scenario(cli.Scenario(case="case69.m", copies=3, seed=1))
    doc = json.loads(netmodel.to_json(net))
    rng = np.random.default_rng(5)
    for key in ("buses", "branches"):
        doc[key] = [doc[key][i] for i in rng.permutation(len(doc[key]))]
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(doc))
    return str(path)


_DG69 = ["--psp-v", "1.05", "--psp-cost-p", "30", "--psp-cost-q", "3",
         "--dg", "27:0.2:0.1:25:2", "--dg", "65:0.2:0.1:25:2"]


@pytest.mark.parametrize("command,flags", [
    ("pf", ["--case", "case69.m", *_DG69, "--copies", "3", "--seed", "1"]),
    ("pf", ["--case", "shuffled"]),
    ("opf", ["--case", "case69.m", *_DG69, "--copies", "3", "--seed", "1"]),
    ("opf", ["--case", "case33.m", "--psp-v", "1.05", "--psp-cost-p", "30",
             "--psp-cost-q", "3"]),
    ("opf", ["--case", "shuffled", *_DG69]),
], ids=["pf-69x3-dgs", "pf-shuffled", "opf-69x3-dgs", "opf-slack-only", "opf-shuffled"])
def test_pf_and_opf_tables_match_row_reference(tmp_path, command, flags):
    """``pf_comparison.csv`` and ``opf_dispatch.csv`` hold the bytes of their
    row-at-a-time references; on the shuffled network JSON the ``pf`` rows
    follow its bus records."""
    flags = [_shuffled_network_json(tmp_path) if f == "shuffled" else f for f in flags]
    argv = [command, *flags]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 0
    net = cli._network(cli.build_parser().parse_args(argv))
    if command == "pf":
        state = mdistflow.solve_fixed_load(net)
        ac = acpf.newton_pf(net, v_start=state.v, delta_start=state.delta)
        got = read(tmp_path / "out" / "pf_comparison.csv")
        assert got == reference_pf_comparison_csv(net, state, ac)
        bus_ids = [int(line.partition(",")[0]) for line in got.splitlines()[1:]]
        assert bus_ids == [b.id for b in bus_records(net)]
    else:
        _, sol, _ = mdopf.solve_opf(net)
        got = read(tmp_path / "out" / "opf_dispatch.csv")
        assert got == reference_opf_dispatch_csv(net, sol)


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


def test_opf_summary_reports_stop_measures(tmp_path):
    """An optimal summary's ``final_gap`` and ``final_feasibility`` are the
    measures the stop test held under ``SolverConfig``'s tolerances. On
    case69 x10 (seed 1, four DGs a copy) the solve stops after 9 iterations
    with s'z at 6.2e-9 of 1 + |objective| (from a unit start, stopping on
    the largest product s_i z_i: 14 iterations and 3.7e-10)."""
    from radialopf.qcqpsolver import SolverConfig

    dgs = [a for bus in (27, 35, 46, 65) for a in ("--dg", f"{bus}:0.2:0.1:25:2")]
    assert run(["opf", "--case", "case69.m", "--psp-v", "1.05", "--psp-cost-p", "30",
                "--psp-cost-q", "3", *dgs, "--copies", "10", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    summary = json.loads(read(tmp_path / "opf_summary.json"))
    cfg = SolverConfig()
    assert summary["status"] == "optimal"
    assert summary["final_gap"] < cfg.tol_gap and summary["final_feasibility"] < cfg.tol_feas


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


def _oracle_cells(path):
    """(oracle, relative error) pairs of every row of a prices.csv, P then Q."""
    rows = [line.split(",") for line in read(path).strip().split("\n")]
    col = {name: j for j, name in enumerate(rows[0])}
    return [(float(r[col[o]]), float(r[col[e]])) for r in rows[1:]
            for o, e in (("oracle_p[$ per MWh]", "dlmp_p_rel_err"),
                         ("oracle_q[$ per MVarh]", "dlmp_q_rel_err"))]


def test_price_oracle_zero_supply_price(tmp_path, capsys):
    """Free supply makes every oracle price 0: the relative errors are NaN
    and the averages n/a, with nothing on stderr."""
    code = run(["price", "--case", "case33.m", "--psp-cost-p", "0", "--psp-cost-q", "0",
                "--oracle", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "avg DLMP_P oracle error: n/a" in out.splitlines()
    assert "avg DLMP_Q oracle error: n/a" in out.splitlines()
    cells = _oracle_cells(tmp_path / "prices.csv")
    assert len(cells) == 64
    assert all(oracle == 0.0 and math.isnan(rel) for oracle, rel in cells)


def test_price_oracle_error_undefined_only_at_zero_oracle(tmp_path, capsys, monkeypatch):
    """A zero oracle price at bus 18 leaves its relative errors NaN and the
    others finite; the averages run over the finite ones."""
    oracle = cli.acpf.fd_price_oracle

    def zero_at_18(net, bus, axis, **kw):
        return 0.0 if bus == 18 else oracle(net, bus, axis, **kw)

    monkeypatch.setattr(cli.acpf, "fd_price_oracle", zero_at_18)
    assert run(["price", "--case", "case33.m", "--psp-v", "1.05", "--psp-cost-p", "30",
                "--psp-cost-q", "3", "--oracle", "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    cells = _oracle_cells(tmp_path / "prices.csv")
    assert all(math.isnan(rel) == (o == 0.0) for o, rel in cells)
    assert sum(o == 0.0 for o, _ in cells) == 2
    finite_p = [rel for o, rel in cells[0::2] if o != 0.0]
    want = f"avg DLMP_P oracle error: {sum(finite_p) / len(finite_p) * 100:.4f}%"
    assert want in out.splitlines()


def test_price_notes_supply_point_not_interior(tmp_path, capsys):
    """A cheap DG that serves the whole load leaves the supply point at its
    floor: one note on stdout, nothing on stderr."""
    code = run(["price", "--case", "case33.m", "--psp-v", "1.0", "--psp-cost-p", "30",
                "--psp-cost-q", "3", "--dg", "2:4:2:1:1", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert ("note: supply-point generation is not strictly interior; marginal-loss "
            "prices assume the supply point is marginal") in out.splitlines()


def test_price_builds_path_incidence_once(tmp_path, monkeypatch):
    """The pipeline reads one memoized path incidence per network."""
    calls = []
    build = netmodel.build_path_incidence

    def counting(net):
        calls.append(net.n_bus)
        return build(net)

    monkeypatch.setattr(netmodel, "build_path_incidence", counting)
    assert run(["price", "--case", "case33.m", "--psp-v", "1.05", "--psp-cost-p", "30",
                "--psp-cost-q", "3", "--copies", "3", "--out", str(tmp_path)]) == 0
    assert calls == [97]


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


@pytest.mark.parametrize("source", ["scenario", "flag"])
def test_dg_is_the_generator_with_its_limits_in_pu(tmp_path, source):
    # a scenario file's DG (nonzero floors) and a --dg one (floors 0) are
    # the same network as ``with_generator`` with the MW/MVar limits / base
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps({"case": "case33.m", "dgs": [
        {"bus": 18, "p_range": [0.05, 0.2], "q_range": [-0.1, 0.1], "cost_p": 40, "cost_q": 4}]}))
    argv, limits = {
        "scenario": (["--scenario", str(scen_path)], (0.05, 0.2, -0.1, 0.1)),
        "flag": (["--case", "case33.m", "--dg", "18:0.2:0.1:40:4"], (0.0, 0.2, 0.0, 0.1)),
    }[source]
    got = cli._network(cli.build_parser().parse_args(["validate", *argv]))
    case = netmodel.load_case(cli.resolve_case("case33.m", None))
    gen = netmodel.Generator(*(v / case.base_power for v in limits), 40.0, 4.0)
    want = netmodel.with_generator(case, 18, gen)
    for name, column in vars(netmodel.columns(want)).items():
        assert_bitwise(getattr(netmodel.columns(got), name), column)


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
    (tmp_path / "mycase.m").write_text(_case33_text())
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


def test_infeasible_voltage_floor_named_before_iterating(tmp_path, capsys):
    # 16 buses sit below the 0.99 floor whatever the supply point does
    code = run(["opf", "--case", "case33.m", "--psp-v", "1.05", "--vmin", "0.99",
                "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: OPF solve ended with status infeasible before iterating: ")
    assert re.search(r"meets v_floor at bus \d+ \(V at most 0\.9\d+ pu, v_min 0\.9900 pu; "
                     r"16 rows proven infeasible\)\n$", err)
    assert err.count("\n") == 1
    assert not (tmp_path / "opf_summary.json").exists()


def test_infeasible_rating_named_before_iterating(tmp_path, capsys, case69, monkeypatch):
    # case69 x100 with the benchmark's DGs and each branch rated at 0.9x its
    # own load-only flow: the IPM ran 76 iterations (127 s) into a singular
    # KKT factor; presolve proves 1,002 thermal rows violated, and the
    # interior point never starts
    solves = []
    monkeypatch.setattr(qcqpsolver, "solve", lambda *args: solves.append(args))
    net = netmodel.with_slack_costs(netmodel.with_slack_voltage(case69, 1.05), 30.0, 3.0)
    for bus in (27, 35, 46, 65):
        net = netmodel.with_generator(net, bus, netmodel.Generator(0.0, 0.02, 0.0, 0.01, 25.0, 2.0))
    path = tmp_path / "rated.json"
    path.write_text(netmodel.to_json(rated_network(netmodel.duplicate_system(net, 100, seed=42), 0.9)))
    t0 = time.perf_counter()
    code = run(["opf", "--case", str(path), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - t0
    assert code == 2 and elapsed < 5.0 and not solves
    err = capsys.readouterr().err
    assert err.startswith("solver error: OPF solve ended with status infeasible before iterating: ")
    assert re.search(r"meets thermal at branch \d+-\d+ \(flow at least [\d.]+ pu, rating [\d.]+ pu; "
                     r"1002 rows proven infeasible\)\n$", err)
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


def test_short_gencost_row_is_one_line_data_error(tmp_path, capsys):
    """A linear gencost row without its coefficients ends in exit 1 with one
    stderr line, not an IndexError traceback."""
    case = tmp_path / "short.m"
    case.write_text(mk_case(
        [bus_row(1, 3), bus_row(2, pd=0.1)], [[1, 2, 0.01, 0.02, 0, 0]],
        gen_rows=[[1, 0, 0, 10, -10, 1, 10, 1, 10, 0]], gencost_rows=[[2, 0, 0, 2]],
    ))
    code = run(["validate", "--case", str(case)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("data error: ") and "gencost row 1: NCOST=2 needs 2" in err
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


def _network_edit(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


_GEN = {"p_min": 0.0, "p_max": 1.0, "q_min": -1.0, "q_max": 1.0, "cost_q": 0.0}


@pytest.mark.parametrize("document,edit", [
    ("scenario", {"psp_voltage": "1.05"}),
    ("scenario", {"psp_costs": [30]}),
    ("scenario", {"psp_load": [1]}),
    ("scenario", {"v_limits": ["a", 1.1]}),
    ("scenario", {"duplication": {"copies": 2, "range": [1]}}),
    ("scenario", {"case": 7}),
    ("scenario", {"thermal_limits": "false"}),
    ("scenario", {"psp_votage": 1.2}),
    ("scenario", {"dgs": [{"bus": 18, "p_range": [0, 1.0], "q_range": [0, 0.5],
                           "cost_p": 31, "cost_q": 2, "cost_x": 5}]}),
    ("scenario", {"duplication": {"copies": 2, "sed": 9}}),
    ("scenario", {"duplication": {}}),
    ("network", _network_edit(("buses", 1, "p_load"), "x")),
    ("network", _network_edit(("branches", 0, "r"), None)),
    ("network", _network_edit(("v0",), "1")),
    ("network", _network_edit(("buses", 0, "gen"), {**_GEN, "cost_p": [1]})),
], ids=["psp_voltage", "psp_costs", "psp_load", "v_limits", "duplication_range", "case",
        "thermal_limits", "unknown_key", "unknown_dg_key", "unknown_duplication_key",
        "empty_duplication", "p_load", "r", "v0", "cost_p"])
def test_mistyped_json_is_one_line_data_error(tmp_path, capsys, document, edit):
    """A wrongly typed or sized JSON value ends in exit 1 with one stderr
    line naming the document, not a traceback."""
    if document == "scenario":
        path = tmp_path / "scen.json"
        path.write_text(json.dumps({"case": "case33.m", **edit}))
        code = run(["opf", "--scenario", str(path), "--out", str(tmp_path)])
    else:
        code = run(["validate", "--case", json_network(tmp_path, edit)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"data error: {document} JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key,says", [
    ({"psp_votage": 1.2}, "unknown key 'psp_votage'"),
    ({"duplication": {"copies": 2, "sed": 9}}, "unknown key 'sed'"),
    ({"duplication": {}}, "missing key 'copies'"),
], ids=["top_level", "duplication", "empty_duplication"])
def test_scenario_key_error_names_the_key(tmp_path, capsys, key, says):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"case": "case33.m", **key}))
    assert run(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"data error: scenario JSON: {says}\n"


# an edit of one case33.m line: (pattern, replacement), and a phrase of the error
_CASE33_EDITS = {
    "nan_bus_id": (r"^\t33\t1\t", "\tnan\t1\t", "mpc.bus row 33: BUS_I must be an integer"),
    "fractional_bus_id": (r"^\t33\t1\t", "\t33.7\t1\t", "BUS_I must be an integer, got 33.7"),
    "huge_bus_id": (r"^\t33\t1\t", "\t1e30\t1\t", "mpc.bus row 33: BUS_I must fit in 64 bits"),
    "infinite_bus_type": (r"^\t1\t3\t", "\t1\tinf\t", "mpc.bus row 1: BUS_TYPE must be an"),
    "overflowing_branch_end": (r"^\t32\t33\t", "\t32\t1e309\t",
                               "mpc.branch row 32: T_BUS must be an integer"),
    "overflowing_gen_bus": (r"^\t1\t0\t0\t10\t", "\t1e400\t0\t0\t10\t",
                            "mpc.gen row 1: GEN_BUS must be an integer"),
    "nan_gencost_model": (r"^\t2\t0\t0\t2\t30", "\tnan\t0\t0\t2\t30",
                          "mpc.gencost row 1: MODEL must be an integer"),
    "infinite_base_mva": (r"= 10;", "= 1e999;", "baseMVA must be positive and finite, got inf"),
    "infinite_rate_a": (r"^(\t26\t27\t\S+\t\S+\t0)\t0;", r"\1\tinf;",
                        "branch 26-27: current limit inf is not positive and finite"),
    "nan_slack_vm": (r"^(\t1\t3\t(?:\S+\t){4}\S+)\t1\t", r"\1\tnan\t",
                     "mpc.bus row 1: VM must be finite, got nan"),
    "nan_base_kv": (r"^(\t1\t3\t(?:\S+\t){7})12\.66", r"\1nan",
                    "mpc.bus row 1: BASE_KV must be finite, got nan"),
}


@pytest.mark.parametrize("edit", list(_CASE33_EDITS))
def test_bad_case_value_is_one_line_data_error(tmp_path, capsys, edit):
    """Non-integral or oversized integer columns, a non-finite base, a non-finite rating
    and a non-finite slack voltage or base voltage in a MATPOWER case end in
    exit 1 with one stderr line."""
    pattern, replacement, says = _CASE33_EDITS[edit]
    text, count = re.subn(pattern, replacement, _case33_text(), count=1, flags=re.M)
    assert count == 1
    (tmp_path / "bad.m").write_text(text)
    assert run(["validate", "--case", str(tmp_path / "bad.m")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and says in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command,path,value,says", [
    ("validate", ("base_power",), 0, "invalid network: base power 0.0 is not positive and finite"),
    ("opf", ("base_power",), 0, "invalid network: base power 0.0 is not positive and finite"),
    ("validate", ("base_power",), math.inf,
     "invalid network: base power inf is not positive and finite"),
    ("validate", ("branches", 0, "i_max"), math.nan,
     "invalid network: branch 1-2: current limit nan is not positive and finite"),
    ("validate", ("branches", 0, "i_max"), math.inf,
     "invalid network: branch 1-2: current limit inf is not positive and finite"),
    ("validate", ("base_voltage",), math.nan,
     "invalid network: base voltage nan is not positive and finite"),
    ("validate", ("base_voltage",), 0,
     "invalid network: base voltage 0.0 is not positive and finite"),
    # an integer beyond the floats reads as infinite, as the float literal 1e400 does
    ("validate", ("buses", 1, "p_load"), 10 ** 400,
     "invalid network: bus 2: non-finite load or voltage limit"),
    # a key the schema does not know, or a generator price left out, is not
    # passed over: the DG would be lost, or be free
    ("validate", ("extra",), 1, "network JSON: unknown key 'extra'"),
    ("validate", ("buses", 1, "generator"), {**_GEN, "cost_p": 25.0},
     "network JSON: unknown key 'generator'"),
    ("validate", ("branches", 0, "rating"), 1.0, "network JSON: unknown key 'rating'"),
    ("validate", ("buses", 1, "gen"), _GEN, "network JSON: missing key 'cost_p'"),
    # bus ids are stored as 64-bit integers
    ("validate", ("buses", 1, "id"), 10 ** 30,
     f"network JSON: id must fit in 64 bits, got {10 ** 30}"),
], ids=["zero_base", "zero_base_opf_with_dg", "infinite_base", "nan_i_max", "infinite_i_max",
        "nan_base_voltage", "zero_base_voltage", "huge_integer_load", "unknown_top_level_key",
        "generator_key", "unknown_branch_key", "gen_without_cost_p", "huge_bus_id"])
def test_bad_network_value_is_one_line_data_error(tmp_path, capsys, command, path, value,
                                                  says):
    argv = [command, "--case", json_network(tmp_path, _network_edit(path, value))]
    if command == "opf":
        argv += ["--dg", "3:0.02:0.01:25:2", "--out", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"data error: {says}\n"


@pytest.mark.parametrize("flag,says", [("--scenario", "scenario JSON: maximum recursion"),
                                       ("--case", "invalid JSON network: maximum recursion")])
def test_deeply_nested_json_is_one_line_data_error(tmp_path, capsys, flag, says):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["validate", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {says}") and err.count("\n") == 1


def test_overflowing_duplication_is_one_line_data_error(tmp_path, capsys):
    """Scale factors that overflow a copy's impedances give infinite values,
    which ``validate`` rejects, with no overflow warning."""
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"case": "case33.m", "impedance_scale": 1e308,
                                "duplication": {"copies": 1, "range": [1, 1e10]}}))
    assert run(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: scenario produced an invalid network: branch 1-2: "
                          "non-finite impedance")
    assert err.count("\n") == 1


def test_many_violations_are_counted_not_listed(tmp_path, capsys):
    """An overflowing load scale on a duplicated feeder breaks all 64
    non-slack buses; the error line shows the first five and the count."""
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"case": "case33.m", "load_scale": 1e308,
                                "duplication": {"copies": 2, "range": [1, 1e10]}}))
    assert run(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: scenario produced an invalid network: bus ")
    assert err.endswith(" (first 5 of 64 violations)\n")
    assert err.count("non-finite load or voltage limit") == 5
    assert err.count("\n") == 1 and len(err) < 400


@pytest.mark.parametrize("argv,scenario,says", [
    (["opf", "--case", "case33.m", "--dg", "abc:1:1:1:1"], None, "bad --dg spec"),
    (["opf", "--case", "case33.m", "--dg", "18:1:1:1"], None, "bad --dg spec"),
    (["opf", "--case", "case33.m", "--copies", "2", "--scale-lo", "2", "--scale-hi", "1"],
     None, "bad scale_range"),
    (["opf", "--case", "case33.m", "--copies", "0"], None, "copies must be >= 1, got 0"),
    (["duplicate", "--case", "case33.m", "--copies", "0"], None,
     "copies must be >= 1, got 0"),
    (["opf"], {"case": "case33.m", "duplication": {"copies": 0}},
     "copies must be >= 1, got 0"),
    (["price", "--case", "case33.m", "--oracle", "--jobs", "0"], None,
     "--jobs must be >= 1, got 0"),
    (["validate", "--case", "case33.m", "--seed", "7"], None,
     "--seed without a duplication"),
    (["opf", "--case", "case33.m", "--scale-lo", "5"], None,
     "--scale-lo without a duplication"),
    (["opf", "--scale-hi", "2"], {"case": "case33.m"}, "--scale-hi without a duplication"),
    (["validate", "--case", "case33.m", "--copies", "2", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    (["opf"], {"case": "case33.m", "duplication": {"copies": 2, "seed": -3}},
     "seed must be >= 0, got -3"),
    (["duplicate", "--case", "case33.m", "--copies", "2", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    (["opf", "--case", "case33.m", "--copies", "2", "--scale-hi", "inf"], None,
     "both finite"),
    (["duplicate", "--case", "case33.m", "--copies", "2", "--scale-hi", "1e309"], None,
     "both finite"),
    (["opf"], {"case": "case33.m", "load_scale": 10 ** 400},
     "invalid network: bus 2: non-finite load or voltage limit"),
    # counts whose factors numpy cannot address: nothing is allocated
    (["opf"], {"case": "case33.m", "duplication": {"copies": 10 ** 400}},
     f"copies must be at most 18014398509481983 for this feeder, got {10 ** 400}"),
    (["duplicate", "--case", "case33.m", "--copies", str(10 ** 30)], None,
     f"copies must be at most 18014398509481983 for this feeder, got {10 ** 30}"),
], ids=["dg_field", "dg_arity", "scale_range", "copies_flag", "duplicate_copies",
        "scenario_copies", "jobs", "stray_seed", "stray_scale_lo", "stray_scale_hi_scenario",
        "negative_seed", "negative_seed_scenario", "duplicate_negative_seed",
        "infinite_scale_hi", "duplicate_overflowing_scale_hi", "huge_integer_load_scale",
        "huge_integer_copies_scenario", "huge_copies_flag"])
def test_bad_cli_value_is_one_line_data_error(tmp_path, capsys, argv, scenario, says):
    if scenario is not None:
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scenario))
        argv = [*argv, "--scenario", str(path)]
    code = run([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("data error: ") and says in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "opf_dispatch.csv").exists()


class _RecordingPool:
    """In-process stand-in for ``ProcessPoolExecutor``: records the worker
    count it was asked for and starts no process."""

    max_workers = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.max_workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cpus,workers", [(3, 3), (None, 1), (1000, 64)])
def test_oracle_pool_bounded_by_cpus_and_tasks(tmp_path, monkeypatch, cpus, workers):
    # case33 has 32 non-slack buses, so the sweep has 64 tasks; one worker
    # (cpu_count None counts as one CPU) runs the sweep in process, with no pool
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_oracle_point", None)
    code = run(["price", "--case", "case33.m", "--psp-v", "1.05", "--oracle",
                "--jobs", "100000", "--mechanism", "mlm", "--out", str(tmp_path)])
    assert code == 0
    assert _RecordingPool.max_workers == ([workers] if workers > 1 else [])


def test_oracle_sweep_of_the_supply_point_alone(tmp_path):
    """A network of the supply point alone has no oracle point, so even a
    pooled sweep starts no worker and the run exits 0."""
    case = tmp_path / "slack.m"
    case.write_text(mk_case([bus_row(1, 3, pd=0.01, qd=0.005)], [],
                            gen_rows=[[1, 0, 0, 10, -10, 1, 10, 1, 10, 0]],
                            gencost_rows=[[2, 0, 0, 2, 30, 0]]))
    code = run(["price", "--case", str(case), "--oracle", "--jobs", "2",
                "--out", str(tmp_path / "out")])
    assert code == 0
    assert read(tmp_path / "out" / "prices.csv").count("\n") == 1  # the header


def test_oracle_sweep_serializes_network_once(tmp_path, monkeypatch):
    """The process pool gets the network as one JSON document."""
    calls = []
    to_json = netmodel.to_json

    def counting(net):
        calls.append(net.n_bus)
        return to_json(net)

    monkeypatch.setattr(netmodel, "to_json", counting)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool on a one-CPU machine too
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

    # the load flow is factored once: the objective's voltage weights, the
    # state map and the recovery share the network's FeederFactors
    calls = {"objective": 0, "fixed_load": 0, "factors": 0}
    build_objective, solve_fixed_load = mdopf.build_objective, mdistflow.solve_fixed_load
    factors = mdistflow.FeederFactors.__init__

    def count(key, fn):
        def wrapper(*a, **k):
            calls[key] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(mdopf, "build_objective", count("objective", build_objective))
    monkeypatch.setattr(mdistflow, "solve_fixed_load", count("fixed_load", solve_fixed_load))
    monkeypatch.setattr(mdistflow.FeederFactors, "__init__", count("factors", factors))
    assert run(["opf", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3",
                "--dg", "18:1.0:0.5:31:2", "--out", str(tmp_path)]) == 0
    assert calls == {"objective": 1, "fixed_load": 0, "factors": 1}
    cert = json.loads(read(tmp_path / "opf_summary.json"))["convexity_certificate"]
    # generic P/Q cost ratios leave the exact quadratic indefinite
    assert cert["projected"] and not cert["psd"] and cert["min_eigenvalue"] < 0


def test_price_bus_lookups_bounded_by_generators(tmp_path, monkeypatch):
    """Per-bus gathers read ``netmodel.columns``: on case33 x10 (321 buses,
    a DG per copy plus the supply point) ``price`` looks up fewer bus records
    by id (``netmodel._position``) than there are generators."""
    calls = []
    position = netmodel._position

    def counting(net, bus_id):
        calls.append(bus_id)
        return position(net, bus_id)

    monkeypatch.setattr(netmodel, "_position", counting)
    assert run(["price", "--case", "case33.m", "--psp-v", "1.05",
                "--psp-cost-p", "30", "--psp-cost-q", "3", "--dg", "18:0.2:0.1:31:2",
                "--copies", "10", "--out", str(tmp_path)]) == 0
    n_gen = 1 + 10
    assert len(calls) <= n_gen
