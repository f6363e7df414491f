import json
from pathlib import Path

import numpy as np
import pytest

from anisosym import (epsilon_tau_sweep, h_refinement_study, make_interval_grid,
                      make_p_laplacian, verify_mass_comparison)
from anisosym.cli import main
from anisosym.config import ConfigError, compile_expression, parse_config

GOOD = """
# minimal comparison setup
[problem]
nl.kind = p_laplacian
nl.p = 3
omega1.kind = interval
omega1.size = 1.0
omega1.resolution = 48
slices.N = 5
sgrid.M = 24
f.expr = exp(-60*(x-0.3)**2) * (1 + 0.5*sin(pi*y))

[solver]
tol = 1e-9

[verify]
slack_c = 10

[output]
dir = out
"""


def test_parse_minimal_config():
    cfg = parse_config(GOOD)
    assert cfg["nl.p"] == 3.0
    assert cfg["omega1.resolution"] == 48
    assert cfg["radial_tol"] == 1e-8         # default fills in
    grid = cfg.build_grid()
    assert grid.num_cells == 48
    nl = cfg.build_nonlinearity()
    assert nl.p == 3.0
    fn = cfg.data_function()
    out = fn(grid.centers, 0.5)
    assert out.shape == (48,)
    assert np.all(out >= 0)


def test_range_error_with_line_number():
    bad = GOOD.replace("slices.N = 5", "slices.N = 0")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    (line, msg), = err.value.errors
    assert "slices.N" in msg and "range" in msg
    assert bad.splitlines()[line - 1].strip() == "slices.N = 0"


def test_duplicate_key_reports_both_lines():
    bad = GOOD + "\n[problem]\nslices.N = 9\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = [m for _, m in err.value.errors]
    assert any("duplicate" in m and "line" in m for m in msgs)


def test_unknown_key_and_wrong_section():
    bad = GOOD.replace("tol = 1e-9", "tol = 1e-9\nslices.N = 3\nwhatever = 1")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = " | ".join(m for _, m in err.value.errors)
    assert "does not belong in section" in msgs
    assert "unknown key" in msgs


def test_max_iter_is_not_a_key():
    bad = GOOD.replace("tol = 1e-9", "tol = 1e-9\nmax_iter = 500")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    (line, msg), = err.value.errors
    assert "unknown key 'max_iter'" in msg
    assert bad.splitlines()[line - 1].strip() == "max_iter = 500"


def test_coarse_disk_is_config_error(tmp_path, capsys):
    text = GOOD.replace("omega1.kind = interval", "omega1.kind = disk")
    text = text.replace("omega1.resolution = 48", "omega1.resolution = 6")
    cfg = _write_config(tmp_path, text)
    assert main(["--out", str(tmp_path / "disk"), "compare", "--config", cfg]) == 2
    err = capsys.readouterr().err.strip()
    line = int(err.split("config error line ")[1].split(":")[0])
    assert text.splitlines()[line - 1].strip() == "omega1.resolution = 6"
    assert "disk" in err and ">= 8" in err


def test_all_errors_collected_not_first_only():
    bad = GOOD.replace("nl.p = 3", "nl.p = 0.5").replace("slices.N = 5", "slices.N = -2")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert len(err.value.errors) >= 2


def test_missing_data_source():
    bad = GOOD.replace("f.expr = exp(-60*(x-0.3)**2) * (1 + 0.5*sin(pi*y))", "")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("f.expr or f.csv" in m for _, m in err.value.errors)


def test_expression_safety():
    with pytest.raises(ValueError):
        compile_expression("__import__('os').system('true')")
    with pytest.raises(ValueError):
        compile_expression("open('x')")
    with pytest.raises(ValueError):
        compile_expression("x.__class__")
    with pytest.raises(ValueError):
        compile_expression("unknown_name + 1")
    fn = compile_expression("abs(x) + maximum(y, 0.25)")
    out = fn(np.array([[-2.0], [1.0]]), 0.5)
    assert np.allclose(out, [2.5, 1.5])


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_compare_command_end_to_end(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out = str(tmp_path / "run1")
    code = main(["--out", out, "compare", "--config", cfg])
    assert code == 0
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    assert report["passed"] is True
    assert report["worst_gap"] >= -report["slack_budget"]
    assert set(report["lq"].keys()) == {"1", "2"}
    # p = 3 takes no eps path: one stage at the configured eps.
    assert report["meta"]["u_eps_stages"] == [[1e-6, report["meta"]["u_iterations"]]]
    lines = (tmp_path / "run1" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "j,s,U,V,gap"
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["subcommand"] == "compare"
    assert manifest["seed"] == 12345


def test_compare_deterministic_bytes(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--out", out1, "compare", "--config", cfg]) == 0
    assert main(["--out", out2, "compare", "--config", cfg]) == 0
    b1 = (tmp_path / "a" / "comparison.csv").read_bytes()
    b2 = (tmp_path / "b" / "comparison.csv").read_bytes()
    assert b1 == b2


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, GOOD.replace("slices.N = 5", "slices.N = zero"))
    code = main(["compare", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error line" in err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["compare", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_solve_command_artifacts(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out = str(tmp_path / "solve")
    assert main(["--out", out, "solve", "--config", cfg]) == 0
    sol = (tmp_path / "solve" / "solution.csv").read_text().splitlines()
    assert sol[0] == "x,j,u"
    assert len(sol) == 1 + 48 * 7            # all slices incl. boundaries
    energy = json.loads((tmp_path / "solve" / "energy.json").read_text())
    assert energy["converged"] is True
    assert energy["energy"] <= 0.0


def test_star_check_command(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out = str(tmp_path / "star")
    assert main(["--out", out, "star-check", "--config", cfg]) == 0
    acc = json.loads((tmp_path / "star" / "accretivity.json").read_text())
    assert acc["passed"] is True
    assert acc["violations"] == 0
    assert acc["worst_margin"] >= -1e-9
    sub = (tmp_path / "star" / "subsolution.csv").read_text().splitlines()
    assert sub[0] == "j,s,slack"
    assert len(sub) == 1 + 5 * 24


def test_star_check_seed_override_changes_trials(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["--out", out1, "--seed", "7", "star-check", "--config", cfg]) == 0
    assert main(["--out", out2, "--seed", "7", "star-check", "--config", cfg]) == 0
    a1 = (tmp_path / "s1" / "accretivity.json").read_bytes()
    a2 = (tmp_path / "s2" / "accretivity.json").read_bytes()
    assert a1 == a2


def test_sweep_h_command(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out = str(tmp_path / "sw")
    code = main(["--out", out, "sweep", "--config", cfg,
                 "--param", "h", "--values", "3,7"])
    assert code == 0
    sweep = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert sweep["parameter"] == "h"
    assert [pt["N"] for pt in sweep["points"]] == [3, 7]
    for N in (3, 7):
        assert (tmp_path / "sw" / f"comparison_N{N}.csv").exists()


def test_sweep_eps_command(tmp_path):
    cfg = _write_config(tmp_path, GOOD)
    out = str(tmp_path / "swe")
    code = main(["--out", out, "sweep", "--config", cfg,
                 "--param", "eps", "--values", "1e-2,1e-3"])
    assert code == 0
    sweep = json.loads((tmp_path / "swe" / "sweep.json").read_text())
    assert sweep["passed"] is True
    assert len(sweep["points"]) == 2


@pytest.mark.parametrize("param, values", [("eps", ","), ("tau", ""), ("h", "3,7.9"),
                                           ("h", "0,3"), ("h", "inf")])
def test_sweep_rejects_empty_or_fractional_values(tmp_path, capsys, param, values):
    # An empty list would run no point and pass; h = 7.9 would silently solve N = 7.
    cfg = _write_config(tmp_path, GOOD)
    out = tmp_path / "bad"
    code = main(["--out", str(out), "sweep", "--config", cfg, "--param", param,
                 "--values", values])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("config error line 0: --values")


def test_sweeps_reject_empty_lists():
    grid = make_interval_grid(1.0, 8)
    f_fn = lambda c, y: np.ones(c.shape[0])
    with pytest.raises(ValueError, match="eps_list"):
        epsilon_tau_sweep(grid, make_p_laplacian(3), f_fn, eps_list=[], tau_list=[1e-6])
    with pytest.raises(ValueError, match="tau_list"):
        epsilon_tau_sweep(grid, make_p_laplacian(3), f_fn, eps_list=[1e-3], tau_list=[])
    with pytest.raises(ValueError, match="N_list"):
        h_refinement_study(grid, make_p_laplacian(3), f_fn, [])


def test_f_csv_ingestion(tmp_path):
    rows = ["j,cell,value"]
    for j in range(1, 4):
        for cell in range(8):
            rows.append(f"{j},{cell},{0.5 + 0.1 * j}")
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    text = GOOD.replace("f.expr = exp(-60*(x-0.3)**2) * (1 + 0.5*sin(pi*y))",
                        "f.csv = data.csv")
    text = text.replace("omega1.resolution = 48", "omega1.resolution = 8")
    text = text.replace("slices.N = 5", "slices.N = 3")
    cfg = parse_config(text, base_dir=str(tmp_path))
    fn = cfg.data_function()
    grid = cfg.build_grid()
    out = fn(grid.centers, 2 / 4)
    assert np.allclose(out, 0.7)


def test_f_csv_missing_file_is_config_error(tmp_path):
    text = GOOD.replace("f.expr = exp(-60*(x-0.3)**2) * (1 + 0.5*sin(pi*y))",
                        "f.csv = nothere.csv")
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=str(tmp_path))
    assert any("not found" in m for _, m in err.value.errors)


def test_f_csv_missing_cell_is_a_stage_failure(tmp_path, capsys):
    # Cells numbered 1..8 instead of 0..7: cell 0 is missing on every slice.
    rows = ["j,cell,value"] + [f"{j},{cell},0.5" for j in range(1, 4) for cell in range(1, 9)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    text = GOOD.replace("f.expr = exp(-60*(x-0.3)**2) * (1 + 0.5*sin(pi*y))",
                        "f.csv = data.csv")
    text = text.replace("omega1.resolution = 48", "omega1.resolution = 8")
    cfg = _write_config(tmp_path, text.replace("slices.N = 5", "slices.N = 3"))
    for command in ("solve", "compare"):
        assert main(["--out", str(tmp_path / command), command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "f.csv does not cover cell 0 of slice 1 on this grid" in err


# One small problem that sets every key the subcommands could drop.
CONSISTENT = """
[problem]
nl.kind = p_laplacian
nl.p = 3
omega1.kind = square
omega1.size = 1.0
omega1.resolution = 8
slices.N = 3
sgrid.M = 8
sgrid.grading = uniform
f.expr = exp(-8*((x1-0.7)**2 + (x2-0.4)**2)) * (1 + 0.5*sin(pi*y))
f.mollify = 0.05

[solver]
tol = 1e-9
regularization.eps = 1e-6
"""


@pytest.fixture(scope="module")
def consistent(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("consistent")
    cfg = _write_config(tmp, CONSISTENT)
    assert main(["--out", str(tmp / "compare"), "compare", "--config", cfg]) == 0
    return tmp, cfg


def test_sweep_eps_at_config_eps_matches_compare(consistent):
    tmp, cfg = consistent
    out = tmp / "sweep-eps"
    assert main(["--out", str(out), "sweep", "--config", cfg, "--param",
                 "eps", "--values", "1e-6"]) == 0
    point, = json.loads((out / "sweep.json").read_text())["points"]
    report = json.loads((tmp / "compare" / "report.json").read_text())
    assert point["worst_gap"] == report["worst_gap"]


def test_sweep_h_at_config_N_matches_compare(consistent):
    tmp, cfg = consistent
    out = tmp / "sweep-h"
    assert main(["--out", str(out), "sweep", "--config", cfg, "--param",
                 "h", "--values", "3"]) == 0
    assert ((out / "comparison_N3.csv").read_bytes()
            == (tmp / "compare" / "comparison.csv").read_bytes())


def test_solve_matches_the_comparison_u(consistent):
    tmp, cfg = consistent
    assert main(["--out", str(tmp / "solve"), "solve", "--config", cfg]) == 0
    u = [line.rsplit(",", 1)[1]
         for line in (tmp / "solve" / "solution.csv").read_text().splitlines()[1:]]
    conf = parse_config(CONSISTENT)
    rep = verify_mass_comparison(conf.build_grid(), conf.build_nonlinearity(),
                                 conf.data_function(), N=3, M=8, grading="uniform",
                                 mollify=0.05)
    assert u == [f"{v:.17g}" for v in rep.u_stack.values.ravel()]


def test_readme_example_config_runs(tmp_path):
    example = Path(__file__).resolve().parent.parent / "examples.cfg"
    assert main(["--out", str(tmp_path), "compare", "--config", str(example)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["passed"] is True
