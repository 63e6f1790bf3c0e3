"""End-to-end checks of the command line layer: config validation, the
five commands, exit codes and byte-identical reruns."""

import csv
import hashlib
import json
import os
import shutil
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdiss import cli, coefficients
from funcdiss.cli import (
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    RunConfig,
    coefficients_from_mapping,
    config_from_mapping,
    load_config,
    main,
    phi_from_mapping,
    run,
)
from funcdiss.forms import standard_ensemble, strict_margin


def _run_doc(tmp_path, doc):
    doc = dict(doc)
    doc.setdefault("out", str(tmp_path / "run" / "report"))
    cfg = config_from_mapping(doc)
    code = run(cfg)
    records = [json.loads(line)
               for line in open(cfg.out + ".jsonl", encoding="utf-8")]
    return code, records, cfg


def _by_kind(records, kind):
    found = [r for r in records if r["record"] == kind]
    assert found, f"no {kind!r} record in report"
    return found


# -- config validation ---------------------------------------------------

def test_unknown_command_rejected():
    with pytest.raises(ValueError, match="unknown command"):
        config_from_mapping({"command": "frobnicate"})


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys: comand"):
        config_from_mapping({"command": "check", "comand": "check"})


def test_missing_command_rejected():
    with pytest.raises(ValueError, match="'command'"):
        config_from_mapping({"phi": {"family": "power"}})


def test_bad_ranges_rejected():
    with pytest.raises(ValueError, match="c0"):
        config_from_mapping({"command": "check", "c0": -1.0})
    with pytest.raises(ValueError, match="grid"):
        config_from_mapping({"command": "solve", "grid": [4, 4]})
    with pytest.raises(ValueError, match="p must be"):
        config_from_mapping({"command": "solve", "p": 1.5})
    with pytest.raises(ValueError, match="p_sweep"):
        config_from_mapping({"command": "check", "p_sweep": [4.0, 2.0, 5]})
    with pytest.raises(ValueError, match="seed"):
        config_from_mapping({"command": "check", "seed": -1})


def test_scalar_lists_rejected():
    with pytest.raises(ValueError, match="grid must be a list"):
        config_from_mapping({"command": "check", "grid": 16})
    with pytest.raises(ValueError, match="scale_factors must be a list"):
        config_from_mapping({"command": "regularity", "scale_factors": 2.0})
    with pytest.raises(ValueError, match="p_sweep must be a list"):
        config_from_mapping({"command": "check", "p_sweep": 5})
    with pytest.raises(ValueError, match="grid entries"):
        config_from_mapping({"command": "check", "grid": [None, 16]})


def test_main_scalar_grid_is_exit_3(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text("command: check\ngrid: 16\n", encoding="utf-8")
    assert main([str(path)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["record"] == "error" and err["error"] == "ValueError"


def _main_doc(tmp_path, text):
    """Run main on a YAML document with its report under tmp_path."""
    out = tmp_path / "run" / "report"
    path = tmp_path / "run.yaml"
    path.write_text(f"{text}\nout: {out}\n", encoding="utf-8")
    code = main([str(path)])
    records = [json.loads(line)
               for line in open(out.with_suffix(".jsonl"), encoding="utf-8")]
    return code, records


@pytest.mark.parametrize("text, message", [
    # each of these exited 1 with an uncaught TypeError
    ("command: check\nseed: null", "seed must be a number"),
    ("command: check\np: [1]", "p must be a number"),
    ("command: check\nphi: {p: null}", "phi.p must be a number"),
    ("command: check\ncoefficients: {kind: ramp, shape: 33}",
     "coefficients.shape must be a list"),
    # non-finite numbers (c0: .inf exited 0 with bmo_threshold 0.0)
    ("command: check\nc0: .inf\n"
     "coefficients: {kind: ramp, lam0: 1, mu0: 1, slope: 0.1}",
     "c0 must be finite"),
    ("command: check\np: .nan", "p must be finite"),
    ("command: check\ncoefficients: {lam: 1, mu: .inf}",
     "coefficients.mu must be finite"),
    ("command: regularity\nscale_factors: [1.0, .inf]",
     "scale_factors entries must be finite"),
    # unknown keys inside blocks were ignored, and the defaults used
    ("command: check\ncoefficients: {lam: 1, mu: 1, slop: 5}",
     "unknown coefficients block keys: slop"),
    ("command: check\nphi: {family: power, P: 40}",
     "unknown phi block keys: P"),
    ("command: check\ncoefficients: {preset: ramp}",
     "unknown coefficients block keys: preset"),
    ("command: check\np_sweep: {lo: 2, hi: 8, steps: 4}",
     "unknown p_sweep keys: steps"),
    # counts and shapes
    ("command: check\np_sweep: {lo: 2, hi: 8, count: 2.7}",
     "p_sweep.count must be an integer"),
    ("command: solve\ndomain: [0, 1]", "domain needs 4 or 6 entries"),
    ("command: solve\ngrid: [8, 8, 8]\ndomain: [0, 1, 0, 1]",
     "domain must give lo, hi for each of the 3 grid axes"),
    # size caps
    ("command: check\np_sweep: {lo: 2, hi: 8, count: 100000000}",
     "p_sweep.count must be >= 2 and <= 1000"),
    ("command: verify-forms\noctaves: 15", "octaves must be >= 0 and <= 14"),
    ("command: regularity\ngrid: [32, 32]\nrefinements: 6",
     "exceeds 262144 cells"),
    ("command: check\ncoefficients: {kind: radial, shape: [1026, 33]}",
     "coefficients.shape entries must be >= 2 and <= 1025"),
], ids=["seed-null", "p-list", "phi-p-null", "shape-scalar", "c0-inf",
        "p-nan", "mu-inf", "scale-inf", "coeff-unknown-key",
        "phi-unknown-key", "preset-alias", "sweep-unknown-key",
        "sweep-count-fraction", "domain-short", "domain-vs-grid",
        "sweep-count-cap", "octaves-cap", "finest-grid-cap", "shape-cap"])
def test_rejected_documents_end_in_error_and_summary(tmp_path, capsys, text,
                                                     message):
    code, records = _main_doc(tmp_path, text)
    assert code == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and message in err["message"]
    assert [r["record"] for r in records] == ["error", "summary"]
    assert records[0]["message"] == err["message"]
    assert records[-1]["exit_status"] == EXIT_ERROR


def test_size_caps_admit_the_largest_documented_runs():
    cfg = config_from_mapping({"command": "regularity", "grid": [32, 32],
                               "refinements": 4})
    assert cfg.refinements == 4
    cfg = config_from_mapping({"command": "check", "coefficients": {
        "kind": "radial", "shape": [1025, 513]},
        "p_sweep": [2.0, 10.0, 1000], "octaves": 14})
    assert cfg.coefficients["shape"] == (1025, 513)
    assert cfg.p_sweep == (2.0, 10.0, 1000)
    # refinements only scale the grid of a regularity study
    assert config_from_mapping({"command": "solve", "grid": [128, 128],
                                "refinements": 3}).grid == (128, 128)


def test_run_reports_any_exception(tmp_path, monkeypatch):
    def broken(cfg, writer):
        raise TypeError("boom")
    monkeypatch.setitem(cli._DISPATCH, "check", broken)
    code, records, _ = _run_doc(tmp_path, {"command": "check"})
    assert code == EXIT_ERROR
    assert [r["record"] for r in records] == ["config", "error", "summary"]
    assert records[1]["error"] == "TypeError"


def test_main_unwritable_report_is_exit_3(tmp_path, capsys):
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = tmp_path / "run.yaml"
    path.write_text(f"command: check\nout: {tmp_path / 'file' / 'report'}\n",
                    encoding="utf-8")
    assert main([str(path)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["record"] == "error"


def test_unknown_phi_family_rejected():
    with pytest.raises(ValueError, match="phi family"):
        config_from_mapping({"command": "check",
                             "phi": {"family": "mystery"}})


@pytest.mark.parametrize("phi, error", [
    ({"family": "power", "p": float("inf")}, "ValueError"),
    ({"family": "power", "p": float("nan")}, "ValueError"),
    ({"family": "truncated_power", "p": 4.0, "k": 1.0e300}, "BadTruncation"),
    ({"family": "truncated_power", "p": float("inf"), "k": 2.0},
     "BadTruncation"),
], ids=["power-inf", "power-nan", "truncated-k-1e300", "truncated-p-inf"])
def test_nonfinite_weight_parameters_exit_3(tmp_path, phi, error):
    code, records, _ = _run_doc(tmp_path, {"command": "check", "phi": phi})
    assert code == EXIT_ERROR
    assert _by_kind(records, "error")[0]["error"] == error
    assert not [r for r in records if r["record"] == "verdict"]
    assert _by_kind(records, "summary")[0]["exit_status"] == EXIT_ERROR


def test_missing_coefficient_file_rejected():
    with pytest.raises(ValueError, match="not found"):
        config_from_mapping({"command": "check",
                             "coefficients": {"file": "/no/such/grid.npz"}})


def test_defaults_are_materialized():
    cfg = config_from_mapping({"command": "check"})
    assert cfg.phi == {"family": "power", "p": 4.0}
    assert cfg.coefficients == {"kind": "constant", "lam": 1.0, "mu": 1.0}
    assert cfg.seed == 2026 and cfg.c0 == 1.0


# -- check ---------------------------------------------------------------

def test_check_constant_strict(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "check",
        "phi": {"family": "power", "p": 4.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
    })
    assert code == EXIT_OK
    verdict = _by_kind(records, "verdict")[0]
    assert verdict["status"] == "StrictDissipative"
    assert verdict["margin"] == pytest.approx(0.5, abs=1e-12)
    assert verdict["lambda_inf_sq"] == pytest.approx(0.25, abs=1e-12)
    # every record echoes its inputs
    assert verdict["phi"] == {"family": "power", "p": 4.0}
    config = _by_kind(records, "config")[0]
    assert config["seed"] == 2026 and config["octaves"] == 10


def test_check_negative_exit_code(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "check",
        "phi": {"family": "power", "p": 40.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
    })
    assert code == EXIT_NEGATIVE
    assert _by_kind(records, "verdict")[0]["status"] == "NotDissipative"


def test_check_exp_square_refuted_near_balance(tmp_path):
    # Lambda_inf^2 = 1 in closed form refutes lambda = -mu/2, whose
    # necessary bound 1 - (1/5)^2 = 0.96 a sampled tail never reached.
    code, records, _ = _run_doc(tmp_path, {
        "command": "check",
        "phi": {"family": "exp_square"},
        "coefficients": {"lam": -0.5, "mu": 1.0},
    })
    assert code == EXIT_NEGATIVE
    verdict = _by_kind(records, "verdict")[0]
    assert verdict["status"] == "NotDissipative"
    assert verdict["rhs"] == pytest.approx(0.96, rel=1e-12)
    nd = _by_kind(records, "sufficient_any_dim")[0]
    assert nd["status"] == "Inconclusive"
    assert not any("sampled" in n for n in nd["notes"])


def test_check_p_sweep_csv(tmp_path):
    code, records, cfg = _run_doc(tmp_path, {
        "command": "check",
        "coefficients": {"lam": 2.0, "mu": 1.0},
        "p_sweep": {"lo": 2.0, "hi": 30.0, "count": 8},
    })
    assert code == EXIT_NEGATIVE  # the sweep crosses the threshold
    rows = list(open(cfg.out + "_p_sweep.csv", encoding="utf-8"))
    assert rows[0].strip() == "p,lambda_inf_sq,rhs,margin,kappa,status"
    assert len(rows) == 9
    verdicts = _by_kind(records, "verdict")
    assert len(verdicts) == 8
    assert verdicts[0]["status"] == "StrictDissipative"
    assert verdicts[-1]["status"] == "NotDissipative"


def test_check_variable_field(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "check",
        "phi": {"family": "power", "p": 3.0},
        "coefficients": {"kind": "ramp", "lam0": 1.0, "mu0": 1.0,
                         "slope": 0.05},
    })
    assert code == EXIT_OK
    verdict = _by_kind(records, "verdict")[0]
    assert verdict["status"] in ("StrictDissipative", "Inconclusive")
    assert verdict["coefficients"]["shape"] == [33, 33]


def test_check_sweep_computes_grid_bounds_once(tmp_path, monkeypatch):
    calls = []
    original = coefficients._grid_bounds

    def counting(lam, mu):
        calls.append(lam.shape)
        return original(lam, mu)

    monkeypatch.setattr(coefficients, "_grid_bounds", counting)
    code, records, _ = _run_doc(tmp_path, {
        "command": "check",
        "coefficients": {"kind": "radial", "lam0": 1.0, "mu0": 1.0,
                         "amp": 0.1, "shape": [65, 65]},
        "p_sweep": {"lo": 2.0, "hi": 10.0, "count": 9},
    })
    assert code in (EXIT_OK, EXIT_NEGATIVE)
    assert len(_by_kind(records, "verdict")) == 9
    assert calls == [(65, 65)]


# -- verify-forms --------------------------------------------------------

def test_verify_forms_strict_case(tmp_path):
    code, records, cfg = _run_doc(tmp_path, {
        "command": "verify-forms",
        "phi": {"family": "power", "p": 4.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "seed": 7,
    })
    assert code == EXIT_OK
    evidence = _by_kind(records, "form_evidence")[0]
    assert evidence["fields"] == 60
    assert evidence["min_residual"] >= 0.0
    assert evidence["kappa"] > 0.0
    assert evidence["consistent_with_verdict"] is True
    rows = list(open(cfg.out + "_residuals.csv", encoding="utf-8"))
    assert len(rows) == 61


def test_verify_forms_constant_pair_matches_grid_route(tmp_path):
    # constant coefficients are integrated with the (lam, mu) pair; the
    # bilinear samples of the constant grid give the same residuals
    doc = {"command": "verify-forms", "phi": {"family": "power", "p": 4.0},
           "coefficients": {"lam": 1.3, "mu": 0.9}, "seed": 7}
    _, records, cfg = _run_doc(tmp_path, doc)
    kappa = _by_kind(records, "form_evidence")[0]["kappa"]
    margin = strict_margin(coefficients_from_mapping(doc["coefficients"]),
                           phi_from_mapping(doc["phi"]), standard_ensemble(7),
                           kappa=kappa)
    with open(cfg.out + "_residuals.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(margin.rows)
    for row, ref in zip(rows, margin.rows):
        assert row["label"] == ref.label
        scale = max(abs(ref.form_value), ref.gradient_sq)
        for key in ("form_value", "gradient_sq", "residual"):
            assert float(row[key]) == pytest.approx(getattr(ref, key),
                                                    rel=1e-12,
                                                    abs=1e-12 * scale)


def test_verify_forms_counterexample(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "verify-forms",
        "phi": {"family": "power", "p": 32.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "octaves": 8,
    })
    assert code == EXIT_NEGATIVE
    assert _by_kind(records, "verdict")[0]["status"] == "NotDissipative"
    ce = _by_kind(records, "counterexample")[0]
    assert ce["witness_found"] is True
    assert ce["algebraic_min"] < 0.0
    assert ce["flip_rho"] is not None


def test_verify_forms_exp_square_skips_probe(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "verify-forms",
        "phi": {"family": "exp_square"},
        "coefficients": {"lam": 1.0, "mu": 1.0},
    })
    assert code == EXIT_NEGATIVE
    verdict = _by_kind(records, "verdict")[0]
    assert verdict["status"] == "NotDissipative"
    assert verdict["lambda_inf_sq"] == pytest.approx(1.0, abs=1e-6)
    ce = _by_kind(records, "counterexample")[0]
    assert ce["witness_found"] is False


# -- solve ---------------------------------------------------------------

def test_solve_zero_load(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "solve",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"preset": "zero"},
        "grid": [10, 10],
    })
    assert code == EXIT_OK
    sol = _by_kind(records, "solution")[0]
    assert sol["zero_solution"] is True
    assert sol["energy"] == 0.0 and sol["u_max"] == 0.0


def test_solve_manufactured_with_dump(tmp_path):
    code, records, cfg = _run_doc(tmp_path, {
        "command": "solve",
        "coefficients": {"lam": 2.0, "mu": 1.0},
        "load": {"preset": "manufactured", "amp": 1.0},
        "grid": [12, 12],
        "p": 4.0,
        "dump_solution": True,
    })
    assert code == EXIT_OK
    sol = _by_kind(records, "solution")[0]
    assert sol["zero_solution"] is False
    assert sol["energy"] > 0.0
    assert sol["rhs_work"] == pytest.approx(2.0 * sol["energy"], rel=1e-8)
    assert "inf" in sol["weighted_energies"]
    rows = list(open(cfg.out + "_solution.csv", encoding="utf-8"))
    assert rows[0].strip() == "node,u1,u2"
    assert len(rows) == 13 * 13 + 1


def test_solve_variable_coefficients(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "solve",
        "coefficients": {"kind": "radial", "lam0": 1.0, "mu0": 1.0,
                         "amp": 0.1},
        "load": {"preset": "smooth"},
        "grid": [10, 10],
    })
    assert code == EXIT_OK
    assert _by_kind(records, "solution")[0]["energy"] > 0.0


def test_solve_3d_smooth(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "solve",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"preset": "smooth"},
        "grid": [8, 8, 8],
        "p": 4.0,
    })
    assert code == EXIT_OK
    sol = _by_kind(records, "solution")[0]
    assert sol["cells"] == [8, 8, 8]
    assert sol["energy"] > 0.0


def test_solve_load_from_file(tmp_path):
    rhs = np.zeros((11, 11, 2, 2))
    rhs[4:7, 4:7, 0, 0] = 1.0
    path = tmp_path / "load.npy"
    np.save(path, rhs)
    code, records, _ = _run_doc(tmp_path, {
        "command": "solve",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"file": str(path)},
        "grid": [10, 10],
    })
    assert code == EXIT_OK
    assert _by_kind(records, "solution")[0]["energy"] > 0.0


def test_solve_ellipticity_error(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "solve",
        "coefficients": {"lam": 1.0, "mu": -0.5},
        "load": {"preset": "zero"},
        "grid": [8, 8],
    })
    assert code == EXIT_ERROR
    err = _by_kind(records, "error")[0]
    assert err["error"] == "EllipticityViolation"
    summary = _by_kind(records, "summary")[0]
    assert summary["exit_status"] == EXIT_ERROR


# -- regularity ----------------------------------------------------------

def test_regularity_bounded_and_invariant(tmp_path):
    code, records, cfg = _run_doc(tmp_path, {
        "command": "regularity",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"preset": "smooth"},
        "grid": [8, 8],
        "p": 4.0,
        "refinements": 2,
        "scale_factors": [0.5, 1.0, 2.0],
    })
    assert code == EXIT_OK
    ref = _by_kind(records, "refinement_study")[0]
    assert ref["bounded_within_factor_2"] is True
    assert len(ref["ratios"]) == 2
    scal = _by_kind(records, "scaling_study")[0]
    assert scal["invariant"] is True
    assert scal["max_rel_drift"] <= 1e-6
    header = open(cfg.out + "_refinement.csv", encoding="utf-8").readline()
    assert header.strip() == "level,cells,weighted_energy,load_norm,ratio"


def test_regularity_degenerate_scaling_ratio_is_not_invariant(tmp_path):
    # A load scaled by 1e-200 underflows the ratio to 0; with the first row
    # as the base every drift used to read 0 and the study "invariant".
    code, records, cfg = _run_doc(tmp_path, {
        "command": "regularity",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"preset": "smooth"},
        "grid": [8, 8],
        "p": 4.0,
        "refinements": 1,
        "scale_factors": [1.0e-200, 1.0],
    })
    assert code == EXIT_NEGATIVE
    scal = _by_kind(records, "scaling_study")[0]
    assert scal["invariant"] is False
    assert scal["max_rel_drift"] == "nan"
    assert "scale factor 1e-200" in scal["note"]
    with open(cfg.out + "_scaling.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["ratio"]) == 0.0
    assert all(r["rel_drift"] == "nan" for r in rows)


def test_regularity_solves_each_grid_once(tmp_path, monkeypatch):
    # one CG solve per refinement level, each from the prolonged solution
    # of the level before it; the scale rows read c u off the first level
    from funcdiss import fem
    solves = []
    solve = fem._solve

    def counted(prob, bf, start=None):
        solves.append((prob.cells, start is not None))
        return solve(prob, bf, start)

    monkeypatch.setattr(fem, "_solve", counted)
    code, records, cfg = _run_doc(tmp_path, {
        "command": "regularity",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"preset": "manufactured", "amp": 1.5},
        "grid": [8, 8],
        "p": 4.0,
        "refinements": 3,
        "scale_factors": [0.5, 1.0, 2.0, 4.0],
    })
    assert code == EXIT_OK
    assert solves == [((8, 8), False), ((16, 16), True), ((32, 32), True)]
    ratios = _by_kind(records, "refinement_study")[0]["ratios"]
    with open(cfg.out + "_scaling.csv", encoding="utf-8") as fh:
        scale = [float(r["ratio"]) for r in csv.DictReader(fh)]
    assert scale == pytest.approx([ratios[0]] * 4, rel=1e-9, abs=0.0)


def test_regularity_fiber_reports_the_cells_it_solved(tmp_path):
    code, _, cfg = _run_doc(tmp_path, {
        "command": "regularity",
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "load": {"preset": "fiber"},
        "grid": [8, 128],
        "refinements": 2,
        "scale_factors": [1.0],
    })
    assert code == EXIT_OK
    with open(cfg.out + "_refinement.csv", encoding="utf-8") as fh:
        assert [r["cells"] for r in csv.DictReader(fh)] == ["8x128",
                                                           "16x256"]


def test_fiber_load_takes_the_configured_amp_and_p(tmp_path):
    # The fiber preset scales its unit load by load.amp and solves at the
    # configured p, as the other presets do; the solve is linear in F.
    sols = []
    for amp in (1.0, 3.0):
        code, records, _ = _run_doc(tmp_path / str(amp), {
            "command": "solve",
            "coefficients": {"lam": 1.0, "mu": 1.0},
            "load": {"preset": "fiber", "amp": amp},
            "grid": [8, 128],
            "p": 4.0,
        })
        assert code == EXIT_OK
        sols.append(_by_kind(records, "solution")[0])
    assert [s["p"] for s in sols] == [4.0, 4.0]
    assert sols[1]["u_max"] == pytest.approx(3.0 * sols[0]["u_max"],
                                             rel=1e-12)


@pytest.mark.parametrize("doc", [
    {"command": "regularity", "load": {"preset": "fiber"}, "grid": [8, 8],
     "refinements": 2},
    {"command": "solve", "load": {"preset": "fiber"}, "grid": [8, 128],
     "domain": [0.0, 1.0, 0.0, 16.0]},
    {"command": "solve", "load": {"preset": "manufactured"},
     "domain": [0.0, 5.0, 0.0, 5.0]},
], ids=["fiber-grid", "fiber-domain", "manufactured-domain"])
def test_reference_loads_reject_a_grid_or_domain_they_do_not_solve(tmp_path,
                                                                   doc):
    # fiber solves (g, 16 g) cells on (0, 1) x (0, 16) and manufactured
    # the unit square, whatever grid[1] and domain say.
    code, records, _ = _run_doc(tmp_path, {
        **doc, "coefficients": {"lam": 1.0, "mu": 1.0}})
    assert code == EXIT_ERROR
    assert _by_kind(records, "error")[0]["error"] == "ValueError"


def test_regularity_needs_constant_pair(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "regularity",
        "coefficients": {"kind": "ramp", "lam0": 1.0, "mu0": 1.0,
                         "slope": 0.1},
        "load": {"preset": "smooth"},
        "grid": [8, 8],
    })
    assert code == EXIT_ERROR
    assert "constant coefficients" in _by_kind(records, "error")[0]["message"]


# -- report --------------------------------------------------------------

def test_report_profile_and_margins(tmp_path):
    code, records, cfg = _run_doc(tmp_path, {
        "command": "report",
        "phi": {"family": "truncated_power", "p": 6.0, "k": 2.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "p_sweep": {"lo": 2.0, "hi": 16.0, "count": 5},
    })
    assert code == EXIT_OK
    assert _by_kind(records, "weight_validation")[0]["ok"] is True
    limit = _by_kind(records, "limit_summary")[0]
    assert 0.0 <= limit["sup_lambda_sq"] < 1.0
    profile = list(open(cfg.out + "_lambda_profile.csv", encoding="utf-8"))
    assert len(profile) == 201
    margins = list(open(cfg.out + "_p_margins.csv", encoding="utf-8"))
    assert len(margins) == 6


def test_report_exp_square_tail_in_closed_form(tmp_path):
    code, records, _ = _run_doc(tmp_path, {
        "command": "report", "phi": {"family": "exp_square"}})
    assert code == EXIT_OK
    limit = _by_kind(records, "limit_summary")[0]
    assert limit["converged"] is True and limit["sup_bounded"] is False
    assert limit["lambda_inf"] == -1.0
    assert limit["lambda_inf_sq"] == limit["sup_lambda_sq"] == 1.0
    assert limit["basis"] == "closed form of the weight family"


# -- determinism and entry point ----------------------------------------

def _tree_digest(root):
    digest = {}
    for path in sorted(root.iterdir()):
        digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def test_reports_are_byte_identical_across_reruns(tmp_path):
    doc = {
        "command": "verify-forms",
        "phi": {"family": "power", "p": 4.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "seed": 11,
        "out": str(tmp_path / "rounds" / "report"),
    }
    run(config_from_mapping(doc))
    first = _tree_digest(tmp_path / "rounds")
    shutil.rmtree(tmp_path / "rounds")
    run(config_from_mapping(doc))
    second = _tree_digest(tmp_path / "rounds")
    assert first == second


def test_different_seed_changes_evidence(tmp_path):
    codes = {}
    for seed in (1, 2):
        _, records, _ = _run_doc(tmp_path / str(seed), {
            "command": "verify-forms",
            "phi": {"family": "power", "p": 4.0},
            "coefficients": {"lam": 1.0, "mu": 1.0},
            "seed": seed,
        })
        codes[seed] = _by_kind(records, "form_evidence")[0]["min_residual"]
    assert codes[1] != codes[2]


def test_main_roundtrip_through_yaml(tmp_path):
    doc = {
        "command": "check",
        "phi": {"family": "power", "p": 4.0},
        "coefficients": {"lam": 1.0, "mu": 1.0},
        "out": str(tmp_path / "a" / "report"),
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main([str(cfg_path)]) == EXIT_OK
    assert main([str(cfg_path), "--out", str(tmp_path / "b" / "report")]) \
        == EXIT_OK
    body_a = (tmp_path / "a" / "report.jsonl").read_text(encoding="utf-8")
    body_b = (tmp_path / "b" / "report.jsonl").read_text(encoding="utf-8")
    # identical apart from the echoed output prefix
    keep_a = [json.loads(l) for l in body_a.splitlines()]
    keep_b = [json.loads(l) for l in body_b.splitlines()]
    for rec in keep_a + keep_b:
        rec.pop("out", None)
    assert keep_a == keep_b


def _fresh_run_scipy_modules(tmp_path, doc):
    """The exit code of a fresh interpreter that runs the config doc, and
    the scipy modules loaded when it is done."""
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({**doc, "out": str(tmp_path / "report")}),
                    encoding="utf-8")
    script = (
        "import sys\n"
        "import funcdiss.cli as cli\n"
        f"code = cli.main([{str(path)!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(code, loaded)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_check_loads_no_scipy(tmp_path):
    # the package never imports scipy, so the verdict path never pays for it
    assert _fresh_run_scipy_modules(tmp_path, {"command": "check"}) \
        == f"{EXIT_OK} []\n"


def test_young_functions_and_margin_run_without_scipy():
    # a fresh interpreter in which any import of scipy fails
    script = (
        "import json, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "from funcdiss import (SampledField, algebraic_margin, custom_phi,\n"
        "    dual_phi, exp_conjugate, exp_square_phi, exp_young, lame_system,\n"
        "    log_young, luxemburg_norm, orlicz_norm, power_phi, power_young,\n"
        "    truncated_power, young_pair)\n"
        "specs = [power_phi(3.0), exp_square_phi(), truncated_power(4.0, 2.0),\n"
        "         custom_phi(lambda s: 1.0 + s * s), dual_phi(power_phi(3.0))]\n"
        "sups = [spec.profile.limit.sup_bound for spec in specs]\n"
        "pairs = [young_pair(spec) for spec in specs]\n"
        "young = [[pair.Phi(1.5), pair.Psi(1.5)] for pair in pairs]\n"
        "preimage = float(dual_phi(power_phi(3.0)).s_phi(1.5))\n"
        "f = SampledField.uniform([0.5, 1.0, 1.5])\n"
        "youngs = [power_young(3.0), exp_young(), exp_conjugate(),\n"
        "          log_young(4.0)[0]]\n"
        "norms = [[luxemburg_norm(f, M), orlicz_norm(f, M)] for M in youngs]\n"
        "margin = algebraic_margin(lame_system(1.0, 1.0), math.sqrt(0.8))\n"
        "print(json.dumps({'sups': sups, 'young': young,\n"
        "                  'preimage': preimage,\n"
        "                  'norms': norms, 'margin': margin.min_value}))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    power, exp_square, truncated, custom, dual = out["sups"]
    # sup Lambda^2 = ((p - 2)/p)^2 for p = 3, and the dual's Lambda is the
    # base's negated; exp_square's ratio is not bounded below 1
    assert power == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert dual == pytest.approx(power, rel=1e-12)
    assert exp_square == 1.0
    assert truncated == pytest.approx(0.25, rel=1e-12)
    assert 0.0 < custom <= 1.0
    power, _, _, custom, dual = out["young"]
    # Phi(s) = s^3/3 and Psi(t) = t^(3/2)/(3/2) for p = 3, and the dual
    # pair swaps them; 1 + s^2 integrates to s^2/2 + s^4/4
    assert power == pytest.approx([1.5 ** 3 / 3.0, 1.5 ** 1.5 / 1.5],
                                  rel=1e-12)
    assert dual == pytest.approx(power[::-1], rel=1e-12)
    assert custom[0] == pytest.approx(1.5 ** 2 / 2.0 + 1.5 ** 4 / 4.0,
                                      rel=1e-12)
    # the preimage of 1.5 under s*phi(s) = s^2
    assert out["preimage"] == pytest.approx(1.5 ** 0.5, rel=1e-12)
    # the Luxemburg norm of t^3 is the Lebesgue 3-norm, here 1.5^(1/3),
    # and every Amemiya norm lies within the factor-2 sandwich
    assert out["norms"][0][0] == pytest.approx(1.5 ** (1.0 / 3.0), rel=1e-8)
    for lux, amemiya in out["norms"]:
        assert 0.0 < lux <= amemiya * (1.0 + 1e-7)
        assert amemiya <= 2.0 * lux * (1.0 + 1e-7)
    assert out["margin"] == pytest.approx(-0.08113883008419095, abs=1e-12)


@pytest.mark.parametrize("doc", [
    {"command": "solve", "coefficients": {"lam": 1.0, "mu": 1.0},
     "load": {"preset": "manufactured"}, "grid": [24, 24]},
    {"command": "solve", "coefficients": {"lam": 1.0, "mu": 1.0},
     "load": {"preset": "smooth"}, "grid": [8, 9, 10], "p": 3.0},
    {"command": "solve", "coefficients": {"kind": "radial", "lam0": 1.0,
                                          "mu0": 1.0, "amp": 0.1},
     "load": {"preset": "smooth"}, "grid": [17, 16]},
    {"command": "regularity", "coefficients": {"lam": 1.0, "mu": 1.0},
     "load": {"preset": "smooth"}, "grid": [9, 8], "p": 4.0,
     "refinements": 2},
], ids=["solve-2d", "solve-3d", "solve-coefficient-grid", "regularity"])
def test_solve_and_regularity_load_no_scipy(tmp_path, doc):
    # the multigrid-preconditioned CG and its coarsest direct solve are
    # numpy only
    code, loaded = _fresh_run_scipy_modules(tmp_path, doc).split(" ", 1)
    assert int(code) in (EXIT_OK, EXIT_NEGATIVE)
    assert loaded == "[]\n"


def test_python_dash_m_runs_without_a_runtime_warning(tmp_path):
    # python -m funcdiss.cli ran a second copy of cli as __main__ after
    # the package had imported it, which runpy warns about; the package's
    # own __main__ calls cli.main
    path = tmp_path / "check.yaml"
    path.write_text(yaml.safe_dump({
        "command": "check", "coefficients": {"lam": 1.0, "mu": 1.0},
        "p_sweep": {"lo": 2.0, "hi": 8.0, "count": 4},
        "out": str(tmp_path / "out" / "check")}), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "funcdiss",
         str(path)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Warning" not in proc.stderr
    assert (tmp_path / "out" / "check.jsonl").exists()


def test_main_missing_config_is_exit_3(tmp_path, capsys):
    assert main([str(tmp_path / "nope.yaml")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert json.loads(err)["record"] == "error"


def test_records_have_sorted_keys_and_no_timestamps(tmp_path):
    _, _, cfg = _run_doc(tmp_path, {
        "command": "check",
        "coefficients": {"lam": 1.0, "mu": 1.0},
    })
    for line in open(cfg.out + ".jsonl", encoding="utf-8"):
        record = json.loads(line)
        keys = list(record)
        assert keys == sorted(keys)
        assert not any("time" in k or "date" in k for k in keys)


# -- config fuzzing ------------------------------------------------------

_WORD = st.text(alphabet=string.ascii_letters + string.digits + "_.-",
                max_size=6)
_JUNK = st.one_of(
    st.none(), st.booleans(), _WORD, st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-3, 40), max_size=4),
    st.dictionaries(_WORD, st.integers(-3, 3), max_size=2))
_AMP = st.floats(0.5, 2.0)
_SHAPE = st.lists(st.integers(2, 9), min_size=2, max_size=2)


def _preset(selector, name, **params):
    return st.fixed_dictionaries({selector: st.just(name)}, optional=params)


# Valid documents with small sizes; each then takes up to two mutations
# that put an arbitrary value at a top-level or block key.
_VALID = st.fixed_dictionaries({"command": st.sampled_from(
    ["check", "verify-forms", "solve", "regularity", "report"])}, optional={
    "phi": st.one_of(
        _preset("family", "power", p=st.floats(2.0, 40.0)),
        _preset("family", "exp_square"),
        _preset("family", "truncated_power", p=st.floats(2.0, 8.0),
                k=st.floats(1.5, 4.0))),
    "coefficients": st.one_of(
        _preset("kind", "constant", lam=_AMP, mu=_AMP),
        _preset("kind", "ramp", lam0=_AMP, mu0=_AMP,
                slope=st.floats(0.0, 0.2), shape=_SHAPE),
        _preset("kind", "radial", lam0=_AMP, mu0=_AMP,
                amp=st.floats(0.0, 0.2), shape=_SHAPE)),
    "load": st.one_of(*[_preset("preset", name, amp=_AMP) for name in
                        ("manufactured", "smooth", "fiber", "zero")]),
    "grid": st.lists(st.integers(8, 10), min_size=2, max_size=2),
    "domain": st.just([0.0, 1.0, 0.0, 1.0]),
    "p": st.floats(2.0, 6.0),
    "p_sweep": st.fixed_dictionaries({"lo": st.just(2.0),
                                      "hi": st.floats(2.5, 10.0),
                                      "count": st.integers(2, 4)}),
    "c0": st.floats(0.1, 2.0),
    "kappa_hint": st.none(),
    "seed": st.integers(0, 5),
    "octaves": st.integers(0, 3),
    "refinements": st.integers(1, 2),
    "scale_factors": st.just([0.5, 1.0]),
    "dump_solution": st.booleans(),
})
_MUTATION = st.one_of(st.none(), st.tuples(
    st.sampled_from(["command", "phi", "coefficients", "load", "grid",
                     "domain", "p", "p_sweep", "c0", "kappa_hint", "seed",
                     "octaves", "refinements", "scale_factors",
                     "dump_solution", "bogus"]),
    st.sampled_from([None, "family", "kind", "preset", "p", "k", "lam",
                     "mu", "lam0", "slope", "amp", "shape", "count",
                     "extra"]),
    _JUNK))


def _mutate(doc, *mutations):
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    for mutation in filter(None, mutations):
        key, sub, value = mutation
        if sub is not None and isinstance(doc.get(key), dict):
            doc[key][sub] = value
        else:
            doc[key] = value
    return doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=st.builds(_mutate, _VALID, _MUTATION, _MUTATION))
def test_config_fuzz_keeps_the_cli_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run" / "report"
        doc = {**doc, "out": str(out)}
        try:
            config_from_mapping(doc)
        except ValueError:
            valid = False
        else:
            valid = True
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = main([str(path)])
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_ERROR)
        assert valid or code == EXIT_ERROR
        records = [json.loads(line) for line in
                   open(out.with_suffix(".jsonl"), encoding="utf-8")]
    assert records[-1]["record"] == "summary"
    assert records[-1]["exit_status"] == code
    for rec in records:
        if rec["record"] in ("verdict", "sufficient_any_dim"):
            assert "nan" not in rec.values()
