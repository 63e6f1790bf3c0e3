"""Self-test of the benchmark's own checks, and a smoke run of each workload.

    python3 perfbench/selftest.py

Every check must pass on the program's real output and must fail when that
output is made wrong on purpose.  The smoke runs start run.py for one round
of each workload, and for one traced run, and require a correct result with
only the planned failure.  Takes about two minutes.
"""

import copy
import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import yaml  # noqa: E402

import funcdiss  # noqa: E402
from funcdiss import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

WORK = HERE.parent / ".perfbench" / "selftest"


def _run(op):
    """Run one operation through the CLI; return its status and report."""
    WORK.mkdir(parents=True, exist_ok=True)
    config = WORK / f"{op.name}.yaml"
    config.write_text(yaml.safe_dump(dict(op.doc, out=str(WORK / op.name))))
    code = cli.main([str(config)])
    return code, checks.read_report(WORK / op.name)


def _by_name(ops, name):
    return next(op for op in ops if op.name == name)


class CheckTest(unittest.TestCase):
    """Each check on a real output, then on deliberately wrong ones."""

    @classmethod
    def setUpClass(cls):
        evidence = workloads.build("evidence", 1)
        regularity = workloads.build("regularity", 1)
        study = _by_name(regularity, "regularity-32-256")
        cls.ops = {
            "strict": _by_name(evidence, "forms-power-checkerboard"),
            "report": _by_name(evidence, "report-truncated"),
            "flip": _by_name(workloads.build("refutation", 1), "flip-64"),
            "study": dataclasses.replace(
                study, doc=dict(study.doc, refinements=2)),
            "solve": _by_name(regularity, "solve-manufactured-64"),
        }
        cls.outputs = {key: _run(op) for key, op in cls.ops.items()}

    def findings(self, key, edit=None):
        code, out = self.outputs[key]
        out = copy.deepcopy(out)
        if edit is not None:
            code = edit(out) or code
        return checks.check_op(self.ops[key], code, out, checks.GridCache(),
                               funcdiss.standard_ensemble)

    def assertCaught(self, key, edit, words):
        found = self.findings(key, edit)
        self.assertTrue(any(words in f for f in found),
                        f"no finding about {words!r} in {found}")

    def test_real_outputs_pass(self):
        for key in self.ops:
            with self.subTest(key):
                self.assertEqual(self.findings(key), [])

    def test_shifted_rhs(self):
        def edit(out):
            checks._records(out, "verdict")[0]["rhs"] += 1e-3
        self.assertCaught("strict", edit, "rhs")

    def test_shifted_bmo(self):
        def edit(out):
            checks._records(out, "verdict")[0]["bmo_value"] *= 1.01
        self.assertCaught("strict", edit, "bmo_value")

    def test_wrong_status(self):
        def edit(out):
            checks._records(out, "verdict")[0]["status"] = "Inconclusive"
        self.assertCaught("strict", edit, "status")

    def test_flipped_residual_sign(self):
        def edit(out):
            for row in out["csv"]["residuals"]:
                row["residual"] = repr(-float(row["residual"]))
            ev = checks._records(out, "form_evidence")[0]
            ev["min_residual"] = -abs(ev["min_residual"])
        self.assertCaught("strict", edit, "min_residual")
        self.assertCaught("strict", edit, "residual")

    def test_forms_off_the_finer_rule(self):
        def edit(out):
            for row in out["csv"]["residuals"]:
                shift = 0.01 * float(row["gradient_sq"])
                for col in ("form_value", "residual"):
                    row[col] = repr(float(row[col]) + shift)
            checks._records(out, "form_evidence")[0]["min_residual"] = min(
                float(r["residual"]) for r in out["csv"]["residuals"])
        self.assertCaught("strict", edit, "finer rule")

    def test_wrong_limit_ratio(self):
        def edit(out):
            checks._records(out, "limit_summary")[0]["lambda_inf_sq"] = 0.01
        self.assertCaught("report", edit, "lambda_inf_sq")

    def test_moved_symbol_minimum(self):
        def edit(out):
            checks._records(out, "counterexample")[0]["algebraic_min"] += 1e-3
        self.assertCaught("flip", edit, "algebraic_min")

    def test_positive_flip_row(self):
        def edit(out):
            row = out["csv"]["counterexample"][-1]
            row["form_value"] = repr(abs(float(row["form_value"])))
        self.assertCaught("flip", edit, "flip row")

    def test_drifted_scaling_ratio(self):
        def edit(out):
            row = out["csv"]["scaling"][-1]
            row["ratio"] = repr(float(row["ratio"]) * (1.0 + 1e-3))
        self.assertCaught("study", edit, "drift")

    def test_drifted_refinement_ratio(self):
        def edit(out):
            row = out["csv"]["refinement"][-1]
            row["weighted_energy"] = repr(3.0 * float(row["weighted_energy"]))
            row["ratio"] = repr(3.0 * float(row["ratio"]))
            checks._records(out, "refinement_study")[0]["ratios"][-1] *= 3.0
        self.assertCaught("study", edit, "factor 2")

    def test_wrong_u_max(self):
        def edit(out):
            checks._records(out, "solution")[0]["u_max"] *= 1.01
        self.assertCaught("solve", edit, "u_max")

    def test_broken_galerkin_identity(self):
        def edit(out):
            checks._records(out, "solution")[0]["energy"] *= 1.001
        self.assertCaught("solve", edit, "rhs_work")

    def test_summary_mismatch(self):
        self.assertCaught("solve", lambda out: 2, "exit_status")


class SmokeTest(unittest.TestCase):
    """One short run of each workload through the benchmark command, and
    one traced run; the metrics must be those BENCHMARK.json names."""

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def run_workload(self, name, trace=0):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_workloads(self):
        wanted = {m["name"] for m in self.spec["end_to_end"]}
        for name, failed_per_round in (("evidence", 1), ("refutation", 0),
                                       ("regularity", 0)):
            with self.subTest(name):
                result = self.run_workload(name)
                self.assertTrue(result["correct"])
                rounds = result["attempted"] // len(workloads.build(name, 1))
                self.assertEqual(result["failed"], failed_per_round * rounds)
                self.assertEqual(set(result["metrics"]), wanted)

    def test_traced_run(self):
        result = self.run_workload("evidence", trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in self.spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
