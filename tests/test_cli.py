import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tpqr import cli, cuspdual, sl2z
from tpqr.cuspdual import QuadIrrational
from tpqr.quadlattice import GramLattice
from tpqr.sl2z import SL2Matrix

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_monodromy_json(capsys):
    code, data = run_json(capsys, "monodromy", "2", "3", "7")
    assert code == 0
    assert data["matrix"] == [[5, -11], [1, -2]]
    assert data["class"] == "hyperbolic"
    assert data["trace"] == 3
    # the matrix round-trips through the library deserializer
    assert SL2Matrix.from_json(data["matrix"]).trace == 3
    # the bundled homology data round-trips too
    assert GramLattice.from_json(
        {"labels": data["h2_action"]["labels"], "gram": data["h2_action"]["gram"]}
    ).rank == 11


def test_dual_json(capsys):
    code, data = run_json(capsys, "dual", "2", "3", "8")
    assert code == 0
    assert data["dual"] == [2, 4, 5]
    assert data["alpha_v"] == "2+sqrt(3)"
    assert data["passed"] is True
    assert QuadIrrational.from_json(data["alpha_v_exact"]) == QuadIrrational(
        2, 1, 1, 3
    )


def test_dual_comma_form(capsys):
    code, data = run_json(capsys, "dual", "2,3,8")
    assert code == 0 and data["dual"] == [2, 4, 5]


def test_inose_json(capsys):
    code, data = run_json(capsys, "inose", "--case", "0,0,2,2")
    assert code == 0
    assert data["boundary"] == "X_{2,3,7}"
    assert data["trace"] == 3


def test_inose_no_match(capsys):
    code, data = run_json(capsys, "inose", "--case", "0,0,0,0")
    assert code == 0
    assert data["boundary"] is None


def test_lattice_json(capsys):
    code, data = run_json(capsys, "lattice", "t", "--triple", "2,3,7")
    assert code == 0
    assert data["disc"] == -1
    assert data["signature"] == [1, 0, 9]
    lat = GramLattice.from_json(data["lattice"])
    assert lat.rank == 10


RANK_175_LATTICE_SHA256 = "9263b88cac7e9d5a7ea3b3b3090fa952f5b739e66915643635574390a6e2d5c4"


def test_rank_175_lattice_json_is_byte_identical(capsys):
    """U and V are part of the output and not unique: the same pivots and
    the same operations in the same order give the same bytes."""
    code, out = run(capsys, "lattice", "t", "--triple", "3,4,170", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RANK_175_LATTICE_SHA256


MONODROMY_RANK_120_SHA256 = "8a57d06453b35e31490decbff3fd4234af61d6a99ec02691380fc96d941d7221"


def test_rank_120_monodromy_json_is_byte_identical(capsys):
    """(3,4,114) has H_2 rank 120, the cap of `monodromy`; its output holds
    the action matrix and its characteristic polynomial."""
    assert 3 + 4 + 114 - 1 == cli._MONODROMY_RANK_LIMIT
    code, out = run(capsys, "monodromy", "3", "4", "114", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MONODROMY_RANK_120_SHA256


PARABOLIC_SHA256 = {
    "lattice t --triple 3,3,3": "8c0a2680f3691dc109fd95df327341a9ed1cd15fbf9f0bd8199ef1fc26c159ba",
    "lattice t --triple 2,4,4": "8822e87b1bdaf757be045c296be4991203be22468999f4b8495736e6284e7b5d",
    "lattice t --triple 2,3,6": "c21d61b0ef99b4554a49235d9f901253b0670ac995f03c621bc9671784145bee",
    "lattice ttilde --triple 3,3,3 --generator S":
        "6c0c0b10189d5ced3623387a24004aad4c29e1325ed882fd81cbee278b67a439",
    "lattice ttilde --triple 3,3,3 --generator S'":
        "9b2579716934200f3ee2fd9f27f55bc0134ed7e4e83ec3962866ac0d78b75a9c",
    "lattice ttilde --triple 2,4,4 --generator S":
        "691220b90062b96b4fdba5cff18503cfe47b5315c7b5600c8e9e64c4e18a78f1",
    "lattice ttilde --triple 2,4,4 --generator S'":
        "2c7490dcecd88fa81dc444a6f5e20f32ae9ea07f0a9c6486ee04b21e4a81476a",
    "lattice ttilde --triple 2,3,6 --generator S":
        "9fe63bab89561405e869b62f2bf7bb76a6153ba7402125413bd44f649779434c",
    "lattice ttilde --triple 2,3,6 --generator S'":
        "9b58623c6b55b74432b9648626280113ec5412066c03dfd5a1b4d8bb8aab51a6",
    "monodromy 3 3 3": "45f90ad31442f91555d73873163c546105c7fc9ebb9145e5ee5d3475dfe7fd08",
    "monodromy 2 4 4": "82a47f871091da1b19116ff7e0ccf1ab51ee833dfc685c99c520251494811341",
    "monodromy 2 3 6": "4f5ba42fc7caec0d20ed299c44e477c0e8caf170eaeb12df81efc724b91c0825",
}


def test_simple_elliptic_outputs_are_byte_identical(capsys):
    """The recorded requests draw only cusp triples; these pin the three
    parabolic ones, whose Milnor lattices have a radical of rank 2."""
    for request, want in PARABOLIC_SHA256.items():
        code, out = run(capsys, *request.split(" "), "--json")
        assert code == 0, request
        assert hashlib.sha256(out.encode()).hexdigest() == want, request


# The largest Smith certificates of the pinned requests: their U and V
# have rank 178 and 176.  The other large requests pinned with these
# (`lattice t --triple 3,4,170`, `monodromy 3 4 114`, `lattice ttilde
# --triple 3,3,3 --generator S` and `monodromy 2 3 6`) are pinned above.
LARGE_LATTICE_SHA256 = {
    ("lattice", "t", "--triple", "2,3,175"):
        "f99111c705823fae8b4861db9ea63e52f6aa3952ef9138e07081be49fc8ebdd3",
    ("lattice", "ttilde", "--triple", "3,4,170", "--generator", "S'"):
        "bfbeca5ca4a3b6fff50c611b8d79b6064e584a5fd3f17ef23d1a85a731bda989",
    ("lattice", "ttilde", "--triple", "3,4,170", "--generator", "S"):
        "70de836ed46432c2512510e42cc497dd1ef675fea5aaec0c399dff099bfc2f60",
}


@pytest.mark.parametrize("argv", list(LARGE_LATTICE_SHA256), ids=" ".join)
def test_large_lattice_json_is_byte_identical(capsys, argv):
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_LATTICE_SHA256[argv]


# Text-mode stdout of the exact subcommands, which the recorded requests
# (all JSON) leave unpinned.  Every request exits 0.
TEXT_SHA256 = {
    "monodromy 2 3 7": "9461e3b0c9037623b75b0c38d1d6b75d754f1f4fe6cf885d9192b7fe5046c770",
    "dual 2 3 7": "faeeaf8f73010eba678a11fd141f27f7cadd1132d4499f24b6761354eabc15ff",
    "dual 3 4 5": "a8c9303f256217a3267d719b1b6f518351ecb9c372630f65fda20d94c4d7ee4b",
    "lattice t": "1d0bece4357613ae2137bd953af9785c2250a887d1dbce18c232c001d4d324b0",
    "lattice ttilde --triple 3,4,5 --generator S":
        "ef602450e923a233cb4b2f9d75e0e1a45731791d529626e0a3d427ea3b83b685",
    "lattice e --k 7": "1d6411f7e970589bebcd87b9de0cd50b95290de79026dbacff61a88e3d0ef801",
    "lattice h": "53f7a05135611a75b03f47a3110c683140748f0447667c3e97520a2e6ba563d3",
    "lattice k3": "ae218dc28469d0b5b0665845dedd7e9a342011c6b36b71b119d052fe9a3ced79",
    "k3 --pair 3,4,5": "e6a4a895232f499917058751b012992398dcc3c3fabde1b5e7b9f83d7f11b933",
    "k3 --pair 2,3,7": "46280138d46888213192886a59469ef993db78ff4dd7d71a625d02cdbff780ad",
    "inose --case 2,2,2,2": "4504fdc01be80c3aa645aae3b183503704425e8084961675a6340e49cb532dcc",
    "inose --case 0,0,0,0": "757f4ffd5b280dd0948920ef925ac0f0610f55b913aeb8ff845fe8ba68b5e06d",
    "table": "4dc4c9e97cdb0027cd122cbdf2fabc000b2be77284e7d9928380810f665fa834",
}


def test_text_outputs_are_byte_identical(capsys):
    for request, want in TEXT_SHA256.items():
        code, out = run(capsys, *request.split(" "))
        assert code == 0, request
        assert hashlib.sha256(out.encode()).hexdigest() == want, request


def test_text_lines_show_the_json_report(capsys):
    argv = ["verify-fibration", "--pqr", "2,3,7", "--t", "0.5", "--samples", "200"]
    code, out = run(capsys, *argv)
    json_code, data = run_json(capsys, *argv)
    assert code == json_code == 0
    crit, hess = data["critical_points"], data["hessian_x_axis"]
    audit = data["symplectic_inequality"]
    assert out.splitlines() == [
        f"critical points: {crit['count']} verified, all_ok={crit['all_ok']}",
        f"hessian (x-axis): matches={hess['matches']} lambda={hess['lam_measured']:.6g}",
        f"inequality audit: passed={audit['passed']} min_margin={audit['min_margin']:.3g}",
        f"overall: {'PASS' if data['passed'] else 'FAIL'}",
    ]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["k3", "--pair", "5,5,5"], "error: (5,5,5) is not in the duality table\n"),
        (
            ["verify-fibration", "--pqr", "2,3,700", "--samples", "20"],
            "error: projection onto the fiber failed: no convergence after 50 iterations\n",
        ),
    ],
    ids=["k3", "verify-fibration"],
)
def test_text_mode_refusal_is_one_exact_stderr_line(argv, err):
    # a fresh process, so that a numpy warning would reach stderr
    proc = run_child("import sys, tpqr.cli; sys.exit(tpqr.cli.main(sys.argv[1:]))", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_k3_json(capsys):
    code, data = run_json(capsys, "k3", "--pair", "2,3,8")
    assert code == 0
    assert data["critical_count"] == 24
    assert data["glued"]["unimodular"] is False
    assert data["boundary_inverse_conjugacy"] is not None


def test_k3_unknown_pair(capsys):
    code, _ = run(capsys, "k3", "--pair", "5,5,5")
    assert code == 2


NO_DUALITY = (cuspdual.DualityReport, "verify", lambda self: False)
NO_CONJUGATOR = (sl2z, "is_conjugate_to_inverse", lambda a, b: None)


@pytest.mark.parametrize(
    "argv, patch, failing_line, count",
    [
        (["dual", "2", "3", "7"], NO_DUALITY, "conjugacy certificates verified: False", 1),
        (["table"], NO_DUALITY, " ok:False", 10),
        (["k3", "--pair", "3,4,5"], NO_CONJUGATOR, "boundary monodromies inverse-conjugate: False", 1),
    ],
    ids=["dual", "table", "k3"],
)
def test_a_failed_exact_check_exits_1(capsys, monkeypatch, argv, patch, failing_line, count):
    """The exact subcommands' exit 1, with the source of the verdict made
    to fail; the text shows the failure on ``count`` lines."""
    monkeypatch.setattr(*patch)
    assert cli.main(argv + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["passed"] is False
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and sum(line.endswith(failing_line) for line in out.splitlines()) == count


def test_table_deterministic(capsys):
    code1, out1 = run_json(capsys, "table")
    code2, out2 = run_json(capsys, "table")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1["rows"]) == 10
    assert out1["passed"] is True


def test_verify_fibration_small(capsys):
    code, data = run_json(
        capsys,
        "verify-fibration",
        "--pqr",
        "2,3,7",
        "--t",
        "1",
        "--samples",
        "60",
        "--seed",
        "42",
    )
    assert code == 0
    assert data["passed"] is True
    assert data["critical_points"]["count"] == 12
    assert data["hessian_x_axis"]["matches"] is True


@pytest.mark.parametrize(
    "pqr, note", [("2,3,7", None), ("2,3,10", "index above 9: review precision")]
)
def test_inequality_audit_reports_its_precision_note(capsys, pqr, note):
    code, data = run_json(capsys, "verify-fibration", "--pqr", pqr, "--samples", "20")
    assert code == 0
    assert data["symplectic_inequality"]["precision_note"] == note


def run_child(script, *argv):
    """Run ``python -c script argv...`` in a fresh interpreter on ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_exact_commands_do_not_import_numpy():
    script = (
        "import sys, tpqr.cli; rc = tpqr.cli.main(['table', '--json']); "
        "assert rc == 0 and 'numpy' not in sys.modules, rc; "
        "assert 'fractions' not in sys.modules"
    )
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr


# The tpqr modules loaded after `import tpqr.cli` and after main, and the
# standard-library modules that only code generation needs, written to
# stderr (main's report goes to stdout) as one JSON line.
LOADED_MODULES = (
    "import json, sys\n"
    "def tpqr_modules():\n"
    "    return sorted(m for m in sys.modules if m.split('.')[0] == 'tpqr')\n"
    "def codegen_modules():\n"
    "    return sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
    "import tpqr.cli\n"
    "before = [tpqr_modules(), codegen_modules()]\n"
    "rc = tpqr.cli.main(sys.argv[1:])\n"
    "after = [tpqr_modules(), codegen_modules()]\n"
    "print(json.dumps([rc, before, after, 'numpy' in sys.modules]), file=sys.stderr)"
)

@pytest.mark.parametrize(
    "argv, layers",
    [
        (["monodromy", "2", "3", "7"], {"milnorfiber", "quadlattice", "sl2z"}),
        (["monodromy", "2", "3", "5"], {"sl2z"}),
        (["dual", "2", "3", "8"], {"cuspdual", "sl2z"}),
        (["lattice", "t", "--triple", "2,3,7"], {"quadlattice"}),
        (["lattice", "h"], {"quadlattice"}),
        (["k3", "--pair", "2,4,5"], {"k3glue", "quadlattice", "sl2z"}),
        (["inose", "--case", "0,1,0,2"], {"k3glue", "sl2z"}),
        (["table"], {"k3glue", "cuspdual", "sl2z"}),
    ],
    ids=["monodromy", "monodromy-235", "dual", "lattice-t", "lattice-h", "k3", "inose", "table"],
)
def test_each_command_loads_only_its_layers(argv, layers):
    proc = run_child(LOADED_MODULES, *argv, "--json")
    assert proc.returncode == 0, proc.stderr
    rc, before, after, numpy_loaded = json.loads(proc.stderr.splitlines()[-1])
    assert rc == 0, proc.stderr
    assert before == [["tpqr", "tpqr.cli"], []]
    assert set(after[0]) == {"tpqr", "tpqr.cli"} | {f"tpqr.{m}" for m in layers}
    assert after[1] == []
    assert not numpy_loaded


_TRIPLE_REQUIRED = "error: a triple p q r (or p,q,r) is required"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["monodromy", "2", "3"], _TRIPLE_REQUIRED),
        (["dual", "2", "3"], _TRIPLE_REQUIRED),
        (["k3", "--pair", "2,3"], _TRIPLE_REQUIRED),
        (["inose", "--case", "1,x"], "error: invalid literal for int() with base 10: 'x'"),
        (["lattice", "t", "--triple", "2,3"], _TRIPLE_REQUIRED),
    ],
    ids=["monodromy", "dual", "k3", "inose", "lattice-t"],
)
def test_a_usage_error_loads_no_layer(argv, err):
    proc = run_child(LOADED_MODULES, *argv, "--json")
    assert proc.stdout == ""
    *lines, last = proc.stderr.splitlines()
    rc, before, after, numpy_loaded = json.loads(last)
    assert (rc, lines) == (2, [err])
    assert before == after == [["tpqr", "tpqr.cli"], []]
    assert not numpy_loaded


def test_k3glue_loads_neither_cuspdual_nor_quadlattice():
    proc = run_child(
        "import sys, tpqr.k3glue; "
        "print(sorted(m for m in sys.modules if m.startswith('tpqr.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['tpqr.k3glue', 'tpqr.sl2z']\n"


@pytest.mark.parametrize("layer", ["quadlattice", "numcheck"])
def test_layers_using_triple_excess_do_not_load_sl2z(layer):
    proc = run_child(f"import sys, tpqr.{layer}; assert 'tpqr.sl2z' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["--pqr", "2,3,996"], ["--pqr", "2,3,7", "--samples", str(cli._SAMPLES_LIMIT + 1)]],
    ids=["critical-points", "samples"],
)
def test_rejected_verify_fibration_input_exits_before_numpy(argv):
    script = (
        "import sys, tpqr.cli; rc = tpqr.cli.main(sys.argv[1:]); "
        "assert 'numpy' not in sys.modules and 'tpqr.numcheck' not in sys.modules; "
        "sys.exit(rc)"
    )
    proc = run_child(script, "verify-fibration", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "exceeds the limit" in proc.stderr


def test_verify_fibration_rejects_bad_a(capsys):
    code, _ = run(capsys, "verify-fibration", "--pqr", "2,3,7", "--a", "10")
    assert code == 2


def test_the_tolerance_file_sets_samples_and_seed(capsys, tmp_path):
    cfgfile = tmp_path / "tight.cfg"
    cfgfile.write_text("samples=40\nseed=7\n")
    code, data = run_json(
        capsys,
        "verify-fibration",
        "--pqr",
        "2,3,7",
        "--tolerance-file",
        str(cfgfile),
    )
    assert code == 0 and data["config"]["samples"] == 40 and data["config"]["seed"] == 7


def test_the_environment_names_no_tolerance_file(capsys, tmp_path, monkeypatch):
    """Only --tolerance-file names a tolerance file; TPQR_CONFIG is not
    read."""
    cfgfile = tmp_path / "tight.cfg"
    cfgfile.write_text("samples=40\n")
    monkeypatch.setenv("TPQR_CONFIG", str(cfgfile))
    code, data = run_json(capsys, "verify-fibration", "--pqr", "2,3,7")
    assert code == 0 and data["config"]["samples"] == 1000


def test_a_negative_zero_theta_and_t_give_the_report_of_zero(capsys):
    """-0 and 0 are equal parameters, so their reports are the same bytes."""
    argv = ["verify-fibration", "--pqr", "2,3,7", "--samples", "20", "--json"]
    minus = run(capsys, *argv, "--theta", "-0", "--t", "-0")
    plus = run(capsys, *argv, "--theta", "0", "--t", "0")
    assert minus == plus and minus[0] == 0
    assert '"theta": 0.0' in plus[1] and '"t": 0.0' in plus[1]


def test_tolerance_file_rejects_an_unknown_key(capsys, tmp_path):
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text("fd_step=1e-6\n")
    code, out = run(
        capsys, "verify-fibration", "--pqr", "2,3,7", "--tolerance-file", str(cfgfile)
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("line", ["residual_tol=inf", "rank_tol=1"])
def test_tolerance_file_rejects_a_vacuous_tolerance(capsys, tmp_path, line):
    # residual_tol = inf leaves Newton's seeds unprojected, and a rank ratio
    # is at most 1, so rank_tol >= 1 passes every rank test
    cfgfile = tmp_path / "vacuous.cfg"
    cfgfile.write_text(line + "\n")
    code = cli.main(["verify-fibration", "--pqr", "2,3,7", "--tolerance-file", str(cfgfile)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


def test_a_negative_seed_exits_2_before_any_stage_runs(capsys, monkeypatch):
    from tpqr import numcheck

    stages = []
    monkeypatch.setattr(numcheck, "critical_points", lambda *a: stages.append(a))
    code = cli.main(["verify-fibration", "--pqr", "2,3,7", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and stages == []
    assert err == "error: seed must be >= 0, got -1\n"


def test_numerical_config_rejects_an_infinite_rank_tol():
    from tpqr.numcheck import NumericalConfig

    with pytest.raises(ValueError):
        NumericalConfig(rank_tol=math.inf)


def test_text_report_names_the_failing_defect(capsys, tmp_path, monkeypatch):
    code, out = run(capsys, "verify-fibration", "--pqr", "2,3,7", "--a", "1e50", "--samples", "20")
    assert code == 0
    assert "lagrangian defect: passed=True samples=10 max_defect=" in out
    cfgfile = tmp_path / "tight.cfg"
    cfgfile.write_text("rank_tol=1e-40\n")
    argv = ["verify-fibration", "--pqr", "2,3,7", "--samples", "20", "--tolerance-file", str(cfgfile)]
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.startswith("critical points: 12 verified, all_ok=False\n")
    assert out.endswith("overall: FAIL\n")
    from tpqr import numcheck

    def no_point(params, points=None, config=None, tolerance=1e-6):
        return numcheck.DefectReport(0, 0.0, True, tolerance, tried=10)

    monkeypatch.setattr(numcheck, "lagrangian_defect", no_point)
    code, out = run(capsys, *argv[:-2])
    assert code == 1
    assert "lagrangian defect: passed=False samples=0 max_defect=0\n" in out
    assert out.endswith("overall: FAIL\n")


def test_text_report_below_t_1_has_no_defect_line(capsys):
    code, out = run(capsys, "verify-fibration", "--pqr", "3,3,4", "--t", "0.5")
    assert code == 0
    assert out == (
        "critical points: 10 verified, all_ok=True\n"
        "hessian (x-axis): matches=True lambda=1.1808e+06\n"
        "inequality audit: passed=True min_margin=0.0143\n"
        "overall: PASS\n"
    )


def test_verify_fibration_passes_at_a_large_a(capsys):
    # the defect's rows grow with a, and it still uses all of its points
    code, data = run_json(capsys, "verify-fibration", "--pqr", "2,3,7", "--a", "1e28", "--samples", "100")
    assert code == 0 and data["passed"] is True
    assert data["lagrangian_defect"]["samples"] == 10 and data["lagrangian_defect"]["passed"] is True


@pytest.mark.parametrize("a", ["1e160", "1e308"])
def test_a_beyond_the_double_range_is_a_precondition_error(capsys, a):
    # past a = 6.7e153, |xyz| = 1/a^2 on the fiber is not a normal double
    argv = ["verify-fibration", "--pqr", "2,3,7", "--a", a, "--samples", "20", "--json"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a = ") and len(err.splitlines()) == 1


def test_verify_fibration_rejects_a_non_finite_theta(capsys):
    assert cli.main(["verify-fibration", "--pqr", "2,3,7", "--theta", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: theta must be finite\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--pqr", "2,3,700", "--samples", "20", "--json"],
        ["--pqr", "2,3,400", "--samples", "1000"],
    ],
    ids=["2,3,700", "2,3,400"],
)
def test_projection_failure_is_a_precondition_error(argv):
    # a fresh process, so that numpy's floating-point warnings would reach
    # stderr instead of pytest's warning capture
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tpqr.cli", "verify-fibration", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: projection onto the fiber failed")
    assert len(proc.stderr.splitlines()) == 1


def test_usage_errors(capsys):
    assert cli.main(["dual", "2", "3"]) == 2
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["lattice", "foo"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'foo'" in err


def test_big_int_sanitizer():
    big = 2**60
    out = cli._sanitize({"v": big, "w": [3, -big], "ok": True})
    assert out["v"] == str(big)
    assert out["w"] == [3, str(-big)]
    assert out["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["monodromy", "2", "3", str(cli._MONODROMY_RANK_LIMIT - 3)],
        ["lattice", "t", "--triple", f"2,3,{cli._LATTICE_RANK_LIMIT - 2}"],
        ["lattice", "ttilde", "--triple", f"2,3,{cli._LATTICE_RANK_LIMIT - 3}"],
        ["verify-fibration", "--pqr", "2,3,7", "--samples", str(cli._SAMPLES_LIMIT + 1)],
        ["verify-fibration", "--pqr", f"2,3,{cli._CRITICAL_POINT_LIMIT - 4}", "--samples", "20"],
        ["verify-fibration", "--pqr", f"2,3,{10**399}", "--samples", "20"],
    ],
    ids=["monodromy", "lattice-t", "lattice-ttilde", "samples", "critical-points",
         "critical-points-400-digits"],
)
def test_size_limit_one_past_is_usage_error(capsys, argv):
    assert cli.main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "exceeds the limit" in err


def test_memory_error_is_usage_error(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("tpqr.cuspdual.verify_duality", exhausted)
    assert cli.main(["dual", "2", "3", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"


# The child caps its own address space before importing tpqr.
CAPPED_CLI = (
    "import resource, sys; cap = 1_500_000_000; "
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "from tpqr.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "2", "3", "1000000000"],
        ["lattice", "t", "--triple", "2,3,100000"],
        ["monodromy", "2", "3", "1000000000"],
    ],
    ids=["dual", "lattice-t", "monodromy"],
)
def test_oversized_input_exits_2_under_memory_cap(argv):
    proc = run_child(CAPPED_CLI, *argv, "--json")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_recorded_cli_outputs_are_byte_identical(capsys):
    """Every request of the benchmark's recorded set gives the recorded
    exit code and stdout bytes when run in-process."""
    recorded = json.loads((ROOT / "bench" / "expected_stdout.json").read_text())
    assert len(recorded["requests"]) == 729
    for key, want in recorded["requests"].items():
        rc = cli.main(key.split(" "))
        out, err = capsys.readouterr()
        assert rc == want["rc"], key
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"], key
        if rc == 2:
            assert len(err.splitlines()) == 1, key


@pytest.mark.parametrize("theta", ["3e7", "1e8", "1e16", "-1e8"])
def test_verify_fibration_passes_at_a_large_theta(capsys, theta):
    argv = ["verify-fibration", "--pqr", "2,3,7", f"--theta={theta}", "--samples", "20"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "critical points: 12 verified, all_ok=True\n" in out and out.endswith("overall: PASS\n")
