"""Command-line harness: exit codes, determinism, record format, curve dumps."""

import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslab import cli, dsl


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


LIGHTCONE_CFG = """
[metric]
metric = minkowski2-cone
metric2 = bogoslovsky2

[run]
seed = 7
samples = 24
"""

TENSORS_CFG = """
[metric]
metric = einstein-static

[run]
seed = 11
samples = 25
"""

GEODESIC_CFG = """
[metric]
metric = einstein-static
x0 = 0, 1.5707963267948966, 0
v0 = 1, 0, 1

[run]
seed = 1
t1 = 1.0
step = 1e-3
"""


def test_exit_code_zero_on_success(tmp_path):
    cfg = write_config(tmp_path, LIGHTCONE_CFG)
    assert cli.main(["lightcone", "--config", cfg]) == 0


def test_exit_code_one_on_assertion_failure(tmp_path):
    cfg = write_config(tmp_path, """
[metric]
metric = minkowski2
metric2 = steeper.metric

[run]
seed = 1
samples = 16
""")
    (tmp_path / "steeper.metric").write_text("name=steeper\ndim=2\ndegree=2\n-2*y0^2 + y1^2\n")
    assert cli.main(["lightcone", "--config", cfg]) == 1


def test_exit_code_two_on_missing_metric_file(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[metric]
metric = missing.metric
metric2 = bogoslovsky2
""")
    assert cli.main(["lightcone", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "missing.metric" in err


def test_exit_code_two_on_lightcone_pair_with_different_domains(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[metric]
metric = minkowski2
metric2 = bogoslovsky2
""")
    assert cli.main(["lightcone", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_exit_code_two_on_missing_config(capsys):
    assert cli.main(["tensors", "--config", "/nonexistent/x.ini"]) == 2


def test_exit_code_two_on_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "[metric]\nmetric = minkowski3\n")
    assert cli.main(["geodesic", "--config", cfg]) == 2
    assert "x0" in capsys.readouterr().err


def test_reports_are_byte_identical_for_a_fixed_seed(tmp_path):
    cfg = write_config(tmp_path, TENSORS_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["tensors", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["tensors", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_record_key_order(tmp_path, capsys):
    cfg = write_config(tmp_path, TENSORS_CFG)
    assert cli.main(["tensors", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    payload = [l for l in lines if " name=" in l]
    assert payload
    for line in payload:
        keys = [part.split("=")[0] for part in line.split()]
        assert keys == ["experiment", "name", "value", "tolerance", "pass"]


def test_curve_dump_header(tmp_path):
    cfg = write_config(tmp_path, GEODESIC_CFG)
    out = tmp_path / "out"
    assert cli.main(["geodesic", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "curves" / "geodesic.csv").read_text().splitlines()[0]
    assert header == "t,x0,x1,x2,y0,y1,y2"


def test_entry_point_is_installed():
    proc = subprocess.run([sys.executable, "-m", "finslab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "finslab" in proc.stdout


def test_seed_override_changes_the_report(tmp_path):
    cfg = write_config(tmp_path, TENSORS_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["tensors", "--config", cfg, "--out", str(out1)])
    cli.main(["tensors", "--config", cfg, "--out", str(out2), "--seed", "99"])
    a = (out1 / "report.txt").read_text()
    b = (out2 / "report.txt").read_text()
    assert a != b
    assert "seed=99" in b


def test_variation_experiment_round_trip(tmp_path):
    cfg = write_config(tmp_path, """
[metric]
metric = einstein-static
lambda = theta-weight
x0 = 0, 1.5707963267948966, 0
v0 = 1, 0.25, 1

[run]
seed = 2
t1 = 0.6
step = 4e-3
samples = 2
""")
    assert cli.main(["variation", "--config", cfg]) == 0


def test_focal_experiment_with_expected_values(tmp_path):
    cfg = write_config(tmp_path, """
[metric]
metric = einstein-static
x0 = 0, 1.5707963267948966, 0
v0 = 1, 0, 1
patch = circle:0.7853981633974483

[run]
seed = 2
t1 = 1.2
step = 5e-3
expected = 0.7853981633974483:1
""")
    assert cli.main(["focal", "--config", cfg]) == 0


def test_focal_correspondence_with_unit_factor(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[metric]
metric = einstein-static
lambda = unit-factor
x0 = 0, 1.5707963267948966, 0
v0 = 1, 0, 1
patch = point

[run]
seed = 3
t1 = 3.3
step = 5e-3
""")
    assert cli.main(["focal-correspondence", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "focal-pairing-0" in out
    assert "overall pass=True" in out


def test_focal_correspondence_without_focal_points_fails(tmp_path, capsys):
    """The shipped config on a curve too short to reach a focal point:
    neither side finds one, so there is nothing to pair, and the run fails
    instead of passing on zero pairs."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "focal-correspondence.ini"
    text = shipped.read_text()
    assert "t1 = 3.3" in text
    cfg = write_config(tmp_path, text.replace("t1 = 3.3", "t1 = 1e-9"))
    assert cli.main(["focal-correspondence", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "name=focal-pair-count value=0.0 tolerance=0.5 pass=False" in out
    assert "focal-pairing-0" not in out


def test_exit_code_two_on_a_metric_above_the_dimension_cap(tmp_path, capsys):
    (tmp_path / "wide.metric").write_text("dim=40\ny0^2 - y1^2\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = wide.metric\n"
                                 "[run]\nseed = 1\nsamples = 5\n")
    assert cli.main(["tensors", "--config", cfg]) == 2
    assert_single_error_line(capsys, f"dimension must be at most {dsl.MAX_DIM}, got 40")


def test_unknown_experiment_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path, TENSORS_CFG)
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", cfg])


def assert_single_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    assert captured.out == ""
    for fragment in fragments:
        assert fragment in err[0]


CURVE_CFG = """
[metric]
metric = einstein-static
lambda = theta-weight
x0 = {x0}
v0 = {v0}
patch = point

[run]
seed = 1
t1 = {t1}
step = {step}
"""
CURVE_INPUTS = {"x0": "0, 1.5707963267948966, 0", "v0": "1, 0, 1",
                "t1": "1.0", "step": "1e-2"}


@pytest.mark.parametrize("experiment", ["geodesic", "conformal-pregeodesic",
                                        "variation", "focal",
                                        "focal-correspondence"])
@pytest.mark.parametrize("key,value", [
    ("step", "0"), ("step", "nan"), ("t1", "-1"), ("v0", "0, 0, 0"),
    ("x0", "0, 1.5707963267948966"), ("x0", "nan, 1.5707963267948966, 0")])
def test_exit_code_two_on_bad_curve_inputs(tmp_path, capsys, experiment, key, value):
    cfg = write_config(tmp_path, CURVE_CFG.format(**{**CURVE_INPUTS, key: value}))
    assert cli.main([experiment, "--config", cfg]) == 2
    assert_single_error_line(capsys)


@pytest.mark.parametrize("args,t1", [
    (["--step", "1e-300"], "6.283185307179586"), ([], "1e300")], ids=["step", "t1"])
def test_exit_code_two_on_a_step_count_numpy_cannot_allocate(tmp_path, capsys, args, t1):
    """`--step 1e-300` on the shipped geodesic config, and t1 = 1e300 at its
    step, ended in `ValueError: Maximum allowed dimension exceeded` from
    `np.empty` and exit 1; the step count is bounded before integrating."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "geodesic.ini"
    cfg = write_config(tmp_path, shipped.read_text().replace(
        "t1 = 6.283185307179586", f"t1 = {t1}"))
    assert cli.main(["geodesic", "--config", cfg, *args]) == 2
    assert_single_error_line(capsys, "steps", str(cli.MAX_CURVE_STEPS))


SAMPLE_RUNS = pytest.mark.parametrize("experiment,extra", [
    ("tensors", ""), ("lightcone", "metric2 = minkowski2-cone\n"),
    ("variation", "x0 = 0, 1.5707963267948966, 0\nv0 = 1, 0, 1\n")],
    ids=["tensors", "lightcone", "variation"])


@SAMPLE_RUNS
def test_exit_code_two_on_non_positive_sample_count(tmp_path, capsys, experiment, extra):
    metric = "minkowski2-cone" if experiment == "lightcone" else "einstein-static"
    cfg = write_config(tmp_path, f"[metric]\nmetric = {metric}\n{extra}"
                                 "[run]\nsamples = -5\n")
    assert cli.main([experiment, "--config", cfg]) == 2
    assert_single_error_line(capsys, "samples")


@SAMPLE_RUNS
@pytest.mark.parametrize("count", [cli.MAX_SAMPLES + 1, 10 ** 15])
def test_exit_code_two_on_a_sample_count_above_the_cap(tmp_path, capsys, experiment,
                                                       extra, count):
    """`samples = 1000000000000000` in the shipped tensors config ended in
    numpy's `_ArrayMemoryError` and exit 1; the count is bounded before any
    sample is drawn."""
    metric = "minkowski2-cone" if experiment == "lightcone" else "einstein-static"
    cfg = write_config(tmp_path, f"[metric]\nmetric = {metric}\n{extra}"
                                 f"[run]\nsamples = {count}\n")
    assert cli.main([experiment, "--config", cfg]) == 2
    assert_single_error_line(capsys, "samples", str(cli.MAX_SAMPLES), str(count))


def test_exit_code_two_on_a_factor_of_the_wrong_degree(tmp_path, capsys):
    """A degree-2 metric given as the conformal factor of the shipped
    conformal-pregeodesic config ended in a bare ValueError and exit 1."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "conformal-pregeodesic.ini"
    text = shipped.read_text()
    assert "lambda = theta-weight" in text
    cfg = write_config(tmp_path, text.replace("lambda = theta-weight",
                                              "lambda = einstein-static"))
    assert cli.main(["conformal-pregeodesic", "--config", cfg]) == 2
    assert_single_error_line(capsys, "'einstein-static'", "degree 2, expected 0")


def test_a_metric_body_of_a_thousand_terms_compiles_and_runs(tmp_path, capsys):
    """A sum of 1,000 `y0*y0` terms is a tree 1,000 nodes deep; compiling it
    ended in RecursionError and exit 1."""
    body = " + ".join(["y0*y0"] * 1000) + " - y1*y1"
    (tmp_path / "long.metric").write_text(f"dim=2\n{body}\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = long.metric\n"
                                 "[run]\nseed = 1\nsamples = 5\n")
    assert cli.main(["tensors", "--config", cfg]) == 0
    assert "overall pass=True" in capsys.readouterr().out


def test_a_domain_of_a_thousand_terms_prints_and_runs(tmp_path, capsys):
    """A metric file whose domain predicate is a sum of 1,000 terms, run as
    the metric of the shipped conformal-pregeodesic config (on a shorter
    curve): `scale_metric` prints each domain predicate, and the recursive
    printer ended in RecursionError and exit 1."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "conformal-pregeodesic.ini"
    text = shipped.read_text()
    assert "metric = einstein-static" in text and "t1 = 1.0" in text
    domain = "sin(x1)" + " + 0*y0*y0" * 1000
    (tmp_path / "longdom.metric").write_text(
        f"dim=3\ndomain={domain}\n-y0^2 + y1^2 + pow(sin(x1), 2) * y2^2\n")
    cfg = write_config(tmp_path, text.replace("metric = einstein-static",
                                              "metric = longdom.metric")
                                     .replace("t1 = 1.0", "t1 = 0.05"))
    assert cli.main(["conformal-pregeodesic", "--config", cfg]) == 0
    assert "overall pass=True" in capsys.readouterr().out


def test_exit_code_two_on_a_metric_nested_past_the_cap(tmp_path, capsys):
    """200 parentheses around y0 in a metric body ended in RecursionError in
    the parser and exit 1; 190 still run."""
    cfg = write_config(tmp_path, "[metric]\nmetric = deep.metric\n"
                                 "[run]\nseed = 1\nsamples = 5\n")
    for depth, code in ((190, 0), (200, 2)):
        (tmp_path / "deep.metric").write_text(
            "dim=1\n" + "(" * depth + "y0" + ")" * depth + "^2\n")
        assert cli.main(["tensors", "--config", cfg]) == code
        if code:
            assert_single_error_line(capsys, f"deeper than {dsl.MAX_NESTING} levels")
        else:
            assert "overall pass=True" in capsys.readouterr().out


def test_exit_code_two_on_a_metric_whose_jet_kernel_passes_the_cap(tmp_path, capsys):
    """pow(x0 + x1 + y0 + y1, 1e300) writes a line per term of each squaring:
    its order-2 one-point jet kernel would take 15,279 lines, paid in
    compile time and memory.  `geodesic` takes that jet first, at the
    first RK stage, and the writer stops at the cap."""
    (tmp_path / "huge.metric").write_text("dim=2\npow(x0 + x1 + y0 + y1, 1e300)\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = huge.metric\nx0 = 0, 0\nv0 = 1, 0\n"
                                 "[run]\nt1 = 1\nstep = 0.1\n")
    assert cli.main(["geodesic", "--config", cfg]) == 2
    assert_single_error_line(capsys, f"passes {dsl.MAX_KERNEL_LINES} lines")


@pytest.mark.parametrize("rho", ["0", "-0.5", "3.2", "nan"])
def test_exit_code_two_on_circle_radius_outside_the_sphere_range(tmp_path, capsys, rho):
    cfg = write_config(tmp_path, CURVE_CFG.format(**CURVE_INPUTS).replace(
        "patch = point", f"patch = circle:{rho}"))
    assert cli.main(["focal", "--config", cfg]) == 2
    assert_single_error_line(capsys, "radius")


@pytest.mark.parametrize("metric,x0,v0,fragment", [
    ("minkowski2", "0, 0", "1, 1", "chart (t, theta, phi)"),
    ("einstein-static", "0, 1.5707963267948966, 0", "1, 0, 0", "no spatial direction")],
    ids=["2-d-metric", "no-spatial-part"])
def test_exit_code_two_on_a_circle_patch_without_a_great_circle(
        tmp_path, capsys, metric, x0, v0, fragment):
    cfg = write_config(tmp_path, f"[metric]\nmetric = {metric}\nx0 = {x0}\nv0 = {v0}\n"
                                 "patch = circle:0.5\n[run]\nt1 = 1.0\nstep = 1e-2\n")
    assert cli.main(["focal", "--config", cfg]) == 2
    assert_single_error_line(capsys, fragment)


def test_exit_code_two_on_degenerate_metric_in_tensors(tmp_path, capsys):
    (tmp_path / "flat.metric").write_text("name=flat\ndim=2\ndegree=2\ny0*y1*0\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = flat.metric\n[run]\nsamples = 5\n")
    assert cli.main(["tensors", "--config", cfg]) == 2
    assert_single_error_line(capsys, "degenerate")


def test_exit_code_two_on_exp_overflow(tmp_path, capsys):
    (tmp_path / "steep.metric").write_text("dim=2\nexp(1000*y0) + y1^2\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = steep.metric\n[run]\nsamples = 5\n")
    assert cli.main(["tensors", "--config", cfg]) == 2
    assert_single_error_line(capsys, "exp overflows")


def test_exit_code_two_on_a_non_finite_metric_jet(tmp_path, capsys):
    """exp(400*x0)^2 overflows at x0 = 0.95; the metric jet stops it before
    the integrator or a spline sees a NaN."""
    (tmp_path / "steep.metric").write_text(
        "dim=2\nexp(400*x0)*exp(400*x0)*(-y0^2 + y1^2)\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = steep.metric\nx0 = 0.95, 0\n"
                                 "v0 = 1, 1\npatch = point\n"
                                 "[run]\nt1 = 0.5\nstep = 0.05\n")
    assert cli.main(["focal", "--config", cfg]) == 2
    assert_single_error_line(capsys, "not finite")


def test_exit_code_two_on_a_metric_that_degenerates_mid_curve(tmp_path, capsys):
    """g = diag(-1, exp(x0^3)) has the scaled determinant exp(-x0^3), which
    falls below the degeneracy tolerance near x0 = 3.02, inside the span."""
    (tmp_path / "cubic.metric").write_text("dim=2\n-y0^2 + exp(x0^3)*y1^2\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = cubic.metric\nx0 = 0, 0\n"
                                 "v0 = 1, 0.5\n[run]\nt1 = 5\nstep = 1e-2\n")
    assert cli.main(["geodesic", "--config", cfg]) == 2
    assert_single_error_line(capsys, "degenerate")


def test_exit_code_two_on_a_non_finite_integration_state(tmp_path, capsys):
    """A x0*y0*y1 term large enough that A y - b overflows at the first node:
    the next RK stage state is not finite, and is named by its curve time."""
    (tmp_path / "overflowing.metric").write_text(
        "dim=3\ndomain=sin(x1)\n"
        "-y0^2 + y1^2 + pow(sin(x1), 2) * y2^2 + 1e300*x0*y0*y1\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = overflowing.metric\n"
                                 "x0 = 0, 1.5707963267948966, 0\nv0 = 1e5, 1, 1\n"
                                 "[run]\nt1 = 1\nstep = 1e-2\n")
    assert cli.main(["geodesic", "--config", cfg]) == 2
    assert_single_error_line(capsys, "state is not finite at t=0.005")


def test_exit_code_two_on_sin_of_an_infinite_argument(tmp_path, capsys):
    (tmp_path / "wobble.metric").write_text(
        "dim=2\ndomain=y0 - y1; y0 + y1\n"
        "y0^2 - y1^2 + sin(x0*1e300*1e300)*0*y1^2\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = wobble.metric\n"
                                 "[run]\nsamples = 5\n")
    assert cli.main(["tensors", "--config", cfg]) == 2
    assert_single_error_line(capsys, "sin")


@pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
def test_exit_code_two_on_a_config_seed_outside_u64(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, TENSORS_CFG.replace("seed = 11", f"seed = {seed}"))
    assert cli.main(["tensors", "--config", cfg]) == 2
    assert_single_error_line(capsys, "seed", seed)


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_exit_code_two_on_a_seed_flag_outside_u64(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, TENSORS_CFG)
    assert cli.main(["tensors", "--config", cfg, "--seed", seed]) == 2
    assert_single_error_line(capsys, "--seed", seed)


def test_the_largest_u64_seed_runs(tmp_path):
    cfg = write_config(tmp_path, TENSORS_CFG)
    assert cli.main(["tensors", "--config", cfg, "--seed", str(2 ** 64 - 1)]) == 0


def test_exit_code_two_on_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_bytes(TENSORS_CFG.encode().replace(b"[run]", b"# \xff\n[run]"))
    assert cli.main(["tensors", "--config", str(path)]) == 2
    assert_single_error_line(capsys, "exp.ini", "utf-8")


def test_exit_code_two_on_a_metric_file_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "odd.metric").write_bytes(b"dim=2\n# \xff\ny0^2 - y1^2\n")
    cfg = write_config(tmp_path, "[metric]\nmetric = odd.metric\n[run]\nsamples = 5\n")
    assert cli.main(["tensors", "--config", cfg]) == 2
    assert_single_error_line(capsys, "odd.metric", "utf-8")


@pytest.mark.parametrize("text,fragment", [
    ("metric = einstein-static\n[run]\nseed = 1\n", "no section headers"),
    ("[metric]\nmetric = einstein-static\nstray line\n", "parsing errors")],
    ids=["no-section-header", "parsing-error"])
def test_exit_code_two_with_one_line_on_a_malformed_ini(tmp_path, capsys, text,
                                                        fragment):
    cfg = write_config(tmp_path, text)
    assert cli.main(["geodesic", "--config", cfg]) == 2
    assert_single_error_line(capsys, "exp.ini", fragment)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_exit_code_two_on_a_config_tolerance_that_is_not_finite_and_positive(
        tmp_path, capsys, tol):
    """nan and -1 would fail max-cone-violation as if the cones differed,
    and inf would pass it without checking anything."""
    cfg = write_config(tmp_path, LIGHTCONE_CFG + f"tol = {tol}\n")
    assert cli.main(["lightcone", "--config", cfg]) == 2
    assert_single_error_line(capsys, "exp.ini", "[run] tol", "finite and positive", tol)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_exit_code_two_on_a_tolerance_flag_that_is_not_finite_and_positive(
        tmp_path, capsys, tol):
    cfg = write_config(tmp_path, LIGHTCONE_CFG)
    assert cli.main(["lightcone", "--config", cfg, "--tol", tol]) == 2
    assert_single_error_line(capsys, "--tol", "finite and positive", tol)


def _metric_expressions():
    # (1e300*1e300) overflows to inf, and so may an argument scaled by it
    atoms = st.sampled_from(["x0", "x1", "y0", "y1", "0", "2.5", "1e300",
                             "(1e300*1e300)"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["exp", "log", "sqrt", "sin", "cos"]), inner,
                      st.sampled_from(["", "*1e300*1e300"])).map(
                lambda t: f"{t[0]}({t[1]}{t[2]})"),
            st.tuples(inner, st.sampled_from(["2", "-1", "0.5", "1.3"])).map(
                lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda e: f"-{e}"))

    return st.recursive(atoms, extend, max_leaves=6)


_METRIC_FILES = st.builds(
    lambda dim, degree, domain, body: f"dim={dim}\ndegree={degree}\n"
                                      f"domain={domain}\n{body}\n",
    st.sampled_from(["2", "2", "2", "2", "1", "0", "two"]),
    st.sampled_from(["2", "0"]),
    st.one_of(st.sampled_from(["y0 - y1; y0 + y1", ""]), _metric_expressions()),
    # a term times 0 leaves the metric nondegenerate but is still evaluated
    st.one_of(_metric_expressions().map(lambda e: f"y0^2 - y1^2 + {e}*0*y1^2"),
              _metric_expressions(),
              st.text(alphabet="xy01+-*/^(),. e", max_size=12)))


@given(_METRIC_FILES)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzzed_metric_files_end_in_an_exit_code(text):
    """Any metric file ends in exit 0, 1 or 2, never in an uncaught error."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fuzz.metric").write_text(text)
        cfg = write_config(Path(tmp), "[metric]\nmetric = fuzz.metric\n"
                                      "[run]\nsamples = 3\n")
        assert cli.main(["tensors", "--config", cfg]) in (0, 1, 2)


# a valid config per experiment, with short runs: a few samples, or a
# curve of 20 steps
_VALID_INI = {
    "tensors": {"metric": {"metric": "einstein-static"},
                "run": {"seed": "3", "samples": "3"}},
    "lightcone": {"metric": {"metric": "minkowski2-cone", "metric2": "bogoslovsky2"},
                  "run": {"seed": "7", "samples": "3"}},
    "geodesic": {"metric": {"metric": "einstein-static", "x0": "0, 1.5707963267948966, 0",
                            "v0": "1, 0, 1"},
                 "run": {"t1": "0.02", "step": "1e-3"}},
    "conformal-pregeodesic": {"metric": {"metric": "einstein-static",
                                         "lambda": "theta-weight",
                                         "x0": "0, 1.5707963267948966, 0",
                                         "v0": "1, 0, 1"},
                              "run": {"t1": "0.02", "step": "1e-3"}},
}
_METRICS = ["minkowski2-cone", "bogoslovsky2", "einstein-static", "theta-weight",
            "unit-factor", "no-such-metric", "missing.metric", ""]
_OTHER_VALUES = {
    "metric": {"metric": _METRICS, "metric2": _METRICS, "lambda": _METRICS,
               "x0": ["0.1, 0", "nan, 1, 0", "a, b", ""],
               "v0": ["1, 0.5", "0, 0, 0", "inf, 0, 1", ""]},
    "run": {"seed": ["0", "-1", "18446744073709551616", "x"],
            "samples": ["1", "0", "-2", "two", "1e3"],
            "tol": ["1e-8", "1", "0", "-1", "nan", "inf", "x"],
            "t0": ["0.01", "-0.01", "nan"], "t1": ["0.01", "-1", "nan", "x"],
            "step": ["0.01", "0", "-1e-3", "inf", "1e400"]},
}
_JUNK = st.text(alphabet="[]=:;# abcxy01.-\t", max_size=8)


@st.composite
def _ini_files(draw):
    """An experiment and an INI text: its valid config with up to two keys
    dropped or given other values, the sections in either order, and maybe
    a stray line."""
    experiment = draw(st.sampled_from(sorted(_VALID_INI)))
    config = {section: dict(entries) for section, entries in _VALID_INI[experiment].items()}
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from(sorted(_OTHER_VALUES)))
        key = draw(st.sampled_from(sorted(_OTHER_VALUES[section])))
        config[section][key] = draw(st.sampled_from([None] + _OTHER_VALUES[section][key]))
    sections = ["\n".join([f"[{section}]"] + [f"{key} = {value}" for key, value
                                               in entries.items() if value is not None])
                for section, entries in config.items()]
    text = "\n".join(draw(st.permutations(sections)))
    return experiment, text + "\n" + draw(st.one_of(st.just(""), st.just(""), _JUNK))


@given(_ini_files())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzzed_ini_files_end_in_an_exit_code(case):
    """Any INI file ends in exit 0, 1 or 2, never in an uncaught error, and
    exit 2 prints exactly one error line."""
    experiment, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([experiment, "--config", cfg])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def test_the_tensors_runner_takes_four_batched_jets(tmp_path, monkeypatch):
    """g and C at v and at 2v over all samples: one order-2 and one order-3
    jet of each batch, instead of four jets per sample."""
    calls = []
    plain = dsl.MetricDefinition.jet

    def jet(self, sample, order):
        calls.append((order, len(sample) if isinstance(sample, dsl.SampleBatch) else 1))
        return plain(self, sample, order)

    monkeypatch.setattr(dsl.MetricDefinition, "jet", jet)
    cfg = write_config(tmp_path, TENSORS_CFG)
    assert cli.main(["tensors", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(2, 25), (2, 25), (3, 25), (3, 25)]
