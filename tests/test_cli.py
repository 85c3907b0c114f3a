import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

from gnsbound.cli import main
from gnsbound.optimizer import certificate_from_dict

AGMON_FLAGS = [
    "--d", "1", "--s", "0", "--p", "inf",
    "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2",
]
FAST = ["--starts", "4", "--samples", "16"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_writes_certificate(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(
            ["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "theta = 0.5" in out
        doc = json.loads(out_path.read_text())
        cert = certificate_from_dict(doc)
        assert cert.value >= 1.0
        assert cert.margins.ok

    def test_manifest_line(self, tmp_path, capsys):
        code, out, _ = run(
            ["bound", *AGMON_FLAGS, *FAST, "--seed", "1"], capsys
        )
        assert code == 0
        manifest = json.loads(out.strip().splitlines()[-1])
        assert manifest["command"] == "bound"
        assert manifest["parameters"]["seed"] == "1"
        assert "seed" not in manifest  # the search is seedless
        assert "timestamp" in manifest

    def test_byte_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                ["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_search_flags_and_seed_variable_are_ignored(self, tmp_path, capsys, monkeypatch):
        # --starts, --samples and --seed still parse, GNS_SEED is no longer
        # read, and none of them changes the certificate
        flags = ["bound", "--d", "1", "--s", "0.5", "--s1", "1", "--s2", "0",
                 "--p", "4", "--p1", "2", "--p2", "2"]
        payloads = []
        for extra, env_seed in (([], None), (["--seed", "7", *FAST], None), ([], "abc")):
            if env_seed is not None:
                monkeypatch.setenv("GNS_SEED", env_seed)
            path = tmp_path / f"{len(payloads)}.json"
            code, _, err = run([*flags, *extra, "--json-out", str(path)], capsys)
            assert code == 0 and err == ""
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_ignored_flags_are_hidden_from_help(self, capsys):
        assert main(["bound", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--json-out" in out
        assert not any(flag in out for flag in ("--starts", "--samples", "--seed"))

    def test_inadmissible_exit_2(self, capsys):
        code, _, err = run(
            ["bound", "--d", "1", "--s", "1", "--p", "2",
             "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"],
            capsys,
        )
        assert code == 2
        assert "inadmissible" in err

    def test_bad_exponent_exit_2(self, capsys):
        code, _, err = run(
            ["bound", "--d", "1", "--s", "0", "--p", "0.5",
             "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"],
            capsys,
        )
        assert code == 2

    def test_search_exhaustion_exit_4(self, capsys):
        # admissible and not proven empty, but no sampled point is feasible
        code, out, err = run(
            ["bound", "--d", "1", "--s", "0.5", "--s1", "0", "--s2", "1",
             "--p", "4", "--p1", "inf", "--p2", "2", *FAST],
            capsys,
        )
        assert code == 4
        assert out == ""
        assert err.startswith("search exhausted:") and len(err.strip().splitlines()) == 1
        assert "corner search" in err and "separable search" in err

    def test_endpoint_up_to_rounding_exit_2(self, capsys):
        # X = X1 = 2/3 exactly; rounding leaves a positive upper margin
        third = repr(1.0 / 3.0)
        code, out, err = run(
            ["bound", "--d", "1", "--s", "0", "--s1", third, "--s2", third,
             "--p", "3/2", "--p1", "1", "--p2", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("inadmissible parameters:")
        assert err.endswith("margins (0.75, 1.1102230246251565e-16)\n")
        # theta = 5e-301: both margins are positive, and 1 - theta rounds to 1
        code, out, err = run(
            ["bound", "--d", "1", "--s", "0", "--s1", "1e300", "--s2", "0",
             "--p", "inf", "--p1", "2", "--p2", "2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("inadmissible parameters:")
        assert "theta rounds to 0 or 1" in err
        assert err.endswith("margins (0.5, 1e+300)\n")

    def test_structurally_empty_exit_2(self, capsys):
        code, _, err = run(
            ["bound", "--d", "1", "--s", "0", "--s1", "-1", "--s2", "1",
             "--p", "1", "--p1", "2", "--p2", "2"],
            capsys,
        )
        assert code == 2
        assert "structurally empty" in err

    def test_fraction_exponent_parsing(self, tmp_path, capsys):
        code, out, _ = run(
            ["bound", "--d", "1", "--s", "0.5", "--p", "4/1",
             "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2", *FAST, "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "theta = 0.75" in out
        # an order a/b is rounded once, to the float a decimal input gives
        paths = [tmp_path / "fraction.json", tmp_path / "decimal.json"]
        for s2, path in zip(("1/3", "0.3333333333333333"), paths):
            code, _, _ = run(
                ["bound", "--d", "1", "--s", "0", "--p", "inf", "--s1", "1", "--p1", "2",
                 "--s2", s2, "--p2", "2", "--json-out", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestParabolicCommand:
    def test_diagonal_contraction(self, capsys):
        code, out, _ = run(["parabolic", "--d", "1", "--s", "0", "--r", "2", "--p", "2"], capsys)
        assert code == 0
        assert "a_par = 1.0" in out

    def test_diagonal_laplacian(self, capsys):
        code, out, _ = run(["parabolic", "--d", "3", "--s", "2", "--r", "2", "--p", "2"], capsys)
        assert code == 0
        assert float(out.split("=")[1].strip()) == pytest.approx(3.0, rel=1e-12)

    def test_fraction_order(self, capsys):
        outputs = [
            run(["parabolic", "--d", "1", "--s", s, "--r", "2", "--p", "4", "--t", "2"], capsys)
            for s in ("1/2", "0.5")
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_with_time(self, capsys):
        code, out, _ = run(
            ["parabolic", "--d", "3", "--s", "2", "--r", "2", "--p", "2", "--t", "2"],
            capsys,
        )
        assert code == 0
        assert "bound_at_time" in out
        assert float(out.splitlines()[1].split("=")[1]) == pytest.approx(1.5, rel=1e-12)

    def test_sobolev_endpoint_exit_2(self, capsys):
        code, _, err = run(["parabolic", "--d", "2", "--s", "-1", "--r", "1", "--p", "1"], capsys)
        assert code == 2
        assert "Sobolev" in err


class TestVerifyCommands:
    def test_verify_parabolic_small(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            ["verify", "parabolic", "--d", "1", "--grid", "small",
             "--csv-out", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert "PASS" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("d,s,r,p,t,width")
        assert len(lines) > 10

    def test_csv_byte_determinism(self, tmp_path, capsys):
        payloads = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(
                ["verify", "parabolic", "--d", "1", "--grid", "small",
                 "--widths", "1", "--csv-out", str(path)],
                capsys,
            )
            assert code == 0
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_verify_gns_roundtrip(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(
            ["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(cert_path)],
            capsys,
        )
        assert code == 0
        csv_path = tmp_path / "gns.csv"
        code, out, _ = run(
            ["verify", "gns", "--cert", str(cert_path), "--widths", "1",
             "--dilations", "1", "--csv-out", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert "PASS" in out
        assert len(csv_path.read_text().splitlines()) == 4

    def test_verify_parabolic_narrow_gaussian(self, capsys):
        # b = 2500: the far-field coefficients once overflowed to nan here
        code, out, _ = run(["verify", "parabolic", "--d", "1", "--widths", "0.0001"], capsys)
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "width, want", [("1e200", 0), ("1e215", 3), ("1e217", 3), ("1e-300", 3)]
    )
    def test_verify_parabolic_extreme_width(self, width, want, capsys):
        # for d = 3, r = 1 the closed-form Gaussian norm is subnormal from
        # width ~9e205, 0.0 from ~2e216 and overflows at 1e-300: an accuracy
        # failure, not a violation
        code, out, err = run(["verify", "parabolic", "--d", "3", "--widths", width], capsys)
        assert code == want
        if want == 0:
            assert "PASS" in out
        else:
            assert "FAIL" not in out and len(err.strip().splitlines()) == 1

    def test_verify_gns_sixteen_dilations(self, tmp_path, capsys):
        # dilations 2^-16 .. 2^16 on a fractional certificate: the stub and
        # far-field coefficients once overflowed from 2^7 on
        cert_path = tmp_path / "cert.json"
        flags = ["--d", "1", "--s", "0.5", "--s1", "1", "--s2", "0",
                 "--p", "4", "--p1", "2", "--p2", "2"]
        code, _, _ = run(["bound", *flags, *FAST, "--json-out", str(cert_path)], capsys)
        assert code == 0
        csv_path = tmp_path / "gns.csv"
        code, out, _ = run(
            ["verify", "gns", "--cert", str(cert_path), "--widths", "1",
             "--dilations", "16", "--csv-out", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert "PASS" in out
        assert len(csv_path.read_text().splitlines()) == 1 + 33

    def test_verify_gns_malformed_cert(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 1}')
        code, _, err = run(["verify", "gns", "--cert", str(bad)], capsys)
        assert code == 2

    def test_verify_gns_tampered_witness_exit_2(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run(["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(cert_path)], capsys)
        doc = json.loads(cert_path.read_text())
        tampered = tmp_path / "tampered.json"
        edits = [
            (dict(beta1=0.1, sigma=-5.0, value=1e9, margins_ok=True, theta=0.2), "InfeasibleError"),
            # a stored reciprocal outside [0, 1]
            *((dict(r1_recip=text), "OutOfRangeError") for text in ("1.5", "-0.1", "nan")),
        ]
        for edit, error in edits:
            tampered.write_text(json.dumps({**doc, **edit}))
            code, out, err = run(["verify", "gns", "--cert", str(tampered)], capsys)
            assert code == 2
            assert error in err and "PASS" not in out

    def test_verify_gns_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["verify", "gns", "--cert", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_violation_exit_1(self, tmp_path, capsys, monkeypatch):
        # a valid certificate's value cannot be lowered without failing the
        # load, so the measured ratio is raised above it instead
        cert_path = tmp_path / "cert.json"
        run(["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(cert_path)], capsys)
        value = json.loads(cert_path.read_text())["value"]
        monkeypatch.setattr("gnsbound.oracle.gns_ratio", lambda *args: 2.0 * value)
        code, _, err = run(
            ["verify", "gns", "--cert", str(cert_path), "--widths", "1", "--dilations", "0"],
            capsys,
        )
        assert code == 1
        assert "violation" in err


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_widths(self, capsys):
        code, _, err = run(["verify", "parabolic", "--grid", "small", "--widths", "-1"], capsys)
        assert code == 2


@pytest.fixture(scope="module")
def agmon_cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--d", "1", "--s", "0", "--p", "1/0",
         "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"],
        ["bound", "--d", "1", "--s", "0", "--p=-inf",
         "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"],
        ["bound", "--d", "1", "--s", "0", "--p", "inf",
         "--s1", "1", "--p1", "2", "--s2", "1/0", "--p2", "2"],
        ["bound", "--d", "1", "--s", "0", "--p", "inf",
         "--s1", "1" + "0" * 400 + "/1", "--p1", "2", "--s2", "0", "--p2", "2"],
        ["verify", "parabolic", "--grid", "small", "--widths", "inf"],
        ["verify", "parabolic", "--grid", "small", "--widths", "nan"],
        ["verify", "gns", "--cert", "CERT", "--widths", "1,inf"],
        ["verify", "gns", "--cert", "CERT", "--dilations", "1100"],
        ["verify", "gns", "--cert", "CERT", "--widths", "1", "--dilations", "512"],
        ["verify", "gns", "--cert", "CERT", "--widths", "1", "--dilations", "1023"],
        ["parabolic", "--d", "1", "--s", "nan", "--r", "2", "--p", "2"],
        ["parabolic", "--d", "1", "--s", "1/0", "--r", "2", "--p", "2"],
        ["parabolic", "--d", "1", "--s", "0", "--r", "2", "--p", "2", "--t", "inf"],
        ["parabolic", "--d", "1", "--s", "700", "--r", "2", "--p", "2"],
        ["parabolic", "--d", "3", "--s", "0", "--r", "1", "--p", "inf", "--t", "1e300"],
        ["parabolic", "--d", "100000", "--s", "0", "--r", "1", "--p", "2"],
        ["verify", "parabolic", "--d", "7"],
        ["bound", *AGMON_FLAGS, "--json-out", "DIR"],
        ["bound", *AGMON_FLAGS, "--json-out", "DIR/missing/cert.json"],
        ["verify", "parabolic", "--d", "1", "--grid", "small", "--csv-out", "DIR/missing/x.csv"],
        # the bound exp(1737.9...) overflows: main's generic GnsboundError handler
        ["bound", "--d", "1", "--s", "0", "--s1", "5000", "--s2", "0",
         "--p", "inf", "--p1", "2", "--p2", "2"],
        ["bound", "--d", "0", "--s", "0", "--p", "inf",
         "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"],
        ["parabolic", "--d", "0", "--s", "0", "--r", "1", "--p", "2"],
    ],
    ids=[
        "p-1-over-0", "p-minus-inf", "s2-1-over-0", "s1-fraction-overflow", "parabolic-widths-inf",
        "parabolic-widths-nan", "gns-widths-inf", "gns-dilations-1100", "gns-dilations-512",
        "gns-dilations-1023", "parabolic-s-nan", "parabolic-s-1-over-0", "parabolic-t-inf", "parabolic-overflow",
        "parabolic-bound-underflow", "parabolic-a-par-underflow", "verify-parabolic-d-7",
        "bound-json-out-directory", "bound-json-out-missing-dir", "parabolic-csv-out-missing-dir",
        "bound-value-overflow", "bound-d-0", "parabolic-d-0",
    ],
)
def test_bad_input_exits_2_with_one_line(argv, agmon_cert_path, capsys):
    # unwritable output paths are bad input too, though the work is done
    tmp = os.path.dirname(agmon_cert_path)
    argv = [agmon_cert_path if arg == "CERT" else arg.replace("DIR", tmp) for arg in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_dilations_reject_names_width_and_count(agmon_cert_path, capsys):
    code, _, err = run(
        ["verify", "gns", "--cert", agmon_cert_path, "--widths", "1", "--dilations", "512"],
        capsys,
    )
    assert code == 2
    assert "--dilations 512" in err and "width 1.0" in err


def test_dilations_at_the_edge_of_float_range_pass(agmon_cert_path, capsys):
    # width 4^-511 = 2^-1022 is the smallest normal float
    code, out, _ = run(
        ["verify", "gns", "--cert", agmon_cert_path, "--widths", "1", "--dilations", "511"],
        capsys,
    )
    assert code == 0 and "PASS" in out


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter; return its last stdout line as JSON."""
    import gnsbound

    src = os.path.dirname(os.path.dirname(os.path.abspath(gnsbound.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the oracle imports scipy where it integrates, so bound never loads it
    result = _run_fresh(f"""
        import json, sys
        import gnsbound.cli

        def scipy_modules():
            return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

        after_import = scipy_modules()
        bound = gnsbound.cli.main(["bound", *{AGMON_FLAGS!r}])
        after_bound = scipy_modules()
        verify = gnsbound.cli.main(["verify", "parabolic", "--d", "2", "--grid", "small"])
        print(json.dumps([after_import, bound, after_bound, verify]))
    """)
    assert result == [[], 0, [], 0]


def _traced_targets():
    """(module, function) of each entry of TARGETS in perfbench/tracer.py."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_cli_import_loads_every_traced_function():
    # perfbench's tracer rebinds these after importing gnsbound.cli and nothing else
    targets = _traced_targets()
    assert ("oracle", "fractional_heat_norm") in targets
    result = _run_fresh(f"""
        import json, sys
        import gnsbound.cli

        loaded = "gnsbound.oracle" in sys.modules
        missing = [
            f"{{module}}.{{name}}"
            for module, name in {targets!r}
            if not callable(getattr(sys.modules.get(f"gnsbound.{{module}}"), name, None))
        ]
        print(json.dumps([loaded, missing]))
    """)
    assert result == [True, []]


def _scipy_imports():
    """(module, enclosing function, imported name) of each scipy import in the package."""
    import gnsbound

    package = os.path.dirname(os.path.abspath(gnsbound.__file__))
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = [child.module] + [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            found.extend((module, scope, name) for name in names if name.split(".")[0] == "scipy")
            visit(child, module, scope)

    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as handle:
                visit(ast.parse(handle.read()), filename[:-3], None)
    return found


def test_scipy_optimize_and_integrate_stay_out_of_the_package():
    # the lemma checks that used them live in tests/lemmas.py
    imports = _scipy_imports()
    assert ("oracle", "_bessel_j0", "scipy.special") in imports
    assert [entry for entry in imports if entry[2].split(".")[:2] == ["scipy", "optimize"]] == []
    integrate = {
        (module, scope)
        for module, scope, name in imports
        if name.split(".")[:2] == ["scipy", "integrate"]
    }
    assert integrate == {("oracle", "frequency_space_l2_norm")}
