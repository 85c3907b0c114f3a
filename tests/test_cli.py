import json

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
        assert manifest["seed"] == 1
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

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        monkeypatch.setenv("GNS_SEED", "42")
        code, _, _ = run(["bound", *AGMON_FLAGS, *FAST, "--json-out", str(paths[0])], capsys)
        assert code == 0
        monkeypatch.delenv("GNS_SEED")
        code, _, _ = run(
            ["bound", *AGMON_FLAGS, *FAST, "--seed", "42", "--json-out", str(paths[1])],
            capsys,
        )
        assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_manifest_echoes_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GNS_SEED", "7")
        code, out, _ = run(["bound", *AGMON_FLAGS, *FAST], capsys)
        assert code == 0
        manifest = json.loads(out.strip().splitlines()[-1])
        assert manifest["seed"] == 7

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
        assert "corner search" in err and "multistart" in err

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

    def test_structurally_empty_exit_2(self, capsys):
        code, _, err = run(
            ["bound", "--d", "1", "--s", "0", "--s1", "-1", "--s2", "1",
             "--p", "1", "--p1", "2", "--p2", "2"],
            capsys,
        )
        assert code == 2
        assert "structurally empty" in err

    def test_fraction_exponent_parsing(self, capsys):
        code, out, _ = run(
            ["bound", "--d", "1", "--s", "0.5", "--p", "4/1",
             "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2", *FAST, "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "theta = 0.75" in out


class TestParabolicCommand:
    def test_diagonal_contraction(self, capsys):
        code, out, _ = run(["parabolic", "--d", "1", "--s", "0", "--r", "2", "--p", "2"], capsys)
        assert code == 0
        assert "a_par = 1.0" in out

    def test_diagonal_laplacian(self, capsys):
        code, out, _ = run(["parabolic", "--d", "3", "--s", "2", "--r", "2", "--p", "2"], capsys)
        assert code == 0
        assert float(out.split("=")[1].strip()) == pytest.approx(3.0, rel=1e-12)

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
    "argv, env_seed",
    [
        (["bound", *AGMON_FLAGS, "--starts", "0"], None),
        (["bound", *AGMON_FLAGS, "--samples", "0"], None),
        (["bound", *AGMON_FLAGS, *FAST, "--seed", "-1"], None),
        (["bound", *AGMON_FLAGS, *FAST], "abc"),
        (["bound", "--d", "1", "--s", "0", "--p", "1/0",
          "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"], None),
        (["bound", "--d", "1", "--s", "0", "--p=-inf",
          "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2"], None),
        (["verify", "parabolic", "--grid", "small", "--widths", "inf"], None),
        (["verify", "parabolic", "--grid", "small", "--widths", "nan"], None),
        (["verify", "gns", "--cert", "CERT", "--widths", "1,inf"], None),
        (["verify", "gns", "--cert", "CERT", "--dilations", "1100"], None),
        (["parabolic", "--d", "1", "--s", "nan", "--r", "2", "--p", "2"], None),
        (["parabolic", "--d", "1", "--s", "0", "--r", "2", "--p", "2", "--t", "inf"], None),
        (["parabolic", "--d", "1", "--s", "700", "--r", "2", "--p", "2"], None),
    ],
    ids=[
        "starts-0", "samples-0", "seed-negative", "env-seed-abc", "p-1-over-0",
        "p-minus-inf", "parabolic-widths-inf", "parabolic-widths-nan",
        "gns-widths-inf", "gns-dilations-1100", "parabolic-s-nan", "parabolic-t-inf",
        "parabolic-overflow",
    ],
)
def test_bad_input_exits_2_with_one_line(argv, env_seed, agmon_cert_path, capsys, monkeypatch):
    if env_seed is not None:
        monkeypatch.setenv("GNS_SEED", env_seed)
    argv = [agmon_cert_path if arg == "CERT" else arg for arg in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
