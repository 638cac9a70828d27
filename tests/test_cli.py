"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from conftest import GOLDEN_C0, GOLDEN_C1, GOLDEN_PARAMS
from scpkit.cli import main
from scpkit.verify import CATALOG_RECIPES

DATA = Path(__file__).parent / "data"


@pytest.fixture
def golden_params_file(tmp_path: Path) -> Path:
    path = tmp_path / "params.json"
    obj = {
        "q": GOLDEN_PARAMS["q"],
        "m": GOLDEN_PARAMS["m"],
        "t": GOLDEN_PARAMS["t"],
        "pi": list(GOLDEN_PARAMS["perm"]),
        "d": list(GOLDEN_PARAMS["d"]),
        "g": list(GOLDEN_PARAMS["g"]),
    }
    path.write_text(json.dumps(obj))
    return path


def test_construct_golden_pair(tmp_path, golden_params_file):
    out = tmp_path / "pair.json"
    assert main(["construct", "--params", str(golden_params_file), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert tuple(obj["c0"]["entries"]) == GOLDEN_C0
    assert tuple(obj["c1"]["entries"]) == GOLDEN_C1
    assert obj["length"] == 27
    assert obj["zcz"] == 6
    assert obj["sparsity"] == "19/27"


def test_construct_inline_flags(tmp_path):
    out = tmp_path / "pair.json"
    rc = main(
        [
            "construct",
            "--q", "4", "--m", "5", "--t", "2",
            "--perm", "1,3,2,4,5", "--d", "0,0", "--g", "0,0,3,0,0,0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert tuple(json.loads(out.read_text())["c0"]["entries"]) == GOLDEN_C0


def test_construct_restricted_flags(tmp_path):
    out = tmp_path / "pair.json"
    assert main(["construct", "--q", "4", "--m", "5", "--restricted", "1,3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["length"] == 27


def test_output_is_deterministic(tmp_path, golden_params_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["construct", "--params", str(golden_params_file), "--out", str(a)])
    main(["construct", "--params", str(golden_params_file), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_constructed_pair(tmp_path, golden_params_file):
    pair = tmp_path / "pair.json"
    report = tmp_path / "report.json"
    main(["construct", "--params", str(golden_params_file), "--out", str(pair)])
    assert main(["verify", str(pair), "--out", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["pair"]["passed"] is True
    assert obj["pair"]["measured_zcz"] == 6


def test_verify_corrupted_pair_names_condition(tmp_path, golden_params_file):
    pair = tmp_path / "pair.json"
    report = tmp_path / "report.json"
    main(["construct", "--params", str(golden_params_file), "--out", str(pair)])
    obj = json.loads(pair.read_text())
    obj["c0"]["entries"][2] = (obj["c0"]["entries"][2] + 2) % 4
    pair.write_text(json.dumps(obj))
    assert main(["verify", str(pair), "--out", str(report)]) == 1
    failed = [
        c for c in json.loads(report.read_text())["pair"]["claims"] if not c["passed"]
    ]
    assert failed
    assert all(c["first_failure"] is not None for c in failed)
    assert any(c["condition"] == "crosscorrelation-zone" for c in failed)


def test_mate_roundtrip(tmp_path, golden_params_file):
    pair = tmp_path / "pair.json"
    mates = tmp_path / "mate.json"
    main(["construct", "--params", str(golden_params_file), "--out", str(pair)])
    assert main(["mate", "--params", str(golden_params_file), "--out", str(mates)]) == 0
    obj = json.loads(mates.read_text())
    assert set(obj) == {"pair", "mate"}
    report = tmp_path / "report.json"
    assert main(["verify", str(pair), "--mate", str(mates), "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["mate"]["passed"] is True
    assert rep["mate_as_pair"]["passed"] is True


def test_correlate_csv(tmp_path, golden_params_file):
    pair = tmp_path / "pair.json"
    prof = tmp_path / "profiles.csv"
    main(["construct", "--params", str(golden_params_file), "--out", str(pair)])
    assert main(["correlate", str(pair), "--out", str(prof)]) == 0
    rows = list(csv.DictReader(prof.open()))
    names = {r["profile"] for r in rows}
    assert names == {"auto_c0", "auto_c1", "cross_c0_c1", "aacs"}
    assert len(rows) == 4 * (2 * 27 - 1)
    by_key = {(r["profile"], int(r["u"])): r for r in rows}
    peak = by_key[("aacs", 0)]
    assert abs(float(peak["re"]) - 16.0) < 1e-9
    assert peak["is_exact_zero"] == "0"
    inside = by_key[("cross_c0_c1", 3)]
    assert inside["is_exact_zero"] == "1"
    assert abs(float(inside["magnitude"])) < 1e-9


def test_catalog_matches_fixture(tmp_path):
    out = tmp_path / "catalog.csv"
    assert main(["catalog", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "catalog.csv").read_bytes()


def test_catalog_roundtrip_verifies(tmp_path):
    # construct -> file -> verify for every catalog recipe
    for m, restricted in CATALOG_RECIPES:
        params = tmp_path / "p.json"
        pair = tmp_path / "pair.json"
        params.write_text(json.dumps({"q": 4, "m": m, "restricted": list(restricted)}))
        assert main(["construct", "--params", str(params), "--out", str(pair)]) == 0
        assert main(["verify", str(pair), "--out", str(tmp_path / "r.json")]) == 0


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--q", "2", "--m-max", "2", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("q,m,t,perm,d,g_mode,g,scp_pass")
    assert len(rows) == 1 + 10  # header plus the ten m<=2 cells


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--q", "2", "--m-max", "2", "--seed", "7", "--out", str(a)])
    main(["sweep", "--q", "2", "--m-max", "2", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_invalid_params_named(tmp_path, capsys):
    rc = main(["construct", "--q", "4", "--m", "5", "--t", "1", "--perm", "5,1,2,3,4", "--d", "0"])
    assert rc == 2
    assert "pair constraint violated" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 4,')
    rc = main(["construct", "--params", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line" in err


def test_missing_file(capsys):
    assert main(["verify", "/nonexistent/pair.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_wrong_format_rejected(capsys, golden_params_file):
    # each command writes one format; there is no --format flag to choose it
    for fmt in ("csv", "json"):
        with pytest.raises(SystemExit) as exit_info:
            main(["construct", "--params", str(golden_params_file), "--format", fmt])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_stdout_default(capsys, golden_params_file):
    assert main(["construct", "--params", str(golden_params_file)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["length"] == 27
