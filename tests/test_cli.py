import json

import pytest

from densecode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_d2_passes(capsys):
    code, out, _ = run(capsys, "example-d2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_defect"] < 1e-12
    assert doc["checks"]["p_1"]["expected"] == "2/81"


def test_example_d2_byte_identical(capsys):
    _, out1, _ = run(capsys, "example-d2")
    _, out2, _ = run(capsys, "example-d2")
    assert out1 == out2


def test_bundle_command(capsys):
    code, out, _ = run(capsys, "bundle", "--spectrum", "81/160,79/160")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bundle"
    assert doc["spectrum"]["exact"] == ["81/160", "79/160"]


def test_bundle_closed_form_cross_check(capsys):
    code, out, _ = run(capsys, "bundle", "--spectrum", "0.6,0.4", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["p1"] == pytest.approx(1 / 3, abs=1e-12)


def test_bundle_uniform_spectrum(capsys):
    code, out, _ = run(capsys, "bundle", "--spectrum", "1/2,1/2")
    assert code == 0
    assert json.loads(out)["p1"] == 0.0


def test_bundle_bad_spectrum_fails(capsys):
    code, _, err = run(capsys, "bundle", "--spectrum", "0.9,0.2")
    assert code == 1
    assert "error" in json.loads(err)


def test_bundle_needs_messages_beyond_d2(capsys):
    code, _, err = run(capsys, "bundle", "--spectrum", "0.2,0.2,0.2,0.2,0.2")
    assert code == 1
    assert "message set" in json.loads(err)["error"]


def test_simulate_json_deterministic(capsys):
    args = ("simulate", "--message", "2", "--trials", "300", "--seed", "11")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert sum(doc["outcome_histogram"].values()) == 300


def test_simulate_csv(capsys):
    code, out, _ = run(
        capsys, "simulate", "--message", "0", "--trials", "50", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,count"
    assert "0,50" in lines


def test_simulate_message_out_of_range(capsys):
    code, _, err = run(capsys, "simulate", "--message", "5", "--trials", "10")
    assert code == 1
    assert "out of range" in json.loads(err)["error"]


def test_bounds_csv_rows(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "3", "--lambda0", "1/3,3/8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,lambda0,p1_exact,p1_bound_general,p1_bound_equal_tail"
    last = lines[2].split(",")
    assert float(last[4]) == pytest.approx(0.28125, abs=1e-12)


def test_bounds_d7_row(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "7", "--lambda0", "7/48")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(343 / 4032, abs=1e-12)


def test_bounds_grid_default_50(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 51


def test_bounds_json_format(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--points", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bounds" and len(doc["rows"]) == 3
    assert doc["rows"][0]["lambda0"] == pytest.approx(0.5)


def test_bounds_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "bounds", "--d", "3", "--lambda0", "0.5")
    assert code == 1
    assert "outside" in json.loads(err)["error"]


def test_search_then_bundle(tmp_path, capsys):
    path = tmp_path / "messages.json"
    code, _, _ = run(
        capsys, "search", "--spectrum", "81/160,79/160", "--count", "2",
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "message-set" and doc["pass"] is True
    code, out, _ = run(
        capsys, "bundle", "--spectrum", "81/160,79/160", "--messages", str(path)
    )
    assert code == 0
    assert json.loads(out)["p1"] == pytest.approx(2 / 81, abs=1e-10)


def test_verify_suite_aliases(capsys):
    for suite in ("lemma", "identities", "appendix-c", "support"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


def test_verify_section3_d3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "section-3", "--d", "3")
    assert code == 0
    assert "identities:" in out


def test_tolerance_override_flag(capsys):
    import densecode.tolerances as tolerances

    before = tolerances.get()
    try:
        code, _, err = run(capsys, "--tol-equality", "1e-30", "example-d2")
        assert code == 1  # nothing is exact to 1e-30
    finally:
        tolerances.set_active(before)
    code, _, err = run(capsys, "--tol-nonsense", "1", "example-d2")
    assert code == 1
    assert "unknown tolerance" in json.loads(err)["error"]


def test_tolerance_override_is_scoped_to_one_call(capsys):
    import densecode.tolerances as tolerances

    before = tolerances.get()
    try:
        code, _, _ = run(capsys, "--tol-equality", "1e-30", "example-d2")
        assert code == 1
        assert tolerances.get() == before
        with pytest.raises(SystemExit):
            main(["--tol-equality", "1e-30", "--help"])
        assert tolerances.get() == before
    finally:
        tolerances.set_active(before)
