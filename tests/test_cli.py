import hashlib
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


@pytest.mark.parametrize(
    "message, variant, histogram",
    [
        ("2", "measure", {"0": 0, "1": 0, "2": 97512, "aborted": 2488, "undetected": 0}),
        ("2", "no-measure", {"0": 1211, "1": 0, "2": 98789, "aborted": 0, "undetected": 0}),
        ("0", "measure", {"0": 100000, "1": 0, "2": 0, "aborted": 0, "undetected": 0}),
        ("0", "no-measure", {"0": 100000, "1": 0, "2": 0, "aborted": 0, "undetected": 0}),
        ("1", "measure", {"0": 0, "1": 100000, "2": 0, "aborted": 0, "undetected": 0}),
        ("1", "no-measure", {"0": 0, "1": 100000, "2": 0, "aborted": 0, "undetected": 0}),
    ],
)
def test_simulate_seed_to_histogram_golden(capsys, message, variant, histogram):
    # Pins the seed -> histogram contract: a new sampler must give these bytes.
    code, out, _ = run(
        capsys, "simulate", "--message", message, "--trials", "100000", "--seed", "12345",
        "--variant", variant,
    )
    assert code == 0
    assert json.loads(out)["outcome_histogram"] == histogram


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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--d", "3"), "f0bce42268227e4a7ad247e3c1f6e44508882a6d42a484ff26340452afd601af"),
        (("--d", "4", "--format", "json"),
         "9d6586197ad98cfe4ac017767031989f9d529b1cf92e270b901435a524ba3a34"),
        (("--d", "3", "--lambda0", "1/3,3/8,0.4"),
         "396c7ea053cb3607ea0abc855ed87d82546a77af287087cb805ada894fc2d2de"),
    ],
)
def test_bounds_output_golden(capsys, argv, digest):
    # bounds is plain float arithmetic rounded by sig15, so its bytes hold on any platform.
    code, out, _ = run(capsys, "bounds", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ``identities_suite`` takes no seed, so every seed prints these lines.
VERIFY_IDENTITIES_LINES = (
    "PASS identities:hypotheses-gram defect=6.661e-16 tol=1.000e-09\n"
    "PASS identities:cross-column defect=0.000e+00 tol=1.000e-09\n"
    "PASS identities:row-sum defect=0.000e+00 tol=1.000e-09\n"
    "PASS identities:row-gram defect=2.541e-33 tol=1.000e-09\n"
    "PASS identities:terminal-ratio-sum defect=0.000e+00 tol=1.000e-09\n"
    "PASS identities:completeness defect=2.220e-16 tol=1.000e-09\n"
    "PASS identities:case-tag-is-balanced defect=0.000e+00 tol=0.000e+00\n"
    "PASS identities:unbalanced-case-tag defect=0.000e+00 tol=0.000e+00\n"
    "PASS identities:unbalanced-identities defect=2.220e-16 tol=1.000e-09\n"
    "PASS identities:uniformity-witness defect=0.000e+00 tol=1.000e-12\n"
    "PASS identities:uniformity-flag defect=0.000e+00 tol=0.000e+00\n"
)


@pytest.mark.parametrize(
    "argv, head, tail",
    [
        (
            [],
            (
                "PASS dilation:dilation-unitarity defect=8.882e-16 tol=1.000e-10\n"
                "PASS dilation:partial-trace-agreement defect=1.113e-16 tol=1.000e-12\n"
                "PASS orthogonalize:lifted-overlap defect=3.535e-16 tol=1.000e-10\n"
                "PASS orthogonalize:channel-action-deviation defect=1.689e-16 tol=1.000e-10\n"
                "PASS orthogonalize:quadratic-residual defect=5.843e-16 tol=1.000e-12\n"
                "PASS independence:lifted-gram-rank-mismatches defect=0.000e+00 tol=0.000e+00\n"
            ),
            "PASS containment:containment-residual defect=2.905e-17 tol=1.000e-09\n",
        ),
        (
            ["--seed", "1"],
            (
                "PASS dilation:dilation-unitarity defect=6.661e-16 tol=1.000e-10\n"
                "PASS dilation:partial-trace-agreement defect=1.241e-16 tol=1.000e-12\n"
                "PASS orthogonalize:lifted-overlap defect=2.484e-16 tol=1.000e-10\n"
                "PASS orthogonalize:channel-action-deviation defect=1.667e-16 tol=1.000e-10\n"
                "PASS orthogonalize:quadratic-residual defect=4.600e-16 tol=1.000e-12\n"
                "PASS independence:lifted-gram-rank-mismatches defect=0.000e+00 tol=0.000e+00\n"
            ),
            "PASS containment:containment-residual defect=2.664e-17 tol=1.000e-09\n",
        ),
        (
            ["--seed", "1099511627779"],
            (
                "PASS dilation:dilation-unitarity defect=6.661e-16 tol=1.000e-10\n"
                "PASS dilation:partial-trace-agreement defect=2.231e-16 tol=1.000e-12\n"
                "PASS orthogonalize:lifted-overlap defect=2.915e-16 tol=1.000e-10\n"
                "PASS orthogonalize:channel-action-deviation defect=1.132e-16 tol=1.000e-10\n"
                "PASS orthogonalize:quadratic-residual defect=1.161e-15 tol=1.000e-12\n"
                "PASS independence:lifted-gram-rank-mismatches defect=0.000e+00 tol=0.000e+00\n"
            ),
            "PASS containment:containment-residual defect=2.577e-17 tol=1.000e-09\n",
        ),
    ],
)
def test_verify_output_golden(capsys, argv, head, tail):
    # Pins ``verify``'s bytes: the drawn configurations and every printed
    # defect.  The defects below 1e-14 are LAPACK and BLAS rounding, recorded
    # with numpy 2.4's OpenBLAS on x86-64; another build may round otherwise.
    code, out, _ = run(capsys, "verify", "--suite", "all", *argv)
    assert code == 0
    assert out == head + VERIFY_IDENTITIES_LINES + tail


def test_bounds_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "bounds", "--d", "3", "--lambda0", "0.5")
    assert code == 1
    assert "outside" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--d", "0"), "--d must be >= 2, got 0"),
        (("bounds", "--d", "1"), "--d must be >= 2, got 1"),
        (("bounds", "--d", "2", "--points", "0"), "--points must be >= 1, got 0"),
        (("bounds", "--d", "2", "--lambda0", ","), "--lambda0 ',' lists no values"),
        (("bounds", "--d", "2", "--lambda0", "1/0"), "bad --lambda0 '1/0': Fraction(1, 0)"),
        (("verify", "--suite", "identities", "--d", "0"),
         "uniform_spectrum: qudit dimension must be >= 2, got 0"),
    ],
)
def test_bounds_and_verify_reject_bad_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert (doc["schema"], doc["kind"], doc["error"]) == ("densecode/1", "error", message)


def test_search_rejects_negative_restart_budget(capsys):
    code, out, err = run(
        capsys, "search", "--spectrum", "0.35,0.33,0.32", "--count", "3", "--max-iters", "-3"
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "search_message_set: max_iters must be positive"


def test_search_fails_for_d2_minus_1_messages(capsys):
    # No 8 unitary messages are distinguishable on this qutrit state; every
    # restart ends on the search's progress rule.
    code, out, err = run(capsys, "search", "--spectrum", "0.35,0.33,0.32", "--count", "8")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "no certified message set of size 8 found after 20 restarts",
        "kind": "error",
        "schema": "densecode/1",
    }


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
    code, _, err = run(capsys, "--tol-equality", "1e-30", "example-d2")
    assert code == 1  # nothing is exact to 1e-30
    assert tolerances.get() == before
    code, _, err = run(capsys, "--tol-nonsense", "1", "example-d2")
    assert code == 1
    assert "unknown tolerance" in json.loads(err)["error"]


def test_tolerance_override_is_scoped_to_one_call(capsys):
    import densecode.tolerances as tolerances

    before = tolerances.get()
    code, _, _ = run(capsys, "--tol-equality", "1e-30", "example-d2")
    assert code == 1
    assert tolerances.get() == before
    with pytest.raises(SystemExit):
        main(["--tol-equality", "1e-30", "--help"])
    assert tolerances.get() == before


@pytest.mark.parametrize("value", ("nan", "inf", "-1"))
def test_tolerance_override_refuses_non_finite_and_negative(capsys, value):
    import densecode.tolerances as tolerances

    before = tolerances.get()
    code, out, err = run(capsys, "bundle", "--spectrum", "0.6,0.4", "--tol-bundle", value)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert (doc["schema"], doc["kind"]) == ("densecode/1", "error")
    assert doc["error"] == f"tolerance bundle must be finite and >= 0, got {float(value)!r}"
    assert tolerances.get() == before
    with pytest.raises(ValueError, match="tolerance bundle must be finite"):
        with tolerances.using(bundle=float(value)):
            pass
    assert tolerances.get() == before


def test_unreachable_redraw_threshold_is_an_error_document(capsys):
    code, out, err = run(capsys, "bundle", "--spectrum", "0.6,0.4", "--tol-completion_redraw", "1e9")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert (doc["schema"], doc["kind"]) == ("densecode/1", "error")
    assert "completion_redraw = 1e+09" in doc["error"]


def test_malformed_messages_file_is_an_error_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "message-set", "d": 2, "unitaries": [[[1, 0]]]}))
    code, out, err = run(capsys, "bundle", "--spectrum", "0.6,0.4", "--messages", str(bad))
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert (doc["schema"], doc["kind"]) == ("densecode/1", "error")
    assert "field 'unitaries'" in doc["error"]


@pytest.mark.parametrize(
    "unitaries, message",
    [
        # A 2x2 identity, then a 1x1 matrix: ragged, so no (count, d, d) stack.
        ([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]], "UnitaryMessageSet: operator shape does not match d"),
        ([], "need exactly d^2-2 = 2 messages, got 0"),
    ],
)
def test_ragged_or_empty_messages_file_is_an_error_document(capsys, tmp_path, unitaries, message):
    path = tmp_path / "msgs.json"
    path.write_text(json.dumps({"kind": "message-set", "d": 2, "unitaries": unitaries}))
    code, out, err = run(capsys, "bundle", "--spectrum", "0.6,0.4", "--messages", str(path))
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert (doc["schema"], doc["kind"], doc["error"]) == ("densecode/1", "error", message)


def test_spectrum_sum_error_names_a_plain_float(capsys):
    code, out, err = run(capsys, "bundle", "--spectrum", "0.6,0.5")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "SchmidtSpectrum: coefficients sum to 1.1, not 1"
