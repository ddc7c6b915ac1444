import json
import math

import numpy as np
import pytest

from partmix.cli import main
from partmix.serialize import (
    canonical_dumps,
    distribution_to_json,
    spectrum_to_json,
    unitary_to_json,
)
from partmix.spectrum import spectrum_of
from partmix.states import obb_state, triad_phase_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_triad_contains_expected_value(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--family", "triad", "--phi", "1.5707963267948966"
    )
    assert code == 0
    doc = json.loads(out)
    values = {tuple(rec["sigma"]): complex(rec["re"], rec["im"]) for rec in doc["values"]}
    assert values[(1, 2, 0)] == pytest.approx(0.25 + 0.25j, abs=1e-12)


def test_cli_spectrum_is_byte_identical_to_library(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "obb", "--n", "3", "--x", "0.5")
    assert code == 0
    doc = json.loads(out)
    lib = spectrum_to_json(spectrum_of(obb_state(3, 0.5)))
    # identical canonical serialization of the payload fields
    assert canonical_dumps({"n": doc["n"], "values": doc["values"]}) == canonical_dumps(lib)
    code2, out2, _ = run(capsys, "spectrum", "--family", "obb", "--n", "3", "--x", "0.5")
    assert out2 == out


def test_classify_obb(capsys):
    code, out, _ = run(capsys, "classify", "--family", "obb", "--n", "3", "--x", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True
    weights = {tuple(map(tuple, rec["partition"])): rec["weight"] for rec in doc["distribution"]}
    assert weights[((0, 1, 2),)] == pytest.approx(0.125, abs=1e-12)
    assert weights[((0,), (1,), (2,))] == pytest.approx(0.5, abs=1e-12)
    assert doc["negativity"] == pytest.approx(0.0, abs=1e-12)


def test_classify_triad_not_member(capsys):
    code, out, _ = run(capsys, "classify", "--family", "triad", "--phi", "0.7")
    doc = json.loads(out)
    assert code == 0
    assert doc["member"] is False
    assert doc["distribution"] is None


def test_gi_singly_distinguishable(capsys):
    code, out, _ = run(capsys, "gi", "--family", "partition", "--cells", "[[0],[1,2,3]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["gi_part"]["re"] == pytest.approx(0.0, abs=1e-12)
    assert doc["gi_sym"] == pytest.approx(0.25, abs=1e-12)


def test_twirl_and_project_output_spectra(capsys):
    for cmd in ("twirl", "project"):
        code, out, _ = run(capsys, cmd, "--family", "triad", "--phi", "1.0")
        assert code == 0
        doc = json.loads(out)
        values = {tuple(r["sigma"]): complex(r["re"], r["im"]) for r in doc["values"]}
        assert values[(1, 2, 0)] == pytest.approx((1 + math.cos(1.0)) / 4, abs=1e-12)


def test_probability_hom(capsys, tmp_path):
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    upath = tmp_path / "bs.json"
    upath.write_text(json.dumps(unitary_to_json(bs)))
    code, out, _ = run(
        capsys,
        "probability",
        "--family",
        "ideal",
        "--n",
        "2",
        "--unitary",
        str(upath),
        "--outcome",
        "1,1",
    )
    assert code == 0
    assert json.loads(out)["probability"] == pytest.approx(0.0, abs=1e-12)


def test_probability_oracle_method(capsys, tmp_path):
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    upath = tmp_path / "bs.json"
    upath.write_text(json.dumps(unitary_to_json(bs)))
    code, out, _ = run(
        capsys,
        "probability",
        "--family",
        "ideal",
        "--n",
        "2",
        "--unitary",
        str(upath),
        "--outcome",
        "[2,0]",
        "--method",
        "oracle",
    )
    assert code == 0
    assert json.loads(out)["probability"] == pytest.approx(0.5, abs=1e-12)


def test_partition_prob_table_normalizes(capsys):
    code, out, _ = run(
        capsys,
        "partition-prob",
        "--cells",
        "[[0,1],[2]]",
        "--haar",
        "3",
        "--seed",
        "5",
        "--all-outcomes",
    )
    assert code == 0
    table = json.loads(out)["table"]
    assert sum(rec["p"] for rec in table) == pytest.approx(1.0, abs=1e-8)


def test_mitigate_two_photons(capsys, tmp_path):
    x = 0.49
    spec = spectrum_to_json(spectrum_of(obb_state(2, math.sqrt(x))))
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "mitigate", "--spectrum", str(spath))
    assert code == 0
    doc = json.loads(out)
    weights = {tuple(map(tuple, r["partition"])): r["w"] for r in doc["weights"]}
    assert weights[((0, 1),)] == pytest.approx(1 / x, abs=1e-9)
    assert weights[((0,), (1,))] == pytest.approx((x - 1) / x, abs=1e-9)


def test_sample_jsonl_and_seed_determinism(capsys):
    args = [
        "sample",
        "--family",
        "obb",
        "--n",
        "3",
        "--x",
        "0.5",
        "--haar",
        "4",
        "--seed",
        "7",
        "--count",
        "20",
    ]
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 20
    assert all(sum(r) == 3 for r in rows)
    code2, out2, _ = run(capsys, *args)
    assert out2 == out


def test_sample_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        "--family",
        "obb",
        "--n",
        "2",
        "--x",
        "0.9",
        "--haar",
        "3",
        "--seed",
        "1",
        "--count",
        "5",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(len(line.split(",")) == 3 for line in lines)


def test_tomography_scan_csv(capsys):
    code, out, _ = run(
        capsys,
        "tomography",
        "--family",
        "obb",
        "--n",
        "2",
        "--x",
        "0.5",
        "--sigma",
        "[1,0]",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phase,probability"
    assert len(lines) == 1 + 5  # default scan length 4k+1 with one cycle


def test_tomography_full_matches_spectrum(capsys):
    code, out, _ = run(capsys, "tomography", "--family", "triad", "--phi", "0.4")
    assert code == 0
    doc = json.loads(out)
    direct = spectrum_of(triad_phase_state(0.4))
    for rec in doc["values"]:
        sigma_images = tuple(rec["sigma"])
        from partmix.symgroup import Permutation

        expected = direct.value(Permutation(sigma_images))
        assert complex(rec["re"], rec["im"]) == pytest.approx(expected, abs=1e-6)


def test_obb_cost_command(capsys):
    code, out, _ = run(capsys, "obb-cost", "--n", "10", "--x", "0.5")
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(10 * 1.5**10, rel=1e-12)
    code, out, _ = run(capsys, "obb-cost", "--n", "3", "--x", "0,0.5,1")
    doc = json.loads(out)
    assert [r["cost"] for r in doc["costs"]] == pytest.approx([3.0, 3 * 1.5**3, 24.0])


def test_obb_cost_csv(capsys):
    code, out, _ = run(capsys, "obb-cost", "--n", "3", "--x", "0,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,cost"
    assert len(lines) == 3


def test_probability_with_remapped_inputs(capsys, tmp_path):
    rng = np.random.default_rng(14)
    from helpers import random_unitary
    from partmix.interference import probability_from_spectrum
    from partmix.spectrum import ideal_spectrum

    U = random_unitary(rng, 4)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(unitary_to_json(U)))
    code, out, _ = run(
        capsys,
        "probability",
        "--family",
        "ideal",
        "--n",
        "2",
        "--unitary",
        str(upath),
        "--outcome",
        "0,1,0,1",
        "--input-modes",
        "1,3",
    )
    assert code == 0
    expected = probability_from_spectrum(U, ideal_spectrum(2), (0, 1, 0, 1), input_modes=[1, 3])
    assert json.loads(out)["probability"] == pytest.approx(expected, abs=1e-12)


def test_out_of_range_input_modes_exit_2(capsys, tmp_path):
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(unitary_to_json(np.eye(4))))
    for modes, method in (("-1,0", "spectrum"), ("0,9", "spectrum"), ("-1,0", "oracle")):
        code, _, err = run(
            capsys,
            "probability",
            "--family",
            "ideal",
            "--n",
            "2",
            "--unitary",
            str(upath),
            "--outcome",
            "0,1,0,1",
            f"--input-modes={modes}",
            "--method",
            method,
        )
        assert code == 2
        assert "input modes" in json.loads(err)["error"]["message"]


def test_tomography_export_unitary(capsys, tmp_path):
    from partmix.serialize import unitary_from_json

    target = tmp_path / "c_sigma.json"
    code, out, _ = run(
        capsys,
        "tomography",
        "--family",
        "ideal",
        "--n",
        "2",
        "--sigma",
        "[1,0]",
        "--export-unitary",
        str(target),
    )
    assert code == 0
    U = unitary_from_json(json.loads(target.read_text()))
    assert U.shape == (4, 4)


def test_classify_reports_class_reduced_spectrum(capsys):
    code, out, _ = run(capsys, "classify", "--family", "obb", "--n", "2", "--x", "0.6")
    assert code == 0
    doc = json.loads(out)
    classes = {tuple(map(tuple, r["partition"])): r["re"] for r in doc["classes"]}
    assert classes[((0, 1),)] == pytest.approx(0.36, abs=1e-12)  # x^2 on the swap class
    assert classes[((0,), (1,))] == pytest.approx(1.0, abs=1e-12)


def test_unknown_subcommand_exits_64(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "usage" in err.lower()


def test_missing_state_source_exits_64(capsys):
    code, _, err = run(capsys, "spectrum")
    assert code == 64


def test_malformed_json_exits_2_with_pointer(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "spectrum", "--state", str(bad))
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["type"] == "schema"
    assert "char" in doc["error"]["path"]


def test_repeated_sigma_in_spectrum_file_exits_2(capsys, tmp_path):
    doc = spectrum_to_json(spectrum_of(obb_state(2, 0.7)))
    doc["values"].append({"sigma": [0, 1], "re": 0.2, "im": 0.0})  # identity again
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(doc))
    for argv in (
        ["classify", "--spectrum", str(spath)],
        ["probability", "--spectrum", str(spath), "--haar", "2", "--outcome", "1,1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["path"] == "/values/2/sigma"


def test_sample_bad_input_modes_exit_2(capsys):
    base = ["sample", "--family", "obb", "--n", "2", "--x", "0.5", "--haar", "3", "--count", "5"]
    for modes in ("-1,0", "0,9", "0,0"):
        code, out, err = run(capsys, *base, f"--input-modes={modes}")
        assert code == 2 and out == ""
        assert "input modes" in json.loads(err)["error"]["message"]


def test_negative_count_and_threads_exit_2(capsys, monkeypatch):
    base = ["sample", "--family", "obb", "--n", "2", "--x", "0.5", "--haar", "3"]
    for extra in (["--count", "-3"], ["--count", "5", "--threads", "-4"], ["--count", "5", "--threads", "0"]):
        code, out, err = run(capsys, *base, *extra)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"
    monkeypatch.setenv("PARTMIX_THREADS", "-4")
    code, out, err = run(capsys, *base, "--count", "5")
    assert code == 2 and out == ""
    assert "threads" in json.loads(err)["error"]["message"]
    code, out, _ = run(capsys, *base, "--count", "5", "--threads", "2")  # the flag wins
    assert code == 0 and len(out.strip().splitlines()) == 5


def test_non_unitary_matrix_rejected(capsys, tmp_path):
    doc = unitary_to_json(np.eye(2) * 1.5)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        "probability",
        "--family",
        "ideal",
        "--n",
        "2",
        "--unitary",
        str(upath),
        "--outcome",
        "1,1",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "schema"
    assert "defect" in payload["error"]["message"]


def test_schema_error_path_points_into_document(capsys, tmp_path):
    state = {"photons": [{"ket": [[1.0, 0.0]]}, {"ket": "oops"}]}
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    code, _, err = run(capsys, "spectrum", "--state", str(spath))
    assert code == 2
    assert json.loads(err)["error"]["path"] == "/photons/1/ket"


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "gi", "--family", "obb", "--n", "2", "--x", "0.5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["gi_part"]["re"] == pytest.approx(0.25, abs=1e-12)


def test_distribution_file_input(capsys, tmp_path):
    from partmix.states import obb_partition_distribution

    dist = obb_partition_distribution(2, 0.5)
    dpath = tmp_path / "dist.json"
    dpath.write_text(json.dumps(distribution_to_json(dist)))
    code, out, _ = run(
        capsys,
        "sample",
        "--distribution",
        str(dpath),
        "--haar",
        "2",
        "--seed",
        "3",
        "--count",
        "4",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_haar_experiment_command(capsys):
    code, out, _ = run(
        capsys,
        "haar-experiment",
        "--family",
        "obb",
        "--n",
        "2",
        "--x",
        "0.5",
        "--modes",
        "8",
        "--trials",
        "1000",
        "--seed",
        "11",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mean_sq_raw"] == pytest.approx(doc["mean_sq_twirled"], rel=1e-9)
