import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccpt
from ccpt.cli import (EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_USAGE, CsvParseError,
                      _coefficients_json, band_filter, main, read_signal_csv,
                      write_signal_csv)
from ccpt.matrices import FAMILIES
from ccpt.signals import make_x1, make_x2, synthetic_ecg, tone
from ccpt.transform import (CoefficientSet, analyze, coefficients_to_dict, occpt_analysis,
                            synthesize)

from oracles import brute_dft, read_signal_csv_loop


def _write(tmp_path, name, samples):
    path = tmp_path / name
    write_signal_csv(path, samples)
    return str(path)


def test_csv_roundtrip(tmp_path):
    x = np.random.default_rng(0).standard_normal(16)
    path = _write(tmp_path, "x.csv", x)
    np.testing.assert_allclose(read_signal_csv(path), x, atol=1e-11)


def test_csv_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\nnot-a-number\n2.0\n")
    with pytest.raises(Exception) as exc_info:
        read_signal_csv(path)
    assert "3" in str(exc_info.value)
    assert main(["transform", "--input", str(path)]) == EXIT_PARSE


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "NaN", "-Infinity"])
def test_csv_rejects_non_finite_samples(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(f"value\n1.0\n2.0\n{text}\n3.0\n")
    with pytest.raises(CsvParseError, match="non-finite") as exc_info:
        read_signal_csv(path)
    assert exc_info.value.line_no == 4
    commands = {
        "transform": [],
        "periods": ["--strengths-csv", str(tmp_path / "s.csv")],
        "filter-band": ["--fs", "10", "--band", "0:5"],
    }
    for command, extra in commands.items():
        out = tmp_path / f"{command}.out"
        assert main([command, "--input", str(path), "--out", str(out), *extra]) == EXIT_PARSE
        assert not out.exists()
    assert not (tmp_path / "s.csv").exists()


def _read_outcome(reader, path):
    try:
        return reader(path).tolist(), None
    except CsvParseError as exc:
        return None, (str(exc), exc.line_no)


def _non_finite_files():
    for text in ("nan", "inf", "1e999"):
        for k in (1, 2, 4, 5):
            lines = ["value", "1.0", "-2", "3e-3", "4"]
            lines[k - 1] = text
            yield f"{text}-line{k}", "\n".join(lines).encode() + b"\n"


CSV_CASES = {
    "blank-lines": b"value\n1.0\n\n2.0\n   \n\t\n3.0\n",
    "blank-first-line": b"  \n1.0\n2.0\n",
    "header-after-blank": b"\nvalue\n1.0\n",
    "header-again": b"value\n1.0\nvalue\n",
    "upper-header": b"VALUE\n1\n2\n",
    "header-only": b"value\n",
    "header-only-no-newline": b" Value ",
    "empty": b"",
    "blank-only": b"\n\n",
    "no-header": b"1\n2\n3\n",
    "crlf": b"value\r\n1.5\r\n-2\r\n",
    "cr": b"value\r1.5\r-2",
    "no-final-newline": b"value\n1\n2",
    "trailing-blank-lines": b"value\n1\n2\n\n\n",
    "underscore-and-spaces": b"value\n1_000\n 2.5 \n\t-3\t\n",
    "bad-value": b"value\n1.0\n1,2\n3\n",
    "blank-then-nan": b"value\n\nnan\n",
    "bom-header": b"\xef\xbb\xbfvalue\n1.0\n-2\n",
    "bom-bare": b"\xef\xbb\xbf1.0\n-2\n",
    "bom-then-bad": b"\xef\xbb\xbfvalue\n1,2\n",
    "bom-on-line-2": b"value\n\xef\xbb\xbf1.0\n",
    **dict(_non_finite_files()),
}


@pytest.mark.parametrize("content", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_csv_reader_matches_line_loop(tmp_path, content):
    path = tmp_path / "x.csv"
    path.write_bytes(content)
    assert _read_outcome(read_signal_csv, path) == _read_outcome(read_signal_csv_loop, path)


@pytest.mark.parametrize("ending", ["\n\n", "\n \n", "\r\n\r\n"], ids=["lf", "space", "crlf"])
def test_csv_trailing_blank_line_keeps_the_one_pass_read(tmp_path, monkeypatch, ending):
    """A file that ends in a blank line reads as the clean file does, in
    one pass, without the line loop."""
    x = np.random.default_rng(5).standard_normal(64)
    clean = _write(tmp_path, "clean.csv", x)
    want = read_signal_csv(clean)
    text = Path(clean).read_text()
    if ending.startswith("\r"):
        text = text.replace("\n", "\r\n")
    path = tmp_path / "blank.csv"
    path.write_bytes((text.rstrip("\r\n") + ending).encode())

    def loop(path, lines):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr("ccpt.cli._parse_lines", loop)
    np.testing.assert_array_equal(read_signal_csv(path), want)


def _per_line_csv(path, samples):
    with open(path, "w") as fh:
        fh.write("value\n")
        for v in np.asarray(samples):
            fh.write(format(float(v), ".12g") + "\n")


@pytest.mark.parametrize("content", [b"\xef\xbb\xbfvalue\n1.0\n-2.5\n",
                                     b"\xef\xbb\xbf1.0\n-2.5\n"], ids=["header", "bare"])
def test_csv_skips_a_byte_order_mark(tmp_path, content):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark."""
    path = tmp_path / "bom.csv"
    path.write_bytes(content)
    assert read_signal_csv(path).tolist() == [1.0, -2.5]
    out = tmp_path / "coeffs.json"
    assert main(["transform", "--input", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["N"] == 2


@pytest.mark.parametrize("length", [625, 4096])
def test_write_signal_csv_matches_per_line_writer(tmp_path, length):
    x = synthetic_ecg(length=length).samples
    write_signal_csv(tmp_path / "a.csv", x)
    _per_line_csv(tmp_path / "b.csv", x)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_write_signal_csv_special_values(tmp_path):
    x = [-0.0, 5e-324, 1e300, 123456789012.5, 1e-5, 2]
    for samples in (x, [], [7.0]):
        write_signal_csv(tmp_path / "a.csv", samples)
        _per_line_csv(tmp_path / "b.csv", samples)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # a nan or an infinity is refused, and no file is written
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(FloatingPointError, match="^samples are not finite$"):
            write_signal_csv(tmp_path / "c.csv", [*x, bad])
        assert not (tmp_path / "c.csv").exists()


def _dumps(c):
    return json.dumps(coefficients_to_dict(c), sort_keys=True, indent=2)


@pytest.mark.parametrize("family", FAMILIES)
def test_coefficients_json_equals_json_dumps(family):
    rng = np.random.default_rng(11)
    for N in (1, 2, 3, 7, 8, 12, 54, 625, 1024, 4096):
        x = rng.standard_normal(N)
        c = analyze(x, family)
        assert _coefficients_json(c) == _dumps(c), N
        c = analyze(x + 1j * rng.standard_normal(N), family)
        assert _coefficients_json(c) == _dumps(c), N
    special = np.array([-0.0, 5e-324, 1.0, 1e300, -2.5, 0.1, -1e-300, 7.0])
    mixed = np.empty(8, dtype=complex)
    mixed.real, mixed.imag = special, special[::-1]
    for flat in (special, mixed, np.arange(8)):
        c = CoefficientSet(N=8, family=family, flat=flat)
        assert _coefficients_json(c) == _dumps(c)
    # JSON has no nan or infinity: a coefficient set holding one, in either
    # part of a complex entry, is refused
    for bad in (np.nan, np.inf, -np.inf):
        real, re, im = special.copy(), mixed.copy(), mixed.copy()
        real[3], re.real[3], im.imag[5] = bad, bad, bad
        for flat in (real, re, im):
            c = CoefficientSet(N=8, family=family, flat=flat)
            with pytest.raises(FloatingPointError, match="^coefficients are not finite$"):
                _coefficients_json(c)


@pytest.mark.parametrize("name, samples", [
    ("x1", make_x1().samples),
    ("ecg", synthetic_ecg().samples),
    ("ecg4096", synthetic_ecg(length=4096).samples),
])
def test_transform_output_is_json_dumps_text(tmp_path, capsys, name, samples):
    path = _write(tmp_path, f"{name}.csv", samples)
    x = read_signal_csv(path)
    # every family goes through `analyze` at every N
    for family in ("occpt", "ccpt2", "rpt") if len(x) == 4096 else ("occpt", "rpt"):
        expected = _dumps(analyze(x, family)) + "\n"
        out = tmp_path / f"{family}.json"
        assert main(["transform", "--input", path, "--family", family,
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == expected
        capsys.readouterr()
        assert main(["transform", "--input", path, "--family", family]) == EXIT_OK
        assert capsys.readouterr().out == expected


def test_transform_wrapper_matches_library(tmp_path):
    # power-of-two and other lengths alike: the wrapper runs `analyze`
    for x in (np.arange(8.0), np.arange(12.0)):
        path = _write(tmp_path, f"ramp{len(x)}.csv", x)
        out = tmp_path / f"coeffs{len(x)}.json"
        assert main(["transform", "--input", path, "--family", "occpt",
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text() == _dumps(analyze(read_signal_csv(path), "occpt")) + "\n"


def test_benchmark_is_the_foccpt_route(tmp_path):
    # the CLI's route to the op-counting fast transform
    out = tmp_path / "bench.json"
    assert main(["benchmark", "--sizes", "8,16", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())["benchmark"]
    assert [e["N"] for e in payload] == [8, 16]
    for entry in payload:
        assert entry["family"] == "occpt"
        assert entry["measured_equals_predicted"] is True
        assert entry["measured"] == entry["predicted"]


def test_transform_all_families(tmp_path):
    x = np.random.default_rng(1).standard_normal(54)
    path = _write(tmp_path, "x.csv", x)
    for family in ("ccpt1", "ccpt2", "occpt", "rpt", "dft-npm"):
        out = tmp_path / f"{family}.json"
        assert main(["transform", "--input", path, "--family", family,
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["flat"]) == 54


def test_periods_fixture_x1(tmp_path):
    path = _write(tmp_path, "x1.csv", make_x1().samples)
    out = tmp_path / "report.json"
    csv_out = tmp_path / "strengths.csv"
    assert main(["periods", "--input", path, "--family", "occpt",
                 "--out", str(out), "--strengths-csv", str(csv_out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["estimated_period"] == 18
    assert payload["significant"] == [3, 9, 18]
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0] == "period,strength"
    assert len(rows) == 9  # 8 divisors of 54


def test_periods_fixture_x2_matrix_vs_dictionary(tmp_path):
    path = _write(tmp_path, "x2.csv", make_x2().samples)
    out = tmp_path / "m.json"
    assert main(["periods", "--input", path, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["estimated_period"] == 54  # 40 is not a divisor
    out2 = tmp_path / "d.json"
    assert main(["periods", "--input", path, "--method", "dictionary",
                 "--pmax", "50", "--penalty", "p2", "--out", str(out2)]) == EXIT_OK
    payload = json.loads(out2.read_text())
    assert payload["estimated_period"] == 40
    assert payload["method"] == "dictionary"


def test_periods_dictionary_strengths_csv(tmp_path):
    """Each CSV row of a dictionary answer is its JSON strength at 12
    digits, in period order."""
    path = _write(tmp_path, "x2.csv", make_x2().samples)
    out, csv_out = tmp_path / "d.json", tmp_path / "d.csv"
    assert main(["periods", "--input", path, "--method", "dictionary",
                 "--out", str(out), "--strengths-csv", str(csv_out)]) == EXIT_OK
    strengths = json.loads(out.read_text())["strengths"]
    rows = csv_out.read_text().splitlines()
    assert rows[0] == "period,strength"
    assert rows[1:] == [f"{p},{format(strengths[str(p)], '.12g')}" for p in range(1, 51)]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_periods_dictionary_singular_gram(tmp_path):
    # P_max 5 gives 10 columns for 54 samples: the Gram is singular, the
    # least-squares branch runs and the condition is reported as null
    path = _write(tmp_path, "x2.csv", make_x2().samples)
    out = tmp_path / "d.json"
    assert main(["periods", "--input", path, "--method", "dictionary",
                 "--pmax", "5", "--out", str(out)]) == EXIT_OK
    payload = _strict_json(out.read_text())
    assert payload["used_fallback"] is True
    assert payload["gram_condition"] is None
    assert sorted(payload["strengths"]) == ["1", "2", "3", "4", "5"]

    assert main(["periods", "--input", path, "--method", "dictionary",
                 "--pmax", "50", "--out", str(out)]) == EXIT_OK
    payload = _strict_json(out.read_text())
    assert payload["used_fallback"] is False
    assert 1.0 <= payload["gram_condition"] < 1e12


def test_periods_help_names_the_method_of_each_flag(capsys):
    with pytest.raises(SystemExit):
        main(["periods", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag, method in [("--threshold", "matrix"), ("--pmax", "dictionary"),
                         ("--penalty", "dictionary")]:
        assert f"{method} method:" in text.split(flag)[-1].split(" --")[0], flag


def test_periods_constant_input(tmp_path):
    path = _write(tmp_path, "c.csv", np.ones(12))
    out = tmp_path / "r.json"
    assert main(["periods", "--input", path, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["estimated_period"] == 1


def test_filter_band_full_band_roundtrip(tmp_path):
    x = synthetic_ecg()
    path = _write(tmp_path, "ecg.csv", x.samples)
    out = tmp_path / "flt.csv"
    assert main(["filter-band", "--input", path, "--fs", "62.5",
                 "--band", "0:31.25", "--out", str(out)]) == EXIT_OK
    np.testing.assert_allclose(read_signal_csv(out), x.samples, atol=1e-9)


def test_filter_band_selects_single_tone(tmp_path):
    fs = 54.0
    lo_tone = tone(1.0, 3.0, fs, 54)          # subspace (18, 1)
    hi_tone = tone(0.7, 12.0, fs, 54, 0.4)    # subspace (9, 2)
    path = _write(tmp_path, "two.csv", lo_tone + hi_tone)
    out = tmp_path / "one.csv"
    assert main(["filter-band", "--input", path, "--fs", "54",
                 "--band", "10:14", "--out", str(out)]) == EXIT_OK
    np.testing.assert_allclose(read_signal_csv(out), hi_tone, atol=1e-9)


def test_filter_band_equals_dft_filter():
    x = synthetic_ecg()
    fs = x.sample_rate
    filtered = synthesize(band_filter(occpt_analysis(x.samples), fs, 8.0, 20.0))
    N = len(x)
    X = brute_dft(x.samples)
    keep = np.zeros(N)
    for k in range(N):
        f = min(k, N - k) / N * fs
        keep[k] = 1.0 if 8.0 <= f <= 20.0 else 0.0
    y = np.real(np.array([np.sum(keep * X * np.exp(2j * np.pi * k * np.arange(N) / N))
                          for k in range(N)])) / N
    np.testing.assert_allclose(filtered, y, atol=1e-8)


def test_filter_band_rejects_bad_bands(tmp_path):
    path = _write(tmp_path, "x.csv", np.ones(8))
    assert main(["filter-band", "--input", path, "--fs", "10",
                 "--band", "2:9", "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
    # --fs is required, as --input and --band are
    with pytest.raises(SystemExit) as exc_info:
        main(["filter-band", "--input", path, "--band", "1:2", "--out", str(tmp_path / "o.csv")])
    assert exc_info.value.code == EXIT_USAGE
    assert not (tmp_path / "o.csv").exists()


def test_filter_band_rejects_malformed_band(tmp_path, capsys):
    path = _write(tmp_path, "x.csv", np.ones(8))
    assert main(["filter-band", "--input", path, "--fs", "10",
                 "--band", "1-2", "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
    assert "ccpt: band must be LO:HI, got '1-2'" in capsys.readouterr().err


@pytest.mark.parametrize("fs", ["nan", "inf", "0", "-1"])
def test_filter_band_rejects_bad_sample_rate(tmp_path, capsys, fs):
    path = _write(tmp_path, "ecg.csv", synthetic_ecg().samples)
    out = tmp_path / "o.csv"
    assert main(["filter-band", "--input", path, f"--fs={fs}", "--band", "0:0",
                 "--out", str(out)]) == EXIT_USAGE
    assert "sample rate fs must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_report(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["benchmark", "--sizes", "1,7,8", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())["benchmark"]
    by_n = {e["N"]: e for e in payload}
    assert by_n[8]["measured"] == {"mults": 17, "adds": 25}
    assert by_n[8]["measured_equals_predicted"] is True
    table7 = {r["transform"]: r for r in by_n[7]["table"]}
    assert table7["dft-npm"]["mults"] == 196
    assert table7["occpt"]["mults"] == 98
    assert "measured" not in by_n[7]
    assert all(r["mults"] == 0 for r in by_n[1]["table"])


def test_fixture_command(tmp_path):
    """Each fixture, with its default seed and with --seed."""
    out = tmp_path / "fixture.csv"
    for name, make, seed_name in (("x1", make_x1, "noise_seed"), ("x2", make_x2, "noise_seed"),
                                  ("ecg", synthetic_ecg, "seed")):
        for seed in (None, 7):
            extra = [] if seed is None else ["--seed", str(seed)]
            assert main(["fixture", "--name", name, "--out", str(out), *extra]) == EXIT_OK
            want = make() if seed is None else make(**{seed_name: seed})
            np.testing.assert_allclose(read_signal_csv(out), want.samples, atol=1e-11,
                                       err_msg=f"{name} seed {seed}")


def test_cli_determinism(tmp_path):
    path = _write(tmp_path, "x.csv", make_x1().samples)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["periods", "--input", path, "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_input_and_bad_args(tmp_path):
    assert main(["transform", "--input", str(tmp_path / "missing.csv")]) == EXIT_PARSE
    assert main(["transform", "--input", str(tmp_path)]) == EXIT_PARSE
    with pytest.raises(SystemExit) as exc_info:
        main(["transform", "--input", "x.csv", "--family", "walsh"])
    assert exc_info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == EXIT_USAGE


def test_benchmark_invalid_sizes():
    assert main(["benchmark", "--sizes", "0,4"]) == EXIT_USAGE


@pytest.mark.parametrize("sizes", ["x", "8,x", "2.5"])
def test_benchmark_rejects_sizes_that_are_not_integers(tmp_path, capsys, sizes):
    """A size that is not an integer used to surface int()'s own message;
    empty entries are skipped."""
    assert main(["benchmark", "--sizes", sizes]) == EXIT_USAGE
    assert f"ccpt: invalid size list {sizes!r}" in capsys.readouterr().err
    out = tmp_path / "bench.json"
    assert main(["benchmark", "--sizes", "8,,12", "--out", str(out)]) == EXIT_OK
    assert [e["N"] for e in json.loads(out.read_text())["benchmark"]] == [8, 12]


def test_unreadable_input_is_a_parse_error(tmp_path, capsys):
    """Bytes that are not text exit 2, like any other input that cannot be
    parsed, not 1 as an invalid argument."""
    path = tmp_path / "bin.csv"
    path.write_bytes(b"value\n\xff\xfe\n")
    assert main(["transform", "--input", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("ccpt: ")


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(x, d):
        raise np.linalg.LinAlgError("factor broke")
    monkeypatch.setattr("ccpt.period.dictionary_solve", fail)
    path = _write(tmp_path, "x2.csv", make_x2().samples)
    assert main(["periods", "--input", path, "--method", "dictionary"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "ccpt: numeric failure: factor broke\n"


@pytest.mark.parametrize("value, argv", [
    ("1e308", ["transform"]),
    ("1e308", ["periods", "--strengths-csv", "s.csv"]),
    ("1e308", ["periods", "--method", "dictionary", "--pmax", "4", "--strengths-csv", "s.csv"]),
    ("1e308", ["filter-band", "--fs", "4", "--band", "0:2"]),
    ("1e200", ["periods", "--strengths-csv", "s.csv"]),
    ("1e200", ["periods", "--method", "dictionary", "--pmax", "4", "--strengths-csv", "s.csv"]),
], ids=["transform", "periods", "dictionary", "filter-band", "periods-1e200", "dictionary-1e200"])
def test_non_finite_results_exit_3_and_write_nothing(tmp_path, capsys, monkeypatch, value, argv):
    """Four samples of 1e308 (or 1e200) are finite and read, but their
    coefficients or strengths overflow. JSON and the CSV writer have no
    spelling of nan or infinity, so the command exits 3 and writes nothing,
    with or without --out, and NumPy's overflow warning does not escape."""
    monkeypatch.chdir(tmp_path)
    write_signal_csv("big.csv", [float(value)] * 4)
    for out in (["--out", "out"], []):
        assert main([*argv, "--input", "big.csv", *out]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err.startswith("ccpt: numeric failure: ") and not captured.out
        assert os.listdir() == ["big.csv"]


def test_cli_runs_without_docstrings(tmp_path):
    """python -OO strips docstrings; the parser's description does not come
    from one, so the CLI runs and its --help is unchanged."""
    env = dict(os.environ, PYTHONPATH=str(Path(ccpt.__file__).parents[1]))
    out = tmp_path / "x1.csv"
    run = subprocess.run([sys.executable, "-OO", "-m", "ccpt.cli", "fixture", "--name", "x1",
                          "--out", str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK, run.stderr
    assert main(["fixture", "--name", "x1", "--out", str(tmp_path / "in.csv")]) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "in.csv").read_bytes()
    run = subprocess.run([sys.executable, "-OO", "-m", "ccpt.cli", "--help"], env=env,
                         capture_output=True, text=True)
    assert run.returncode == EXIT_OK and "\nCommand-line front end.\n" in run.stdout
