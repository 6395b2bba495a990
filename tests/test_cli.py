import dataclasses
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from wavegplm import cli
from wavegplm.cli import _JSON_CHUNK, _dump_json, _parse_bulk, _parse_lines, main, read_dataset
from wavegplm.errors import ConfigurationError, DimensionError
from wavegplm.estimator import FitConfig


def _write_gaussian_dataset(path, n=64, seed=0, delimiter=","):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    t = np.arange(1, n + 1) / n
    y = X @ [1.0, -0.5] + np.sin(2 * np.pi * t) + 0.2 * rng.standard_normal(n)
    with open(path, "w") as handle:
        handle.write(delimiter.join(["y", "x1", "x2"]) + "\n")
        for yi, (a, b) in zip(y, X):
            handle.write(delimiter.join(repr(float(v)) for v in (yi, a, b)) + "\n")
    return y, X


class TestReadDataset:
    def test_comma_delimited(self, tmp_path):
        path = tmp_path / "d.csv"
        y, X = _write_gaussian_dataset(path)
        data = read_dataset(str(path))
        np.testing.assert_allclose(data.y, y)
        np.testing.assert_allclose(data.X, X)

    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "d.txt"
        y, X = _write_gaussian_dataset(path, delimiter=" ")
        data = read_dataset(str(path))
        np.testing.assert_allclose(data.y, y)

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            read_dataset("/nonexistent/file.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,x1\n1,2\n")
        with pytest.raises(ConfigurationError, match="first column"):
            read_dataset(str(path))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x1\n1,2\n3\n")
        with pytest.raises(ConfigurationError, match="line 3"):
            read_dataset(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("y,x1\n1,abc\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            read_dataset(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("y,x1\n")
        with pytest.raises(ConfigurationError, match="no data rows"):
            read_dataset(str(path))

    def test_non_finite_cell_reports_line(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("y,x1\n1,2\n3,4\nnan,5\n")
        with pytest.raises(ConfigurationError, match="line 4"):
            read_dataset(str(path))

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("y,x1\n\n1,abc\n")
        with pytest.raises(ConfigurationError, match="line 3:"):
            read_dataset(str(path))
        path.write_text("\ny,x1\n1,2\n\n  \n3,inf\n")
        with pytest.raises(ConfigurationError, match="line 6:"):
            read_dataset(str(path))
        path.write_text("\ny,x1\n1,2\n\n3,4\n\n")
        data = read_dataset(str(path))
        np.testing.assert_array_equal(data.y, [1.0, 3.0])
        np.testing.assert_array_equal(data.X, [[2.0], [4.0]])

    def test_byte_order_mark_gives_the_same_report(self, tmp_path):
        # a UTF-8 file may start with a byte-order mark; the fit of the same
        # file at the same path writes the same report bytes with or without it
        path = tmp_path / "d.csv"
        _write_gaussian_dataset(path)
        text = path.read_bytes()
        reports = []
        for body in (text, b"\xef\xbb\xbf" + text):
            path.write_bytes(body)
            out = tmp_path / f"fit{len(reports)}.json"
            assert main(["fit", str(path), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x1\n1,2\n3,abc\n")
        with pytest.raises(ConfigurationError, match="line 3:"):
            read_dataset(str(path))
        path.write_bytes(b"\xef\xbb\xbf\ny,x1\n1,2\n3\n")
        with pytest.raises(ConfigurationError, match="line 4:"):
            read_dataset(str(path))


# (file text, whether the bulk parser vouches for it); every other file
# goes through the line parser
PARSER_CASES = {
    "plain": ("y,x1\n1.5,-2\n3,4e-3\n", True),
    "hash-in-cell": ("y,x1\n1#2,3\n4,5\n", False),
    "underscore": ("y,x1\n1_0,2\n3,4\n", False),
    "spaces-around-cells": ("y,x1\n 1 , 2 \n3 ,\t4\n", True),
    "space-inside-cell": ("y,x1\n1 0,2\n3,4\n", False),
    "trailing-comma": ("y,x1\n1,2,\n3,4,\n", False),
    "trailing-comma-header": ("y,x1,\n1,2,\n3,4,\n", False),
    "crlf": ("y,x1\r\n1,2\r\n3,4\r\n", True),
    "whitespace-lines-comma": ("y,x1\n  \n1,2\n\t\n3,4\n \n", False),
    "whitespace-lines-blank": ("\n \ny x1\n  \n1 2\n\t\n3 4\n \n", True),
    "tabs": ("y\tx1\tx2\n1\t2\t3\n4\t5\t6\n7\t8\t9\n0\t1\t2\n", True),
    "single-row": ("y\n1.25\n", True),
    "y-only": ("y\n1\n2\n3\n4\n", True),
    "nan": ("y,x1\nnan,1\n2,3\n", False),
    "inf": ("y,x1\n1,inf\n2,3\n", False),
    "Infinity": ("y,x1\n1,2\n-Infinity,3\n", False),
    "signs": ("y,x1\n+1e5,-0\n-0.0,+.5\n", True),
    "comma-row-under-whitespace-header": ("y x1\n1,2\n3 4\n", False),
    "whitespace-row-under-comma-header": ("y,x1\n1 2\n3,4\n", False),
    "ragged": ("y,x1\n1,2\n3\n", False),
    "bad-header": ("z,x1\n1,2\n3,4\n", False),
    "header-only": ("y,x1\n", False),
    "empty": ("", False),
    "unit-separator": ("y,x1\n1\x1f,2\n3,4\n", False),
    "no-final-newline": ("y,x1\n1,2\n3,4", True),
    "non-ascii-utf-8": ("y,x1\n1,2\u00e9\n3,4\n", False),
    "not-utf-8": (b"y,x1\n1,2\xff\n3,4\n", False),
    "bom-crlf": (b"\xef\xbb\xbfy,x1\r\n1,2\r\n3,4\r\n", True),
    # past the first read of the separator scan and of the text decoder
    "not-utf-8-past-first-chunk": (b"y,x1\n" + b"1,2\n" * 20000 + b"3,4\xff\n", False),
    "blank-lines-no-rows": ("\n \ny,x1\n\n\t\n  \n", False),
}


@pytest.mark.parametrize("text, bulk", PARSER_CASES.values(), ids=PARSER_CASES.keys())
def test_bulk_parser_agrees_with_line_parser(tmp_path, text, bulk):
    # the streaming bulk parser vouches for the file or not, and warns of
    # nothing; read_dataset returns the line parser's table bit for bit, or
    # raises its message byte for byte; a file that is not UTF-8 fails to read
    path = tmp_path / "d.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _parse_bulk(str(path))
    assert (table is not None) == bulk
    try:
        with open(path, encoding="utf-8-sig") as handle:
            body = handle.read()
    except UnicodeDecodeError as exc:
        with pytest.raises(ConfigurationError) as got:
            read_dataset(str(path))
        assert str(got.value) == f"cannot read dataset file {str(path)!r}: {exc}"
        return
    try:
        expected = _parse_lines(body, str(path))
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as got:
            read_dataset(str(path))
        assert str(got.value) == str(exc)
        return
    if bulk:
        assert table.tobytes() == expected.tobytes()
    if expected.shape[1] == 1:
        # no covariate column: Dataset rejects the table
        with pytest.raises(DimensionError, match="need at least one covariate column"):
            read_dataset(str(path))
        return
    data = read_dataset(str(path))
    assert data.y.tobytes() == expected[:, 0].tobytes()
    assert data.X.tobytes() == np.ascontiguousarray(expected[:, 1:]).tobytes()
    assert data.X.strides == expected[:, 1:].strides


def test_bulk_parser_is_bit_identical_at_scale(tmp_path):
    # 4096 rows of shortest reprs, 17- and 25-digit spellings, subnormals
    # and signed zeros across 600 decades
    rng = np.random.default_rng(11)
    values = rng.standard_normal((4096, 3)) * 10.0 ** rng.integers(-300, 300, (4096, 3))
    values[::97, 1] = -0.0
    values[::89, 2] = 5e-324 * rng.integers(1, 1000, values[::89, 2].shape)
    spell = [repr, lambda v: "%.17g" % v, lambda v: "%.25e" % v]
    lines = ["y,x1,x2"] + [",".join(spell[(i + j) % 3](float(v)) for j, v in enumerate(row))
                           for i, row in enumerate(values)]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    table = _parse_bulk(str(path))
    assert table is not None
    assert table.tobytes() == _parse_lines(path.read_text(), str(path)).tobytes()
    data = read_dataset(str(path))
    assert data.y.tobytes() == table[:, 0].tobytes()


def test_read_dataset_peak_is_the_table_and_one_mib(tmp_path):
    # the bulk parser streams the file: reading a 65536 x 3 table (1.5 MiB)
    # takes at most 1 MiB besides the table
    values = np.random.default_rng(12).standard_normal((65536, 3))
    path = tmp_path / "big.csv"
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header="y,x1,x2", comments="")
    tracemalloc.start()
    try:
        data = read_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.y.tobytes() == values[:, 0].tobytes()
    assert peak <= values.nbytes + (1 << 20)


def _oracle_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _assert_matches_oracle(document):
    fragments = []
    _dump_json(document, fragments.append)
    oracle = json.dumps(document, indent=2, sort_keys=True, default=_oracle_default)
    assert "".join(fragments) == oracle


def _captured_documents(monkeypatch, argv):
    documents = []
    monkeypatch.setattr(cli, "_write_json", lambda document, out: documents.append(document))
    assert main(argv) == 0
    return documents


class TestJsonWriter:
    def test_fit_report_at_65536(self, tmp_path, monkeypatch):
        n = 65536
        rng = np.random.default_rng(2)
        X = rng.standard_normal((n, 2))
        y = X @ [1.0, -0.5] + np.sin(np.arange(n) / 900.0) + rng.standard_normal(n)
        path = tmp_path / "big.csv"
        np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
                   header="y,x1,x2", comments="")
        [document] = _captured_documents(monkeypatch, ["fit", str(path), "--kappa", "2"])
        assert document["f_hat"].size == n
        _assert_matches_oracle(document)

    def test_simulate_report_with_a_failed_replication(self, monkeypatch):
        [document] = _captured_documents(monkeypatch, [
            "simulate", "--family", "poisson", "--n", "256", "--reps", "6", "--kappa", "20",
            "--seed", "5", "--lambda", "2.8213", "--snr-f", "1.5"])
        assert document["failures"] == 1
        assert np.isnan(document["betas"]).any() and document["betas"].ndim == 2
        assert document["iteration_counts"].dtype.kind == "i"
        _assert_matches_oracle(document)

    def test_calibrate_sweep_document(self, monkeypatch):
        [document] = _captured_documents(monkeypatch, [
            "calibrate", "--n", "64", "--reps", "2", "--seed", "1", "--kappa", "150",
            "--delta", "1e-8", "--snr-f", "5", "--sweep-m", "8,24",
            "--ratio-grid", "lin:0.5:1.5:3"])
        _assert_matches_oracle(document)

    def test_edge_values(self):
        rng = np.random.default_rng(7)
        _assert_matches_oracle({
            "empty": [np.array([]), np.zeros((0, 3)), np.zeros((2, 0)), [], (), {}],
            "floats": np.array([-0.0, 1e-300, 1e16, 5e-324, 0.1, -1.5e308]),
            "non_finite": np.array([[1.0, np.nan], [np.inf, -np.inf]]),
            "float32": np.array([0.1, -2.5], dtype=np.float32),
            "ints": np.array([3, -7], dtype=np.int64),
            "bools": np.array([True, False]),
            "zero_d": np.array(2.5),
            "scalars": [np.float64(-0.0), np.float32(0.1), np.int64(7), np.int8(-3),
                        np.bool_(True), np.float64("nan"), float("-inf")],
            "leaves": [None, True, False, 0, -12, 1e16, "plain"],
            "escaped \"key\"\n": "quote \" backslash \\ tab \t nul \x00 é \u2028 \U0001f600",
            "nested": {"config": FitConfig(), "b": [{"z": 1, "a": [2, [3.5]]}]},
            # one value, and lengths on both sides of the writer's chunks
            "lengths": [rng.standard_normal(size) * 10.0 ** rng.uniform(-300, 300, size)
                        for size in (1, _JSON_CHUNK - 1, _JSON_CHUNK, _JSON_CHUNK + 1, 65536)],
        })

    def test_long_array_peak_does_not_grow_with_its_length(self):
        # the writer holds the strings of one chunk of _JSON_CHUNK values at a time
        values = np.random.default_rng(8).standard_normal(65536)
        tracemalloc.start()
        try:
            _dump_json(values, lambda text: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_writes_file_and_stdout_alike(self, tmp_path, capsys):
        document = {"command": "fit", "f_hat": np.linspace(-1.0, 1.0, 9), "config": FitConfig()}
        out = tmp_path / "doc.json"
        cli._write_json(document, str(out))
        cli._write_json(document, None)
        expected = json.dumps(document, indent=2, sort_keys=True, default=_oracle_default) + "\n"
        assert out.read_text() == expected
        assert capsys.readouterr().out == expected


class TestFitCommand:
    def test_fit_writes_report(self, tmp_path):
        data_path = tmp_path / "d.csv"
        _write_gaussian_dataset(data_path)
        out = tmp_path / "fit.json"
        rc = main(["fit", str(data_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "fit"
        assert doc["converged"] is True
        assert len(doc["beta"]) == 2
        assert abs(doc["beta"][0] - 1.0) < 0.2
        assert abs(doc["beta"][1] + 0.5) < 0.2
        assert len(doc["f_hat"]) == 64
        # resolved configuration is embedded
        assert doc["fit_config"]["filter_name"] == "symmlet-8"
        assert doc["lambda"] == pytest.approx(np.sqrt(2 * np.log(64)))

    def test_fixed_lambda_flag(self, tmp_path):
        data_path = tmp_path / "d.csv"
        _write_gaussian_dataset(data_path)
        out = tmp_path / "fit.json"
        rc = main(["fit", str(data_path), "--lambda", "1.25", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["lambda"] == 1.25

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_lambda_exit_2(self, tmp_path, capsys, lam):
        data_path = tmp_path / "d.csv"
        _write_gaussian_dataset(data_path)
        assert main(["fit", str(data_path), f"--lambda={lam}"]) == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    def test_missing_input_exit_2(self, capsys):
        assert main(["fit", "/no/such/file.csv"]) == 2

    def test_non_dyadic_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + "".join(f"{i},{i}\n" for i in range(12)))
        assert main(["fit", str(path)]) == 2

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"y,x1\n1,2\xff\n3,4\n")
        assert main(["fit", str(path)]) == 2
        assert "cannot read dataset file" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["fit", "x.csv", "--bogus"]) == 2

    def test_no_covariate_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y\n" + "".join(f"{i}\n" for i in range(8)))
        assert main(["fit", str(path)]) == 2
        assert "need at least one covariate column" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exit_2(self, tmp_path, capsys, delta):
        data_path = tmp_path / "d.csv"
        _write_gaussian_dataset(data_path)
        assert main(["fit", str(data_path), f"--delta={delta}"]) == 2
        assert "delta must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_phi_exit_2(self, tmp_path, capsys, phi):
        data_path = tmp_path / "d.csv"
        _write_gaussian_dataset(data_path)
        assert main(["fit", str(data_path), f"--phi={phi}"]) == 2
        assert "phi must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("family, value", [(["--family", "poisson"], "-4"),
                                               (["--family", "binomial", "--m", "4"], "3.0")])
    def test_out_of_support_response_exit_2(self, tmp_path, capsys, family, value):
        path = tmp_path / "d.csv"
        _write_gaussian_dataset(path)
        lines = path.read_text().splitlines()
        lines[1:] = [value + line[line.index(","):] if i == 5 else "1" + line[line.index(","):]
                     for i, line in enumerate(lines[1:])]
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path), *family]) == 2
        assert capsys.readouterr().err == (
            f"error: {family[1]} response {float(value):g} at index 5 lies outside "
            f"[0, {'inf' if family[1] == 'poisson' else 1}]\n")

    def test_zero_phi_fits_without_threshold(self, tmp_path):
        data_path = tmp_path / "d.csv"
        _write_gaussian_dataset(data_path)
        out = tmp_path / "fit.json"
        assert main(["fit", str(data_path), "--phi", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["lambda"] == 0.0


class TestSimulateCommand:
    ARGS = ["simulate", "--n", "64", "--reps", "3", "--seed", "9",
            "--kappa", "200", "--delta", "1e-10", "--snr-f", "5"]

    def test_report_and_plot_data(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "simulate"
        assert doc["failures"] == 0
        assert len(doc["rmises"]) == 3
        assert doc["config"]["seed"] == 9
        # wall time never appears in the report document
        assert "wall_time" not in json.dumps(doc)
        assert "wall time" in capsys.readouterr().err
        plot = (tmp_path / "sim.json.plot.tsv").read_text().splitlines()
        assert plot[0] == "t\tf0\tf_hat"
        assert len(plot) == 65
        first = plot[1].split("\t")
        assert float(first[0]) == 1 / 64  # plain decimal cells, full precision

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.plot.tsv").read_bytes() == \
            (tmp_path / "b.json.plot.tsv").read_bytes()

    @pytest.mark.parametrize("flag", ["--snr-f=nan", "--snr-beta=nan", "--beta0=inf"])
    def test_non_finite_input_exit_2(self, capsys, flag):
        assert main(self.ARGS + [flag]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_zero_phi_exit_2(self, capsys):
        assert main(self.ARGS + ["--phi", "0"]) == 2
        assert "positive dispersion" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_lambda_grid(self, tmp_path):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--n", "64", "--reps", "2", "--seed", "1",
                   "--kappa", "150", "--delta", "1e-8",
                   "--lambda-grid", "1.0,2.0,3.0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["lambdas"] == [1.0, 2.0, 3.0]
        assert doc["argmin_lambda"] in doc["lambdas"]
        assert len(doc["mean_rmise"]) == 3

    def test_lin_grid_spec(self, tmp_path):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--n", "64", "--reps", "2", "--seed", "1",
                   "--kappa", "150", "--delta", "1e-8",
                   "--lambda-grid", "lin:1:3:3", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["lambdas"] == [1.0, 2.0, 3.0]

    def test_requires_a_grid(self, capsys):
        assert main(["calibrate", "--n", "64"]) == 2

    @pytest.mark.parametrize("grid", ["-1,2", "1,inf"])
    def test_negative_or_non_finite_grid_exit_2(self, capsys, grid):
        assert main(["calibrate", "--n", "64", "--reps", "2", "--seed", "1",
                     "--kappa", "50", f"--lambda-grid={grid}"]) == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, spec", [("--lambda-grid", "1.0,two"),
                                            ("--sweep-m", "8,x"),
                                            ("--sweep-n", "32,6.4")],
                             ids=["lambda-grid", "sweep-m", "sweep-n"])
    def test_bad_grid_spec(self, capsys, flag, spec):
        assert main(["calibrate", "--n", "64", flag, spec]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_sweep_m_below_one_exit_2(self, capsys, m):
        assert main(["calibrate", "--n", "64", "--reps", "2", f"--sweep-m={m}"]) == 2
        assert "class count m must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--sweep-m", "24,0"],
                                      ["--family", "poisson", "--sweep-n", "64,100"]],
                             ids=["sweep-m", "sweep-n"])
    def test_sweep_validated_before_the_first_calibration(self, monkeypatch, capsys, argv):
        calls = []
        monkeypatch.setattr(cli, "calibrate_threshold", lambda *args: calls.append(args))
        assert main(["calibrate", "--n", "64", "--reps", "2"] + argv) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_sweep_names_its_first_failure(self, capsys):
        # the CLI defaults drive every binomial m = 8 fit at n = 64 past the sup-norm bound
        assert main(["calibrate", "--n", "64", "--reps", "2", "--sweep-m", "8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: every fit failed at every threshold")
        assert "the first was replication 0 at lambda " in err
        assert "iterates exceeded sup-norm bound" in err

    @pytest.mark.parametrize("key, values", [("n", "32,64"), ("m", "8,24")],
                             ids=["n", "m"])
    def test_sweep_reports_slope(self, tmp_path, key, values):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--n", "64", "--reps", "2", "--seed", "1",
                   "--kappa", "150", "--delta", "1e-8", "--snr-f", "5",
                   f"--sweep-{key}", values, "--ratio-grid", "lin:0.5:1.5:3",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["sweep"] == key
        assert [point[key] for point in doc["points"]] == \
            [int(v) for v in values.split(",")]
        assert "slope_c" in doc and "r_squared" in doc


def test_console_entry_point(tmp_path):
    data_path = tmp_path / "d.csv"
    _write_gaussian_dataset(data_path)
    proc = subprocess.run(
        [sys.executable, "-m", "wavegplm.cli", "fit", str(data_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "fit"


def test_fit_pure_linear_data_matches_ols_oracle(tmp_path):
    # dataset with f0 = 0: the reported beta equals ordinary least squares
    rng = np.random.default_rng(5)
    n = 64
    X = rng.standard_normal((n, 1))
    y = 2.0 * X[:, 0] + 0.05 * rng.standard_normal(n)
    path = tmp_path / "lin.csv"
    with open(path, "w") as handle:
        handle.write("y,x1\n")
        for yi, xi in zip(y, X[:, 0]):
            handle.write(f"{float(yi)!r},{float(xi)!r}\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(path), "--kappa", "3000", "--delta", "1e-16",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    resid = y - np.array(doc["f_hat"])
    oracle, *_ = np.linalg.lstsq(X, resid, rcond=None)
    np.testing.assert_allclose(doc["beta"], oracle, atol=1e-10)
