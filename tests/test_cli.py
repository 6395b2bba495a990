import json
import subprocess
import sys

import numpy as np
import pytest

from wavegplm.cli import main, read_dataset
from wavegplm.errors import ConfigurationError


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

    def test_missing_input_exit_2(self, capsys):
        assert main(["fit", "/no/such/file.csv"]) == 2

    def test_non_dyadic_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + "".join(f"{i},{i}\n" for i in range(12)))
        assert main(["fit", str(path)]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["fit", "x.csv", "--bogus"]) == 2


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

    @pytest.mark.parametrize("flag, spec", [("--lambda-grid", "1.0,two"),
                                            ("--sweep-m", "8,x"),
                                            ("--sweep-n", "32,6.4")],
                             ids=["lambda-grid", "sweep-m", "sweep-n"])
    def test_bad_grid_spec(self, capsys, flag, spec):
        assert main(["calibrate", "--n", "64", flag, spec]) == 2
        assert "cannot parse" in capsys.readouterr().err

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
