"""Compare the reports two source trees write, output by output.

Usage: python tools/compare_reports.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  The script runs one standard
set of commands against each tree, every command in a fresh Python process
with PYTHONPATH set to that tree's ``src``:

* ``fit`` of a gaussian dataset (n = 1024, p = 2) with every supported
  filter, under the l1 penalty, the Sobolev penalty and ``--coarse-level 0``;
* ``fit`` of a Poisson and of a binomial (m = 4) dataset;
* ``fit`` of a gaussian dataset of n = 65536 rows (p = 2) with every
  supported filter, and of the same file with a byte-order mark and CRLF
  line ends;
* two ``simulate`` runs (report JSON and plot TSV);
* ``calibrate`` with a threshold grid, with ``--sweep-m`` and with
  ``--sweep-n``;
* the three scripts in ``demos/`` (their standard output).

The datasets are drawn here, once, from fixed seeds, so both trees read the
same files.  It prints ``same`` or ``differs`` per output (exit code,
standard output and every file the command writes) and exits 1 on any
difference.  Standard error is not compared: ``simulate`` prints its wall
time there.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FILTERS = ("daubechies-4", "daubechies-6", "daubechies-8", "haar", "symmlet-8")
FIT = ["--kappa", "2000", "--delta", "1e-12"]


def _write_dataset(path: Path, y, X):
    lines = ["y," + ",".join(f"x{j + 1}" for j in range(X.shape[1]))]
    lines += [",".join(map(repr, [float(v), *map(float, row)])) for v, row in zip(y, X)]
    path.write_text("\n".join(lines) + "\n")


def _datasets(directory: Path) -> dict[str, Path]:
    """Gaussian, Poisson and binomial (m = 4) datasets of n = 1024 rows, a
    gaussian one of n = 65536 rows, and that file with a byte-order mark
    and CRLF line ends."""
    n = 1024
    t = np.arange(1, n + 1) / n
    f = np.sin(4 * np.pi * t) + (t > 0.7)
    paths = {}
    for kind, seed in (("gaussian", 1), ("poisson", 2), ("binomial", 3)):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2 if kind == "gaussian" else 1))
        eta = X @ np.full(X.shape[1], 0.5) + f
        if kind == "gaussian":
            y = eta + rng.standard_normal(n)
        elif kind == "poisson":
            y = rng.poisson(np.exp(eta)).astype(float)
        else:
            y = rng.binomial(4, 1 / (1 + np.exp(-eta))) / 4
        paths[kind] = directory / f"{kind}.csv"
        _write_dataset(paths[kind], y, X)
    n = 65536
    rng = np.random.default_rng(4)
    X = rng.standard_normal((n, 2))
    y = X @ [1.0, -0.5] + np.sin(np.arange(n) / 900.0) + rng.standard_normal(n)
    paths["large"] = directory / "large.csv"
    _write_dataset(paths["large"], y, X)
    paths["large bom-crlf"] = directory / "large-bom-crlf.csv"
    paths["large bom-crlf"].write_bytes(
        b"\xef\xbb\xbf" + paths["large"].read_bytes().replace(b"\n", b"\r\n"))
    return paths


def _commands(tree: Path, data: dict[str, Path]) -> dict[str, list[str]]:
    """Label -> arguments of the Python process that makes one output of
    ``tree``: a ``python -m wavegplm.cli`` run that writes ``out.json``, or
    one of the tree's demos."""
    commands = {}
    for name in FILTERS:
        for variant, extra in (("l1", []), ("sobolev", ["--penalty", "sobolev"]),
                               ("coarse-0", ["--coarse-level", "0"])):
            commands[f"fit {name} {variant}"] = ["fit", str(data["gaussian"]),
                                                 "--filter", name, *FIT, *extra]
    commands["fit poisson"] = ["fit", str(data["poisson"]), "--family", "poisson", *FIT]
    commands["fit binomial"] = ["fit", str(data["binomial"]), "--family", "binomial",
                                "--m", "4", *FIT]
    for name in FILTERS:
        commands[f"fit large {name}"] = ["fit", str(data["large"]), "--filter", name, *FIT]
    commands["fit large bom-crlf"] = ["fit", str(data["large bom-crlf"]), *FIT]
    commands["simulate gaussian"] = ["simulate", "--n", "256", "--reps", "20", "--seed", "3",
                                     "--kappa", "500", "--delta", "1e-12"]
    commands["simulate poisson"] = ["simulate", "--family", "poisson", "--snr-f", "1.5",
                                    "--n", "256", "--reps", "10", "--seed", "5",
                                    "--kappa", "300", "--delta", "1e-12"]
    commands["calibrate grid"] = ["calibrate", "--family", "poisson", "--snr-f", "1.5",
                                  "--n", "256", "--reps", "7", "--seed", "5",
                                  "--kappa", "300", "--delta", "1e-12",
                                  "--lambda-grid", "lin:2.8:5.6:5"]
    commands["calibrate sweep-m"] = ["calibrate", "--function", "blocs", "--snr-f", "2",
                                     "--n", "128", "--reps", "4", "--seed", "5",
                                     "--kappa", "300", "--delta", "1e-12",
                                     "--sweep-m", "24,96", "--ratio-grid", "lin:0.2:1.4:4"]
    commands["calibrate sweep-n"] = ["calibrate", "--reps", "4", "--seed", "2",
                                     "--kappa", "300", "--delta", "1e-12",
                                     "--sweep-n", "128,256", "--ratio-grid", "lin:0.4:1.6:4"]
    argvs = {label: ["-m", "wavegplm.cli", *args, "--out", "out.json"]
             for label, args in commands.items()}
    argvs.update((f"demo {path.name}", [str(path)])
                 for path in sorted((tree / "demos").glob("*.py")))
    return argvs


def _run(tree: Path, argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Exit code, standard output and every file written, of one fresh process."""
    workdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    outputs = {"exit code": str(done.returncode).encode(), "stdout": done.stdout}
    outputs.update((path.name, path.read_bytes()) for path in sorted(workdir.iterdir()))
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    for tree in trees:
        if not (tree / "src" / "wavegplm").is_dir():
            print(f"error: {tree} holds no src/wavegplm", file=sys.stderr)
            return 2
    differs = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        data = _datasets(scratch)
        runs = [_commands(tree, data) for tree in trees]
        labels = list(dict.fromkeys([*runs[0], *runs[1]]))
        for i, label in enumerate(labels):
            outputs = [_run(tree, run[label], scratch / f"{i}-{side}") if label in run else None
                       for side, (tree, run) in enumerate(zip(trees, runs))]
            same = outputs[0] == outputs[1]
            differs += not same
            print(f"{'same' if same else 'differs':8} {label}", flush=True)
    print(f"{differs} of {len(labels)} outputs differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
