import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scampsim import pnm
from scampsim.cli import main
from scampsim.geometry import PlaneGeometry
from scampsim.model import random_model, save_weights
from scampsim.planes import ArrayState
from scampsim.pnm import write_gray_pgm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ds")
    assert main(["gen", "--seed", "1", "--n-train", "4", "--n-test", "2",
                 "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory, dataset_dir):
    d = tmp_path_factory.mktemp("run")
    assert main(["train", "--dataset", str(dataset_dir), "--epochs", "1",
                 "--lr", "1000", "--out", str(d)]) == 0
    return d / "weights.json"


class TestBench:
    def test_default_matches_headline_figures(self, capsys):
        code, out, _ = run_cli(capsys, "bench")
        assert code == 0
        assert out.strip() == "latency_us=121.0 fps=8264"

    def test_custom_cost_table(self, capsys, tmp_path):
        table = {op: 1.0 for op in ("add", "sub", "neg", "copy", "max", "shift",
                                    "thresh", "logic", "pattern", "gsum")}
        table["overhead_us"] = 0.0
        path = tmp_path / "cost.json"
        path.write_text(json.dumps(table))
        code, out, _ = run_cli(capsys, "bench", "--cost-table", str(path))
        assert code == 0
        assert out.startswith("latency_us=124.0")


def test_log_variable_is_ignored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCAMPSIM_LOG", "bogus")
    code, _, err = run_cli(capsys, "lower", "--out", str(tmp_path))
    assert (code, err) == (0, "")


class TestInfer:
    def test_all_black_predicts_rock(self, capsys, tmp_path, weights_file):
        img = tmp_path / "black.pgm"
        write_gray_pgm(img, np.zeros((64, 64), dtype=np.uint8))
        code, out, _ = run_cli(capsys, "infer", "--weights", str(weights_file),
                               "--images", str(img))
        assert code == 0
        assert "predicted=rock" in out
        assert "sums=[0, 0, 0]" in out

    def test_check_flag_reports_oracle_agreement(self, capsys, tmp_path,
                                                 weights_file, rng):
        d = tmp_path / "imgs"
        d.mkdir()
        for i in range(5):
            write_gray_pgm(d / f"img{i}.pgm",
                           rng.integers(0, 2, size=(64, 64)) * 255)
        code, out, _ = run_cli(capsys, "infer", "--weights", str(weights_file),
                               "--images", str(d), "--check")
        assert code == 0
        assert "oracle agreement: 5/5" in out

    @pytest.mark.parametrize("sigma", ["-5", "nan", "inf"])
    def test_bad_noise_sigma_single_line_error(self, capsys, tmp_path, sigma):
        img = tmp_path / "black.pgm"
        write_gray_pgm(img, np.zeros((64, 64), dtype=np.uint8))
        code, out, err = run_cli(capsys, "infer", "--images", str(img),
                                 "--noise-sigma", sigma)
        assert (code, out) == (1, "")
        assert err == (f"error: noise sigma must be a finite number >= 0, "
                       f"got {float(sigma)!r}\n")

    def test_missing_weights_single_line_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "infer", "--weights",
                                 str(tmp_path / "nope.json"),
                                 "--images", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_lower_rejects_non_power_of_two_grid_without_output(tmp_path, capsys):
    # a 3x3 grid of 64-pixel blocks cannot be replicated by doubling
    weights = tmp_path / "weights.json"
    weights.write_text(save_weights(
        random_model(1, geometry=PlaneGeometry(192, 192, 3, 64))))
    out = tmp_path / "low"
    code, stdout, err = run_cli(capsys, "lower", "--weights", str(weights),
                                "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == ("error: stage replicate: block grid must be a power of two "
                   "for replication\n")
    assert not out.exists()


def test_lower_rejects_mistyped_weights_without_output(tmp_path, capsys):
    parsed = json.loads(save_weights(random_model(1)))
    parsed["classes"] = "abc"
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(parsed))
    out = tmp_path / "low"
    code, stdout, err = run_cli(capsys, "lower", "--weights", str(weights),
                                "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "error: field 'classes' must be a list of strings, got 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("option, value, error", [
    pytest.param("--epochs", "0", "epochs must be >= 1, got 0", id="epochs-0"),
    pytest.param("--batch-size", "0", "batch size must be >= 1, got 0",
                 id="batch-size-0"),
    pytest.param("--lr", "nan", "learning rate must be a finite number >= 0, got nan",
                 id="lr-nan"),
    pytest.param("--lr", "inf", "learning rate must be a finite number >= 0, got inf",
                 id="lr-inf"),
    pytest.param("--lr", "-1", "learning rate must be a finite number >= 0, got -1.0",
                 id="lr-negative"),
    pytest.param("--seed", "-1", "seed must be >= 0, got -1", id="seed-negative"),
    pytest.param("--epochs", "nan", "argument --epochs: invalid int value: 'nan'",
                 id="epochs-nan"),
])
def test_train_rejects_bad_settings_without_output(tmp_path, capsys, dataset_dir,
                                                   option, value, error):
    out = tmp_path / "run"
    code, stdout, err = run_cli(capsys, "train", "--dataset", str(dataset_dir),
                                option, value, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: {error}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    assert main(["gen", "--seed", "2", "--n-train", "1", "--n-test", "1",
                 "--out", str(d)]) == 0
    return d


BAD_LABELS = st.one_of(st.booleans(), st.text(max_size=3), st.integers(max_value=-1),
                       st.integers(min_value=3))
BAD_PGMS = st.one_of(
    st.just(b""),
    st.sampled_from([b"P2", b"P6", b"P5x", b"PGM"]).map(
        lambda magic: magic + b"\n64 64\n255\n" + b"\0" * 64 * 64),
    st.sampled_from([b"0", b"1", b"65535", b"x"]).map(
        lambda maxval: b"P5\n64 64\n" + maxval + b"\n" + b"\0" * 64 * 64),
    st.integers(0, 64 * 64 - 1).map(lambda n: b"P5\n64 64\n255\n" + b"\0" * n),
    st.tuples(st.integers(0, 80), st.integers(0, 80))
    .filter(lambda hw: hw != (64, 64))
    .map(lambda hw: b"P5\n%d %d\n255\n" % (hw[1], hw[0]) + b"\0" * (hw[0] * hw[1])),
)
BAD_VALUES = st.one_of(st.sampled_from(["0", "nan", "inf", "-inf"]),
                       st.integers(max_value=-1).map(str),
                       st.floats(max_value=-1e-9, allow_infinity=False).map(repr))
TRAIN_MUTATIONS = st.one_of(
    st.tuples(st.just("label"), st.sampled_from(["train", "test"]),
              st.integers(0, 2), BAD_LABELS),
    st.tuples(st.just("missing"), st.sampled_from(["train", "test"]),
              st.integers(0, 2), st.none()),
    st.tuples(st.just("pgm"), st.sampled_from(["train", "test"]),
              st.integers(0, 2), BAD_PGMS),
    st.tuples(st.just("option"),
              st.sampled_from(["--epochs", "--batch-size", "--lr", "--seed"]),
              st.none(), BAD_VALUES),
)


@given(mutation=TRAIN_MUTATIONS)
@settings(max_examples=120, deadline=None)
@example(mutation=("label", "train", 0, True))
@example(mutation=("label", "test", 1, -1))
@example(mutation=("label", "train", 2, 3))
@example(mutation=("missing", "train", 1, None))
@example(mutation=("pgm", "train", 0, b"P5\n32 32\n255\n" + b"\0" * 32 * 32))
@example(mutation=("pgm", "test", 0, b"P5\n32 32\n255\n" + b"\0" * 32 * 32))
@example(mutation=("option", "--epochs", None, "nan"))
@example(mutation=("option", "--seed", None, "-1"))
@example(mutation=("option", "--lr", None, "0"))
@example(mutation=("option", "--seed", None, "0"))
def test_train_meets_the_error_contract(tiny_dataset_dir, mutation):
    """`train` on one mutated manifest label, data file or option either
    writes its weights and log, or prints one `error:` line and no --out."""
    kind, where, index, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        ds, out = os.path.join(tmp, "ds"), os.path.join(tmp, "out")
        shutil.copytree(tiny_dataset_dir, ds)
        argv = ["train", "--dataset", ds, "--epochs", "1", "--out", out]
        if kind == "option":
            argv += [where, value]
        else:
            with open(os.path.join(ds, "manifest.json")) as f:
                manifest = json.load(f)
            entry = manifest[where][index]
            if kind == "label":
                entry["label"] = value
                with open(os.path.join(ds, "manifest.json"), "w") as f:
                    json.dump(manifest, f)
            elif kind == "missing":
                os.remove(os.path.join(ds, entry["file"]))
            else:
                with open(os.path.join(ds, entry["file"]), "wb") as f:
                    f.write(value)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            assert sorted(os.listdir(out)) == ["log.csv", "weights.json"]
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err and stdout.getvalue() == ""
            assert not os.path.exists(out)
        # a learning rate or seed of 0 is valid; every other mutation is not
        assert (code == 0) == (kind == "option" and where in ("--lr", "--seed")
                               and value == "0")


def _run_quietly(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


# one value put in place of a weights header field or of one kernel or FC
# weight: wrong types, bools, strings, NaN, +-inf, numbers other than +-1
# and class names that repeat
BAD_WEIGHT_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.integers(-3, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -1.5, 1.0, -1.0, [1], {},
                     ["a", "a", "c"]]))
# images with dims below 1x1 as well as the malformed ones train meets
INFER_PGMS = st.one_of(
    BAD_PGMS,
    st.tuples(st.integers(-80, 0), st.integers(-80, 80)).map(
        lambda hw: b"P5\n%d %d\n255\n" % hw[::-1] + b"\0" * 64 * 64),
)
WEIGHT_FIELDS = st.sampled_from(["version", "k", "block_size", "block_grid", "classes",
                                 "kernels", "fc"])
INFER_MUTATIONS = st.one_of(
    st.tuples(st.just("weights"), WEIGHT_FIELDS, BAD_WEIGHT_VALUES),
    st.tuples(st.just("pgm"), st.none(), INFER_PGMS),
    st.tuples(st.just("option"), st.just("--noise-sigma"), BAD_VALUES),
    st.tuples(st.just("option"), st.just("--seed"),
              st.one_of(BAD_VALUES, st.sampled_from(["2", "1.5"]))),
    st.tuples(st.just("option"), st.just("--mode"),
              st.one_of(st.text(max_size=12), st.sampled_from(["ideal", "saturating",
                                                               "IDEAL", " ideal"]))),
)


def _valid_infer_mutation(kind, where, value) -> bool:
    """A weight equal to +-1 (a bool True included, as numpy reads it), the
    version's own value 1, a noise sigma of 0, a seed that is an integer
    >= 0 and either mode are valid."""
    if kind == "weights":
        if where in ("kernels", "fc"):
            return isinstance(value, (int, float)) and value in (1, -1)
        return where == "version" and type(value) is int and value == 1
    if where == "--seed":
        return _valid_number(where, value, SEED_INTS, {})
    if kind == "option":
        return value in (("0",) if where == "--noise-sigma" else ("ideal", "saturating"))
    return False


@given(mutation=INFER_MUTATIONS)
@settings(max_examples=120, deadline=None)
@example(mutation=("pgm", None, b"P5\n0 0\n255\n"))
@example(mutation=("pgm", None, b"P5\n-64 -64\n255\n"))
@example(mutation=("weights", "kernels", True))
@example(mutation=("weights", "kernels", math.nan))
@example(mutation=("weights", "fc", "1"))
@example(mutation=("weights", "fc", -math.inf))
@example(mutation=("weights", "k", True))
@example(mutation=("weights", "version", 1))
@example(mutation=("option", "--noise-sigma", "nan"))
@example(mutation=("option", "--noise-sigma", "0"))
@example(mutation=("option", "--mode", "saturating"))
@example(mutation=("option", "--mode", "IDEAL"))
@example(mutation=("option", "--mode", "0"))
@example(mutation=("option", "--seed", "-1"))
@example(mutation=("option", "--seed", "2"))
def test_infer_meets_the_error_contract(mutation):
    """`infer --check` with one mutated weight, image or option either
    prints its sums and the oracle's agreement, or prints one `error:`
    line and nothing on stdout. A seed is tried under noise and without
    `--check`, whose oracle the noisy sums would not match."""
    kind, where, value = mutation
    doc = json.loads(save_weights(random_model(5)))
    image = b"P5\n64 64\n255\n" + np.random.default_rng(5).integers(
        0, 2, 64 * 64, dtype=np.uint8).tobytes() * 255
    argv = ["--check"]
    if kind == "weights":
        if where in ("kernels", "fc"):
            inner = doc[where]
            while isinstance(inner[0], list):
                inner = inner[0]
            inner[0] = value
        else:
            doc[where] = value
    elif kind == "pgm":
        image = value
    elif where == "--seed":
        argv = ["--noise-sigma", "1", where, value]
    else:
        argv += [where, value]
    with tempfile.TemporaryDirectory() as tmp:
        weights, pgm = os.path.join(tmp, "w.json"), os.path.join(tmp, "x.pgm")
        with open(weights, "w") as f:
            json.dump(doc, f)
        with open(pgm, "wb") as f:
            f.write(image)
        code, out, err = _run_quietly(["infer", "--weights", weights, "--images", pgm,
                                       *argv])
    if code == 0:
        assert err == ""
        if "--check" in argv:
            assert out.endswith("oracle_agreement=yes\noracle agreement: 1/1\n")
        else:
            assert out.startswith("x.pgm: sums=") and out.count("\n") == 1
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and out == ""
    assert (code == 0) == _valid_infer_mutation(kind, where, value)


COST_FIELDS = st.sampled_from(["add", "sub", "neg", "copy", "max", "shift", "thresh",
                               "logic", "pattern", "gsum", "overhead_us"])
LOWER_BENCH_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["lower", "bench"]), st.just("weights"), WEIGHT_FIELDS,
              BAD_WEIGHT_VALUES),
    st.tuples(st.just("bench"), st.just("cost"), COST_FIELDS, BAD_WEIGHT_VALUES),
)


@given(mutation=LOWER_BENCH_MUTATIONS)
@settings(max_examples=120, deadline=None)
@example(mutation=("lower", "weights", "kernels", 0))
@example(mutation=("lower", "weights", "fc", math.inf))
@example(mutation=("lower", "weights", "block_grid", True))
@example(mutation=("bench", "weights", "k", "3"))
@example(mutation=("bench", "cost", "add", math.nan))
@example(mutation=("bench", "cost", "shift", -math.inf))
@example(mutation=("bench", "cost", "gsum", True))
@example(mutation=("bench", "cost", "pattern", -1))
@example(mutation=("bench", "cost", "overhead_us", 0))
@example(mutation=("bench", "cost", "max", "1"))
def test_lower_and_bench_meet_the_error_contract(mutation):
    """`lower` and `bench` with one mutated weight or cost-table field
    either write their outputs, or print one `error:` line, nothing on
    stdout and no --out."""
    command, kind, where, value = mutation
    doc = json.loads(save_weights(random_model(5)))
    cost = json.loads(resources.files("scampsim.data").joinpath(
        "default_cost.json").read_text())
    if kind == "cost":
        cost[where] = value
    elif where in ("kernels", "fc"):
        inner = doc[where]
        while isinstance(inner[0], list):
            inner = inner[0]
        inner[0] = value
    else:
        doc[where] = value
    with tempfile.TemporaryDirectory() as tmp:
        weights, table = os.path.join(tmp, "w.json"), os.path.join(tmp, "c.json")
        out = os.path.join(tmp, "out")
        with open(weights, "w") as f:
            json.dump(doc, f)
        with open(table, "w") as f:
            json.dump(cost, f)
        argv = ([command, "--weights", weights, "--out", out] if command == "lower"
                else [command, "--weights", weights, "--cost-table", table])
        code, stdout, err = _run_quietly(argv)
        if code == 0:
            assert err == ""
            if command == "lower":
                assert re.fullmatch(rf"lowered \d+ instructions to {re.escape(out)}\n",
                                    stdout), stdout
                assert sorted(os.listdir(out)) == ["plan.json", "program.txt"]
            else:
                assert re.fullmatch(r"latency_us=\d+\.\d fps=\d+\n", stdout), stdout
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err and stdout == ""
            assert not os.path.exists(out)
    if kind == "cost":
        # a finite number >= 0, not a bool, is a cost
        valid = (not isinstance(value, bool) and isinstance(value, (int, float))
                 and 0 <= value < math.inf)
    else:
        valid = _valid_infer_mutation(kind, where, value)
    assert (code == 0) == valid


# gen's numeric options and their valid values: integers in [lo, hi], or
# numbers that pass the test
GEN_INTS = {"--seed": (0, math.inf), "--n-train": (1, math.inf),
            "--n-test": (0, math.inf)}
GEN_RANGES = {"--rotation": lambda v: 0 <= v <= sys.float_info.max / 2,
              "--translation": lambda v: 0 <= v <= sys.float_info.max / 2,
              "--scale": lambda v: 0 <= v < 1, "--boundary-flip": lambda v: 0 <= v <= 1}
# BAD_VALUES and valid or large values near the ranges' ends; no count past 2
OPTION_VALUES = st.one_of(BAD_VALUES, st.sampled_from(
    ["0.5", "1", "2", "1e308", repr(sys.float_info.max / 2)]))


def _valid_number(option, text, ints, ranges) -> bool:
    if option in ints:
        lo, hi = ints[option]
        return re.fullmatch(r"-?\d+", text) is not None and lo <= int(text) <= hi
    return ranges[option](float(text))


@given(option=st.sampled_from([*GEN_INTS, *GEN_RANGES]), value=OPTION_VALUES)
@settings(max_examples=120, deadline=None)
@example(option="--seed", value="-1")
@example(option="--n-test", value="-1")
@example(option="--n-test", value="0")
@example(option="--rotation", value="-5")
@example(option="--translation", value="1e308")
@example(option="--translation", value=repr(sys.float_info.max / 2))
@example(option="--boundary-flip", value="-0.5")
@example(option="--boundary-flip", value="2")
@example(option="--boundary-flip", value="1")
@example(option="--scale", value="2")
@example(option="--scale", value="1")
@example(option="--scale", value="0.5")
def test_gen_meets_the_error_contract(option, value):
    """`gen` with one mutated option either writes its samples and manifest,
    or prints one `error:` line, nothing on stdout and no --out."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = {"--n-train": "1", "--n-test": "1", option: value, "--out": out}
        code, stdout, err = _run_quietly(["gen", *[w for kv in argv.items() for w in kv]])
        if code == 0:
            assert err == ""
            n = 3 * (int(argv["--n-train"]) + int(argv["--n-test"]))
            assert stdout.startswith("wrote ") and len(os.listdir(out)) == n + 1
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err and stdout == ""
            assert not os.path.exists(out)
    assert (code == 0) == _valid_number(option, value, GEN_INTS, GEN_RANGES)


# loop's numeric options, as gen's; --fps is valid while its frame interval
# is finite and rounds to at least 1 us
SEED_INTS = {"--seed": (0, math.inf)}
LOOP_INTS = {"--duration-us": (0, math.inf), "--servos": (1, 5), **SEED_INTS}
LOOP_RANGES = {"--fps": lambda v: 0 < v < 2e6 and math.isfinite(1e6 / v),
               "--noise-sigma": lambda v: 0 <= v < math.inf}
LOOP_DUMP_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["loop", "dump"]), st.just("weights"), WEIGHT_FIELDS,
              BAD_WEIGHT_VALUES),
    st.tuples(st.sampled_from(["loop", "dump"]), st.just("pgm"), st.none(), INFER_PGMS),
    st.tuples(st.sampled_from(["loop", "dump"]), st.just("option"),
              st.just("--noise-sigma"), BAD_VALUES),
    st.tuples(st.sampled_from(["loop", "dump"]), st.just("option"),
              st.just("--seed"), OPTION_VALUES),
    st.tuples(st.just("loop"), st.just("cost"), COST_FIELDS, BAD_WEIGHT_VALUES),
    st.tuples(st.just("loop"), st.just("option"), st.just("--fps"),
              st.one_of(OPTION_VALUES, st.just("500"))),
    st.tuples(st.just("loop"), st.just("option"), st.just("--duration-us"), OPTION_VALUES),
    st.tuples(st.just("loop"), st.just("option"), st.just("--servos"),
              st.one_of(OPTION_VALUES, st.sampled_from(["6", "1000000000"]))),
)


@given(mutation=LOOP_DUMP_MUTATIONS)
@settings(max_examples=60, deadline=None)
@example(mutation=("loop", "option", "--servos", "1000000000"))
@example(mutation=("loop", "option", "--servos", "6"))
@example(mutation=("loop", "option", "--servos", "2"))
@example(mutation=("loop", "option", "--fps", "500"))
@example(mutation=("loop", "option", "--duration-us", "0"))
@example(mutation=("loop", "cost", "gsum", True))
@example(mutation=("loop", "weights", "fc", 1))
@example(mutation=("dump", "weights", "kernels", math.nan))
@example(mutation=("dump", "weights", "classes", ["a", "a", "c"]))
@example(mutation=("dump", "pgm", None, b"P5\n0 0\n255\n"))
@example(mutation=("dump", "option", "--noise-sigma", "0"))
@example(mutation=("dump", "option", "--seed", "-1"))
@example(mutation=("loop", "option", "--seed", "-1"))
@example(mutation=("loop", "option", "--seed", "1"))
def test_loop_and_dump_meet_the_error_contract(mutation):
    """`loop` and `dump` with one mutated weight, frame, cost-table field or
    option either write their outputs, or print one `error:` line, nothing
    on stdout and no --out. A seed is tried under noise, where it is used."""
    command, kind, where, value = mutation
    doc = json.loads(save_weights(random_model(5)))
    cost = json.loads(resources.files("scampsim.data").joinpath(
        "default_cost.json").read_text())
    image = b"P5\n64 64\n255\n" + np.random.default_rng(5).integers(
        0, 2, 64 * 64, dtype=np.uint8).tobytes() * 255
    options = {}
    if kind == "weights" and where in ("kernels", "fc"):
        inner = doc[where]
        while isinstance(inner[0], list):
            inner = inner[0]
        inner[0] = value
    elif kind == "weights":
        doc[where] = value
    elif kind == "cost":
        cost[where] = value
    elif kind == "pgm":
        image = value
    else:
        options[where] = value
        if where == "--seed":
            options["--noise-sigma"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        weights, table = os.path.join(tmp, "w.json"), os.path.join(tmp, "c.json")
        pgm, out = os.path.join(tmp, "x.pgm"), os.path.join(tmp, "out")
        with open(weights, "w") as f:
            json.dump(doc, f)
        with open(table, "w") as f:
            json.dump(cost, f)
        with open(pgm, "wb") as f:
            f.write(image)
        if command == "loop":
            argv = {"--frames": pgm, "--cost-table": table, "--duration-us": "2000"}
        else:
            argv = {"--image": pgm}
        argv |= {"--weights": weights, "--out": out, **options}
        code, stdout, err = _run_quietly([command, *[w for kv in argv.items() for w in kv]])
        if code == 0:
            assert err == ""
            if command == "loop":
                assert stdout.startswith("frames=")
                assert sorted(os.listdir(out)) == ["reaction.csv", "timeline.csv"]
            else:
                assert stdout.startswith("sums=")
                assert len(os.listdir(out)) == 5 + len(doc["classes"])
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err and stdout == ""
            assert not os.path.exists(out)
    if kind == "cost":
        valid = (not isinstance(value, bool) and isinstance(value, (int, float))
                 and 0 <= value < math.inf)
    elif kind == "option":
        valid = _valid_number(where, value, LOOP_INTS, LOOP_RANGES)
    else:
        valid = _valid_infer_mutation(kind, where, value)
    assert (code == 0) == valid


def _all_plus_one_k12() -> str:
    """Weights whose conv reaches 144 on an all-ones input: past 127."""
    m = random_model(0, k=12)
    m.kernels[:] = 1
    return save_weights(m)


# the k = 12 all-+1 weights and an all-ones 64x64 input, in saturating mode
K12_SATURATING = {"w.json": _all_plus_one_k12(),
                  "ones.pgm": b"P5\n64 64\n255\n" + b"\xff" * 64 * 64}
K12_REFUSED = ("instruction 405 (add): passes the saturating range of 127; the "
               "program can reach magnitude 144")
# weights whose class names repeat: dump would write one plane for two classes
REPEATED_CLASSES = json.dumps(json.loads(save_weights(random_model(0)))
                              | {"classes": ["a", "a", "c"]})


@pytest.mark.parametrize("command, setup, error", [
    pytest.param(["lower", "--weights", "w.json", "--out", "out"], {"w.json": "5"},
                 "weights document must be a JSON object, got 5", id="weights-5"),
    pytest.param(["train", "--dataset", "ds", "--out", "out"],
                 {"ds/manifest.json": "{}"},
                 "manifest field 'train' must be a list of entries with a 'file' "
                 "name and an integer 'label'", id="manifest-empty"),
    pytest.param(["train", "--dataset", "ds", "--out", "out"],
                 {"ds/manifest.json": "{"},
                 "manifest is not valid JSON: Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1)", id="manifest-not-json"),
    pytest.param(["gen", "--n-train", "2", "--rotation", "nan", "--out", "out"], {},
                 "rotation_deg must be a finite number, got nan", id="rotation-nan"),
    pytest.param(["gen", "--seed", "-1", "--out", "out"], {},
                 "seed must be >= 0, got -1", id="gen-seed-negative"),
    pytest.param(["gen", "--n-train", "-1", "--out", "out"], {},
                 "n_train_per_class must be >= 1, got -1", id="gen-n-train-negative"),
    pytest.param(["gen", "--n-test", "-1", "--out", "out"], {},
                 "n_test_per_class must be >= 0, got -1", id="gen-n-test-negative"),
    pytest.param(["gen", "--rotation", "-5", "--out", "out"], {},
                 "rotation_deg must be in [0, 8.988465674311579e+307], got -5.0",
                 id="gen-rotation-negative"),
    pytest.param(["gen", "--translation", "1e308", "--out", "out"], {},
                 "translation_px must be in [0, 8.988465674311579e+307], got 1e+308",
                 id="gen-translation-1e308"),
    pytest.param(["gen", "--scale", "2", "--out", "out"], {},
                 "scale must be in [0, 1), got 2.0", id="gen-scale-2"),
    pytest.param(["gen", "--boundary-flip", "-0.5", "--out", "out"], {},
                 "boundary_flip must be in [0, 1], got -0.5", id="gen-boundary-flip"),
    pytest.param(["loop", "--frames", "missing.pgm", "--servos", "1000000000",
                  "--out", "out"], {},
                 "--servos must be 1..5, got 1000000000", id="loop-servos-1e9"),
    # infer takes no --out: it must print nothing before the error
    pytest.param(["infer", "--weights", "w.json", "--mode", "saturating", "--check",
                  "--images", "ones.pgm"], K12_SATURATING, K12_REFUSED,
                 id="infer-saturating-k12"),
    pytest.param(["dump", "--weights", "w.json", "--mode", "saturating",
                  "--image", "ones.pgm", "--out", "out"], K12_SATURATING,
                 K12_REFUSED, id="dump-saturating-k12"),
    pytest.param(["loop", "--weights", "w.json", "--mode", "saturating",
                  "--frames", "ones.pgm", "--duration-us", "2000", "--out", "out"],
                 K12_SATURATING, K12_REFUSED, id="loop-saturating-k12"),
    pytest.param(["bench", "--cost-table", "c.json"], {"c.json": '{"add": Infinity}'},
                 "cost table field 'add' must be a finite number >= 0, got inf",
                 id="cost-infinity"),
    pytest.param(["loop", "--cost-table", "c.json", "--frames", "ones.pgm",
                  "--duration-us", "2000", "--out", "out"],
                 {"c.json": '{"add": true}', "ones.pgm": K12_SATURATING["ones.pgm"]},
                 "cost table field 'add' must be a finite number >= 0, got True",
                 id="cost-bool"),
    pytest.param(["bench", "--cost-table", "c.json"], {"c.json": "5"},
                 "cost table must be a JSON object, got 5", id="cost-5"),
    pytest.param(["dump", "--weights", "w.json", "--image", "ones.pgm", "--out", "out"],
                 {"w.json": REPEATED_CLASSES, "ones.pgm": K12_SATURATING["ones.pgm"]},
                 "class names must be distinct, got 'a' twice", id="dump-repeated-class"),
    pytest.param(["infer", "--images", "empty.pgm"], {"empty.pgm": b"P5\n0 0\n255\n"},
                 "PGM dims 0x0 must be at least 1x1", id="infer-pgm-0x0"),
    pytest.param(["infer", "--images", "negative.pgm"],
                 {"negative.pgm": b"P5\n-64 -64\n255\n"},
                 "PGM dims -64x-64 must be at least 1x1", id="infer-pgm-negative"),
    pytest.param(["infer", "--images", "letters.pgm"],
                 {"letters.pgm": b"P5\nab 64\n255\n" + b"\0" * 4096},
                 "PGM width 'ab' is not a decimal integer", id="infer-pgm-letters"),
    pytest.param(["dump", "--image", "imgs", "--out", "out"],
                 {f"imgs/{n}.pgm": K12_SATURATING["ones.pgm"] for n in "abc"},
                 "dump takes one image, found 3 PGM files in imgs", id="dump-directory"),
    # numpy would see the seed only at the first noise draw, or never
    pytest.param(["infer", "--noise-sigma", "1", "--seed", "-1", "--images", "ones.pgm"],
                 {"ones.pgm": K12_SATURATING["ones.pgm"]},
                 "noise seed must be an integer >= 0, got -1", id="infer-noise-seed"),
    pytest.param(["loop", "--seed", "-1", "--frames", "ones.pgm", "--out", "out"],
                 {"ones.pgm": K12_SATURATING["ones.pgm"]},
                 "noise seed must be an integer >= 0, got -1", id="loop-seed-no-noise"),
])
def test_malformed_input_single_line_error_without_output(tmp_path, capsys,
                                                          monkeypatch, command,
                                                          setup, error):
    monkeypatch.chdir(tmp_path)
    for name, data in setup.items():
        os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
        if isinstance(data, bytes):
            (tmp_path / name).write_bytes(data)
        else:
            (tmp_path / name).write_text(data)
    code, stdout, err = run_cli(capsys, *command)
    assert (code, stdout) == (1, "")
    assert err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


# sha256 prefixes of every file `dump` writes for the default model and the
# input below: the planes' type must change no byte of them
DUMP_DIGESTS = {
    "ideal": {
        "fc_class_paper.pgm": "711a328c0bf39f1c",
        "fc_class_rock.pgm": "838b08f481ef833e",
        "fc_class_scissors.pgm": "325f97f80810b588",
        "input_64.pgm": "8085fa6b00b1c261",
        "post_conv.pgm": "1b3764ebaf2389dc",
        "post_maxpool.pgm": "0f19902240974e60",
        "post_relu.pgm": "1b3764ebaf2389dc",
        "post_replicate.pgm": "505c0cfbe230988d",
    },
    "saturating": {
        "fc_class_paper.pgm": "c08b575913006e2a",
        "fc_class_rock.pgm": "e35ee97cf886d67d",
        "fc_class_scissors.pgm": "050b2c94bb29868a",
        "input_64.pgm": "8085fa6b00b1c261",
        "post_conv.pgm": "9ebd24774009fdea",
        "post_maxpool.pgm": "da39463825b4d9bb",
        "post_relu.pgm": "e54dccb7f371790f",
        "post_replicate.pgm": "4194fc503fe11774",
    },
}


@pytest.mark.parametrize("mode", DUMP_DIGESTS)
def test_dump_files_keep_their_bytes(tmp_path, capsys, mode):
    img = tmp_path / "in.pgm"
    write_gray_pgm(img, np.random.default_rng(4).integers(0, 2, (64, 64)) * 255)
    out = tmp_path / "dump"
    code, stdout, err = run_cli(capsys, "dump", "--image", str(img),
                                "--mode", mode, "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout.startswith("sums=[-580, 1188, -148] predicted=paper")
    assert {n: hashlib.sha256((out / n).read_bytes()).hexdigest()[:16]
            for n in sorted(os.listdir(out))} == DUMP_DIGESTS[mode]


class TestReproducibility:
    def test_gen_outputs_byte_identical(self, tmp_path, capsys):
        for d in ("one", "two"):
            assert main(["gen", "--seed", "9", "--n-train", "3", "--n-test", "1",
                         "--out", str(tmp_path / d)]) == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path / "one"))
        assert names == sorted(os.listdir(tmp_path / "two"))
        for n in names:
            assert (tmp_path / "one" / n).read_bytes() == \
                (tmp_path / "two" / n).read_bytes()

    def test_lower_outputs_byte_identical(self, tmp_path, capsys, weights_file):
        for d in ("one", "two"):
            assert main(["lower", "--weights", str(weights_file),
                         "--out", str(tmp_path / d)]) == 0
        capsys.readouterr()
        for n in ("program.txt", "plan.json"):
            assert (tmp_path / "one" / n).read_bytes() == \
                (tmp_path / "two" / n).read_bytes()


class TestLoopAndDump:
    def test_loop_writes_timeline_and_reactions(self, tmp_path, capsys,
                                                weights_file, dataset_dir):
        out = tmp_path / "loop"
        code, stdout, _ = run_cli(
            capsys, "loop", "--weights", str(weights_file),
            "--frames", str(dataset_dir / "train_00000_rock.pgm"),
            "--fps", "500", "--duration-us", "50000", "--out", str(out))
        assert code == 0
        header = (out / "timeline.csv").read_text().splitlines()[0]
        assert header == "t_us,event,servo_id,class,angle"
        assert (out / "reaction.csv").exists()

    # 3e6 fps rounds the frame interval to 0 us, -5 makes it negative and
    # 1e-320 makes it infinite
    @pytest.mark.parametrize("fps", ["0", "-5", "nan", "3e6", "1e-320"])
    def test_loop_rejects_fps_without_output(self, tmp_path, capsys,
                                             dataset_dir, fps):
        out = tmp_path / "loop"
        code, stdout, err = run_cli(
            capsys, "loop", "--frames", str(dataset_dir / "train_00000_rock.pgm"),
            "--fps", fps, "--duration-us", "1000", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: --fps must give a finite frame interval of at " \
                      f"least 1 us, got {float(fps):g}\n"
        assert err.count("\n") == 1
        assert not out.exists()

    def test_loop_rejects_negative_duration_without_output(self, tmp_path, capsys,
                                                           dataset_dir):
        out = tmp_path / "loop"
        code, stdout, err = run_cli(
            capsys, "loop", "--frames", str(dataset_dir / "train_00000_rock.pgm"),
            "--duration-us", "-5", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error: duration must be >= 0 us, got -5\n"
        assert not out.exists()

    def test_dump_writes_every_stage(self, tmp_path, capsys, weights_file,
                                     dataset_dir):
        out = tmp_path / "dump"
        code, stdout, _ = run_cli(
            capsys, "dump", "--weights", str(weights_file),
            "--image", str(dataset_dir / "train_00000_rock.pgm"),
            "--out", str(out))
        assert code == 0
        for stage in ("replicate", "conv", "relu", "maxpool"):
            assert (out / f"post_{stage}.pgm").exists()
        for cls in ("rock", "paper", "scissors"):
            assert (out / f"fc_class_{cls}.pgm").exists()

    def test_dump_draws_noise_as_infer_does(self, tmp_path, capsys, dataset_dir):
        """dump's slices draw the noise of each global sum in the order that
        one run of the whole program does."""
        img = str(dataset_dir / "train_00000_rock.pgm")

        def sums(*argv):
            code, stdout, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            return re.search(r"sums=(\[.*?\])", stdout)[1]

        noisy = ["--noise-sigma", "3", "--seed", "7"]
        dumped = sums("dump", "--image", img, "--out", str(tmp_path / "dump"), *noisy)
        assert dumped == sums("infer", "--images", img, *noisy)
        assert dumped != sums("infer", "--images", img)

    def test_dump_failing_after_its_stage_planes_leaves_no_output(
            self, tmp_path, capsys, monkeypatch, dataset_dir):
        encode_pgm, encoded, encoded_by_failure = pnm.encode_pgm, [], []

        def encode(*args):
            encoded.append(args)
            return encode_pgm(*args)

        def fail(state, src):
            encoded_by_failure.append(len(encoded))
            raise RuntimeError("forced failure")

        monkeypatch.setattr(pnm, "encode_pgm", encode)
        monkeypatch.setattr(ArrayState, "global_sum_of", fail)
        out = tmp_path / "dump"
        code, stdout, err = run_cli(
            capsys, "dump", "--image", str(dataset_dir / "train_00000_rock.pgm"),
            "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: forced failure\n")
        # replicate, conv, relu and maxpool were encoded before the FC's
        # first global sum failed
        assert encoded_by_failure == [4]
        assert not out.exists()

    def test_non_default_geometry_runs_infer_dump_and_loop(self, tmp_path, capsys,
                                                           rng):
        # a 2x2 grid of 32-pixel blocks on a 64x64 array
        weights = tmp_path / "weights.json"
        weights.write_text(save_weights(
            random_model(1, geometry=PlaneGeometry(64, 64, 2, 32))))
        img = tmp_path / "frame.pgm"
        write_gray_pgm(img, rng.integers(0, 2, size=(64, 64)) * 255)
        code, out, err = run_cli(capsys, "infer", "--weights", str(weights),
                                 "--images", str(img), "--check")
        assert (code, err) == (0, "")
        assert "oracle agreement: 1/1" in out
        code, _, err = run_cli(capsys, "dump", "--weights", str(weights),
                               "--image", str(img), "--out", str(tmp_path / "dump"))
        assert (code, err) == (0, "")
        assert (tmp_path / "dump" / "post_maxpool.pgm").exists()
        assert (tmp_path / "dump" / "input_32.pgm").exists()
        code, _, err = run_cli(capsys, "loop", "--weights", str(weights),
                               "--frames", str(img), "--duration-us", "20000",
                               "--out", str(tmp_path / "loop"))
        assert (code, err) == (0, "")
        assert (tmp_path / "loop" / "timeline.csv").exists()
