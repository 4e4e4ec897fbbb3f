import json
import os

import numpy as np
import pytest

from scampsim.cli import main
from scampsim.geometry import PlaneGeometry
from scampsim.model import random_model, save_weights
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
