import json
import multiprocessing
import os
import re
import sys
import types
import warnings

import numpy as np
import pytest

from fdbridge import cli, degradation, parallel, sampler
from fdbridge.cli import DEFAULT_CONFIG, main, validate_config
from fdbridge.correction import save_schedule
from fdbridge.degradation import ProcessConfig, sample_trajectory
from fdbridge.errors import ConfigError
from fdbridge.fileio import read_cimg, read_csv, read_json, read_kmsk, write_cimg
from fdbridge.grid import radius_map
from fdbridge.metrics import psnr, ssim
from fdbridge.phantoms import save_dataset
from fdbridge.recovery import TinyRegressor, load_checkpoint, save_checkpoint
from fdbridge.rng import child_seed
from fdbridge.sampler import ddpm_schedule

from conftest import constant_schedule, die, edit_checkpoint_architecture, needs_workers, raising, with_header

SMALL_CONFIG = {
    "seed": 11,
    "data": {"dims": 32, "count": 4, "contrast": "t1_like"},
    "process": {"R_prime": 2.0, "T_f": 8},
    "sampler": {"R": 4.0, "correction": "learned"},
    "train": {"learning_rate": 0.02, "epochs": 2, "batch": 2},
}

# every run-config setting: the top-level seed, then (section, key)
SETTINGS = [("seed",)] + [
    (section, key) for section, keys in DEFAULT_CONFIG.items() if isinstance(keys, dict) for key in keys
]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfigValidation:
    def test_defaults_fill_missing_sections(self):
        cfg = validate_config({"seed": 3})
        assert cfg["process"]["T_f"] == 64
        assert cfg["sampler"]["dc_every_step"] is True

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            validate_config({"nope": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="process.wat"):
            validate_config({"process": {"wat": 1}})

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            validate_config({"seed": "not-an-int"})
        with pytest.raises(ConfigError):
            validate_config({"sampler": {"dc_every_step": "yes"}})

    @pytest.mark.parametrize("path", SETTINGS, ids=".".join)
    def test_each_setting_has_its_default_type(self, path):
        *section, key = path
        default = (DEFAULT_CONFIG[section[0]] if section else DEFAULT_CONFIG)[key]
        name = ".".join(path)

        def read(value):
            cfg = validate_config({section[0]: {key: value}} if section else {key: value})
            return (cfg[section[0]] if section else cfg)[key]

        assert read(default) == default and type(read(default)) is type(default)
        with pytest.raises(ConfigError, match=re.escape(f"{name}: expected")):
            read(3 if isinstance(default, str) else "3")
        if type(default) in (int, float):
            with pytest.raises(ConfigError, match=re.escape(f"{name}: expected")):
                read(True)
        if isinstance(default, bool):
            with pytest.raises(ConfigError, match=re.escape(f"{name}: expected")):
                read(1)
        if isinstance(default, float):
            assert read(3) == 3.0 and type(read(3)) is float


    @pytest.mark.parametrize(
        "bad",
        [{"process": {"T_f": 0}}, {"process": {"density": "bogus"}}, {"train": {"epochs": -1}}],
        ids=["T_f", "density", "epochs"],
    )
    def test_every_section_is_checked_before_anything_is_written(self, tmp_path, bad):
        # phantom reads none of these sections, yet must not record them
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(bad))
        out = tmp_path / "out"
        assert run("phantom", "--config", str(config), "--out", str(out)) == 1
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand(self, tmp_path, capsys):
        assert run("frobnicate", "--out", str(tmp_path)) == 1

    def test_unknown_flag(self, tmp_path):
        assert run("phantom", "--out", str(tmp_path), "--bogus") == 1

    def test_config_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"unknown_key": 1}')
        assert run("phantom", "--config", str(bad), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("content", [None, "{not json", "\xff"], ids=["missing", "malformed", "not-utf8"])
    def test_unreadable_config_is_one(self, tmp_path, capsys, content):
        config = tmp_path / "bad.json"
        if content is not None:
            config.write_bytes(content.encode("latin-1"))
        out = tmp_path / "o"
        assert run("phantom", "--config", str(config), "--out", str(out)) == 1
        assert not out.exists()
        assert str(config) in capsys.readouterr().err
        assert run("replay", str(config), "--out", str(out)) == 1
        assert not out.exists()

    def test_negative_trajectory_length_is_one(self, tmp_path, config_path, capsys):
        out = tmp_path / "fwd"
        assert run("forward", "--config", config_path, "--out", str(out), "--t-total", "-1") == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_out_of_range_is_one(self, tmp_path, config_path, capsys, monkeypatch):
        # rejected before the trajectory, which takes seconds at paper scale, is drawn
        monkeypatch.setattr(cli, "sample_trajectory", lambda *a, **k: pytest.fail("trajectory drawn"))
        out = tmp_path / "fwd"
        assert run("forward", "--config", config_path, "--out", str(out), "--snapshots", "99") == 1
        assert "snapshot step 99 out of range [0, 8]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_mask_count_below_one_is_one(self, tmp_path, config_path, capsys, count):
        out = tmp_path / "masks"
        assert run("mask", "--config", config_path, "--out", str(out), "--count", count) == 1
        assert f"--count must be >= 1, got {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_eval_count_below_one_is_one(self, tmp_path, config_path, capsys, monkeypatch):
        # rejected, naming the flag, before any data is generated or fdb's model, which takes seconds at the
        # default config, is trained
        monkeypatch.setattr(cli, "generate_dataset", lambda *a, **k: pytest.fail("data generated"))
        monkeypatch.setattr(cli, "_train_model", lambda *a, **k: pytest.fail("model trained"))
        out = tmp_path / "abl"
        assert run("ablate", "--config", config_path, "--out", str(out), "--eval-count", "0") == 1
        assert "--eval-count must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [[1], {"flags": {}}, {"command": "phantom", "flags": [], "config": {}},
                                          {"command": "phantom", "flags": {}, "config": 3}],
                             ids=["list", "no-command", "flags-list", "config-number"])
    def test_unusable_replay_manifest_is_one(self, tmp_path, capsys, manifest):
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert run("replay", str(path), "--out", str(out)) == 1
        assert f"{path} is not a run manifest" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_without_an_output_directory_is_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps({"command": "phantom", "flags": {}, "config": {}}))
        assert run("replay", str(path)) == 1
        assert "names no output directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run_manifest.json"]

    def test_runtime_failure_is_two(self, tmp_path):
        # readable inputs on which the metric fails: a reference with no signal has no PSNR peak
        blank = tmp_path / "blank.cimg"
        write_cimg(blank, np.zeros((8, 8), dtype=np.complex128))
        out = tmp_path / "m"
        assert run("metrics", "--out", str(out), "--ref", str(blank), "--test", str(blank)) == 2
        # the failure is recorded, and nothing else is written
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
        manifest = read_json(out / "run_manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["error"] == "ValueError: reference peak must be > 0, got 0.0"
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("case", [
        "schedule_missing",
        "schedule_header",
        "schedule_weight_not_a_number",
        "schedule_weight_above_one",
        "schedule_weight_nan",
        "schedule_row_without_weight",
        "schedule_without_rows",
        "schedule_sidecar_list",
        "image_not_cimg",
        "image_header_cut",
        "forward_image_not_cimg",
        "checkpoint_missing",
        "dataset_manifest_without_ids",
        "dataset_file_not_cimg",
        "metrics_ref_not_cimg",
        "metrics_test_not_cimg",
        "metrics_dataset_without_ids",
        "image_nan",
        "forward_image_nan",
        "dataset_file_nan",
        "metrics_ref_nan",
    ])
    def test_bad_input_file_is_one(self, tmp_path, config_path, capsys, case):
        """A missing or malformed input file is a config error that names the file and writes nothing."""
        save_schedule(tmp_path / "good", constant_schedule(8, 0.5), r_prime=2.0, seed=0)  # the config's process
        schedule, sidecar = tmp_path / "schedule.csv", tmp_path / "schedule.json"
        sidecar.write_text(json.dumps({"R_prime": 2.0, "T_f": 8}))
        rows = "".join(f"{t},0.5\n" for t in range(2, 9))
        schedule.write_text({
            "schedule_header": "step,weight\n1,1.0\n" + rows,
            "schedule_weight_not_a_number": "t,w\n1,one\n" + rows,
            "schedule_weight_above_one": "t,w\n1,1.5\n" + rows,
            "schedule_weight_nan": "t,w\n1,nan\n" + rows,
            "schedule_row_without_weight": "t,w\n1\n" + rows,
            "schedule_without_rows": "t,w\n",
        }.get(case, "t,w\n1,1.0\n" + rows))
        if case == "schedule_sidecar_list":
            sidecar.write_text("[2.0, 8]")
        text = tmp_path / "text.cimg"
        text.write_text("not an image\n")
        cut = tmp_path / "cut.cimg"
        cut.write_bytes(b"CIMG1\x00\x20\x00")  # the magic, then half the height
        image = tmp_path / "image.cimg"
        write_cimg(image, np.ones((32, 32), dtype=np.complex128))
        nan = tmp_path / "nan.cimg"  # the writer refuses NaN, so the payload is written by hand
        body = np.ones((32, 32, 2), dtype="<f8")
        body[5, 7, 0] = np.nan
        nan.write_bytes(image.read_bytes()[:14] + body.tobytes())
        dataset = tmp_path / "ds"
        save_dataset(dataset, [np.ones((32, 32), dtype=np.complex128)] * 2, "t1_like", 0)
        (dataset / "manifest.json").write_text(json.dumps({"count": 2}))
        good = ["--schedule", str(tmp_path / "good" / "schedule.csv")]
        missing = tmp_path / "missing"
        bad_file, argv = {
            "schedule_missing": (missing, ["reconstruct", "--schedule", str(missing)]),
            "image_not_cimg": (text, ["reconstruct", *good, "--image", str(text)]),
            "image_header_cut": (cut, ["reconstruct", *good, "--image", str(cut)]),
            "forward_image_not_cimg": (text, ["forward", "--image", str(text)]),
            "checkpoint_missing": (missing, ["reconstruct", *good, "--checkpoint", str(missing)]),
            "dataset_manifest_without_ids": (dataset, ["train", "--dataset", str(dataset)]),
            "dataset_file_not_cimg": (text, ["train", "--dataset", str(text)]),
            "metrics_ref_not_cimg": (text, ["metrics", "--ref", str(text), "--test", str(image)]),
            "metrics_test_not_cimg": (text, ["metrics", "--ref", str(image), "--test", str(text)]),
            "metrics_dataset_without_ids": (dataset, ["metrics", "--ref", str(dataset), "--test", str(dataset)]),
            "image_nan": (nan, ["reconstruct", *good, "--image", str(nan)]),
            "forward_image_nan": (nan, ["forward", "--image", str(nan)]),
            "dataset_file_nan": (nan, ["train", "--dataset", str(nan)]),
            "metrics_ref_nan": (nan, ["metrics", "--ref", str(nan), "--test", str(image)]),
        }.get(case, (sidecar if "sidecar" in case else schedule, ["reconstruct", "--schedule", str(schedule)]))
        out = tmp_path / "out"
        assert run(*argv, "--config", config_path, "--out", str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read") and str(bad_file) in err

    @pytest.mark.parametrize("command", ["metrics", "estimate-w"])
    def test_mismatched_shapes_are_one(self, tmp_path, config_path, capsys, command):
        """Input images whose shapes do not fit together are a config error naming both, and write nothing."""
        small, large = np.ones((32, 32), dtype=np.complex128), np.ones((40, 40), dtype=np.complex128)
        ref, test = tmp_path / "ref.cimg", tmp_path / "test.cimg"
        write_cimg(ref, small)
        write_cimg(test, large)
        save_dataset(tmp_path / "ds", [small, large], "t1_like", 0)
        argv = {
            "metrics": ["--ref", str(ref), "--test", str(test)],
            "estimate-w": ["--dataset", str(tmp_path / "ds")],
        }[command]
        out = tmp_path / "out"
        assert run(command, *argv, "--config", config_path, "--out", str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "(32, 32)" in err and "(40, 40)" in err
        if command == "metrics":
            assert str(ref) in err and str(test) in err

    def test_success_is_zero(self, tmp_path, config_path):
        assert run("phantom", "--config", config_path, "--out", str(tmp_path / "ds")) == 0


class TestPhantom:
    def test_dataset_layout_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "ds"
        assert run("phantom", "--config", config_path, "--out", str(out)) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["count"] == 4
        assert len(manifest["ids"]) == 4
        for name in manifest["ids"]:
            img = read_cimg(out / "images" / name)
            assert img.shape == (32, 32)
        run_manifest = read_json(out / "run_manifest.json")
        assert run_manifest["command"] == "phantom"
        assert "images/0000.cimg" in run_manifest["outputs"]

    def test_seed_override_changes_data(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("phantom", "--config", config_path, "--out", str(a))
        run("phantom", "--config", config_path, "--seed", "99", "--out", str(b))
        img_a = read_cimg(a / "images" / "0000.cimg")
        img_b = read_cimg(b / "images" / "0000.cimg")
        assert not np.array_equal(img_a, img_b)


class TestMaskAndForward:
    def test_mask_artifacts(self, tmp_path, config_path):
        out = tmp_path / "masks"
        assert run("mask", "--config", config_path, "--out", str(out), "--count", "2",
                   "--density", "normal1d") == 0
        meta = read_json(out / "masks.json")
        assert meta["count"] == 2 and meta["density"] == "normal1d"
        for name in meta["files"]:
            mask = read_kmsk(out / name)
            assert np.array_equal(mask, np.repeat(mask[0][None, :], 32, axis=0))

    def test_forward_snapshots(self, tmp_path, config_path):
        out = tmp_path / "fwd"
        assert run("forward", "--config", config_path, "--out", str(out),
                   "--snapshots", "0,4,8") == 0
        meta = read_json(out / "trajectory.json")
        assert meta["T_f"] == 8 and meta["n"] == 64
        assert sorted(meta["mask_files"]) == ["0", "4", "8"]
        mask0 = read_kmsk(out / meta["mask_files"]["0"])
        assert mask0.all()
        mask8 = read_kmsk(out / meta["mask_files"]["8"])
        assert mask8.sum() == 32 * 32 // 2
        corrupted = read_cimg(out / "corrupted_t0008.cimg")
        original = read_cimg(out / "original.cimg")
        assert np.linalg.norm(corrupted) <= np.linalg.norm(original) * (1 + 1e-12)

    def test_forward_with_no_steps(self, tmp_path, config_path):
        out = tmp_path / "fwd"
        assert run("forward", "--config", config_path, "--out", str(out), "--t-total", "0") == 0
        meta = read_json(out / "trajectory.json")
        assert meta["T_total"] == 0 and meta["step_counts"] == []
        assert read_kmsk(out / meta["mask_files"]["0"]).all()

    def test_forward_at_paper_scale(self, tmp_path):
        # 256^2, T_f = 1000, R' = 2: the paper's forward-process settings
        config = tmp_path / "paper.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "data": {**SMALL_CONFIG["data"], "dims": 256},
                                      "process": {"R_prime": 2.0, "T_f": 1000}}))
        out = tmp_path / "fwd"
        assert run("forward", "--config", str(config), "--out", str(out), "--snapshots", "0,1000") == 0
        meta = read_json(out / "trajectory.json")
        kept = read_kmsk(out / meta["mask_files"]["1000"])
        assert abs(int(kept.sum()) - 256 * 256 // 2) <= meta["n"]

        grid = radius_map(256, 256)
        proc = ProcessConfig(r_prime=2.0, t_f=1000, seed=child_seed(SMALL_CONFIG["seed"], "trajectory"))
        traj = sample_trajectory(grid, proc)
        assert np.array_equal(kept, traj.keep_mask(1000))
        assert read_kmsk(out / meta["mask_files"]["0"]).all()
        assert meta["step_counts"] == traj.counts.tolist()
        assert meta["relaxed_steps"] == traj.relaxation_count


class TestEstimateW:
    def test_first_row_weight_is_one(self, tmp_path, config_path):
        out = tmp_path / "west"
        assert run("estimate-w", "--config", config_path, "--out", str(out), "--no-plot") == 0
        header, rows = read_csv(out / "schedule.csv")
        assert header == ["t", "w"]
        assert rows[0][0] == "1" and float(rows[0][1]) == 1.0
        meta = read_json(out / "schedule.json")
        assert sorted(meta) == ["R_prime", "T_f", "provenance", "seed"]
        assert meta["provenance"] == "monte_carlo"
        assert meta["R_prime"] == 2.0 and meta["T_f"] == 8

    def test_default_config_schedule_does_not_warn(self, tmp_path):
        # the exact schedule of the default 64^2 data and process rises nowhere by more than the tolerance
        out = tmp_path / "west"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("estimate-w", "--out", str(out), "--no-plot") == 0
        assert read_json(out / "schedule.json")["T_f"] == 64

    def test_plot_is_written_whole(self, tmp_path, config_path, monkeypatch):
        # a stub matplotlib whose figure writes a PNG signature to the file object it is given
        class Figure:
            def tight_layout(self):
                pass

            def savefig(self, fh, **kwargs):
                assert kwargs.get("format") == "png"
                fh.write(b"\x89PNG\r\n\x1a\n")

        axes = types.SimpleNamespace(**{name: lambda *a, **k: None
                                        for name in ("plot", "set_xlabel", "set_ylabel", "set_title", "grid")})
        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda **kwargs: (Figure(), axes)
        pyplot.close = lambda fig: None
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.use = lambda backend: None
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)

        out = tmp_path / "west"
        assert run("estimate-w", "--config", config_path, "--out", str(out)) == 0
        assert (out / "schedule.png").read_bytes() == b"\x89PNG\r\n\x1a\n"
        assert "schedule.png" in read_json(out / "run_manifest.json")["outputs"]
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


class TestTrainReconstruct:
    def test_pipeline(self, tmp_path, config_path):
        ds, west, tr, rec = (tmp_path / n for n in ("ds", "west", "tr", "rec"))
        assert run("phantom", "--config", config_path, "--out", str(ds)) == 0
        assert run("estimate-w", "--config", config_path, "--out", str(west),
                   "--dataset", str(ds), "--no-plot") == 0
        assert run("train", "--config", config_path, "--out", str(tr),
                   "--dataset", str(ds)) == 0
        model, header = load_checkpoint(tr / "checkpoint.ckpt")
        assert header["T_f"] == 8
        trace_header, trace_rows = read_csv(tr / "loss_trace.csv")
        assert trace_header == ["epoch", "loss"] and len(trace_rows) == 2

        assert run("reconstruct", "--config", config_path, "--out", str(rec),
                   "--checkpoint", str(tr / "checkpoint.ckpt"),
                   "--schedule", str(west / "schedule.csv")) == 0
        summary = read_json(rec / "summary.json")
        assert summary["T_r"] == 12  # floor(8 * 3 * 2 / 4)
        assert summary["relaxed_steps"] == 0
        _, diag = read_csv(rec / "diagnostics.csv")
        assert len(diag) == 12
        meas = read_json(rec / "measurement" / "measurement.json")
        assert meas["R"] == 4.0 and meas["C"] == 1
        ref = read_cimg(rec / "reference.cimg")
        recon = read_cimg(rec / "recon.cimg")
        assert summary["psnr_recon_db"] == pytest.approx(psnr(ref, recon), rel=1e-12)

    @pytest.mark.parametrize("case", [
        "forward_image_shape",
        "reconstruct_checkpoint_horizon",
        "ddpm_checkpoint_horizon",
        "checkpoint_architecture",
        "checkpoint_not_a_checkpoint",
        "checkpoint_short_block",
        "checkpoint_header_not_object",
        "checkpoint_header_no_T_f",
        "checkpoint_header_seed_string",
        "checkpoint_header_no_source",
        "reconstruct_ddpm_checkpoint",
        "ddpm_reconstruct_bridge_checkpoint",
        "learned_correction_without_schedule",
        "ddpm_train_steps",
        "ddpm_reconstruct_steps",
        "power_law_schedule",
        "train_dataset_mixed_shapes",
        "train_dataset_other_dims",
        "estimate_w_dataset_other_dims",
    ])
    def test_config_error_leaves_out_empty(self, tmp_path, config_path, capsys, case):
        image = tmp_path / "image.cimg"
        write_cimg(image, np.ones((48, 48), dtype=np.complex128))  # the config's dims are 32
        bridge = ProcessConfig(r_prime=2.0, t_f=8)  # the config's process
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, TinyRegressor(t_f=4, seed=0), bridge)  # the config's T_f is 8
        ddpm21 = tmp_path / "ddpm21.ckpt"  # a DDPM checkpoint of 21 steps
        save_checkpoint(ddpm21, TinyRegressor(t_f=21, seed=0), ddpm_schedule(21))
        ddpm8 = tmp_path / "ddpm8.ckpt"  # the config's T_f, trained on the DDPM source
        save_checkpoint(ddpm8, TinyRegressor(t_f=8, seed=0), ddpm_schedule(30))
        bridge30 = tmp_path / "bridge30.ckpt"  # a bridge checkpoint on the DDPM run's 30 steps
        save_checkpoint(bridge30, TinyRegressor(t_f=30, seed=0), ProcessConfig(r_prime=2.0, t_f=30))
        narrow = tmp_path / "narrow.ckpt"  # the config's T_f, but a header stating 8 hidden channels
        save_checkpoint(narrow, TinyRegressor(t_f=8, seed=0), bridge)
        edit_checkpoint_architecture(narrow, lambda arch: arch.update(hidden=8))
        text = tmp_path / "text.ckpt"
        text.write_text("not a checkpoint\n")
        short = tmp_path / "short.ckpt"  # the config's T_f, one parameter short
        save_checkpoint(short, TinyRegressor(t_f=8, seed=0), bridge)
        short.write_bytes(short.read_bytes()[:-8])
        headers = {  # the config's T_f and a whole parameter block under a malformed header
            "checkpoint_header_not_object": lambda h: [h],
            "checkpoint_header_no_T_f": lambda h: {k: v for k, v in h.items() if k != "T_f"},
            "checkpoint_header_seed_string": lambda h: {**h, "seed": "zero"},
            "checkpoint_header_no_source": lambda h: {k: v for k, v in h.items() if k != "source"},
        }
        header = tmp_path / "header.ckpt"
        save_checkpoint(header, TinyRegressor(t_f=8, seed=0), bridge)
        if case in headers:
            header.write_bytes(with_header(header.read_bytes(), headers[case]))
        save_schedule(tmp_path, constant_schedule(8, 0.5), r_prime=2.0, seed=0)
        power_law = tmp_path / "power_law"  # not a schedule provenance
        save_schedule(power_law, constant_schedule(8, 0.5), r_prime=2.0, seed=0)
        meta = read_json(power_law / "schedule.json")
        (power_law / "schedule.json").write_text(json.dumps({**meta, "provenance": "power_law"}))
        small, large = np.ones((32, 32), dtype=np.complex128), np.ones((40, 40), dtype=np.complex128)
        save_dataset(tmp_path / "mixed", [small, large], "t1_like", 0)
        save_dataset(tmp_path / "large", [large, large], "t1_like", 0)
        argv = {
            "forward_image_shape": ["forward", "--image", str(image)],
            "reconstruct_checkpoint_horizon": ["reconstruct", "--checkpoint", str(checkpoint),
                                               "--schedule", str(tmp_path / "schedule.csv")],
            "ddpm_checkpoint_horizon": ["ddpm-reconstruct", "--checkpoint", str(ddpm21),
                                        "--ddpm-steps", "30"],
            "reconstruct_ddpm_checkpoint": ["reconstruct", "--checkpoint", str(ddpm8),
                                            "--schedule", str(tmp_path / "schedule.csv")],
            "ddpm_reconstruct_bridge_checkpoint": ["ddpm-reconstruct", "--checkpoint", str(bridge30),
                                                   "--ddpm-steps", "30"],
            "checkpoint_architecture": ["reconstruct", "--checkpoint", str(narrow),
                                        "--schedule", str(tmp_path / "schedule.csv")],
            "checkpoint_not_a_checkpoint": ["reconstruct", "--checkpoint", str(text),
                                            "--schedule", str(tmp_path / "schedule.csv")],
            "checkpoint_short_block": ["reconstruct", "--checkpoint", str(short),
                                       "--schedule", str(tmp_path / "schedule.csv")],
            **{name: ["reconstruct", "--checkpoint", str(header), "--schedule", str(tmp_path / "schedule.csv")]
               for name in headers},
            "learned_correction_without_schedule": ["reconstruct"],
            # T <= beta_max = 20 would put beta_T at or above 1
            "ddpm_train_steps": ["train", "--corruption", "ddpm", "--ddpm-steps", "10"],
            "ddpm_reconstruct_steps": ["ddpm-reconstruct", "--ddpm-steps", "10"],
            "power_law_schedule": ["reconstruct", "--schedule", str(power_law / "schedule.csv")],
            "train_dataset_mixed_shapes": ["train", "--dataset", str(tmp_path / "mixed")],
            "train_dataset_other_dims": ["train", "--dataset", str(tmp_path / "large")],
            "estimate_w_dataset_other_dims": ["estimate-w", "--dataset", str(tmp_path / "large")],
        }[case]
        out = tmp_path / "out"
        assert run(*argv, "--config", config_path, "--out", str(out)) == 1
        assert not out.exists()
        reason = {  # the checkpoint's refusal names what does not match
            "reconstruct_checkpoint_horizon": "trained with T_f=4, but this run queries it on 8 steps",
            "ddpm_checkpoint_horizon": "trained with T_f=21, but this run queries it on 30 steps",
            "checkpoint_header_no_source": "trained on source=None, but this run samples the 'bridge' source",
            "reconstruct_ddpm_checkpoint": "trained on source='ddpm', but this run samples the 'bridge' source",
            "ddpm_reconstruct_bridge_checkpoint": "trained on source='bridge', but this run samples the 'ddpm' source",
            # each dataset image is checked against the config's dims (32), the first that differs named
            "train_dataset_mixed_shapes": f"{tmp_path / 'mixed' / 'images' / '0001.cimg'} has shape (40, 40), "
                                          "but data.dims asks for (32, 32)",
            "train_dataset_other_dims": f"{tmp_path / 'large' / 'images' / '0000.cimg'} has shape (40, 40), "
                                        "but data.dims asks for (32, 32)",
            "estimate_w_dataset_other_dims": f"{tmp_path / 'large' / 'images' / '0000.cimg'} has shape (40, 40), "
                                             "but data.dims asks for (32, 32)",
        }.get(case, "")
        assert reason in capsys.readouterr().err

    def test_short_schedule_writes_nothing(self, tmp_path, config_path, capsys):
        # a CSV-only schedule of any length but T_f (8) is a config error, found before --out is made
        for rows in (4, 16):
            save_schedule(tmp_path, constant_schedule(rows, 0.5), r_prime=2.0, seed=0)
            (tmp_path / "schedule.json").unlink()  # the row count is checked without metadata too
            out = tmp_path / f"r{rows}"
            assert run("reconstruct", "--config", config_path, "--out", str(out),
                       "--schedule", str(tmp_path / "schedule.csv")) == 1, rows
            assert f"holds {rows} rows, but the process has T_f=8" in capsys.readouterr().err
            assert not out.exists(), rows

    @pytest.mark.parametrize("case,code", [
        ("other_process", 1), ("rows_differ", 1), ("unedited", 0), ("csv_only", 0),
    ])
    def test_schedule_metadata_must_match_process(self, tmp_path, config_path, capsys, case, code):
        # the config's process is R_prime=2, T_f=8
        save_schedule(tmp_path, constant_schedule(12 if case == "rows_differ" else 8, 0.5), r_prime=2.0, seed=0)
        meta_path = tmp_path / "schedule.json"
        meta = read_json(meta_path)
        if case == "other_process":
            meta_path.write_text(json.dumps({**meta, "R_prime": 4.0, "T_f": 64}))
        elif case == "rows_differ":
            meta_path.write_text(json.dumps({**meta, "T_f": 8}))
        elif case == "csv_only":
            meta_path.unlink()
        out = tmp_path / "r"
        assert run("reconstruct", "--config", config_path, "--out", str(out),
                   "--schedule", str(tmp_path / "schedule.csv")) == code
        err = capsys.readouterr().err
        if case == "other_process":
            assert "R_prime=4.0, T_f=64" in err and "R_prime=2.0, T_f=8" in err
        elif case == "rows_differ":
            assert "T_f=8" in err and "holds 12 rows" in err
        if code:
            assert not out.exists()
        else:
            assert (out / "recon.cimg").exists()

    def test_misnumbered_schedule_writes_nothing(self, tmp_path, config_path):
        save_schedule(tmp_path, constant_schedule(8, 0.5), r_prime=2.0, seed=0)
        csv = tmp_path / "schedule.csv"
        lines = csv.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # t = 2, 1, 3, ...
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r"
        assert run("reconstruct", "--config", config_path, "--out", str(out), "--schedule", str(csv)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "phantom", "mask", "forward", "estimate-w", "train", "reconstruct", "ddpm-reconstruct", "ablate", "metrics",
    ])
    def test_manifest_lists_every_output(self, tmp_path, config_path, command):
        image = tmp_path / "image.cimg"
        write_cimg(image, np.ones((32, 32), dtype=np.complex128))
        save_schedule(tmp_path, constant_schedule(8, 0.5), r_prime=2.0, seed=0)
        measurement = ["image", "coils", "noise_sigma", "mask_density", "calib", "checkpoint", "recovery"]
        # the extra argv, one file the run must write, and the flags that replay reads back
        extra, written, flags = {
            "phantom": ([], "images/0003.cimg", []),
            "mask": (["--count", "2"], "mask_01.kmsk", ["density", "calib", "count"]),
            "forward": (["--image", str(image)], "mask_t0008.kmsk", ["snapshots", "t_total", "image"]),
            "estimate-w": ([], "schedule.json", ["dataset", "no_plot"]),
            "train": ([], "checkpoint.ckpt", ["dataset", "corruption", "ddpm_steps"]),
            "reconstruct": (["--coils", "2", "--recovery", "oracle", "--schedule", str(tmp_path / "schedule.csv")],
                            "measurement/sens_01.cimg", measurement + ["schedule"]),
            "ddpm-reconstruct": (["--coils", "2", "--recovery", "oracle", "--ddpm-steps", "30"],
                                 "measurement/sens_01.cimg", measurement + ["ddpm_steps"]),
            "ablate": (["--eval-count", "1"], "ablation.csv",
                       ["eval_count", "coils", "noise_sigma", "mask_density", "calib"]),
            "metrics": (["--ref", str(image), "--test", str(image)], "metrics.csv", ["ref", "test"]),
        }[command]
        out = tmp_path / "out"
        assert run(command, "--config", config_path, "--out", str(out), *extra) == 0
        on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        on_disk.remove("run_manifest.json")
        assert written in on_disk
        manifest = read_json(out / "run_manifest.json")
        assert manifest["outputs"] == on_disk
        assert sorted(manifest["flags"]) == sorted(flags)

    def test_manifest_omits_files_the_run_did_not_write(self, tmp_path, config_path):
        out = tmp_path / "ds"
        (out / "images").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        write_cimg(out / "images" / "0009.cimg", np.ones((32, 32), dtype=np.complex128))
        assert run("phantom", "--config", config_path, "--out", str(out)) == 0
        outputs = read_json(out / "run_manifest.json")["outputs"]
        assert outputs == ["images/0000.cimg", "images/0001.cimg", "images/0002.cimg", "images/0003.cimg",
                           "manifest.json"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_replay_into_the_same_out_lists_the_same_outputs(self, tmp_path, config_path):
        out = tmp_path / "fwd"
        assert run("forward", "--config", config_path, "--out", str(out), "--snapshots", "0,8") == 0
        first = read_json(out / "run_manifest.json")
        assert run("replay", str(out / "run_manifest.json")) == 0
        again = read_json(out / "run_manifest.json")
        assert again["outputs"] == first["outputs"]
        assert "corrupted_t0008.cimg" in first["outputs"]
        assert (again["flags"], again["out"]) == (first["flags"], first["out"])

    def test_ddpm_reconstruct_smoke(self, tmp_path, config_path):
        out = tmp_path / "drec"
        assert run("ddpm-reconstruct", "--config", config_path, "--out", str(out),
                   "--ddpm-steps", "30") == 0
        assert (out / "recon.cimg").exists()
        _, diag = read_csv(out / "diagnostics.csv")
        assert len(diag) == 30


class TestAblate:
    def test_seven_variant_rows(self, tmp_path, config_path):
        out = tmp_path / "abl"
        assert run("ablate", "--config", config_path, "--out", str(out),
                   "--eval-count", "2") == 0
        header, rows = read_csv(out / "ablation.csv")
        assert header == ["variant", "psnr_mean", "psnr_std", "ssim_mean", "ssim_std"]
        assert [r[0] for r in rows] == [
            "fdb", "ct_uniform", "n_log_schedule", "xt_averaging",
            "ct_fixed", "no_correction", "wt_linear",
        ]
        for row in rows:
            assert np.isfinite(float(row[1])) and np.isfinite(float(row[3]))
        flags = read_json(out / "run_manifest.json")["flags"]
        assert sorted(flags) == sorted(
            ["eval_count", "coils", "noise_sigma", "mask_density", "calib"]
        )

    @needs_workers
    def test_same_bytes_at_any_process_count(self, tmp_path, config_path, monkeypatch):
        # 14 cells: 3 processes run 5, 5 and 4 of them, so only a fold in cell order gives the same rows
        tables = []
        for k in (1, 2, 3):
            monkeypatch.setattr(parallel, "share_count", lambda n, k=k: min(k, n))
            out = tmp_path / f"abl{k}"
            assert run("ablate", "--config", config_path, "--out", str(out),
                       "--eval-count", "2") == 0
            tables.append((out / "ablation.csv").read_bytes())
        assert tables[1] == tables[0] and tables[2] == tables[0]

    def test_variants_share_models_and_schedules_by_key(self, tmp_path, config_path, monkeypatch):
        # one model per source, under the first such variant's seed tag, and one schedule per process,
        # made of the training images and the process alone
        trained, estimated = [], []
        train_model, estimate_weights = cli._train_model, cli.estimate_weights

        def spy_train(cfg, images, source, *tags, **kwargs):
            trained.append((source.kind, tags))
            return train_model(cfg, images, source, *tags, **kwargs)

        def spy_estimate(images, process, *args, **kwargs):
            estimated.append((process.density, process.step_count_schedule, args, kwargs))
            return estimate_weights(images, process)

        monkeypatch.setattr(cli, "_train_model", spy_train)
        monkeypatch.setattr(cli, "estimate_weights", spy_estimate)
        assert run("ablate", "--config", config_path, "--out", str(tmp_path / "abl"), "--eval-count", "1") == 0
        assert trained == [
            ("bridge", ("fdb",)), ("bridge", ("ct_uniform",)), ("bridge", ("n_log_schedule",)),
            ("averaging", ("xt_averaging",)),
        ]
        assert estimated == [
            ("radius_scheduled", "constant", (), {}),
            ("uniform", "constant", (), {}),
            ("radius_scheduled", "log", (), {}),
        ]


class TestMetrics:
    def test_matches_library_values(self, tmp_path, config_path):
        ds = tmp_path / "ds"
        run("phantom", "--config", config_path, "--out", str(ds))
        other = tmp_path / "ds2"
        run("phantom", "--config", config_path, "--seed", "77", "--out", str(other))
        out = tmp_path / "met"
        assert run("metrics", "--out", str(out), "--ref", str(ds), "--test", str(other)) == 0
        header, rows = read_csv(out / "metrics.csv")
        assert header == ["ref", "test", "psnr_db", "ssim"]
        assert len(rows) == 4
        a = read_cimg(ds / "images" / rows[0][0])
        b = read_cimg(other / "images" / rows[0][1])
        assert float(rows[0][2]) == pytest.approx(psnr(a, b), rel=1e-12)
        assert float(rows[0][3]) == pytest.approx(ssim(a, b), rel=1e-12)


class TestReplayDeterminism:
    def test_path_flags_resolve_where_they_are_given(self, tmp_path, config_path, monkeypatch):
        image = tmp_path / "data" / "image.cimg"
        write_cimg(image, np.ones((32, 32), dtype=np.complex128))
        monkeypatch.chdir(tmp_path / "data")
        assert run("metrics", "--out", str(tmp_path / "m1"), "--ref", "image.cimg", "--test", "./image.cimg") == 0
        flags = read_json(tmp_path / "m1" / "run_manifest.json")["flags"]
        assert flags == {"ref": str(image.resolve()), "test": str(image.resolve())}
        monkeypatch.chdir(tmp_path)  # where image.cimg names no file
        assert run("replay", str(tmp_path / "m1" / "run_manifest.json"), "--out", str(tmp_path / "m2")) == 0
        assert (tmp_path / "m1" / "metrics.csv").read_bytes() == (tmp_path / "m2" / "metrics.csv").read_bytes()


    def test_estimate_w_replay_byte_identical(self, tmp_path, config_path):
        w1, w2 = tmp_path / "w1", tmp_path / "w2"
        assert run("estimate-w", "--config", config_path, "--out", str(w1), "--no-plot") == 0
        assert run("replay", str(w1 / "run_manifest.json"), "--out", str(w2)) == 0
        assert (w1 / "schedule.csv").read_bytes() == (w2 / "schedule.csv").read_bytes()

    def test_phantom_replay_byte_identical(self, tmp_path, config_path):
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        run("phantom", "--config", config_path, "--out", str(p1))
        assert run("replay", str(p1 / "run_manifest.json"), "--out", str(p2)) == 0
        for name in read_json(p1 / "manifest.json")["ids"]:
            assert (p1 / "images" / name).read_bytes() == (p2 / "images" / name).read_bytes()


class TestRunManifest:
    @pytest.mark.parametrize("command", ["phantom", "mask"])
    def test_records_peak_memory(self, tmp_path, config_path, command):
        out = tmp_path / command
        assert run(command, "--config", config_path, "--out", str(out)) == 0
        manifest = read_json(out / "run_manifest.json")
        assert manifest["status"] == "ok" and manifest["error"] is None
        assert isinstance(manifest["peak_rss_mb"], float)
        assert manifest["peak_rss_mb"] > 0.0
        assert manifest["wall_time_s"] >= 0.0

    @needs_workers
    @pytest.mark.parametrize("fail,error", [
        (die, "WorkerError: training worker 1 exited without answering"),
        (raising(ValueError("draw one")), "ValueError: draw one"),
    ], ids=["worker-died", "worker-raised"])
    def test_worker_failure_is_recorded(self, tmp_path, config_path, monkeypatch, capsys, fail, error):
        def draw(grid, process, t_total):
            if multiprocessing.parent_process() is not None:  # samples 1, 3, ..., in the worker
                fail()
            return sample_trajectory(grid, process, t_total=t_total)

        monkeypatch.setattr(parallel, "share_count", lambda n: 2)
        monkeypatch.setattr(degradation, "sample_trajectory", draw)
        out = tmp_path / "tr"
        assert run("train", "--config", config_path, "--out", str(out)) == 2
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err == f"error: {error}\n"
        manifest = read_json(out / "run_manifest.json")
        assert (manifest["status"], manifest["error"], manifest["outputs"]) == ("failed", error, [])
        assert manifest["command"] == "train" and manifest["wall_time_s"] > 0.0

    @needs_workers
    @pytest.mark.parametrize("fail,error", [
        (die, "WorkerError: ablation worker 1 exited without answering"),
        (raising(ValueError("cell one")), "ValueError: cell one"),
    ], ids=["worker-died", "worker-raised"])
    def test_ablation_cell_failure_is_recorded(self, tmp_path, config_path, monkeypatch, capsys, fail, error):
        def reconstruct(*args, **kwargs):
            if multiprocessing.parent_process() is not None:  # cells 1, 3, ..., in the worker
                fail()
            return sampler.reconstruct(*args, **kwargs)

        monkeypatch.setattr(parallel, "share_count", lambda n: min(2, n))
        monkeypatch.setattr(cli, "reconstruct", reconstruct)
        out = tmp_path / "abl"
        assert run("ablate", "--config", config_path, "--out", str(out), "--eval-count", "1") == 2
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err == f"error: {error}\n"
        manifest = read_json(out / "run_manifest.json")
        assert (manifest["status"], manifest["error"], manifest["outputs"]) == ("failed", error, [])
        assert not (out / "ablation.csv").exists()

    def test_peak_memory_counts_the_largest_child(self, monkeypatch):
        # a joined worker that peaked above the process is the run's peak, and the process's own peak otherwise
        import resource

        for own, child in ((1024, 4096), (4096, 1024)):
            peaks = {resource.RUSAGE_SELF: own, resource.RUSAGE_CHILDREN: child}
            monkeypatch.setattr(resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=peaks[who]))
            unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
            assert cli._peak_rss_mb() == 4096 / unit

    def test_peak_memory_is_null_without_resource_module(self, tmp_path, config_path, monkeypatch):
        # a None entry in sys.modules makes ``import resource`` raise ImportError, as on Windows
        monkeypatch.setitem(sys.modules, "resource", None)
        out = tmp_path / "mask"
        assert run("mask", "--config", config_path, "--out", str(out)) == 0
        assert read_json(out / "run_manifest.json")["peak_rss_mb"] is None
