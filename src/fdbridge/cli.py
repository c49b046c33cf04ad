"""Batch command-line front end.

Every subcommand reads a JSON run config (strictly validated: unknown
keys are rejected, all seeds are explicit), writes its artifacts under
--out, and last drops a run manifest that allows exact replay (``fdb
replay <manifest>``), with path flags resolved as they are parsed.  Each
file is written to a temporary name and renamed, so it appears under its
final name only once it is complete, and the manifest's ``outputs`` are
read off the disk: the files under --out that are new or have a new
inode.  The manifest's ``status`` is "ok", or "failed" for a run that
failed at run time, whose ``error`` says why and whose ``outputs`` are
what it wrote before it failed.  A config error writes nothing, not even
--out itself.  Exit codes: 0 success, 1 config error (a missing or
malformed input file among them), 2 runtime failure.

``reconstruct``, ``ddpm-reconstruct`` and ``ablate`` share one path:
simulate the acquisition of a reference image (``_acquire``), sample it
(``_bridge_sampler`` for ``reconstruct`` and each ablation cell), and
score the result by PSNR and SSIM against the reference (``_score``);
``ablate`` runs its variant x image cells in ``parallel.Workers``.
``train`` and each ablation variant train the recovery operator through
one recipe.  Inputs are loaded and checked before anything is written.
"""

from __future__ import annotations

import argparse
import copy
import functools
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .correction import estimate_weights, load_schedule, save_schedule
from .degradation import AveragingProcess, ProcessConfig, corrupt, export_trajectory, sample_trajectory
from .errors import ConfigError
from .fileio import atomic_write_bytes, read_cimg, read_json, write_cimg, write_csv, write_json, write_kmsk
from .grid import KSpaceGrid
from .imaging import (
    MASK_DENSITIES,
    ImagingSystem,
    adjoint,
    default_calib,
    forward,
    make_sampling_mask,
    save_measurement,
    synth_coil_maps,
)
from .metrics import psnr, ssim
from .parallel import Workers
from .phantoms import PhantomSpec, dataset_ids, generate_dataset, save_dataset, seeded_phantom
from .recovery import (
    OracleRecovery,
    TinyRegressor,
    TrainConfig,
    ZeroFillRecovery,
    load_checkpoint,
    save_checkpoint,
    save_loss_trace,
    train,
)
from .rng import child_seed, substream
from .sampler import SamplerConfig, ddpm_reconstruct, ddpm_schedule, reconstruct

# ---------------------------------------------------------------------------
# Run configuration

DEFAULT_CONFIG = {
    "seed": 0,
    "data": {"dims": 64, "count": 20, "contrast": "t1_like"},
    "process": {
        "R_prime": 2.0,
        "T_f": 64,
        "density": "radius_scheduled",
        "step_count_schedule": "constant",
    },
    "sampler": {"R": 4.0, "correction": "learned", "ct_mode": "independent", "dc_every_step": True},
    "train": {"learning_rate": 0.01, "epochs": 40, "batch": 4, "loss_mode": "upper_bound"},
}


def _coerce(value, want, where: str):
    if want is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    raise AssertionError(where)


def validate_config(raw: dict) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys; each setting has its default's type.

    Every section's ranges and choices are then checked by the objects
    the commands build from it, so no command records a config that
    another would reject.
    """
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in raw.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key: {key!r}")
        if not isinstance(cfg[key], dict):
            cfg[key] = _coerce(value, type(cfg[key]), key)
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for sub, subval in value.items():
            if sub not in cfg[key]:
                raise ConfigError(f"unknown config key: {key}.{sub}")
            cfg[key][sub] = _coerce(subval, type(cfg[key][sub]), f"{key}.{sub}")
    data = cfg["data"]
    if data["count"] < 1:
        raise ConfigError(f"data.count must be >= 1, got {data['count']}")
    PhantomSpec(data["dims"], data["dims"], data["contrast"])
    _sampler_config(cfg, _process_config(cfg, seed=cfg["seed"]))
    _train_config(cfg)
    return cfg


def _process_config(cfg: dict, seed: int) -> ProcessConfig:
    p = cfg["process"]
    return ProcessConfig(
        r_prime=p["R_prime"],
        t_f=p["T_f"],
        density=p["density"],
        step_count_schedule=p["step_count_schedule"],
        seed=seed,
    )


def _training_images(cfg: dict, args) -> list[np.ndarray]:
    """--dataset (a dataset directory or a single CIMG file), else the config's generated dataset.

    Every --dataset image must be (data.dims, data.dims); one of another
    shape is a ConfigError naming its file and both shapes.
    """
    data = cfg["data"]
    if not args.dataset:
        return generate_dataset(data["count"], data["dims"], data["dims"], data["contrast"], cfg["seed"])
    path = Path(args.dataset)
    files = [path / "images" / name for name in _read_input(dataset_ids, path)] if path.is_dir() else [path]
    images = []
    for file in files:
        image = _read_input(read_cimg, file)
        if image.shape != (data["dims"], data["dims"]):
            raise ConfigError(f"{file} has shape {image.shape}, but data.dims asks for {(data['dims'], data['dims'])}")
        images.append(image)
    return images


# ---------------------------------------------------------------------------
# Subcommands.  Each handler writes its artifacts under --out; ``_run``
# lists them in the run manifest.


def cmd_phantom(cfg, args, out: Path) -> None:
    data = cfg["data"]
    images = generate_dataset(data["count"], data["dims"], data["dims"], data["contrast"], cfg["seed"])
    save_dataset(out, images, data["contrast"], cfg["seed"])


def cmd_mask(cfg, args, out: Path) -> None:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    dims = cfg["data"]["dims"]
    grid = KSpaceGrid(dims, dims)
    calib = args.calib if args.calib is not None else default_calib(dims, dims)
    names = [f"mask_{i:02d}.kmsk" for i in range(args.count)]
    seeds = [child_seed(cfg["seed"], "mask", i) for i in range(args.count)]
    for name, seed_i in zip(names, seeds):
        write_kmsk(out / name, make_sampling_mask(grid, cfg["sampler"]["R"], args.density, calib, seed=seed_i))
    write_json(
        out / "masks.json",
        {
            "R": cfg["sampler"]["R"],
            "density": args.density,
            "calib": calib,
            "count": args.count,
            "seeds": seeds,
            "files": names,
        },
    )


def _parse_snapshots(text: str | None, t_total: int) -> list[int]:
    """The steps of --snapshots (default: quartiles) within a trajectory of ``t_total`` steps, checked before it is drawn."""
    if t_total < 0:
        raise ConfigError(f"trajectory length must be >= 0, got {t_total}")
    if text:
        try:
            steps = sorted({int(s) for s in text.split(",")})
        except ValueError as exc:
            raise ConfigError(f"--snapshots must be comma-separated integers: {exc}") from exc
    else:
        steps = sorted({0, t_total // 4, t_total // 2, (3 * t_total) // 4, t_total})
    for t in steps:
        if not 0 <= t <= t_total:
            raise ConfigError(f"snapshot step {t} out of range [0, {t_total}]")
    return steps


def cmd_forward(cfg, args, out: Path) -> None:
    data = cfg["data"]
    grid = KSpaceGrid(data["dims"], data["dims"])
    if args.image:
        x0 = _read_input(read_cimg, args.image)
        if x0.shape != grid.shape:
            raise ConfigError(f"image shape {x0.shape} does not match configured dims {data['dims']}")
    else:
        x0 = seeded_phantom(data["dims"], data["dims"], data["contrast"], cfg["seed"], "forward-image")
    proc = _process_config(cfg, seed=child_seed(cfg["seed"], "trajectory"))
    t_total = args.t_total if args.t_total is not None else proc.t_f
    steps = _parse_snapshots(args.snapshots, t_total)
    traj = sample_trajectory(grid, proc, t_total=t_total)
    export_trajectory(traj, out, steps)
    if not args.image:
        write_cimg(out / "original.cimg", x0)
    for t in steps:
        write_cimg(out / f"corrupted_t{t:04d}.cimg", corrupt(x0, traj, t))


def _plot_schedule(out: Path, weights: np.ndarray) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:  # matplotlib is the optional "plot" extra
        return
    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.plot(np.arange(1, weights.size + 1), weights, lw=1.5)
    ax.set_xlabel("t")
    ax.set_ylabel("w")
    ax.set_title("correction weight schedule")
    ax.grid(alpha=0.3)
    fig.tight_layout()
    png = io.BytesIO()
    fig.savefig(png, format="png", dpi=110)
    plt.close(fig)
    atomic_write_bytes(out / "schedule.png", png.getvalue())


def cmd_estimate_w(cfg, args, out: Path) -> None:
    images = _training_images(cfg, args)
    proc = _process_config(cfg, seed=child_seed(cfg["seed"], "process"))
    schedule = estimate_weights(images, proc)
    save_schedule(out, schedule, r_prime=proc.r_prime, seed=cfg["seed"])
    if not args.no_plot:
        _plot_schedule(out, schedule.weights)


def _train_model(cfg, images, source, *tags, upper_bound: bool = False):
    """Train a fresh recovery operator on the corruption ``source``, on the upper bound if asked.

    ``tags`` name the run among several (an ablation variant), so each
    gets its own initialization and training seeds.
    """
    model = TinyRegressor(t_f=source.t_f, seed=child_seed(cfg["seed"], "model-init", *tags))
    return train(model, images, source, _train_config(cfg, *tags, upper_bound=upper_bound))


def _train_config(cfg, *tags, upper_bound: bool = False) -> TrainConfig:
    """The config's training settings, the loss forced to ``upper_bound`` if asked; ``tags`` extend the seed's path."""
    tc = cfg["train"]
    return TrainConfig(
        learning_rate=tc["learning_rate"],
        epochs=tc["epochs"],
        batch=tc["batch"],
        loss_mode="upper_bound" if upper_bound else tc["loss_mode"],
        seed=child_seed(cfg["seed"], "train", *tags),
    )


def cmd_train(cfg, args, out: Path) -> None:
    images = _training_images(cfg, args)
    if args.corruption == "ddpm":
        process = ddpm_schedule(args.ddpm_steps)
    else:
        process = _process_config(cfg, seed=child_seed(cfg["seed"], "train-process"))
    model, trace = _train_model(cfg, images, process)
    save_checkpoint(out / "checkpoint.ckpt", model, process, epochs=cfg["train"]["epochs"])
    save_loss_trace(out / "loss_trace.csv", trace)


def _load_operator(args, reference, source):
    """The recovery operator: --checkpoint, which must be trained on ``source``'s kind, else --recovery.

    The sampler checks the checkpoint's horizon before anything is written.
    """
    if args.checkpoint:
        model, header = _read_input(load_checkpoint, args.checkpoint)
        if header.get("source") != source.kind:
            raise ConfigError(
                f"checkpoint {args.checkpoint} was trained on source={header.get('source')!r}, "
                f"but this run samples the {source.kind!r} source"
            )
        return model
    if args.recovery == "oracle":
        return OracleRecovery(reference)
    return ZeroFillRecovery()


def _acquire(cfg, args, reference, mask_seed: int, coil_seed: int, noise_seed: int):
    """Simulate the acquisition of ``reference``: sampling mask, coil maps and measurement."""
    grid = KSpaceGrid(*reference.shape)
    rate = cfg["sampler"]["R"]
    mask = make_sampling_mask(grid, rate, args.mask_density, args.calib, seed=mask_seed)
    maps = synth_coil_maps(grid, args.coils, seed=coil_seed)
    system = ImagingSystem(mask=mask, coil_maps=maps, grid=grid)
    y = forward(system, reference, noise_sigma=args.noise_sigma, seed=noise_seed, acceleration=rate)
    return system, y


def _sampler_config(cfg, process: ProcessConfig, *tags, **overrides) -> SamplerConfig:
    """The config's sampler settings, with ``overrides``, on ``process``; ``tags`` extend the seed's path."""
    samp = {**cfg["sampler"], **overrides}
    return SamplerConfig(
        t_f=process.t_f,
        r_prime=process.r_prime,
        r=samp["R"],
        correction=samp["correction"],
        ct_mode=samp["ct_mode"],
        dc_every_step=samp["dc_every_step"],
        seed=child_seed(cfg["seed"], "sampling", *tags),
    )


def _bridge_sampler(process: ProcessConfig, schedule, scfg: SamplerConfig):
    """``sample(y, system, operator, reference=...)``: bridge sampling on ``process`` with ``schedule`` and ``scfg``."""
    return functools.partial(reconstruct, process=process, schedule=schedule, cfg=scfg)


def _score(reference, image) -> tuple[float, float]:
    """(PSNR in dB, SSIM) of ``image`` against ``reference``."""
    return psnr(reference, image), ssim(reference, image)


def _measure_reconstruct_score(cfg, args, out: Path, source, sample, steps_key: str) -> None:
    """The path of ``reconstruct`` and ``ddpm-reconstruct``.

    Simulates the acquisition of --image (or of a generated held-out
    phantom), loads the operator that ``source`` samples with, runs
    ``sample(y, system, operator, reference=reference)``, and scores the
    result and the zero-filled baseline.  Nothing is written until the
    reconstruction succeeded, so a run that fails on its inputs or while
    sampling leaves no output in ``out`` (a failure while sampling leaves
    its manifest).
    """
    seed, data = cfg["seed"], cfg["data"]
    if args.image:
        reference = _read_input(read_cimg, args.image)
    else:
        reference = seeded_phantom(data["dims"], data["dims"], data["contrast"], seed, "eval-image", 0)
    seeds = [child_seed(seed, tag) for tag in ("mask", "coils", "measurement")]
    system, y = _acquire(cfg, args, reference, *seeds)
    operator = _load_operator(args, reference, source)
    result = sample(y, system, operator, reference=reference)
    zero_fill = adjoint(system, y)

    write_cimg(out / "reference.cimg", reference)
    save_measurement(out / "measurement", system, y, seed, args.mask_density)
    write_cimg(out / "recon.cimg", result.image)
    write_cimg(out / "zerofill.cimg", zero_fill)
    write_csv(out / "diagnostics.csv", ["t", "residual", "psnr_db"], result.diagnostics)
    summary = {steps_key: result.t_r}
    summary["psnr_recon_db"], summary["ssim_recon"] = _score(reference, result.image)
    summary["psnr_zerofill_db"], summary["ssim_zerofill"] = _score(reference, zero_fill)
    if result.relaxed_steps is not None:
        summary["relaxed_steps"] = result.relaxed_steps
    write_json(out / "summary.json", summary)
    print(
        f"{steps_key}={result.t_r}  PSNR recon {summary['psnr_recon_db']:.2f} dB "
        f"vs zero-fill {summary['psnr_zerofill_db']:.2f} dB"
    )


def cmd_reconstruct(cfg, args, out: Path) -> None:
    proc = _process_config(cfg, seed=child_seed(cfg["seed"], "process"))
    scfg = _sampler_config(cfg, proc)
    if scfg.correction == "learned" and not args.schedule:
        raise ConfigError("correction='learned' requires --schedule")
    schedule = _read_input(load_schedule, args.schedule, proc) if args.schedule else None
    _measure_reconstruct_score(cfg, args, out, proc, _bridge_sampler(proc, schedule, scfg), "T_r")


def cmd_ddpm_reconstruct(cfg, args, out: Path) -> None:
    schedule = ddpm_schedule(args.ddpm_steps)
    sample = functools.partial(ddpm_reconstruct, schedule=schedule, seed=child_seed(cfg["seed"], "ddpm-sampling"))
    _measure_reconstruct_score(cfg, args, out, schedule, sample, "T")


# Each ablation variant, in row order: the changes to the config's process that
# it samples, the source it trains on ("bridge": that process; "averaging": its
# blend, on the upper bound), and the sampler settings it overrides, over learned
# correction and ct_mode "independent", not the config's.  Variants with equal
# sources share one model, trained under the first such variant's name, and
# variants with equal processes share one schedule, which depends on the process
# alone and takes no seed tag.
ABLATION_VARIANTS = {
    "fdb": ({}, "bridge", {}),
    "ct_uniform": ({"density": "uniform"}, "bridge", {}),
    "n_log_schedule": ({"step_count_schedule": "log"}, "bridge", {}),
    "xt_averaging": ({}, "averaging", {}),
    "ct_fixed": ({}, "bridge", {"ct_mode": "fixed"}),
    "no_correction": ({}, "bridge", {"correction": "none"}),
    "wt_linear": ({}, "bridge", {"correction": "linear"}),
}


def cmd_ablate(cfg, args, out: Path) -> None:
    if args.eval_count < 1:
        raise ConfigError(f"--eval-count must be >= 1, got {args.eval_count}")
    seed, data = cfg["seed"], cfg["data"]
    dims, contrast = data["dims"], data["contrast"]
    train_images = generate_dataset(data["count"], dims, dims, contrast, seed)
    eval_images = generate_dataset(args.eval_count, dims, dims, contrast, seed, "eval")
    acquisitions = []
    for i, reference in enumerate(eval_images):
        seeds = [child_seed(seed, tag, i) for tag in ("eval-mask", "coils", "eval-noise")]
        acquisitions.append(_acquire(cfg, args, reference, *seeds))

    base_proc = _process_config(cfg, seed=child_seed(seed, "process"))
    models, schedules, variants = {}, {}, []  # source -> model; process -> schedule; (name, model, process, settings)
    for name, (changes, kind, overrides) in ABLATION_VARIANTS.items():
        proc = replace(base_proc, **changes)
        source = proc if kind == "bridge" else AveragingProcess(proc)
        if source not in models:
            models[source], _ = _train_model(cfg, train_images, source, name, upper_bound=not source.loss_masks)
        if proc not in schedules:
            schedules[proc] = estimate_weights(train_images, proc)
        variants.append((name, models[source], proc, {"correction": "learned", "ct_mode": "independent", **overrides}))

    n = len(eval_images)

    def cell(j):
        """(PSNR, SSIM) of variant j // n on held-out image j % n."""
        (name, model, proc, settings), i = variants[j // n], j % n
        sample = _bridge_sampler(proc, schedules[proc], _sampler_config(cfg, proc, name, i, **settings))
        (system, y), reference = acquisitions[i], eval_images[i]
        return _score(reference, sample(y, system, model, reference=reference).image)

    with Workers(len(variants) * n, cell, "ablation") as workers:
        scores = list(workers.map(len(variants) * n))
    rows = []
    for v, (name, *_) in enumerate(variants):
        ps, ss = np.array(scores[v * n : (v + 1) * n]).T
        rows.append((name, float(ps.mean()), float(ps.std()), float(ss.mean()), float(ss.std())))
    write_csv(out / "ablation.csv", ["variant", "psnr_mean", "psnr_std", "ssim_mean", "ssim_std"], rows)
    for row in rows:
        print(f"{row[0]:<16} PSNR {row[1]:6.2f} +/- {row[2]:.2f}  SSIM {row[3]:.4f}")


def _metric_pairs(ref_path: Path, test_path: Path) -> list[tuple[str, str, Path, Path]]:
    if ref_path.is_dir() != test_path.is_dir():
        raise ConfigError("--ref and --test must both be files or both be dataset directories")
    if not ref_path.is_dir():
        return [(ref_path.name, test_path.name, ref_path, test_path)]
    ref_ids = _read_input(dataset_ids, ref_path)
    test_ids = set(_read_input(dataset_ids, test_path))
    shared = [name for name in ref_ids if name in test_ids]
    if not shared:
        raise ConfigError("datasets share no image ids")
    return [
        (name, name, ref_path / "images" / name, test_path / "images" / name) for name in shared
    ]


def cmd_metrics(cfg, args, out: Path) -> None:
    pairs = []  # every pair is read and checked before any is scored
    for ref_id, test_id, ref_path, test_path in _metric_pairs(Path(args.ref), Path(args.test)):
        ref, test = _read_input(read_cimg, ref_path), _read_input(read_cimg, test_path)
        if ref.shape != test.shape:
            raise ConfigError(f"{ref_path} has shape {ref.shape} but {test_path} has shape {test.shape}")
        pairs.append((ref_id, test_id, ref, test))
    rows = [(ref_id, test_id, *_score(ref, test)) for ref_id, test_id, ref, test in pairs]
    write_csv(out / "metrics.csv", ["ref", "test", "psnr_db", "ssim"], rows)


def _read_input(read, path, *args):
    """``read(path, *args)`` on an input file named on the command line.

    A file that is missing or malformed (``read`` raises OSError or
    ValueError) raises a ConfigError naming it, so the run exits 1 before
    anything is written.
    """
    try:
        return read(path, *args)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def cmd_replay(args) -> int:
    manifest = _read_input(read_json, args.manifest)
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("command"), str)
        and isinstance(manifest.get("flags"), dict)
        and isinstance(manifest.get("config"), dict)
    ):
        raise ConfigError(
            f"{args.manifest} is not a run manifest: it must be an object with a string 'command', "
            "an object 'flags' and an object 'config'"
        )
    command = manifest["command"]
    if command not in _HANDLERS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    out = args.out or manifest.get("out")
    if not isinstance(out, str):
        raise ConfigError(f"{args.manifest} names no output directory; pass --out")
    argv = [command, "--out", out]
    for key, value in manifest["flags"].items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return _run(argv, config_dict=manifest["config"])


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the CLI contract
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolved(path: str) -> str:
    """A path flag's value, made absolute so that a replay from another directory reads the same file."""
    return str(Path(path).resolve())


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON run config (merged over defaults)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")


def _add_acquisition_flags(p: _Parser) -> None:
    """The simulated acquisition's flags, read by ``_acquire``."""
    p.add_argument("--coils", type=int, default=1)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--mask-density", choices=MASK_DENSITIES, default="normal2d")
    p.add_argument("--calib", type=int, default=None, help="side of the fully kept central block")


def _add_measurement_flags(p: _Parser) -> None:
    p.add_argument("--image", type=_resolved, help="reference CIMG1 image (default: a generated held-out phantom)")
    _add_acquisition_flags(p)
    p.add_argument("--checkpoint", type=_resolved, help="trained recovery checkpoint")
    p.add_argument(
        "--recovery",
        choices=("zero_fill", "oracle"),
        default="zero_fill",
        help="fallback recovery operator when no checkpoint is given",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="fdb", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fdbridge {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("phantom", parents=[], help="generate a synthetic dataset")
    _add_common(p)

    p = sub.add_parser("mask", help="generate sampling masks")
    _add_common(p)
    p.add_argument("--density", choices=MASK_DENSITIES, default="normal2d")
    p.add_argument("--calib", type=int, default=None)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("forward", help="simulate degradation trajectory snapshots")
    _add_common(p)
    p.add_argument("--snapshots", help="comma-separated steps to export (default: quartiles)")
    p.add_argument("--t-total", type=int, default=None, help="trajectory length (default: T_f)")
    p.add_argument("--image", type=_resolved, help="CIMG1 image to corrupt (default: a generated phantom)")

    p = sub.add_parser("estimate-w", help="learned correction-weight schedule, exact over the process's trajectories")
    _add_common(p)
    p.add_argument("--dataset", type=_resolved, help="dataset directory (default: generate from the config)")
    p.add_argument("--no-plot", action="store_true")

    p = sub.add_parser("train", help="train the recovery operator")
    _add_common(p)
    p.add_argument("--dataset", type=_resolved, help="dataset directory (default: generate from the config)")
    p.add_argument("--corruption", choices=("bridge", "ddpm"), default="bridge")
    p.add_argument("--ddpm-steps", type=int, default=200)

    p = sub.add_parser(
        "reconstruct", help="simulate an undersampled acquisition, reconstruct it by bridge sampling, score"
    )
    _add_common(p)
    _add_measurement_flags(p)
    p.add_argument(
        "--schedule",
        type=_resolved,
        help="correction schedule CSV (required for correction='learned'); its sibling .json, as estimate-w "
        "writes schedule.json, is read if present and must match the process's R_prime and T_f",
    )

    p = sub.add_parser(
        "ddpm-reconstruct", help="as reconstruct, but sampled by the noise-diffusion baseline"
    )
    _add_common(p)
    _add_measurement_flags(p)
    p.add_argument("--ddpm-steps", type=int, default=200)

    p = sub.add_parser(
        "ablate", help="train each ablation variant, reconstruct simulated acquisitions, average their scores"
    )
    _add_common(p)
    p.add_argument("--eval-count", type=int, default=5)
    _add_acquisition_flags(p)

    p = sub.add_parser("metrics", help="PSNR/SSIM between reference and test images")
    _add_common(p)
    p.add_argument("--ref", type=_resolved, required=True)
    p.add_argument("--test", type=_resolved, required=True)

    p = sub.add_parser("replay", help="re-execute a run manifest")
    p.add_argument("manifest")
    p.add_argument("--out", help="output directory (default: the manifest's)")

    return parser


_HANDLERS = {
    "phantom": cmd_phantom,
    "mask": cmd_mask,
    "forward": cmd_forward,
    "estimate-w": cmd_estimate_w,
    "train": cmd_train,
    "reconstruct": cmd_reconstruct,
    "ddpm-reconstruct": cmd_ddpm_reconstruct,
    "ablate": cmd_ablate,
    "metrics": cmd_metrics,
}

_COMMON_KEYS = {"command", "config", "seed", "out"}


def _flag_dict(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key not in _COMMON_KEYS}


def _file_stamps(root: Path) -> dict[str, tuple[int, int]]:
    """(inode, mtime in ns) of each file under ``root``, keyed by its POSIX path relative to ``root``."""
    stats = {path.relative_to(root).as_posix(): path.stat() for path in root.rglob("*") if path.is_file()}
    return {name: (st.st_ino, st.st_mtime_ns) for name, st in stats.items()}


def _peak_rss_mb() -> float | None:
    """Peak resident set size of the run so far, in MiB, or None where ``resource`` is missing (Windows).

    The larger of this process's peak and that of its largest finished
    child, so the forked workers (``parallel.Workers``) of training and of
    the ablation's reconstructions, which the process has joined by the
    time the manifest is written, are counted.
    ru_maxrss is KiB on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:
        return None
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _run(argv, config_dict=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.command == "replay":
        return cmd_replay(args)

    if config_dict is None:
        config_dict = _read_input(read_json, args.config) if args.config else {}
    cfg = validate_config(config_dict)
    if args.seed is not None:
        cfg["seed"] = args.seed

    out = Path(args.out)
    before = _file_stamps(out)
    started = time.monotonic()

    def write_manifest(error: Exception | None) -> None:
        wall = time.monotonic() - started
        # every writer replaces a file by rename, so a rewritten file has a new inode
        written = [name for name, stamp in _file_stamps(out).items() if before.get(name) != stamp]
        write_json(
            out / "run_manifest.json",
            {
                "command": args.command,
                "config": cfg,
                "flags": _flag_dict(args),
                "out": str(out.resolve()),
                "status": "ok" if error is None else "failed",
                "error": None if error is None else f"{type(error).__name__}: {error}",
                "outputs": sorted(name for name in written if name != "run_manifest.json"),
                "wall_time_s": wall,
                "peak_rss_mb": _peak_rss_mb(),
                "tool": {"name": "fdbridge", "version": __version__},
            },
        )

    try:
        _HANDLERS[args.command](cfg, args, out)
    except ConfigError:  # found before anything is written
        raise
    except Exception as exc:  # a runtime failure, recorded and then reported as exit 2
        write_manifest(exc)
        raise
    write_manifest(None)
    return 0


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 1
    except Exception as exc:  # runtime failure contract: exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
