"""Command-line entry point: synth / train / evaluate / predict / flops."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .data import (DatasetBundle, SynthConfig, chronological_split, load_dataset,
                   save_dataset, synth_generate)
from .errors import ConfigError, ConformerError, LoadError
from .model import (ABLATIONS, ConFormerConfig, config_from_dict, count_params,
                    estimate_flops, load_checkpoint, save_checkpoint)
from .trainer import (TrainConfig, evaluate, evaluate_historical_inertia,
                      predict_windows, train)

SECTIONS = ("model", "train", "synth")


def load_run_config(path) -> dict:
    """Read a JSON run config with optional model/train/synth sections."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes, deep nesting
            raise LoadError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for name, section in raw.items():
        if name not in SECTIONS:
            raise ConfigError(f"{path}: unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: {name} section must be a JSON object, got {section!r}")
    return raw


def _dataset_fields(bundle: DatasetBundle, model: dict, what: str) -> dict:
    """The model config fields that ``bundle`` fixes: its node count, calendar and code
    table sizes. A value in ``model`` that differs is a ``ConfigError`` naming both."""
    fields = {"n_nodes": bundle.n_nodes, "steps_per_day": bundle.steps_per_day,
              "start_weekday": bundle.start_weekday, "start_slot": bundle.start_slot,
              "n_acc_codes": len(bundle.acc_vocab), "n_reg_codes": len(bundle.reg_vocab)}
    for key, value in fields.items():
        if key in model and model[key] != value:
            raise ConfigError(f"dataset {key}={value} differs from {what} {key}={model[key]}")
    return fields


def resolve_model_config(section: dict, bundle: DatasetBundle | None,
                         ablate: list[str]) -> ConFormerConfig:
    if bundle is not None:
        section = {**_dataset_fields(bundle, section, "model config"), **section}
    cfg = config_from_dict(ConFormerConfig, section, "model")
    return replace(cfg, ablations=cfg.ablations + tuple(ablate)) if ablate else cfg


def _write_rows(out_dir, name: str, rows: list[str]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return path


def _write_resolved(out_dir, payload: dict) -> None:
    _write_rows(out_dir, "resolved_config.json",
                [json.dumps(payload, indent=2, sort_keys=True)])


def cmd_synth(args) -> int:
    raw = load_run_config(args.config)
    gen = config_from_dict(SynthConfig, raw.get("synth", {}), "synth")
    bundle = synth_generate(gen, seed=args.seed)
    save_dataset(bundle, args.out)
    _write_resolved(args.out, {"synth": asdict(gen), "seed": args.seed})
    n_acc = int((bundle.acc_ids > 0).sum())
    n_reg = int((bundle.reg_ids > 0).sum())
    print(f"wrote {args.out}: N={bundle.n_nodes} steps={bundle.n_steps} "
          f"accident_cells={n_acc} regulation_cells={n_reg}")
    return 0


def cmd_train(args) -> int:
    raw = load_run_config(args.config)
    bundle = load_dataset(args.data)
    cfg = resolve_model_config(raw.get("model", {}), bundle, args.ablate)
    tsection = dict(raw.get("train", {}))
    if args.seed is not None:
        tsection["seed"] = args.seed
    tcfg = config_from_dict(TrainConfig, tsection, "train")

    result = train(bundle, cfg, tcfg)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.cfmr")
    save_checkpoint(ckpt_path, result.params, result.stats, result.best_epoch)
    _write_rows(args.out, "history.csv", ["epoch,train_mae,val_mae"] + [
        f"{r.epoch},{r.train_mae!r},{r.val_mae!r}" for r in result.history])
    _write_resolved(args.out, {"model": result.params.cfg.to_dict(),
                               "train": tcfg.to_dict()})
    best = result.history[result.best_epoch - 1]
    print(f"trained {len(result.history)} epochs; best epoch {result.best_epoch} "
          f"(val MAE {best.val_mae:.4f}); wrote {ckpt_path}")
    return 0


def _metrics_rows(table) -> list[str]:
    rows = ["horizon,mae,rmse,mape,n_valid"]
    for key, m in table.items():
        rows.append(f"{key},{m.mae!r},{m.rmse!r},{m.mape!r},{m.n_valid}")
    return rows


def _load_for_inference(args):
    """Checkpoint, dataset and normalization stats for evaluate and predict."""
    params, stats = load_checkpoint(args.checkpoint)
    bundle = load_dataset(args.data)
    _dataset_fields(bundle, params.cfg.to_dict(), "checkpoint")
    return params, bundle, stats


def cmd_evaluate(args) -> int:
    params, bundle, stats = _load_for_inference(args)
    split = chronological_split(bundle.n_steps)
    table = evaluate(params, bundle, split, args.split, args.horizons, stats)
    rows = _metrics_rows(table)
    print("\n".join(rows))
    if args.out:
        _write_rows(args.out, "metrics.csv", rows)
    return 0


def cmd_predict(args) -> int:
    params, bundle, stats = _load_for_inference(args)
    cfg = params.cfg
    # The horizon may run past the end of the data; predict reads no targets.
    preds = predict_windows(params, bundle, [args.at], stats)[0, :, :, 0]
    rows = ["step," + ",".join(f"node{n}" for n in range(bundle.n_nodes))]
    rows += [f"{h + 1}," + ",".join(repr(v) for v in preds[h]) for h in range(cfg.t_out)]
    path = _write_rows(args.out, "forecast.csv", rows)
    print(f"wrote {path} with shape ({cfg.t_out}, {bundle.n_nodes})")
    return 0


def cmd_flops(args) -> int:
    raw = load_run_config(args.config)
    bundle = load_dataset(args.data) if args.data else None
    cfg = resolve_model_config(raw.get("model", {}), bundle, args.ablate)
    n_edges = args.edges
    if n_edges is None and bundle is not None:
        n_edges = len(bundle.graph.edges)
    if n_edges is None:
        raise ConfigError("flops needs --edges N or --data DIR for the edge count")
    flops = estimate_flops(cfg, n_edges)
    print(f"flops={flops} params={count_params(cfg)}")
    return 0


def cmd_hi(args) -> int:
    bundle = load_dataset(args.data)
    split = chronological_split(bundle.n_steps)
    table = evaluate_historical_inertia(bundle, split, args.split, args.t_in,
                                        args.t_out, args.horizons)
    print("\n".join(_metrics_rows(table)))
    return 0


def horizon_list(text: str) -> list[int]:
    """``--horizons`` value: comma-separated 1-based steps, or none if empty."""
    return [int(h) for h in text.split(",")] if text else []


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a misspelt option must not match another.
    parser = argparse.ArgumentParser(
        prog="conformer", allow_abbrev=False,
        description="Incident-aware conditional spatiotemporal traffic forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")

    p = command("train", cmd_train, "train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--ablate", action="append", default=[], choices=ABLATIONS)

    p = command("evaluate", cmd_evaluate, "evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--horizons", type=horizon_list, default=[],
                   help="comma-separated 1-based steps")
    p.add_argument("--out", default=None)

    p = command("predict", cmd_predict, "forecast one window from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--at", type=int, required=True, help="input window start step")
    p.add_argument("--out", required=True)

    p = command("flops", cmd_flops, "print the FLOPs estimate and param count")
    p.add_argument("--config", default=None)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--ablate", action="append", default=[], choices=ABLATIONS)

    p = command("hi", cmd_hi, "historical-inertia reference metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--t-in", type=int, default=12, dest="t_in")
    p.add_argument("--t-out", type=int, default=12, dest="t_out")
    p.add_argument("--horizons", type=horizon_list, default=[])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
