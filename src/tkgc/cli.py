"""Batch command-line surface: ingest, train, eval, grid, plot-norms,
inspect.

Runs are driven by a flat ``key = value`` config file (one key per line,
``#`` comments) with flag overrides; every subcommand records its full
effective configuration in the artifacts it writes.  All randomness flows
from the single ``seed`` key through named sub-streams.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

_SPLIT_CANDIDATES = ("{split}", "{split}.txt", "{split}.tsv")


def _thread_count(raw: str) -> Optional[int]:
    try:
        count = int(raw)
    except ValueError:
        return None
    return count if count >= 1 else None


def _apply_thread_cap(argv: list[str]) -> None:
    """Honor ``--threads N`` / ``--threads=N`` before numpy is imported so
    BLAS pools obey it; the flag overrides thread counts already set in the
    environment.  A missing or malformed value is left for the argument
    parser to reject."""
    count = None
    for pos, arg in enumerate(argv):
        if arg == "--threads" and pos + 1 < len(argv):
            count = _thread_count(argv[pos + 1])
        elif arg.startswith("--threads="):
            count = _thread_count(arg.partition("=")[2])
    if count is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


def _positive_int(raw: str) -> int:
    count = _thread_count(raw)
    if count is None:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r}"
        )
    return count


def parse_config_file(path) -> tuple[dict[str, str], dict[str, str]]:
    """Flat key = value lines; returns (base values, grid axes).

    Grid axes use the ``grid.<key> = v1,v2,...`` form.
    """
    base: dict[str, str] = {}
    axes: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("grid."):
            axes[key.removeprefix("grid.")] = value
        else:
            base[key] = value
    return base, axes


def _coerce(key: str, raw: str):
    from .training import FLAT_DEFAULTS, _as_bool

    if key not in FLAT_DEFAULTS:
        raise ValueError(f"unknown configuration key {key!r}")
    default = FLAT_DEFAULTS[key]
    if key in ("rank_relation", "rank_time"):
        return None if raw.lower() in ("none", "") else int(raw)
    if isinstance(default, bool):
        return _as_bool(raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


_TRAIN_FLAGS = [
    ("--model", "model", "model tag: tcomplex | tntcomplex | chronor"),
    ("--rank", "rank", "embedding rank d (complex components)"),
    ("--reg", "reg", "temporal regularizer: none, N, L, N4, L2, linear3, "
                     "rnn, lstm, gru, linear_rnn, linear_lstm, linear_gru"),
    ("--p", "p", "exponent for the N/L/linear3 families (1..5)"),
    ("--lambda1", "lambda1", "embedding (nuclear 3-norm) weight"),
    ("--lambda2", "lambda2", "temporal regularizer weight"),
    ("--lr", "learning_rate", "Adam learning rate"),
    ("--batch-size", "batch_size", "quadruples per mini-batch"),
    ("--epochs", "epochs", "training epochs"),
    ("--seed", "seed", "run seed (init/shuffle/grad-check sub-streams)"),
    ("--eval-every", "eval_every", "validation cadence in epochs (0 = never)"),
    ("--hidden-size", "hidden_size", "recurrent generator hidden size"),
    ("--init-scale", "init_scale", "embedding init standard deviation"),
    ("--dtype", "dtype", "training precision: float64 | float32"),
]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    for flag, _, help_text in _TRAIN_FLAGS:
        parser.add_argument(flag, help=help_text)


def _collect_values(args: argparse.Namespace) -> dict:
    """File values, then --set pairs, then dedicated flags, coerced by key."""
    raw: dict[str, str] = {}
    axes: dict[str, str] = {}
    if args.config:
        raw, axes = parse_config_file(args.config)
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key.startswith("grid."):
            axes[key.removeprefix("grid.")] = value
        else:
            raw[key] = value
    for flag, key, _ in _TRAIN_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            raw[key] = value
    values = {key: _coerce(key, str(val)) for key, val in raw.items()}
    grid_axes = {
        key: [_coerce(key, part.strip()) for part in val.split(",") if part.strip()]
        for key, val in axes.items()
    }
    return {"values": values, "axes": grid_axes}


def _find_split_file(directory: Path, split: str, explicit: str | None) -> Path:
    if explicit:
        path = directory / explicit
        if not path.exists():
            raise FileNotFoundError(f"{path} does not exist")
        return path
    for pattern in _SPLIT_CANDIDATES:
        path = directory / pattern.format(split=split)
        if path.exists():
            return path
    raise FileNotFoundError(
        f"no {split} file under {directory} (tried "
        + ", ".join(p.format(split=split) for p in _SPLIT_CANDIDATES) + ")"
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    from .datasets import (
        ParseError, build_dataset, dataset_stats, group_yago_relations,
        parse_icews, parse_yago15k, save_dataset,
    )

    directory = Path(args.directory)
    parser = parse_icews if args.format == "icews" else parse_yago15k
    raw = {}
    for split, explicit in (
        ("train", args.train), ("valid", args.valid), ("test", args.test)
    ):
        path = _find_split_file(directory, split, explicit)
        try:
            with open(path, encoding="utf-8") as fh:
                facts = parser(fh)
        except ParseError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        if args.format == "yago15k":
            facts = group_yago_relations(facts)
        raw[split] = facts
    splits = build_dataset(raw["train"], raw["valid"], raw["test"])
    save_dataset(splits, args.out)
    for key, value in dataset_stats(splits).items():
        print(f"{key} = {value}")
    print(f"written = {args.out}")
    return 0


def _load_augmented(path):
    from .datasets import augment_reciprocal, load_dataset

    splits = load_dataset(path)
    if not splits.reciprocal:
        splits = augment_reciprocal(splits)
    return splits


def cmd_train(args: argparse.Namespace) -> int:
    from .datasets import build_filter_index, dataset_hash
    from .evaluation import evaluate
    from .models import save_checkpoint
    from .training import (
        build_config, config_values, train, write_history_csv, write_manifest,
    )

    collected = _collect_values(args)
    config = build_config(collected["values"])
    splits = _load_augmented(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds_hash = dataset_hash(args.dataset)

    filter_index = build_filter_index(splits)
    state, history = train(splits, config, filter_index=filter_index)
    params = state.best_params
    valid_metrics = (
        evaluate(params, splits.valid, filter_index)
        if splits.valid.shape[0] else None
    )
    test_metrics = (
        evaluate(params, splits.test, filter_index)
        if splits.test.shape[0] else None
    )

    ckpt_path = out_dir / "model.ckpt"
    manifest_values = dict(config_values(config))
    manifest_values["dataset"] = str(args.dataset)
    manifest_values["dataset_hash"] = ds_hash
    manifest_values["vocab_hash"] = splits.vocabulary.content_hash()
    manifest_values["precision"] = config.dtype
    manifest_values["best_epoch"] = state.best_epoch
    if state.best_valid_mrr > -1:
        manifest_values["best_valid_mrr"] = f"{state.best_valid_mrr:.10f}"
    for prefix, metrics in (("valid", valid_metrics), ("test", test_metrics)):
        if metrics is not None:
            manifest_values[f"{prefix}_mrr"] = f"{metrics.mrr:.10f}"
            for k, v in metrics.hits_at.items():
                manifest_values[f"{prefix}_hits{k}"] = f"{v:.10f}"
    save_checkpoint(
        params, ckpt_path, seed=config.seed, dataset_hash=ds_hash,
        precision=config.dtype, manifest_extra=manifest_values,
    )
    write_manifest(out_dir / "manifest.txt", manifest_values, history)
    write_history_csv(out_dir / "history.csv", history)
    print(f"checkpoint = {ckpt_path}")
    print(f"manifest = {out_dir / 'manifest.txt'}")
    print(f"history = {out_dir / 'history.csv'}")
    if test_metrics is not None:
        print(f"test_mrr = {test_metrics.mrr:.6f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    import hashlib

    from .datasets import build_filter_index, dataset_hash
    from .evaluation import evaluate, write_metrics_json
    from .models import load_checkpoint

    params, header = load_checkpoint(args.checkpoint)
    ds_hash = dataset_hash(args.dataset)
    if header["dataset_hash"] and header["dataset_hash"] != ds_hash:
        print(
            "error: dataset hash mismatch: checkpoint was trained on "
            f"{header['dataset_hash'][:12]}..., got {ds_hash[:12]}...",
            file=sys.stderr,
        )
        return 1
    splits = _load_augmented(args.dataset)
    if splits.vocabulary.n_relations != params.n_relations:
        print("error: checkpoint/dataset relation spaces differ", file=sys.stderr)
        return 1
    filter_index = build_filter_index(splits)
    split = {"test": splits.test, "valid": splits.valid,
             "train": splits.train}[args.split]
    metrics = evaluate(params, split, filter_index, tie_policy=args.tie_policy)
    ckpt_hash = hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest()
    write_metrics_json(
        metrics, args.out, tie_policy=args.tie_policy,
        extra={
            "split": args.split,
            "checkpoint": str(args.checkpoint),
            "checkpoint_hash": ckpt_hash,
            "dataset_hash": ds_hash,
            "precision": header["precision"],
        },
    )
    print(f"mrr = {metrics.mrr:.6f}")
    for k, v in metrics.hits_at.items():
        print(f"hits@{k} = {v:.6f}")
    print(f"report = {args.out}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    from .training import grid_search, write_grid_csv

    collected = _collect_values(args)
    if not collected["axes"]:
        collected["axes"] = {"seed": [collected["values"].get("seed", 0)]}
    splits = _load_augmented(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = grid_search(
        splits, collected["values"], collected["axes"], out_dir=out_dir
    )
    csv_path = out_dir / "grid.csv"
    write_grid_csv(rows, csv_path)
    trained = sum(1 for row in rows if row["status"] == "ok")
    cached = sum(1 for row in rows if row["status"] == "cached")
    failed = sum(1 for row in rows if row["status"] == "error")
    print(f"rows = {len(rows)} (trained {trained}, cached {cached}, "
          f"failed {failed})")
    print(f"grid = {csv_path}")
    # Individual configuration failures are recorded in the table, not fatal.
    return 0


def cmd_plot_norms(args: argparse.Namespace) -> int:
    from .regularizers import write_norm_curves_csv

    labels = [part.strip() for part in args.families.split(",") if part.strip()]
    write_norm_curves_csv(
        args.out, labels, interval=(args.low, args.high), samples=args.samples
    )
    print(f"norms = {args.out}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from .datasets import DATASET_MAGIC, dataset_stats, load_dataset
    from .models import CHECKPOINT_MAGIC, read_checkpoint_header

    with open(args.path, "rb") as fh:
        magic = fh.read(8)
    if magic == CHECKPOINT_MAGIC:
        header = read_checkpoint_header(args.path)
        tables = header.pop("tables")
        for key, value in header.items():
            print(f"{key} = {value}")
        total = 0
        for name, rows, cols in tables:
            print(f"table.{name} = {rows}x{cols}")
            total += rows * cols
        print(f"float_count = {total}")
    elif magic == DATASET_MAGIC:
        splits = load_dataset(args.path)
        print(f"reciprocal = {splits.reciprocal}")
        print(f"no_time_slot = {splits.vocabulary.has_no_time}")
        for key, value in dataset_stats(splits).items():
            print(f"{key} = {value}")
    else:
        print(f"error: {args.path} is neither a checkpoint nor an encoded "
              "dataset", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated flags: the thread-cap pre-scan matches ``--threads``
    # exactly, so ``--thread 2`` must not parse as if it had been honored.
    parser = argparse.ArgumentParser(
        prog="tkgc",
        description="Temporal knowledge-graph completion experiments",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("ingest", help="encode raw benchmark files")
    p.add_argument("directory", help="directory with train/valid/test files")
    p.add_argument("--format", choices=("icews", "yago15k"), required=True)
    p.add_argument("--out", required=True, help="encoded dataset path")
    p.add_argument("--train", help="train filename override")
    p.add_argument("--valid", help="valid filename override")
    p.add_argument("--test", help="test filename override")
    p.set_defaults(func=cmd_ingest)

    p = add("train", help="train a model and write a checkpoint")
    p.add_argument("--dataset", required=True, help="encoded dataset path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=_positive_int,
                   help="cap BLAS worker threads")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = add("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="metrics report path (JSON)")
    p.add_argument("--split", choices=("test", "valid", "train"),
                   default="test")
    p.add_argument("--tie-policy",
                   choices=("pessimistic", "optimistic", "mean"),
                   default="pessimistic")
    p.add_argument("--threads", type=_positive_int,
                   help="cap BLAS worker threads")
    p.set_defaults(func=cmd_eval)

    p = add("grid", help="grid search over hyperparameters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=_positive_int,
                   help="cap BLAS worker threads")
    _add_config_flags(p)
    p.set_defaults(func=cmd_grid)

    p = add("plot-norms", help="emit norm curve CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--families", default="L1,N2,N3,N4,N5",
                   help="comma-separated labels, e.g. N2,N5,L1")
    p.add_argument("--low", type=float, default=-2.0)
    p.add_argument("--high", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=401)
    p.set_defaults(func=cmd_plot_norms)

    p = add("inspect", help="describe a checkpoint or dataset file")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures keep a nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
