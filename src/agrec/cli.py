"""Operator entry point: prepare / extract / train / evaluate / recommend.

Exit codes: 0 ok, 2 config error, 3 integrity mismatch, 4 lookup failure,
1 anything else. Flags override config-file values (`--config`, simple
`key = value` lines); the fully resolved configuration is echoed into every
output artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (AgrecError, ConfigError, DataError, IntegrityError,
                     UnknownIdError)
from .extractor import (FixtureBackend, HttpBackend, PromptKind,
                        run_extraction_batch)
from .ingest import (MANIFEST_NAME, TEXT_ATTRS_NAME, atomic_write,
                     filter_min_popularity, fit_price_buckets, open_text,
                     read_interactions, read_items, split_dataset, split_ratios,
                     text_attributes_line, tokenize_text_attributes,
                     write_manifest)

# Run as a program (`python -m agrec.cli`, `python -m agrec`, the `agrec`
# script), each command imports the model layers it runs inside its own
# function: `prepare` and `extract` load none of them, nor numpy.
# Imported as a module, agrec.cli loads every layer and binds `forward`, as
# it always has, for callers and for tools that wrap agrec's functions.
if __name__ != "__main__":
    from . import evaluation, pipeline, training  # noqa: F401
    from .model import forward  # noqa: F401

EXIT_OK, EXIT_OTHER, EXIT_CONFIG, EXIT_INTEGRITY, EXIT_LOOKUP = 0, 1, 2, 3, 4


def read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open_text(path, ConfigError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _ratios(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _split(text: str) -> tuple[float, ...]:
    return split_ratios(_ratios(text))


def _at_least(lo: int):
    """An int cast that refuses values below `lo`."""
    def cast(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ConfigError(f"must be >= {lo}, got {value}")
        return value
    return cast


# Each command's settings, key -> (cast, default). Every key is also the
# command's flag: "--" + key with "_" as "-". _resolve casts its value,
# from the flag or from a config file, before the command reads any input.
SETTINGS = {
    "prepare": {
        "min_users": (_at_least(0), 10),
        "split": (_split, (0.8, 0.1, 0.1)),
        "seed": (_at_least(0), 0),
        "price_buckets": (_at_least(1), 10),
    },
    "extract": {
        "backend": (str, "fixture"),
        "fixture": (str, None),
        "base_url": (str, None),
        "auth_env": (str, "AGREC_VLM_TOKEN"),
        "timeout": (float, 30.0),
        "kinds": (str, ",".join(kind.value for kind in PromptKind)),
        "threads": (_at_least(1), 1),
    },
    "train": {
        "dim": (int, 64),
        "layers": (int, 3),
        "lr": (float, 1e-3),
        "l2": (float, 1e-4),
        "neg": (int, 1),
        "epochs": (_at_least(1), 50),
        "seed": (_at_least(0), 0),
        "batch": (_at_least(1), 256),
        "val_k": (_at_least(1), 50),
        "patience": (_at_least(0), 5),
        "init_scale": (float, 0.1),
        "alpha": (_ratios, None),
    },
    "evaluate": {"k": (_at_least(1), 50)},
    "recommend": {"k": (_at_least(1), 10)},
}


def _resolve(args) -> dict:
    """Merge defaults < config file < explicit flags, per key; a value that
    does not parse or is out of range raises ConfigError naming its key."""
    file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, (cast, default) in SETTINGS[args.command].items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            where, text = "--" + key.replace("_", "-"), flag_value
        elif key in file_cfg:
            where, text = f"config key {key}", file_cfg[key]
        else:
            resolved[key] = default
            continue
        try:
            resolved[key] = cast(text)
        except ValueError:
            raise ConfigError(f"{where}: cannot parse {text!r}") from None
        except ConfigError as exc:
            raise ConfigError(f"{key} {exc}") from None
    return resolved


def _echoable(resolved: dict) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in resolved.items()}


def _refuse_overwrite(paths, force: bool) -> None:
    existing = [p for p in paths if p and os.path.exists(p)]
    if existing and not force:
        raise AgrecError(
            f"output already exists (rerun with --force): {existing[0]}")


# --- prepare -----------------------------------------------------------------

def cmd_prepare(args) -> int:
    cfg = _resolve(args)
    cfg.update(interactions=args.interactions, items=args.items, out=args.out,
               include_description=not args.no_description)

    manifest_path = os.path.join(args.out, MANIFEST_NAME)
    text_attrs_path = os.path.join(args.out, TEXT_ATTRS_NAME)
    _refuse_overwrite([manifest_path, text_attrs_path], args.force)

    interactions = read_interactions(args.interactions)
    filtered = filter_min_popularity(interactions, cfg["min_users"])
    if not filtered:
        raise DataError("no interactions left after popularity filtering")
    split = split_dataset(filtered, ratios=cfg["split"], seed=cfg["seed"])

    items = read_items(args.items)
    prices = [m.price for m in items if m.price is not None]
    buckets = fit_price_buckets(prices, cfg["price_buckets"])
    stop_words = None
    if args.stop_words:
        with open_text(args.stop_words) as fh:
            stop_words = frozenset(w.strip() for w in fh if w.strip())

    os.makedirs(args.out, exist_ok=True)
    with atomic_write(text_attrs_path) as fh:
        fh.writelines(text_attributes_line(meta.item_id, tokenize_text_attributes(
            meta, buckets, stop_words=stop_words,
            include_description=cfg["include_description"])) for meta in items)

    counts = write_manifest(manifest_path, seed=cfg["seed"], ratios=cfg["split"],
                            split=split, config=_echoable(cfg),
                            extra={"price_boundaries": buckets.boundaries})
    print(json.dumps({"out": args.out, **counts}, sort_keys=True))
    return EXIT_OK


# --- extract -----------------------------------------------------------------

def cmd_extract(args) -> int:
    cfg = _resolve(args)
    kinds = []
    for name in cfg["kinds"].split(","):
        try:
            kinds.append(PromptKind(name.strip()))
        except ValueError:
            raise ConfigError(f"unknown prompt kind {name.strip()!r}") from None

    if cfg["backend"] == "fixture":
        if not cfg["fixture"]:
            raise ConfigError("--backend fixture requires --fixture")
        backend = FixtureBackend.from_file(cfg["fixture"])
    elif cfg["backend"] == "http":
        if not cfg["base_url"]:
            raise ConfigError("--backend http requires --base-url")
        backend = HttpBackend(cfg["base_url"], auth_env=cfg["auth_env"],
                              timeout=cfg["timeout"])
    else:
        raise ConfigError(f"unknown backend {cfg['backend']!r}")

    items = read_items(args.items)
    pairs = [(m.item_id, m.image_ref) for m in items]
    summary = run_extraction_batch(pairs, kinds, backend, cfg["threads"], args.out)
    doc = summary.to_dict()
    doc["config"] = _echoable({**cfg, "items": args.items, "out": args.out})
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


# --- train -------------------------------------------------------------------

def _versions() -> dict:
    """The versions of agrec and numpy that wrote an artifact."""
    import numpy
    return {"agrec": __version__, "numpy": numpy.__version__}


def cmd_train(args) -> int:
    from .model import ModelConfig
    from .pipeline import load_dataset
    from .training import train

    cfg = _resolve(args)
    cfg.update(data=args.data, attrs=args.attrs, out=args.out)

    log_path = args.log or (args.out + ".log.jsonl")
    _refuse_overwrite([args.out, log_path], args.force)

    config = ModelConfig(
        dim=cfg["dim"], layers=cfg["layers"],
        layer_weights=cfg["alpha"], learning_rate=cfg["lr"],
        l2_weight=cfg["l2"], n_negatives=cfg["neg"],
        init_scale=cfg["init_scale"], seed=cfg["seed"])
    config.validate()

    prepared = load_dataset(args.data, args.attrs)
    result = train(
        prepared.split, prepared.bundle, config,
        epochs=cfg["epochs"], batch_size=cfg["batch"], val_k=cfg["val_k"],
        patience=cfg["patience"],
        log_path=log_path, checkpoint_path=args.out,
        checkpoint_extra={"config": _echoable(cfg), "versions": _versions()})

    summary = {
        "checkpoint": args.out, "log": log_path,
        "epochs_run": len(result.stats),
        "final_loss": result.stats[-1].loss,
        "best_epoch": result.best_epoch,
        "best_val_recall": result.best_val_recall,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


# --- evaluate ----------------------------------------------------------------

def cmd_evaluate(args) -> int:
    from .evaluation import evaluate
    from .model import load_checkpoint
    from .pipeline import load_dataset

    cfg = _resolve(args)
    cfg.update(model=args.model, data=args.data, attrs=args.attrs,
               cold_start=args.cold_start)

    prepared = load_dataset(args.data, args.attrs)
    checkpoint = load_checkpoint(args.model)
    mode = "cold_start" if args.cold_start else "standard"
    report = evaluate(checkpoint, prepared.bundle, prepared.split, cfg["k"],
                      mode=mode, cold=prepared.cold if args.cold_start else None,
                      dataset_hash=prepared.dataset_hash)
    doc = report.to_dict()
    doc["config"] = _echoable(cfg)
    doc["versions"] = _versions()
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
    return EXIT_OK


# --- recommend ---------------------------------------------------------------

def _item_keywords(bundle, item_idx: int) -> set[str]:
    """The item's attribute keywords, read off its g_iia edges."""
    g = bundle.g_iia
    lo, hi = g.left.searchsorted((item_idx, item_idx + 1))
    return {bundle.vocab_ia.entries[kw] for kw in g.right[lo:hi].tolist()}


def cmd_recommend(args) -> int:
    from .evaluation import top_k
    from .model import final_embeddings, forward, load_checkpoint
    from .pipeline import load_dataset

    cfg = _resolve(args)
    cfg.update(model=args.model, data=args.data, attrs=args.attrs,
               user=args.user, explain=args.explain)

    prepared = load_dataset(args.data, args.attrs)
    checkpoint = load_checkpoint(args.model)
    bundle = prepared.bundle
    checkpoint.check_matches(bundle)
    user_idx = bundle.vocab_u.index_of(args.user)

    stack = forward(checkpoint.tables, bundle, checkpoint.config())
    e_u, e_i = final_embeddings(stack)

    lo, hi = bundle.g_ui.left.searchsorted((user_idx, user_idx + 1))
    seen = bundle.g_ui.right[lo:hi]  # the user's items are row 0's keys
    (top,), (scores,) = top_k(e_u[[user_idx]], e_i, cfg["k"], exclude=seen)
    kept = top >= 0  # -1 pads the row after the user's last candidate
    top, scores = top[kept], scores[kept]
    if top.size == 0:
        raise DataError(f"user {args.user!r} has interacted with every item")

    history_keywords: set[str] = set()
    if args.explain:
        for i in seen.tolist():
            history_keywords |= _item_keywords(bundle, i)

    recs = []
    for item_idx, item_score in zip(top, scores):
        item_id = bundle.vocab_i.entries[int(item_idx)]
        entry = {"item_id": item_id, "score": float(item_score)}
        if args.explain:
            shared = history_keywords & _item_keywords(bundle, int(item_idx))
            entry["shared_keywords"] = sorted(shared)
        recs.append(entry)
    doc = {"user": args.user, "k": cfg["k"], "items": recs,
           "config": _echoable(cfg)}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def _add_settings(p: argparse.ArgumentParser, command: str) -> None:
    for key in SETTINGS[command]:
        p.add_argument("--" + key.replace("_", "-"), dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrec",
        description="Attribute-graph recommender: data prep, keyword "
                    "extraction, training, evaluation and recommendation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse, filter, split and tokenize raw data")
    p.add_argument("--interactions", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "prepare")
    p.add_argument("--stop-words", dest="stop_words")
    p.add_argument("--no-description", dest="no_description", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("extract", help="run vision-language keyword extraction")
    p.add_argument("--items", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "extract")
    p.add_argument("--config")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train embedding tables with BPR")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--attrs")
    _add_settings(p, "train")
    p.add_argument("--log")
    p.add_argument("--force", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compute Recall/NDCG/Precision@k")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--attrs")
    _add_settings(p, "evaluate")
    p.add_argument("--cold-start", dest="cold_start", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-k items for one user")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--attrs")
    p.add_argument("--user", required=True)
    _add_settings(p, "recommend")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except UnknownIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOOKUP
    except (AgrecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
