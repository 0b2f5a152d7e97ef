"""Command-line interface tying the pipeline together.

Subcommands: ingest, fit-temporal, train, eval, query, synth.
Exit codes: 0 ok, 1 usage, 2 data/config error, 3 numeric failure.
Summaries are printed as JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from . import corpus as cp
from . import retrieval as rt
from . import synth as sy
from . import temporal as tp
from .config import RunConfig, config_from_dict, load_config
from .corpus import load_bundle  # bench/checks.py imports it from here
from .projection import (
    DegenerateProjectionError,
    NonFiniteGradientError,
    load_checkpoint,
    save_checkpoint,
)
from .train import fit_temporal_model, train_model, write_training_log

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _split_bundle(directory, cfg: RunConfig):
    """The bundle at ``directory`` and its (train, val, test) split under ``cfg``."""
    corpus = load_bundle(directory, cfg.time_unit)
    return corpus, cp.split(corpus, cp.SplitSpec(cfg.dev_fraction, cfg.val_fraction, cfg.seed))


# ---------------------------------------------------------------------------
# Commands


def _bundle_summary(corpus, **extra) -> dict:
    """The sizes that ``ingest`` and ``synth`` report of the bundle they write."""
    return {"documents": len(corpus), "d_image": corpus.d_image, "d_text": corpus.d_text,
            "categories": len(set().union(*corpus.label_sets)),
            "num_slices": corpus.time_axis.num_slices, **extra}


def cmd_ingest(args) -> int:
    corpus = cp.load_corpus(args.manifest, args.features, args.vocab, time_unit=args.time_unit)
    cp.save_corpus(corpus, args.out)
    _emit(_bundle_summary(corpus, dropped_tokens=corpus.dropped_token_count))
    return EXIT_OK


def cmd_fit_temporal(args) -> int:
    cfg = load_config(args.config, args.seed)
    _, (train, _, _) = _split_bundle(args.corpus, cfg)
    model = fit_temporal_model(args.kind, train, cfg)
    tp.write_temporal_model(args.out, model)
    summary = {"kind": args.kind, "train_documents": len(train)}
    if args.kind == "category":
        summary["categories_with_curves"] = len(model.categories)
    if args.kind == "topic":
        summary["effective_slices"] = model.num_effective_slices
        summary["vocabulary"] = len(model.vocabulary)
    _emit(summary)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    corpus, (train, val, _) = _split_bundle(args.corpus, cfg)
    temporal_model = None
    if args.temporal is not None:
        temporal_model = tp.read_temporal_model(args.temporal)
        axis = getattr(temporal_model, "time_axis", corpus.time_axis)  # only topic models have one
        if axis != corpus.time_axis:
            raise tp.TemporalModelError(f"{args.temporal}: the model's time axis {axis} is not"
                                        f" the corpus's {corpus.time_axis}")
    result = train_model(train, val, cfg, temporal_model=temporal_model)
    save_checkpoint(args.out, result.model, config=asdict(cfg), seed=cfg.seed)
    if args.log is not None:
        write_training_log(result.history, args.log)
    _emit(
        {
            "epochs_run": len(result.history),
            "best_epoch": result.best_epoch,
            "best_val_map": result.best_val_map,
            "checkpoint": str(args.out),
        }
    )
    return EXIT_OK


def _restore(args):
    """Checkpoint + bundle -> (config, model, corpus, test split, training split's IDF weights)."""
    model, config_snapshot, _ = load_checkpoint(args.checkpoint)
    cfg = config_from_dict(config_snapshot)
    corpus, (train, _, test) = _split_bundle(args.corpus, cfg)
    trained, given = (model.dims["d_image"], model.dims["d_text"]), (corpus.d_image, corpus.d_text)
    if trained != given:
        raise cp.CorpusError(f"{args.checkpoint} was trained on (d_image, d_text) = {trained},"
                             f" but the bundle {args.corpus} has {given}")
    return cfg, model, corpus, test, cp.document_frequencies(train)


def _k_value(raw) -> int:
    """argparse type for a cut-off k: an integer >= 1."""
    try:
        k = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k {raw!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"k must be >= 1, got {k}")
    return k


def _k_list(raw) -> list[int]:
    """argparse type for the scope cut-offs: comma-separated, strictly increasing k values;
    an empty value means the defaults."""
    if not raw:
        return list(rt.DEFAULT_SCOPE_KS)
    ks = [_k_value(part) for part in raw.split(",") if part.strip()]
    if not ks:
        raise argparse.ArgumentTypeError("empty k list")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise argparse.ArgumentTypeError(f"k list must be strictly increasing, got {raw!r}")
    return ks


def cmd_eval(args) -> int:
    cfg, model, _, test, idf = _restore(args)
    k = cfg.k_eval if args.k is None else args.k
    index = rt.build_index(test, model, idf)
    del _, test  # the index holds all that scoring reads; free the corpus columns first
    grading = rt.grade_split(index, cfg.eval_bins, k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"k": k, "test_documents": len(index)}
    for direction in rt.DIRECTIONS:
        report = rt.evaluate_direction(index, grading, direction, k, args.k_list,
                                       ndcg_gain=cfg.ndcg_gain)
        tag = direction.lower()
        rt.write_report_json(report, out_dir / f"report-{tag}.json")
        rt.write_scope_csv(report, out_dir / f"scope-{tag}.csv")
        rt.write_temporal_csv(report, out_dir / f"temporal-{tag}.csv")
        summary[f"map_{tag}"] = report.map_at_k
        summary[f"ndcg_{tag}"] = report.ndcg_at_k
        summary[f"temporal_fit_{tag}"] = report.temporal_fit
    _emit(summary)
    return EXIT_OK


def cmd_query(args) -> int:
    _, model, corpus, _, idf = _restore(args)
    if args.text is not None:
        text = cp.token_rows([Counter(args.text.split())], corpus.vocabulary)
        direction, row = rt.T2I, cp.tfidf_matrix(text, idf)
        if not row.any():
            print("warning: the query text row is empty: no query token has a nonzero"
                  " TF-IDF weight in the training vocabulary", file=sys.stderr)
    else:
        if not 0 <= args.image_row < len(corpus):
            raise cp.CorpusError(f"--image-row {args.image_row} outside corpus")
        direction, row = rt.I2T, corpus.image[args.image_row : args.image_row + 1]
    index = rt.build_index(corpus, model, idf, candidates_of=direction)
    results, truncated = rt.query_topk(index, model, direction, row, k=args.k)
    row_of = dict(zip(corpus.ids, range(len(corpus))))
    for doc_id, score in results:
        i = row_of[doc_id]
        _emit({"doc_id": doc_id, "score": round(score, 6), "timestamp": int(corpus.epochs[i]),
               "labels": sorted(corpus.label_sets[i])})
    if truncated:
        print(f"note: index holds only {len(index)} documents", file=sys.stderr)
    return EXIT_OK


def _modes(raw) -> list[tuple[float, float, float]]:
    """argparse type for temporal modes: comma-separated center:width:weight triples."""
    modes = []
    for part in raw.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(
                f"bad mode spec {part!r}, expected center:width:weight")
        try:
            modes.append(tuple(float(x) for x in fields))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad mode spec {part!r}") from None
    return modes


def cmd_synth(args) -> int:
    spec = sy.SynthSpec(**{f.name: getattr(args, f.name) for f in fields(sy.SynthSpec)})
    corpus, truth = sy.generate(spec)
    cp.save_corpus(corpus, args.out)
    truth_path = Path(args.out) / "truth.json"
    truth_path.write_text(json.dumps(truth.to_dict(), sort_keys=True), encoding="utf-8")
    _emit(_bundle_summary(corpus, out=str(args.out)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="tcmr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a corpus bundle")
    p.add_argument("manifest")
    p.add_argument("features")
    p.add_argument("--vocab", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--time-unit", type=float, default=cp.DEFAULT_TIME_UNIT)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit-temporal", help="fit a temporal correlation model")
    p.add_argument("--kind", required=True, choices=tuple(tp.KIND_TAGS))
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_temporal)

    p = sub.add_parser("train", help="train the projection networks")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--temporal", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_k_value, default=None)
    p.add_argument("--k-list", type=_k_list, default="")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("query", help="run one cross-modal query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    modality = p.add_mutually_exclusive_group(required=True)
    modality.add_argument("--text", default=None)
    modality.add_argument("--image-row", type=int, default=None)
    p.add_argument("--k", type=_k_value, default=10)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("synth", help="generate a synthetic corpus bundle")
    p.add_argument("--out", required=True)
    # each flag's dest is a SynthSpec field, and its default the generator's
    p.add_argument("--categories", dest="num_categories", metavar="CATEGORIES", type=int,
                   default=10)
    p.add_argument("--docs-per-category", type=int, default=200)
    p.add_argument("--timespan", type=float, default=30.0)
    p.add_argument("--modes", type=_modes, default="8:1.5:0.5,22:1.5:0.5")
    p.add_argument("--d-image", type=int, default=16)
    p.add_argument("--image-noise", type=float, default=0.1)
    p.add_argument("--vocab-size", type=int, default=60)
    p.add_argument("--words-per-doc", type=int, default=8)
    p.add_argument("--concentration", dest="word_concentration", metavar="CONCENTRATION",
                   type=float, default=0.2)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:  # raised by the parser only
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateProjectionError, NonFiniteGradientError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # ValueError covers ConfigError, SynthError and MetricError
    except (cp.CorpusError, tp.TemporalModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
