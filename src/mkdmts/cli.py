"""Command-line interface tying the pipeline stages together.

Subcommands: synth, kernels, train, encode, cluster, eval, report.  Each
accepts ``--config FILE`` (a JSON object whose keys are the subcommand's own
flags); explicit flags win over the file.  A knob set by neither takes the
library's default: the fields of ``SynthConfig``, ``TrainConfig`` and
``ClusterConfig``, and ``zeroshot.DEFAULT_THRESHOLD``.  Every output
directory receives the given flags, the resolved configuration and the
tool version.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from . import FORMAT_VERSION, __version__
from .errors import DataError, MkdError, UsageError
from .evalx import (
    cluster, describe, load_encodings, render_report, run_report, save_descriptions, score_clustering, synthesize,
)
from .inclust import ClusterConfig, flat_clusters_from_dict
from .ioutil import check_int, is_integer, make_dir, read_json, show_path, write_json, write_text
from .kernels import DEFAULT_BANDWIDTH, build_or_load_kernelset, check_bandwidth, load_kernelset
from .mkd import TrainConfig, load_model, save_model, train, tune
from .mtsdata import SynthConfig, load_dataset
from .zeroshot import DEFAULT_THRESHOLD, check_threshold


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _effective(args: argparse.Namespace, kinds: dict) -> dict:
    """The subcommand's flags, with those left unset filled from the optional --config file.

    ``kinds`` maps each flag to its argparse type.  A file value for an int
    flag must be a JSON integer, for a float flag a number (an integer is
    taken as that float), and for any other flag a string; the bandwidth,
    "median" or a number, is left to ``check_bandwidth``.
    """
    expected = {int: ("an integer", int), float: ("a number", (int, float)), None: ("a string", str)}
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config", "verbose", "handler")}
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise UsageError(f"{show_path(args.config)}: expected a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)} in {show_path(args.config)}")
        for key, value in loaded.items():
            what, types = expected[kinds[key]]
            if value is not None and key != "bandwidth" and (isinstance(value, bool) or not isinstance(value, types)):
                raise UsageError(f"{key} must be {what}, got {value!r}")
        cfg.update({k: v for k, v in loaded.items() if cfg[k] is None})
    return cfg


def _checked(check, *args, **kwargs):
    """``check(*args, **kwargs)``; a value it rejects with a ValueError or DataError is a usage error."""
    try:
        return check(*args, **kwargs)
    except (ValueError, DataError) as exc:
        raise UsageError(str(exc)) from None


# Each numeric knob backed by a config dataclass, {flag dest: (field, kind)}; build_parser
# adds the flags from these tables and _config maps the set ones onto the class.
_SYNTH_FLAGS = {
    "seed": ("seed", int), "seen_classes": ("num_seen_classes", int), "unseen_classes": ("num_unseen_classes", int),
    "dims": ("dims", int), "samples": ("samples_per_class", int), "noise": ("noise_std", float),
}
_TRAIN_FLAGS = {
    "k": ("k", int), "tx": ("t_x", int), "ta": ("t_a", int), "tbeta": ("t_beta", int),
    "iters": ("max_iters", int), "tol": ("tol", float), "seed": ("seed", int),
}
_CLUSTER_FLAGS = {
    "kclust": ("k_clust", float), "krmv": ("k_rmv", float), "gamma": ("gamma", float),
    "split_min": ("split_min", int), "dup_eps": ("dup_eps", float),
}


def _config(cls, cfg: dict, flags: dict[str, tuple[str, type]], **fields):
    """``cls`` built from ``fields`` and the set ``flags``; unset flags keep the class's defaults.

    Values already have their flag's type, except a file's integer for a
    float flag, which ``kind`` turns into that float.
    """
    fields.update({field: kind(cfg[flag]) for flag, (field, kind) in flags.items() if cfg[flag] is not None})
    return _checked(cls, **fields)


def _write_run_info(out_dir: Path, command: str, cfg: dict, config: dict) -> None:
    """Record the flags as given (command line merged with --config) and the resolved ``config``."""
    write_json(out_dir / "run_info.json", {
        "tool_version": __version__, "format_version": FORMAT_VERSION, "command": command,
        "args": {k: v for k, v in cfg.items() if v is not None}, "config": config,
    })


def _cmd_synth(cfg: dict) -> int:
    lo, hi = SynthConfig.length_range
    synth_cfg = _config(SynthConfig, cfg, _SYNTH_FLAGS, length_range=(
        lo if cfg["length_min"] is None else cfg["length_min"], hi if cfg["length_max"] is None else cfg["length_max"]))
    out = Path(cfg["out"])
    seen, unseen = synthesize(synth_cfg, out)
    _write_run_info(out, "synth", cfg, asdict(synth_cfg))
    print(f"wrote {len(seen)} seen and {len(unseen)} unseen sequences to {out}", file=sys.stderr)
    return 0


def _cmd_kernels(cfg: dict) -> int:
    bandwidth = _checked(check_bandwidth, DEFAULT_BANDWIDTH if cfg["bandwidth"] is None else cfg["bandwidth"])
    seen = load_dataset(cfg["manifest"], role="seen")
    ks = build_or_load_kernelset(seen, cfg["out"], bandwidth)
    _write_run_info(Path(cfg["out"]), "kernels", cfg, {"bandwidths": [float(b) for b in ks.bandwidths]})
    print(f"kernels for {ks.n} sequences x {ks.dims} dimensions in {cfg['out']}", file=sys.stderr)
    return 0


def _tune_grid(path) -> list[tuple[int, int]]:
    """The (k, t_x) pairs of a ``{"grid": [[k, tx], ...]}`` file; a malformed grid is a usage error."""
    spec = read_json(path)
    try:
        grid = [(k, tx) for k, tx in spec["grid"]]
    except (KeyError, TypeError, ValueError):
        grid = []
    if not grid or not all(is_integer(v) and v >= 1 for pair in grid for v in pair):
        raise UsageError(f'{show_path(path)}: expected {{"grid": [[k, tx], ...]}} with at least one pair of integers >= 1')
    return grid


def _cmd_train(cfg: dict) -> int:
    train_cfg = _config(TrainConfig, cfg, _TRAIN_FLAGS)
    grid = _tune_grid(cfg["tune"]) if cfg["tune"] else None
    seen = load_dataset(cfg["manifest"], role="seen")
    ks = load_kernelset(cfg["kernels"])
    if grid:
        train_cfg = tune(seen, ks, grid, train_cfg)
        print(f"tuned: k={train_cfg.k} t_x={train_cfg.t_x}", file=sys.stderr)
    result = train(seen, ks, train_cfg)
    train_cfg = train_cfg.resolve(ks.n, ks.dims)
    save_model(result, cfg["out"], train_cfg, ks.bandwidths)
    _write_run_info(Path(cfg["out"]), "train", cfg, asdict(train_cfg))
    print(f"final loss {result.loss_trace[-1]:.6f} after {len(result.loss_trace) - 1} iterations", file=sys.stderr)
    return 0


def _cmd_encode(cfg: dict) -> int:
    t_x = cfg["tx"] if cfg["tx"] is None else _checked(check_int, "t_x", cfg["tx"], 1)
    threshold = _checked(check_threshold, DEFAULT_THRESHOLD if cfg["threshold"] is None else cfg["threshold"])
    seen = load_dataset(cfg["seen_manifest"], role="seen")
    unseen = load_dataset(cfg["manifest"], role="unseen")
    ks = load_kernelset(cfg["kernels"])
    model, meta = load_model(cfg["model"])
    if meta["bandwidths"] != ks.bandwidths.tolist():
        raise DataError(f"{show_path(cfg['model'])} was trained on kernel bandwidths {meta['bandwidths']}, "
                        f"{show_path(cfg['kernels'])} holds {ks.bandwidths.tolist()}")
    if t_x is None:
        t_x = meta["t_x"]
    described = describe(seen, ks, model, unseen, t_x, threshold)
    out = make_dir(cfg["out"])
    _write_run_info(out, "encode", cfg, {"t_x": t_x, "threshold": threshold})  # first: index.json is written last
    save_descriptions(described, out)
    print(f"encoded {len(described)} sequences into {out}", file=sys.stderr)
    return 0


def _parse_order(spec: str | None) -> int | None:
    """Arrival-order seed of ``shuffle:SEED``; None for ``file`` order (the default)."""
    if spec in (None, "file"):
        return None
    if spec.startswith("shuffle:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            pass
        else:
            return _checked(check_int, "order seed", seed, 0)
    raise UsageError(f"bad order {spec!r}; expected file or shuffle:SEED")


def _cmd_cluster(cfg: dict) -> int:
    cluster_cfg = _config(ClusterConfig, cfg, _CLUSTER_FLAGS)
    order_seed = _parse_order(cfg["order"])
    tree = cluster(load_encodings(cfg["enc"]), cluster_cfg, order_seed)
    out = Path(cfg["out"])
    make_dir(out.parent)
    if cfg["dot"]:
        write_text(cfg["dot"], tree.to_dot() + "\n")
    _write_run_info(out.parent, "cluster", cfg, asdict(cluster_cfg) | {"order_seed": order_seed})
    tree.save(out)  # last: a run that fails leaves no new tree for eval to score
    print(f"tree with {len(tree.roots)} top-level nodes over {tree.size()} sequences", file=sys.stderr)
    return 0


def _cmd_eval(cfg: dict) -> int:
    pred = flat_clusters_from_dict(read_json(cfg["tree"]))
    truth_ds = load_dataset(cfg["truth"], role="unseen")
    truth = dict(zip(truth_ds.ids(), truth_ds.labels().tolist()))
    score = score_clustering(pred, truth)
    write_json(cfg["out"], {
        "ce": float(score.ce),
        "nmi": float(score.nmi),
        "num_clusters": len(set(pred.values())),
        "num_classes": len(set(truth.values())),
        "contingency": score.contingency.tolist(),
        "nmi_normalization": "sqrt",
        "tool_version": __version__,
    })
    print(f"CE {100 * score.ce:.2f}%  NMI {score.nmi:.4f}", file=sys.stderr)
    return 0


def _cmd_report(cfg: dict) -> int:
    sys.stdout.write(render_report(run_report(cfg["run"])))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mkdmts", description="multiple-kernel dictionary learning for multivariate time series")
    parser.add_argument("--version", action="version", version=f"mkdmts {__version__} (formats v{FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    def common(p, handler):
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("-v", "--verbose", action="store_true")
        p.set_defaults(handler=handler)  # a dest no flag uses; _effective leaves it out of the flags

    def knobs(p, flags):
        for flag, (_, kind) in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), type=kind, dest=flag)

    p = sub.add_parser("synth", help="generate a synthetic seen/unseen dataset")
    knobs(p, _SYNTH_FLAGS)
    p.add_argument("--length-min", type=int, dest="length_min")
    p.add_argument("--length-max", type=int, dest="length_max")
    p.add_argument("--out", required=True)
    common(p, _cmd_synth)

    p = sub.add_parser("kernels", help="build per-dimension DTW kernel matrices")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bandwidth", help="'median' or a fixed positive value")
    common(p, _cmd_kernels)

    p = sub.add_parser("train", help="train the multiple-kernel dictionary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kernels", required=True)
    knobs(p, _TRAIN_FLAGS)
    p.add_argument("--tune", help="JSON file with {'grid': [[k, tx], ...]}")
    p.add_argument("--out", required=True)
    common(p, _cmd_train)

    p = sub.add_parser("encode", help="encode unseen sequences against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--kernels", required=True)
    p.add_argument("--seen-manifest", required=True, dest="seen_manifest")
    p.add_argument("--manifest", required=True, help="unseen manifest")
    p.add_argument("--tx", type=int, help="override the model's code sparsity")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    common(p, _cmd_encode)

    p = sub.add_parser("cluster", help="incrementally cluster encoded sequences")
    p.add_argument("--enc", required=True)
    p.add_argument("--order", help="file or shuffle:SEED")
    knobs(p, _CLUSTER_FLAGS)
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    common(p, _cmd_cluster)

    p = sub.add_parser("eval", help="score a tree against ground-truth labels")
    p.add_argument("--tree", required=True)
    p.add_argument("--truth", required=True, help="labeled unseen manifest")
    p.add_argument("--out", required=True)
    common(p, _cmd_eval)

    p = sub.add_parser("report", help="render a run directory as text")
    p.add_argument("--run", required=True)
    common(p, _cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.INFO)
        kinds = {a.dest: a.type for a in parser.commands[args.command]._actions}
        return args.handler(_effective(args, kinds))
    except SystemExit as exc:  # argparse --version / --help
        return int(exc.code or 0)
    except MkdError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            parser.print_usage(sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
