"""Command-line entry point: synth, train, evaluate, gradcheck.

Exit codes are a stable contract: 0 success, 2 usage or configuration
error, 3 numerical failure (training divergence, failed gradient check).

synth, train and evaluate write run_config.json into their output
directory so a run can be replayed bit-exactly from what is recorded there:
synth and evaluate record their parsed flags, train the resolved settings
of each arm it trains.  gradcheck writes no files.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

from .dro import DEFAULT_BETA
from .gradcheck import run_gradcheck
from .losses import LOSS_KINDS, _Loss, brats_distance_matrix, load_distance_matrix
from .metrics import (aggregate, evaluate_case, format_aggregate_table, postprocess_et,
                      write_aggregate_csv, write_case_csv, write_subgroup_csv)
# Not called in this module, but kept as its attribute: the benchmark's
# tracer (perfbench/tracer.py) patches segopt.cli.ensemble_mean_softmax.
from .metrics import ensemble_mean_softmax  # noqa: F401
from .model import (MODEL_KINDS, POPULATIONS, Ensemble, Model, ModelSpec, TrainConfig,
                    TrainingDiverged, load_model, save_model, train, write_training_log)
from .numerics import write_json
from .optim import OPTIMIZER_KINDS, Lookahead
from .synthdata import MANIFEST_NAME, SynthConfig, generate, load, load_case, read_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# evaluate scores cases on threads only when they are at least this large on
# average.  The distance transforms and matmuls release the GIL, but smaller
# cases spend most of their time in Python and numpy call overhead, where two
# threads fight over it.  On a 2-core VM (24 cases, four members; the median
# of three sessions, each the median of nine runs), two threads against one
# ran evaluate at 0.82x the speed at 576 voxels per case, 0.95x at 4,096,
# 1.19x at 8,192, 1.46x at 12,288 and 1.92x at 32,768.
PARALLEL_MIN_VOXELS = 8192

# The four experiment arms: default ingredients, a better optimizer, a
# semantically informed loss, and robust sampling.  "ensemble" trains all
# four so their mean-softmax combination can be evaluated in one go.
PRESETS = {
    "baseline": {"loss": "dice_ce", "population": "erm", "optimizer": "sgd"},
    "ranger": {"loss": "dice_ce", "population": "erm", "optimizer": "ranger"},
    "gwdl": {"loss": "gwdl_ce", "population": "erm", "optimizer": "sgd"},
    "dro": {"loss": "dice_ce", "population": "dro", "optimizer": "sgd"},
}

# The train flags that are TrainConfig fields of the same name: passed from
# the flags when given, and recorded per arm at the config's resolved value.
SHARED_SETTINGS = ("beta", "lr", "epochs", "batch_size", "seed")

# Hidden width of the mlp when --hidden is not given.
DEFAULT_HIDDEN = 16


def parse_grid(text: str) -> tuple:
    parts = text.split("x")
    if len(parts) not in (2, 3):
        raise ValueError(f"grid must be AxB or AxBxC, got {text!r}")
    try:
        grid = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid must be AxB or AxBxC with integer extents, got {text!r}")
    return grid


def parse_subgroups(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        name, sep, count = chunk.partition(":")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"subgroups must be name:count[,name:count...], got {text!r}")
        if name in out:
            raise ValueError(f"subgroup {name!r} is listed twice in {text!r}")
        try:
            out[name] = int(count)
        except ValueError:
            raise ValueError(f"subgroup count for {name!r} is not an integer: {count!r}")
    return out


def _write_run_config(args, doc: dict | None = None) -> None:
    """Write ``doc``, by default the parsed flags, as run_config.json in args.out."""
    if doc is None:
        doc = {key: value for key, value in vars(args).items() if key != "func"}
    write_json(os.path.join(args.out, "run_config.json"), doc)


def _refuse_file_out(out: str) -> None:
    """Refuse an --out at or under an existing file, before any input is read.

    Walks up from ``out`` to the nearest path that exists; that path must
    be a directory for the command to make ``out`` in it.
    """
    existing = out
    while existing and not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ValueError(f"--out {out}: {existing} exists and is not a directory")


def _dataset_path(path: str) -> str:
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


def cmd_synth(args) -> int:
    _refuse_file_out(args.out)
    config = SynthConfig(
        grid=parse_grid(args.grid),
        subgroup_cases=parse_subgroups(args.subgroups),
        sigma=args.sigma,
        no_et_fraction=args.no_et_frac,
        seed=args.seed,
    )
    manifest = generate(config, args.out)
    _write_run_config(args)
    print(f"wrote {len(manifest.cases)} cases to {args.out}")
    return EXIT_OK


def _train_one(args, spec: ModelSpec, config: TrainConfig, cases, tag: str | None) -> dict:
    trained = train(Model.init(spec), cases, config)
    suffix = f"_{tag}" if tag else ""
    model_path = os.path.join(args.out, f"model{suffix}.json")
    save_model(trained.model, model_path)
    write_training_log(trained, os.path.join(args.out, f"training_log{suffix}.csv"))
    final = trained.training_log[-1].loss if trained.training_log else float("nan")
    print(f"trained {tag or 'model'}: {config.epochs} epochs, final mean loss {final:.6f}")
    return {
        **{key: getattr(config, key) for key in ("loss", "population", "optimizer",
                                                  *SHARED_SETTINGS)},
        # Lookahead's constants, recorded for every arm as the shared settings are.
        "lookahead_k": Lookahead.k,
        "lookahead_alpha": Lookahead.alpha,
        "model_kind": spec.kind,
        "hidden_width": spec.hidden_width,
        "distance_matrix": ((args.distance_matrix or "builtin")
                            if config.distance_matrix is not None else None),
        "model_file": os.path.basename(model_path),
    }


def cmd_train(args) -> int:
    _refuse_file_out(args.out)
    manifest = read_manifest(_dataset_path(args.dataset))
    cases = load(manifest)
    # Every arm is configured, and so checked, before the first one trains.
    tags = tuple(PRESETS) if args.preset == "ensemble" else (None,)
    # Explicit --loss/--population/--optimizer flags override the preset's.
    arms = {tag: {key: getattr(args, key) or value
                  for key, value in PRESETS.get(tag or args.preset, PRESETS["baseline"]).items()}
            for tag in tags}
    matrix = (load_distance_matrix(args.distance_matrix)
              if args.distance_matrix else brats_distance_matrix())
    shared = {key: getattr(args, key) for key in SHARED_SETTINGS if getattr(args, key) is not None}
    configs = {tag: TrainConfig(**arm, distance_matrix=matrix, **shared)
               for tag, arm in arms.items()}
    if args.distance_matrix and all(c.distance_matrix is None for c in configs.values()):
        raise ValueError(f"no arm's loss uses --distance-matrix {args.distance_matrix}")
    if args.beta is not None and all(c.population != "dro" for c in configs.values()):
        raise ValueError(f"no arm's population uses --beta {args.beta}")
    spec = ModelSpec(
        kind=args.model,
        input_features=manifest.feature_width,
        num_classes=manifest.num_classes,
        hidden_width=(DEFAULT_HIDDEN if args.hidden is None and args.model == "mlp"
                      else args.hidden),
        seed=args.seed + 2,  # keep init, shuffle and sampler streams apart
    )
    for config in configs.values():
        _Loss(config.loss, config.distance_matrix, spec.num_classes)
    os.makedirs(args.out, exist_ok=True)
    records = {tag: _train_one(args, spec, config, cases, tag) for tag, config in configs.items()}
    doc = {"command": "train", "dataset": args.dataset, "out": args.out, "preset": args.preset}
    if args.preset == "ensemble":
        doc["arms"] = records
    else:
        doc.update(records[None])
    _write_run_config(args, doc)
    return EXIT_OK


def case_workers(cases) -> int:
    """Threads evaluate scores ``cases`` on: one per CPU this process may
    run on, at most one per case, and 1 when the cases average fewer than
    PARALLEL_MIN_VOXELS voxels.  ``cases`` are Cases or the manifest's
    CaseEntries: both count their voxels, so evaluate decides before it
    reads any case file."""
    if not cases or sum(c.num_voxels for c in cases) < PARALLEL_MIN_VOXELS * len(cases):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(len(cases), cpus)


def cmd_evaluate(args) -> int:
    # The report directory is made only once every case has scored, so an
    # --out at or under a file is refused here, not after the scoring.
    _refuse_file_out(args.out)
    manifest = read_manifest(_dataset_path(args.dataset), check_spacing=True)
    models = []
    for path in args.models:
        model = load_model(path)
        model.spec.check_fit(manifest.feature_width, manifest.num_classes,
                             f"model {path}", "the dataset")
        models.append(model)
    # Each worker thread makes its Ensemble, and with it its buffers, on its
    # first case and reuses them for every later one.
    local = threading.local()

    def eval_one(entry):
        # The case lives only inside this call, so at most one case per
        # worker is in memory, and its read overlaps other workers' scoring.
        case = load_case(manifest, entry)
        if not hasattr(local, "ensemble"):
            local.ensemble = Ensemble(models)
        return evaluate_case(postprocess_et(local.ensemble.labels(case)), case.labels,
                             manifest.spacing_mm, case_id=case.case_id)

    # Results come back in manifest order whatever the worker count, so the
    # first faulty case file or failing case raises first, and the output
    # bytes do not change.  One worker scores the cases in this thread: a
    # one-thread pool made evaluate on 44 cases of 576 voxels about 10% slower.
    workers = case_workers(manifest.cases)
    if workers == 1:
        per_case = list(map(eval_one, manifest.cases))
    else:
        # Imported here, so that the other commands never load it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_case = list(pool.map(eval_one, manifest.cases))
    # Each subgroup's cases, in order of the subgroup's first case.
    subgroups = {}
    for entry, result in zip(manifest.cases, per_case):
        subgroups.setdefault(entry.subgroup, []).append(result)
    # Made only once every case has scored, so a refused run writes nothing.
    os.makedirs(args.out, exist_ok=True)
    stats = aggregate(per_case)
    by_subgroup = {name: aggregate(results) for name, results in subgroups.items()}
    write_case_csv(per_case, os.path.join(args.out, "metrics.csv"))
    write_aggregate_csv(stats, os.path.join(args.out, "aggregate.csv"))
    write_subgroup_csv(by_subgroup, os.path.join(args.out, "aggregate_by_subgroup.csv"))
    table = format_aggregate_table(stats)
    with open(os.path.join(args.out, "aggregate.txt"), "w") as fh:
        fh.write(table)
    _write_run_config(args)
    print(table, end="")
    if len(by_subgroup) > 1:
        for name, sub in by_subgroup.items():
            print(f"\nsubgroup {name} ({len(subgroups[name])} cases)")
            print(format_aggregate_table(sub), end="")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    kinds = [args.loss] if args.loss else None
    results = run_gradcheck(kinds, trials=args.trials, seed=args.seed)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.kind:8s} trials={r.trials} "
              f"worst prob-space rel err {r.worst_prob_err:.3e} "
              f"worst param-space rel err {r.worst_param_err:.3e} {status}")
    return EXIT_OK if all_ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segopt",
        description="Training-optimization toolkit for segmentation: synthetic "
                    "datasets, robust training, evaluation, gradient checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic nested-region dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--grid", default="16x16", help="grid extents, e.g. 16x16 or 16x16x8")
    p.add_argument("--subgroups", default="common:8",
                   help="cases per subgroup, e.g. common:40,rare:4")
    p.add_argument("--sigma", type=float, default=SynthConfig.sigma, help="feature noise level")
    p.add_argument("--no-et-frac", type=float, default=SynthConfig.no_et_fraction,
                   help="fraction of cases without an enhancing-tumor region")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--dataset", required=True, help="manifest path or dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--model", choices=MODEL_KINDS, default="linear")
    p.add_argument("--hidden", type=int, default=None,
                   help=f"hidden width (mlp only; default {DEFAULT_HIDDEN})")
    p.add_argument("--loss", choices=LOSS_KINDS, default=None)
    p.add_argument("--population", choices=POPULATIONS, default=None,
                   help="erm: uniform shuffling; dro: hardness-weighted sampling")
    p.add_argument("--beta", type=float, default=None,
                   help=f"hardness-weighting strength (dro only; default {DEFAULT_BETA:g})")
    p.add_argument("--optimizer", choices=OPTIMIZER_KINDS, default=None)
    p.add_argument("--lr", type=float, default=None,
                   help="initial learning rate (per-optimizer default otherwise)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--distance-matrix", default=None,
                   help="JSON distance-matrix file (builtin 4-class matrix otherwise)")
    p.add_argument("--preset", choices=(*PRESETS, "ensemble"), default=None,
                   help="experiment arm shorthand; explicit flags override its choices")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate one model or an ensemble")
    p.add_argument("models", nargs="+", help="model JSON files; several mean-softmax ensemble")
    p.add_argument("--dataset", required=True, help="manifest path or dataset directory")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--loss", choices=LOSS_KINDS, default=None,
                   help="single loss kind (all kinds otherwise)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
