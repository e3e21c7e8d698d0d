"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — list the dataset catalog (Table I), or one dataset's details.
* ``train`` — fit PA-FEAT on a dataset's seen tasks and save the model.
* ``select`` — load a saved model and select features for unseen tasks.
* ``experiment`` — run one paper artefact (table1, fig5, ..., fig9) and
  print its rows.
* ``serve`` — run the async micro-batching selection server on a saved
  model (or a directory of versioned models); ``/select``, ``/healthz``,
  ``/metrics``, graceful drain on SIGTERM.
* ``obs`` — inspect observability artifacts; ``obs summarize`` renders a
  run report from a ``--telemetry-dir`` event stream.

Examples::

    python -m repro info
    python -m repro train --dataset water-quality --output /tmp/model
    python -m repro train --dataset water-quality --output /tmp/model \
        --telemetry-dir /tmp/telemetry
    python -m repro obs summarize /tmp/telemetry
    python -m repro select --model /tmp/model --dataset water-quality
    python -m repro experiment --artefact table2 --scale smoke
    python -m repro serve --checkpoint-dir /tmp/model --port 8765
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from repro import __version__
from repro.core.pafeat import PAFeat
from repro.data.catalog import DATASETS, dataset_names
from repro.experiments.runner import load_suite, make_config
from repro.io.lifecycle import GracefulShutdown
from repro.obs.clock import monotonic

#: Exit code for a run stopped by SIGINT/SIGTERM (after the checkpoint flush).
EXIT_INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PA-FEAT reproduction: fast feature selection via MT-DRL",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="describe the dataset catalog")
    info.add_argument("--dataset", choices=dataset_names(), help="one dataset's details")

    train = subparsers.add_parser("train", help="fit PA-FEAT and save the model")
    train.add_argument("--dataset", required=True, choices=dataset_names())
    train.add_argument("--output", required=True, help="directory for the model artifact")
    train.add_argument("--scale", default="mini", choices=("smoke", "mini", "full"))
    train.add_argument("--iterations", type=int, default=None, help="override iteration count")
    train.add_argument("--mfr", type=float, default=0.6, help="max feature ratio")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="flush crash-safe training checkpoints to this directory",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="iterations between checkpoints (default: config checkpoint_every)",
    )
    train.add_argument(
        "--keep-last",
        type=int,
        default=3,
        help="how many checkpoints to retain (default: 3)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir",
    )
    train.add_argument(
        "--telemetry-dir",
        default=None,
        help="write the training telemetry stream (events.jsonl + "
        "trace.jsonl) to this directory; inspect it afterwards with "
        "`repro obs summarize <dir>`",
    )

    select = subparsers.add_parser("select", help="select features with a saved model")
    select.add_argument("--model", required=True, help="model directory from `train`")
    select.add_argument("--dataset", required=True, choices=dataset_names())
    select.add_argument("--scale", default="mini", choices=("smoke", "mini", "full"))
    select.add_argument("--seed", type=int, default=0)
    select.add_argument("--evaluate", action="store_true", help="score subsets with the SVM protocol")

    experiment = subparsers.add_parser("experiment", help="run one paper artefact")
    experiment.add_argument(
        "--artefact",
        required=True,
        choices=("table1", "fig5", "fig6", "table2", "fig7", "table3", "fig8", "fig9"),
    )
    experiment.add_argument("--scale", default="smoke", choices=("smoke", "mini", "full"))

    serve = subparsers.add_parser(
        "serve", help="run the async micro-batching selection server"
    )
    serve.add_argument(
        "--checkpoint-dir",
        required=True,
        help="model registry root: a saved model artifact (from `train`) "
        "or a directory of versioned artifact subdirectories",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=64,
        help="lockstep episodes per inference batch (default: 64)",
    )
    serve.add_argument(
        "--max-latency-ms",
        type=float,
        default=5.0,
        help="micro-batching latency budget in ms (default: 5.0)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        help="admission-queue bound; beyond it requests are shed with "
        "429 + Retry-After (default: 256)",
    )
    serve.add_argument(
        "--request-timeout-ms",
        type=float,
        default=2000.0,
        help="per-request deadline in ms; expired requests get 504 without "
        "consuming a batch slot (default: 2000; 0 disables)",
    )
    serve.add_argument(
        "--rate-limit-rps",
        type=float,
        default=None,
        help="token-bucket admission rate in requests/s "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive reload failures that trip the model-reload "
        "circuit breaker open (default: 3)",
    )
    serve.add_argument(
        "--breaker-reset-s",
        type=float,
        default=30.0,
        help="seconds the reload breaker stays open before a half-open "
        "probe (default: 30)",
    )
    serve.add_argument(
        "--watchdog-timeout-ms",
        type=float,
        default=5000.0,
        help="flush-loop stall detector: pending work older than this "
        "fails with a typed error and the loop restarts "
        "(default: 5000; 0 disables)",
    )
    serve.add_argument(
        "--io-timeout-s",
        type=float,
        default=10.0,
        help="socket read/write timeout per request (default: 10)",
    )

    obs = subparsers.add_parser(
        "obs", help="inspect observability artifacts (telemetry, traces)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="render a run report from a telemetry directory"
    )
    summarize.add_argument(
        "path",
        help="telemetry directory (or events.jsonl file) written by "
        "`repro train --telemetry-dir`",
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of the report",
    )
    return parser


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.experiments import table1

    if args.dataset:
        spec = DATASETS[args.dataset]
        print(f"{spec.name}: {spec.n_instances} instances x {spec.n_features} features")
        print(f"  seen tasks:   {spec.n_seen}")
        print(f"  unseen tasks: {spec.n_unseen}")
        print(f"  generator: {spec.task_informative} informative features/task, "
              f"{spec.n_concepts} concept pools, seed {spec.seed}")
        return 0
    print(table1.render(table1.run(scale="mini", verify=False)))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.io import TrainingInterrupted, save_model

    if args.resume and args.checkpoint_dir is None:
        raise ValueError("--resume requires --checkpoint-dir")
    suite = load_suite(args.dataset, args.scale)
    train, _ = suite.split_rows(0.7, np.random.default_rng(args.seed))
    config = make_config(args.scale, mfr=args.mfr, seed=args.seed)
    if args.iterations is not None:
        config = replace(config, n_iterations=args.iterations)
    print(f"training on {train.n_seen} seen tasks of {suite.name} "
          f"({config.n_iterations} iterations)...")
    start = monotonic()
    with _graceful_shutdown() as stop_requested:
        try:
            model = PAFeat(config).fit(
                train,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                keep_last=args.keep_last,
                resume=args.resume,
                stop_check=stop_requested if args.checkpoint_dir else None,
                telemetry=args.telemetry_dir,
            )
        except TrainingInterrupted as exc:
            where = (
                f"checkpoint flushed to {exc.checkpoint_path}"
                if exc.checkpoint_path
                else "no checkpoint directory configured"
            )
            print(
                f"interrupted at iteration {exc.iteration}; {where}. "
                f"Re-run with --resume to continue.",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
    print(f"trained in {monotonic() - start:.1f}s")
    directory = save_model(model, args.output)
    print(f"model saved to {directory}")
    if args.telemetry_dir:
        print(
            f"telemetry written to {args.telemetry_dir} "
            f"(view with `repro obs summarize {args.telemetry_dir}`)"
        )
    return 0


def _graceful_shutdown() -> GracefulShutdown:
    """Training's stop discipline: first signal → checkpoint flush → exit.

    The signal machinery lives in :class:`repro.io.lifecycle.GracefulShutdown`
    (shared with ``repro serve``, whose wind-down drains requests instead
    of flushing a checkpoint); this wrapper pins the training wording.
    """
    return GracefulShutdown(
        action="finishing the current iteration and flushing a checkpoint"
    )


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.io import load_model

    model = load_model(args.model)
    suite = load_suite(args.dataset, args.scale)
    train, test = suite.split_rows(0.7, np.random.default_rng(args.seed))
    test_by_index = {task.label_index: task for task in test.unseen_tasks}
    for task in train.unseen_tasks:
        start = monotonic()
        subset = model.select(task)
        latency_ms = (monotonic() - start) * 1000.0
        line = f"{task.name}: {len(subset)} features {subset} [{latency_ms:.1f} ms]"
        if args.evaluate:
            from repro.eval.svm import evaluate_subset_with_svm

            test_task = test_by_index[task.label_index]
            scores = evaluate_subset_with_svm(
                subset, task.features, task.labels,
                test_task.features, test_task.labels,
            )
            line += f" F1={scores['f1']:.3f} AUC={scores['auc']:.3f}"
        print(line)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.artefact}")
    if args.artefact == "table1":
        print(module.render(module.run(scale=args.scale, verify=True)))
    elif args.artefact in ("fig8", "fig9"):
        print(module.render(module.run(scale=args.scale)))
    else:
        print(module.render(module.run(datasets=("water-quality",), scale=args.scale)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ModelRegistry, SelectionServer

    registry = ModelRegistry(args.checkpoint_dir)
    version = registry.load()
    for path, reason in registry.skipped:
        print(f"skipped corrupt model version {path.name}: {reason}", file=sys.stderr)
    server = SelectionServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_latency_ms=args.max_latency_ms,
        max_queue_depth=args.max_queue_depth,
        request_timeout_ms=args.request_timeout_ms or None,
        rate_limit_rps=args.rate_limit_rps,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s,
        watchdog_timeout_ms=args.watchdog_timeout_ms or None,
        io_timeout_s=args.io_timeout_s,
    )
    print(
        f"serving model version {version.name!r} ({version.n_features} features) "
        f"on http://{args.host}:{args.port} "
        f"[batch<={args.max_batch_size}, latency<={args.max_latency_ms}ms, "
        f"queue<={args.max_queue_depth}, deadline="
        f"{args.request_timeout_ms or 'off'}ms] "
        f"-- POST /select, GET /healthz, GET /metrics; Ctrl-C to drain and exit"
    )
    asyncio.run(server.run())
    print("drained; bye")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.telemetry import (
        read_events,
        render_run_report,
        summarize_events,
    )

    if args.obs_command == "summarize":
        summary = summarize_events(read_events(args.path))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_run_report(summary))
        return 0
    raise ValueError(f"unknown obs subcommand {args.obs_command!r}")


_COMMANDS = {
    "info": _cmd_info,
    "train": _cmd_train,
    "select": _cmd_select,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Expected failures (bad inputs, missing/corrupt artifacts) surface as a
    one-line ``error:`` message on stderr and a nonzero exit code rather
    than a traceback; genuine bugs still propagate loudly.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe early (`repro obs summarize … | head`).
        # Point stdout at devnull so the interpreter's shutdown flush does
        # not raise a second time, and exit like head's upstream should.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
