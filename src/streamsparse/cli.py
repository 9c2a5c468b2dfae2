"""Command-line front end.

Subcommands: gen, sparsify, hypersparsify, mincut, window, robust, bench.
Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (ExperimentConfig, gen_synthetic, run_experiment,
                    write_csv, write_json_lines)
from .graph import DisconnectedError
from .io import (ParseError, load_edge_list, load_hyperedge_list, load_snap,
                 save_edge_list, save_hyperedge_list, write_edges)
from .hypergraph import hyper_sparsify
from .merge_reduce import mr_sparsify, stream_sparsify, StreamPipelineConfig, TreeConfig, OnlineConfig
from .mincut import MinCutPipelineConfig, stream_mincut
from .online import online_sparsify
from .robust import AdversaryScript, RobustWrapperState, play_game
from .window import SlidingWindowConfig, SlidingWindowState


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    # each subcommand declares the shared flags it reads, and no others
    seed = _flag("--seed", type=int, default=0)
    eps = _flag("--eps", type=float, default=0.5)
    inp = _flag("--input", default=None)
    out = _flag("--output", default=None)
    shared = [seed, eps, inp, out]
    top = argparse.ArgumentParser(prog="streamsparse")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[seed, out],
                         help="generate a synthetic weighted edge list")
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--m", type=int, default=10000)
    gen.add_argument("--integer", action="store_true")

    sp = sub.add_parser("sparsify", parents=shared,
                        help="sparsify a graph edge list")
    sp.add_argument("--method", choices=("online", "merge_reduce", "streaming"),
                    default="streaming")
    sp.add_argument("--block", type=int, default=256)
    sp.add_argument("--snap", action="store_true",
                    help="input is a SNAP pair file (weights drawn U(1,10))")

    hs = sub.add_parser("hypersparsify", parents=shared,
                        help="sparsify a hyperedge list")
    hs.add_argument("--variant", choices=("fast", "balanced"), default="fast")

    mc = sub.add_parser("mincut", parents=shared,
                        help="streaming approximate global min cut")
    mc.add_argument("--snap", action="store_true")

    win = sub.add_parser("window", parents=shared,
                         help="sliding-window sparsifier query")
    win.add_argument("--window", type=int, required=True)
    win.add_argument("--block", type=int, default=32)

    rb = sub.add_parser("robust", parents=shared,
                        help="robust wrapper over an edge stream; JSONL transcript")

    bn = sub.add_parser("bench", parents=[seed, inp, out],
                        help="budget-matched method comparison")
    bn.add_argument("--trials", type=int, default=5)
    bn.add_argument("--budget", type=int, action="append", default=None)
    bn.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    bn.add_argument("--n", type=int, default=100)
    bn.add_argument("--m", type=int, default=50000)
    bn.add_argument("--methods", default="online,merge_reduce,streaming")
    bn.add_argument("--integer", action="store_true")
    bn.add_argument("--plot-data", action="store_true",
                    help="emit per-budget (budget, error) series instead of raw rows")
    return top


def _out(args):
    return open(args.output, "w") if args.output else sys.stdout


def _input(args) -> str:
    if args.input is None:
        raise ValueError("--input is required")
    return args.input


def _load_graph(args):
    if getattr(args, "snap", False):
        return load_snap(_input(args), seed=args.seed)
    return load_edge_list(_input(args))


def _cmd_gen(args) -> int:
    g = gen_synthetic(args.n, args.m, args.seed, integer_weights=args.integer)
    fh = _out(args)
    write_edges(g, fh)
    if fh is not sys.stdout:
        fh.close()
    return 0


def _cmd_sparsify(args) -> int:
    g = _load_graph(args)
    if args.method == "online":
        out = online_sparsify(g, eps=args.eps, seed=args.seed)
    elif args.method == "merge_reduce":
        out, _ = mr_sparsify(g, TreeConfig(block_size=args.block,
                                           seed=args.seed))
    else:
        out = stream_sparsify(g, StreamPipelineConfig(
            online=OnlineConfig(eps=args.eps, seed=args.seed),
            tree=TreeConfig(block_size=args.block, seed=args.seed)))
    if args.output:
        save_edge_list(out, args.output)
    else:
        write_edges(out, sys.stdout)
    print(f"# kept {out.m} of {g.m} edges", file=sys.stderr)
    return 0


def _write_hyperedges(h, args) -> None:
    if args.output:
        save_hyperedge_list(h, args.output)
    else:
        for e in h.hyperedges:
            sys.stdout.write(f"{e.w!r} {e.size} "
                             + " ".join(map(str, e.vertices)) + "\n")


def _cmd_hypersparsify(args) -> int:
    h = load_hyperedge_list(_input(args))
    out = hyper_sparsify(h, variant=args.variant, eps=args.eps, seed=args.seed)
    _write_hyperedges(out, args)
    print(f"# kept {out.m} of {h.m} hyperedges", file=sys.stderr)
    return 0


def _cmd_mincut(args) -> int:
    g = _load_graph(args)
    value = stream_mincut(g, MinCutPipelineConfig(eps=args.eps, seed=args.seed))
    fh = _out(args)
    print(repr(value), file=fh)
    if fh is not sys.stdout:
        fh.close()
    return 0


def _cmd_window(args) -> int:
    h = load_hyperedge_list(_input(args))
    state = SlidingWindowState(h.n, SlidingWindowConfig(
        block_size=args.block, eps=args.eps, seed=args.seed))
    for e in h.hyperedges:
        state.push(e)
    _write_hyperedges(state.query(args.window), args)
    return 0


def _cmd_robust(args) -> int:
    g = _load_graph(args)
    state = RobustWrapperState(g.n, args.eps, m_hint=g.m, seed=args.seed)
    script = AdversaryScript(
        strategy=lambda history, t: g.edges[t], rounds=g.m, seed=args.seed)
    transcript = play_game(script, state)
    if args.output:
        transcript.save(args.output)
    print(f"switch_count {transcript.switch_count}")
    return 0


def _cmd_bench(args) -> int:
    budgets = tuple(args.budget) if args.budget else (500, 1000, 1500,
                                                      2000, 2500, 3000)
    cfg = ExperimentConfig(
        n=args.n, m=args.m, seed=args.seed, path=args.input,
        budgets=budgets, trials=args.trials,
        methods=tuple(args.methods.split(",")),
        integer_weights=args.integer)
    result = run_experiment(cfg)
    fh = _out(args)
    if args.plot_data:
        for row in result.rows:
            fh.write(f"{row.method} {row.budget} {row.error!r}\n")
    elif args.format == "jsonl":
        write_json_lines(result.raw, fh)
    else:
        write_csv(result.raw, fh)
    if fh is not sys.stdout:
        fh.close()
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "sparsify": _cmd_sparsify,
    "hypersparsify": _cmd_hypersparsify,
    "mincut": _cmd_mincut,
    "window": _cmd_window,
    "robust": _cmd_robust,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, FileNotFoundError, DisconnectedError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
