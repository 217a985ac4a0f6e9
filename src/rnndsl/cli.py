"""Command-line surface over parsing, compilation, evaluation, search,
ranking, and reporting.

Exit codes: 0 on success, 1 on a domain error (bad expression, failed
check, broken store), 2 on a usage error. `--json` switches standard
output to machine-readable JSON; `--seed` (or the ARCHDSL_SEED
environment variable) controls all randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import engine as en
from .compiler import (
    CompileError,
    DivergenceError,
    compile,
    count_source_mm_instructions,
    run_sequence,
)
from .dsl import (
    ParseError,
    analyze,
    builtin,
    builtin_names,
    canonicalize,
    parse,
    render,
)
from .evaluator import make_task, train_and_score
from .randgen import arch_id
from .ranker import Ranker
from .rlgen import Policy, pretrain_priors
from .search import (
    RecordStore,
    StoreError,
    load_config,
    report,
    run_random_search,
    run_rl_search,
    write_csv,
)

DOMAIN_ERRORS = (
    ParseError,
    CompileError,
    DivergenceError,
    StoreError,
    ValueError,
    KeyError,
    FileNotFoundError,
)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ARCHDSL_SEED")
    return int(env) if env else 0


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text)


def _load_sections(args) -> dict:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = load_config_defaults()
    seed = _resolve_seed(args)
    for section in cfg.values():
        if hasattr(section, "seed"):
            section.seed = seed
    return cfg


def load_config_defaults() -> dict:
    from .search import CONFIG_SECTIONS

    return {key: cls() for key, cls in CONFIG_SECTIONS.items()}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    arch = parse(args.dsl)
    if args.canonical:
        arch = canonicalize(arch)
    info = analyze(arch)
    payload = {
        "dsl": render(arch),
        "id": arch_id(arch),
        "node_count": info.node_count,
        "height": info.height,
        "sources": sorted(s.value for s in info.sources_used),
        "uses_ct": info.uses_ct,
        "validity_flags": list(info.validity_flags),
    }
    _emit(args, payload, render(arch))
    return 0


def cmd_cells(args) -> int:
    if args.action == "list":
        names = builtin_names()
        _emit(args, {"cells": names}, "\n".join(names))
        return 0
    arch = builtin(args.name)
    _emit(args, {"name": args.name, "dsl": render(arch)}, render(arch))
    return 0


def cmd_compile(args) -> int:
    arch = parse(args.dsl)
    rng = np.random.default_rng(_resolve_seed(args))
    prog = compile(
        arch, args.input, args.hidden, fuse=not args.no_fuse, rng=rng
    )
    payload = {
        "dsl": render(prog.arch),
        "instructions": len(prog.instructions),
        "parameters": len(prog.params),
        "fused_source_mms": count_source_mm_instructions(prog),
    }
    if args.check_grad:
        xs = [
            en.Tensor(rng.standard_normal((2, args.input)) * 0.5) for _ in range(3)
        ]

        def loss():
            outs, _, _ = run_sequence(prog, xs)
            total = en.tsum(outs[0])
            for h in outs[1:]:
                total = en.add(total, en.tsum(h))
            return total

        err = en.gradient_check(loss, prog.parameters())
        payload["max_rel_grad_error"] = err
        _emit(
            args,
            payload,
            f"max relative gradient error: {err:.3e} "
            f"({'ok' if err < 1e-4 else 'FAIL'})",
        )
        return 0 if err < 1e-4 else 1
    _emit(
        args,
        payload,
        "compiled {dsl}: {instructions} instructions, {parameters} parameters, "
        "{fused_source_mms} source matrix products".format(**payload),
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _load_sections(args)
    spec = cfg["task"]
    spec.kind = args.task
    task = make_task(spec)
    # a malformed store is reported before the candidate is trained
    store = RecordStore.load(args.out) if args.out else None
    rec = train_and_score(parse(args.dsl), task, cfg["train"], source="human")
    if store is not None and rec.id not in store:
        store.append(rec)
    _emit(
        args,
        json.loads(rec.to_json()),
        f"{rec.id} {rec.status} valid={rec.valid_metric} test={rec.test_metric}",
    )
    return 0


def cmd_search(args) -> int:
    cfg = _load_sections(args)
    search_cfg = cfg["search"]
    task = make_task(cfg["task"])
    store = RecordStore.load(args.out) if args.out else RecordStore()
    if args.mode == "random":
        search_cfg.mode = "random_rank"
        store, best = run_random_search(
            search_cfg, task, cfg["gen"], cfg["train"], cfg["ranker"], store
        )
        payload = {"records": len(store), "best": best.id if best else None}
    else:
        search_cfg.mode = "rl"
        policy = Policy(cfg["rl"])
        pretrain_priors(policy)
        result = run_rl_search(
            search_cfg, task, policy, cfg["train"], cfg["reward"], store
        )
        store, best = result.store, result.best
        payload = {
            "records": len(store),
            "best": best.id if best else None,
            "batches": result.batches_applied,
            "relaxed_batches": result.relaxed_batches,
        }
    if best:
        payload["best_metric"] = best.valid_metric
        payload["best_dsl"] = best.dsl
    _emit(
        args,
        payload,
        f"{len(store)} records; best: "
        + (f"{best.dsl} ({best.valid_metric:.4f})" if best else "none"),
    )
    return 0


def cmd_rank(args) -> int:
    cfg = _load_sections(args)
    store = RecordStore.load(args.records)
    if not store.records:
        raise ValueError(f"no records in {args.records}")
    ranker = Ranker(cfg["ranker"])
    if args.action == "fit":
        curve = ranker.fit(store.records)
        if args.model:
            en.save_params(args.model, ranker.params)
        payload = {"records": len(store), "final_loss": curve[-1] if curve else None}
        _emit(args, payload, f"fit on {len(store)} records; loss {payload['final_loss']}")
        return 0
    if not args.dsl:
        raise ValueError("rank score requires --dsl")
    if args.model:
        en.load_params(args.model, ranker.params)
    else:
        ranker.fit(store.records)
    score = ranker.score(parse(args.dsl))
    _emit(args, {"dsl": args.dsl, "score": score}, f"{score:.6f}")
    return 0


def cmd_report(args) -> int:
    kind = args.kind.replace("-", "_")
    store = RecordStore.load(args.records)
    rows = report(store, kind, seed=_resolve_seed(args)) if kind == "hidden_dump" \
        else report(store, kind)
    write_csv(rows, args.out)
    _emit(
        args,
        {"kind": kind, "rows": len(rows), "out": args.out},
        f"wrote {len(rows)} rows to {args.out}",
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # global flags accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="global random seed"
    )
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    p = argparse.ArgumentParser(
        prog="rnndsl",
        description="recurrent-cell DSL: parse, compile, evaluate, search",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("parse", help="parse and optionally canonicalize a cell")
    sp.add_argument("dsl")
    sp.add_argument("--canonical", action="store_true")
    sp.set_defaults(func=cmd_parse)

    sc = add_parser("cells", help="list or show builtin cells")
    cs = sc.add_subparsers(dest="action", required=True)
    cl = cs.add_parser("list", parents=[common])
    cl.set_defaults(func=cmd_cells, action="list")
    ce = cs.add_parser("show", parents=[common])
    ce.add_argument("name")
    ce.set_defaults(func=cmd_cells, action="show")

    sk = add_parser("compile", help="compile a cell and report its program")
    sk.add_argument("dsl")
    sk.add_argument("--hidden", type=int, required=True)
    sk.add_argument("--input", type=int, required=True)
    sk.add_argument("--check-grad", action="store_true")
    sk.add_argument("--no-fuse", action="store_true")
    sk.set_defaults(func=cmd_compile)

    se = add_parser("eval", help="train one cell on a task")
    se.add_argument("dsl")
    se.add_argument("--task", choices=("char_lm", "copy_memory"), required=True)
    se.add_argument("--config")
    se.add_argument("--out")
    se.set_defaults(func=cmd_eval)

    ss = add_parser("search", help="run a search loop")
    ss.add_argument("mode", choices=("random", "rl"))
    ss.add_argument("--config")
    ss.add_argument("--out")
    ss.set_defaults(func=cmd_search)

    sr = add_parser("rank", help="fit or apply the ranking function")
    sr.add_argument("action", choices=("fit", "score"))
    sr.add_argument("--records", required=True)
    sr.add_argument("--dsl")
    sr.add_argument("--model")
    sr.add_argument("--config")
    sr.set_defaults(func=cmd_rank)

    st = add_parser("report", help="write a CSV report from a record store")
    st.add_argument(
        "kind", choices=("ops-over-time", "search-curve", "hidden-dump")
    )
    st.add_argument("--records", required=True)
    st.add_argument("--out", required=True)
    st.set_defaults(func=cmd_report)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("seed", None), ("json", False)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        code = type(exc).__name__
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
