"""Command-line interface.

Exit codes: 0 success, 2 validation failure, 3 exact solve refused for
size, 1 anything else.  JSON output is deterministic: the same arguments and
seed give byte-identical reports.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

from . import asymptotic, io, partition, quantum
from .channels import (
    ClassicalChannel,
    erasure_epsilon_threshold,
    erasure_max_mergeable_differences,
    erasure_sequence_fidelity,
    make_erasure,
    make_generalized_erasure,
    product_reverse_fidelity,
    reverse_fidelity,
)
from .errors import ExactSolverCapError, ValidationError

ERASURE_THRESHOLD_NOTE = (
    "epsilon thresholds come from the closed form 1 - eta**(2*differences); "
    "for eta = 0.5 with one differing position this gives 0.75, and the value "
    "0.85 sometimes quoted for that case disagrees with the closed form and is "
    "flagged here rather than reproduced"
)


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{what} must be an integer, got {raw!r}") from None


def _parse_float(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{what} must be a number, got {raw!r}") from None


def _split_csv(raw: str, flag: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in raw.split(","))
    if not any(items):
        raise ValidationError(f"{flag}: expected a comma-separated list, got {raw!r}")
    if not all(items):
        raise ValidationError(f"{flag}: empty item in comma-separated list {raw!r}")
    return items


def _split_blocks(raw: str, flag: str) -> tuple[tuple[str, ...], ...]:
    groups = raw.split(";")
    if not any(g.strip() for g in groups):
        raise ValidationError(f"{flag}: expected semicolon-separated blocks, got {raw!r}")
    if not all(g.strip() for g in groups):
        raise ValidationError(f"{flag}: empty block in semicolon-separated blocks {raw!r}")
    return tuple(_split_csv(g, flag) for g in groups)


_CHANNEL_KINDS = {ClassicalChannel: "a classical channel", quantum.KrausChannel: "a Kraus channel"}


def _channel(path: str, kind: type) -> ClassicalChannel | quantum.KrausChannel:
    """The channel file at ``path``, refused unless it holds a ``kind``."""
    channel = io.parse_channel_file(path)
    if not isinstance(channel, kind):
        raise ValidationError(f"{path} holds {_CHANNEL_KINDS[type(channel)]}; "
                              f"this command needs {_CHANNEL_KINDS[kind]}")
    return channel


def _rows_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _kv_table(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


def _report_table(data: dict) -> str:
    pairs = [
        ("epsilon", data["epsilon"]),
        ("solver", data["solver"]),
        ("optimal", data["optimal"]),
        ("blocks", " | ".join("{" + ", ".join(b) + "}" for b in data["blocks"])),
        ("representatives", ", ".join(data["representatives"])),
        ("compressibility", data["compressibility"]),
        ("certificates", ", ".join(str(c) for c in data["certificates"])),
    ]
    return _kv_table(pairs)


# ---------------------------------------------------------------------------
# command payloads: (json_data, table), where table() builds the table text,
# so a JSON report never formats one
# ---------------------------------------------------------------------------

def _cmd_compress(args: argparse.Namespace):
    channel = _channel(args.channel, ClassicalChannel)
    report = partition.compress(channel, args.epsilon, solver=args.solver)
    data = report.to_json_dict()
    return data, lambda: _report_table(data)


def _cmd_fidelity(args: argparse.Namespace):
    channel = _channel(args.channel, ClassicalChannel)
    value = reverse_fidelity(channel, args.x, args.xhat)
    data = {"x": args.x, "xhat": args.xhat, "reverse_fidelity": value}
    return data, lambda: _kv_table(list(data.items()))


def _cmd_product(args: argparse.Namespace):
    xs, xhats = _split_csv(args.xs, "--xs"), _split_csv(args.xhats, "--xhats")
    channel = _channel(args.channel, ClassicalChannel)
    value = product_reverse_fidelity(channel, xs, xhats)
    data = {"k": len(xs), "xs": list(xs), "xhats": list(xhats),
            "reverse_fidelity": value}
    return data, lambda: _kv_table([("k", data["k"]), ("xs", ",".join(xs)),
                                    ("xhats", ",".join(xhats)), ("reverse_fidelity", value)])


def _cmd_erasure(args: argparse.Namespace):
    if args.max_differences < 0:
        raise ValidationError(f"--max-differences must be >= 0, got {args.max_differences}")
    channel = make_erasure(args.r, args.eta)
    thresholds = [
        {"differences": s,
         "fidelity": erasure_sequence_fidelity(args.eta, s),
         "epsilon_threshold": erasure_epsilon_threshold(args.eta, s)}
        for s in range(args.max_differences + 1)
    ]
    data = {
        "r": args.r,
        "eta": args.eta,
        "channel": io.channel_to_data(channel),
        "thresholds": thresholds,
        "notes": [ERASURE_THRESHOLD_NOTE],
    }
    if args.epsilon is not None:
        data["epsilon"] = args.epsilon
        data["max_mergeable_differences"] = erasure_max_mergeable_differences(
            args.eta, args.epsilon, args.max_differences)

    def table() -> str:
        rows = [[str(t["differences"]), repr(t["fidelity"]), repr(t["epsilon_threshold"])]
                for t in thresholds]
        text = _rows_table(["differences", "fidelity", "epsilon_threshold"], rows)
        if args.epsilon is not None:
            text += f"\nmax mergeable differences at epsilon={args.epsilon}: " \
                    f"{data['max_mergeable_differences']}"
        return text + "\nnote: " + ERASURE_THRESHOLD_NOTE
    return data, table


def _cmd_gen_erasure(args: argparse.Namespace):
    if args.k_max is not None and args.k_max < 1:
        raise ValidationError(f"--k-max must be >= 1, got {args.k_max}")
    etas = [_parse_float(e, "--etas entry") for e in _split_csv(args.etas, "--etas")]
    label_blocks = _split_blocks(args.blocks, "--blocks")
    io._check_labels(list(itertools.chain.from_iterable(label_blocks)), "--blocks")
    channel = make_generalized_erasure(label_blocks, etas)
    data = {
        "blocks": [list(b) for b in label_blocks],
        "etas": etas,
        "channel": io.channel_to_data(channel),
    }
    if args.epsilon is not None:
        report = partition.compress(channel, args.epsilon, solver=args.solver)
        data["report"] = report.to_json_dict()
    if args.k_max is not None:
        sizes = [len(b) for b in label_blocks]
        data["gamma_bound"] = [
            {"k": k, "bound": asymptotic.generalized_erasure_gamma_bound(sizes, k)}
            for k in range(1, args.k_max + 1)
        ]
        if args.epsilon is not None:
            groups = [range(e - a, e) for a, e in zip(sizes, itertools.accumulate(sizes))]
            for row in data["gamma_bound"]:
                product = asymptotic._letter_certificate(channel.fidelity_matrix, groups, row["k"])[1]
                row["feasible"] = product >= 1.0 - args.epsilon

    def table() -> str:
        lines = [f"generalized erasure on {channel.num_inputs} inputs, "
                 f"{len(label_blocks)} blocks"]
        if "report" in data:
            lines.append(_report_table(data["report"]))
        if "gamma_bound" in data:
            headers = ["k", "gamma_bound", "feasible"][:len(data["gamma_bound"][0])]
            rows = [[str(e["k"]), repr(e["bound"]), str(e.get("feasible"))][:len(headers)]
                    for e in data["gamma_bound"]]
            lines.append(_rows_table(headers, rows))
        return "\n".join(lines)
    return data, table


def _cmd_conjecture(args: argparse.Namespace):
    if args.max_sequences < 1:
        raise ValidationError(f"--max-sequences must be >= 1, got {args.max_sequences}")
    rows = asymptotic.conjecture_report(args.alphabet_size, args.k,
                                        max_sequences=args.max_sequences)
    data = {
        "alphabet_size": args.alphabet_size,
        "k": args.k,
        "rows": [r.to_json_dict() for r in rows],
    }
    return data, lambda: _rows_table(
        ["s", "minimum", "bound", "equal"],
        [[str(r.s), str(r.minimum), str(r.bound), str(r.equal)] for r in rows],
    )


def _cmd_asymptotic(args: argparse.Namespace):
    channel = _channel(args.channel, ClassicalChannel)
    sweep = asymptotic.delta_estimate(channel, args.epsilon, args.k_max, solver=args.solver)
    data = sweep.to_json_data()

    def table() -> str:
        text = _rows_table(
            ["k", "gamma", "method", "blocks", "lower", "proved"],
            [[str(r.k), repr(r.gamma), r.method, str(r.block_count), str(r.lower), str(r.proved)]
             for r in sweep.results],
        )
        return text + f"\nobserved trend: {sweep.trend} (finite-k evidence, not a limit)"
    return data, table


def _cmd_quantum_compress(args: argparse.Namespace):
    if args.kraus is not None:
        for flag, value in (("--dim", args.dim), ("--blocks", args.blocks)):
            if value is not None:
                raise ValidationError(f"quantum-compress takes --kraus alone, not with {flag}")
    elif args.dim is None or args.blocks is None:
        raise ValidationError(
            "quantum-compress needs either --kraus, or both --dim and --blocks"
        )
    if args.dim is not None and args.dim < 1:
        raise ValidationError(f"--dim must be >= 1, got {args.dim}")
    blocks = None if args.blocks is None else tuple(
        tuple(_parse_int(i, "--blocks entry") for i in b)
        for b in _split_blocks(args.blocks, "--blocks"))
    if args.kraus is not None:
        graining = quantum.CoarseGraining.of(_channel(args.kraus, quantum.KrausChannel))
        channel = graining.channel
        gamma = quantum.quantum_compressibility(graining)
        data = {"in_dim": channel.in_dim, "out_dim": channel.out_dim,
                "kernel_dim": graining.kernel_dim, "compressibility": gamma}
        return data, lambda: _kv_table(list(data.items()))
    part = partition.Partition(blocks)
    graining = quantum.make_coarse_graining(part, args.dim, embed_dim=args.dim)
    gamma = quantum.quantum_compressibility(graining)
    data = {"dim": args.dim, "blocks": [list(b) for b in part.blocks],
            "kernel_dim": graining.kernel_dim, "compressibility": gamma}
    return data, lambda: _kv_table([
        ("dim", args.dim),
        ("blocks", " | ".join("{" + ", ".join(str(i) for i in b) + "}" for b in part.blocks)),
        ("kernel_dim", graining.kernel_dim), ("compressibility", gamma)])


def _cmd_quantum_verify(args: argparse.Namespace):
    if args.probes < 0:
        raise ValidationError(f"--probes must be >= 0, got {args.probes}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    verdict = quantum.verify_erasure_theorem(args.dim, args.eta, args.epsilon,
                                             seed=args.seed, n_random=args.probes)
    data = io.verdict_to_data(verdict)

    def table() -> str:
        text = _kv_table([
            ("dim", verdict.dim), ("eta", verdict.eta), ("epsilon", verdict.epsilon),
            ("threshold eta^2", verdict.threshold),
            ("compressible", verdict.compressible), ("gamma", verdict.gamma),
            ("min_fidelity", verdict.min_fidelity),
            ("probes", verdict.probe_count), ("seed", verdict.seed),
        ])
        if verdict.rejections:
            rows = [[r.kind, str(r.kernel_dim), repr(r.witness_fidelity)]
                    for r in verdict.rejections]
            text += "\n" + _rows_table(["compressor", "kernel_dim", "witness_fidelity"], rows)
        return text
    return data, table


_COMMANDS = {
    "compress": _cmd_compress,
    "fidelity": _cmd_fidelity,
    "product": _cmd_product,
    "erasure": _cmd_erasure,
    "gen-erasure": _cmd_gen_erasure,
    "conjecture": _cmd_conjecture,
    "asymptotic": _cmd_asymptotic,
    "quantum-compress": _cmd_quantum_compress,
    "quantum-verify": _cmd_quantum_verify,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command, writing its report; returns 0."""
    data, table = _COMMANDS[args.command](args)
    text = io.dump_json(data) if args.format == "json" else table() + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValidationError(f"--out: cannot write {args.out}: {exc.strerror}") from None
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommands' parsers by name, built once
    per process; parsing does not change them."""
    parser = argparse.ArgumentParser(
        prog="revcomp",
        description="Reverse compression of classical and quantum channels.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument("--out", default=None, help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", parents=[common],
                       help="smallest indistinguishability partition of a channel")
    p.add_argument("--channel", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--solver", choices=("auto", "exact", "greedy"), default="auto")

    p = sub.add_parser("fidelity", parents=[common],
                       help="reverse fidelity of two inputs of a channel")
    p.add_argument("--channel", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--xhat", required=True)

    p = sub.add_parser("product", parents=[common],
                       help="reverse fidelity of two input sequences, computed letterwise")
    p.add_argument("--channel", required=True)
    p.add_argument("--xs", required=True, help="comma-separated input symbols")
    p.add_argument("--xhats", required=True, help="comma-separated input symbols")

    p = sub.add_parser("erasure", parents=[common],
                       help="erasure channel with its merge thresholds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-differences", type=int, default=5)

    p = sub.add_parser("gen-erasure", parents=[common],
                       help="generalized erasure channel, optional compression and bounds")
    p.add_argument("--blocks", required=True,
                   help="semicolon-separated blocks of comma-separated labels")
    p.add_argument("--etas", required=True, help="comma-separated erasure probabilities")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--solver", choices=("auto", "exact", "greedy"), default="auto")
    p.add_argument("--k-max", type=int, default=None,
                   help="report gamma_bound for k = 1..K_MAX: the compressibility of "
                        "one partition, the block-diagonal merge, so a lower bound on "
                        "gamma wherever that partition is feasible; with --epsilon each "
                        "row says whether it is")

    p = sub.add_parser("conjecture", parents=[common],
                       help="exhaustive check of sequence-partition minima against the "
                            "prefix-grouping count")
    p.add_argument("--alphabet-size", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-sequences", type=int, default=10)

    p = sub.add_parser("asymptotic", parents=[common],
                       help="compressibility sweep over k channel uses")
    p.add_argument("--channel", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--solver", choices=("auto", "exact", "greedy", "closed_form"),
                   default="auto")

    p = sub.add_parser("quantum-compress", parents=[common],
                       help="vectorial kernel and compressibility of a compressor")
    p.add_argument("--kraus", default=None, help="Kraus channel JSON file")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--blocks", default=None,
                   help="semicolon-separated blocks of comma-separated indices")

    p = sub.add_parser("quantum-verify", parents=[common],
                       help="erasure compressibility criterion with evidence")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=1000)

    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` parsed as ``parse_args`` on the full parser parses it.

    That parser hands every word after a subcommand's name to the
    subcommand's parser and refuses what it leaves over, so an ``argv``
    that starts with a name goes to that parser directly; any other
    ``argv`` takes the full parser.
    """
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactSolverCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
