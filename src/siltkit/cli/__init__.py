"""Command-line front end.

Subcommands: ``verify`` (collection and pattern checks), ``mutate``
(lockstep mutation walks), ``dgend`` (dg endomorphism algebra tables),
``koszul`` (duality comparison of a pair), ``graph`` (the silting
mutation graph), and ``replay`` (byte-exact certificate re-runs).

Exit codes: 0 all verdicts pass, 2 some verdict fails, 3 nothing fails
but something is not certified, 4 unusable input (an input file, or
a command-line option reported by name).  With ``--format
structured`` the output is line-oriented with a stable key order, so a
re-run with the same configuration is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
from dataclasses import dataclass

from ..correspond.checks import check_pattern, check_silting, check_smc
from ..correspond.pipeline import koszul_pair_check, lockstep_walk, standard_pair
from ..dg.dga import dg_end
from ..errors import (
    ChainConditionViolated,
    Inconclusive,
    MalformedRelation,
    NonAdmissible,
    ParseError,
    PatternFailed,
    TruncationUnsound,
    UnknownVertex,
)
from ..fields import field_of_characteristic
from ..homotopy.compare import isomorphic_collections
from ..homotopy.mutation import silting_mutate, smc_mutate
from ..serialize import algebra_hash, collection_text
from .parsing import parse_algebra, parse_collection_file
from .render import (
    certificate_lines,
    collection_summary,
    dg_structured_lines,
    dg_table_lines,
    pattern_structured_lines,
    pattern_table_lines,
    report_lines,
    report_structured_lines,
)

#: Safety ceiling on mutation-graph size.
GRAPH_NODE_CAP = 64


class _OptionError(Exception):
    """A command-line option has a value the command cannot use.  The
    message names the option; there is no file position to report."""


@dataclass
class RunConfig:
    """Effective run configuration shared by all commands."""

    characteristic: int | None = None
    seed: int = 0
    depth: int = 3
    window: tuple[int, int] = (-5, 5)
    fmt: str = "table"
    out: str | None = None


@dataclass
class Report:
    """A command's outcome: verdicts, rendered lines, and exit code."""

    command: str
    inputs_hash: str
    verdicts: dict[str, str]
    lines: list[str]
    exit_code: int


def _exit_from_verdicts(verdicts: dict[str, str]) -> int:
    values = set(verdicts.values())
    if "fail" in values:
        return 2
    if "not-certified" in values:
        return 3
    return 0


def _inputs_hash(paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.basename(path).encode("utf-8"))
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _witness_line(witness) -> str:
    if isinstance(witness, tuple) and len(witness) == 4:
        i, j, m, d = witness
        return f"witness: dim Hom(member {i + 1}, member {j + 1}[{m}]) = {d}"
    return f"witness: {witness}"


def _finish(
    config: RunConfig,
    command: str,
    inputs_hash: str,
    algebra,
    verdicts: dict[str, str],
    table_body: list[str],
    structured_body: list[str],
) -> Report:
    code = _exit_from_verdicts(verdicts)
    if config.fmt == "structured":
        lines = [
            f"command {command}",
            f"inputs {inputs_hash}",
            f"characteristic {algebra.field.characteristic}",
            f"seed {config.seed}",
            f"depth {config.depth}",
            f"window {config.window[0]}..{config.window[1]}",
        ]
        lines.extend(structured_body)
        lines.extend(f"verdict {k} {verdicts[k]}" for k in sorted(verdicts))
        lines.append(f"exit {code}")
    else:
        lines = list(table_body)
        lines.append("")
        lines.extend(f"verdict {k}: {verdicts[k]}" for k in sorted(verdicts))
        lines.append(f"exit {code}")
    return Report(command, inputs_hash, verdicts, lines, code)


def _write_out(config: RunConfig, name: str, content: str, notes: list[str]) -> None:
    if config.out is None:
        return
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    notes.append(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(
    config: RunConfig, algebra_path: str, collection_path: str, kind: str
) -> Report:
    algebra = parse_algebra(_read(algebra_path), config.characteristic)
    parsed = parse_collection_file(_read(collection_path), algebra)
    inputs = _inputs_hash([algebra_path, collection_path])

    if kind != "pattern":
        members = parsed.sole(kind)
        check = check_silting if kind == "silting" else check_smc
        report = check(members, depth=config.depth)
        verdicts = {kind: report.verdict}
        body = [f"collection: {collection_summary(members)}", ""]
        body += report_lines(report)
        if report.witness is not None:
            body.append(_witness_line(report.witness))
        return _finish(
            config,
            "verify",
            inputs,
            algebra,
            verdicts,
            body,
            report_structured_lines(report),
        )

    silting, smc = parsed.pair()
    notes: list[str] = []
    try:
        cert = check_pattern(silting, smc, seed=config.seed, depth=config.depth)
    except PatternFailed as exc:
        body = [
            f"silting side: {collection_summary(silting)}",
            f"simple-minded side: {collection_summary(smc)}",
            "",
            f"pattern check failed: {exc}",
        ]
        structured = [f"pattern failed {exc}"]
        if exc.witness is not None:
            body.append(_witness_line(exc.witness))
            structured.append(f"witness pattern {exc.witness}")
        if exc.table:
            body.extend(pattern_table_lines(exc.table, len(silting), len(smc)))
            structured.extend(pattern_structured_lines(exc.table))
        return _finish(
            config, "verify", inputs, algebra, {"pattern": "fail"}, body, structured
        )
    _write_out(config, "pattern.cert", cert.serialize(), notes)
    body = [
        f"silting side: {collection_summary(silting)}",
        f"simple-minded side: {collection_summary(smc)}",
        "",
    ]
    body += certificate_lines(cert)
    body += notes
    structured = [
        f"pair S{i + 1} T{j + 1}" for i, j in enumerate(cert.bijection)
    ]
    structured += pattern_structured_lines(cert.table)
    structured += notes
    return _finish(
        config, "verify", inputs, algebra, dict(cert.verdicts), body, structured
    )


def cmd_mutate(
    config: RunConfig,
    algebra_path: str,
    pair_path: str,
    steps: list[tuple[int, str]],
    force: bool,
) -> Report:
    algebra = parse_algebra(_read(algebra_path), config.characteristic)
    parsed = parse_collection_file(_read(pair_path), algebra)
    silting, smc = parsed.pair()
    inputs = _inputs_hash([algebra_path, pair_path])
    notes: list[str] = []
    verdicts: dict[str, str] = {}
    body = [
        f"input silting: {collection_summary(silting)}",
        f"input simple-minded: {collection_summary(smc)}",
    ]
    structured: list[str] = []

    if not force:
        try:
            check_pattern(silting, smc, seed=config.seed, depth=config.depth)
        except PatternFailed as exc:
            body.append(
                f"input pair is not certified ({exc}); pass --force to mutate anyway"
            )
            structured.append(f"input-pair failed {exc}")
            return _finish(
                config,
                "mutate",
                inputs,
                algebra,
                {"input pair": "fail"},
                body,
                structured,
            )

    walk = lockstep_walk(silting, smc, steps, seed=config.seed, depth=config.depth)
    for step, (index, side) in enumerate(steps, start=1):
        tag = f"step{step}"
        try:
            silting, smc, cert = next(walk)
        except ValueError as exc:
            option = "--at" if step == 1 else "--then"
            raise _OptionError(f"{option} {index} --{side}: {exc}") from exc
        except (PatternFailed, Inconclusive) as exc:
            body.append(f"step {step} ({side} at index {index}) failed: {exc}")
            structured.append(f"{tag} failed {exc}")
            verdicts[tag] = "fail"
            return _finish(
                config, "mutate", inputs, algebra, verdicts, body, structured
            )
        verdicts[tag] = "pass"
        body.append(
            f"step {step} ({side} at index {index}): "
            f"silting {collection_summary(silting)} | "
            f"simple-minded {collection_summary(smc)}"
        )
        structured.append(
            f"{tag} silting {collection_summary(silting)}"
        )
        structured.append(
            f"{tag} smc {collection_summary(smc)}"
        )
        _write_out(config, f"step-{step}.cert", cert.serialize(), notes)

    if not steps:
        verdicts["input pair"] = "pass"
    result_text = (
        collection_text("silting", "result", silting, "S")
        + "\n"
        + collection_text("smc", "result", smc, "T")
        + "\n"
    )
    _write_out(config, "result.pair", result_text, notes)
    body.append(f"final silting: {collection_summary(silting)}")
    body.append(f"final simple-minded: {collection_summary(smc)}")
    body.extend(notes)
    structured.append(f"final silting {collection_summary(silting)}")
    structured.append(f"final smc {collection_summary(smc)}")
    structured.extend(notes)
    return _finish(config, "mutate", inputs, algebra, verdicts, body, structured)


def cmd_dgend(config: RunConfig, algebra_path: str, collection_path: str) -> Report:
    algebra = parse_algebra(_read(algebra_path), config.characteristic)
    parsed = parse_collection_file(_read(collection_path), algebra)
    kind, name, members = parsed.any_collection()
    inputs = _inputs_hash([algebra_path, collection_path])
    E = dg_end(members, provenance=f"dg end of {kind} {name}")
    body = [f"collection: {collection_summary(members)}", ""]
    body += dg_table_lines(E, f"dg endomorphism algebra of {kind} {name}")
    return _finish(
        config,
        "dgend",
        inputs,
        algebra,
        {"dgend": "pass"},
        body,
        dg_structured_lines(E, "dgend"),
    )


def cmd_koszul(config: RunConfig, algebra_path: str, pair_path: str) -> Report:
    algebra = parse_algebra(_read(algebra_path), config.characteristic)
    parsed = parse_collection_file(_read(pair_path), algebra)
    silting, smc = parsed.pair()
    inputs = _inputs_hash([algebra_path, pair_path])
    try:
        cert = check_pattern(silting, smc, seed=config.seed, depth=config.depth)
    except PatternFailed as exc:
        body = [f"input pair is not certified: {exc}"]
        return _finish(
            config, "koszul", inputs, algebra, {"pattern": "fail"}, body, body
        )
    E = dg_end(list(silting), provenance="dg end of the silting collection")
    F = dg_end(list(smc), provenance="dg end of the simple-minded collection")
    report = koszul_pair_check(E, F, cert.bijection, window=config.window)
    body = dg_table_lines(E, "dg endomorphism algebra of the silting side")
    body += [""]
    body += dg_table_lines(F, "dg endomorphism algebra of the simple-minded side")
    body += [""]
    body += report_lines(report)
    structured = dg_structured_lines(E, "silting-end")
    structured += dg_structured_lines(F, "smc-end")
    structured += report_structured_lines(report)
    return _finish(
        config,
        "koszul",
        inputs,
        algebra,
        {"pattern": "pass", "koszul": report.verdict},
        body,
        structured,
    )


def cmd_graph(config: RunConfig, algebra_path: str) -> Report:
    algebra = parse_algebra(_read(algebra_path), config.characteristic)
    inputs = _inputs_hash([algebra_path])
    lo, hi = config.window
    silting0, smc0 = standard_pair(algebra)

    def in_window(coll) -> bool:
        return all(
            not x.is_zero() and lo <= x.min_degree and x.max_degree <= hi
            for x in coll
        )

    nodes: list[dict] = []
    edges: list[tuple[int, int, str, int]] = []
    doubt = None
    capped = False

    def verdict_of(smc) -> str:
        # --depth bounds the mutation search here.  Nodes mutated from a
        # complete standard pair carry their generation by provenance; any
        # other node falls back to the checker's own closure depth.
        return check_smc(smc).verdict

    nodes.append({"silting": silting0, "smc": smc0, "verdict": verdict_of(smc0)})
    frontier = [0]
    level = 0
    while frontier and level < config.depth:
        next_frontier: list[int] = []
        for src in frontier:
            node = nodes[src]
            for index in range(1, len(node["silting"]) + 1):
                for side in ("left", "right"):
                    mutated = silting_mutate(node["silting"], index - 1, side)
                    if not in_window(mutated):
                        continue
                    try:
                        partner = smc_mutate(node["smc"], index - 1, side)
                    except TruncationUnsound:
                        continue
                    target = None
                    for n, known in enumerate(nodes):
                        try:
                            if isomorphic_collections(mutated, known["silting"]):
                                target = n
                                break
                        except Inconclusive as exc:
                            doubt = doubt or str(exc)
                    if target is None:
                        if len(nodes) >= GRAPH_NODE_CAP:
                            capped = True
                            continue
                        nodes.append(
                            {
                                "silting": mutated,
                                "smc": partner,
                                "verdict": verdict_of(partner),
                            }
                        )
                        target = len(nodes) - 1
                        next_frontier.append(target)
                    edges.append((src, index, side, target))
        frontier = next_frontier
        level += 1

    verdicts = {f"node{n} smc": node["verdict"] for n, node in enumerate(nodes)}
    body = [
        f"silting mutation graph: {len(nodes)} nodes, {len(edges)} edges "
        f"(window {lo}..{hi}, depth {config.depth})"
    ]
    structured = [f"graph nodes {len(nodes)} edges {len(edges)}"]
    if doubt is not None:
        verdicts["dedup"] = "not-certified"
        body.append(f"dedup not certified: {doubt}")
        structured.append(f"graph dedup inconclusive {doubt}")
    if capped:
        verdicts["graph-cap"] = "not-certified"
        body.append(
            f"truncated at GRAPH_NODE_CAP = {GRAPH_NODE_CAP}: "
            "new nodes beyond the cap and their edges were dropped"
        )
        structured.append(f"graph truncated GRAPH_NODE_CAP {GRAPH_NODE_CAP}")
    for n, node in enumerate(nodes):
        body.append(
            f"node {n}: silting {collection_summary(node['silting'])} | "
            f"smc {collection_summary(node['smc'])} | smc verdict: {node['verdict']}"
        )
        structured.append(f"node {n} silting {collection_summary(node['silting'])}")
        structured.append(f"node {n} smc {collection_summary(node['smc'])}")
    for src, index, side, dst in edges:
        body.append(f"edge {src} --({side} at {index})--> {dst}")
        structured.append(f"edge {src} {index} {side} {dst}")
    return _finish(config, "graph", inputs, algebra, verdicts, body, structured)


def cmd_replay(config: RunConfig, algebra_path: str, cert_path: str) -> Report:
    algebra = parse_algebra(_read(algebra_path), config.characteristic)
    original = _read(cert_path)
    inputs = _inputs_hash([algebra_path, cert_path])

    recorded_hash = None
    recorded: dict[str, int] = {}
    header_line: dict[str, int] = {}
    # A line that is not re-parsed is kept blank, so a parse error names
    # its line of the certificate itself.
    kept: list[str] = []
    inside = 0
    for number, line in enumerate(original.splitlines(), start=1):
        stripped = line.strip()
        keep = inside > 0
        if inside > 0:
            if stripped == "}":
                inside -= 1
        elif stripped.startswith("algebra-hash "):
            recorded_hash = stripped.split(None, 1)[1]
            header_line["algebra-hash"] = number
        elif stripped.startswith(("seed ", "characteristic ")):
            key, value = stripped.split(None, 1)
            try:
                recorded[key] = int(value)
            except ValueError:
                raise ParseError(
                    f"certificate {key} {value!r} is not an integer", number, 1
                ) from None
            header_line[key] = number
        elif stripped.startswith("complex ") and stripped.endswith("{"):
            keep = True
            inside += 1
        elif stripped.startswith(("silting ", "smc ")):
            keep = True
        kept.append(line if keep else "")
    recorded_seed, recorded_char = recorded.get("seed"), recorded.get("characteristic")
    if recorded_hash is None or recorded_seed is None:
        raise ParseError("certificate is missing its hash or seed header")
    if recorded_char is not None and recorded_char != algebra.field.characteristic:
        raise ParseError(
            f"certificate characteristic {recorded_char} does not match the "
            f"algebra's {algebra.field.characteristic}",
            header_line["characteristic"],
            1,
        )
    if algebra_hash(algebra) != recorded_hash:
        raise ParseError(
            "certificate was computed over a different algebra "
            "(hash mismatch)",
            header_line["algebra-hash"],
            1,
        )

    parsed = parse_collection_file("\n".join(kept), algebra)
    silting, smc = parsed.pair()
    try:
        cert = check_pattern(
            silting, smc, seed=recorded_seed, depth=config.depth
        )
    except PatternFailed as exc:
        body = [f"certificate does not re-verify: {exc}"]
        return _finish(
            config, "replay", inputs, algebra, {"replay": "fail"}, body, body
        )
    replayed = cert.serialize()
    if replayed == original:
        body = ["certificate replayed byte-identically"]
        return _finish(
            config, "replay", inputs, algebra, {"replay": "pass"}, body, body
        )
    first_diff = next(
        (
            n
            for n, (a, b) in enumerate(
                zip(original.splitlines(), replayed.splitlines()), start=1
            )
            if a != b
        ),
        min(len(original.splitlines()), len(replayed.splitlines())) + 1,
    )
    body = [f"replayed certificate differs from the original at line {first_diff}"]
    return _finish(
        config, "replay", inputs, algebra, {"replay": "fail"}, body, body
    )


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(4)


def _extract_steps(argv: list[str]) -> tuple[list[tuple[int, str]], list[str]]:
    """Pull the ordered ``--at N --left/--right [--then N ...]`` step
    syntax out of the argument list before argparse sees it."""
    steps: list[tuple[int, str]] = []
    rest: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("--at", "--then"):
            if i + 1 >= len(argv) or not re.fullmatch(r"\d+", argv[i + 1]):
                raise _OptionError(f"{token} needs a positive index")
            index = int(argv[i + 1])
            if i + 2 >= len(argv) or argv[i + 2] not in ("--left", "--right"):
                raise _OptionError(f"expected --left or --right after {token} {index}")
            steps.append((index, argv[i + 2][2:]))
            i += 3
        else:
            rest.append(token)
            i += 1
    return steps, rest


def _build_parser() -> _ArgumentParser:
    shared = _ArgumentParser(add_help=False)
    shared.add_argument("--char", type=int, default=None, metavar="P",
                        help="override the coefficient characteristic")
    shared.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed recorded in reports and certificates")
    shared.add_argument("--depth", type=int, default=3, metavar="N",
                        help="closure/graph search depth")
    shared.add_argument("--window", type=str, default="-5..5", metavar="A..B",
                        help="degree window for duality and graph bounds")
    shared.add_argument("--format", dest="fmt", choices=("table", "structured"),
                        default="table", help="output format")
    shared.add_argument("--out", type=str, default=None, metavar="DIR",
                        help="directory for emitted certificates and files")

    parser = _ArgumentParser(
        prog="siltkit",
        description="verify, mutate, and compare silting and simple-minded "
        "collections over finite-dimensional path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[shared],
                       help="check a collection or a pattern pair")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--silting", action="store_true")
    group.add_argument("--smc", action="store_true")
    group.add_argument("--pattern", action="store_true")
    p.add_argument("algebra")
    p.add_argument("collection")

    p = sub.add_parser(
        "mutate", parents=[shared],
        help="mutate a certified pair in lockstep",
        epilog="steps: --at N --left|--right, then optionally "
               "--then N --left|--right, repeated",
    )
    p.add_argument("--force", action="store_true",
                   help="skip the input-pair certification check")
    p.add_argument("algebra")
    p.add_argument("pair")

    p = sub.add_parser("dgend", parents=[shared],
                       help="print the dg endomorphism algebra of a collection")
    p.add_argument("algebra")
    p.add_argument("collection")

    p = sub.add_parser("koszul", parents=[shared],
                       help="compare the two sides of a pair through Koszul duality")
    p.add_argument("algebra")
    p.add_argument("pair")

    p = sub.add_parser("graph", parents=[shared],
                       help="enumerate the silting mutation graph")
    p.add_argument("algebra")

    p = sub.add_parser("replay", parents=[shared],
                       help="re-verify a certificate byte-for-byte")
    p.add_argument("algebra")
    p.add_argument("certificate")

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", ns.window)
    if not m:
        raise _OptionError(f"--window expects A..B, got {ns.window!r}")
    window = (int(m.group(1)), int(m.group(2)))
    if window[0] > window[1]:
        raise _OptionError(f"--window bounds are reversed: {ns.window}")
    if ns.depth < 0:
        raise _OptionError("--depth must be nonnegative")
    if ns.char is not None:
        try:
            field_of_characteristic(ns.char)
        except ValueError as exc:
            raise _OptionError(f"--char: {exc}") from exc
    return RunConfig(
        characteristic=ns.char,
        seed=ns.seed,
        depth=ns.depth,
        window=window,
        fmt=ns.fmt,
        out=ns.out,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    merged: list[str] = []
    i = 0
    while i < len(argv):
        # Window bounds may start with "-"; glue the value onto the flag
        # so argparse does not mistake it for an option.
        if argv[i] == "--window" and i + 1 < len(argv):
            merged.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    argv = merged
    try:
        steps: list[tuple[int, str]] = []
        if argv and argv[0] == "mutate":
            steps, rest = _extract_steps(argv[1:])
            argv = ["mutate"] + rest
        ns = _build_parser().parse_args(argv)
        if ns.command == "mutate" and not steps:
            raise _OptionError("mutate needs at least one --at N --left/--right step")
        config = _config_from(ns)
        if ns.command == "verify":
            kind = "silting" if ns.silting else "smc" if ns.smc else "pattern"
            report = cmd_verify(config, ns.algebra, ns.collection, kind)
        elif ns.command == "mutate":
            report = cmd_mutate(config, ns.algebra, ns.pair, steps, ns.force)
        elif ns.command == "dgend":
            report = cmd_dgend(config, ns.algebra, ns.collection)
        elif ns.command == "koszul":
            report = cmd_koszul(config, ns.algebra, ns.pair)
        elif ns.command == "graph":
            report = cmd_graph(config, ns.algebra)
        else:
            report = cmd_replay(config, ns.algebra, ns.certificate)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except _OptionError as exc:
        print(f"option error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except (
        ChainConditionViolated,
        MalformedRelation,
        NonAdmissible,
        TruncationUnsound,
        UnknownVertex,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    for line in report.lines:
        print(line)
    return report.exit_code
