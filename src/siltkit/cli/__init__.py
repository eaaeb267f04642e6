"""Command-line front end.

Subcommands: ``verify`` (collection and pattern checks), ``mutate``
(lockstep mutation walks), ``dgend`` (dg endomorphism algebra tables),
``koszul`` (duality comparison of a pair), ``graph`` (the silting
mutation graph), and ``replay`` (byte-exact certificate re-runs).

Exit codes: 0 all verdicts pass, 2 some verdict fails, 3 nothing fails
but something is not certified (a resolution longer than
``RESOLUTION_BOUND`` included: it is refused, not cut off, and stderr
names the bound), 4 unusable input: ``input error:`` for an input file,
``option error:`` for a malformed command line, naming the option or
argument.  ``-h`` or ``--help`` prints usage and exits 0.  A reader that
closes stdout early gets no traceback: the exit code is the verdicts'.

With ``--format structured`` the output is line-oriented with a stable
key order, so a re-run with the same configuration is byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

from ..correspond.checks import check_pattern, check_silting, check_smc
from ..correspond.pipeline import koszul_pair_check, lockstep_walk, standard_pair
from ..dg.dga import dg_end
from ..errors import (
    ChainConditionViolated,
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
    """A command's outcome: rendered lines and exit code."""

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
    table_body: list[str] | Callable[[], list[str]],
    structured_body: list[str] | Callable[[], list[str]],
) -> Report:
    """The report in the format ``config`` asks for.  A body may be given
    as a function that builds it, so only the body printed is built."""
    code = _exit_from_verdicts(verdicts)
    body = structured_body if config.fmt == "structured" else table_body
    if callable(body):
        body = body()
    if config.fmt == "structured":
        lines = [
            f"command {command}",
            f"inputs {inputs_hash}",
            f"characteristic {algebra.field.characteristic}",
            f"seed {config.seed}",
            f"depth {config.depth}",
            f"window {config.window[0]}..{config.window[1]}",
        ]
        lines.extend(body)
        lines.extend(f"verdict {k} {verdicts[k]}" for k in sorted(verdicts))
        lines.append(f"exit {code}")
    else:
        lines = list(body)
        lines.append("")
        lines.extend(f"verdict {k}: {verdicts[k]}" for k in sorted(verdicts))
        lines.append(f"exit {code}")
    return Report(lines, code)


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
        except PatternFailed as exc:
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
    return _finish(
        config,
        "dgend",
        inputs,
        algebra,
        {"dgend": "pass"},
        lambda: [f"collection: {collection_summary(members)}", ""]
        + dg_table_lines(E, f"dg endomorphism algebra of {kind} {name}"),
        lambda: dg_structured_lines(E, "dgend"),
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
    report = koszul_pair_check(E, F, cert.bijection)
    return _finish(
        config,
        "koszul",
        inputs,
        algebra,
        {"pattern": "pass", "koszul": report.verdict},
        lambda: dg_table_lines(E, "dg endomorphism algebra of the silting side")
        + [""]
        + dg_table_lines(F, "dg endomorphism algebra of the simple-minded side")
        + [""]
        + report_lines(report),
        lambda: dg_structured_lines(E, "silting-end")
        + dg_structured_lines(F, "smc-end")
        + report_structured_lines(report),
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
    capped = False

    # --depth bounds the mutation search here, not the smc checks: nodes
    # carry their generation by provenance.
    nodes.append({"silting": silting0, "smc": smc0, "verdict": check_smc(smc0).verdict})
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
                    partner = smc_mutate(node["smc"], index - 1, side)
                    target = None
                    for n, known in enumerate(nodes):
                        if isomorphic_collections(mutated, known["silting"]):
                            target = n
                            break
                    if target is None:
                        if len(nodes) >= GRAPH_NODE_CAP:
                            capped = True
                            continue
                        verdict = check_smc(partner).verdict
                        nodes.append({"silting": mutated, "smc": partner, "verdict": verdict})
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
    old, new = original.splitlines(), replayed.splitlines()
    # A verdict that passed and now only misses its certificate (a closure
    # search stopped by --depth, say) is no witness against the original.
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    lost = [a.split()[1] for a, b in changed if a.startswith("verdict ")
            and a.endswith(" pass") and b == a[: -len("pass")] + "not-certified"]
    if len(old) == len(new) and changed and len(lost) == len(changed):
        body = [
            f"{name} is not certified on replay at --depth {config.depth}, "
            f"where the certificate reads pass"
            for name in lost
        ]
        return _finish(
            config, "replay", inputs, algebra, {"replay": "not-certified"}, body, body
        )
    first_diff = next(
        (n for n, (a, b) in enumerate(zip(old, new), start=1) if a != b),
        min(len(old), len(new)) + 1,
    )
    body = [f"replayed certificate differs from the original at line {first_diff}"]
    return _finish(
        config, "replay", inputs, algebra, {"replay": "fail"}, body, body
    )


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


#: Options every command takes: name -> (RunConfig field, metavar, help).
_SHARED = {
    "char": ("characteristic", "P", "override the coefficient characteristic"),
    "seed": ("seed", "N", "seed recorded in reports and certificates (default 0)"),
    "depth": ("depth", "N", "closure/graph search depth (default 3)"),
    "window": ("window", "A..B", "degree window for graph bounds (default -5..5)"),
    "format": ("fmt", "table|structured", "output format (default table)"),
    "out": ("out", "DIR", "directory for emitted certificates and files"),
}

#: Commands: name -> (summary, positionals, flags).  ``verify`` takes
#: exactly one of its flags, and ``mutate`` takes steps besides.
_COMMANDS = {
    "verify": ("check a collection or a pattern pair",
               ("ALG", "COLLECTION"), ("silting", "smc", "pattern")),
    "mutate": ("mutate a certified pair in lockstep; --force skips the check "
               "of the input pair", ("ALG", "PAIR"), ("force",)),
    "dgend": ("print the dg endomorphism algebra of a collection",
              ("ALG", "COLLECTION"), ()),
    "koszul": ("compare the two sides of a pair through Koszul duality",
               ("ALG", "PAIR"), ()),
    "graph": ("enumerate the silting mutation graph", ("ALG",), ()),
    "replay": ("re-verify a certificate byte-for-byte", ("ALG", "CERT"), ()),
}


class _Help(Exception):
    """``-h`` or ``--help`` was given; the message is the usage text."""


def _usage(commands) -> str:
    """Usage of ``commands``, built from the tables the parser reads."""
    lines = ["usage:"]
    for name in commands:
        summary, positionals, flags = _COMMANDS[name]
        words = ["siltkit", name, *positionals]
        if name == "verify":
            words.append("|".join(f"--{flag}" for flag in flags))
        elif name == "mutate":
            words.append("--at N --left|--right [--then N --left|--right ...] [--force]")
        lines += [f"  {' '.join(words)} [OPTIONS]", f"      {summary}"]
    lines += ["", "OPTIONS, each as --opt value or --opt=value:"]
    lines += [f"  {f'--{name} {meta}':<28}{text}" for name, (_, meta, text) in _SHARED.items()]
    lines.append(f"  {'-h, --help':<28}print this help")
    return "\n".join(lines)


def _is_option(token: str) -> bool:
    """Whether ``token`` names an option; ``-`` and a token such as ``-1``
    or ``-1..0`` are values."""
    return token.startswith("-") and token != "-" and not token[1:2].isdigit()


def _parse(argv: list[str]):
    """The command, its positionals, flags and steps, and the RunConfig of
    ``argv``, in one pass.  An option is written ``--opt value`` or
    ``--opt=value`` anywhere after the command, a unique prefix names it,
    and the last value given wins."""
    if argv and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        raise _Help(_usage(_COMMANDS))
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise _OptionError(f"the command comes first, one of {', '.join(_COMMANDS)}{got}")
    command, rest = argv[0], argv[1:]
    _, wanted, flag_names = _COMMANDS[command]
    options = [f"--{name}" for name in (*_SHARED, *flag_names, "help")] + ["-h"]
    values: dict[str, str] = {}
    positionals: list[str] = []
    flags: list[str] = []
    steps: list[tuple[int, str]] = []
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token == "--":
            positionals += rest[i:]
            break
        if not _is_option(token):
            positionals.append(token)
            continue
        if command == "mutate" and token in ("--at", "--then"):
            index = rest[i] if i < len(rest) else ""
            if not (index.isascii() and index.isdigit()):
                raise _OptionError(f"{token} needs a positive index")
            side = rest[i + 1] if i + 1 < len(rest) else None
            if side not in ("--left", "--right"):
                raise _OptionError(f"expected --left or --right after {token} {int(index)}")
            steps.append((int(index), side[2:]))
            i += 2
            continue
        option, eq, value = token.partition("=")
        matches = [option] if option in options else [
            known for known in options if known.startswith(option)
        ]
        if len(matches) != 1:
            raise _OptionError(
                f"{option} is ambiguous for {command}: {', '.join(matches)}"
                if matches else f"{command} has no option {option}"
            )
        if matches[0] in ("-h", "--help"):
            raise _Help(_usage([command]))
        name = matches[0][2:]
        if name in flag_names:
            if eq:
                raise _OptionError(f"--{name} takes no value")
            flags.append(name)
            continue
        if not eq:
            if i == len(rest) or _is_option(rest[i]):
                raise _OptionError(f"--{name} needs a value")
            value = rest[i]
            i += 1
        values[name] = value
    if len(positionals) != len(wanted):
        raise _OptionError(f"{command} takes {' '.join(wanted)}, got {positionals}")
    if command == "verify" and len(set(flags)) != 1:
        raise _OptionError(
            f"verify takes exactly one of --silting, --smc, --pattern, got {len(set(flags))}"
        )
    if command == "mutate" and not steps:
        raise _OptionError("mutate needs at least one --at N --left/--right step")
    return command, positionals, flags, steps, _config_from(values)


def _config_from(values: dict[str, str]) -> RunConfig:
    """The RunConfig of the last value given to each shared option."""
    config = RunConfig()
    for name, text in values.items():
        value = text
        if name in ("char", "seed", "depth"):
            try:
                value = int(text)
            except ValueError:
                raise _OptionError(f"--{name} expects an integer, got {text!r}") from None
        elif name == "format" and text not in ("table", "structured"):
            raise _OptionError(f"--format expects table or structured, got {text!r}")
        elif name == "window":
            lo, _, hi = text.partition("..")
            if not all(b.removeprefix("-").isdecimal() for b in (lo, hi)):
                raise _OptionError(f"--window expects A..B, got {text!r}")
            if int(lo) > int(hi):
                raise _OptionError(f"--window bounds are reversed: {text}")
            value = (int(lo), int(hi))
        setattr(config, _SHARED[name][0], value)
    if config.depth < 0:
        raise _OptionError("--depth must be nonnegative")
    if config.characteristic is not None:
        try:
            field_of_characteristic(config.characteristic)
        except ValueError as exc:
            raise _OptionError(f"--char: {exc}") from exc
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        command, args, flags, steps, config = _parse(
            sys.argv[1:] if argv is None else argv
        )
        if command == "verify":
            report = cmd_verify(config, *args, flags[0])
        elif command == "mutate":
            report = cmd_mutate(config, *args, steps, "force" in flags)
        elif command == "dgend":
            report = cmd_dgend(config, *args)
        elif command == "koszul":
            report = cmd_koszul(config, *args)
        elif command == "graph":
            report = cmd_graph(config, *args)
        else:
            report = cmd_replay(config, *args)
    except _Help as exc:
        print(exc)
        return 0
    except _OptionError as exc:
        print(f"option error: {exc}", file=sys.stderr)
        return 4
    except TruncationUnsound as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 3
    except (
        ParseError, OSError, ChainConditionViolated, MalformedRelation, NonAdmissible,
        UnknownVertex,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    try:
        for line in report.lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone and the verdict stands.  Point stdout at
        # devnull so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code
