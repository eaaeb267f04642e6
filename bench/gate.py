"""The correctness gate behind ``failed`` and ``correct``.

Three checks, all outside the timed region:

* :func:`judge` holds one invocation's exit code and ``verdict`` lines
  against the known answers in :mod:`workloads`;
* :func:`oracle_problems` recomputes every Hom table of a certificate with
  the independent sympy oracle in ``tests/oracles.py``;
* the caller replays each certificate with ``siltkit replay`` and judges
  that invocation like any other.
"""

from __future__ import annotations

import importlib.util
import os
import re

from workloads import known_answer

VALUES = ("pass", "fail", "not-certified")
EXIT_OF = {"fail": 2, "not-certified": 3}


def verdict_lines(stdout: str) -> dict[str, str]:
    """``verdict <name> <value>`` lines of structured output."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("verdict "):
            name, _, value = line[len("verdict "):].rpartition(" ")
            out[name] = value
    return out


def judge(command: str, required, code, stdout: str, error) -> list[str]:
    """Every way this invocation contradicts the known answers."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    if code == 4:
        return ["exit 4 (input error) on a valid input"]
    problems = []
    verdicts = verdict_lines(stdout)
    for name in required:
        if name not in verdicts:
            problems.append(f"missing verdict {name!r}")
    for name, value in verdicts.items():
        answer = known_answer(command, name)
        if answer is None:
            problems.append(f"verdict {name!r} has no known answer")
        elif value not in VALUES:
            problems.append(f"verdict {name!r} reads {value!r}")
        elif value != "not-certified" and value != answer:
            problems.append(f"verdict {name!r} is {value}, theory says {answer}")
    expected_exit = max((EXIT_OF.get(v, 0) for v in verdicts.values()), default=0)
    if code != expected_exit:
        problems.append(f"exit {code}, verdict lines imply {expected_exit}")
    if f"exit {code}" not in stdout.splitlines():
        problems.append(f"no 'exit {code}' line in the report")
    return problems


def decided(stdout: str) -> tuple[int, int]:
    """(decided verdicts, all verdicts) of one report."""
    values = verdict_lines(stdout).values()
    return sum(v in ("pass", "fail") for v in values), len(values)


def load_oracles(root: str):
    """``tests/oracles.py`` of the checkout, imported by path."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_HOM = re.compile(r"^hom S(\d+) T(\d+) (-?\d+) (\d+)$")


def certificate_tables(text: str) -> tuple[str, dict[tuple[int, int], dict[int, int]]]:
    """The complexes of a certificate as collection-file text, and its
    Hom table keyed by 0-based (silting member, simple-minded member)."""
    kept, table, inside = [], {}, False
    for line in text.splitlines():
        stripped = line.strip()
        if inside or (stripped.startswith("complex ") and stripped.endswith("{")):
            kept.append(line)
            inside = stripped != "}"
        elif stripped.startswith(("silting ", "smc ")):
            kept.append(line)
        elif m := _HOM.match(stripped):
            i, j, degree, dim = map(int, m.groups())
            table.setdefault((i - 1, j - 1), {})[degree] = dim
    return "\n".join(kept), table


def oracle_problems(oracles, algebra_text: str, cert_text: str) -> list[str]:
    """Every Hom table entry that differs from the sympy oracle.

    The certificates come from algebras without relations, so the oracle
    gets no forbidden subwords.
    """
    from siltkit.cli.parsing import parse_algebra, parse_collection_file

    algebra = parse_algebra(algebra_text)
    if algebra.relations:
        raise ValueError("the oracle check supports algebras without relations only")
    collections, table = certificate_tables(cert_text)
    silting, smc = parse_collection_file(collections, algebra).pair()
    problems = []
    for i, x in enumerate(silting):
        for j, y in enumerate(smc):
            want = oracles.hom_cohomology_dims(algebra, x, y)
            got = {m: d for m, d in table.get((i, j), {}).items() if d}
            if (i, j) not in table or got != want:
                problems.append(
                    f"Hom(S{i + 1}, T{j + 1}[m]): certificate {got}, oracle {want}"
                )
    return problems
