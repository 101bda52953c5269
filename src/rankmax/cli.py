"""Command-line front end.

Verbs: generate, rank, good-edges, mu, verify, export.  Every invocation is
deterministic: identical arguments produce byte-identical output.  Exit
codes: 0 success / claims hold, 1 claim mismatch, 2 usage or cap errors.

Each `cmd_*` verb returns its exit code and its answer: finished text, the
lines to print, or the objects it computed, which are written as JSON
through their `to_json_dict()`.  Only `main` renders the answer, writes it
to stdout or `--out`, and turns a refusal into one `error:` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .construct import (EdgeSet, all_levels_good_edges, family_good_edges,
                        mu_value, published_readings)
from .graph import Graph
from .oracle import DEFAULT_CAP, CapExceeded, RankOracle, check_cap
from .ranking import FamilySpec, Ranking, build_family, family_ranking
from .verify import SUITES, compare_constructive_oracle, run_suite


class UsageError(Exception):
    pass


def _spec_from_args(args: argparse.Namespace,
                    construction: bool = False) -> FamilySpec:
    """The family named by the arguments.  With `construction`, sizes that
    the good-edge constructions do not cover are refused too."""
    try:
        spec = FamilySpec(args.family, k=args.k, n=args.n,
                          parts=None if args.parts is None else tuple(args.parts))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if construction:
        try:
            mu_value(spec)  # same size checks as the constructions
        except ValueError as exc:
            raise UsageError(f"no good-edge construction for the "
                             f"{spec.describe()}: {exc}") from exc
    try:  # Python refuses to print ints past its digit limit
        str(spec.vertex_count), spec.describe()
        if construction:
            str(mu_value(spec))
    except ValueError as exc:
        (_, kind), (name, value) = spec.to_json_dict().items()
        raise UsageError(f"the {kind} family with {name}={value} is too large "
                         f"to print: its numbers pass Python's limit of "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    return spec


def positive_int(text: str) -> int:
    """argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cannot_write(out_path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {out_path}: {exc.strerror or exc}")


def _check_out(out_path: str) -> None:
    """Refuse an unwritable `--out` before any work, with the error the
    final write would give: open it for appending, which keeps what it
    holds, and remove it again if the open created it."""
    existed = os.path.lexists(out_path)
    try:
        open(out_path, "a").close()
    except OSError as exc:
        raise _cannot_write(out_path, exc) from exc
    if not existed:
        os.remove(out_path)


def _emit(answer: object, out_path: str | None) -> None:
    """Write text as it is, a list one item per line, anything else as
    JSON, with each object written through its `to_json_dict()`."""
    if isinstance(answer, list):
        answer = "\n".join(answer) + "\n"
    elif not isinstance(answer, str):
        answer = json.dumps(answer, indent=2,
                            default=lambda obj: obj.to_json_dict()) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(answer)
        except OSError as exc:
            raise _cannot_write(out_path, exc) from exc
    else:
        sys.stdout.write(answer)


def _pairs(edges) -> str:
    return " ".join(f"({u},{v})" for u, v in edges)


def _graph_to_dot(g: Graph, ranking: Ranking, extra: EdgeSet | None) -> str:
    """DOT text with ranking values as node labels; extra edges are drawn
    dashed so added edges stand apart from the host graph."""
    lines = ["graph G {", "  node [shape=circle]"]
    lines += [f'  v{v} [label="{ranking.label(v)}"]' for v in g.vertices()]
    lines += [f"  v{u} -- v{v}" for u, v in g.edges]
    lines += [f"  v{u} -- v{v} [style=dashed]" for u, v in extra or ()]
    return "\n".join([*lines, "}"]) + "\n"


def _family_bundle(spec: FamilySpec, g: Graph, ranking: Ranking,
                   good: EdgeSet | None = None) -> dict:
    """The JSON answer of `generate` and `export --format json`."""
    bundle = {"family": spec, "graph": g, "ranking": ranking}
    if good is not None:
        bundle["good_edges"] = good
    return bundle


def cmd_generate(args) -> tuple[int, object]:
    spec = _spec_from_args(args)
    g = build_family(spec)
    r = family_ranking(spec)
    if args.json:
        return 0, _family_bundle(spec, g, r)
    return 0, [spec.describe(),
               f"vertices: {g.n}  edges: {g.edge_count}",
               "ranking:  " + " ".join(str(x) for x in r.labels)]


def cmd_rank(args) -> tuple[int, object]:
    spec = _spec_from_args(args)
    check_cap(spec.vertex_count, args.cap)
    g = build_family(spec)
    oracle = RankOracle(cap=args.cap)
    value, stats = oracle.rank_number(g)
    print(f"search: nodes={stats.nodes_expanded} memo={stats.memo_entries} "
          f"time={stats.wall_time:.3f}s", file=sys.stderr)
    if args.json:
        return 0, {"family": spec, "rank_number": value}
    return 0, [f"rank number of {spec.describe()}: {value}"]


def _strict_paper_report(spec: FamilySpec,
                         oracle: RankOracle) -> tuple[list[str], bool]:
    """Contrast the published readings with the construction and, within
    the cap, the exhaustive classification.  The audit fails when the
    literal reading misses addable edges: oracle-good ones within the cap,
    constructed ones (certified by `verify_simultaneous`) beyond it."""
    if spec.kind not in ("path", "cycle"):
        raise UsageError("--strict-paper applies to the path and cycle families")
    k = spec.k
    corrected = family_good_edges(spec)
    readings = published_readings(spec)
    printed, literal = readings["printed"], readings["literal"]
    lines = [f"strict reading report for the {spec.describe()}", ""]
    lines.append(f"corrected construction: {len(corrected)} edges")
    lines.append(f"published clauses, interior run l >= 0: {len(printed)} edges")
    lines.append(f"published clauses, interior run l > 0 as printed: "
                 f"{len(literal)} edges")
    dropped = sorted(printed.edge_set() - literal.edge_set())
    lines.append("")
    lines.append(f"edges dropped by the printed l > 0 bound ({len(dropped)}):")
    if dropped:
        lines.append("  " + _pairs(dropped))
    missed = sorted(corrected.edge_set() - printed.edge_set())
    lines.append(f"edges missed by the published clauses under either "
                 f"reading ({len(missed)}):")
    if missed:
        lines.append("  " + _pairs(missed))
    lines.append("")
    lines.append(f"level union stopping at level {k} as published: "
                 f"{len(readings['level_union'])} vs "
                 f"{len(all_levels_good_edges(k))} edges for the path")
    match = corrected.edge_set() <= literal.edge_set()
    if spec.vertex_count <= oracle.cap:
        g = build_family(spec)
        good, _ = oracle.good_edge_set(g, spec)
        lines.append("")
        lines.append(f"exhaustive per-edge classification: {len(good)} good edges")
        hp_match = "matches" if good.edges == corrected.edges else "differs from"
        lines.append(f"  corrected construction {hp_match} the per-edge set")
        for name, es in (("printed", printed), ("literal", literal)):
            diff = sorted(good.edge_set() - es.edge_set())
            lines.append(f"  {name} clauses miss {len(diff)} oracle-good edges")
        match = good.edges == literal.edges
    return lines, match


def cmd_good_edges(args) -> tuple[int, object]:
    spec = _spec_from_args(
        args, construction=args.strict_paper or args.mode != "oracle")
    oracle = RankOracle(cap=args.cap)
    if args.strict_paper:
        if args.json:
            raise UsageError("--strict-paper prints a text report, not JSON")
        if args.mode != "construct":
            raise UsageError("--strict-paper prints its own report; "
                             f"drop --mode {args.mode}")
        lines, match = _strict_paper_report(spec, oracle)
        return 0 if match else 1, lines
    if args.mode == "construct":
        es = family_good_edges(spec)
        if args.json:
            return 0, es
        return 0, [f"{len(es)} edges for {spec.describe()}", _pairs(es)]
    check_cap(spec.vertex_count, args.cap)
    if args.mode == "oracle":
        good, verdicts = oracle.good_edge_set(build_family(spec), spec)
        if args.json:
            return 0, {"good": good, "verdicts": verdicts}
        return 0, [f"{len(good)} of {len(verdicts)} candidate edges are good",
                   *(f"({v.edge[0]},{v.edge[1]}) {v.verdict} "
                     f"{v.base_rank}->{v.augmented_rank}" for v in verdicts)]
    # compare
    diff = compare_constructive_oracle(spec, oracle)
    code = 0 if diff["match"] else 1
    if args.json:
        return code, {key: diff[key] for key in (
            "match", "constructed", "oracle", "constructed_only", "oracle_only")}
    lines = [f"constructed: {len(diff['constructed'])} edges; "
             f"oracle: {len(diff['oracle'])} good edges"]
    if diff["match"]:
        lines.append("identical")
    else:
        lines.append("mismatch")
        lines.append("constructed only: " + _pairs(diff["constructed_only"]))
        lines.append("oracle only: " + _pairs(diff["oracle_only"]))
    return code, lines


def cmd_mu(args) -> tuple[int, object]:
    spec = _spec_from_args(args, construction=True)
    value = mu_value(spec)
    rows = [("closed form", value)]
    if args.oracle:
        check_cap(spec.vertex_count, args.cap)
        oracle = RankOracle(cap=args.cap)
        g = build_family(spec)
        good, verdicts = oracle.good_edge_set(g, spec)
        rows.append(("individually good edges", len(good)))
        sim = oracle.verify_simultaneous(g, family_good_edges(spec).edges)
        rows.append(("constructed set simultaneous", int(sim.ok)))
    if args.json:
        return 0, {"family": spec,
                   "mu": value,
                   **{k.replace(" ", "_"): v for k, v in rows[1:]}}
    width = max(len(name) for name, _ in rows)
    return 0, [f"{spec.describe()}",
               *(f"  {name.ljust(width)}  {val}" for name, val in rows)]


def cmd_verify(args) -> tuple[int, object]:
    if args.suite in ("paper-all", "path", "cycle") and args.max_k < 3:
        # paper-all would pass on its other suites' claims alone.
        raise UsageError(f"--max-k {args.max_k} checks no path or cycle "
                         "claim; the path and cycle suites start at k = 3")
    oracle = RankOracle(cap=args.cap)
    results = run_suite(args.suite, max_k=args.max_k, oracle=oracle)
    if not results:
        raise UsageError(f"suite {args.suite!r} with --max-k {args.max_k} "
                         "checks no claims")
    ok = all(r.passed for r in results)
    code = 0 if ok else 1
    if args.json:
        return code, {"suite": args.suite,
                      "passed": ok,
                      "claims": results}
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.claim_id}: {r.description} ({r.detail})")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} claims hold")
    return code, lines


def cmd_export(args) -> tuple[int, object]:
    spec = _spec_from_args(args, construction=args.what == "good-edges")
    g = build_family(spec)
    r = family_ranking(spec)
    good = family_good_edges(spec) if args.what == "good-edges" else None
    if args.format == "dot":
        return 0, _graph_to_dot(g, r, good)
    return 0, _family_bundle(spec, g, r, good)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmax",
        description="Construct and verify rank-preserving edge additions for "
                    "paths, cycles, complete multipartite graphs, and joined "
                    "cliques.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, help, family=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if family:
            p.add_argument("family", help="graph family",
                           choices=["path", "cycle", "multipartite", "joined"])
            p.add_argument("-k", type=int, help="size exponent for path (2^k - 1 "
                           "vertices) and cycle (2^k vertices)")
            p.add_argument("--parts", type=int, nargs="+", metavar="M",
                           help="multipartite part sizes")
            p.add_argument("-n", type=int,
                           help="clique size for the joined family")
        return p

    def common(p, json=True, cap=True):
        if json:
            p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--out", metavar="PATH", help="write to a file")
        if cap:
            p.add_argument("--cap", type=positive_int, default=DEFAULT_CAP,
                           help=f"exact-search order cap (default {DEFAULT_CAP})")

    common(verb("generate", cmd_generate, "emit a family graph and its ranking"),
           cap=False)
    common(verb("rank", cmd_rank, "exact rank number of a family graph"))

    p = verb("good-edges", cmd_good_edges, "constructed or classified edge sets")
    p.add_argument("--mode", choices=["construct", "oracle", "compare"],
                   default="construct")
    p.add_argument("--strict-paper", action="store_true",
                   help="audit the published procedure clauses verbatim "
                        "(l > 0 interior runs, level union stopping at k) "
                        "against the corrected construction and the oracle")
    common(p)

    p = verb("mu", cmd_mu, "closed-form count of addable edges")
    p.add_argument("--oracle", action="store_true",
                   help="also report exhaustive per-edge counts")
    common(p)

    p = verb("verify", cmd_verify, "run a claim suite against the oracle",
             family=False)
    p.add_argument("--suite", choices=list(SUITES), default="paper-all")
    p.add_argument("--max-k", type=int, default=4,
                   help="largest k for the path, cycle and uniqueness "
                        "suites (default 4; paper-all stops its uniqueness "
                        "claims at 4); the multipartite and joined suites "
                        "run fixed ranges")
    common(p)

    p = verb("export", cmd_export, "emit DOT or JSON for a family")
    p.add_argument("--what", choices=["graph", "good-edges"], default="graph")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    common(p, json=False, cap=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        code, answer = args.func(args)
        _emit(answer, args.out)
        return code
    except (UsageError, CapExceeded) as exc:
        error = str(exc)
    except RecursionError:
        error = (f"an exact search of order up to {args.cap} ran past the "
                 "Python recursion limit; lower --cap")
    print(f"error: {error}", file=sys.stderr)
    return 2


def entrypoint() -> None:
    raise SystemExit(main())
