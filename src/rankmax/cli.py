"""Command-line front end.

Verbs: generate, rank, good-edges, mu, verify, export.  Every invocation is
deterministic: identical arguments produce byte-identical output.  Exit
codes: 0 success / claims hold, 1 claim mismatch, 2 usage or cap errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construct import (all_levels_good_edges, family_good_edges, mu_value,
                        published_readings)
from .export import family_bundle, graph_to_dot
from .oracle import DEFAULT_CAP, CapExceeded, RankOracle, check_cap
from .ranking import FamilySpec, build_family, family_ranking
from .verify import SUITES, compare_constructive_oracle, run_suite


class UsageError(Exception):
    pass


def _family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=["path", "cycle", "multipartite", "joined"],
                   help="graph family")
    p.add_argument("-k", type=int, help="size exponent for path (2^k - 1 "
                   "vertices) and cycle (2^k vertices)")
    p.add_argument("--parts", type=int, nargs="+", metavar="M",
                   help="multipartite part sizes")
    p.add_argument("-n", type=int, help="clique size for the joined family")


def _spec_from_args(args: argparse.Namespace,
                    construction: bool = False) -> FamilySpec:
    """The family named by the arguments.  With `construction`, sizes that
    the good-edge constructions do not cover are refused too."""
    try:
        if args.family in ("path", "cycle"):
            if args.k is None:
                raise UsageError(f"{args.family} requires -k")
            spec = FamilySpec(args.family, k=args.k)
        elif args.family == "multipartite":
            if not args.parts:
                raise UsageError("multipartite requires --parts")
            spec = FamilySpec.multipartite(*args.parts)
        elif args.n is None:
            raise UsageError("joined requires -n")
        else:
            spec = FamilySpec.joined(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if construction:
        try:
            mu_value(spec)  # same size checks as the constructions
        except ValueError as exc:
            raise UsageError(f"no good-edge construction for the "
                             f"{spec.describe()}: {exc}") from exc
    return spec


def positive_int(text: str) -> int:
    """argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    g = build_family(spec)
    r = family_ranking(spec)
    bundle = family_bundle(spec, g, r)
    if args.json:
        _emit(_json_text(bundle), args.out)
    else:
        lines = [spec.describe(),
                 f"vertices: {g.n}  edges: {g.edge_count}",
                 "ranking:  " + " ".join(str(x) for x in r.labels)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rank(args) -> int:
    spec = _spec_from_args(args)
    check_cap(spec.vertex_count, args.cap)
    g = build_family(spec)
    oracle = RankOracle(cap=args.cap)
    value, stats = oracle.rank_number(g)
    print(f"search: nodes={stats.nodes_expanded} memo={stats.memo_entries} "
          f"time={stats.wall_time:.3f}s", file=sys.stderr)
    if args.json:
        _emit(_json_text({"family": spec.to_json_dict(), "rank_number": value}),
              args.out)
    else:
        _emit(f"rank number of {spec.describe()}: {value}\n", args.out)
    return 0


def _strict_paper_report(spec: FamilySpec, oracle: RankOracle) -> tuple[str, bool]:
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
    lines.append("  " + " ".join(f"({u},{v})" for u, v in dropped))
    missed = sorted(corrected.edge_set() - printed.edge_set())
    lines.append(f"edges missed by the published clauses under either "
                 f"reading ({len(missed)}):")
    lines.append("  " + " ".join(f"({u},{v})" for u, v in missed))
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
    return "\n".join(lines) + "\n", match


def cmd_good_edges(args) -> int:
    spec = _spec_from_args(
        args, construction=args.strict_paper or args.mode != "oracle")
    oracle = RankOracle(cap=args.cap)
    if args.strict_paper:
        report, match = _strict_paper_report(spec, oracle)
        _emit(report, args.out)
        return 0 if match else 1
    if args.mode == "construct":
        es = family_good_edges(spec)
        if args.json:
            _emit(_json_text(es.to_json_dict()), args.out)
        else:
            body = " ".join(f"({u},{v})" for u, v in es)
            _emit(f"{len(es)} edges for {spec.describe()}\n{body}\n", args.out)
        return 0
    check_cap(spec.vertex_count, args.cap)
    g = build_family(spec)
    if args.mode == "oracle":
        good, verdicts = oracle.good_edge_set(g, spec)
        if args.json:
            _emit(_json_text({"good": good.to_json_dict(),
                              "verdicts": [v.to_json_dict() for v in verdicts]}),
                  args.out)
        else:
            lines = [f"{len(good)} of {len(verdicts)} candidate edges are good"]
            lines += [f"({v.edge[0]},{v.edge[1]}) {v.verdict} "
                      f"{v.base_rank}->{v.augmented_rank}" for v in verdicts]
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    # compare
    diff = compare_constructive_oracle(spec, oracle)
    if args.json:
        payload = {
            "match": diff["match"],
            "constructed": diff["constructed"].to_json_dict(),
            "oracle": diff["oracle"].to_json_dict(),
            "constructed_only": [list(e) for e in diff["constructed_only"]],
            "oracle_only": [list(e) for e in diff["oracle_only"]],
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = [f"constructed: {len(diff['constructed'])} edges; "
                 f"oracle: {len(diff['oracle'])} good edges"]
        if diff["match"]:
            lines.append("identical")
        else:
            lines.append("mismatch")
            lines.append("constructed only: " + " ".join(
                f"({u},{v})" for u, v in diff["constructed_only"]))
            lines.append("oracle only: " + " ".join(
                f"({u},{v})" for u, v in diff["oracle_only"]))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if diff["match"] else 1


def cmd_mu(args) -> int:
    spec = _spec_from_args(args, construction=True)
    value = mu_value(spec)
    rows = [("closed form", value)]
    if args.oracle:
        check_cap(spec.vertex_count, args.cap)
        oracle = RankOracle(cap=args.cap)
        g = build_family(spec)
        good, verdicts = oracle.good_edge_set(g, spec)
        rows.append(("individually good edges", len(good)))
        sim = oracle.verify_simultaneous(g, family_good_edges(spec).edges,
                                         witness=family_ranking(spec))
        rows.append(("constructed set simultaneous", int(sim.ok)))
    if args.json:
        _emit(_json_text({"family": spec.to_json_dict(),
                          "mu": value,
                          **{k.replace(" ", "_"): v for k, v in rows[1:]}}),
              args.out)
    else:
        width = max(len(name) for name, _ in rows)
        lines = [f"{spec.describe()}"]
        lines += [f"  {name.ljust(width)}  {val}" for name, val in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
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
    if args.json:
        _emit(_json_text({"suite": args.suite,
                          "passed": ok,
                          "claims": [r.to_json_dict() for r in results]}),
              args.out)
    else:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.claim_id}: {r.description} ({r.detail})")
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} claims hold")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_export(args) -> int:
    spec = _spec_from_args(args, construction=args.what == "good-edges")
    g = build_family(spec)
    r = family_ranking(spec)
    good = family_good_edges(spec) if args.what == "good-edges" else None
    if args.format == "dot":
        text = graph_to_dot(g, ranking=r, extra_edges=good)
    else:
        text = _json_text(family_bundle(spec, g, r, good=good))
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmax",
        description="Construct and verify rank-preserving edge additions for "
                    "paths, cycles, complete multipartite graphs, and joined "
                    "cliques.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, cap=True):
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--out", metavar="PATH", help="write to a file")
        if cap:
            p.add_argument("--cap", type=positive_int, default=DEFAULT_CAP,
                           help=f"exact-search order cap (default {DEFAULT_CAP})")

    p = sub.add_parser("generate", help="emit a family graph and its ranking")
    _family_arguments(p)
    common(p, cap=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("rank", help="exact rank number of a family graph")
    _family_arguments(p)
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("good-edges", help="constructed or classified edge sets")
    _family_arguments(p)
    p.add_argument("--mode", choices=["construct", "oracle", "compare"],
                   default="construct")
    p.add_argument("--strict-paper", action="store_true",
                   help="audit the published procedure clauses verbatim "
                        "(l > 0 interior runs, level union stopping at k) "
                        "against the corrected construction and the oracle")
    common(p)
    p.set_defaults(func=cmd_good_edges)

    p = sub.add_parser("mu", help="closed-form count of addable edges")
    _family_arguments(p)
    p.add_argument("--oracle", action="store_true",
                   help="also report exhaustive per-edge counts")
    common(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("verify", help="run a claim suite against the oracle")
    p.add_argument("--suite", choices=list(SUITES), default="paper-all")
    p.add_argument("--max-k", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="emit DOT or JSON for a family")
    _family_arguments(p)
    p.add_argument("--what", choices=["graph", "good-edges"], default="graph")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    common(p, cap=False)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
