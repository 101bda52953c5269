import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmax import RankOracle
from rankmax.cli import entrypoint, main
from helpers import rankmax_env
from test_cli_golden import run as run_golden


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "rankmax", *args],
                          capture_output=True, text=True, env=rankmax_env())


def assert_one_line_usage_error(res):
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


class TestGenerate:
    def test_path_json(self):
        res = run_cli("generate", "path", "-k", "3", "--json")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["family"] == {"kind": "path", "k": 3}
        assert obj["graph"]["n"] == 7
        assert len(obj["graph"]["edges"]) == 6
        assert obj["ranking"]["labels"] == [1, 2, 1, 3, 1, 2, 1]

    def test_unwritable_out_is_usage_error(self, tmp_path):
        res = run_cli("generate", "path", "-k", "3",
                      "--out", str(tmp_path / "missing" / "x"))
        assert_one_line_usage_error(res)
        assert "cannot write" in res.stderr

    def test_cycle_top_label(self):
        res = run_cli("generate", "cycle", "-k", "4", "--json")
        assert json.loads(res.stdout)["ranking"]["labels"][15] == 5

    def test_joined_edge_count(self):
        res = run_cli("generate", "joined", "-n", "5", "--json")
        obj = json.loads(res.stdout)
        assert obj["family"] == {"kind": "joined", "n": 5}
        assert len(obj["graph"]["edges"]) == 21

    def test_deterministic_output(self):
        a = run_cli("generate", "multipartite", "--parts", "4", "3", "2", "--json")
        b = run_cli("generate", "multipartite", "--parts", "4", "3", "2", "--json")
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["family"] == {"kind": "multipartite",
                                                  "parts": [4, 3, 2]}

    def test_missing_parameter_is_usage_error(self):
        assert run_cli("generate", "path").returncode == 2

    def test_bad_parameter_is_usage_error(self):
        assert run_cli("generate", "cycle", "-k", "1").returncode == 2

    def test_path_beyond_sixty_three_vertices(self):
        res = run_cli("generate", "path", "-k", "7", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["graph"]["n"] == 127


class TestFamilyArguments:
    @pytest.mark.parametrize("argv", [
        ["rank", "path", "-k", "3", "-n", "5"],
        ["good-edges", "path", "-k", "3", "--parts", "2", "2"],
        ["generate", "joined", "-n", "3", "-k", "2"],
        ["mu", "multipartite", "--parts", "2", "2", "-k", "3"],
    ], ids=" ".join)
    def test_argument_the_family_does_not_take_is_usage_error(self, argv):
        res = run_cli(*argv)
        assert_one_line_usage_error(res)
        assert "takes exactly" in res.stderr
        assert res.stdout == ""


class TestFamilyTooLargeToPrint:
    # Python refuses to print an int of more than 4300 digits by default:
    # 2^k - 1 and 2^k pass it at k = 14284, the mu count (k - 3) * 2^k + 4 a
    # little earlier.  The limit is pinned, since without it `generate`
    # would start building a graph of 2^k vertices.
    @staticmethod
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rankmax", *argv],
                              capture_output=True, text=True,
                              env=dict(rankmax_env(), PYTHONINTMAXSTRDIGITS="4300"))

    @pytest.mark.parametrize("argv", [
        ["rank", "path", "-k", "20000"],
        ["good-edges", "path", "-k", "15000", "--mode", "oracle"],
        ["mu", "cycle", "-k", "15000", "--oracle"],
        ["mu", "path", "-k", "20000", "--json"],
        ["mu", "path", "-k", "14280"],
        ["mu", "cycle", "-k", "14284", "--json"],
        ["generate", "path", "-k", "20000"],
    ], ids=" ".join)
    def test_is_usage_error(self, argv):
        res = self.run(*argv)
        assert_one_line_usage_error(res)
        assert "too large to print" in res.stderr
        assert res.stdout == ""

    def test_order_past_the_limit_is_usage_error(self):
        # n has 4300 digits and prints; the order 2n checked against the cap
        # has 4301.
        res = self.run("rank", "joined", "-n", "5" * 4300)
        assert_one_line_usage_error(res)
        assert "too large to print" in res.stderr

    def test_mu_below_the_limit_prints(self):
        res = self.run("mu", "path", "-k", "14000")
        assert res.returncode == 0
        assert res.stdout.split()[-1] == str(13997 * 2 ** 14000 + 4)


class TestRank:
    def test_joined_five(self):
        res = run_cli("rank", "joined", "-n", "5")
        assert res.returncode == 0
        assert "6" in res.stdout
        assert "nodes=" in res.stderr  # stats on the side channel

    def test_dense_multipartite_within_the_cap(self):
        # 20 vertices in four twin classes: the search needs twin pruning to
        # answer in a fraction of a second.
        res = run_cli("rank", "multipartite", "--parts", "5", "5", "5", "5")
        assert res.returncode == 0
        assert res.stdout == ("rank number of complete multipartite with "
                              "parts 5,5,5,5: 16\n")

    def test_cap_refusal(self):
        res = run_cli("rank", "path", "-k", "5")
        assert res.returncode == 2
        assert "cap" in res.stderr

    def test_cap_below_one_is_usage_error(self):
        res = run_cli("mu", "path", "-k", "3", "--cap", "0")
        assert res.returncode == 2
        assert "argument --cap" in res.stderr

    def test_cap_override(self):
        res = run_cli("rank", "path", "-k", "5", "--cap", "31", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["rank_number"] == 5


class TestGoodEdges:
    def test_construct_mode(self):
        res = run_cli("good-edges", "path", "-k", "4", "--json")
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["edges"]) == 20

    def test_compare_path_matches(self):
        res = run_cli("good-edges", "path", "-k", "3", "--mode", "compare")
        assert res.returncode == 0
        assert "identical" in res.stdout

    def test_compare_cycle_reports_per_edge_surplus(self):
        # Every chord is individually good, so the per-edge classification
        # is strictly larger than the simultaneous-optimal construction.
        res = run_cli("good-edges", "cycle", "-k", "3", "--mode", "compare",
                      "--json")
        assert res.returncode == 1
        obj = json.loads(res.stdout)
        assert not obj["match"]
        assert len(obj["oracle"]["edges"]) == 20
        assert len(obj["constructed"]["edges"]) == 9
        assert obj["constructed_only"] == []

    def test_oracle_mode(self):
        res = run_cli("good-edges", "path", "-k", "3", "--mode", "oracle",
                      "--json")
        obj = json.loads(res.stdout)
        assert obj["good"]["edges"] == [[1, 4], [2, 4], [4, 6], [4, 7]]
        assert len(obj["verdicts"]) == 15

    def test_strict_paper_json_is_usage_error(self):
        res = run_cli("good-edges", "path", "-k", "3", "--strict-paper", "--json")
        assert_one_line_usage_error(res)
        assert res.stdout == ""

    @pytest.mark.parametrize("mode", ["oracle", "compare"])
    def test_strict_paper_with_a_mode_is_usage_error(self, mode):
        res = run_cli("good-edges", "path", "-k", "3", "--strict-paper",
                      "--mode", mode)
        assert_one_line_usage_error(res)
        assert res.stdout == ""

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_size_without_construction_is_usage_error(self, family):
        assert_one_line_usage_error(run_cli("good-edges", family, "-k", "2"))

    def test_strict_paper_report(self):
        res = run_cli("good-edges", "path", "-k", "4", "--strict-paper")
        assert res.returncode == 1
        assert "20 edges" in res.stdout
        assert "11 edges" in res.stdout
        assert "(10,12)" in res.stdout
        assert "8 vs 20" in res.stdout

    # At k = 3 the published clauses miss no edge: the report says so in its
    # count and prints no empty pairs line.
    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_strict_paper_report_prints_no_blank_pairs_line(self, family):
        res = run_cli("good-edges", family, "-k", "3", "--strict-paper")
        assert "under either reading (0):" in res.stdout
        assert not [line for line in res.stdout.splitlines()
                    if line and not line.strip()]

    def test_strict_paper_report_cycle(self):
        res = run_cli("good-edges", "cycle", "-k", "4", "--strict-paper")
        assert res.returncode == 1
        assert "corrected construction: 33 edges" in res.stdout
        assert "l >= 0: 32 edges" in res.stdout
        assert "as printed: 24 edges" in res.stdout
        assert "(10,12)" in res.stdout

    # Above the cap there is no classification; the literal reading must
    # still be held against the construction, which it undercounts.
    @pytest.mark.parametrize("family,literal,constructed", [
        ("path", 40, 68), ("cycle", 69, 97),
    ])
    def test_strict_paper_fails_above_the_cap(self, family, literal, constructed):
        res = run_cli("good-edges", family, "-k", "5", "--strict-paper")
        assert res.returncode == 1
        assert f"corrected construction: {constructed} edges" in res.stdout
        assert f"as printed: {literal} edges" in res.stdout
        assert "exhaustive per-edge classification" not in res.stdout


class TestMu:
    @pytest.mark.parametrize("args,value", [
        (("mu", "path", "-k", "4"), 20),
        (("mu", "cycle", "-k", "4"), 33),
        (("mu", "joined", "-n", "5"), 8),
        (("mu", "multipartite", "--parts", "4", "3", "2"), 4),
    ])
    def test_closed_forms(self, args, value):
        res = run_cli(*args, "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["mu"] == value

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_size_without_closed_form_is_usage_error(self, family):
        assert_one_line_usage_error(run_cli("mu", family, "-k", "2"))

    def test_oracle_side_by_side(self):
        res = run_cli("mu", "path", "-k", "3", "--oracle", "--json")
        obj = json.loads(res.stdout)
        assert obj["individually_good_edges"] == 4
        assert obj["constructed_set_simultaneous"] == 1


class TestVerify:
    def test_uniqueness_suite(self):
        res = run_cli("verify", "--suite", "uniqueness")
        assert res.returncode == 0
        assert "claims hold" in res.stdout

    def test_joined_suite_json(self):
        res = run_cli("verify", "--suite", "joined", "--json")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["passed"] and all(c["passed"] for c in obj["claims"])

    @pytest.mark.parametrize("max_k", ["2", "0", "-1"])
    def test_paper_all_without_path_or_cycle_claims_is_refused(self, max_k):
        # The multipartite, joined and uniqueness claims alone would pass.
        res = run_cli("verify", "--suite", "paper-all", "--max-k", max_k)
        assert_one_line_usage_error(res)
        assert "start at k = 3" in res.stderr
        assert res.stdout == ""

    def test_uniqueness_from_k_two(self):
        res = run_cli("verify", "--suite", "uniqueness", "--max-k", "2")
        assert res.returncode == 0
        assert "2/2 claims hold" in res.stdout

    def test_zero_claims_is_usage_error(self):
        assert_one_line_usage_error(
            run_cli("verify", "--suite", "path", "--max-k", "0"))

    def test_cycle_certificate_at_sixty_four_vertices(self):
        res = run_cli("verify", "--suite", "cycle", "--max-k", "6")
        assert res.returncode == 0
        assert "16/16 claims hold" in res.stdout
        assert "cycle-simultaneous-k6" in res.stdout

    def test_cycle_certificates_up_to_1024_vertices(self):
        # The certificate's path walk stops once it covers the host, so the
        # 1024-cycle certifies in well under a second.
        res = run_cli("verify", "--suite", "cycle", "--max-k", "10")
        assert res.returncode == 0
        assert "28/28 claims hold" in res.stdout

    def test_path_certificates_up_to_1023_vertices(self):
        # Beyond the cap the suite cross-checks the closure of the standard
        # ranking against the construction and certifies each union.
        res = run_cli("verify", "--suite", "path", "--max-k", "10")
        assert res.returncode == 0
        assert "34/34 claims hold" in res.stdout

    def test_uniqueness_above_the_enumeration_cap_is_refused(self):
        # k = 5 asks for the optimal rankings of P_31, above the default
        # cap: refused, not reported as holding without being checked.
        res = run_cli("verify", "--suite", "uniqueness", "--max-k", "5")
        assert_one_line_usage_error(res)
        assert "cap of 20" in res.stderr
        assert res.stdout == ""

    def test_uniqueness_within_a_raised_cap(self):
        # Listing is bounded by --cap like every exact search: P_31 and
        # C_32 fit within 40.
        res = run_cli("verify", "--suite", "uniqueness", "--max-k", "5",
                      "--cap", "40")
        assert res.returncode == 0
        assert "8/8 claims hold" in res.stdout


def must_not_run(*args, **kwargs):
    raise AssertionError("searched before checking --out")


class TestOutCheckedFirst:
    """An unwritable --out is refused before any search starts."""

    @staticmethod
    def assert_refused(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write")
        assert captured.out == ""

    def test_verify(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr("rankmax.cli.run_suite", must_not_run)
        self.assert_refused(capsys, ["verify", "--out",
                                     str(tmp_path / "missing" / "x")])

    def test_rank(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(RankOracle, "rank_number", must_not_run)
        self.assert_refused(capsys, ["rank", "path", "-k", "3", "--out",
                                     str(tmp_path / "missing" / "x")])

    def test_the_check_leaves_no_file_behind(self, tmp_path):
        # A command refused after the check must not leave an empty file.
        out = tmp_path / "x"
        assert main(["generate", "path", "--out", str(out)]) == 2
        assert not out.exists()


class TestDeepSearch:
    """A search deeper than the Python recursion limit either answers or
    refuses with one `error:` line; it never ends in a traceback or in the
    exit code of a claim mismatch."""

    @pytest.mark.parametrize("argv, first_line_end", [
        (["rank", "multipartite", "--parts", *["1"] * 300, "--cap", "300"],
         ": 300"),
        (["rank", "joined", "-n", "300", "--cap", "600"], ": 301"),
        (["good-edges", "multipartite", "--parts", "2", *["1"] * 299,
          "--mode", "oracle", "--cap", "400"],
         "0 of 1 candidate edges are good"),
    ], ids=["K_300", "joined K_300", "K_2,1x299 oracle"])
    def test_answers_or_refuses(self, argv, first_line_end):
        res = run_cli(*argv)
        assert "Traceback" not in res.stderr
        if res.returncode == 0:
            assert res.stdout.splitlines()[0].endswith(first_line_end)
        else:
            assert_one_line_usage_error(res)

    def test_refuses_past_the_recursion_limit(self):
        # K_1100 needs a search about 1,100 levels deep, one frame each.
        assert_one_line_usage_error(run_cli(
            "rank", "multipartite", "--parts", *["1"] * 1100, "--cap", "1100"))


class TestEntrypoint:
    """The installed `rankmax` script exits with the code `main` returns."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--suite", "joined"], 0),
        (["good-edges", "cycle", "-k", "4", "--mode", "compare"], 1),
        (["rank", "path", "-k", "5"], 2),
    ])
    def test_exit_code(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["rankmax", *argv])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == code


class TestExport:
    def test_dot_labels_and_styling(self):
        res = run_cli("export", "path", "-k", "3", "--what", "good-edges",
                      "--format", "dot")
        assert res.returncode == 0
        assert 'v4 [label="3"]' in res.stdout
        assert "v1 -- v2" in res.stdout
        assert "v1 -- v4 [style=dashed]" in res.stdout

    def test_dot_structure_counts(self):
        res = run_cli("export", "path", "-k", "4", "--what", "good-edges",
                      "--format", "dot")
        lines = res.stdout.splitlines()
        assert sum(1 for l in lines if l.startswith("  v") and "--" in l
                   and "dashed" not in l) == 14
        assert sum(1 for l in lines if "dashed" in l) == 20

    def test_json_round_trips_through_generate(self):
        gen = run_cli("generate", "cycle", "-k", "3", "--json")
        exp = run_cli("export", "cycle", "-k", "3", "--format", "json")
        assert gen.stdout == exp.stdout

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_good_edges_without_construction_is_usage_error(self, family):
        assert_one_line_usage_error(
            run_cli("export", family, "-k", "2", "--what", "good-edges"))

    def test_json_flag_is_refused(self):
        # --format chooses the output; export has no --json to ignore.
        res = run_cli("export", "path", "-k", "3", "--format", "dot", "--json")
        assert res.returncode == 2
        assert "error: unrecognized arguments: --json" in res.stderr
        assert res.stdout == ""

    def test_write_to_file(self, tmp_path):
        out = tmp_path / "g.dot"
        res = run_cli("export", "path", "-k", "3", "--format", "dot",
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().startswith("graph G {")


PINNED_OUTPUT = {
    "generate path -k 3 --json":
        (0, "dfe52c781acf2690ab0e50901c3b61d76215812550f97a71ee7eb9adb8e1aaeb"),
    "rank cycle -k 3 --json":
        (0, "a2ba21b864552068d86c94840c94939bd3cd4ed4e56991da6997fbb3b4e0884e"),
    "rank multipartite --parts 3 2 --json":
        (0, "110954500480551ba8421e6f129bcdfd5a8fb4120e6660040ba73ebb63ea48c2"),
    "good-edges path -k 4 --json":
        (0, "bdc5b47210265abaf5aad90b4c1270bb97ed96167586fa5ca5c2e58f13686365"),
    "good-edges joined -n 3 --mode compare --json":
        (1, "8ae42646255c827574209692ae10a938754c918a1def566932b15e760c5d8eda"),
    "mu path -k 4 --json":
        (0, "016bea60f2792699e1684c1a64f2f6a67b2886e0f95c8b93dfd64fa90e3f0e30"),
    "mu joined -n 3 --oracle --json":
        (0, "c77ee7745d65a490963a4a5c4cc2fabb5d8bd09e69d7e27b863aa9e89ab468ba"),
    "verify --suite joined --json":
        (0, "3cdf6bd85f44a1070ce567ff68b08126eda404f62d327c10e34ada7860e4d762"),
    "export path -k 4 --what good-edges --format json":
        (0, "bd9eaeb27db5cc1a269d09f44c50e941494aee23a315bd92cde2be3b598d6756"),
    "export joined -n 3 --format json":
        (0, "dbc115d4014ae29c75e3c3270113818865e1a564cb593315d1fd6009e5b069e8"),
    "export multipartite --parts 3 2 --what good-edges --format dot":
        (0, "80aa816585b366086e0dd152da350a80f2126c7e745efe9ccb311f6eb08d801e"),
}


@pytest.mark.parametrize("command", PINNED_OUTPUT)
def test_json_and_dot_output_is_pinned(command):
    # The JSON and DOT forms that golden_cli.json does not cover.
    result = run_golden(command.split())
    assert (result["exit"], result["stdout_sha256"]) == PINNED_OUTPUT[command]


FAMILY_ARGV = st.one_of(
    st.tuples(st.sampled_from(["path", "cycle"]), st.integers(-1, 5)).map(
        lambda t: [t[0], "-k", str(t[1])]),
    st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(
        lambda parts: ["multipartite", "--parts", *map(str, parts)]),
    st.integers(-1, 6).map(lambda n: ["joined", "-n", str(n)]),
)
VERB_ARGV = st.sampled_from([
    ["generate"], ["rank"], ["good-edges"], ["good-edges", "--mode", "oracle"],
    ["good-edges", "--mode", "compare"], ["good-edges", "--strict-paper"],
    ["mu"], ["mu", "--oracle"], ["export", "--what", "good-edges"],
])


@settings(max_examples=60, deadline=None)
@given(VERB_ARGV, FAMILY_ARGV)
def test_random_family_sizes_keep_the_exit_contract(verb, family):
    # Sizes stay small: every case either finishes in milliseconds or is
    # refused by a size check or the default cap of 20.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([verb[0], family[0], *verb[1:], *family[1:]])
        except SystemExit as exc:  # argparse rejects malformed argv itself
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err.getvalue()
