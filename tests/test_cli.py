import ast
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sobstab import cli
from sobstab.cli import main
from sobstab.specfun import SobolevParams
from sobstab.zonal import ZonalFunction

from conftest import python_env

# Exact output of `constants` and `eigenvalues` in every format, keyed by argv.
TABLES = json.loads((Path(__file__).parent / "cli_tables.json").read_text())


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def strict_json(text):
    """Parse CLI output as JSON proper: json.dumps writes NaN and Infinity, JSON has neither."""
    return json.loads(text, parse_constant=_reject_constant)


class TestConstantsCommand:
    def test_text_table(self, capsys):
        code, out, _ = run(["constants", "--N", "3", "--s", "2"], capsys)
        assert code == 0
        assert "5.47790408953" in out
        assert "0.571428571429" in out  # 4/7
        assert "rho" in out

    def test_rejects_out_of_range_order(self, capsys):
        code, _, err = run(["constants", "--N", "3", "--s", "3.5"], capsys)
        assert code == 2
        assert "0 < s < N" in err

    def test_json_round_trip(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, _, _ = run(["constants", "--N", "3", "--s", "2", "--format", "json",
                          "--out", str(path)], capsys)
        assert code == 0
        doc = strict_json(path.read_text())
        assert doc["N"] == 3
        assert doc["sharp_constant"] == pytest.approx(5.47790408953, rel=1e-11)
        assert doc["eigenvalues"][1]["lambda"] == pytest.approx(3.75, rel=1e-12)
        assert doc["eigenvalues"][1]["multiplicity"] == 4
        assert 0 < doc["weak_norm_constants"]["rho"] < 1

    def test_csv_round_trip(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, _, _ = run(["constants", "--N", "3", "--s", "2", "--format", "csv",
                          "--out", str(path)], capsys)
        assert code == 0
        with open(path) as fh:
            rows = {row["name"]: row["value"] for row in csv.DictReader(fh)}
        assert float(rows["sharp_constant"]) == pytest.approx(5.47790408953, rel=1e-11)
        assert float(rows["local_constant"]) == pytest.approx(4 / 7, rel=1e-11)
        assert int(rows["multiplicity_2"]) == 9
        assert float(rows["C"]) > 0

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run(["constants", "--N", "3", "--s", "2"], capsys)
        line = next(l for l in out.splitlines() if l.startswith("sharp_constant"))
        value = line.split()[-1]
        assert value == f"{3 * (math.pi / 2) ** (4 / 3):.12g}"

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(["constants", "--N", "3", "--s", "2", "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {target}: cannot write output (No such file or directory)\n"

    def test_seed_note(self, capsys):
        _, _, err = run(["constants", "--N", "3", "--s", "2", "--seed", "5"], capsys)
        assert "ignored" in err

    @pytest.mark.parametrize("argv", [
        ["constants"], ["eigenvalues"], ["verify-theorem2", "--profiles", "gaussian"],
        ["export-function", "--profile", "gaussian", "--K", "4"],
    ], ids=lambda argv: argv[0])
    def test_seed_note_on_every_unseeded_command(self, capsys, monkeypatch, argv):
        # printed before the command runs, so also before its usage error
        note = "note: --seed ignored (command has no randomness)\n"
        assert run([argv[0], "--seed", "5"], capsys) == (
            2, "", note + "error: --N and --s are required (flags or config file)\n")
        monkeypatch.setattr(cli, f"cmd_{argv[0].replace('-', '_')}", lambda args: 0)
        assert run([*argv, "--N", "3", "--s", "2", "--seed", "5"], capsys) == (0, "", note)

    def test_negative_kmax_is_usage_error(self, capsys):
        code, out, err = run(["constants", "--N", "3", "--s", "2", "--kmax", "-1",
                              "--format", "json"], capsys)
        assert (code, out, err) == (2, "", "error: --kmax must be >= 0, got -1\n")


    @pytest.mark.parametrize("N, s", [("37", "33.3"), ("38", "34.2")])
    def test_weak_norm_constants_as_s_nears_n(self, capsys, N, s):
        # 1 - rho cancelled: C read 1.43630261237 at (37, 33.3) and (38, 34.2) raised
        code, out, err = run(["constants", "--N", N, "--s", s, "--kmax", "0", "--format", "json"],
                             capsys)
        assert (code, err) == (0, "")
        weak = strict_json(out)["weak_norm_constants"]
        expected = {"37": 0.875940025224, "38": 0.957786851534}[N]
        assert weak["C"] == pytest.approx(expected, rel=1e-11)


class TestOutsideTheDoubleRange:
    # each of these died with an OverflowError or ZeroDivisionError traceback,
    # or (N = 440) was refused for an lq_norm overflow it does not have
    @pytest.mark.parametrize("argv, what", [
        (["eigenvalues", "--N", "180", "--s", "179", "--kmax", "2"],
         "lambda_0 at (N, s) = (180, 179.0) is inf"),
        (["constants", "--N", "180", "--s", "179"], "lambda_0 at (N, s) = (180, 179.0) is inf"),
        (["alpha-estimate", "--N", "180", "--s", "179", "--seed", "1"],
         "lambda_0 at (N, s) = (180, 179.0) is inf"),
        (["constants", "--N", "331", "--s", "1", "--kmax", "0"],
         "the L^q tail at (N, s) = (331, 1.0) is 1.41787444315e-313"),
        (["verify-theorem2", "--N", "331", "--s", "1"],
         "the L^q tail at (N, s) = (331, 1.0) is 1.41787444315e-313"),
        (["export-function", "--N", "460", "--s", "1", "--profile", "gaussian", "--K", "8"],
         "|S^460| is 0.0"),
        (["deficit-scan", "--N", "440", "--s", "1", "--seed", "1", "--K", "8"],
         "|S^440| is 5.4370769684784e-311"),
    ], ids=["eigenvalues", "constants", "alpha-estimate", "constants-tail", "verify-theorem2",
            "export-function", "deficit-scan"])
    def test_refused(self, capsys, argv, what):
        assert run(argv, capsys) == (
            3, "", f"refused: {what}, outside the range of normal doubles\n")


class TestOutOfMemory:
    @pytest.mark.parametrize("argv", [
        ["export-function", "--N", "3", "--s", "2", "--profile", "gaussian", "--K", "100000"],
        ["deficit-scan", "--N", "3", "--s", "2", "--seed", "1", "--K", "100000"],
    ], ids=["export-function", "deficit-scan"])
    def test_failed_allocation_is_usage_error(self, capsys, monkeypatch, argv):
        # a 200,002-node rule asks for 298 GiB; nothing is really allocated
        # here, since with memory overcommit the process could be killed instead
        from sobstab import zonal

        def no_memory(off):
            raise MemoryError(f"Unable to allocate an array of {off.size + 1}^2 doubles")

        monkeypatch.setattr(zonal, "_first_components", no_memory)
        assert run(argv, capsys) == (
            2, "", "error: out of memory: Unable to allocate an array of 200002^2 doubles\n")


class TestEigenvaluesCommand:
    def test_csv(self, capsys):
        code, out, _ = run(["eigenvalues", "--N", "3", "--s", "2", "--kmax", "2",
                            "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,lambda,multiplicity"
        assert lines[1].startswith("0,0.75,1")
        assert lines[2].startswith("1,3.75,4")

    def test_negative_kmax_is_usage_error(self, capsys):
        code, out, err = run(["eigenvalues", "--N", "3", "--s", "2", "--kmax", "-1"], capsys)
        assert (code, out, err) == (2, "", "error: --kmax must be >= 0, got -1\n")


class TestTableBytes:
    @pytest.mark.parametrize("argv", sorted(TABLES))
    def test_exact_output(self, capsys, argv):
        assert run(argv.split(), capsys) == (0, TABLES[argv], "")


class TestScanCommands:
    SCAN_ARGS = ["--N", "3", "--s", "2", "--seed", "42",
                 "--n-normal", "4", "--n-random", "4", "--bubbles", "0.4,0.6"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["deficit-scan", *self.SCAN_ARGS, "--out", str(p1)], capsys)[0] == 0
        assert run(["deficit-scan", *self.SCAN_ARGS, "--out", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_schema_and_summary(self, tmp_path, capsys):
        path = tmp_path / "scan.jsonl"
        run(["deficit-scan", *self.SCAN_ARGS, "--out", str(path)], capsys)
        lines = [strict_json(l) for l in path.read_text().splitlines()]
        summary = lines[-1]
        members = lines[:-1]
        assert len(members) == summary["n_members"]
        assert summary["seed"] == 42
        assert 0 < summary["alpha_hat"] <= summary["local_constant"] + 0.05
        for rec in members:
            assert {"index", "family", "label", "skipped"} <= rec.keys()
            if not rec["skipped"]:
                assert rec["deficit"] >= -1e-9 * rec["norm_star_sq"]
                assert rec["distance"] ** 2 >= rec["deficit"] - 1e-9 * rec["norm_star_sq"]

    def test_empty_scan_is_usage_error(self, capsys):
        code, _, err = run(["deficit-scan", "--N", "3", "--s", "2", "--seed", "1",
                            "--n-normal", "0", "--n-random", "0", "--eps", "",
                            "--modes", "", "--bubbles", ""], capsys)
        assert code == 2
        assert "zero members" in err

    @pytest.mark.parametrize("degree, message", [
        ("1", "random normal-space members need random_max_degree >= 2, got 1"),
        ("-1", "random_max_degree must be >= 0, got -1"),
    ])
    def test_random_degree_below_the_normal_space(self, capsys, degree, message):
        code, out, err = run(["deficit-scan", "--N", "3", "--s", "2", "--seed", "1", "--K", "8",
                              f"--max-degree={degree}", "--modes", "", "--n-normal", "1",
                              "--n-random", "1"], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("pair", [["--N", "8", "--s", "3.3", "--seed", "4"],
                                      ["--N", "3", "--s", "2", "--seed", "1"]])
    def test_random_members_of_degree_zero_are_refused(self, capsys, pair):
        # these printed a ratio of roundoff (exit 0) or refused for an eps the scan lacks
        code, out, err = run(["deficit-scan", *pair, "--max-degree", "0", "--n-random", "3",
                              "--n-normal", "0", "--modes", "", "--bubbles", "0.5"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: random members need random_max_degree >= 1: of degree 0 they "
                       "are constants, which lie on the manifold\n")

    @pytest.mark.parametrize("flags, message", [
        # a rule of fewer than K + 1 nodes aliases degree K: at M = 10 a scan
        # would read a distance of 3.85 for the member at distance 0.1
        (["--M", "10", "--bubbles", "", "--n-normal", "1", "--n-random", "1", "--eps", "0.1"],
         "M=10 nodes cannot resolve degree K=64 (need M >= K+1)"),
        (["--K", "8", "--modes", "12"], "normal_modes exceed the random_max_degree/K window"),
        # a non-finite epsilon or a negative seed is refused before numpy sees it
        (["--eps", "nan"], "epsilon grid entries must be positive and finite"),
        (["--eps", "inf"], "epsilon grid entries must be positive and finite"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        # two members under one label: these printed both and exited 0
        (["--K", "8", "--eps", "0.1", "--n-normal", "0", "--n-random", "0", "--modes", "2,2",
          "--bubbles", "0.5"], "normal mode 2 is listed twice; each labels its members"),
        (["--K", "8", "--eps", "0.1", "--n-normal", "0", "--n-random", "0", "--modes", "2",
          "--bubbles", "0.5,0.50000001"],
         "bubble separations share the member label t0=0.5; labels keep six significant digits"),
        # a list entry that does not parse
        (["--eps", "0.1,x"], "bad numeric list '0.1,x': could not convert string to float: 'x'"),
        (["--modes", "2,y"],
         "bad integer list '2,y': invalid literal for int() with base 10: 'y'"),
    ])
    def test_unresolvable_scan_is_usage_error(self, capsys, flags, message):
        code, out, err = run(["deficit-scan", "--N", "3", "--s", "2", "--seed", "1", *flags],
                             capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_eps_values_sharing_a_label_are_refused(self, capsys):
        # members are labelled by eps to six digits, and the strict-gap check
        # matches labels: 0.0100000001 would be judged as the member at 0.01
        code, out, err = run(["deficit-scan", "--N", "3", "--s", "2", "--seed", "1", "--K", "8",
                              "--eps", "0.01,0.0100000001", "--n-normal", "0",
                              "--n-random", "0", "--bubbles", "", "--modes", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: epsilon grid entries share the member label eps=0.01; "
                       "labels keep six significant digits\n")

    @pytest.mark.parametrize("command", ["deficit-scan", "alpha-estimate"])
    def test_scan_flags_add_no_defaults(self, capsys, monkeypatch, tmp_path, command):
        # the CLI passes on only the flags given: ScanConfig alone holds the defaults
        from sobstab import deficit
        from sobstab._util import RefusalError
        from sobstab.deficit import ScanConfig

        given = vars(cli.build_parser().parse_args([command]))
        assert {key for key, value in given.items() if value is not None} == {"command"}
        seen = []

        def capture(p, cfg):
            seen.append(cfg)
            raise RefusalError("captured")

        monkeypatch.setattr(deficit, "run_scan", capture)
        config = tmp_path / "scan.cfg"
        config.write_text("eps=0.5\nK=32\n")
        base = [command, "--N", "3", "--s", "2", "--seed", "5"]
        for flags in ([], ["--K", "16"], ["--config", str(config)],
                      ["--config", str(config), "--K", "16"]):
            assert run([*base, *flags], capsys) == (3, "", "refused: captured\n")
        assert seen == [ScanConfig(seed=5), ScanConfig(seed=5, K=16),
                        ScanConfig(seed=5, K=32, eps_grid=(0.5,)),
                        ScanConfig(seed=5, K=16, eps_grid=(0.5,))]

    def test_scan_flags_name_every_config_field_once(self):
        from sobstab.deficit import ScanConfig

        named = sorted(field for _, field, *_ in cli._SCAN_FLAGS)
        assert named == sorted(name for name in ScanConfig._fields if name != "seed")

    def test_seed_required(self, capsys):
        code, _, err = run(["deficit-scan", "--N", "3", "--s", "2"], capsys)
        assert code == 2
        assert "seed" in err

    def test_zero_ratio_is_refused(self, capsys):
        # at eps = 1e-7 the deficit (~4/7 eps^2) is below the roundoff of ||u||_*^2 ~ 15
        args = ["--N", "3", "--s", "2", "--seed", "1", "--eps", "1e-7",
                "--n-normal", "5", "--n-random", "0", "--bubbles", "0.5"]
        for command in ("alpha-estimate", "deficit-scan"):
            code, out, err = run([command, *args], capsys)
            assert code == 3
            assert out == ""
            assert err.startswith("refused:")

    def test_all_on_manifold_scan_is_refused(self, capsys):
        # every member (eps = 1e-12) is skipped as on-manifold: a numerical
        # refusal, not a usage error
        code, out, err = run(["alpha-estimate", "--N", "3", "--s", "2", "--seed", "1",
                              "--eps", "1e-12", "--n-normal", "1", "--n-random", "0",
                              "--bubbles", ""], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("refused: scan produced no usable members")

    def test_strict_gap_break_is_refused(self):
        # König: for N >= 2 the e2 ratio lies strictly below local_constant
        # at small eps.  At (8, 3.3), eps = 1e-4 the d/Psi cancellation lifts
        # it above, and this scan used to exit 0 with alpha_hat 0.496384391486.
        # The ratio is roundoff there, and the 770-node rule's last bits
        # depend on the BLAS thread count, so the digits are those of the
        # CLI's one thread (0.496384391486 before |u|_q was taken at unit scale)
        env = python_env()
        for var in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "sobstab.cli", "deficit-scan", "--N", "8", "--s", "3.3",
             "--seed", "1", "--K", "384", "--eps", "1e-4", "--n-normal", "0", "--n-random", "0",
             "--bubbles", ""], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("refused: member local:e2:eps=0.0001: stability ratio "
                                      "0.496316172458 is not below local_constant 0.496240601504")

    @pytest.mark.parametrize("flags, reason", [
        # one overflowing member among finite ones used to print NaN and exit 0
        (["--eps", "1e300,0.1", "--n-normal", "0", "--n-random", "0", "--bubbles", "",
          "--modes", "2"], "member local:e2:eps=1e+300: norm_star_sq is inf, outside the range "
                           "of normal doubles\n"),
        (["--eps", "1e300", "--n-normal", "1", "--n-random", "0", "--bubbles", "",
          "--modes", ""], "member local:rand0:eps=1e+300: norm_star_sq is inf, outside the "
                          "range of normal doubles\n"),
        # |u|_q at q = 6e6 was refused as an overflow; at unit scale it is
        # finite, and the 18-node rule cannot resolve |u|^q, which the strict gap shows
        (["--s", "2.999999", "--K", "8", "--n-normal", "1", "--n-random", "1"],
         "member local:e2:eps=0.01: stability ratio 0.999896393334 is not below "
         "local_constant 0.74999984375, "),
    ], ids=["one-of-two", "every-member", "lq-norm"])
    def test_overflowing_member_is_refused(self, capsys, flags, reason):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["deficit-scan", "--N", "3", "--s", "2", "--seed", "1", *flags],
                                 capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"refused: {reason}")
        assert "Warning" not in err
        assert [str(w.message) for w in caught] == []

    def test_nan_deficit_is_a_sandwich_violation(self, capsys, monkeypatch):
        # the scan's one sandwich check sees the NaN, and the exit code follows it
        from sobstab import deficit
        from sobstab.deficit import DeficitReport

        report = DeficitReport(norm_star_sq=1.0, lq_norm=1.0, deficit=math.nan, distance=0.5,
                               nearest=None, ratio=0.5)
        monkeypatch.setattr(deficit, "_report", lambda *values: report)
        code, out, _ = run(["alpha-estimate", "--N", "3", "--s", "2", "--seed", "1", "--K", "8",
                            "--n-normal", "0", "--n-random", "1", "--bubbles", ""], capsys)
        assert code == 4
        assert strict_json(out)["alpha_hat"] == 0.5

    def test_summary_keys_in_order(self, capsys):
        # alpha-estimate prints the summary record; deficit-scan's last line extends it
        summary = ["alpha_hat", "local_constant", "n_members", "seed", "n_skipped"]
        code, out, _ = run(["alpha-estimate", *self.SCAN_ARGS], capsys)
        assert code == 0 and list(strict_json(out)) == summary
        code, out, _ = run(["deficit-scan", *self.SCAN_ARGS], capsys)
        assert code == 0
        assert list(strict_json(out.splitlines()[-1])) == [*summary, "families", "K", "M",
                                                           "t0_cap"]

    def test_alpha_estimate_summary_only(self, capsys):
        code, out, _ = run(["alpha-estimate", *self.SCAN_ARGS], capsys)
        assert code == 0
        doc = strict_json(out)
        assert set(doc) >= {"alpha_hat", "local_constant", "n_members", "seed"}


class TestMemberRecords:
    # cli._member_records writes every deficit-scan member record in one
    # pass; each line's bytes are json.dumps(round_floats(record)) of the
    # record as a dict

    @staticmethod
    def dict_line(index, family, label, report):
        from sobstab._util import round_floats

        record = {"index": index, "family": family, "label": label, "skipped": report is None}
        if report is not None:
            record.update({
                "norm_star_sq": report.norm_star_sq,
                "lq_norm": report.lq_norm,
                "deficit": report.deficit,
                "distance": report.distance,
                "nearest": None if report.nearest is None
                else {"c": report.nearest.c, "t0": report.nearest.t0},
                "ratio": report.ratio,
                "boundary_hit": report.boundary_hit,
            })
        return json.dumps(round_floats(record)) + "\n"

    def test_lines_equal_the_dict_recipe(self):
        from sobstab.conformal import ManifoldPoint
        from sobstab.deficit import DeficitReport

        def report(nearest=ManifoldPoint(0.731234567890123, -1e-9), **fields):
            values = dict(norm_star_sq=23.588816413612, lq_norm=1 / 3, deficit=2.1e-14,
                          distance=5.960464477539e-08, ratio=0.123456789012345678,
                          boundary_hit=False)
            values.update(fields)
            return DeficitReport(nearest=nearest, **values)

        inf, nan = math.inf, math.nan
        entries = [
            (0, "random", "random:0", None),
            (1, "local", "local:e2:eps=0.1", report()),
            (2, "local", "local:e3:eps=0.1", report(nearest=None)),
            (3, "bubble", "bubble:t0=0.5", report(deficit=nan, ratio=inf, distance=-0.0)),
            (4, "random", "random:4", report(norm_star_sq=inf, lq_norm=-inf, ratio=-0.0,
                                             nearest=ManifoldPoint(-2.5, -0.0))),
            (5, "bubble", "bubble:t0=1e+20", report(deficit=1e20, ratio=1e-300, lq_norm=5e-324)),
            (6, 'fam"ily\\', 'la"bel\\ \u00e9\u2013\U0001d400\n\t\x00', report()),
            (7, "random", "random:7", report(nearest=ManifoldPoint(1.0, 0.95), boundary_hit=True)),
            # integral texts, which print with '.0'
            (8, "random", "random:8", report(norm_star_sq=0.0, lq_norm=12345.0,
                                             deficit=99999999999.0, ratio=-3.0)),
            # '%.12g' writes 1e12 <= |x| < 1e16 with an exponent, repr in fixed notation
            (9, "random", "random:9", report(norm_star_sq=1e12, lq_norm=999999999999.5,
                                             deficit=123456789012345.0,
                                             distance=9999999999999998.0, ratio=1e16,
                                             nearest=ManifoldPoint(-1e15, 0.5))),
            # the switch to exponent notation below 1e-4, in both writers
            (10, "local", "local:e2:eps=1e-05", report(deficit=1e-4, distance=1e-5,
                                                      ratio=9.9999999999995e-5,
                                                      nearest=ManifoldPoint(1e-4, -1e-5))),
            # the smallest normal double, and subnormals, which keep fewer digits
            (11, "bubble", "bubble:t0=0.9", report(deficit=2.2250738585072014e-308,
                                                  distance=1e-310,
                                                  ratio=2.225073858507201e-308,
                                                  nearest=ManifoldPoint(1e-300, -1e-310))),
        ]
        # all of them in one call, as a scan writes them, and each alone
        assert cli._member_records(entries) == [self.dict_line(*e) for e in entries]
        for entry in entries:
            assert cli._member_records([entry]) == [self.dict_line(*entry)], entry[2]
        assert cli._member_records([]) == []

    def test_random_doubles_equal_the_dict_recipe(self):
        # seeded random 64-bit patterns: every exponent, NaN among them
        # (exponent bits all set) and subnormals (all clear); then integral
        # values, values of either sign over decimal exponents -20..20, and
        # subnormals of every size, down to those that keep one digit
        import numpy as np

        from sobstab.deficit import DeficitReport

        rng = np.random.default_rng(20260)
        patterns = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
        assert np.isnan(patterns).any() and (np.abs(patterns) < sys.float_info.min).any()
        scaled = rng.choice((-1.0, 1.0), 20_000) * 10.0 ** rng.uniform(-20, 20, 20_000)
        tiny = rng.random(5_000) * 2.0 ** rng.integers(-1073, -1021, 5_000)
        specials = [math.inf, -math.inf, math.nan, -0.0, 0.0]
        for numbers in (patterns, np.round(scaled[:5_000]), scaled, tiny):
            numbers = [*numbers.tolist(), *specials]  # five to a record
            entries = [(i, "random", f"random:{i}", DeficitReport(*numbers[i:i + 4], None,
                                                                  numbers[i + 4]))
                       for i in range(0, len(numbers), 5)]
            assert cli._member_records(entries) == [self.dict_line(*e) for e in entries]

    def test_scan_lines_equal_the_dict_recipe(self, capsys):
        # at the benchmark's four pairs; the on-manifold members (eps = 1e-12)
        # are skipped, so one scan writes both record shapes
        from sobstab.deficit import ScanConfig, run_scan

        for N, s in ((3, "2"), (2, "1"), (5, "0.5"), (8, "3.3")):
            argv = ["deficit-scan", "--N", str(N), "--s", s, "--seed", "3", "--n-normal", "4",
                    "--n-random", "4", "--eps", "1e-12,0.1"]
            code, out, _ = run(argv, capsys)
            assert code == 0
            result = run_scan(SobolevParams(N, float(s)),
                              ScanConfig(seed=3, n_normal=4, n_random=4, eps_grid=(1e-12, 0.1)))
            assert result.n_skipped > 0
            lines = [self.dict_line(*entry) for entry in result.entries]
            assert out.splitlines(keepends=True)[:-1] == lines, (N, s)


class TestVerifyCommand:
    def test_default_family_passes(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run(["verify-theorem2", "--N", "3", "--s", "2",
                          "--out", str(path)], capsys)
        assert code == 0
        doc = strict_json(path.read_text())
        assert list(doc) == ["N", "s", "rho", "C1", "C2", "C0", "C", "cases"]
        assert len(doc["cases"]) == 3
        for case in doc["cases"]:
            assert list(case) == ["profile", "lhs", "rhs", "margin", "weak_norm",
                                  "omega_measure"]
            assert case["margin"] > 0

    def test_under_resolved_refusal(self, capsys):
        code, _, err = run(["verify-theorem2", "--N", "3", "--s", "2", "--K", "64"],
                           capsys)
        assert code == 3
        assert "increase K" in err

    @pytest.mark.filterwarnings("error")
    def test_underflowing_pullback_is_refused(self, capsys):
        # ||v||_*^2 of the first pullback is below the doubles (lhs would print
        # as 0.0); the second has an lhs of about 6.4e-306 and a subnormal rhs
        for profile, side in (("bump:0.62,500", "norm_star_sq is 0.0"),
                              ("bump:0.62,350", "rhs is 2.77339433752598e-309")):
            code, out, err = run(["verify-theorem2", "--N", "3", "--s", "2",
                                  "--profiles", profile], capsys)
            assert (code, out) == (3, "")
            assert err == (f"refused: profile {profile}: {side}, outside the range of "
                           "normal doubles\n")

    @pytest.mark.filterwarnings("error")
    def test_small_pullback_keeps_its_lhs(self, capsys):
        # |u|^6 underflowed at every node, and lhs printed as ||u||_*^2,
        # 5.61e-262, with exit 0; later the underflow was refused
        code, out, err = run(["verify-theorem2", "--N", "3", "--s", "2",
                              "--profiles", "bump:0.62,300"], capsys)
        assert (code, err) == (0, "")
        (case,) = strict_json(out)["cases"]
        assert case["lhs"] == pytest.approx(1.85696500937e-262, rel=1e-9)
        assert case["margin"] > 0

    def test_zero_cells_is_usage_error(self, capsys):
        # no cell would give a weak norm of 0 and a margin equal to the lhs
        code, out, err = run(["verify-theorem2", "--N", "3", "--s", "2", "--cells", "0"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: the weak norm needs at least one radial cell, got 0\n"

    def test_negative_degree_is_usage_error(self, capsys):
        code, out, err = run(["verify-theorem2", "--N", "3", "--s", "2", "--K", "-1"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: truncation degree K must be >= 0, got -1\n"

    def test_empty_profile_list_is_usage_error(self, capsys):
        assert run(["verify-theorem2", "--N", "3", "--s", "2", "--profiles", ";"], capsys) == (
            2, "", "error: no profiles selected\n")

    def test_custom_profile_list(self, capsys):
        code, out, _ = run(["verify-theorem2", "--N", "3", "--s", "2",
                            "--profiles", "bump:0.62035,2;bump:0.62035,4"], capsys)
        assert code == 0
        assert len(strict_json(out)["cases"]) == 2

    def test_every_profile_is_parsed_before_any_verification(self, capsys, monkeypatch):
        # a malformed entry after valid ones was refused only after their verifications
        from sobstab import weaknorm

        calls = []
        monkeypatch.setattr(weaknorm, "verify_theorem2", lambda *args, **kw: calls.append(args))
        assert run(["verify-theorem2", "--N", "2", "--s", "1", "--K", "512", "--profiles",
                    "bump:0.62,2;bump:0.62,3;gaussian:0"], capsys) == (
            2, "", "error: gaussian width must be positive\n")
        assert calls == []

    def test_flags_add_no_defaults(self, capsys, monkeypatch):
        # the CLI passes on only the flags given: verify_theorem2 alone holds the defaults
        from sobstab import weaknorm
        from sobstab._util import RefusalError

        given = vars(cli.build_parser().parse_args(["verify-theorem2"]))
        assert {key for key, value in given.items() if value is not None} == {"command"}
        seen = []

        def capture(profile, **kwargs):
            seen.append(kwargs)
            raise RefusalError("captured")

        monkeypatch.setattr(weaknorm, "verify_theorem2", capture)
        base = ["verify-theorem2", "--N", "3", "--s", "2"]
        for flags in ([], ["--K", "16"], ["--cells", "8"], ["--cells", "8", "--K", "16"]):
            assert run([*base, *flags], capsys) == (3, "", "refused: captured\n")
        assert seen == [{}, {"K": 16}, {"n_cells": 8}, {"K": 16, "n_cells": 8}]

    def test_margin_violation_exit_code(self, capsys, monkeypatch):
        # a (synthetic) negative margin must surface as an invariant violation
        from sobstab import weaknorm
        from sobstab.weaknorm import Theorem2Case

        def fake_verify(profile, K=0, n_cells=0):
            return Theorem2Case(profile="fake", lhs=1.0, rhs=2.0, margin=-1.0,
                                weak=1.0, omega_measure=1.0,
                                norm_star_sq=1.0, lq_norm=1.0)

        monkeypatch.setattr(weaknorm, "verify_theorem2", fake_verify)
        code, _, _ = run(["verify-theorem2", "--N", "3", "--s", "2"], capsys)
        assert code == 4


class TestExportCommand:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "fn.json"
        code, _, _ = run(["export-function", "--N", "3", "--s", "2",
                          "--profile", "extremizer:1", "--K", "16",
                          "--out", str(path)], capsys)
        assert code == 0
        doc = strict_json(path.read_text())
        assert list(doc.keys()) == ["N", "s", "K", "coeffs"]
        u = ZonalFunction(SobolevParams(doc["N"], doc["s"]), doc["coeffs"])
        assert u.K == doc["K"] == 16
        # transported extremizer is the constant 2^(-(N-s)/2)
        assert u.coeffs[0] == pytest.approx(
            2 ** (-0.5) * math.sqrt(2 * math.pi**2), rel=1e-10)

    def test_unknown_profile(self, capsys):
        code, _, err = run(["export-function", "--N", "3", "--s", "2",
                            "--profile", "sombrero"], capsys)
        assert code == 2
        assert "unknown profile" in err

    def test_profile_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "export.cfg"
        cfg.write_text("profile=gaussian:1\n")
        argv = ["export-function", "--N", "3", "--s", "2", "--K", "8"]
        flag = run(argv + ["--profile", "gaussian:1"], capsys)
        assert flag[0] == 0 and flag[1]
        assert run(argv + ["--config", str(cfg)], capsys) == flag

    def test_missing_profile_is_usage_error(self, capsys):
        code, out, err = run(["export-function", "--N", "3", "--s", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --profile is required (flag or config file)\n"

    # below K + 1 nodes the fit check refuses first; one node fits K = 0, and the rule refuses it
    @pytest.mark.parametrize("K, M, message", [
        ("4", "0", "M=0 nodes cannot resolve degree K=4 (need M >= K+1)"),
        ("4", "1", "M=1 nodes cannot resolve degree K=4 (need M >= K+1)"),
        ("0", "1", "rule size M must be >= 2, got 1"),
    ], ids=["0", "1", "K0-M1"])
    def test_rule_below_two_nodes_is_usage_error(self, capsys, K, M, message):
        code, out, err = run(["export-function", "--N", "3", "--s", "2", "--K", K,
                              "--profile", "gaussian", "--M", M], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_unresolvable_degree_is_refused_before_the_rule(self, capsys, monkeypatch):
        # the rule of 500 nodes was built, then its basis refused degree 600
        from sobstab import zonal

        built = []
        monkeypatch.setattr(zonal, "gauss_jacobi_rule", lambda *args: built.append(args))
        assert run(["export-function", "--N", "3", "--s", "2", "--K", "600",
                    "--profile", "gaussian", "--M", "500"], capsys) == (
            2, "", "error: M=500 nodes cannot resolve degree K=600 (need M >= K+1)\n")
        assert built == []

    @pytest.mark.parametrize("rule_size", [[], ["--M", "8"]])
    def test_negative_degree_is_usage_error(self, capsys, rule_size):
        code, out, err = run(["export-function", "--N", "3", "--s", "2", "--K", "-1",
                              "--profile", "gaussian", *rule_size], capsys)
        assert (code, out) == (2, "")
        assert err == "error: truncation degree K must be >= 0, got -1\n"


class TestUnresolvableProfiles:
    # Each printed every number as 0.0 and exited 0, reported a false
    # violation (exit 4), or failed with a traceback or a usage error.
    @pytest.mark.parametrize("argv, reason", [
        # the 770-node rule's largest node sits at r = 0.00204: lhs 0.0, margin < 0, exit 4
        (["verify-theorem2", "--N", "3", "--s", "2", "--profiles", "bump:0.001,1"],
         "profile bump:0.001,1 is 0.0 at all 770 quadrature nodes"),
        (["verify-theorem2", "--N", "8", "--s", "3.3", "--profiles", "bump:0.001,1"],
         "profile bump:0.001,1 is 0.0 at all 770 quadrature nodes"),
        (["verify-theorem2", "--N", "3", "--s", "2", "--profiles", "bump:1,1e300"],
         "profile bump:1,1e+300 is 0.0 at all 770 quadrature nodes"),
        # a usage error (cell measures must be positive) with a numpy warning
        (["verify-theorem2", "--N", "3", "--s", "2", "--profiles", "bump:1e-300,1"],
         "profile bump:1e-300,1 is 0.0 at all 770 quadrature nodes"),
        # (mu r)^2 overflows at every node
        (["verify-theorem2", "--N", "3", "--s", "2", "--profiles",
          "mollified_extremizer:1e150,1"],
         "profile mollified_extremizer:1e+150,1 is 0.0 at all 770 quadrature nodes"),
        (["export-function", "--N", "3", "--s", "2", "--K", "16", "--profile", "gaussian:1e300"],
         "profile gaussian:1e+300 is 0.0 at all 34 quadrature nodes"),
        # mu = scale^(2/(N-s)) overflowed (OverflowError) or was 0.0
        (["export-function", "--N", "3", "--s", "2", "--K", "16", "--profile", "extremizer:1e200"],
         "the dilation scale^(2/(N-s)) of extremizer:1e+200 is inf, "),
        (["verify-theorem2", "--N", "3", "--s", "2", "--profiles",
          "mollified_extremizer:1e200,1"],
         "the dilation scale^(2/(N-s)) of extremizer:1e+200 is inf, "),
        (["export-function", "--N", "3", "--s", "2", "--K", "16", "--profile",
          "extremizer:1e-320"],
         "the dilation scale^(2/(N-s)) of extremizer:9.99989e-321 is 0.0, "),
        # a subnormal scale whose mu is normal printed subnormal coefficients with exit 0
        (["export-function", "--N", "8", "--s", "3.3", "--K", "4", "--profile",
          "extremizer:1e-320"],
         "the scale of extremizer:9.99989e-321 is 1e-320, outside the range of normal doubles"),
    ])
    def test_refused(self, capsys, argv, reason):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"refused: {reason}") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# scan defaults\nN=3\ns=2\nseed=9\nn-normal=2\n"
                       "n-random=1\nbubbles=0.5\n")
        code, out, _ = run(["alpha-estimate", "--config", str(cfg)], capsys)
        assert code == 0
        assert strict_json(out)["seed"] == 9
        code, out, _ = run(["alpha-estimate", "--config", str(cfg), "--seed", "11"],
                           capsys)
        assert strict_json(out)["seed"] == 11

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value pair\n")
        code, _, err = run(["alpha-estimate", "--config", str(cfg), "--N", "3",
                            "--s", "2", "--seed", "1"], capsys)
        assert code == 2
        assert "key=value" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("kmax=3\nkmaxx=5\n")
        code, out, err = run(["eigenvalues", "--N", "3", "--s", "2", "--config", str(cfg)],
                             capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}: unknown config key 'kmaxx'\n"

    def test_config_key_config_is_refused(self, tmp_path, capsys):
        # a file cannot name another file, so the key names no option
        cfg = tmp_path / "nested.cfg"
        cfg.write_text(f"config={tmp_path / 'other.cfg'}\nkmax=2\n")
        code, out, err = run(["constants", "--N", "3", "--s", "2", "--config", str(cfg)],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}: unknown config key 'config'\n"

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, out, err = run(["eigenvalues", "--N", "3", "--s", "2", "--config",
                              str(missing)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {missing}: cannot read config file (No such file or directory)\n"

    @pytest.mark.parametrize("line, message", [
        ("format=xml", "argument --format: invalid choice: 'xml'"),
        ("kmax=2.5", "argument --kmax: invalid int value: '2.5'"),
    ])
    def test_config_values_pass_the_flag_checks(self, tmp_path, capsys, line, message):
        # a config value is refused exactly as the same value typed as a flag
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(["eigenvalues", "--N", "3", "--s", "2", "--config", str(cfg)],
                             capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: sobstab eigenvalues ")
        assert f"sobstab eigenvalues: error: {message}" in err
        assert err.endswith(f"note: {cfg} supplies --{line}\n")
        code, out, flag_err = run(["eigenvalues", "--N", "3", "--s", "2", "--" + line], capsys)
        assert (code, out) == (2, "")
        assert err == flag_err + f"note: {cfg} supplies --{line}\n"

    def test_help_returns_zero(self, capsys):
        code, out, err = run(["eigenvalues", "--help"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: sobstab eigenvalues ")


class TestSharedParser:
    # main builds its parser once per process; no call may change it.
    ARGV = ["eigenvalues", "--N", "3", "--s", "2"]

    def test_parser_is_built_once(self, capsys):
        run(self.ARGV, capsys)
        built = cli._parser.cache_info().misses
        run(self.ARGV, capsys)
        run(self.ARGV + ["--kmax", "2"], capsys)
        assert built == cli._parser.cache_info().misses == 1
        assert cli._parser() is cli._parser()

    def test_config_call_leaves_nothing_behind(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=3\nformat=csv\nseed=4\n")
        before = run(self.ARGV, capsys)
        configured = run(self.ARGV + ["--config", str(cfg)], capsys)
        assert configured[0] == 0 and configured[1].startswith("k,lambda,multiplicity")
        assert run(self.ARGV, capsys) == before
        assert before[0] == 0 and len(before[1].splitlines()) == 11

    def test_replaced_handler_runs(self, capsys, monkeypatch):
        run(self.ARGV, capsys)
        monkeypatch.setattr(cli, "cmd_eigenvalues", lambda args: 7 if args.kmax == 10 else 8)
        assert main(self.ARGV) == 7
        assert main(self.ARGV + ["--kmax", "1"]) == 8


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sobstab.cli", "eigenvalues",
             "--N", "2", "--s", "0.5", "--kmax", "1", "--format", "csv"],
            capture_output=True, text=True, env=python_env())
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,lambda,multiplicity")

    def test_cross_process_scan_determinism(self):
        # byte-identical output across fresh interpreter processes
        args = [sys.executable, "-m", "sobstab.cli", "deficit-scan",
                "--N", "2", "--s", "0.5", "--seed", "31",
                "--n-normal", "2", "--n-random", "2", "--bubbles", "0.5"]
        first = subprocess.run(args, capture_output=True, env=python_env())
        second = subprocess.run(args, capture_output=True, env=python_env())
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout and len(first.stdout) > 0


class TestCommandImports:
    # A CLI call loads the numerical modules of its command only, never
    # dataclasses (whose classes cost an exec at import, and which loads
    # inspect), and csv only to write --format csv.  numpy is the only
    # runtime dependency, so no call loads scipy, nor numpy.polynomial (the
    # Gauss-Legendre nodes come from the package's own Gauss-Jacobi rule).
    BASE = {"sobstab._util", "sobstab.specfun", "sobstab.cli"}
    NUMERIC = {"numpy", "sobstab.conformal", "sobstab.zonal"}
    SCAN = ["--N", "3", "--s", "2", "--seed", "1", "--K", "16", "--n-normal", "1",
            "--n-random", "1", "--bubbles", "0.5"]

    @pytest.mark.parametrize("argv, extra", [
        (None, set()),
        (["--help"], set()),
        (["eigenvalues", "--N", "3", "--s", "2"], set()),
        # the weak-norm constants are closed forms in specfun
        (["constants", "--N", "3", "--s", "2"], set()),
        (["constants", "--N", "3", "--s", "2", "--format", "json"], set()),
        (["constants", "--N", "3", "--s", "2", "--format", "csv"], {"csv"}),
        (["eigenvalues", "--N", "3", "--s", "2", "--format", "csv"], {"csv"}),
        (["verify-theorem2", "--N", "3", "--s", "2"], NUMERIC | {"sobstab.weaknorm"}),
        (["export-function", "--N", "3", "--s", "2", "--K", "16", "--profile", "gaussian"],
         NUMERIC),
        (["deficit-scan", *SCAN], NUMERIC | {"sobstab.deficit"}),
        (["alpha-estimate", *SCAN], NUMERIC | {"sobstab.deficit"}),
    ], ids=["import", "help", "eigenvalues", "constants", "constants-json", "constants-csv",
            "eigenvalues-csv", "verify-theorem2", "export-function", "deficit-scan",
            "alpha-estimate"])
    def test_loaded_modules(self, argv, extra):
        code = "import contextlib, io, sys\nfrom sobstab.cli import main\n"
        if argv is not None:
            code += ("with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    assert main({argv!r}) == 0\n")
        code += ("print(' '.join(m for m in sys.modules if m in ('numpy', 'dataclasses', 'csv', "
                 "'scipy') or m.startswith(('sobstab.', 'scipy.', 'numpy.polynomial'))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) == self.BASE | extra


class TestBlasThreads:
    # Records OPENBLAS_NUM_THREADS at the moment numpy is first imported,
    # runs the CLI module as __main__, then prints what it saw.
    PROBE = (
        "import os, runpy, sys\n"
        "seen = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Watch())\n"
        "sys.argv = ['sobstab', 'export-function', '--N', '2', '--s', '1', '--K', '2',\n"
        "            '--profile', 'gaussian']\n"
        "try:\n"
        "    runpy.run_module({module!r}, run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(repr(seen))\n"
    )
    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def numpy_saw(self, module: str, **env) -> list:
        clean = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        proc = subprocess.run([sys.executable, "-c", self.PROBE.format(module=module)],
                              capture_output=True, text=True, env=python_env({**clean, **env}))
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("module", ["sobstab.cli", "sobstab"])
    def test_command_loads_numpy_with_one_blas_thread(self, module):
        assert self.numpy_saw(module) == ["1"]

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_thread_count_from_environment_wins(self, var):
        expected = "3" if var == "OPENBLAS_NUM_THREADS" else None
        assert self.numpy_saw("sobstab.cli", **{var: "3"}) == [expected]

    def test_library_import_leaves_environment_alone(self):
        code = ("import os, sys, contextlib, io\nfrom sobstab.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['eigenvalues', '--N', '3', '--s', '2']) == 0\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        clean = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=python_env(clean))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"


class TestPackageImport:
    def test_package_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sobstab\nprint('numpy' in sys.modules)"],
            capture_output=True, text=True, env=python_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_names_load_on_first_use(self):
        import sobstab
        from sobstab import specfun

        assert sobstab.sharp_constant is specfun.sharp_constant
        assert sobstab.weaknorm.compute_constants is sobstab.compute_constants
        assert set(sobstab.__all__) <= set(dir(sobstab))
        with pytest.raises(AttributeError):
            sobstab.no_such_name

    def test_dunder_probe_imports_nothing(self):
        code = ("import sys, sobstab\nbefore = set(sys.modules)\n"
                "assert not hasattr(sobstab, '__wrapped__')\nprint(set(sys.modules) - before)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "set()"

    def test_readme_quick_tour_runs(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
        proc = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("5.47790408953")


class TestPackageNamespace:
    # A package name is the first of that name in these modules' __all__;
    # a submodule name is the submodule.
    MODULES = ("specfun", "zonal", "conformal", "deficit", "weaknorm")
    SUBMODULES = (*MODULES, "cli")

    @pytest.mark.parametrize("module", MODULES)
    def test_module_names_are_package_names(self, module):
        import sobstab

        mod = importlib.import_module(f"sobstab.{module}")
        names = [name for name in mod.__all__ if name not in self.SUBMODULES]
        assert names
        for name in names:
            assert getattr(sobstab, name) is getattr(mod, name), name

    def test_package_names_are_the_union(self):
        import sobstab

        union = {name for module in self.MODULES
                 for name in importlib.import_module(f"sobstab.{module}").__all__}
        assert sorted(union - set(self.SUBMODULES)) == sobstab.__all__

    def test_public_names_are_pinned(self):
        # a name added to or dropped from the package shows up here as a diff
        import sobstab

        assert sobstab.__all__ == [
            "DeficitReport", "ManifoldPoint", "OnManifoldError", "PROFILE_GRAMMAR",
            "QuadratureRule", "RadialFunction", "ScanConfig", "ScanResult", "SobolevParams",
            "T0_CAP", "Theorem2Case", "TruncationError", "WeakNormConstants", "ZonalFunction",
            "analyze", "ball_volume", "basis_function", "bump_profile", "compute_constants",
            "constant", "default_rule", "distance", "eigenvalue", "extremizer_profile",
            "extremizer_weak_norm", "gauss_jacobi_rule", "gaussian_profile", "lambdas",
            "local_constant", "manifold_samples", "mollified_extremizer_profile",
            "multiplicity", "norm_lp", "norm_star", "parse_profile", "pullback_to_sphere",
            "radial_cells", "run_scan", "scan_members", "sharp_constant", "sphere_area",
            "stability_ratio", "unit_ball_radius", "verify_theorem2", "weak_norm",
        ]

    @pytest.mark.parametrize("name, module", [("PROFILE_GRAMMAR", "conformal")])
    def test_name_exported_twice_is_one_object(self, name, module):
        import sobstab
        from sobstab import _util

        mod = importlib.import_module(f"sobstab.{module}")
        assert name in _util.__all__ and name in mod.__all__
        assert getattr(sobstab, name) is getattr(mod, name) is getattr(_util, name)

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_names_are_modules(self, name):
        import sobstab

        assert getattr(sobstab, name) is importlib.import_module(f"sobstab.{name}")
        assert name not in sobstab.__all__
