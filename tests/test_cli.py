"""Command-line contract tests: exit codes, output formats, reproducibility."""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from nncost import bayesopt, search
from nncost.cli import build_parser, main


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "name": "demo",
        "layers": [
            {"type": "dense", "n_n": 10, "n_i": 5, "activation": "relu"},
            {"type": "dense", "n_n": 3, "n_i": 10, "activation": "linear"},
        ],
    }))
    return str(path)


@pytest.fixture
def esn_file(tmp_path):
    path = tmp_path / "esn.json"
    path.write_text(json.dumps({
        "name": "esn",
        "layers": [{"type": "esn", "n_i": 2, "N_r": 8, "s_p": 0.5, "n_o": 1,
                    "n_s": 4, "leak": 0.8}],
    }))
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "dimensions": [{"name": "res", "kind": "int", "low": 2, "high": 16}],
        "template": {"name": "s", "layers": [
            {"type": "esn", "n_i": 2, "N_r": "$res", "s_p": 0.5, "n_o": 1,
             "n_s": 4, "leak": 0.8}]},
    }))
    return str(path)


@pytest.fixture
def task_file(tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"taps": [0.8, 0.4], "noise_std": 0.05,
                                "n_samples": 60, "seed": 3}))
    return str(path)


def _record(monkeypatch, module, name):
    """Wrap ``module.name`` and keep every value it returns."""
    returned = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, wrapper)
    return returned


class TestEstimate:
    def test_csv_layout(self, net_file, capsys):
        assert main(["estimate", net_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "layer_index,layer_type,rm,bop,nabs"
        assert len(lines) == 4 and lines[-1].startswith("TOTAL")

    def test_pot_nabs_strictly_below_uniform(self, net_file, capsys):
        main(["estimate", net_file, "--scheme", "pot", "--format", "json"])
        pot = json.loads(capsys.readouterr().out)
        main(["estimate", net_file, "--scheme", "uniform", "--format",
              "json"])
        uni = json.loads(capsys.readouterr().out)
        assert pot["totals"]["nabs"] < uni["totals"]["nabs"]
        assert pot["totals"]["rm"] == uni["totals"]["rm"]

    def test_missing_file_exit_2(self, capsys):
        assert main(["estimate", "does-not-exist.json"]) == 2

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "layers": [
            {"type": "dense", "n_n": 0, "n_i": 1}]}))
        assert main(["estimate", str(bad)]) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--scheme", "foo"], "--scheme foo at --bw 8"),
        (["--scheme", "apot:x"], "--scheme apot:x at --bw 8"),
        (["--scheme", "apot:9"], "--scheme apot:9 at --bw 8"),
        (["--scheme", "apotgarbage"], "--scheme apotgarbage at --bw 8"),
        (["--bw", "1", "--scheme", "pot"], "--scheme pot at --bw 1"),
        (["--bw", "0"], "--bw 0"),
        (["--bw", "65"], "--bw 65"),
        (["--bi", "0"], "--bi 0"),
        (["--ba", "-3"], "--ba -3"),
    ])
    def test_bad_flag_exit_2(self, net_file, flags, named, capsys):
        assert main(["estimate", net_file, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")

    def test_output_file(self, net_file, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["estimate", net_file, "-o", str(out)]) == 0
        assert out.read_text().startswith("layer_index")

    @pytest.mark.parametrize("target, reason", [
        ("missing/x.csv", "No such file or directory"),
        ("existing/", "Not a directory"),
        ("existing", "Is a directory"),
    ])
    def test_unwritable_output_exit_2(self, net_file, tmp_path, capsys,
                                      target, reason):
        (tmp_path / "existing").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        out = f"{tmp_path}/{target}"
        assert main(["estimate", net_file, "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list((tmp_path / "existing").iterdir()) == []


class TestValidate:
    def test_clean_network_exit_0(self, net_file, capsys):
        assert main(["validate", net_file]) == 0
        record = json.loads(capsys.readouterr().out)
        assert all(e["delta"] == 0 for e in record["per_layer"])

    def test_esn_feedback_exit_3(self, esn_file, capsys):
        assert main(["validate", esn_file, "--esn-feedback"]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["per_layer"][0]["delta"] == 4 * 8 * 1

    def test_deterministic_under_seed(self, esn_file, capsys):
        main(["validate", esn_file, "--seed", "11"])
        first = capsys.readouterr().out
        main(["validate", esn_file, "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_fixed_mode(self, net_file, capsys):
        assert main(["validate", net_file, "--mode", "fixed"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mode"] == "fixed"
        assert record["overflow_count"] == 0

    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_zero_width_convolution_exit_2(self, command, tmp_path, capsys):
        """A convolution with no kernel placement is an input error for
        both commands: estimate finds it in validation, validate when the
        audit runs the layer."""
        path = tmp_path / "conv.json"
        path.write_text(json.dumps({"name": "c", "layers": [
            {"type": "conv1d", "n_f": 1, "n_i": 1, "n_k": 5, "n_s": 5,
             "dilation": 2}]}))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(
            "Conv1D(n_f=1, n_i=1, n_k=5, n_s=5, padding=0, dilation=2, "
            "stride=1, activation='tanh') emits no features\n")


class TestSearch:
    def test_writes_history_and_exit_0(self, space_file, task_file, tmp_path,
                                       capsys):
        out = tmp_path / "hist.csv"
        code = main(["search", space_file, task_file, "--iters", "2",
                     "--init", "2", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("iteration,theta_res,score")
        assert len(lines) == 1 + 4

    def test_zero_budget_exit_4(self, space_file, task_file):
        assert main(["search", space_file, task_file, "--iters", "1",
                     "--init", "1", "--budget-nabs", "0"]) == 4

    @pytest.mark.parametrize("bad", [
        {"name": "h", "kind": "int", "low": 8, "high": 1},
        {"name": "h", "kind": "integer", "low": 1, "high": 8},
        {"name": "h", "kind": "float", "low": 0.0, "high": 1.0, "log": True},
        {"name": "h", "kind": "cat"},
        {"name": "h", "kind": "int", "low": "1", "high": 8},
        {"name": "h", "kind": "int", "low": 1, "high": 2 ** 60},
    ])
    def test_malformed_dimension_exit_2(self, bad, task_file, tmp_path,
                                        capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "dimensions": [{"name": "w", "kind": "int", "low": 1, "high": 4},
                           bad],
            "template": {"name": "s", "layers": [
                {"type": "dense", "n_n": "$h", "n_i": "$w"}]}}))
        assert main(["search", str(path), task_file]) == 2
        assert "error: dimensions[1]: " in capsys.readouterr().err

    def test_missing_dimension_field_exit_2(self, task_file, tmp_path,
                                            capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "dimensions": [{"name": "h", "low": 1, "high": 4}],
            "template": {"name": "s", "layers": [
                {"type": "dense", "n_n": "$h", "n_i": 1}]}}))
        assert main(["sweep", str(path), task_file, "--budgets", "10"]) == 2
        assert "error: dimensions[0].kind: missing field" in (
            capsys.readouterr().err)


    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("extra, path", [
        ({"scheme": "foo"}, "scheme"),
        ({"bits": {"b_w": 0}}, "bits.b_w"),
        ({"bits": {"b_i": 65}}, "bits.b_i"),
        ({"constraint": {"metric": "xyz"}}, "constraint.metric"),
    ])
    def test_malformed_space_field_exit_2(self, command, extra, path,
                                          task_file, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "dimensions": [{"name": "h", "kind": "int", "low": 1,
                            "high": 4}],
            "template": {"name": "s", "layers": [
                {"type": "dense", "n_n": "$h", "n_i": 1}]},
            **extra}))
        argv = [command, str(space), task_file]
        if command == "sweep":
            argv += ["--budgets", "10"]
        assert main(argv) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("dimension", [
        {"name": "h", "kind": "float", "low": 0.5, "high": 4.0,
         "log": "false"},
        {"name": "h", "kind": "int", "low": 1, "high": 4, "log": True},
    ], ids=["string", "int"])
    def test_bad_log_exit_2(self, command, dimension, task_file, tmp_path,
                            capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "dimensions": [{"name": "w", "kind": "int", "low": 1,
                            "high": 4}, dimension],
            "template": {"name": "s", "layers": [
                {"type": "dense", "n_n": 2, "n_i": "$w"}]}}))
        argv = [command, str(space), task_file]
        if command == "sweep":
            argv += ["--budgets", "10"]
        assert main(argv) == 2
        assert "error: dimensions[1]: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_scores_print_to_6_significant_digits(
            self, command, space_file, task_file, monkeypatch, capsys):
        # The CSV's score column and the stderr best-score line print
        # every score to 6 significant digits; the trials and sweep points
        # keep full precision.
        runs = _record(monkeypatch, bayesopt, "bo_optimize")
        sweeps = _record(monkeypatch, search, "complexity_sweep")
        argv = [command, space_file, task_file, "--iters", "2", "--init", "2"]
        if command == "sweep":
            argv += ["--budgets", "30000,900000"]

        def printed():
            """(score, printed text) pairs: CSV rows, then stderr's best."""
            assert main(argv) == 0
            out, err = capsys.readouterr()
            rows = list(csv.DictReader(io.StringIO(out)))
            if command == "search":
                best, history = runs[-1]
                scores = [t.score for t in history] + [best.score]
                texts = [row["score"] for row in rows]
            else:
                scores = [p.best_score for p in sweeps[-1].points]
                scores.append(max(scores))
                texts = [row["best_score"] for row in rows]
            texts.append(re.search(r"score (\S+) at ", err)[1])
            assert len(texts) == len(scores)
            return list(zip(scores, texts))

        for score, text in printed():
            digits = text.lstrip("-").split("e")[0].replace(".", "")
            assert len(digits.lstrip("0")) <= 6
            half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(score))) - 5)
            assert abs(float(text) - score) <= half_unit

        monkeypatch.setattr(search, "kfold_score", lambda *a, **k: 0.1 + 0.2)
        for score, text in printed():
            assert score == 0.1 + 0.2 != 0.3
            assert text == "0.3"


class TestSweep:
    def test_byte_identical_reruns(self, space_file, task_file, tmp_path):
        args = ["sweep", space_file, task_file, "--budgets", "30000,900000",
                "--iters", "2", "--init", "2", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_columns(self, space_file, task_file, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", space_file, task_file, "--budgets", "900000",
              "--iters", "1", "--init", "1", "-o", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == ("budget,metric,best_score,best_theta_json,"
                          "rm,bop,nabs")

    def test_zero_budget_exit_4(self, space_file, task_file):
        assert main(["sweep", space_file, task_file, "--budgets", "0",
                     "--iters", "1", "--init", "1"]) == 4

    def test_bad_budgets_exit_2(self, space_file, task_file):
        assert main(["sweep", space_file, task_file, "--budgets", "a,b"]) == 2


TASK = {"taps": [0.8, 0.4], "noise_std": 0.05, "n_samples": 60, "seed": 3}


def _argv(command, space, task, *extra):
    argv = [command, str(space), str(task), *extra]
    return argv + ["--budgets", "900000"] if command == "sweep" else argv


class TestInputErrors:
    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("field", list(TASK))
    def test_missing_task_field_exit_2(self, command, field, space_file,
                                       tmp_path, capsys):
        task = tmp_path / "task.json"
        task.write_text(json.dumps({k: v for k, v in TASK.items()
                                    if k != field}))
        assert main(_argv(command, space_file, task)) == 2
        assert f"error: {field}: missing field" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("taps", []), ("taps", [1.0, "a"]), ("taps", 0.5),
        ("noise_std", -0.1), ("noise_std", "0.1"), ("n_samples", 2.5),
        ("n_samples", 0), ("seed", -1), ("seed", True),
        ("taps", [float("nan")]), ("taps", [1.0, float("inf")]),
        ("taps", [float("-inf")]), ("noise_std", float("inf")),
    ])
    def test_bad_task_field_exit_2(self, field, value, space_file, tmp_path,
                                   capsys):
        task = tmp_path / "task.json"
        task.write_text(json.dumps({**TASK, field: value}))
        assert main(_argv("search", space_file, task)) == 2
        assert f"error: {field}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("field, value, what", [
        ("taps", [1e308, 1e308], "the filtered symbols"),
        ("noise_std", 1e308, "the received stream"),
    ], ids=["taps", "noise_std"])
    def test_overflowing_stream_exit_2(self, command, field, value, what,
                                       space_file, tmp_path, capsys):
        """Finite fields whose received stream overflows: an input error,
        with no numpy warning on stderr."""
        task = tmp_path / "task.json"
        task.write_text(json.dumps({**TASK, field: value}))
        assert main(_argv(command, space_file, task)) == 2
        assert capsys.readouterr().err == (
            f"error: {field}: must keep {what} finite\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("field", ["dimensions", "template"])
    def test_missing_space_field_exit_2(self, command, field, space_file,
                                        task_file, tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        del doc[field]
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert f"error: {field}: missing field" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_unknown_template_dimension_exit_2(self, command, space_file,
                                               task_file, tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["template"]["layers"][0]["n_o"] = "$outputs"
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert capsys.readouterr().err == (
            "error: template.layers[0].n_o: unknown dimension 'outputs'\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_duplicate_dimension_name_exit_2(self, command, space_file,
                                             task_file, tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["dimensions"].append({"name": "res", "kind": "int", "low": 100,
                                  "high": 200})
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert capsys.readouterr().err == (
            "error: dimensions[1].name: duplicate dimension name 'res'\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("name", [{}, [1], None, -0.0, 3],
                             ids=["object", "array", "null", "float", "int"])
    def test_non_string_dimension_name_exit_2(self, command, name, space_file,
                                              task_file, tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["dimensions"].append({"name": name, "kind": "int", "low": 1,
                                  "high": 2})
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert capsys.readouterr().err == (
            "error: dimensions[1].name: must be a string\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("n_samples", [2 ** 20 + 1, 10 ** 11, 10 ** 30])
    def test_n_samples_over_bound_exit_2(self, command, n_samples,
                                         space_file, tmp_path, capsys):
        task = tmp_path / "task.json"
        task.write_text(json.dumps({**TASK, "n_samples": n_samples}))
        assert main(_argv(command, space_file, task)) == 2
        assert capsys.readouterr().err == (
            "error: n_samples: must be an integer from 1 to "
            "2**20 = 1048576\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("low, high", [(0.2, 10 ** 400),
                                           (-10 ** 400, 1.0)],
                             ids=["huge-high", "huge-low"])
    def test_float_bound_beyond_float_range_exit_2(self, command, low, high,
                                                   space_file, task_file,
                                                   tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["dimensions"].append({"name": "leak", "kind": "float",
                                  "low": low, "high": high})
        doc["template"]["layers"][0]["leak"] = "$leak"
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert capsys.readouterr().err == (
            "error: dimensions[1]: float dimension needs low, high and "
            "high - low (high / low with log) within the float range\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_float_dimension_feeding_count_exit_2(self, command, space_file,
                                                  task_file, tmp_path,
                                                  capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["dimensions"][0] = {"name": "res", "kind": "float", "low": 2,
                                "high": 16}
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert capsys.readouterr().err == (
            "error: template.layers[0].N_r: float dimension 'res' feeds a "
            "place that takes an integer\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_fractional_int_bound_exit_2(self, command, space_file,
                                         task_file, tmp_path, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["dimensions"][0]["low"] = 2.5
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv(command, space, task_file)) == 2
        assert capsys.readouterr().err == (
            "error: dimensions[0]: int dimension needs integer low and "
            "high\n")

    def test_template_not_object_exit_2(self, space_file, task_file,
                                        tmp_path, capsys):
        doc = {**json.loads(Path(space_file).read_text()), "template": []}
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps(doc))
        assert main(_argv("search", space, task_file)) == 2
        assert "error: template: must be an object" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("n_samples, folds", [(2, 3), (60, 1)])
    def test_folds_checked_before_search(self, command, n_samples, folds,
                                         space_file, tmp_path, capsys,
                                         monkeypatch):
        from nncost import bayesopt

        def no_search(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(bayesopt, "bo_optimize", no_search)
        task = tmp_path / "task.json"
        task.write_text(json.dumps({**TASK, "n_samples": n_samples}))
        argv = _argv(command, space_file, task, "--folds", str(folds))
        assert main(argv) == 2
        assert f"error: --folds {folds} must satisfy" in (
            capsys.readouterr().err)

    def test_internal_key_error_exit_1(self, space_file, task_file,
                                       monkeypatch, capsys):
        from nncost import search

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(search, "make_objective", broken)
        assert main(_argv("search", space_file, task_file)) == 1
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["validate", "missing.json", "--seed", "-1"],
         "--seed -1: must be >= 0"),
        (["search", "missing.json", "missing.json", "--seed", "-1"],
         "--seed -1: must be >= 0"),
        (["search", "missing.json", "missing.json", "--iters", "0"],
         "--iters 0: must be >= 1"),
        (["search", "missing.json", "missing.json", "--init", "0"],
         "--init 0: must be >= 1"),
        (["sweep", "missing.json", "missing.json", "--budgets", "10",
          "--seed", "-1"], "--seed -1: must be >= 0"),
        (["sweep", "missing.json", "missing.json", "--budgets", "10",
          "--iters", "0"], "--iters 0: must be >= 1"),
        (["sweep", "missing.json", "missing.json", "--budgets", "10",
          "--init", "-2"], "--init -2: must be >= 1"),
        (["sweep", "missing.json", "missing.json", "--budgets", "500,100"],
         "--budgets 500,100: must be sorted ascending"),
    ])
    def test_bad_integer_flag_exit_2_before_reading(self, argv, named,
                                                    capsys):
        # The inputs do not exist, so the flag must be checked first.
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {named}\n"


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_same_results_as_a_fresh_parser(self, net_file, space_file,
                                            task_file, capsys):
        script = [
            ["estimate", net_file, "--scheme", "pot"],
            ["estimate", net_file],
            ["estimate", net_file, "--bw", "4", "--format", "json"],
            ["validate", net_file, "--mode", "fixed"],
            ["validate", net_file, "--mode", "float"],
            ["sweep", space_file, task_file, "--budgets", "900000",
             "--iters", "1", "--init", "1"],
            ["estimate", net_file, "--format", "xml"],
            ["estimate", "does-not-exist.json"],
        ]

        def run(fresh):
            results = []
            for argv in script:
                if fresh:
                    build_parser.cache_clear()
                code = main(argv)
                results.append((code, *capsys.readouterr()))
            return results

        build_parser.cache_clear()
        shared = run(fresh=False)
        assert build_parser.cache_info().misses == 1
        assert shared == run(fresh=True)
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 2]

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["estimate"], 2, "err", "usage: nncost estimate"),
        (["bogus"], 2, "err", "usage: nncost"),
        (["--help"], 0, "out", "usage: nncost"),
        (["sweep", "--help"], 0, "out", "usage: nncost sweep"),
    ])
    def test_argparse_status_returned(self, argv, code, stream, text,
                                      capsys):
        assert main(argv) == code
        assert getattr(capsys.readouterr(), stream).startswith(text)
