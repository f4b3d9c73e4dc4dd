"""Tests for the command-line interface."""

import argparse
import io
import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main

CLI_DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "cli.md"


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_train_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--dataset", "compas"])
        assert args.metric == "SP"
        assert args.epsilon == 0.03
        assert args.model == "LR"

    def test_invalid_metric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "compas", "--metric", "WRONG"]
            )

    def test_spec_flag_repeatable(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "compas",
             "--spec", "SP <= 0.03", "--spec", "FNR <= 0.05"]
        )
        assert args.spec == ["SP <= 0.03", "FNR <= 0.05"]

    def test_search_flag_validated(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "compas", "--search", "grid"]
        )
        assert args.search == "grid"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "compas", "--search", "nope"]
            )

    def test_strategy_opt_parsing(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "compas",
             "--strategy-opt", "tau=1e-4",
             "--strategy-opt", "grid_steps=9",
             "--strategy-opt", "name=abc"]
        )
        assert dict(args.strategy_opt) == {
            "tau": 1e-4, "grid_steps": 9, "name": "abc",
        }

    def test_strategy_opt_requires_key_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "compas", "--strategy-opt", "tau"]
            )

    def test_cli_doc_flag_tables_match_the_parser(self):
        # each "## `repro <cmd>`" section's table lists, in its first
        # column, exactly the flags that subcommand's parser accepts
        documented = {}
        for section in re.split(r"^## ", CLI_DOC.read_text(), flags=re.M):
            title = re.match(r"`repro ([\w-]+)`", section)
            if title is None:
                continue
            flags = documented.setdefault(title.group(1), set())
            for line in section.splitlines():
                if line.startswith("|"):
                    first = line.split("|")[1]
                    flags.update(re.findall(r"--[a-z][a-z-]*", first))
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        accepted = {
            name: {opt for action in sub._actions
                   for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert documented == {
            name: flags for name, flags in accepted.items() if flags
        }


class TestCommands:
    def test_list_output(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "compas" in text and "SP" in text and "XGB" in text

    def test_list_shows_registered_strategies(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "strategies:" in text
        for name in ("binary_search", "hill_climb", "grid", "linear",
                     "cmaes"):
            assert name in text

    def test_train_end_to_end(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--epsilon", "0.05",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "test accuracy:" in text
        assert "lambda" in text

    def test_train_saves_model(self, tmp_path):
        from repro.ml import load_model

        out = io.StringIO()
        path = tmp_path / "model.pkl"
        code = main(
            [
                "train", "--dataset", "lsac", "--rows", "1200",
                "--epsilon", "0.08", "--save", str(path),
            ],
            out=out,
        )
        assert code == 0
        loaded = load_model(path)
        assert hasattr(loaded, "predict")

    def test_train_with_dsl_spec(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--spec", "SP(race) <= 0.05",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert 'spec="SP(race) <= 0.05"' in text
        assert "strategy=binary_search" in text

    def test_train_with_search_and_strategy_opt(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--epsilon", "0.08",
                "--search", "grid", "--strategy-opt", "grid_steps=10",
            ],
            out=out,
        )
        assert code == 0
        assert "strategy=grid" in out.getvalue()

    def test_train_unknown_strategy_opt_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--search", "grid",
                "--strategy-opt", "typo=1",
            ],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()

    def test_train_warm_seed_option_exits_2(self):
        # a warm seed is an argument of one solve, not a strategy knob
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "600", "--spec", "SP <= 0.05", "--model", "NB",
                "--search", "binary_search",
                "--strategy-opt", "warm_lambda=0.5",
            ],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()
        assert "warm_lambda" in out.getvalue()

    @pytest.mark.parametrize("search", ["binary_search", "auto"])
    @pytest.mark.parametrize("opt", ["tau=0", "tau=nan", "delta=0"])
    def test_train_bad_search_width_exits_2(self, search, opt):
        # a zero width never ends the bisection and a NaN one skips it
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "600", "--spec", "SP <= 0.05", "--model", "NB",
                "--search", search, "--strategy-opt", opt,
            ],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()
        assert opt.split("=")[0] in out.getvalue()

    def test_train_infinite_grid_exits_2(self):
        # 1e999 parses to inf: the grid used to select λ = [inf] and
        # report a constant-prediction model as feasible (exit 0)
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "scenario:label_noise",
                "--rows", "1600", "--model", "NB", "--search", "grid",
                "--strategy-opt", "grid_max=1e999", "--epsilon", "0.05",
            ],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()
        assert "grid_max" in out.getvalue()

    def test_train_reserved_strategy_opt_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--strategy-opt", "warm_start=1",
            ],
            out=out,
        )
        assert code == 2
        assert out.getvalue().startswith(
            "SPEC ERROR: unknown option(s) ['warm_start']"
        )

    def test_train_store_dir_strategy_opt_is_refused(self, tmp_path):
        # --strategy-opt reaches Engine(**options): an engine parameter
        # must be refused before any engine (or store) is built
        target = tmp_path / "store"
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--strategy-opt", f"store_dir={target}",
            ],
            out=out,
        )
        assert code == 2
        assert "store_dir" in out.getvalue()
        assert not target.exists()

    @pytest.mark.parametrize("flag", [
        ["--backend", "serial"], ["--engine", "compiled"],
        ["--n-jobs", "2"],
    ])
    def test_train_removed_execution_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--dataset", "compas", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,error", [
        (["--search", "race"], "invalid choice: 'race'"),
        (["--subsample", "0.5"], "unrecognized arguments"),
    ])
    def test_train_removed_solver_flags_exit_2(self, flags, error, capsys):
        # race and the subsample bounding fits were removed in 13.0.0
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--dataset", "compas", *flags])
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err

    def test_serve_max_wait_us_flag_is_gone(self, capsys):
        # removed in 7.0.0: the batcher no longer holds batches open
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--max-wait-us", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-batch-size", "--n-workers"])
    def test_serve_batcher_knob_below_one_exits_2_before_serving(self, flag):
        # before 11.1.0 this served, refusing every /predict with 400
        out = io.StringIO()
        assert main(["serve", "--port", "0", flag, "0"], out=out) == 2
        assert "SPEC ERROR" in out.getvalue()
        assert "serving on" not in out.getvalue()

    def test_train_bad_spec_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1200", "--spec", "NOPE <= 0.05",
            ],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()

    def test_train_infeasible_exit_code(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--rows", "1000", "--metric", "MR", "--epsilon", "0.0",
            ],
            out=out,
        )
        # exact-zero MR parity is (practically) unreachable -> infeasible
        # reporting path; if a degenerate split makes it reachable the run
        # legitimately succeeds
        assert code in (0, 1)
        if code == 1:
            assert "INFEASIBLE" in out.getvalue()


class TestScenarioAndExternalModelCommands:
    """CLI surface added with the scenario/adapter layer (ISSUE 4)."""

    def test_list_shows_scenarios_and_ext_hint(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "scenario:imbalance" in text
        assert "ext:<module:Class>" in text

    def test_train_on_scenario_with_ext_model_and_chunking(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "scenario:label_noise",
                "--rows", "1500", "--spec", "SP <= 0.05",
                "--model", "ext:repro.ml:GaussianNaiveBayes",
                "--chunk-size", "256",
            ],
            out=out,
        )
        assert code == 0
        assert "test accuracy:" in out.getvalue()

    def test_unknown_scenario_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "scenario:nope", "--rows", "500"],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()

    def test_unknown_model_name_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "compas", "--rows", "800",
             "--model", "NOTAMODEL"],
            out=out,
        )
        assert code == 2
        assert "MODEL ERROR" in out.getvalue()

    def test_unparseable_ext_path_fails_cleanly(self):
        # regression: the ValueError from a one-word ext: path used to
        # escape the except tuple as a traceback
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "compas", "--rows", "800",
             "--model", "ext:justoneword"],
            out=out,
        )
        assert code == 2
        assert "MODEL ERROR" in out.getvalue()

    def test_unimportable_ext_module_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "compas", "--rows", "800",
             "--model", "ext:definitely_not_a_module:X"],
            out=out,
        )
        assert code == 2
        assert "MODEL ERROR" in out.getvalue()

    def test_two_group_on_scenario_fails_cleanly(self):
        # regression: two_group_view's COMPAS-specific group names used
        # to raise an uncaught ValueError on scenario datasets
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "scenario:group_sweep",
             "--rows", "800", "--two-group"],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()

    def test_bad_chunk_size_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "compas", "--two-group",
             "--rows", "800", "--chunk-size", "0"],
            out=out,
        )
        assert code == 2
        assert "chunk_size" in out.getvalue()


class TestEncodeAndColumnarCommands:
    def _encode(self, tmp_path, rows="4000"):
        out = io.StringIO()
        code = main(
            ["encode", "--dataset", "scenario:million_row",
             "--out", str(tmp_path), "--rows", rows],
            out=out,
        )
        assert code == 0, out.getvalue()
        return out.getvalue()

    def test_list_shows_storage_backends(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "storage:" in text
        assert "columnar" in text and "repro encode" in text

    def test_encode_reports_manifest(self, tmp_path):
        text = self._encode(tmp_path, rows="2000")
        assert "encoded scenario:million_row" in text
        assert "rows: 2000" in text
        assert "fingerprint: " in text

    def test_encode_no_feature_order_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["encode", "--dataset", "scenario:million_row",
                  "--out", str(tmp_path), "--no-feature-order"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_encode_chunk_size_0_exits_2(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["encode", "--dataset", "scenario:million_row", "--rows", "500",
             "--out", str(tmp_path / "store"), "--chunk-size", "0"],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR: chunk_rows" in out.getvalue()
        assert not (tmp_path / "store").exists()

    def test_encode_unknown_dataset_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["encode", "--dataset", "scenario:nope",
             "--out", str(tmp_path)],
            out=out,
        )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()

    def test_encode_solve_resolve_hits_cache(self, tmp_path):
        """The acceptance loop: encode once, solve, re-solve for free.

        The second run must replay the identical solution from the
        cross-run cache — ``model fits: 0`` — because the columnar
        fingerprint equals the in-memory one and the cache key excludes
        the storage backend.
        """
        self._encode(tmp_path / "store")
        cache = tmp_path / "cache"
        argv = [
            "train", "--dataset", "scenario:million_row@columnar",
            "--columnar-dir", str(tmp_path / "store"),
            "--search", "grid",
            "--strategy-opt", "grid_steps=8",
            "--strategy-opt", "grid_max=0.5",
            "--epsilon", "0.05",
            "--store-dir", str(cache),
        ]
        first = io.StringIO()
        assert main(argv, out=first) == 0, first.getvalue()
        assert "test accuracy:" in first.getvalue()
        second = io.StringIO()
        assert main(argv, out=second) == 0, second.getvalue()
        assert "model fits: 0" in second.getvalue()
        # identical lambda both runs (the fit count on the same line
        # legitimately differs: 18 cold, 0 replayed)
        def lam(text):
            line = next(l for l in text.splitlines() if "lambda" in l)
            return line.split("model fits:")[0]

        assert lam(first.getvalue()) == lam(second.getvalue())

    def test_columnar_suffix_without_dir_fails_cleanly(self):
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "scenario:million_row@columnar"],
            out=out,
        )
        assert code == 2
        assert "columnar" in out.getvalue()

    def test_columnar_store_name_mismatch_fails_cleanly(self, tmp_path):
        self._encode(tmp_path, rows="1000")
        out = io.StringIO()
        code = main(
            ["train", "--dataset", "scenario:imbalance@columnar",
             "--columnar-dir", str(tmp_path)],
            out=out,
        )
        assert code == 2
        assert "holds" in out.getvalue()

    def test_corrupt_store_fails_cleanly(self, tmp_path):
        import warnings

        self._encode(tmp_path, rows="1000")
        (tmp_path / "manifest.json").write_text("{broken")
        out = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(
                ["train", "--dataset", "scenario:million_row@columnar",
                 "--columnar-dir", str(tmp_path)],
                out=out,
            )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()

    def test_escaped_column_file_fails_cleanly(self, tmp_path):
        # the manifest names a same-shape X.npy outside the store: it
        # must refuse, not open the other rows under its fingerprint
        import warnings

        self._encode(tmp_path / "store", rows="1000")
        out = io.StringIO()
        assert main(
            ["encode", "--dataset", "scenario:million_row", "--rows",
             "1000", "--seed", "1", "--out", str(tmp_path / "outside")],
            out=out,
        ) == 0
        path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["columns"]["X"]["file"] = "../outside/X.npy"
        path.write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(
                ["train", "--dataset", "scenario:million_row@columnar",
                 "--columnar-dir", str(tmp_path / "store")],
                out=out,
            )
        assert code == 2
        assert "SPEC ERROR" in out.getvalue()
        assert "../outside/X.npy" in out.getvalue()
