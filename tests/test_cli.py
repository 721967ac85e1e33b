"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main

TABLEREPORT_CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "tablereport_corpus",
)


@pytest.fixture()
def corpus_dir(tmp_path, diabetes_corpus):
    d = tmp_path / "corpus"
    d.mkdir()
    for position, script in enumerate(diabetes_corpus):
        (d / f"peer_{position}.py").write_text(script + "\n")
    return str(d)


@pytest.fixture()
def script_path(tmp_path, alex_script):
    path = tmp_path / "user.py"
    path.write_text(alex_script + "\n")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_standardize_args(self):
        args = build_parser().parse_args(
            ["standardize", "--script", "s.py", "--corpus-dir", "c/",
             "--data-dir", "d/", "--tau-j", "0.8", "--seq", "4"]
        )
        assert args.command == "standardize"
        assert args.tau_j == 0.8
        assert args.seq == 4

    def test_build_workload_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-workload", "bogus", "--out", "x"])


class TestScore:
    def test_prints_re(self, corpus_dir, script_path, capsys):
        code = main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) > 0

    def test_empty_corpus_dir_exits(self, tmp_path, script_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["score", "--script", script_path, "--corpus-dir", str(empty)])


class TestStandardize:
    def test_end_to_end(self, corpus_dir, script_path, diabetes_dir, tmp_path, capsys):
        out_path = str(tmp_path / "out.py")
        code = main(
            ["standardize", "--script", script_path, "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--tau-j", "0.5",
             "--seq", "6", "--beam-size", "2", "--sample-rows", "120",
             "--output", out_path]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "read_csv" in printed
        assert os.path.exists(out_path)
        with open(out_path) as handle:
            assert "import pandas as pd" in handle.read()

    def test_broken_input_fails_cleanly(self, corpus_dir, tmp_path, diabetes_dir, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pandas as pd\ndf = pd.read_csv('nope.csv')\n")
        code = main(
            ["standardize", "--script", str(bad), "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--seq", "2"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestJobErrors:
    """A job that fails prints ``error: ...`` and exits 1, never a traceback."""

    @pytest.mark.parametrize("command", ["score", "standardize"])
    def test_edgeless_script(self, command, corpus_dir, tmp_path, diabetes_dir, capsys):
        edgeless = tmp_path / "edgeless.py"
        edgeless.write_text("x = 1\n")
        code = main([command, "--script", str(edgeless), "--corpus-dir", corpus_dir,
                     "--data-dir", diabetes_dir])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: script has no data-flow edges; RE is undefined\n"

    def test_edgeless_corpus(self, script_path, tmp_path, capsys):
        peers = tmp_path / "edgeless_peers"
        peers.mkdir()
        (peers / "a.py").write_text("x = 1\n")
        (peers / "b.py").write_text("y = 2\n")
        assert main(["score", "--script", script_path, "--corpus-dir", str(peers)]) == 1
        assert capsys.readouterr().err == (
            "error: corpus has no data-flow edges; RE is undefined\n"
        )

    def test_unparseable_script(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("not python (((\n")
        assert main(["score", "--script", str(bad), "--corpus-dir", corpus_dir]) == 1
        assert capsys.readouterr().err.startswith(
            "error: input script failed to parse: "
        )

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--sample-rows", "-5"], "error: invalid config: sample_rows must be >= 1"),
            (["--tau-j", "5"], "error: invalid intent: tau_J must be in [0, 1]"),
        ],
    )
    def test_invalid_flag_value(
        self, flags, message, corpus_dir, script_path, diabetes_dir, capsys
    ):
        code = main(["standardize", "--script", script_path, "--corpus-dir", corpus_dir,
                     "--data-dir", diabetes_dir, *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)


    def test_missing_target_column(self, corpus_dir, script_path, diabetes_dir, capsys):
        code = main(["standardize", "--script", script_path, "--corpus-dir", corpus_dir,
                     "--data-dir", diabetes_dir, "--target", "Nope",
                     "--seq", "2", "--beam-size", "1", "--sample-rows", "120"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "'Nope'" in captured.err


class TestExplain:
    def test_prints_rationales(self, corpus_dir, script_path, diabetes_dir, capsys):
        code = main(
            ["explain", "--script", script_path, "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--tau-j", "0.5",
             "--seq", "6", "--beam-size", "2", "--sample-rows", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corpus prevalence" in out or "already standard" in out


class TestBuildWorkload:
    def test_materializes_competition(self, tmp_path, capsys):
        code = main(
            ["build-workload", "medical", "--out", str(tmp_path),
             "--n-scripts", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "train.csv" in out
        scripts_dir = tmp_path / "medical" / "scripts"
        assert len(list(scripts_dir.glob("*.py"))) == 4


class TestDetectLeakage:
    def test_flags_removed_steps(self, corpus_dir, tmp_path, diabetes_dir, capsys):
        leaky = tmp_path / "leaky.py"
        leaky.write_text(
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.fillna(df.mean())\n"
            "df['Outcome_copy'] = df['Outcome']\n"
        )
        code = main(
            ["detect-leakage", "--script", str(leaky), "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--tau-j", "0.5",
             "--seq", "6", "--beam-size", "2", "--sample-rows", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Outcome_copy" in out or "no out-of-the-ordinary" in out


class TestCorpusWarnings:
    def test_corpus_dir_index_and_server_score_alike(
        self, corpus_dir, script_path, diabetes_corpus, alex_script, tmp_path,
        capsys,
    ):
        """One directory, three entry points, one reader: a byte-identical
        duplicate counts twice everywhere, and an undecodable file is
        named and skipped everywhere."""
        import json
        import shutil

        from repro.corpus import clear_corpus_cache
        from repro.sandbox import kill_worker_pool
        from repro.server import ServerClient, ServerConfig, ServerThread

        shutil.copy(
            os.path.join(corpus_dir, "peer_0.py"),
            os.path.join(corpus_dir, "zz_copy.py"),
        )
        notebook = {
            "cells": [
                {
                    "cell_type": "code",
                    "source": diabetes_corpus[1].splitlines(keepends=True),
                }
            ]
        }
        with open(os.path.join(corpus_dir, "peer_nb.ipynb"), "w") as handle:
            json.dump(notebook, handle)
        with open(os.path.join(corpus_dir, "latin1.py"), "wb") as handle:
            handle.write("df = 'caf\u00e9'\n".encode("latin-1"))

        code = main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        assert code == 0
        captured = capsys.readouterr()
        from_dir = captured.out.strip()
        assert "latin1.py" in captured.err

        snapshot = str(tmp_path / "index.json")
        assert main(["index", "build", "--corpus-dir", corpus_dir,
                     "--out", snapshot]) == 0
        capsys.readouterr()
        assert main(["score", "--script", script_path, "--index", snapshot]) == 0
        from_index = capsys.readouterr().out.strip()

        clear_corpus_cache()
        config = ServerConfig(socket_path=str(tmp_path / "repro.sock"))
        try:
            with ServerThread(config) as handle:
                with ServerClient(socket_path=handle.config.socket_path) as client:
                    served = client.score(script=alex_script, corpus_dir=corpus_dir)
        finally:
            kill_worker_pool()
            clear_corpus_cache()

        assert from_dir == from_index == f"{served['score']:.4f}"

    def test_broken_notebook_names_the_file(self, corpus_dir, script_path, capsys):
        with open(os.path.join(corpus_dir, "corrupt.ipynb"), "w") as handle:
            handle.write("{not json")
        code = main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        assert code == 0  # one corrupt notebook does not abort the load
        err = capsys.readouterr().err
        assert "warning: skipping notebook" in err
        assert "corrupt.ipynb" in err


class TestIndexCommands:
    def test_build_then_stats(self, corpus_dir, tmp_path, capsys):
        snapshot = str(tmp_path / "index.json")
        assert main(["index", "build", "--corpus-dir", corpus_dir,
                     "--out", snapshot]) == 0
        assert "indexed 3 scripts" in capsys.readouterr().out
        assert main(["index", "stats", "--index", snapshot, "--audit"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to a cold rebuild" in out
        assert "scripts: 3" in out

    def test_update_reparses_only_changes(self, corpus_dir, tmp_path,
                                          alex_script, capsys):
        snapshot = str(tmp_path / "index.json")
        main(["index", "build", "--corpus-dir", corpus_dir, "--out", snapshot])
        capsys.readouterr()
        assert main(["index", "update", "--index", snapshot, "--audit"]) == 0
        assert "reparsed=0" in capsys.readouterr().out
        with open(os.path.join(corpus_dir, "peer_1.py"), "w") as handle:
            handle.write(alex_script + "\n")
        assert main(["index", "update", "--index", snapshot, "--audit"]) == 0
        out = capsys.readouterr().out
        assert "changed=1" in out
        assert "reparsed=1" in out

    def test_build_empty_dir_exits(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["index", "build", "--corpus-dir", str(empty),
                  "--out", str(tmp_path / "index.json")])

    def test_score_accepts_index(self, corpus_dir, script_path, tmp_path, capsys):
        snapshot = str(tmp_path / "index.json")
        main(["index", "build", "--corpus-dir", corpus_dir, "--out", snapshot])
        capsys.readouterr()
        code = main(["score", "--script", script_path, "--index", snapshot])
        assert code == 0
        with_index = float(capsys.readouterr().out.strip())
        main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        without_index = float(capsys.readouterr().out.strip())
        assert with_index == without_index

    def test_score_requires_a_corpus_source(self, script_path):
        with pytest.raises(SystemExit, match="corpus-dir or --index"):
            main(["score", "--script", script_path])


class TestNotebookCorpus:
    def test_corpus_dir_accepts_notebooks(self, tmp_path, diabetes_corpus, alex_script, capsys):
        import json

        d = tmp_path / "nbcorpus"
        d.mkdir()
        for position, script in enumerate(diabetes_corpus):
            nb = {
                "cells": [
                    {"cell_type": "code", "source": script.splitlines(keepends=True)}
                ]
            }
            (d / f"peer_{position}.ipynb").write_text(json.dumps(nb))
        user = tmp_path / "user.py"
        user.write_text(alex_script + "\n")
        code = main(["score", "--script", str(user), "--corpus-dir", str(d)])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 0


class TestReadCorpusOrdering:
    def test_sorted_by_filename_regardless_of_creation_order(self, tmp_path):
        """Corpus order must be stable across filesystems: sorted by name."""
        import random

        from repro.corpus import read_corpus_dir

        d = tmp_path / "shuffled"
        d.mkdir()
        names = [f"peer_{i:02d}.py" for i in range(8)]
        shuffled = list(names)
        random.Random(3).shuffle(shuffled)
        for name in shuffled:  # create in shuffled order
            (d / name).write_text(
                f"import pandas as pd\ndf = pd.read_csv('{name}.csv')\ndf\n"
            )
        scripts, skipped = read_corpus_dir(str(d))
        assert skipped == []
        expected = [
            f"import pandas as pd\ndf = pd.read_csv('{name}.csv')\ndf\n"
            for name in sorted(names)
        ]
        assert scripts == expected


class TestIndexRetrieveCommand:
    def test_prints_ranked_hits(self, corpus_dir, script_path, capsys):
        code = main(
            [
                "index", "retrieve",
                "--corpus-dir", corpus_dir,
                "--script", script_path,
                "-k", "2",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0].startswith("pool [pandas]:")
        assert "[audited]" in lines[0]
        assert len(lines) == 3  # header + 2 hits
        assert lines[1].lstrip().startswith("1 ")

    def test_persists_and_reloads_pool_snapshot(
        self, corpus_dir, script_path, tmp_path, capsys
    ):
        snapshot = str(tmp_path / "pool.retr.json")
        assert (
            main(
                [
                    "index", "retrieve",
                    "--corpus-dir", corpus_dir,
                    "--script", script_path,
                    "-k", "2",
                    "--out", snapshot,
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert (
            main(["index", "retrieve", "--index", snapshot,
                  "--script", script_path, "-k", "2"])
            == 0
        )
        second = capsys.readouterr().out
        hits = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.lstrip()[:1].isdigit()
        ]
        assert hits(first) == hits(second)

    def test_requires_a_pool(self, script_path):
        with pytest.raises(SystemExit):
            main(["index", "retrieve", "--script", script_path])


class TestRetrieveKFlag:
    def test_score_with_retrieve_k_matches_plain_corpus(
        self, tmp_path, script_path, diabetes_corpus, capsys
    ):
        # a duplicate-free pool: retrieval works over unique records, so
        # parity with the plain directory corpus needs distinct lemmas
        # (diabetes peers 0 and 1 lemmatize identically)
        d = tmp_path / "unique"
        d.mkdir()
        for position, script in enumerate(diabetes_corpus[1:]):
            (d / f"peer_{position}.py").write_text(script + "\n")
        corpus_dir = str(d)
        assert main(["score", "--script", script_path, "--corpus-dir", corpus_dir]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    "score", "--script", script_path, "--corpus-dir", corpus_dir,
                    "--retrieve-k", "3", "--verify-retrieval",
                ]
            )
            == 0
        )
        retrieved = capsys.readouterr().out
        # k >= pool size: the retrieved corpus is the whole pool, and the
        # score is identical to curating the directory directly
        assert retrieved == plain

    def test_standardize_with_retrieve_k(
        self, corpus_dir, script_path, diabetes_dir, capsys
    ):
        code = main(
            [
                "standardize",
                "--script", script_path,
                "--corpus-dir", corpus_dir,
                "--data-dir", diabetes_dir,
                "--retrieve-k", "2",
            ]
        )
        assert code == 0
        assert "df" in capsys.readouterr().out


@pytest.fixture()
def server_socket(tmp_path):
    from repro.corpus import clear_corpus_cache
    from repro.sandbox import kill_worker_pool
    from repro.server import ServerConfig, ServerThread

    clear_corpus_cache()
    try:
        with ServerThread(ServerConfig(socket_path=str(tmp_path / "repro.sock"))) as handle:
            yield handle.config.socket_path
    finally:
        kill_worker_pool()
        clear_corpus_cache()


class TestClient:
    """``repro client`` sends the params the local commands run, and the
    server answers what :func:`execute_job` computes in-process."""

    SEARCH = ["--tau-j", "0.5", "--seq", "4", "--beam-size", "2", "--sample-rows", "120"]

    @staticmethod
    def _client(capsys, op, socket, flags):
        code = main(["client", op, "--socket", socket, *flags])
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("op", ["standardize", "score", "explain", "detect-leakage"])
    def test_matches_execute_job_and_the_local_command(
        self, op, server_socket, script_path, corpus_dir, diabetes_dir,
        alex_script, diabetes_corpus, capsys,
    ):
        from repro.server.jobs import execute_job, normalize_job
        from repro.server.protocol import canonical

        flags = ["--script", script_path, "--corpus-dir", corpus_dir,
                 "--data-dir", diabetes_dir, *self.SEARCH]
        code, response = self._client(capsys, op, server_socket, flags)
        assert code == 0, response
        job = normalize_job(
            {
                "op": op.replace("-", "_"),
                "params": {
                    "script": alex_script + "\n",
                    "corpus": [script + "\n" for script in diabetes_corpus],
                    "data_dir": diabetes_dir,
                    "tau_j": 0.5,
                    "config": {"seq": 4, "beam_size": 2, "sample_rows": 120},
                },
            }
        )
        result = response["result"]
        assert result == json.loads(canonical(execute_job(job)))

        assert main([op, *flags]) == 0
        local = capsys.readouterr().out
        if op == "score":
            assert local == f"{result['score']:.4f}\n"
        elif op == "standardize":
            assert local == result["output_script"] + "\n"
        elif op == "explain":
            assert all(text in local for text in result["explanations"])
            assert f"overall: {result['improvement']:.1f}%" in local
        else:
            assert all(flag["statement"] in local for flag in result["flagged"])

    def test_sends_the_dialect(self, server_socket, capsys):
        flags = ["--dialect", "tablereport",
                 "--script", os.path.join(TABLEREPORT_CORPUS, "prep_03.py"),
                 "--corpus-dir", TABLEREPORT_CORPUS, "--data-dir", TABLEREPORT_CORPUS]
        code, response = self._client(capsys, "standardize", server_socket, flags)
        assert code == 0, response
        assert "report = design.timing_report()" in response["result"]["output_script"]
        assert main(["standardize", *flags]) == 0
        assert capsys.readouterr().out == response["result"]["output_script"] + "\n"

    def test_sample_rows_zero_means_no_sampling(
        self, server_socket, script_path, corpus_dir, diabetes_dir, capsys
    ):
        flags = ["--script", script_path, "--corpus-dir", corpus_dir,
                 "--data-dir", diabetes_dir, "--seq", "4", "--sample-rows", "0"]
        code, response = self._client(capsys, "standardize", server_socket, flags)
        assert code == 0, response
        assert main(["standardize", *flags]) == 0
        assert capsys.readouterr().out == response["result"]["output_script"] + "\n"

    def test_failed_job_exits_1(self, server_socket, corpus_dir, tmp_path, capsys):
        edgeless = tmp_path / "edgeless.py"
        edgeless.write_text("x = 1\n")
        code, response = self._client(
            capsys, "score", server_socket,
            ["--script", str(edgeless), "--corpus-dir", corpus_dir],
        )
        assert code == 1
        assert response["error"]["kind"] == "bad_request"
