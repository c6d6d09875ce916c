"""Command-line interface (invoked in-process via repro.cli.main)."""

import os
import socket as socket_mod
import threading

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSizes:
    def test_sizes_output(self, capsys):
        code, out, _ = run(capsys, "sizes", "(ab)*")
        assert code == 0
        assert "d_sfa" in out
        assert "6" in out

    def test_compile_error_exit_code(self, capsys):
        code, _, err = run(capsys, "sizes", "(ab")
        assert code == 2
        assert "error" in err


class TestMatch:
    def test_fullmatch_stdin_like(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"abab")
        code, out, _ = run(capsys, "match", "(ab)*", str(f))
        assert code == 0
        assert "match" in out

    def test_no_match_exit_one(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"aba")
        code, out, _ = run(capsys, "match", "(ab)*", str(f))
        assert code == 1
        assert "no match" in out

    def test_contains_flag(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"xx abab xx")
        code, out, _ = run(capsys, "match", "abab", str(f), "--contains")
        assert code == 0

    def test_engine_selection(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"ab" * 100)
        for engine in ("dfa", "speculative", "sfa", "lockstep"):
            code, _, _ = run(capsys, "match", "(ab)*", str(f),
                             "--engine", engine, "--chunks", "4")
            assert code == 0, engine

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "match", "a", "/nonexistent/file")
        assert code == 2

    def test_executor_selection(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"ab" * 100)
        for executor in ("serial", "threads", "processes"):
            code, out, _ = run(capsys, "match", "(ab)*", str(f),
                               "--engine", "sfa", "--chunks", "4",
                               "--executor", executor, "--workers", "2")
            assert code == 0, executor
            assert "match" in out

    def test_executor_processes_no_match(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"ab" * 100 + b"x")
        code, out, _ = run(capsys, "match", "(ab)*", str(f),
                           "--engine", "speculative", "--chunks", "4",
                           "--executor", "processes", "--workers", "2")
        assert code == 1
        assert "no match" in out

    def test_kernel_selection(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"ab" * 100)
        for kernel in ("python", "stride2", "stride4", "vector"):
            for engine in ("sfa", "speculative", "lockstep"):
                code, out, _ = run(capsys, "match", "(ab)*", str(f),
                                   "--engine", engine, "--chunks", "4",
                                   "--kernel", kernel)
                assert code == 0, (kernel, engine)
                assert "match" in out


class TestGrep:
    def test_matching_lines(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"ok\nERROR 42 boom\nfine\nERROR 7\n")
        code, out, _ = run(capsys, "grep", "ERROR [0-9]+", str(f), "-n")
        assert code == 0
        assert "2:ERROR 42 boom" in out
        assert "4:ERROR 7" in out
        assert "fine" not in out

    def test_no_lines_exit_one(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"nothing\nhere\n")
        code, out, _ = run(capsys, "grep", "ERROR", str(f))
        assert code == 1
        assert out == ""

    def test_ignore_case(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"Error: x\n")
        code, out, _ = run(capsys, "grep", "error", str(f), "-i")
        assert code == 0

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            type("S", (), {"buffer": io.BytesIO(b"aa\nbb\n")})(),
        )
        code, out, _ = run(capsys, "grep", "a+", "-")
        assert code == 0
        assert out == "aa\n"

    def test_only_matching(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"ERROR 42 boom ERROR 7\nok\nERROR 9\n")
        code, out, _ = run(capsys, "grep", "-o", "ERROR [0-9]+", str(f))
        assert code == 0
        assert out == "ERROR 42\nERROR 7\nERROR 9\n"

    def test_only_matching_skips_empty_spans(self, capsys, tmp_path):
        # GNU grep -o prints only non-empty matches of a nullable pattern
        f = tmp_path / "log.txt"
        f.write_bytes(b"xaax\n")
        code, out, _ = run(capsys, "grep", "-o", "a*", str(f))
        assert code == 0
        assert out == "aa\n"

    def test_count_single_file(self, capsys, tmp_path):
        # -c counts matching *lines*, not matches (two ERRORs on line 1)
        f = tmp_path / "log.txt"
        f.write_bytes(b"ERROR 1 then ERROR 2\nok\nERROR 3\n")
        code, out, _ = run(capsys, "grep", "-c", "ERROR", str(f))
        assert code == 0
        assert out == "2\n"

    def test_count_zero_exits_one(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"nothing\n")
        code, out, _ = run(capsys, "grep", "-c", "ERROR", str(f))
        assert code == 1
        assert out == "0\n"

    def test_no_trailing_newline(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"ok\nERROR 5")  # last line unterminated
        code, out, _ = run(capsys, "grep", "ERROR [0-9]+", str(f), "-n")
        assert code == 0
        assert out == "2:ERROR 5\n"

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_bytes(b"")
        code, out, _ = run(capsys, "grep", "a*", str(f))
        assert code == 1  # no lines, so no matching lines — like grep
        assert out == ""


class TestGrepMultiFile:
    def _tree(self, tmp_path):
        root = tmp_path / "tree"
        (root / "sub").mkdir(parents=True)
        (root / "log.txt").write_bytes(b"ok\nERROR 42 boom\nfine\nERROR 7\n")
        (root / "none.txt").write_bytes(b"nothing here\n")
        (root / "sub" / "deep.txt").write_bytes(
            b"ERROR 1\nERROR 2 and ERROR 3\n"
        )
        return root

    def test_directory_recursion_golden(self, capsys, tmp_path):
        root = self._tree(tmp_path)
        code, out, _ = run(capsys, "grep", "ERROR [0-9]+", str(root), "-n")
        assert code == 0
        assert out == (
            f"{root}/log.txt:2:ERROR 42 boom\n"
            f"{root}/log.txt:4:ERROR 7\n"
            f"{root}/sub/deep.txt:1:ERROR 1\n"
            f"{root}/sub/deep.txt:2:ERROR 2 and ERROR 3\n"
        )

    def test_count_golden(self, capsys, tmp_path):
        root = self._tree(tmp_path)
        code, out, _ = run(capsys, "grep", "-c", "ERROR", str(root))
        assert code == 0
        assert out == (
            f"{root}/log.txt:2\n"
            f"{root}/none.txt:0\n"
            f"{root}/sub/deep.txt:2\n"
        )

    def test_count_matches_system_grep(self, capsys, tmp_path):
        import shutil
        import subprocess

        if shutil.which("grep") is None:
            pytest.skip("no system grep")
        root = self._tree(tmp_path)
        code, out, _ = run(capsys, "grep", "-c", "ERROR", str(root))
        assert code == 0
        gnu = subprocess.run(
            ["grep", "-rc", "ERROR", str(root)],
            capture_output=True, text=True, check=True,
        )
        assert sorted(out.splitlines()) == sorted(gnu.stdout.splitlines())

    def test_only_matching_multi_file(self, capsys, tmp_path):
        root = self._tree(tmp_path)
        code, out, _ = run(capsys, "grep", "-o", "-n", "ERROR [0-9]+",
                           str(root / "sub"), str(root / "log.txt"))
        assert code == 0
        assert out == (
            f"{root}/sub/deep.txt:1:ERROR 1\n"
            f"{root}/sub/deep.txt:2:ERROR 2\n"
            f"{root}/sub/deep.txt:2:ERROR 3\n"
            f"{root}/log.txt:2:ERROR 42\n"
            f"{root}/log.txt:4:ERROR 7\n"
        )

    def test_binary_file_skipped(self, capsys, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "bin.dat").write_bytes(b"bin\0ary ERROR 9\n")
        (root / "log.txt").write_bytes(b"ERROR 1\n")
        code, out, _ = run(capsys, "grep", "ERROR", str(root))
        assert code == 0
        assert "bin.dat" not in out
        assert f"{root}/log.txt:ERROR 1\n" == out

    def test_binary_only_no_match_exit_one(self, capsys, tmp_path):
        f = tmp_path / "bin.dat"
        f.write_bytes(b"\0ERROR\n")
        code, out, _ = run(capsys, "grep", "ERROR", str(f))
        assert code == 1
        assert out == ""

    def test_nonexistent_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "grep", "x", str(tmp_path / "missing"))
        assert code == 2
        assert "No such file" in err

    def test_nonexistent_plus_match_still_exit_two(self, capsys, tmp_path):
        # grep semantics: errors dominate the exit code, matches still print
        f = tmp_path / "log.txt"
        f.write_bytes(b"ERROR 1\n")
        code, out, err = run(capsys, "grep", "ERROR", str(f),
                             str(tmp_path / "missing"))
        assert code == 2
        assert "ERROR 1" in out
        assert "No such file" in err

    def test_no_match_multi_exit_one(self, capsys, tmp_path):
        root = self._tree(tmp_path)
        code, out, _ = run(capsys, "grep", "NOPE", str(root))
        assert code == 1
        assert out == ""

    def test_no_prefilter_output_invariant(self, capsys, tmp_path):
        root = self._tree(tmp_path)
        for pattern in ("ERROR [0-9]+", "[0-9]+ [a-z]+"):
            code, out, _ = run(capsys, "grep", "-n", pattern, str(root))
            assert code == 0, pattern
            code, off, _ = run(capsys, "grep", "-n", pattern, str(root),
                               "--no-prefilter")
            assert code == 0, pattern
            assert off == out, pattern


class TestGrepNonRegularFiles:
    """GNU grep recursion semantics: only regular files are opened.

    A FIFO with no writer blocks ``open()`` forever, so these tests run
    the grep under a timeout guard — a hang is reported as a failure, not
    a stuck suite.
    """

    def _run_guarded(self, *argv, timeout=20.0):
        result = {}

        def target():
            result["code"] = main(list(argv))

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(timeout)
        assert not t.is_alive(), f"repro {argv[0]} hung (> {timeout}s)"
        return result["code"]

    def test_fifo_in_tree_does_not_hang(self, capsys, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "log.txt").write_bytes(b"ERROR 1\n")
        os.mkfifo(root / "pipe.fifo")  # no writer: open() would block
        code = self._run_guarded("grep", "ERROR", str(root))
        out, err = capsys.readouterr()
        assert code == 0
        assert "pipe.fifo" not in out and "pipe.fifo" not in err
        assert "ERROR 1" in out

    def test_socket_in_tree_skipped(self, capsys, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "log.txt").write_bytes(b"ERROR 2\n")
        srv = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        try:
            srv.bind(str(root / "ctl.sock"))
            code = self._run_guarded("grep", "ERROR", str(root))
        finally:
            srv.close()
        out, _ = capsys.readouterr()
        assert code == 0
        assert "ctl.sock" not in out
        assert "ERROR 2" in out

    def test_fifo_only_tree_exits_one(self, capsys, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        os.mkfifo(root / "pipe.fifo")
        code = self._run_guarded("grep", "ERROR", str(root))
        out, _ = capsys.readouterr()
        assert code == 1  # nothing scanned, nothing matched, no error
        assert out == ""


class TestGrepErrorRecovery:
    def test_unreadable_file_warns_and_continues(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        good = tmp_path / "good.log"
        good.write_bytes(b"ERROR ok\n")
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"ERROR hidden\n")
        real = cli._read_input

        def deny(path):
            if path == str(bad):
                raise PermissionError(13, "Permission denied", path)
            return real(path)

        monkeypatch.setattr(cli, "_read_input", deny)
        code = main(["grep", "ERROR", str(bad), str(good)])
        out, err = capsys.readouterr()
        assert code == 2  # GNU grep: errors dominate the exit code
        assert "ERROR ok" in out  # the readable file was still scanned
        assert "hidden" not in out
        assert f"repro grep: {bad}: Permission denied" in err

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores file modes")
    def test_real_permission_error(self, capsys, tmp_path):  # pragma: no cover
        good = tmp_path / "good.log"
        good.write_bytes(b"ERROR ok\n")
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"ERROR hidden\n")
        bad.chmod(0)
        try:
            code = main(["grep", "ERROR", str(tmp_path)])
        finally:
            bad.chmod(0o644)
        out, err = capsys.readouterr()
        assert code == 2
        assert "ERROR ok" in out
        assert "bad.log" in err

    def test_unreadable_in_recursion_keeps_order(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        (tmp_path / "a.log").write_bytes(b"ERROR a\n")
        bad = tmp_path / "b.log"
        bad.write_bytes(b"x\n")
        (tmp_path / "c.log").write_bytes(b"ERROR c\n")
        real = cli._read_input

        def deny(path):
            if path == str(bad):
                raise OSError(5, "Input/output error", path)
            return real(path)

        monkeypatch.setattr(cli, "_read_input", deny)
        code = main(["grep", "ERROR", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert f"{tmp_path}/a.log:ERROR a\n{tmp_path}/c.log:ERROR c\n" == out
        assert "Input/output error" in err


class TestGrepDedupe:
    def test_same_file_twice_counts_once(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"ERROR 1\nERROR 2\n")
        code = main(["grep", "-c", "ERROR", str(f), str(f)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == "2\n"  # one (deduped) file: no filename prefix

    def test_symlink_alias_deduped(self, capsys, tmp_path):
        f = tmp_path / "log.txt"
        f.write_bytes(b"ERROR 1\n")
        alias = tmp_path / "alias.txt"
        alias.symlink_to(f)
        code = main(["grep", "-c", "ERROR", str(f), str(alias)])
        out, _ = capsys.readouterr()
        assert code == 0
        # first occurrence wins; the alias is not scanned again, so the
        # (deduped) single file prints without a filename prefix
        assert out == "1\n"

    def test_file_and_containing_dir_deduped(self, capsys, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        f = root / "log.txt"
        f.write_bytes(b"ERROR 1\n")
        code = main(["grep", "-c", "ERROR", str(f), str(root)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == f"{f}:1\n"  # listed explicitly, then seen in the walk

    def test_symlinked_dir_arg_walked_once(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.cli as cli

        d = tmp_path / "d"
        d.mkdir()
        (d / "log.txt").write_bytes(b"ERROR 1\n")
        ld = tmp_path / "ld"
        ld.symlink_to(d, target_is_directory=True)

        walked = []
        real_walk = os.walk

        def counting_walk(top, **kw):
            walked.append(top)
            return real_walk(top, **kw)

        monkeypatch.setattr(cli.os, "walk", counting_walk)
        code = main(["grep", "-c", "ERROR", str(d), str(ld)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == f"{d}/log.txt:1\n"  # one deduped file, scanned once
        assert len(walked) == 1  # the aliased tree is never re-walked

    def test_symlink_loop_in_tree_terminates(self, capsys, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "log.txt").write_bytes(b"ERROR 1\n")
        # a cycle: d/loop -> tmp_path, whose walk would revisit d forever
        # if directory symlinks were followed without loop protection
        (d / "loop").symlink_to(tmp_path, target_is_directory=True)
        code = main(["grep", "-c", "ERROR", str(tmp_path)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == f"{d}/log.txt:1\n"

    def test_distinct_files_not_deduped(self, capsys, tmp_path):
        a = tmp_path / "a.log"
        a.write_bytes(b"ERROR 1\n")
        b = tmp_path / "b.log"
        b.write_bytes(b"ERROR 2\n")
        code = main(["grep", "-c", "ERROR", str(a), str(b)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == f"{a}:1\n{b}:1\n"


class TestBrokenPipe:
    def test_broken_pipe_exits_141_quietly(self, monkeypatch, tmp_path):
        # `repro ... | grep -q` closes the pipe early; the Unix convention
        # is a quiet 128+SIGPIPE exit, not an error report (and certainly
        # not exit 2, which would trip pipefail CI scripts)
        import io
        import sys

        import repro.cli as cli

        f = tmp_path / "in.txt"
        f.write_bytes(b"aa\n")

        def boom(path):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_read_input", boom)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["match", "a+", str(f)]) == 141
        assert err.getvalue() == ""


class TestDot:
    def test_dfa_dot(self, capsys):
        code, out, _ = run(capsys, "dot", "(ab)*", "--stage", "dfa")
        assert code == 0
        assert out.startswith("digraph DFA")

    def test_sfa_dot_with_mappings(self, capsys):
        code, out, _ = run(capsys, "dot", "(ab)*", "--stage", "sfa",
                           "--show-mappings", "--hide-traps")
        assert code == 0
        assert "digraph SFA" in out

    def test_nfa_dot(self, capsys):
        code, out, _ = run(capsys, "dot", "ab", "--stage", "nfa")
        assert code == 0
        assert "digraph NFA" in out


class TestSave:
    def test_save_and_reload_sfa(self, capsys, tmp_path):
        out_path = str(tmp_path / "m.npz")
        code, out, _ = run(capsys, "save", "(ab)*", "--stage", "sfa", "-o", out_path)
        assert code == 0
        from repro.automata.serialize import load_sfa

        sfa = load_sfa(out_path)
        assert sfa.accepts(b"abab")

    def test_save_dfa(self, capsys, tmp_path):
        out_path = str(tmp_path / "d.npz")
        code, _, _ = run(capsys, "save", "ab", "--stage", "dfa", "-o", out_path)
        assert code == 0
        from repro.automata.serialize import load_dfa

        assert load_dfa(out_path).accepts(b"ab")


class TestSaveRuleset:
    def test_save_and_reload_ruleset(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("# comment\nabc\n\nzz*top\n")
        out_path = str(tmp_path / "rs.npz")
        code, out, _ = run(capsys, "save", "--stage", "ruleset",
                           "--rules-file", str(rules), "-o", out_path)
        assert code == 0
        assert "2 rules" in out
        from repro.automata.serialize import load_ruleset

        mps = load_ruleset(out_path)
        assert mps.patterns == ["abc", "zz*top"]
        assert mps.matches(b"xx abc zztop") == {0, 1}

    def test_ruleset_stage_requires_rules_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "save", "--stage", "ruleset",
                           "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert "--rules-file" in err

    def test_ruleset_stage_rejects_pattern_positional(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("abc\n")
        code, _, err = run(capsys, "save", "abc", "--stage", "ruleset",
                           "--rules-file", str(rules),
                           "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert "pattern" in err

    def test_rules_file_with_wrong_stage_fails_loudly(self, capsys, tmp_path):
        # a dfa/sfa archive of a ruleset would silently drop rule identity
        rules = tmp_path / "rules.txt"
        rules.write_text("abc\nzz*top\n")
        for stage in ("dfa", "sfa"):
            out_path = tmp_path / f"{stage}.npz"
            code, _, err = run(capsys, "save", "--stage", stage,
                               "--rules-file", str(rules),
                               "-o", str(out_path))
            assert code == 2, stage
            assert "--stage ruleset" in err
            assert not out_path.exists()  # no lossy archive was written

    def test_plain_stage_still_needs_pattern(self, capsys, tmp_path):
        code, _, err = run(capsys, "save", "--stage", "sfa",
                           "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert "pattern" in err

    def test_empty_rules_file_rejected(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("# only comments\n")
        code, _, err = run(capsys, "save", "--stage", "ruleset",
                           "--rules-file", str(rules),
                           "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert "no rules" in err


class TestMatchset:
    def _rules(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("abc\na[0-9]+b\nzz*top\n")
        return str(rules)

    def test_lists_matching_rules(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"pad abc pad a42b pad")
        code, out, _ = run(capsys, "matchset",
                           "--rules-file", self._rules(tmp_path), str(f))
        assert code == 0
        assert "0:abc" in out
        assert "1:a[0-9]+b" in out
        assert "2:zz*top" not in out
        assert "matched 2/3 rules" in out

    def test_no_match_exit_one(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"nothing here")
        code, out, _ = run(capsys, "matchset",
                           "--rules-file", self._rules(tmp_path), str(f))
        assert code == 1
        assert "matched 0/3 rules" in out

    def test_knobs_and_npz_roundtrip(self, capsys, tmp_path):
        """The end-to-end production flow: compile, save, load, scan."""
        rules_path = self._rules(tmp_path)
        npz_path = str(tmp_path / "rs.npz")
        code, _, _ = run(capsys, "save", "--stage", "ruleset",
                         "--rules-file", rules_path, "-o", npz_path)
        assert code == 0
        f = tmp_path / "in.bin"
        f.write_bytes(b"x" * 100 + b"abc" + b"y" * 100 + b"zztop")
        for executor in ("serial", "threads", "processes"):
            for kernel in ("python", "stride4"):
                code, out, _ = run(capsys, "matchset", "--rules-file", npz_path,
                                   str(f), "--chunks", "4",
                                   "--executor", executor, "--workers", "2",
                                   "--kernel", kernel)
                assert code == 0, (executor, kernel)
                assert "matched 2/3 rules" in out, (executor, kernel)

    def test_ignore_case_flag(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"PAD ABC PAD")
        code, out, _ = run(capsys, "matchset",
                           "--rules-file", self._rules(tmp_path), str(f), "-i")
        assert code == 0
        assert "0:abc" in out

    def test_compile_error_exit_two(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("(ab\n")
        f = tmp_path / "in.bin"
        f.write_bytes(b"x")
        code, _, err = run(capsys, "matchset", "--rules-file", str(rules), str(f))
        assert code == 2
        assert "error" in err

    def test_bogus_npz_exit_two(self, capsys, tmp_path):
        bogus = tmp_path / "rules.npz"
        bogus.write_bytes(b"not an archive")
        f = tmp_path / "in.bin"
        f.write_bytes(b"x")
        code, _, err = run(capsys, "matchset", "--rules-file", str(bogus), str(f))
        assert code == 2
        assert "not a ruleset archive" in err

    def test_binary_pattern_file_exit_two(self, capsys, tmp_path):
        # an archive renamed without .npz reads as a pattern file: exit 2,
        # not a UnicodeDecodeError crash (which the shell reads as exit 1)
        binary = tmp_path / "rules.dat"
        binary.write_bytes(bytes(range(256)))
        f = tmp_path / "in.bin"
        f.write_bytes(b"x")
        code, _, err = run(capsys, "matchset", "--rules-file", str(binary), str(f))
        assert code == 2
        assert "not a text pattern file" in err

    def test_save_normalizes_npz_extension(self, capsys, tmp_path):
        # np.savez appends .npz silently; the CLI must report the real path
        rules = tmp_path / "rules.txt"
        rules.write_text("abc\n")
        bare = tmp_path / "ids"
        code, out, _ = run(capsys, "save", "--stage", "ruleset",
                           "--rules-file", str(rules), "-o", str(bare))
        assert code == 0
        assert not bare.exists()
        assert f"{bare}.npz" in out
        f = tmp_path / "in.bin"
        f.write_bytes(b"xx abc")
        code, _, _ = run(capsys, "matchset", "--rules-file", f"{bare}.npz", str(f))
        assert code == 0


class TestServeClientCLI:
    """``repro client`` driven against a live in-process server."""

    @pytest.fixture()
    def service_port(self):
        from tests.test_service import _ServerHandle

        handle = _ServerHandle(cache_size=16)
        yield handle.port
        handle.stop()

    def client(self, capsys, port, *argv):
        code = main(["client", "--port", str(port), *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_ping(self, capsys, service_port):
        code, out, _ = self.client(capsys, service_port, "ping")
        assert code == 0
        assert out == "pong\n"

    def test_match_and_exit_codes(self, capsys, service_port, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"abab")
        code, out, _ = self.client(
            capsys, service_port, "match", "(ab)*", str(f)
        )
        assert code == 0 and out == "match\n"
        code, out, _ = self.client(
            capsys, service_port, "match", "(ab)*c", str(f)
        )
        assert code == 1 and out == "no match\n"

    def test_scan_and_finditer(self, capsys, service_port, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"xx ERROR 42 yy ERROR 7")
        code, out, _ = self.client(
            capsys, service_port, "match", "--contains", "ERROR [0-9]+",
            str(f), "--engine", "sfa", "--chunks", "4", "--kernel", "stride2",
        )
        assert code == 0 and out == "match\n"
        code, out, _ = self.client(
            capsys, service_port, "finditer", "ERROR [0-9]+", str(f)
        )
        assert code == 0
        assert out == "3:11:ERROR 42\n15:22:ERROR 7\n"

    def test_multiscan(self, capsys, service_port, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("# c\nabc\nzz*top\nnope[0-9]\n")
        f = tmp_path / "in.bin"
        f.write_bytes(b"xx abc zztop")
        code, out, _ = self.client(
            capsys, service_port, "multiscan",
            "--rules-file", str(rules), str(f),
        )
        assert code == 0
        assert "0:abc" in out and "1:zz*top" in out
        assert "matched 2/3 rules" in out

    def test_stream_spans(self, capsys, service_port, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"xx ERROR 42 yy ERROR 7 zz")
        code, out, _ = self.client(
            capsys, service_port, "stream", "ERROR [0-9]+", str(f),
            "--block-size", "5",
        )
        assert code == 0
        assert out == "3:11\n15:22\n"

    def test_stream_rules(self, capsys, service_port, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("abc\nzz*top\n")
        f = tmp_path / "in.bin"
        f.write_bytes(b"xx abc yy zztop")
        code, out, _ = self.client(
            capsys, service_port, "stream", str(f),
            "--rules-file", str(rules), "--block-size", "4",
        )
        assert code == 0
        assert out == "rule 0\nrule 1\n"

    def test_stats_json(self, capsys, service_port):
        code, out, _ = self.client(capsys, service_port, "stats")
        assert code == 0
        import json

        stats = json.loads(out)
        assert stats["ok"] is True and "cache" in stats

    def test_compile_error_exit_two(self, capsys, service_port, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"x")
        code, _, err = self.client(
            capsys, service_port, "match", "(ab", str(f)
        )
        assert code == 2
        assert "error" in err

    def test_connection_refused_exit_two(self, capsys, tmp_path):
        f = tmp_path / "in.bin"
        f.write_bytes(b"x")
        with socket_mod.socket() as s:  # grab a port nobody serves
            s.bind(("127.0.0.1", 0))
            dead_port = s.getsockname()[1]
        code, _, err = self.client(capsys, dead_port, "ping")
        assert code == 2
        assert err != ""

    def test_serve_main_in_process(self):
        """`repro serve` main loop, driven and shut down over the wire."""
        import time

        from repro.service.client import ServiceClient

        with socket_mod.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        t = threading.Thread(
            target=main, args=(["serve", "--port", str(port)],), daemon=True
        )
        t.start()
        client = None
        for _ in range(200):
            try:
                client = ServiceClient(port=port, timeout=10.0)
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "serve main never started listening"
        with client:
            assert client.ping()
            client.shutdown()
        t.join(15)
        assert not t.is_alive(), "serve main did not exit after shutdown"

    def test_serve_subprocess_end_to_end(self, tmp_path):
        """The real thing: a `repro serve` process driven by `repro client`."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        srv = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = srv.stdout.readline()
            assert "listening on" in line, line
            port = line.split(":")[2].split()[0]
            f = tmp_path / "in.bin"
            f.write_bytes(b"abab")

            def client(*argv):
                return subprocess.run(
                    [sys.executable, "-m", "repro", "client",
                     "--port", port, *argv],
                    capture_output=True, text=True, env=env, timeout=60,
                )

            r = client("match", "(ab)*", str(f))
            assert r.returncode == 0 and r.stdout == "match\n", r.stderr
            r = client("shutdown")
            assert r.returncode == 0, r.stderr
            assert srv.wait(timeout=30) == 0  # graceful exit
        finally:
            if srv.poll() is None:  # pragma: no cover - cleanup path
                srv.kill()
                srv.wait()


class TestRuleset:
    def test_emits_rules(self, capsys):
        code, out, _ = run(capsys, "ruleset", "--rules", "5", "--seed", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "ruleset", "--rules", "4", "--seed", "9")
        _, out2, _ = run(capsys, "ruleset", "--rules", "4", "--seed", "9")
        assert out1 == out2
