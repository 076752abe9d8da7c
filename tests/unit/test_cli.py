"""Unit tests for the command-line driver (python -m repro)."""

import pytest

from repro import obs
from repro.__main__ import main


@pytest.fixture(autouse=True)
def _reset_obs():
    """CLI flags flip the process-global obs switch; isolate each test."""
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        "#ifndef N\n#define N 3\n#endif\n"
        "int twice(int x) { return x * 2; }\n"
        "int main() { print_int(twice(N)); return 0; }\n")
    return str(path)


class TestBounds:
    def test_prints_table(self, program_file, capsys):
        assert main(["bounds", program_file]) == 0
        out = capsys.readouterr().out
        assert "twice" in out and "main" in out
        assert "stack requirement" in out

    def test_check_flag(self, program_file, capsys):
        assert main(["bounds", program_file, "--check"]) == 0
        out = capsys.readouterr().out
        assert "re-checked" in out and "exact" in out


class TestRun:
    def test_runs_at_verified_bound(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "6" in out
        assert "measured stack usage" in out

    def test_define_flag(self, program_file, capsys):
        assert main(["run", program_file, "-D", "N=21"]) == 0
        assert "42" in capsys.readouterr().out

    def test_explicit_stack_overflow(self, program_file, capsys):
        code = main(["run", program_file, "--stack", "4"])
        assert code == 125
        assert "overflow" in capsys.readouterr().out

    def test_exit_code_propagated(self, tmp_path, capsys):
        path = tmp_path / "seven.c"
        path.write_text("int main() { return 7; }\n")
        assert main(["run", str(path)]) == 7


class TestDump:
    @pytest.mark.parametrize("level", ["clight", "rtl", "linear", "mach",
                                       "asm"])
    def test_all_levels(self, program_file, capsys, level):
        assert main(["dump", program_file, "--level", level]) == 0
        assert "twice" in capsys.readouterr().out

    def test_single_function(self, program_file, capsys):
        assert main(["dump", program_file, "--level", "asm",
                     "--function", "twice"]) == 0
        out = capsys.readouterr().out
        assert "twice" in out and "main:" not in out

    def test_pass_toggles(self, program_file, capsys):
        assert main(["dump", program_file, "--level", "rtl",
                     "--no-constprop", "--no-deadcode", "--cse",
                     "--tailcall"]) == 0


class TestTrace:
    def test_events_printed(self, program_file, capsys):
        assert main(["trace", program_file]) == 0
        out = capsys.readouterr().out
        assert "call(main)" in out
        assert "call(twice)" in out
        assert "weight under the compiled metric" in out

    def test_limit(self, program_file, capsys):
        assert main(["trace", program_file, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more events" in out


class TestCertify:
    def test_certify_and_recheck(self, program_file, tmp_path, capsys):
        cert = str(tmp_path / "prog.cert.json")
        assert main(["certify", program_file, "-o", cert]) == 0
        assert main(["check-cert", program_file, cert]) == 0
        out = capsys.readouterr().out
        assert "certificate OK" in out and "twice" in out

    def test_certify_to_stdout(self, program_file, capsys):
        assert main(["certify", program_file]) == 0
        assert "repro-stack-certificate" in capsys.readouterr().out

    def test_check_cert_against_modified_program(self, program_file,
                                                 tmp_path, capsys):
        cert = str(tmp_path / "prog.cert.json")
        assert main(["certify", program_file, "-o", cert]) == 0
        other = tmp_path / "other.c"
        other.write_text("int twice(int x) { return x; } "
                         "int main() { return twice(twice(1)); }")
        assert main(["check-cert", str(other), cert]) == 2
        assert "error" in capsys.readouterr().err


class TestCheckCertRejection:
    """Every rejection path exits 2 with a diagnostic, never a traceback."""

    @pytest.fixture
    def cert(self, program_file, tmp_path):
        path = str(tmp_path / "prog.cert.json")
        assert main(["certify", program_file, "-o", path]) == 0
        return path

    def _expect_reject(self, program_file, cert, capsys, needle):
        code = main(["check-cert", program_file, cert])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err and needle in captured.err
        assert "certificate OK" not in captured.out

    def test_malformed_json(self, program_file, cert, tmp_path, capsys):
        text = open(cert).read()
        bad = tmp_path / "malformed.json"
        bad.write_text(text[:len(text) // 2])
        self._expect_reject(program_file, str(bad), capsys, "not valid JSON")

    def test_truncated_rule_tree(self, program_file, cert, tmp_path, capsys):
        import json

        data = json.load(open(cert))
        for entry in data["functions"].values():
            nodes = [entry["derivation"]]
            while nodes:
                node = nodes.pop()
                if node.get("children"):
                    node["children"] = node["children"][:-1]
                    nodes = []
                    break
                nodes.extend(node.get("children", ()))
        bad = tmp_path / "truncated.json"
        bad.write_text(json.dumps(data))
        # The diagnostic names the failing rule application.
        self._expect_reject(program_file, str(bad), capsys, "Q:")

    def test_unsupported_version(self, program_file, cert, tmp_path, capsys):
        import json

        data = json.load(open(cert))
        data["version"] += 1
        bad = tmp_path / "version.json"
        bad.write_text(json.dumps(data))
        self._expect_reject(program_file, str(bad), capsys,
                            "unsupported certificate version")

    def test_wrong_program(self, cert, tmp_path, capsys):
        other = tmp_path / "unrelated.c"
        other.write_text("int main() { return 0; }\n")
        self._expect_reject(str(other), cert, capsys, "unknown function")

    def test_corrupt_total_bound(self, program_file, cert, tmp_path, capsys):
        import json

        data = json.load(open(cert))
        data["functions"]["main"]["total_bound"] = {"k": "const", "v": 0}
        bad = tmp_path / "total.json"
        bad.write_text(json.dumps(data))
        self._expect_reject(program_file, str(bad), capsys, "total_bound")


class TestFuzzMatrixCLI:
    def test_plant_choices_come_from_the_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--plant", "drop-sp"])
        assert "drop-ra" in capsys.readouterr().err


class TestErrors:
    """Diagnosed errors exit 2 uniformly: one line on stderr, no traceback."""

    def test_missing_file(self, capsys):
        assert main(["bounds", "/nonexistent/x.c"]) == 2
        assert "error" in capsys.readouterr().err

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        assert main(["bounds", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["08", "0x"])
    def test_malformed_number_is_diagnosed(self, tmp_path, capsys, literal):
        path = tmp_path / "number.c"
        path.write_text(f"int main(void){{ return {literal}; }}")
        assert main(["bounds", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1:24:" in err
        assert "Traceback" not in err

    def test_recursion_reported(self, tmp_path, capsys):
        path = tmp_path / "rec.c"
        path.write_text("int f(int n) { return f(n); } "
                        "int main() { return 0; }")
        assert main(["bounds", str(path)]) == 2
        assert "recursion" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "run", "dump", "trace",
                                         "profile", "certify"])
    def test_uniform_across_subcommands(self, command, capsys):
        assert main([command, "/nonexistent/x.c"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_diagnosed(self, program_file, capsys):
        code = main(["bounds", program_file,
                     "--metrics-out", "/nonexistent-dir/m.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_metrics_out(self, program_file, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        assert main(["bounds", program_file, "--check",
                     "--metrics-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "repro.obs.metrics/1"
        assert document["counters"]["checker.nodes"] > 0

    def test_trace_out_jsonl(self, program_file, tmp_path, capsys):
        import json

        out = tmp_path / "t.jsonl"
        assert main(["run", program_file, "--trace-out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        names = {json.loads(line)["name"] for line in lines[1:]}
        assert "compile.frontend" in names
        assert "exec.asm" in names

    def test_trace_out_chrome(self, program_file, tmp_path, capsys):
        import json

        out = tmp_path / "t.json"
        assert main(["run", program_file, "--trace-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])


class TestTraceStreaming:
    def test_truncation_marker_counts_hidden_events(self, program_file,
                                                    capsys):
        assert main(["trace", program_file, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        # Exactly 2 events printed, the rest summarized.
        assert len([line for line in out.splitlines()
                    if line.startswith(("call(", "ret("))]) == 2
        assert "+" in out and "more events" in out

    def test_weight_covers_full_stream(self, program_file, capsys):
        """The reported weight is identical however far --limit cuts."""
        assert main(["trace", program_file, "--limit", "1"]) == 0
        truncated = capsys.readouterr().out
        assert main(["trace", program_file, "--limit", "100000"]) == 0
        full = capsys.readouterr().out
        weight = [line for line in full.splitlines() if "weight" in line]
        assert weight and weight[0] in truncated


class TestProfile:
    def test_renders_span_tree(self, program_file, capsys):
        assert main(["profile", program_file]) == 0
        out = capsys.readouterr().out
        for name in ("compile.frontend", "compile.backend", "analyze.auto",
                     "analyze.check", "exec.asm", "exec.clight", "exec.rtl",
                     "exec.mach", "total"):
            assert name in out, f"missing {name} in profile output"
        assert "steps/s" in out and "ms" in out
