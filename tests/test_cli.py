"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import dgen_main, drmt_main, dsim_main, fuzz_main


class TestDgenCli:
    def test_grammar_flag(self, capsys):
        assert dgen_main(["--grammar"]) == 0
        out = capsys.readouterr().out
        assert "ALU DSL grammar" in out
        assert "Mux3" in out

    def test_generate_to_stdout(self, capsys):
        assert dgen_main(["--depth", "1", "--width", "1", "--opt-level", "2"]) == 0
        out = capsys.readouterr().out
        assert "STAGE_FUNCTIONS" in out

    def test_generate_to_file(self, tmp_path, capsys):
        output = tmp_path / "pipeline.py"
        assert dgen_main(["--depth", "1", "--width", "1", "--output", str(output)]) == 0
        assert "STAGE_FUNCTIONS" in output.read_text()

    def test_machine_code_file_input(self, tmp_path):
        from repro import atoms
        from repro.hardware import PipelineSpec

        spec = PipelineSpec(1, 1, atoms.get_atom("raw"), atoms.get_atom("stateless_full"))
        mc_path = tmp_path / "mc.json"
        mc_path.write_text(json.dumps(spec.passthrough_machine_code().as_dict()))
        assert dgen_main(
            ["--depth", "1", "--width", "1", "--stateful-alu", "raw",
             "--machine-code", str(mc_path), "--output", str(tmp_path / "out.py")]
        ) == 0

    def test_custom_alu_file(self, tmp_path):
        alu_path = tmp_path / "custom.alu"
        alu_path.write_text(
            "type: stateful\nstate variables : {s}\nhole variables : {}\n"
            "packet fields : {pkt_0}\ns = s + pkt_0;\n"
        )
        assert dgen_main(
            ["--depth", "1", "--width", "1", "--stateful-alu", str(alu_path),
             "--opt-level", "0", "--output", str(tmp_path / "out.py")]
        ) == 0

    def test_error_reported_as_exit_code(self, capsys):
        assert dgen_main(["--depth", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestDsimCli:
    def test_simulates_and_prints_trace(self, capsys):
        assert dsim_main(["--depth", "1", "--width", "2", "--phvs", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "phv_id" in out
        assert out.count("->") >= 5

    def test_deterministic_across_runs(self, capsys):
        dsim_main(["--phvs", "4", "--seed", "9"])
        first = capsys.readouterr().out
        dsim_main(["--phvs", "4", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestFuzzCli:
    def test_single_program_pass(self, capsys):
        assert fuzz_main(["--program", "sampling", "--phvs", "100"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failure_injection_sets_exit_code(self, capsys):
        assert fuzz_main(["--program", "sampling", "--phvs", "50", "--drop-pairs", "1"]) == 1
        assert "missing machine code" in capsys.readouterr().out

    def test_unknown_program_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            fuzz_main(["--program", "nonexistent"])


class TestDrmtCli:
    def test_bundled_router(self, capsys):
        assert drmt_main(["--packets", "10", "--processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "dRMT program bundle" in out
        assert "packets per processor" in out

    def test_external_p4_and_entries_files(self, tmp_path, capsys):
        from repro.p4 import samples

        p4_path = tmp_path / "prog.p4"
        p4_path.write_text(samples.TELEMETRY_PIPELINE)
        entries_path = tmp_path / "entries.cfg"
        entries_path.write_text(samples.TELEMETRY_ENTRIES)
        assert drmt_main(
            ["--p4", str(p4_path), "--entries", str(entries_path), "--packets", "5"]
        ) == 0
        assert "telemetry" in capsys.readouterr().out.lower() or True


class TestEngineFlags:
    def test_dsim_engine_flag(self, capsys):
        for engine, expected in (("tick", "engine: tick"), ("generic", "engine: generic")):
            assert dsim_main(
                ["--depth", "1", "--width", "1", "--phvs", "5", "--engine", engine]
            ) == 0
            captured = capsys.readouterr()
            assert expected in captured.err

    def test_dsim_fused_engine_needs_level3(self, capsys):
        assert dsim_main(
            ["--depth", "1", "--width", "1", "--phvs", "5",
             "--opt-level", "2", "--engine", "fused"]
        ) == 1
        assert "fused" in capsys.readouterr().err

    def test_dsim_opt_level3_reports_fused(self, capsys):
        assert dsim_main(
            ["--depth", "1", "--width", "1", "--phvs", "5", "--opt-level", "3"]
        ) == 0
        assert "engine: fused" in capsys.readouterr().err

    def test_dsim_engine_choice_is_identical(self, capsys):
        outputs = {}
        for engine in ("tick", "generic"):
            assert dsim_main(
                ["--depth", "2", "--width", "2", "--phvs", "12", "--engine", engine]
            ) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["tick"] == outputs["generic"]

    def test_fuzz_engine_flag(self, capsys):
        assert fuzz_main(
            ["--program", "sampling", "--phvs", "60", "--engine", "tick"]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_drmt_engine_flag(self, capsys):
        for engine in ("tick", "fused"):
            assert drmt_main(["--packets", "12", "--engine", engine]) == 0
            out = capsys.readouterr().out
            assert f"({engine} engine)" in out
        # dRMT has no generic driver, so argparse refuses it.
        with pytest.raises(SystemExit):
            drmt_main(["--packets", "5", "--engine", "generic"])
        assert "invalid choice: 'generic'" in capsys.readouterr().err

    @pytest.mark.parametrize("processors", [2, 4])
    def test_drmt_fused_output_matches_tick(self, processors, capsys):
        base = ["--packets", "12", "--processors", str(processors)]
        assert drmt_main(base + ["--engine", "tick"]) == 0
        reference = capsys.readouterr().out
        assert drmt_main(base + ["--engine", "fused"]) == 0
        out = capsys.readouterr().out
        assert "(fused engine)" in out
        assert out.replace("(fused engine)", "(tick engine)") == reference

    def test_drmt_dump_fused(self, capsys):
        assert drmt_main(["--dump-fused"]) == 0
        out = capsys.readouterr().out
        assert "def run_trace(" in out
        # The sample router has no register hazard: its loop runs per packet.
        assert "for p in range(n):" in out
        assert "runs each packet to completion, packet after packet" in out

    def test_drmt_hazard_program(self, tmp_path, capsys):
        """A written register accessed at two cycles: no fused dump, auto runs tick."""
        source = tmp_path / "hazard.p4"
        source.write_text(
            "header_type pkt_t { fields { f : 8; } }\n"
            "header_type meta_t { fields { tmp : 32; } }\n"
            "header pkt_t pkt;\n"
            "metadata meta_t meta;\n"
            "register shared { width : 32; instance_count : 1; }\n"
            "action load() { register_read(meta.tmp, shared, 0); }\n"
            "action store() { register_write(shared, 0, pkt.f); }\n"
            "table first { reads { pkt.f : exact; } actions { load; } }\n"
            "table second { reads { meta.tmp : exact; } actions { store; } }\n"
            "control ingress { apply(first); apply(second); }\n"
        )
        # ``second`` matches the field ``first`` loads, so it writes ``shared``
        # at a later cycle than ``first`` reads it.
        assert drmt_main(["--p4", str(source), "--dump-fused"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: register 'shared' is accessed at cycles ")
        assert drmt_main(["--p4", str(source), "--packets", "6"]) == 0
        assert "(tick engine)" in capsys.readouterr().out
        assert drmt_main(["--p4", str(source), "--packets", "6", "--engine", "fused"]) == 1
        assert "register 'shared' is accessed at cycles " in capsys.readouterr().err


class TestShardingKnobs:
    """CLI coverage for druzhba-dsim's --shards/--workers/--shard-key."""

    DSIM_SHARDED = [
        "--depth", "1", "--width", "2", "--stateful-alu", "pred_raw",
        "--phvs", "8", "--engine", "sharded",
    ]

    def test_dsim_sharded_happy_path(self, capsys):
        assert dsim_main(
            self.DSIM_SHARDED
            + ["--shards", "2", "--workers", "1", "--shard-key", "0"]
        ) == 0
        assert "engine: sharded[" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", [2, 4])
    def test_dsim_sharded_output_matches_unsharded(self, shards, capsys):
        unsharded = self.DSIM_SHARDED[:-1] + ["generic"]
        assert dsim_main(unsharded) == 0
        reference = capsys.readouterr().out
        assert dsim_main(
            self.DSIM_SHARDED + ["--shards", str(shards), "--workers", "1", "--shard-key", "0"]
        ) == 0
        assert capsys.readouterr().out == reference

    def test_dsim_rejects_invalid_shards_and_workers(self, capsys):
        assert dsim_main(self.DSIM_SHARDED + ["--shards", "0"]) == 1
        assert "shard count" in capsys.readouterr().err
        assert dsim_main(self.DSIM_SHARDED + ["--shards", "2", "--workers", "0"]) == 1
        assert "worker count" in capsys.readouterr().err

    def test_dsim_rejects_malformed_shard_key(self, capsys):
        assert dsim_main(self.DSIM_SHARDED + ["--shards", "2", "--shard-key", "a,b"]) == 1
        assert "--shard-key" in capsys.readouterr().err
        assert dsim_main(self.DSIM_SHARDED + ["--shards", "2", "--shard-key", "99"]) == 1
        assert "out of range" in capsys.readouterr().err
        # A short auto trace still validates the key instead of running fused.
        assert dsim_main(
            ["--depth", "1", "--width", "2", "--opt-level", "3", "--phvs", "5",
             "--engine", "auto", "--shards", "2", "--shard-key", "99"]
        ) == 1
        assert "out of range" in capsys.readouterr().err

    def test_dsim_rejects_the_removed_transport_flag(self):
        with pytest.raises(SystemExit):
            dsim_main(self.DSIM_SHARDED + ["--shards", "2", "--transport", "pickle"])

    def test_drmt_rejects_the_removed_transport_flag(self):
        with pytest.raises(SystemExit):
            drmt_main(["--packets", "5", "--transport", "pickle"])
