"""Tests for the CLI entry point and the public package surface."""

import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main


class TestCli:
    def test_solve_default(self, capsys):
        assert main(["solve", "--nodes", "4", "--alpha", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "allocation:" in out

    def test_solve_with_plot(self, capsys):
        assert main(["solve", "--plot", "--start", "single"]) == 0
        out = capsys.readouterr().out
        assert "convergence profile" in out

    def test_solve_star(self, capsys):
        assert main(["solve", "--topology", "star", "--nodes", "5"]) == 0
        assert "star-5" in capsys.readouterr().out

    def test_figure_4(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "paper reduction" in out

    def test_figure_3(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "paper iters" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "7"])

    def test_solve_emit_metrics(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "metrics.jsonl"
        assert main([
            "solve", "--nodes", "4", "--alpha", "0.3", "--emit-metrics", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "RunReport[" in out
        assert "allocator.iterations" in out
        events = read_jsonl(path)
        names = {e["event"] for e in events}
        assert "iteration" in names and "run_complete" in names
        # One iteration event per trace record, in sequence order.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_trace_streams_jsonl_to_stdout(self, capsys):
        import json

        assert main(["trace", "--nodes", "4", "--alpha", "0.3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        events = [json.loads(l) for l in lines]  # every line is valid JSON
        assert events[0]["event"] == "iteration"
        assert events[-1]["event"] == "run_complete"

    def test_trace_to_file(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--nodes", "4", "--out", str(path)]) == 0
        assert "events ->" in capsys.readouterr().out
        events = read_jsonl(path)
        assert events[-1]["event"] == "run_complete"
        assert events[-1]["converged"] is True

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "solve", "--nodes", "4"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "converged" in proc.stdout


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet(self):
        """The README / module docstring example, verbatim."""
        problem = repro.FileAllocationProblem.paper_network()
        result = repro.DecentralizedAllocator(problem, alpha=0.3).run(
            [0.8, 0.1, 0.1, 0.0]
        )
        np.testing.assert_allclose(result.allocation, 0.25, atol=1e-3)
        assert result.trace.costs()[0] > result.trace.costs()[-1]

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.baselines
        import repro.distributed
        import repro.economics
        import repro.estimation
        import repro.experiments
        import repro.multicopy
        import repro.network
        import repro.queueing
        import repro.storage

        for module in (
            repro.analysis,
            repro.baselines,
            repro.distributed,
            repro.economics,
            repro.estimation,
            repro.experiments,
            repro.multicopy,
            repro.network,
            repro.queueing,
            repro.storage,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestCliReport:
    def test_fast_report(self, capsys):
        from repro.cli import main

        assert main(["report", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 9" in out


class TestCliTopology:
    def test_topology_preview(self, capsys):
        from repro.cli import main

        assert main(["topology", "--nodes", "5", "--topology", "star"]) == 0
        out = capsys.readouterr().out
        assert "5 nodes, 4 edges" in out
        assert "connected" in out


class TestCliCopies:
    def test_copy_sweep(self, capsys):
        from repro.cli import main

        assert main([
            "copies", "--nodes", "4", "--mu", "8", "--write-fraction", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Copy-count sweep" in out
        assert "optimal m = " in out


class TestCliSweep:
    def test_engines_agree(self, capsys):
        from repro.cli import main

        outputs = {}
        for engine in ("serial", "batched", "pooled"):
            assert main([
                "sweep", "--param", "alpha", "--values", "0.08,0.3,0.67",
                "--engine", engine,
            ]) == 0
            out = capsys.readouterr().out
            # Strip the title and its underline (they name the engine).
            outputs[engine] = out.split("\n", 2)[2]
        assert outputs["serial"] == outputs["batched"] == outputs["pooled"]
        assert "51" in outputs["serial"]  # the figure-3 alpha=0.08 count

    def test_k_sweep_writes_json(self, capsys, tmp_path):
        from repro.cli import main
        from repro.experiments import SweepResult

        out_path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--param", "k", "--grid", "0.5:2.0:4",
            "--engine", "batched", "--out", str(out_path),
        ]) == 0
        restored = SweepResult.from_json(out_path.read_text())
        assert restored.parameter == "k"
        assert len(restored.values) == 4
        assert all(m["converged"] for m in restored.measurements)

    def test_grid_validation(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="exactly one"):
            main(["sweep", "--param", "alpha"])
        with pytest.raises(SystemExit, match="bad --grid"):
            main(["sweep", "--param", "alpha", "--grid", "nope"])
        with pytest.raises(SystemExit, match="bad --values"):
            main(["sweep", "--param", "alpha", "--values", "a,b"])

    def test_batched_warm_start_matches_fast(self, capsys, tmp_path):
        # PR 7 lifted the old fail-fast: the continuous batcher's
        # row-staggered continuation makes warm-started sweeps batchable.
        # With the default --chains 1 the measurements must be *identical*
        # to the serial fast warm sweep — same costs, same per-point
        # iteration counts — because a single chain is the serial chain.
        import json

        from repro.cli import main

        grids = {}
        for engine in ["fast", "batched"]:
            out_path = tmp_path / f"{engine}.json"
            assert main([
                "sweep", "--param", "k", "--grid", "0.5:2.0:8",
                "--engine", engine, "--warm-start", "--out", str(out_path),
            ]) == 0
            grids[engine] = json.loads(out_path.read_text())
        capsys.readouterr()
        assert grids["batched"] == grids["fast"]
        # Warm starts must actually be doing work: interior points start
        # from their neighbor's optimum and converge almost immediately.
        iters = [m["iterations"] for m in grids["batched"]["measurements"]]
        assert max(iters[1:]) < iters[0]

    def test_batched_warm_start_multi_chain_same_optima(self, capsys, tmp_path):
        # More chains stagger the grid across slots: same optima (the
        # measurements converge to the same costs within epsilon), but
        # chain heads start cold so iteration counts differ.
        import json

        from repro.cli import main

        out_single = tmp_path / "single.json"
        out_multi = tmp_path / "multi.json"
        for path, chains in [(out_single, "1"), (out_multi, "3")]:
            assert main([
                "sweep", "--param", "k", "--grid", "0.5:2.0:9",
                "--engine", "batched", "--warm-start", "--chains", chains,
                "--out", str(path),
            ]) == 0
        capsys.readouterr()
        single = json.loads(out_single.read_text())
        multi = json.loads(out_multi.read_text())
        assert all(m["converged"] for m in multi["measurements"])
        for a, b in zip(single["measurements"], multi["measurements"]):
            assert abs(a["cost"] - b["cost"]) < 1e-3

    def test_sweep_rejects_bad_chains(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--chains must be >= 1"):
            main([
                "sweep", "--param", "alpha", "--values", "0.1,0.2",
                "--engine", "batched", "--warm-start", "--chains", "0",
            ])


class TestCliServe:
    REQUEST = (
        '{"id": "%s", "problem": {"topology": "ring", "nodes": 4, "mu": 1.5,'
        ' "rate": 1.0, "k": %s}, "alpha": 0.3, "start": "skewed"}'
    )

    def test_serve_stream(self, capsys, tmp_path):
        import json

        from repro.cli import main

        lines = [
            self.REQUEST % ("a", "1.0"),
            self.REQUEST % ("b", "2.0"),
            self.REQUEST % ("a-again", "1.0"),  # exact repeat of "a"
            "this is not json",
            '{"id": "bad", "problem": {"topology": "torus"}}',
        ]
        in_path = tmp_path / "requests.jsonl"
        in_path.write_text("\n".join(lines) + "\n")
        # max_batch=2: "a" and "b" dispatch together, so the repeat probes
        # the cache in a later pump and must hit.
        assert main(["serve", "--input", str(in_path), "--max-batch", "2"]) == 0
        captured = capsys.readouterr()
        out = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert [o["id"] for o in out[:3]] == ["a", "b", "a-again"]
        assert out[0]["status"] == "ok" and out[0]["batch_size"] == 2
        assert out[2]["cache"] == "hit"
        assert out[2]["allocation"] == out[0]["allocation"]
        assert out[3]["status"] == "error" and "invalid JSON" in out[3]["detail"]
        assert out[4]["status"] == "error" and "torus" in out[4]["detail"]
        assert "served 3 of 3" in captured.err
        assert "cache hit/warm/miss = 1/0/2" in captured.err

    def test_serve_emit_metrics(self, capsys, tmp_path):
        from repro.cli import main
        from repro.obs import read_jsonl

        in_path = tmp_path / "requests.jsonl"
        in_path.write_text(self.REQUEST % ("solo", "1.0") + "\n")
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "serve", "--input", str(in_path), "--emit-metrics", str(metrics),
        ]) == 0
        names = {e["event"] for e in read_jsonl(metrics)}
        assert "service_batch" in names

    def test_serve_metrics_out_snapshot(self, capsys, tmp_path):
        import json

        from repro.cli import main

        in_path = tmp_path / "requests.jsonl"
        in_path.write_text(
            self.REQUEST % ("a", "1.0") + "\n" + self.REQUEST % ("a", "1.0") + "\n"
        )
        out_path = tmp_path / "final.json"
        # max_batch=1: the repeat dispatches in its own pump, after the
        # first solve was cached, so the snapshot shows one exact hit.
        assert main([
            "serve", "--input", str(in_path), "--max-batch", "1",
            "--metrics-out", str(out_path),
        ]) == 0
        capsys.readouterr()
        snapshot = json.loads(out_path.read_text())
        assert snapshot["counters"]["service.requests"] == 2
        assert snapshot["counters"]["service.cache.hit"] == 1
        assert snapshot["gauges"]["service.cache.size"] == 1


class TestServiceSettings:
    """The nine service settings are declared once, as ServiceConfig's
    fields; ``serve`` and ``net-serve`` spell them with one set of flags,
    and a bad one is refused before anything is served."""

    #: Each command's flags that are not service settings.
    OWN = {
        "serve": {"help", "input", "emit_metrics", "metrics_out"},
        "net-serve": {
            "help", "host", "port", "workers", "routing", "codec", "secret",
            "lookaside", "lookaside_ttl", "peers", "gossip_interval",
            "gossip_budget", "server_id", "metrics_out",
        },
    }

    @staticmethod
    def flags(command):
        """``{dest: default}`` of every flag of one subcommand."""
        import argparse

        from repro.cli import _build_parser

        sub = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return {action.dest: action.default for action in sub.choices[command]._actions}

    def test_both_commands_spell_exactly_the_config_fields(self):
        import dataclasses

        from repro.service import ServiceConfig

        fields = {f.name: f.default for f in dataclasses.fields(ServiceConfig)}
        assert len(fields) == 9
        for command, own in self.OWN.items():
            flags = self.flags(command)
            assert {k: v for k, v in flags.items() if k not in own} == fields, command

    def test_components_take_only_the_settings_they_use(self):
        import dataclasses
        import inspect

        from repro.net import NetServer
        from repro.service import AllocationService, ServiceConfig

        settings = {f.name for f in dataclasses.fields(ServiceConfig)}
        server = set(inspect.signature(NetServer.__init__).parameters)
        service = set(inspect.signature(AllocationService.__init__).parameters)
        assert not settings & server
        assert settings & service == {"max_batch"}

    def test_serve_refuses_a_bad_setting_before_reading_input(self, capsys):
        # No --input: a serve that got as far as reading would read stdin.
        assert main(["serve", "--cache-size", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "serve: capacity must be >= 0\n"

    def test_net_serve_refuses_a_bad_setting_before_listening(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "net-serve", "--port", "0",
             "--cache-size", "-1"],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "net-serve: capacity must be >= 0\n"
